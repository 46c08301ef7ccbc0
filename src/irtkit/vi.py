"""Discrete variational inference for binary responses.

Student-side latents get independent Gaussian variational posteriors
(question parameters stay point estimates). The evidence lower bound is
estimated by Monte Carlo with reparameterized samples b = mu + sigma*eps
against a fixed Normal(0, 1) prior, keeping the Bernoulli likelihood in
its exact discrete form:

    ELBO ~= (1/M) sum_m sum_(s,q) [ y*z - log(1 + e^z) ]  -  sum KL terms

with z the sampled logit. KL divergences to the prior are closed form.
Gradients w.r.t. means, (transformed) standard deviations, and question
point parameters are analytic, and sigma stays positive through a
softplus transform of an unconstrained value rather than by clipping.

Three variants: "rasch-vi" (variational ability only), "interaction-vi"
(variational ability and per-student skill vectors), and
"class-interaction-vi" (variational ability and per-class skill vectors,
shared by every student of the class). Their container is the point
kinds' Params, holding the rhos beside the means; initialisation
(optim.init_params) and plug-in prediction (models.predict_proba_array)
are the point kinds' own. The plug-in prediction is the one VI predictor:
a cell's logit is Gaussian under the posterior, with the plug-in logit as
its mean, so E[sigmoid(z)] makes the same 0.5 decision.

The ELBO's cell route (models.class_cells) is written here, on rows
grouped by student: abilities repeated over each student's rows plus a
(class, question) table gathered by cell, label sums for the y terms,
exp(z - softplus(z)) for the residual and np.add.reduceat for its sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import (CLASS_INTERACTION_VI, FAMILY, VI_KINDS, Params, check_shapes, class_cells, grad_scatter,
                     logits, predict_proba_array, question_rows, require_count, require_positive, sigmoid, softplus,
                     tensor_table, vec_rows)
from .optim import TrainingDiverged, TrainReport, init_params


def _kl_to_prior(mu, sigma):
    """KL(N(mu, sigma^2) || N(0, 1)), entry by entry: the one Gaussian KL kernel."""
    return -np.log(sigma) + (sigma**2 + mu**2) / 2.0 - 0.5


def draw_latent(mu, rho, eps):
    """Reparameterized draws mu + softplus(rho) * eps; eps may add leading draw axes."""
    return mu + softplus(rho) * eps


@dataclass
class VIConfig:
    samples: int = 5            # M, Monte Carlo draws per ELBO estimate
    sigma_init: float = 0.8
    learning_rate: float = 0.01  # ascent is on the total ELBO; scale down for large datasets
    epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, low in (("samples", 1), ("epochs", 0), ("seed", 0)):
            require_count(name, getattr(self, name), low)
        for name in ("sigma_init", "learning_rate"):
            require_positive(name, getattr(self, name))
        if 1 / self.sigma_init == np.inf or self.sigma_init > np.sqrt(np.finfo(np.float64).max):
            raise ValueError("sigma_init must be between about 5.56e-309 and 1.34e154 (1/sigma_init, which the sigma "
                             f"gradient takes, and sigma_init**2, which the KL takes, finite), got {self.sigma_init!r}")


def _draw_eps(params: Params, M: int, rng):
    """Noise draws in a fixed order so common random numbers line up."""
    if M < 1:
        raise ValueError("M must be >= 1")
    eps_ability = rng.standard_normal((M, params.ability.shape[0]))
    eps_vec = rng.standard_normal((M, *params.vec.shape)) if params.dims else None
    return eps_ability, eps_vec


def _responses(kind: str, data: Dataset):
    """What every ELBO evaluation on data reads: (s_idx, q_idx, vec rows, None, float y) on the row route.

    On the cell route, (None, None, None, cell data, None): the rows' cells grouped by student (a stable argsort
    groups rows not already grouped, unlike synthetic sets, their subsamples and splits), each student's row
    count, the first row of each student with rows, and the label sums per student and per cell.
    """
    s_idx, q_idx = data.student_idx, data.question_idx
    rows = vec_rows(kind, s_idx, data.class_of)
    cells = class_cells(kind, rows, q_idx, data.num_classes, data.num_questions)
    if cells is None:
        return s_idx, q_idx, rows, None, data.y.astype(np.float64)
    y_cell = np.bincount(cells, data.y, data.num_classes * data.num_questions)   # before cells leave row order
    if np.any(s_idx[1:] < s_idx[:-1]):
        cells = cells[np.argsort(s_idx, kind="stable")]
    counts = np.bincount(s_idx, minlength=data.num_students)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return None, None, None, (cells, counts, starts, np.bincount(s_idx, data.y, data.num_students), y_cell), None


def _elbo_core(params: Params, responses, eps_ability, eps_vec, want_grads: bool):
    """Monte Carlo ELBO and (optionally) its analytic gradient.

    The likelihood part is averaged over the M reparameterized samples,
    each scored by the shared logits kernel on question rows gathered
    once, or on the cell route by the kernel below; per-sample residuals
    y - sigma(z) propagate to mu via the identity path, to sigma via the
    eps factor (then through the softplus chain rule), and to the
    question point tensors directly (on the cell route, through W).
    """
    M = eps_ability.shape[0]
    s_idx, q_idx, rows, cell_data, y = responses
    D = params.dims
    family = FAMILY[params.kind]

    sig_a = softplus(params.ability_rho)
    ability_samp = draw_latent(params.ability, params.ability_rho, eps_ability)  # (M, S)
    sig_v = softplus(params.vec_rho) if D else None
    vec_samp = draw_latent(params.vec, params.vec_rho, eps_vec) if D else None  # (M, C|S, D)

    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()} if want_grads else None

    loglik = 0.0
    if cell_data is None:
        q_rows = question_rows(params, q_idx)
        for m in range(M):
            sample = Params(ability_samp[m], params.easiness, vec_samp[m] if D else None, params.demand, kind=family)
            z, gathered = logits(sample, s_idx, q_idx, rows, q_rows)
            e = np.exp(-np.abs(z))
            loglik += float(np.sum(y * z - softplus(z, e)))
            if want_grads:
                eps = (eps_ability[m], eps_vec[m] if D else None)
                for name, g in grad_scatter(sample, s_idx, q_idx, y - sigmoid(z, e), gathered, eps).items():
                    grads[name] += g
    else:
        cells, counts, starts, y_student, y_cell = cell_data
        for m, (ability, vec) in enumerate(zip(ability_samp, vec_samp)):
            table = (params.easiness + vec @ params.demand.T).ravel()   # (C * Q,) cell logits less ability
            z = table.take(cells)
            z += np.repeat(ability, counts)
            sp = softplus(z)
            loglik += float(y_student @ ability + y_cell @ table - np.sum(sp))
            if want_grads:
                z -= sp
                p = np.exp(z, out=z)   # sigmoid(z); z - softplus(z) <= 0, so it cannot overflow
                g_ability = y_student.copy()
                g_ability[counts > 0] -= np.add.reduceat(p, starts)   # a student without rows has no segment
                W = (y_cell - np.bincount(cells, p, y_cell.size)).reshape(-1, params.easiness.size)
                g_vec = W @ params.demand
                for name, g in (("ability", g_ability), ("ability_rho", g_ability * eps_ability[m]),
                                ("easiness", W.sum(axis=0)), ("vec", g_vec), ("vec_rho", g_vec * eps_vec[m]),
                                ("demand", W.T @ vec)):
                    grads[name] += g
    loglik /= M

    kl = float(np.sum(_kl_to_prior(params.ability, sig_a)))
    if D:
        kl += float(np.sum(_kl_to_prior(params.vec, sig_v)))
    elbo = loglik - kl

    if want_grads:
        for g in grads.values():
            g /= M
        for name, sig in (("ability", sig_a), ("vec", sig_v))[:2 if D else 1]:
            grads[name] -= getattr(params, name)
            grads[name + "_rho"] -= sig - 1.0 / sig
            # d softplus(rho) / d rho = sigmoid(rho)
            grads[name + "_rho"] *= sigmoid(getattr(params, name + "_rho"))
    return elbo, grads


def elbo_mc(params: Params, data: Dataset, M: int, seed: int, want_grads: bool = False):
    """Monte Carlo ELBO estimate and, with want_grads, its gradients (else None); the noise depends on seed alone."""
    check_shapes(params, tensor_table(params.kind, params.dims, data.num_students, data.num_questions,
                                      data.num_classes), "params")
    eps_ability, eps_vec = _draw_eps(params, M, np.random.default_rng(seed))
    return _elbo_core(params, _responses(params.kind, data), eps_ability, eps_vec, want_grads)


def train_vi(kind: str, data: Dataset, cfg: VIConfig, dims: int = 1, warm_start=None):
    """Full-batch ELBO ascent with fresh reparameterized noise per epoch.

    Every sigma starts at sigma_init, the rest as copies of warm_start (a
    point model of the kind's family) or as Normal(0, 0.01^2) draws. Every
    epoch draws M noise samples, forms the Monte Carlo ELBO and its gradient,
    and takes one ascent step on all variational and point parameters. Runs
    the configured epoch budget (the MC objective is too noisy for a
    relative-change stop). Deterministic given cfg.seed.
    """
    if kind not in VI_KINDS:
        raise ValueError(f"unknown VI kind {kind!r}")
    if data.n_responses == 0:
        raise ValueError("training data must be non-empty")
    if kind == CLASS_INTERACTION_VI and data.num_classes < 1:
        raise ValueError("class-interaction-vi requires class labels")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes, rng,
                         0.01, cfg.sigma_init, warm_start)

    responses = _responses(kind, data)
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # a non-finite ELBO raises TrainingDiverged
        for epoch in range(1, cfg.epochs + 1):
            eps_ability, eps_vec = _draw_eps(params, cfg.samples, rng)
            elbo, grads = _elbo_core(params, responses, eps_ability, eps_vec, want_grads=True)
            if not np.isfinite(elbo):   # epoch 1 scores the initial parameters, before any step
                cause = "learning rate too high?" if epoch > 1 else "initial parameters: sigma_init or warm start too large?"
                raise TrainingDiverged(f"non-finite ELBO at epoch {epoch} ({cause})")
            trace.append(-elbo)
            for name, g in grads.items():
                getattr(params, name)[...] += cfg.learning_rate * g
    return params, TrainReport(final_nll=trace[-1] if trace else None, epochs_run=len(trace), nll_trace=trace)


def predict_proba_vi_array(params: Params, s_idx, q_idx, class_of=None) -> np.ndarray:
    """Vectorized plug-in-mean probabilities: the point predictor at the means."""
    return predict_proba_array(params, s_idx, q_idx, class_of)
