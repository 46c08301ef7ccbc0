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
shared by every student of the class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .models import _P_HI, _P_LO, sigmoid, softplus
from .optim import TrainingDiverged, TrainReport

RASCH_VI = "rasch-vi"
INTERACTION_VI = "interaction-vi"
CLASS_INTERACTION_VI = "class-interaction-vi"
VI_KINDS = (RASCH_VI, INTERACTION_VI, CLASS_INTERACTION_VI)

PLUG_IN_MEAN = "plugin-mean"
MONTE_CARLO = "monte-carlo"


def inv_softplus(s):
    """Inverse of softplus; linear in the tail to avoid expm1 overflow."""
    s = np.asarray(s, dtype=np.float64)
    out = np.where(s > 30.0, s, np.log(np.expm1(np.minimum(s, 30.0))))
    return out if out.ndim else float(out)


def kl_gaussian(mu1, sigma1, mu2, sigma2):
    """KL(N(mu1, sigma1^2) || N(mu2, sigma2^2)), closed form."""
    sigma1 = np.asarray(sigma1, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma1 <= 0) or np.any(sigma2 <= 0):
        raise ValueError("standard deviations must be positive")
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    out = np.log(sigma2 / sigma1) + (sigma1**2 + (mu1 - mu2) ** 2) / (2.0 * sigma2**2) - 0.5
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GaussianVariational:
    """One variational factor; sigma is recovered from the raw value."""

    mu: float
    sigma_raw: float

    @property
    def sigma(self) -> float:
        return float(softplus(self.sigma_raw))

    @classmethod
    def from_moments(cls, mu: float, sigma: float) -> "GaussianVariational":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(mu, float(inv_softplus(sigma)))


def reparameterize(v: GaussianVariational, eps: float) -> float:
    """Location-scale sample mu + sigma * eps from a standard-normal draw."""
    return v.mu + v.sigma * eps


@dataclass
class VIParams:
    """Variational posteriors over student-side latents, points elsewhere.

    ability_* cover the per-student bias; skill_* (interaction-vi) and
    class_skill_* (class-interaction-vi) cover the interaction vectors.
    easiness and demand are point estimates.
    """

    kind: str
    ability_mu: np.ndarray
    ability_rho: np.ndarray
    easiness: np.ndarray
    demand: Optional[np.ndarray] = None
    skill_mu: Optional[np.ndarray] = None
    skill_rho: Optional[np.ndarray] = None
    class_skill_mu: Optional[np.ndarray] = None
    class_skill_rho: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in VI_KINDS:
            raise ValueError(f"unknown VI kind {self.kind!r}")

    @property
    def dims(self) -> int:
        return 0 if self.demand is None else int(self.demand.shape[1])

    @property
    def ability_sigma(self) -> np.ndarray:
        return softplus(self.ability_rho)

    @property
    def skill_sigma(self):
        return None if self.skill_rho is None else softplus(self.skill_rho)

    @property
    def class_skill_sigma(self):
        return None if self.class_skill_rho is None else softplus(self.class_skill_rho)

    def grad_fields(self) -> list[str]:
        names = ["ability_mu", "ability_rho", "easiness"]
        if self.kind == INTERACTION_VI and self.dims > 0:
            names += ["demand", "skill_mu", "skill_rho"]
        elif self.kind == CLASS_INTERACTION_VI and self.dims > 0:
            names += ["demand", "class_skill_mu", "class_skill_rho"]
        return names

    def copy(self) -> "VIParams":
        def cp(a):
            return None if a is None else a.copy()

        return VIParams(self.kind, self.ability_mu.copy(), self.ability_rho.copy(), self.easiness.copy(),
                        cp(self.demand), cp(self.skill_mu), cp(self.skill_rho),
                        cp(self.class_skill_mu), cp(self.class_skill_rho))


@dataclass
class VIConfig:
    samples: int = 5            # M, Monte Carlo draws per ELBO estimate
    sigma_init: float = 0.8
    learning_rate: float = 0.01  # ascent is on the total ELBO; scale down for large datasets
    epochs: int = 500
    seed: int = 0
    init_scale: float = 0.01
    warm_start: object = None   # optional point-model parameter container

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.sigma_init <= 0:
            raise ValueError("sigma_init must be > 0")


def _draw_eps(params: VIParams, M: int, rng):
    """Noise draws in a fixed order so common random numbers line up."""
    S = params.ability_mu.shape[0]
    eps_ability = rng.standard_normal((M, S))
    eps_vec = None
    if params.kind == INTERACTION_VI and params.dims > 0:
        eps_vec = rng.standard_normal((M, S, params.dims))
    elif params.kind == CLASS_INTERACTION_VI and params.dims > 0:
        C = params.class_skill_mu.shape[0]
        eps_vec = rng.standard_normal((M, C, params.dims))
    return eps_ability, eps_vec


def _kl_to_prior(mu, sigma):
    """Sum of KL(N(mu, sigma^2) || N(0, 1)) over all entries."""
    return float(np.sum(-np.log(sigma) + (sigma**2 + mu**2) / 2.0 - 0.5))


def _elbo_core(params: VIParams, data: Dataset, eps_ability, eps_vec, want_grads: bool):
    """Monte Carlo ELBO and (optionally) its analytic gradient.

    The likelihood part is averaged over the M reparameterized samples;
    per-sample residuals y - sigma(z) propagate to mu via the identity
    path, to sigma via the eps factor (then through the softplus chain
    rule), and to the question point tensors directly.
    """
    M = eps_ability.shape[0]
    s_idx, q_idx = data.student_idx, data.question_idx
    y = data.y.astype(np.float64)
    S = params.ability_mu.shape[0]
    Q = params.easiness.shape[0]
    D = params.dims

    sig_a = softplus(params.ability_rho)
    ability_samp = params.ability_mu[None, :] + sig_a[None, :] * eps_ability  # (M, S)

    if params.kind == INTERACTION_VI and D > 0:
        vec_mu, vec_rho, vec_owner = params.skill_mu, params.skill_rho, s_idx
    elif params.kind == CLASS_INTERACTION_VI and D > 0:
        vec_mu, vec_rho, vec_owner = params.class_skill_mu, params.class_skill_rho, data.class_of[s_idx]
    else:
        vec_mu = vec_rho = vec_owner = None
    sig_v = softplus(vec_rho) if vec_rho is not None else None
    vec_samp = vec_mu[None] + sig_v[None] * eps_vec if vec_mu is not None else None  # (M, C|S, D)

    grads = None
    if want_grads:
        grads = {name: np.zeros_like(getattr(params, name)) for name in params.grad_fields()}

    loglik = 0.0
    n_vec = vec_mu.shape[0] if vec_mu is not None else 0
    for m in range(M):
        z = ability_samp[m, s_idx] + params.easiness[q_idx]
        if vec_samp is not None:
            dem = params.demand[q_idx]                      # (n, D)
            own = vec_samp[m, vec_owner]                    # (n, D)
            z = z + np.einsum("nd,nd->n", own, dem)
        loglik += float(np.sum(y * z - softplus(z)))
        if want_grads:
            t = y - sigmoid(z)
            grads["ability_mu"] += np.bincount(s_idx, weights=t, minlength=S)
            grads["ability_rho"] += np.bincount(s_idx, weights=t * eps_ability[m, s_idx], minlength=S)
            grads["easiness"] += np.bincount(q_idx, weights=t, minlength=Q)
            if vec_samp is not None:
                for d in range(D):
                    grads["demand"][:, d] += np.bincount(q_idx, weights=t * own[:, d], minlength=Q)
                    key = "skill" if params.kind == INTERACTION_VI else "class_skill"
                    grads[key + "_mu"][:, d] += np.bincount(vec_owner, weights=t * dem[:, d], minlength=n_vec)
                    grads[key + "_rho"][:, d] += np.bincount(
                        vec_owner, weights=t * dem[:, d] * eps_vec[m, vec_owner, d], minlength=n_vec)
    loglik /= M

    kl = _kl_to_prior(params.ability_mu, sig_a)
    if vec_mu is not None:
        kl += _kl_to_prior(vec_mu, sig_v)
    elbo = loglik - kl

    if want_grads:
        for key in grads:
            grads[key] /= M
        grads["ability_mu"] -= params.ability_mu
        grads["ability_rho"] -= (sig_a - 1.0 / sig_a)
        if vec_mu is not None:
            key = "skill" if params.kind == INTERACTION_VI else "class_skill"
            grads[key + "_mu"] -= vec_mu
            grads[key + "_rho"] -= (sig_v - 1.0 / sig_v)
        # d softplus(rho) / d rho = sigmoid(rho)
        grads["ability_rho"] *= sigmoid(params.ability_rho)
        if vec_rho is not None:
            key = "skill_rho" if params.kind == INTERACTION_VI else "class_skill_rho"
            grads[key] *= sigmoid(vec_rho)
    return elbo, grads


def elbo_mc(params: VIParams, data: Dataset, M: int, seed: int) -> float:
    """Monte Carlo ELBO estimate with fresh noise, deterministic per seed."""
    if M < 1:
        raise ValueError("M must be >= 1")
    rng = np.random.default_rng(seed)
    eps_ability, eps_vec = _draw_eps(params, M, rng)
    value, _ = _elbo_core(params, data, eps_ability, eps_vec, want_grads=False)
    return value


def elbo_grad(params: VIParams, data: Dataset, M: int, seed: int):
    """ELBO estimate and analytic gradients under the same noise draws."""
    rng = np.random.default_rng(seed)
    eps_ability, eps_vec = _draw_eps(params, M, rng)
    return _elbo_core(params, data, eps_ability, eps_vec, want_grads=True)


def init_vi_params(kind: str, data: Dataset, dims: int, cfg: VIConfig, rng) -> VIParams:
    def draw(*shape):
        return rng.normal(0.0, cfg.init_scale, size=shape) if cfg.init_scale > 0 else np.zeros(shape)

    rho0 = float(inv_softplus(cfg.sigma_init))
    S, Q, C = data.num_students, data.num_questions, data.num_classes
    p = VIParams(kind, ability_mu=draw(S), ability_rho=np.full(S, rho0), easiness=draw(Q))
    if kind == INTERACTION_VI:
        p.demand = draw(Q, dims)
        p.skill_mu = draw(S, dims)
        p.skill_rho = np.full((S, dims), rho0)
    elif kind == CLASS_INTERACTION_VI:
        p.demand = draw(Q, dims)
        p.class_skill_mu = draw(C, dims)
        p.class_skill_rho = np.full((C, dims), rho0)
    return p


def warm_start_vi_params(kind: str, point_params, data: Dataset, sigma_init: float) -> VIParams:
    """Seed means and point tensors from a trained point model.

    Means take the point estimates, sigmas start at sigma_init. The point
    model must be the matching family (rasch for rasch-vi, and so on).
    """
    rho = lambda shape: np.full(shape, float(inv_softplus(sigma_init)))
    ability = np.asarray(point_params.ability, dtype=np.float64).copy()
    easiness = np.asarray(point_params.easiness, dtype=np.float64).copy()
    if ability.shape != (data.num_students,) or easiness.shape != (data.num_questions,):
        raise ValueError("warm-start shape mismatch against the dataset")
    p = VIParams(kind, ability_mu=ability, ability_rho=rho(ability.shape), easiness=easiness)
    if kind == RASCH_VI:
        if getattr(point_params, "demand", None) is not None:
            raise ValueError("warm-start shape mismatch: point model has interaction tensors")
        return p
    demand = getattr(point_params, "demand", None)
    if demand is None:
        raise ValueError("warm-start shape mismatch: point model lacks demand vectors")
    p.demand = np.asarray(demand, dtype=np.float64).copy()
    if kind == INTERACTION_VI:
        skill = getattr(point_params, "skill", None)
        if skill is None or skill.shape[0] != data.num_students:
            raise ValueError("warm-start shape mismatch: expected per-student skill vectors")
        p.skill_mu = np.asarray(skill, dtype=np.float64).copy()
        p.skill_rho = rho(p.skill_mu.shape)
    else:
        cls = getattr(point_params, "class_skill", None)
        if cls is None or cls.shape[0] != data.num_classes:
            raise ValueError("warm-start shape mismatch: expected per-class skill vectors")
        p.class_skill_mu = np.asarray(cls, dtype=np.float64).copy()
        p.class_skill_rho = rho(p.class_skill_mu.shape)
    return p


def train_vi(kind: str, data: Dataset, cfg: VIConfig, dims: int = 1):
    """Full-batch ELBO ascent with fresh reparameterized noise per epoch.

    Every epoch draws M noise samples, forms the Monte Carlo ELBO and its
    gradient, and takes one ascent step on all variational and point
    parameters. Runs the configured epoch budget (the MC objective is too
    noisy for a relative-change stop). Deterministic given cfg.seed.
    """
    if kind not in VI_KINDS:
        raise ValueError(f"unknown VI kind {kind!r}")
    if data.num_students < 1:
        raise ValueError("dataset must declare at least one student")
    if kind == CLASS_INTERACTION_VI and data.num_classes < 1:
        raise ValueError("class-interaction-vi requires class labels")

    rng = np.random.default_rng(cfg.seed)
    if cfg.warm_start is not None:
        params = warm_start_vi_params(kind, cfg.warm_start, data, cfg.sigma_init)
    else:
        params = init_vi_params(kind, data, dims, cfg, rng)

    trace: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        eps_ability, eps_vec = _draw_eps(params, cfg.samples, rng)
        elbo, grads = _elbo_core(params, data, eps_ability, eps_vec, want_grads=True)
        if not np.isfinite(elbo):
            raise TrainingDiverged(f"non-finite ELBO at epoch {epoch} (learning rate too high?)")
        trace.append(-elbo)
        for name, g in grads.items():
            getattr(params, name)[...] += cfg.learning_rate * g
    report = TrainReport(final_nll=trace[-1] if trace else math.nan,
                         epochs_run=len(trace), nll_trace=trace)
    return params, report


def predict_prob_vi(params: VIParams, s: int, q: int, class_of=None,
                    mode: str = PLUG_IN_MEAN, M: int = 1000, seed: int = 0) -> float:
    """Test-time probability for one cell.

    Plug-in mean evaluates the logistic at the posterior means (and point
    tensors); Monte Carlo averages sigma(z) over M sampled latents. Either
    way the output is clamped to the open interval (0, 1), as on the point
    path.
    """
    z_mu = float(params.ability_mu[s] + params.easiness[q])
    vec_mu = vec_sig = dem = None
    if params.kind == INTERACTION_VI and params.dims > 0:
        vec_mu, vec_sig, dem = params.skill_mu[s], softplus(params.skill_rho[s]), params.demand[q]
    elif params.kind == CLASS_INTERACTION_VI and params.dims > 0:
        if class_of is None:
            raise ValueError("class_of is required for class-interaction-vi")
        c = class_of[s]
        vec_mu, vec_sig, dem = params.class_skill_mu[c], softplus(params.class_skill_rho[c]), params.demand[q]

    if mode == PLUG_IN_MEAN:
        z = z_mu + (float(vec_mu @ dem) if vec_mu is not None else 0.0)
        return float(np.clip(sigmoid(z), _P_LO, _P_HI))
    if mode != MONTE_CARLO:
        raise ValueError(f"unknown prediction mode {mode!r}")
    rng = np.random.default_rng(seed)
    sig_a = float(softplus(params.ability_rho[s]))
    b = params.ability_mu[s] + sig_a * rng.standard_normal(M)
    z = b + params.easiness[q]
    if vec_mu is not None:
        vec = vec_mu[None, :] + vec_sig[None, :] * rng.standard_normal((M, params.dims))
        z = z + vec @ dem
    return float(np.clip(np.mean(sigmoid(z)), _P_LO, _P_HI))


def predict_proba_vi_array(params: VIParams, s_idx, q_idx, class_of=None) -> np.ndarray:
    """Vectorized plug-in-mean probabilities (the deterministic default), clamped like the point path."""
    z = params.ability_mu[s_idx] + params.easiness[q_idx]
    if params.kind == INTERACTION_VI and params.dims > 0:
        z = z + np.einsum("nd,nd->n", params.skill_mu[s_idx], params.demand[q_idx])
    elif params.kind == CLASS_INTERACTION_VI and params.dims > 0:
        if class_of is None:
            raise ValueError("class_of is required for class-interaction-vi")
        z = z + np.einsum("nd,nd->n", params.class_skill_mu[class_of[s_idx]], params.demand[q_idx])
    return np.clip(sigmoid(z), _P_LO, _P_HI)


def elbo_finite_diff_check(params: VIParams, data: Dataset, M: int, seed: int,
                           epsilon: float = 1e-5) -> float:
    """Max relative error of the analytic ELBO gradient vs central differences.

    Both sides of every difference reuse the same seed, so the noise
    draws are common random numbers and the comparison is exact up to
    discretization.
    """
    _, grads = elbo_grad(params, data, M, seed)
    worst = 0.0
    for name in params.grad_fields():
        arr = getattr(params, name)
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + epsilon
            hi = elbo_mc(params, data, M, seed)
            arr[ix] = orig - epsilon
            lo = elbo_mc(params, data, M, seed)
            arr[ix] = orig
            fd = (hi - lo) / (2.0 * epsilon)
            err = abs(g[ix] - fd) / max(abs(g[ix]), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst
