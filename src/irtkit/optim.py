"""Maximum-likelihood training by mini-batch stochastic gradient descent.

The objective is the Bernoulli negative log-likelihood summed over
observed responses, computed in the cancellation-free form
log(1 + e^z) - y*z per observation. Gradients are analytic (residual
form sigma(z) - y) and checked against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .models import (FAMILY, Params, check_shapes, grad_scatter, inv_softplus, logits, make_params,
                     require_count, require_nonnegative, sigmoid, softplus, tensor_table, vec_rows)


class TrainingDiverged(RuntimeError):
    """Raised when the training objective becomes non-finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 1024
    l2_penalty: float = 1e-4
    seed: int = 0
    init_scale: float = 0.01
    convergence_tol: float = 1e-5

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            require_count(name, getattr(self, name), low)
        for name in ("l2_penalty", "init_scale", "convergence_tol"):
            require_nonnegative(name, getattr(self, name))


@dataclass
class TrainReport:
    final_nll: float
    epochs_run: int
    nll_trace: list


def init_params(kind: str, dims: int, num_students: int, num_questions: int, num_classes: int, rng,
                init_scale: float, sigma_init: float = 1.0, warm_start: Params | None = None) -> Params:
    """The initial tensors of any kind, made in tensor-table order.

    Every rho starts at inv_softplus(sigma_init). Every other tensor is a
    copy of warm_start's, which must be a container of the kind's point
    family (rasch for rasch and rasch-vi, and so on) at these dims, or a
    Normal(0, init_scale^2) draw (zeros when init_scale is 0).
    """
    table = tensor_table(kind, dims, num_students, num_questions, num_classes)
    if warm_start is not None:
        if warm_start.kind != FAMILY[kind]:
            raise ValueError(f"warm-start params are {warm_start.kind!r}, expected {FAMILY[kind]!r} for {kind}")
        check_shapes(warm_start, tensor_table(FAMILY[kind], dims, num_students, num_questions, num_classes))

    def initial(name, shape):
        if name.endswith("_rho"):
            return np.full(shape, float(inv_softplus(sigma_init)))
        if warm_start is None:
            return rng.normal(0.0, init_scale, size=shape) if init_scale > 0 else np.zeros(shape)
        return np.array(getattr(warm_start, name), dtype=np.float64)

    return make_params(kind, {name: initial(name, shape) for name, (_, shape) in table.items()})


def copy_params(params):
    return replace(params, **{name: arr.copy() for name, arr in params.tensors().items()})


def nll(params, data: Dataset) -> float:
    """Total Bernoulli negative log-likelihood over the observed cells."""
    s_idx = data.student_idx
    z = logits(params, s_idx, data.question_idx, vec_rows(params.kind, s_idx, data.class_of))[0]
    return float(np.sum(softplus(z) - data.y * z))


def _grad_arrays(params, s_idx, q_idx, y, class_of) -> dict:
    """Sum-over-batch gradient of the NLL; residual r = sigma(z) - y."""
    z, gathered = logits(params, s_idx, q_idx, vec_rows(params.kind, s_idx, class_of))
    return grad_scatter(params, s_idx, q_idx, sigmoid(z) - y, gathered)


def grad_nll(params, batch: Dataset, l2_penalty: float = 0.0) -> Params:
    """Analytic gradient of the batch NLL, plus l2_penalty * param per tensor."""
    if batch.n_responses == 0:
        raise ValueError("batch must be non-empty")
    g = _grad_arrays(params, batch.student_idx, batch.question_idx,
                     batch.y.astype(np.float64), batch.class_of)
    if l2_penalty:
        for name, arr in g.items():
            arr += l2_penalty * getattr(params, name)
    return Params(**g, kind=params.kind)


def sgd_train(kind: str, data: Dataset, cfg: TrainConfig, dims: int = 1, warm_start=None):
    """Shuffled mini-batch SGD on the summed NLL; returns best-NLL params seen.

    Parameters start at Normal(0, init_scale^2) draws unless warm_start
    supplies a container of the same kind and dims; rasch ignores dims.
    Each batch update subtracts
    learning_rate times the batch gradient (including the l2 term).
    Training stops early once the relative epoch-to-epoch NLL change
    drops below convergence_tol. Deterministic given cfg.seed.
    """
    if data.n_responses == 0:
        raise ValueError("training data must be non-empty")
    if kind not in Params.KINDS:
        raise ValueError(f"unknown point model kind {kind!r}")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes, rng,
                         cfg.init_scale, warm_start=warm_start)

    y = data.y.astype(np.float64)
    n = data.n_responses
    initial_nll = nll(params, data)
    best_nll = initial_nll
    best = copy_params(params)
    trace: list[float] = []
    prev = initial_nll

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            b = perm[lo:lo + cfg.batch_size]
            g = _grad_arrays(params, data.student_idx[b], data.question_idx[b], y[b], data.class_of)
            for name, grad in g.items():
                arr = getattr(params, name)
                arr -= cfg.learning_rate * (grad + cfg.l2_penalty * arr)
        epoch_nll = nll(params, data)
        if not np.isfinite(epoch_nll):
            raise TrainingDiverged(f"non-finite training NLL at epoch {epoch} (learning rate too high?)")
        trace.append(epoch_nll)
        if epoch_nll < best_nll:
            best_nll = epoch_nll
            best = copy_params(params)
        if abs(epoch_nll - prev) <= cfg.convergence_tol * max(abs(prev), 1e-12):
            break
        prev = epoch_nll

    assert best_nll <= initial_nll
    return best, TrainReport(final_nll=best_nll, epochs_run=len(trace), nll_trace=trace)


def central_difference_error(objective, params, grads: dict, epsilon: float) -> float:
    """Max relative discrepancy between grads and central differences of objective.

    Every entry of each tensor of params named in grads is moved by
    +-epsilon in place (and restored) while objective() is evaluated.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    worst = 0.0
    for name, g in grads.items():
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index", "zerosize_ok"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + epsilon
            hi = objective()
            arr[ix] = orig - epsilon
            lo = objective()
            arr[ix] = orig
            fd = (hi - lo) / (2.0 * epsilon)
            worst = max(worst, abs(g[ix] - fd) / max(abs(g[ix]), abs(fd), 1e-6))
    return worst


def finite_diff_check(params, data: Dataset, epsilon: float = 1e-5,
                      l2_penalty: float = 0.0) -> float:
    """Max relative discrepancy between grad_nll and central differences.

    The differenced objective matches grad_nll exactly: batch NLL plus
    (l2_penalty / 2) * sum of squared parameters.
    """
    def objective():
        val = nll(params, data)
        if l2_penalty:
            val += 0.5 * l2_penalty * sum(float(np.sum(a ** 2)) for a in params.tensors().values())
        return val

    return central_difference_error(objective, params, grad_nll(params, data, l2_penalty).tensors(),
                                    epsilon)
