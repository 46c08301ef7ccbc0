"""Maximum-likelihood training by mini-batch stochastic gradient descent.

The objective is the Bernoulli negative log-likelihood summed over
observed responses, computed in the cancellation-free form
log(1 + e^z) - y*z per observation. Gradients are analytic (residual
form sigma(z) - y); the test suite checks them against central differences.
SGD's L2 decay is one scale shared by every tensor (the scaling trick of
Shalev-Shwartz et al., "Pegasos", ICML 2007, and Bottou, "Stochastic
Gradient Descent Tricks", 2012), so no batch step passes over every student.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .models import (FAMILY, POINT_KINDS, Params, check_shapes, inv_softplus, logits, question_rows,
                     require_count, require_nonnegative, require_positive, row_terms, sigmoid, softplus,
                     tensor_table, vec_rows)

# Rows per nll chunk: its float64 temporaries are 64 KB each, below glibc's
# mmap threshold, so they come from the heap whatever its history.
_NLL_CHUNK = 8192
_SCALE_MIN = 2.0 ** -20   # sgd_train folds its shared L2 scale into the tensors before it drops below this


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
        require_positive("learning_rate", self.learning_rate)
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            require_count(name, getattr(self, name), low)
        for name in ("l2_penalty", "init_scale", "convergence_tol"):
            require_nonnegative(name, getattr(self, name))


@dataclass
class TrainReport:
    final_nll: float | None   # None from train_vi when no epoch ran
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
        check_shapes(warm_start, tensor_table(FAMILY[kind], dims, num_students, num_questions, num_classes),
                     "warm-start")

    def initial(name, shape):
        if name.endswith("_rho"):
            return np.full(shape, float(inv_softplus(sigma_init)))
        if warm_start is None:
            return rng.normal(0.0, init_scale, size=shape) if init_scale > 0 else np.zeros(shape)
        return np.array(getattr(warm_start, name), dtype=np.float64)

    return Params(kind=kind, **{name: initial(name, shape) for name, (_, shape) in table.items()})


def copy_params(params):
    return replace(params, **{name: arr.copy() for name, arr in params.tensors().items()})


def nll(params, data: Dataset) -> float:
    """Total Bernoulli negative log-likelihood over the observed cells.

    The per-row losses go, _NLL_CHUNK rows at a time, into one float64
    array of n_responses entries, made per call, and are summed by one
    np.sum: the bits of the one-shot pairwise sum, with no temporary
    longer than a chunk.
    """
    n = data.n_responses
    loss = np.empty(n)
    for lo in range(0, n, _NLL_CHUNK):
        rows = slice(lo, lo + _NLL_CHUNK)
        s_idx = data.student_idx[rows]
        z = logits(params, s_idx, data.question_idx[rows], vec_rows(params.kind, s_idx, data.class_of))[0]
        np.subtract(softplus(z), data.y[rows] * z, out=loss[rows])
    return float(np.sum(loss))


def sgd_train(kind: str, data: Dataset, cfg: TrainConfig, dims: int = 1, warm_start=None):
    """Shuffled mini-batch SGD on the summed NLL; returns best-NLL params seen.

    Parameters start at Normal(0, init_scale^2) draws unless warm_start
    supplies a container of the same kind and dims; rasch ignores dims.
    Each batch step multiplies every tensor by 1 - learning_rate *
    l2_penalty and subtracts learning_rate times the batch's NLL gradient,
    through one scale shared by the tensors (held = scale * stored): the
    batch multiplies the scale by that factor and adds, by np.add.at, its
    models.row_terms to only the stored rows its responses touch. A batch
    that would take the scale below _SCALE_MIN (zero or negative included)
    first folds it into the stored values and steps at scale 1; each epoch
    ends with a fold, before its NLL, the divergence check and the best
    copy. Training stops early once the relative epoch-to-epoch NLL change
    drops below convergence_tol. A non-finite NLL, of the initial
    parameters (epoch 0) or after an epoch, raises TrainingDiverged.
    Deterministic given cfg.seed.
    """
    if data.n_responses == 0:
        raise ValueError("training data must be non-empty")
    if kind not in POINT_KINDS:
        raise ValueError(f"unknown point model kind {kind!r}")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes, rng,
                         cfg.init_scale, warm_start=warm_start)

    # Each epoch packs every row into one int64 code, (student << b |
    # question) << 1 | y, and shuffles the codes in place: Generator.shuffle
    # makes the swaps of the rng.permutation(n) it stands for, so the batches
    # are those of gathers through that permutation, while the codes are the
    # one response-length array they hold (gathering a chunk at a time took
    # a tenth longer, its random reads missing the caches). The codes are
    # freed before nll makes its own. The tensors are views into one flat
    # array, so a fold is one multiply.
    n, size, lr = data.n_responses, cfg.batch_size, cfg.learning_rate
    decay = 1.0 - lr * cfg.l2_penalty
    b = max(data.num_questions - 1, 0).bit_length()   # bits of a question code
    q_mask = (1 << b) - 1
    flat = np.concatenate([arr.ravel() for arr in params.tensors().values()])
    held, at = {}, 0
    for name, arr in params.tensors().items():
        held[name] = flat[at:at + arr.size].reshape(arr.shape)
        at += arr.size
    params = replace(params, **held)
    scale, trace = 1.0, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # a non-finite NLL raises TrainingDiverged
        best_nll = prev = nll(params, data)
        if not np.isfinite(best_nll):
            raise TrainingDiverged("non-finite training NLL at epoch 0 "
                                   "(initial parameters: init_scale or warm start too large?)")
        best = copy_params(params)
        for epoch in range(1, cfg.epochs + 1):
            code = np.left_shift(data.student_idx, b)
            code |= data.question_idx
            code <<= 1
            code |= data.y
            rng.shuffle(code)
            for lo in range(0, n, size):
                c = code[lo:lo + size]
                s_idx, q_idx = c >> (b + 1), (c >> 1) & q_mask
                # the logit at the held values: scale * (ability + easiness + vec . (scale * demand))
                ease, dem = question_rows(params, q_idx)
                if dem is not None:
                    dem *= scale
                z, gathered = logits(params, s_idx, q_idx, vec_rows(kind, s_idx, data.class_of), (ease, dem))
                z *= scale
                if gathered is not None:   # the vec rows at their held values, for the demand term
                    np.multiply(gathered[1], scale, out=gathered[1])
                scale *= decay
                if not scale >= _SCALE_MIN:
                    flat *= scale
                    scale = 1.0
                w = sigmoid(z) - (c & 1)
                w *= -lr / scale
                for name, part, idx, weights in row_terms(s_idx, q_idx, w, gathered):
                    np.add.at(getattr(params, name)[part], idx, weights)
            flat *= scale
            scale = 1.0
            del code, c   # freed before nll
            epoch_nll = nll(params, data)
            if not np.isfinite(epoch_nll):
                raise TrainingDiverged(f"non-finite training NLL at epoch {epoch} (learning rate too high?)")
            trace.append(epoch_nll)
            if epoch_nll < best_nll:
                best_nll, best = epoch_nll, copy_params(params)
            if abs(epoch_nll - prev) <= cfg.convergence_tol * max(abs(prev), 1e-12):
                break
            prev = epoch_nll

    return best, TrainReport(final_nll=best_nll, epochs_run=len(trace), nll_trace=trace)
