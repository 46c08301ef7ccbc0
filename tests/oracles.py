"""Independent reference computations for the test suite.

Everything here is implemented against scipy / brute force rather than
the library under test, so expected values come from a separate path:
Gauss-Hermite quadrature for exact ELBOs and marginal likelihoods, dense
grid search for the small Rasch optimum, plain Monte Carlo for KL
estimates, csv.writer row by row for the bytes of a written CSV, fields
joined by hand for the bytes of a quote-free table, a dict per id
column for the columns of in-memory rows, and dicts row by row for the
Dataset of rows or the error naming their first offending row.

The checkers are the exception: no run of the library calls them, and
they call the library. finite_diff_check and elbo_finite_diff_check
compare its analytic gradients (the NLL's through models.grad_scatter,
whose row terms are the ones sgd_train's step scatters) with central
differences of its own objectives; sgd_reference is sgd_train's loop
written plainly over the library's initialisation and logits, with the
plain L2 step as its dense variant, and vi_reference train_vi's
over its initialisation and per_sample_elbo_core; kl_gaussian is the
general two-Gaussian KL over vi._kl_to_prior, and log_loss the mean log
loss of predictions.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from scipy.special import expit, logsumexp

from irtkit.data import Dataset, Responses, dataset_from_arrays
from irtkit.models import Params, grad_scatter, logits, sigmoid, softplus, tensor_table, vec_rows
from irtkit.optim import _SCALE_MIN, TrainingDiverged, copy_params, init_params, nll
from irtkit.vi import _kl_to_prior, elbo_mc

# Ids a CSV round trip must keep: commas, quotes, CR/LF and non-ASCII text, with no edge space for strip().
_ID_CHARS = st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from([",", '"', " ", "\n", "\r", "é", "学"])
IDS = st.text(_ID_CHARS, min_size=1, max_size=8).filter(lambda s: s == s.strip())

Row = namedtuple("Row", "student_id question_id class_id marks_awarded marks_available")
Cell = namedtuple("Cell", "student_id question_id class_id y")   # a loaded row: the outcome, not the marks

GH_NODES = 64


def gh_points(n: int = GH_NODES):
    """Nodes and weights for E[f(X)], X ~ N(0,1): sum w_i f(sqrt(2) x_i) / sqrt(pi)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def gh_expect(f, mu: float = 0.0, sigma: float = 1.0, n: int = GH_NODES) -> float:
    """Quadrature value of E[f(b)] for b ~ N(mu, sigma^2)."""
    x, w = gh_points(n)
    return float(np.sum(w * f(mu + sigma * x)))


def student_loglik_curve(b_grid, easiness, qs, ys):
    """Sum_q log Bern(y_q | sigmoid(b + easiness_q)) for each ability in b_grid."""
    z = b_grid[:, None] + easiness[qs][None, :]
    return np.sum(ys[None, :] * z - np.logaddexp(0.0, z), axis=1)


def _per_student(data):
    groups = {}
    for s, q, y in zip(data.student_idx, data.question_idx, data.y):
        groups.setdefault(int(s), ([], []))
        groups[int(s)][0].append(int(q))
        groups[int(s)][1].append(int(y))
    return {s: (np.array(qs), np.array(ys, dtype=float)) for s, (qs, ys) in groups.items()}


def exact_elbo_rasch_vi(params, data) -> float:
    """M -> infinity ELBO for the ability-only variational model, by quadrature."""
    x, w = gh_points()
    sig = np.log1p(np.exp(-np.abs(params.ability_rho))) + np.maximum(params.ability_rho, 0.0)
    total = 0.0
    for s, (qs, ys) in _per_student(data).items():
        b = params.ability[s] + sig[s] * x
        total += float(np.sum(w * student_loglik_curve(b, params.easiness, qs, ys)))
        total -= float(-np.log(sig[s]) + (sig[s] ** 2 + params.ability[s] ** 2) / 2.0 - 0.5)
    return total


def log_evidence_rasch(easiness, data) -> float:
    """Exact log marginal likelihood with N(0,1) ability priors, by quadrature."""
    x, w = gh_points()
    total = 0.0
    for s, (qs, ys) in _per_student(data).items():
        ll = student_loglik_curve(x, np.asarray(easiness), qs, ys)
        total += float(logsumexp(ll, b=w))
    return total


def exact_elbo_class_vi(params, data) -> float:
    """Quadrature ELBO for a class-interaction VI model with C=1, D=1.

    Per-observation expectations integrate the student bias and the
    single class skill on a tensor grid; the KL terms are closed form.
    """
    x, w = gh_points()
    sig_a = np.log1p(np.exp(-np.abs(params.ability_rho))) + np.maximum(params.ability_rho, 0.0)
    sig_c = np.log1p(np.exp(-np.abs(params.vec_rho))) + np.maximum(params.vec_rho, 0.0)
    mu_c = float(params.vec[0, 0])
    sc = float(sig_c[0, 0])
    total = 0.0
    for s, (qs, ys) in _per_student(data).items():
        b = params.ability[s] + sig_a[s] * x          # student-bias nodes
        c = mu_c + sc * x                                 # class-skill nodes
        for q, y in zip(qs, ys):
            z = b[:, None] + params.easiness[q] + c[None, :] * params.demand[q, 0]
            ll = y * z - np.logaddexp(0.0, z)
            total += float(w @ ll @ w)
        total -= float(-np.log(sig_a[s]) + (sig_a[s] ** 2 + params.ability[s] ** 2) / 2.0 - 0.5)
    total -= float(-np.log(sc) + (sc**2 + mu_c**2) / 2.0 - 0.5)
    return total


def log_evidence_class_vi(easiness, demand, data) -> float:
    """Exact log evidence for the C=1, D=1 class model on a tiny instance.

    Students are coupled through the shared class skill, so the integral
    is done on the full (students + 1)-dimensional tensor grid.
    """
    x, w = gh_points()
    students = sorted(_per_student(data).keys())
    per = _per_student(data)
    # log-likelihood of each student's answers at (b_s node, class node)
    mats = []
    for s in students:
        qs, ys = per[s]
        z = x[:, None, None] + easiness[qs][None, None, :] + (x[None, :, None] * demand[qs, 0][None, None, :])
        mats.append(np.sum(ys[None, None, :] * z - np.logaddexp(0.0, z), axis=2))
    # integrate students independently given the class node, then the class
    log_w = np.log(w)
    per_class_node = np.zeros(len(x))
    for m in mats:
        per_class_node += logsumexp(m + log_w[:, None], axis=0)
    return float(logsumexp(per_class_node + log_w))


def grid_search_rasch_nll(y_matrix: np.ndarray, lo: float = -4.0, hi: float = 4.0,
                          step: float = 0.05) -> float:
    """Minimum NLL of the ability-difficulty model on a dense parameter grid.

    One easiness value is gauge-fixed at 0. The joint minimum decomposes:
    for every easiness combination, each student's best grid ability is
    independent, which makes the full product grid tractable.
    """
    S, Q = y_matrix.shape
    assert Q == 3, "decomposition below is written for 3 questions"
    grid = np.arange(lo, hi + step / 2, step)
    G = len(grid)
    combos = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)  # (G^2, 2)
    easiness = np.concatenate([np.zeros((combos.shape[0], 1)), combos], axis=1)       # (G^2, 3)
    total = np.zeros(combos.shape[0])
    for s in range(S):
        ys = y_matrix[s].astype(float)
        # z: (combo, ability, question)
        z = easiness[:, None, :] + grid[None, :, None]
        nll = np.sum(np.logaddexp(0.0, z) - ys[None, None, :] * z, axis=2)
        total += nll.min(axis=1)
    return float(total.min())


def mc_kl_estimate(mu: float, sigma: float, n: int, seed: int):
    """Monte Carlo estimate of KL(N(mu, sigma^2) || N(0,1)) with its standard error.

    Uses E_q[log q(x) - log p(x)] on samples from q.
    """
    rng = np.random.default_rng(seed)
    x = mu + sigma * rng.standard_normal(n)
    log_q = -0.5 * np.log(2 * np.pi) - np.log(sigma) - 0.5 * ((x - mu) / sigma) ** 2
    log_p = -0.5 * np.log(2 * np.pi) - 0.5 * x**2
    diff = log_q - log_p
    return float(np.mean(diff)), float(np.std(diff, ddof=1) / np.sqrt(n))


def expected_sigmoid(mu: float, sigma: float, offset: float = 0.0) -> float:
    """E[sigmoid(b + offset)], b ~ N(mu, sigma^2), by quadrature."""
    return gh_expect(lambda b: expit(b + offset), mu, sigma)


def two_branch_sigmoid(x):
    """Logistic function by branching on the sign: 1 / (1 + e^-x) for x >= 0
    and e^x / (1 + e^x) below, so neither branch's exp can overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def per_sample_elbo_core(params, data, eps_ability, eps_vec, want_grads: bool):
    """The Monte Carlo ELBO and its gradient, as vi._elbo_core must compute them bit for bit on the row route.

    Written out in the operation order the library used when every sample
    re-gathered every row with plain fancy indexing and took separate
    exponentials for softplus and sigmoid: only numpy, no library kernel.
    """
    M = eps_ability.shape[0]
    s, q = data.student_idx, data.question_idx
    y = data.y.astype(np.float64)
    rows = data.class_of[s] if params.kind == "class-interaction-vi" else s
    D = params.dims
    S, Q = params.ability.shape[0], params.easiness.shape[0]

    sig_a = _softplus(params.ability_rho)
    ability_samp = params.ability + sig_a * eps_ability
    sig_v = _softplus(params.vec_rho) if D else None
    vec_samp = params.vec + sig_v * eps_vec if D else None
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()} if want_grads else None

    loglik = 0.0
    for m in range(M):
        z = ability_samp[m][s] + params.easiness[q]
        if D:
            own, dem = vec_samp[m][rows], params.demand[q]
            z = z + np.einsum("nd,nd->n", own, dem)
        loglik += float(np.sum(y * z - _softplus(z)))
        if not want_grads:
            continue
        w = y - two_branch_sigmoid(z)
        grads["ability"] += np.bincount(s, weights=w, minlength=S)
        grads["easiness"] += np.bincount(q, weights=w, minlength=Q)
        grads["ability_rho"] += np.bincount(s, weights=w * eps_ability[m][s], minlength=S)
        if D:
            R = params.vec.shape[0]
            eps_own = eps_vec[m][rows]
            for d in range(D):
                w_dem = w * dem[:, d]
                grads["vec"][:, d] += np.bincount(rows, weights=w_dem, minlength=R)
                grads["demand"][:, d] += np.bincount(q, weights=w * own[:, d], minlength=Q)
                grads["vec_rho"][:, d] += np.bincount(rows, weights=w_dem * eps_own[:, d], minlength=R)
    loglik /= M

    def kl(mu, sigma):
        return float(np.sum(-np.log(sigma) + (sigma**2 + mu**2) / 2.0 - 0.5))

    kl_sum = kl(params.ability, sig_a)
    if D:
        kl_sum += kl(params.vec, sig_v)
    elbo = loglik - kl_sum
    if want_grads:
        for g in grads.values():
            g /= M
        for name, sig in (("ability", sig_a), ("vec", sig_v))[:2 if D else 1]:
            grads[name] -= getattr(params, name)
            grads[name + "_rho"] -= sig - 1.0 / sig
            grads[name + "_rho"] *= two_branch_sigmoid(getattr(params, name + "_rho"))
    return elbo, grads


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


def _nll_grads(params, s_idx, q_idx, y, class_of) -> dict:
    """Sum-over-batch gradient of the NLL through models.grad_scatter; residual r = sigma(z) - y."""
    z, gathered = logits(params, s_idx, q_idx, vec_rows(params.kind, s_idx, class_of))
    return grad_scatter(params, s_idx, q_idx, sigmoid(z) - y, gathered)


def grad_nll(params, batch: Dataset, l2_penalty: float = 0.0) -> Params:
    """Analytic gradient of the batch NLL, plus l2_penalty * param per tensor."""
    if batch.n_responses == 0:
        raise ValueError("batch must be non-empty")
    g = _nll_grads(params, batch.student_idx, batch.question_idx, batch.y, batch.class_of)
    if l2_penalty:
        for name, arr in g.items():
            arr += l2_penalty * getattr(params, name)
    return Params(**g, kind=params.kind)


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


def sgd_reference(kind: str, data: Dataset, cfg, dims: int = 1, warm_start=None,
                  dense: bool = False) -> tuple[Params, list]:
    """(best params, NLL trace) of sgd_train's loop written plainly.

    Each epoch gathers the three response columns through
    rng.permutation(n). Each batch then takes sgd_train's scaled step: the
    tensors are scale * their stored values; the scale is multiplied by
    1 - lr * l2 and, once below optim._SCALE_MIN, folded into the stored
    values (scale 1 again); and each response of the batch, one at a time,
    adds its residual sigmoid(z) - y at the old scale's logit, times
    -lr / scale, to its stored ability and easiness, times its question's
    demand row to its vec row and times its vec row to its question's
    demand row, each row at its value before the step. An epoch ends with
    a fold. With dense=True each batch steps every tensor by
    arr -= lr * (grad + l2 * arr) instead, the plain L2 step, which the
    scaled one equals only to rounding. The NLL is the one-shot sum over
    every row, and the best copy, divergence checks and stop rule are
    sgd_train's.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes, rng,
                         cfg.init_scale, warm_start=warm_start)
    lr, decay, scale, D = cfg.learning_rate, 1.0 - cfg.learning_rate * cfg.l2_penalty, 1.0, params.dims

    def objective():
        z = logits(params, data.student_idx, data.question_idx,
                   vec_rows(kind, data.student_idx, data.class_of))[0]
        return float(np.sum(softplus(z) - data.y * z))

    def fold():
        for arr in params.tensors().values():
            arr *= scale
        return 1.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best_nll = prev = objective()
        if not np.isfinite(best_nll):
            raise TrainingDiverged("non-finite training NLL at epoch 0 "
                                   "(initial parameters: init_scale or warm start too large?)")
        best, trace = copy_params(params), []
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.permutation(data.n_responses)
            s_idx, q_idx, y = data.student_idx[perm], data.question_idx[perm], data.y[perm]
            for lo in range(0, data.n_responses, cfg.batch_size):
                s, q, yb = (col[lo:lo + cfg.batch_size] for col in (s_idx, q_idx, y))
                rows = vec_rows(kind, s, data.class_of)
                if dense:
                    g = _nll_grads(params, s, q, yb, data.class_of)
                    for name, arr in params.tensors().items():
                        arr -= lr * (g[name] + cfg.l2_penalty * arr)
                    continue
                own, dem = (scale * params.vec[rows], scale * params.demand[q]) if D else (None, None)
                z = scale * logits(params, s, q, rows, (params.easiness[q], dem))[0]
                scale *= decay
                if not scale >= _SCALE_MIN:
                    scale = fold()
                w = (sigmoid(z) - yb) * (-lr / scale)
                for n in range(len(s)):
                    params.ability[s[n]] += w[n]
                    params.easiness[q[n]] += w[n]
                    for d in range(D):
                        params.vec[rows[n], d] += w[n] * dem[n, d]
                        params.demand[q[n], d] += w[n] * own[n, d]
            scale = fold()
            epoch_nll = objective()
            if not np.isfinite(epoch_nll):
                raise TrainingDiverged(f"non-finite training NLL at epoch {epoch} (learning rate too high?)")
            trace.append(epoch_nll)
            if epoch_nll < best_nll:
                best_nll, best = epoch_nll, copy_params(params)
            if abs(epoch_nll - prev) <= cfg.convergence_tol * max(abs(prev), 1e-12):
                break
            prev = epoch_nll
    return best, trace


def vi_reference(kind: str, data: Dataset, cfg, dims: int = 1, warm_start=None) -> tuple[Params, list]:
    """(params, negative-ELBO trace) of train_vi's loop written plainly.

    The same init_params call; then each epoch draws the ability noise
    rng.standard_normal((M, S)), then the vec noise when D > 0, takes
    per_sample_elbo_core's ELBO and gradient, stops on a non-finite ELBO
    (at epoch 1, before any step, blaming the initial parameters), and
    steps each tensor by arr += lr * g.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes, rng, 0.01,
                         cfg.sigma_init, warm_start)
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        eps_ability = rng.standard_normal((cfg.samples, data.num_students))
        eps_vec = rng.standard_normal((cfg.samples, *params.vec.shape)) if params.dims else None
        elbo, grads = per_sample_elbo_core(params, data, eps_ability, eps_vec, want_grads=True)
        if not np.isfinite(elbo):
            cause = "learning rate too high?" if epoch > 1 else "initial parameters: sigma_init or warm start too large?"
            raise TrainingDiverged(f"non-finite ELBO at epoch {epoch} ({cause})")
        trace.append(-elbo)
        for name, arr in params.tensors().items():
            arr += cfg.learning_rate * grads[name]
    return params, trace


def elbo_finite_diff_check(params: Params, data: Dataset, M: int, seed: int,
                           epsilon: float = 1e-5) -> float:
    """Max relative error of the analytic ELBO gradient vs central differences.

    Both sides of every difference reuse the same seed, so the noise
    draws are common random numbers and the comparison is exact up to
    discretization.
    """
    _, grads = elbo_mc(params, data, M, seed, want_grads=True)
    return central_difference_error(lambda: elbo_mc(params, data, M, seed)[0], params, grads, epsilon)


def kl_gaussian(mu1, sigma1, mu2, sigma2):
    """KL(N(mu1, sigma1^2) || N(mu2, sigma2^2)), closed form: the prior KL of the standardised first Gaussian."""
    mu1, sigma1, mu2, sigma2 = (np.asarray(v, dtype=np.float64) for v in (mu1, sigma1, mu2, sigma2))
    if not all(np.all((0 < s) & (s < np.inf)) for s in (sigma1, sigma2)):   # nan fails both comparisons
        raise ValueError("standard deviations must be finite and positive")
    if not (np.all(np.isfinite(mu1)) and np.all(np.isfinite(mu2))):
        raise ValueError("means must be finite")
    out = _kl_to_prior((mu1 - mu2) / sigma2, sigma1 / sigma2)
    return out if out.ndim else float(out)


def log_loss(preds, labels) -> float:
    """Mean per-observation negative log-likelihood of the labels."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(labels * np.log(preds) + (1.0 - labels) * np.log1p(-preds)))


@st.composite
def gradient_instances(draw, kinds):
    """A small random model of one of kinds, a batch for its gradient check, and whether the batch takes the
    ELBO's cell route (class-interaction-vi only, with more responses than class x question cells).

    S 1-4 students, any of them absent or answering several times, Q 1-3 questions, C 1-2 classes, D 1-2,
    1-13 responses, a cell possibly repeated; means, easiness, vec and demand in [-2, 2], rhos in [-1, 1].
    """
    kind = draw(st.sampled_from(kinds))
    S, Q, C, D = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cells = kind == "class-interaction-vi" and draw(st.booleans())
    low, high = (C * Q + 1, C * Q + 7) if cells else (1, C * Q if kind == "class-interaction-vi" else 12)
    N = draw(st.integers(low, high))
    column = lambda n: st.lists(st.integers(0, n - 1), min_size=N, max_size=N)
    s_idx, q_idx, y = draw(column(S)), draw(column(Q)), draw(column(2))
    data = dataset_from_arrays(s_idx, q_idx, y, class_of=draw(st.lists(st.integers(0, C - 1), min_size=S, max_size=S)),
                               question_ids=[f"q{i}" for i in range(Q)], class_ids=[f"c{i}" for i in range(C)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = Params(kind=kind, **{name: rng.uniform(-1.0, 1.0, shape) * (1.0 if name.endswith("_rho") else 2.0)
                                  for name, (_, shape) in tensor_table(kind, D, S, Q, C).items()})
    return params, data, cells


def csv_writer_binary_csv(d, path: str) -> None:
    """The pre-binarized CSV written row by row with csv.writer: the bytes write_binary_csv must produce."""
    class_of = d.class_of.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "question_id", "class_id", "y"])
        writer.writerows([d.student_ids[s], d.question_ids[q], d.class_ids[class_of[s]], y]
                         for s, q, y in zip(d.student_idx.tolist(), d.question_idx.tolist(), d.y.tolist()))


def hand_joined_csv(path: str, header: list, rows: list) -> None:
    """A table's lines joined by hand, floats as their repr: what write_csv must write when no field needs quoting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def choice_per_group(rng, sizes, ks) -> list:
    """Each group's picks of rng.choice(n, size=k, replace=False), group by group: what data.choice_per_group must draw."""
    return [rng.choice(n, size=k, replace=False) for n, k in zip(sizes, ks)]


def cells(rows) -> list:
    """What a loader must give for rows: their marks binarized on Python ints, y = 1 iff 2 * awarded > available."""
    return [Cell(r.student_id, r.question_id, r.class_id, int(2 * r.marks_awarded > r.marks_available)) for r in rows]


def dataset_of(rows, index: Dataset | None = None) -> Dataset | str:
    """The Dataset build_dataset must make of rows or, given a checkpoint's index, align_rows_to_checkpoint must for
    a kind without classes; else the message of the ValueError naming the first offending row.

    Row by row, with a dict of each student's class and a set of the cells seen: a student under a class other
    than its first, then a cell seen before, is the error. Aligned rows are then indexed through dicts of the
    index's id tables, where a student, then a question, the index lacks is the error.
    """
    class_of, seen = {}, set()
    for r in rows:
        if class_of.setdefault(r.student_id, r.class_id) != r.class_id:
            return f"student {r.student_id!r} has conflicting class ids {class_of[r.student_id]!r} and {r.class_id!r}"
        if (r.student_id, r.question_id) in seen:
            return f"duplicate response for student {r.student_id!r} question {r.question_id!r}"
        seen.add((r.student_id, r.question_id))
    y = [cell.y for cell in cells(rows)]
    if index is None:
        students, questions, classes = ({key: i for i, key in enumerate(dict.fromkeys(r[k] for r in rows))}
                                        for k in range(3))   # first-appearance codes
        return dataset_from_arrays([students[r.student_id] for r in rows], [questions[r.question_id] for r in rows], y,
                                   [classes[c] for c in class_of.values()], tuple(students), tuple(questions),
                                   tuple(classes))
    students, questions = ({key: i for i, key in enumerate(table)} for table in (index.student_ids, index.question_ids))
    for r in rows:
        if r.student_id not in students:
            return f"student {r.student_id!r} is not in the checkpoint"
        if r.question_id not in questions:
            return f"question {r.question_id!r} is not in the checkpoint"
    return replace(index, student_idx=np.array([students[r.student_id] for r in rows], dtype=np.int64),
                   question_idx=np.array([questions[r.question_id] for r in rows], dtype=np.int64),
                   y=np.array(y, dtype=np.int8))


def rows_of(r: Responses) -> list:
    """The rows of loaded Responses, one Cell each, in row order."""
    return list(map(Cell, map(r.student_ids.__getitem__, r.student_idx.tolist()),
                    map(r.question_ids.__getitem__, r.question_idx.tolist()),
                    map(r.class_ids.__getitem__, r.class_idx.tolist()), r.y.tolist()))


def responses(rows) -> Responses:
    """In-memory rows as Responses: each id column numbered by first appearance with a dict, ids as they are."""
    tables = ({}, {}, {})
    codes = [[table.setdefault(row[k], len(table)) for row in rows] for k, table in enumerate(tables)]
    y = np.array([cell.y for cell in cells(rows)], dtype=np.int8)
    return Responses(*(np.array(col, dtype=np.int64) for col in codes), y, *map(tuple, tables))
