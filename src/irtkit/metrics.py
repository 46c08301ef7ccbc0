"""Classification metrics, the two-proportion z-test, and embedding similarity, as the records the CLI prints."""

from __future__ import annotations

import math
import warnings

import numpy as np

# Below this norm the sum of squares is subnormal (or 0), so it has lost bits
_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)


def accuracy(preds, labels, threshold: float = 0.5) -> dict:
    """Thresholded accuracy with precision and recall at the same threshold.

    Returns the JSON record {n, correct, accuracy, precision, recall, threshold}.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must have equal length")
    if preds.size == 0:
        raise ValueError("cannot score an empty prediction set")
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    if not np.all((0 <= preds) & (preds <= 1)):   # NaN fails both comparisons
        raise ValueError("predictions must be probabilities in [0, 1]")
    hard = preds >= threshold
    pos = labels == 1
    correct = int(np.sum(hard == pos))
    tp = int(np.sum(hard & pos))
    fp = int(np.sum(hard & ~pos))
    fn = int(np.sum(~hard & pos))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {"n": preds.size, "correct": correct, "accuracy": correct / preds.size,
            "precision": precision, "recall": recall, "threshold": threshold}


def two_proportion_z_test(x1: int, n1: int, x2: int, n2: int,
                          alphas=(0.01, 0.05)) -> dict:
    """Pooled two-proportion z-test with a two-sided normal p-value.

    Returns the JSON record {p_hat, se, z, p_value, significant_at}, the
    last listing the alphas the p-value falls below. z is signed as
    (x2/n2 - x1/n1) / SE, so a positive z means the second sample has
    the higher proportion.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("sample sizes must be >= 1")
    if not (0 <= x1 <= n1 and 0 <= x2 <= n2):
        raise ValueError("counts must satisfy 0 <= x <= n")
    if not all(0 < a < 1 for a in alphas):
        raise ValueError(f"every alpha must be in (0, 1), got {list(alphas)!r}")
    p_hat = (x1 + x2) / (n1 + n2)
    if p_hat in (0.0, 1.0):
        raise ValueError("pooled proportion is degenerate (0 or 1), SE undefined")
    se = math.sqrt(p_hat * (1.0 - p_hat) * (1.0 / n1 + 1.0 / n2))
    z = (x2 / n2 - x1 / n1) / se
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return {"p_hat": p_hat, "se": se, "z": z, "p_value": p_value,
            "significant_at": [a for a in alphas if p_value < a]}


def cosine_similarity_matrix(demand, rescale_display: bool = False) -> tuple[np.ndarray, dict]:
    """Pairwise cosine similarity between question embedding rows: (values, record).

    values is Q x Q; record is interpret's {rescaled, zero_rows}. All-zero rows get 0
    off-diagonal similarity (listed in zero_rows, with a warning) rather than an error,
    since early training snapshots can contain them. A row whose sum of squares
    overflows, or underflows below the smallest normal float, is first divided by its
    largest magnitude; every other row is normalised as it is. The optional min-max
    rescale maps off-diagonal entries to [0, 1] for heatmap display only; rescaled
    says whether it did.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if demand.ndim != 2:
        raise ValueError("expected a Q x D matrix of embedding rows")
    q = demand.shape[0]
    with np.errstate(over="ignore"):   # an overflowed row is rescaled below
        norms = np.linalg.norm(demand, axis=1)
    peak = np.max(np.abs(demand), axis=1, initial=0.0)
    zero_rows = tuple(int(i) for i in np.flatnonzero(peak == 0))
    if zero_rows:
        warnings.warn(f"zero embedding rows at question indices {zero_rows}; similarities set to 0")
    safe = np.where(norms == 0, 1.0, norms)
    unit = demand / safe[:, None]
    lost = ((peak > 0) & (norms < _TINY_NORM)) | ((norms == np.inf) & (peak < np.inf))
    scaled = demand[lost] / peak[lost, None]
    unit[lost] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    values = unit @ unit.T
    values = np.clip((values + values.T) / 2.0, -1.0, 1.0)
    for i in zero_rows:
        values[i, :] = 0.0
        values[:, i] = 0.0
    np.fill_diagonal(values, 1.0)
    rescaled = False
    if rescale_display and q > 1:
        off = ~np.eye(q, dtype=bool)
        lo, hi = values[off].min(), values[off].max()
        if hi > lo:
            values[off] = (values[off] - lo) / (hi - lo)
            rescaled = True
    return values, {"rescaled": rescaled, "zero_rows": list(zero_rows)}
