"""The model container and likelihood heads for binary response prediction.

Every model kind is one logistic regression on

    z = ability[s] + easiness[q] + vec[owner(s)] . demand[q]

with D-dimensional vec and demand rows. rasch has D = 0; interaction
gives each student its own vec row (owner is the identity); class
interaction shares one vec row among the students of a class (owner is
class_of). The variational twins (kinds ending in "-vi") hold the same
tensors as means, plus transformed standard deviations (rhos) on the
student side. The one container, Params, carries its kind, which fixes
the tensors it holds: construction checks them once against the tensor
table, the one statement of a kind's tensors. One container, one
logits kernel, one gradient formula (row_terms) and one plug-in
predictor serve all six kinds but for one route: full-data ELBO
evaluations of class kinds with fewer (class, question) cells than
responses score easiness + vec . demand per cell (class_cells picks the
route, vi._elbo_core holds its kernel). That matches the row route to
rounding, not bit for bit, so SGD batches, nll and prediction keep rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Optional

import numpy as np

RASCH = "rasch"
INTERACTION = "interaction"
CLASS_INTERACTION = "class-interaction"
POINT_KINDS = (RASCH, INTERACTION, CLASS_INTERACTION)
RASCH_VI = "rasch-vi"
INTERACTION_VI = "interaction-vi"
CLASS_INTERACTION_VI = "class-interaction-vi"
VI_KINDS = (RASCH_VI, INTERACTION_VI, CLASS_INTERACTION_VI)
# the point family of every kind
FAMILY = {**{k: k for k in POINT_KINDS}, **dict(zip(VI_KINDS, POINT_KINDS))}

_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


def sigmoid(x, e=None):
    """Numerically stable logistic function, branch-free, no logit clipping.

    With e = exp(-|x|), which cannot overflow, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below: the same operations, and so the same
    bits, as branching on the sign; a caller holding e may pass it.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x)) if e is None else e
    out = np.maximum(e, x >= 0)
    out /= 1.0 + e
    return out if np.ndim(out) else float(out)


def softplus(x, e=None):
    """log(1 + exp(x)) without overflow for large |x|; a caller holding e = exp(-|x|) may pass it."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)) if e is None else e)
    return out if out.ndim else float(out)


def inv_softplus(s):
    """Inverse of softplus; linear in the tail to avoid expm1 overflow."""
    s = np.asarray(s, dtype=np.float64)
    out = np.where(s > 30.0, s, np.log(np.expm1(np.minimum(s, 30.0))))
    return out if out.ndim else float(out)


def require_count(name: str, value, low: int) -> None:
    """Raise unless value is an integer >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    """Raise unless value is a finite real number >= 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def require_positive(name: str, value) -> None:
    """Raise unless value is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class Params:
    """The tensors of a model of any kind.

    vec holds one row per student (interaction kinds) or per class
    (class-interaction kinds); rasch kinds hold neither vec nor demand.
    VI kinds hold posterior means in ability and vec, with standard deviations
    softplus(ability_rho) and softplus(vec_rho); point kinds hold no rho.
    """

    ability: np.ndarray                   # (S,) student ability
    easiness: np.ndarray                  # (Q,) large positive means a simple question
    vec: Optional[np.ndarray] = None      # (S or C, D) strengths and weaknesses
    demand: Optional[np.ndarray] = None   # (Q, D) per-question topic involvement
    kind: str = field(kw_only=True)
    ability_rho: Optional[np.ndarray] = field(default=None, kw_only=True)  # (S,), VI kinds
    vec_rho: Optional[np.ndarray] = field(default=None, kw_only=True)      # like vec, VI kinds but rasch-vi

    def __post_init__(self):
        held = [name for name, value in vars(self).items() if name != "kind" and value is not None]
        if set(held) != set(names := _tensor_names(self.kind)):
            raise ValueError(f"{self.kind} params must hold exactly {', '.join(names)}; got {', '.join(held)}")

    @property
    def dims(self) -> int:
        return 0 if self.demand is None else int(self.demand.shape[1])

    @property
    def ability_sigma(self) -> np.ndarray:
        return softplus(self.ability_rho)

    def tensors(self) -> dict:
        """Name -> array of every tensor held, in field order."""
        return {f.name: v for f in fields(self) if isinstance(v := getattr(self, f.name), np.ndarray)}


# Checkpoint record name of each tensor, per point (False) and VI (True)
# kinds, in checkpoint order; {v} is the family's vec stem. VI records
# store the standard deviation softplus(rho) under a *_sigma name.
_RECORDS = {
    False: {"ability": "ability", "easiness": "easiness", "vec": "{v}", "demand": "demand"},
    True: {"ability": "ability_mu", "ability_rho": "ability_sigma", "easiness": "easiness",
           "demand": "demand", "vec": "{v}_mu", "vec_rho": "{v}_sigma"},
}
_VEC_STEM = {INTERACTION: "skill", CLASS_INTERACTION: "class_skill"}


def _tensor_names(kind: str) -> list:
    """The tensors a kind holds, in checkpoint order: rasch kinds hold no vec or demand, point kinds no rho."""
    if kind not in FAMILY:
        raise ValueError(f"unknown model kind {kind!r}")
    return [name for name in _RECORDS[kind in VI_KINDS]
            if FAMILY[kind] != RASCH or name.startswith(("ability", "easiness"))]


def tensor_table(kind: str, dims: int, num_students: int, num_questions: int, num_classes: int) -> dict:
    """Name -> (checkpoint record name, shape) of every tensor of a kind.

    Entries come in checkpoint order, which is also the order in which
    initialisation draws them. Rasch kinds ignore dims; others need an integer dims >= 1.
    """
    names, family = _tensor_names(kind), FAMILY[kind]
    if family != RASCH and (isinstance(dims, bool) or not isinstance(dims, Integral) or dims < 1):
        raise ValueError(f"{kind} requires dims >= 1, got {dims!r}")
    rows = {INTERACTION: num_students, CLASS_INTERACTION: num_classes}.get(family)
    shapes = {"ability": (num_students,), "easiness": (num_questions,),
              "vec": (rows, dims), "demand": (num_questions, dims)}
    return {name: (_RECORDS[kind in VI_KINDS][name].format(v=_VEC_STEM.get(family)), shapes[name.removesuffix("_rho")])
            for name in names}


def check_shapes(params: Params, table: dict, owner: str) -> None:
    """Raise, naming owner and tensor, unless each tensor has its shape in table, its kind's tensor table."""
    for name, (_, want) in table.items():
        if (got := getattr(params, name).shape) != want:
            raise ValueError(f"{owner} shape mismatch for {name}: expected {want}, got {got}")


def vec_rows(kind: str, s_idx, class_of=None):
    """The vec row each response uses: its student's own (identity owner) or its class's."""
    if FAMILY[kind] != CLASS_INTERACTION:
        return s_idx
    if class_of is None:
        raise ValueError(f"class_of is required for {kind}")
    return class_of[s_idx]


def _take_rows(table: np.ndarray, idx) -> np.ndarray:
    """table[idx] along axis 0, by numpy's faster path for the row width.

    np.take gathers rows of two or more floats 3-7x faster than fancy
    indexing. One-float rows are gathered as the 1-D column: 2-D fancy
    indexing is about 2x slower than that at 8,192 entries, and np.take
    is slower too with a read-only index array, as every Dataset holds
    (numpy 2.4).
    """
    return table[:, 0][idx][:, None] if table.shape[1] == 1 else np.take(table, idx, axis=0)


def class_cells(kind: str, rows, q_idx, num_rows: int, num_questions: int):
    """The (vec row, question) cell of each response where the cell route pays, else None:
    only class kinds share vec rows, and only fewer cells than responses save work."""
    if FAMILY[kind] != CLASS_INTERACTION or num_rows * num_questions >= len(rows):
        return None
    return rows * num_questions + q_idx


def logits(params: Params, s_idx, q_idx, rows=None, q_rows=None):
    """Logit of every (s_idx, q_idx) pair; rows are the vec rows (default s_idx).

    q_rows = question_rows(params, q_idx) spares the question-side
    gathers when only the student side changes between calls.
    Returns the logits and what row_terms reuses: the vec
    rows with the gathered vec and demand rows, or None when D = 0.
    Those rows are as long as the index arrays, so a caller that needs
    only the logits should take [0] and let them go at once. When
    D = 0 the indices may also be slices or broadcast against each other.
    """
    ease, dem = question_rows(params, q_idx) if q_rows is None else q_rows
    z = params.ability[s_idx] + ease
    del ease  # a gather made here is freed before the vec rows add to the peak
    if not params.dims:
        return z, None
    rows = s_idx if rows is None else rows
    own = _take_rows(params.vec, rows)
    return z + np.einsum("nd,nd->n", own, dem), (rows, own, dem)


def question_rows(params: Params, q_idx):
    """easiness[q_idx] and demand[q_idx] (None when D = 0), the question side of logits."""
    return params.easiness[q_idx], _take_rows(params.demand, q_idx) if params.dims else None


def row_terms(s_idx, q_idx, w, gathered, eps=None):
    """The row-route gradient of sum_n w[n] * z[n], one term at a time: (tensor name, part, rows, weights).

    A term adds weights[n] to row rows[n] of tensor[part] (the whole of a
    1-D tensor, a column of a 2-D one); a tensor's gradient sums its terms:
    vi._elbo_core sums them by bincount, optim.sgd_train's step by np.add.at.
    gathered is what logits returned beside z. eps = (eps_ability, eps_vec),
    the noise of a reparameterised sample mu + sigma * eps, adds the terms of
    its sigmas ("ability_rho", "vec_rho"), before the d sigma / d rho factor.
    """
    yield "ability", ..., s_idx, w
    yield "easiness", ..., q_idx, w
    if eps is not None:
        yield "ability_rho", ..., s_idx, w * eps[0][s_idx]
    if gathered is None:
        return
    rows, own, dem = gathered
    eps_own = None if eps is None else _take_rows(eps[1], rows)
    for d in range(own.shape[1]):
        w_dem, col = w * dem[:, d], (slice(None), d)
        yield "vec", col, rows, w_dem
        yield "demand", col, q_idx, w * own[:, d]
        if eps is not None:
            yield "vec_rho", col, rows, w_dem * eps_own[:, d]


def predict_proba_array(params: Params, s_idx, q_idx, class_of=None) -> np.ndarray:
    """P(correct) in the open interval (0, 1), at the means for VI kinds; class_of required for class models."""
    return np.clip(sigmoid(logits(params, s_idx, q_idx, vec_rows(params.kind, s_idx, class_of))[0]), _P_LO, _P_HI)
