"""Point-estimate likelihood heads for binary response prediction.

Three nested model families share one logistic link: an ability plus
easiness bias model, a multidimensional student-by-question interaction
model, and a variant whose interaction vectors are shared by all
students in the same class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RASCH = "rasch"
INTERACTION = "interaction"
CLASS_INTERACTION = "class-interaction"
POINT_KINDS = (RASCH, INTERACTION, CLASS_INTERACTION)

_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


def sigmoid(x):
    """Numerically stable logistic function, branch-free, no logit clipping.

    With e = exp(-|x|), which cannot overflow, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below: the same operations, and so the same
    bits, as branching on the sign.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    out /= 1.0 + e
    return out if np.ndim(out) else float(out)


def softplus(x):
    """log(1 + e^x) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    dims: int = 0

    def __post_init__(self):
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == RASCH:
            object.__setattr__(self, "dims", 0)
        elif self.dims < 1:
            raise ValueError(f"{self.kind} requires dims >= 1")


@dataclass
class RaschParams:
    ability: np.ndarray   # (S,) student ability
    easiness: np.ndarray  # (Q,) large positive means a simple question


@dataclass
class InteractionParams:
    ability: np.ndarray   # (S,)
    easiness: np.ndarray  # (Q,)
    skill: np.ndarray     # (S, D) per-student strengths and weaknesses
    demand: np.ndarray    # (Q, D) per-question topic involvement


@dataclass
class ClassInteractionParams:
    ability: np.ndarray      # (S,)
    easiness: np.ndarray     # (Q,)
    class_skill: np.ndarray  # (C, D) shared by all students of a class
    demand: np.ndarray       # (Q, D)


def logit_rasch(p: RaschParams, s: int, q: int) -> float:
    return float(p.ability[s] + p.easiness[q])


def logit_interaction(p: InteractionParams, s: int, q: int) -> float:
    return float(p.ability[s] + p.easiness[q] + p.skill[s] @ p.demand[q])


def logit_class_interaction(p: ClassInteractionParams, s: int, q: int, class_of) -> float:
    c = class_of[s]
    return float(p.ability[s] + p.easiness[q] + p.class_skill[c] @ p.demand[q])


def logits_array(spec: ModelSpec, params, s_idx, q_idx, class_of=None) -> np.ndarray:
    """Vectorized logits for index arrays; class_of required for class models."""
    z = params.ability[s_idx] + params.easiness[q_idx]
    if spec.kind == INTERACTION:
        z = z + np.einsum("nd,nd->n", params.skill[s_idx], params.demand[q_idx])
    elif spec.kind == CLASS_INTERACTION:
        if class_of is None:
            raise ValueError("class_of is required for the class interaction model")
        z = z + np.einsum("nd,nd->n", params.class_skill[class_of[s_idx]], params.demand[q_idx])
    return z


def predict_prob(spec: ModelSpec, params, s: int, q: int, class_of=None) -> float:
    """P(correct) for one cell; output clamped to the open interval (0, 1)."""
    if spec.kind == RASCH:
        z = logit_rasch(params, s, q)
    elif spec.kind == INTERACTION:
        z = logit_interaction(params, s, q)
    else:
        if class_of is None:
            raise ValueError("class_of is required for the class interaction model")
        z = logit_class_interaction(params, s, q, class_of)
    return float(np.clip(sigmoid(z), _P_LO, _P_HI))


def predict_proba_array(spec: ModelSpec, params, s_idx, q_idx, class_of=None) -> np.ndarray:
    z = logits_array(spec, params, s_idx, q_idx, class_of)
    return np.clip(sigmoid(z), _P_LO, _P_HI)


def predict_label(p: float, threshold: float = 0.5) -> int:
    """Decision rule for accuracy; ties at the threshold predict correct."""
    return 1 if p >= threshold else 0
