"""Seeded synthetic response generation for recovery and low-data experiments.

Ability and question demand are drawn from Normal(0, 1), easiness and
skill from configurable normals (by default Normal(-3, 1), Normal(0, 1));
each cell's outcome is a Bernoulli draw of the logistic of ability +
easiness + skill dot demand, plus a class-vector term when class
structure is enabled. The generated matrix is dense by default;
keep_prob < 1 drops cells at random for sparsity experiments. The
generating latents are a dict of arrays, which `synth --truth` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np

from .data import Dataset
from .models import require_count, require_nonnegative, sigmoid


SAMPLE = "sample"        # y ~ Bernoulli(p), the default generative story
THRESHOLD = "threshold"  # y = 1 iff p > 0.5, the noiseless most-likely outcome


@dataclass
class SynthConfig:
    students: int = 1000
    questions: int = 24
    dims: int = 1
    mean_bq: float = -3.0
    std_bq: float = 1.0
    std_xs: float = 1.0
    num_classes: int = 0            # 0 disables class structure
    class_effect_std: float = 0.0
    keep_prob: float = 1.0
    outcome: str = SAMPLE
    seed: int = 0
    exam_seed: Optional[int] = None  # fix the question paper across student seeds

    def __post_init__(self):
        for name, low in (("students", 1), ("questions", 1), ("dims", 0), ("num_classes", 0), ("seed", 0)):
            require_count(name, getattr(self, name), low)
        if self.exam_seed is not None:
            require_count("exam_seed", self.exam_seed, 0)
        if isinstance(self.mean_bq, bool) or not isinstance(self.mean_bq, Real) or not abs(self.mean_bq) < np.inf:
            raise ValueError(f"mean_bq must be a finite real number, got {self.mean_bq!r}")
        for name in ("std_bq", "std_xs", "class_effect_std"):
            require_nonnegative(name, getattr(self, name))
        if isinstance(self.keep_prob, bool) or not isinstance(self.keep_prob, Real) or not 0 < self.keep_prob <= 1:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob!r}")
        if self.outcome not in (SAMPLE, THRESHOLD):
            raise ValueError(f"outcome must be {SAMPLE!r} or {THRESHOLD!r}")


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, dict]:
    """Sample latents, then Bernoulli responses for every (student, question) cell; (dataset, truth).

    truth, for recovery inspection only, maps ability (S,), easiness (Q,), skill (S, D), demand (Q, D)
    and, with classes, class_skill (C, D) and class_of (S,) to their arrays, in that order.
    Students are assigned to classes round-robin when num_classes > 0.
    Deterministic per seed; the same seed yields byte-identical outputs.
    When exam_seed is set, the question-side latents come from their own
    stream so one fixed exam paper can be reused across student seeds.
    """
    rng = np.random.default_rng(cfg.seed)
    exam_rng = rng if cfg.exam_seed is None else np.random.default_rng(cfg.exam_seed)
    S, Q, D = cfg.students, cfg.questions, cfg.dims
    ability = rng.normal(0.0, 1.0, S)
    easiness = exam_rng.normal(cfg.mean_bq, cfg.std_bq, Q)
    skill = rng.normal(0.0, cfg.std_xs, (S, D))
    demand = exam_rng.normal(0.0, 1.0, (Q, D))

    logits = ability[:, None] + easiness[None, :]
    if D > 0:
        logits = logits + skill @ demand.T

    truth = {"ability": ability, "easiness": easiness, "skill": skill, "demand": demand}
    if cfg.num_classes > 0:
        class_of = np.arange(S, dtype=np.int64) % cfg.num_classes
        class_skill = rng.normal(0.0, cfg.class_effect_std, (cfg.num_classes, D))
        if D > 0:
            logits = logits + class_skill[class_of] @ demand.T
        class_ids = tuple(f"c{i}" for i in range(cfg.num_classes))
        truth |= {"class_skill": class_skill, "class_of": class_of}
    else:
        class_of = np.zeros(S, dtype=np.int64)
        class_ids = ("c0",)

    p = sigmoid(logits)
    if cfg.outcome == SAMPLE:
        y = (rng.random((S, Q)) < p).astype(np.int8)
    else:
        y = (p > 0.5).astype(np.int8)

    s_idx = np.repeat(np.arange(S, dtype=np.int64), Q)
    q_idx = np.tile(np.arange(Q, dtype=np.int64), S)
    y_flat = y.reshape(-1)
    if cfg.keep_prob < 1.0:
        keep = rng.random(S * Q) < cfg.keep_prob
        s_idx, q_idx, y_flat = s_idx[keep], q_idx[keep], y_flat[keep]

    return Dataset(student_idx=s_idx, question_idx=q_idx, y=y_flat, class_of=class_of,
                   student_ids=tuple(f"s{i}" for i in range(S)), question_ids=tuple(f"q{i}" for i in range(Q)),
                   class_ids=class_ids), truth
