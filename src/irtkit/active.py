"""Pool-based active learning for brand-new students.

The ability-difficulty model is fit on an initial labelled base. New
pool students start with no revealed answers; each round the policy
picks which of their unanswered questions to query (uncertainty: the
question whose predicted probability is closest to 0.5; random: a
uniform draw), the oracle label is revealed, the model is retrained
warm-started for a capped number of epochs, and accuracy on each pool
student's reserved holdout questions is recorded. The loop holds the
pool as (student, question) arrays, so a round is a few whole-pool
numpy operations rather than a pass over the students.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .models import RASCH, ModelSpec, logits, sigmoid
from .optim import TrainConfig, sgd_train

UNCERTAINTY = "uncertainty"
RANDOM = "random"


@dataclass
class PoolStudent:
    student_id: str
    revealed: dict            # question index -> label, in reveal order
    hidden: dict              # question index -> label, the queryable oracle
    test_holdout: dict        # question index -> label, reserved for scoring


@dataclass
class PoolState:
    base: Dataset
    pool: list                # list[PoolStudent]; disjoint from base students


@dataclass
class ActiveConfig:
    policy: str = UNCERTAINTY
    batch_size: int = 1
    rounds: int = 10
    retrain: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=5))
    initial_epochs: int = 30  # fuller schedule for the round-0 base fit
    seed: int = 0

    def __post_init__(self):
        if self.policy not in (UNCERTAINTY, RANDOM):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ActiveResult:
    policy: str
    seed: int
    questions_revealed: list           # per round, questions revealed per student so far
    overall_accuracy: list             # mean over pool students, per round
    per_student_accuracy: np.ndarray   # (rounds + 1, pool size)


def make_pool_state(d: Dataset, pool_size: int, holdout_fraction: float = 0.2, seed: int = 0) -> PoolState:
    """Carve pool_size students out of a dataset as unseen newcomers.

    Each pool student's answers are split into a reserved test holdout
    (about holdout_fraction of them, at least one) and a hidden oracle
    the policies may query. Remaining students form the labelled base.
    """
    if not 0 < pool_size < d.num_students:
        raise ValueError("pool_size must leave at least one base student")
    rng = np.random.default_rng(seed)
    pool_ids = np.sort(rng.choice(d.num_students, size=pool_size, replace=False))

    remap = np.zeros(d.num_students, dtype=np.int64)
    remap[pool_ids] = -1
    base_students = np.flatnonzero(remap == 0)
    remap[base_students] = np.arange(base_students.shape[0])
    base_mask = remap[d.student_idx] >= 0
    base = Dataset(
        student_idx=remap[d.student_idx[base_mask]],
        question_idx=d.question_idx[base_mask].copy(),
        y=d.y[base_mask].copy(),
        num_students=int(base_students.shape[0]),
        num_questions=d.num_questions,
        num_classes=d.num_classes,
        class_of=d.class_of[base_students].copy(),
        student_ids=tuple(d.student_ids[i] for i in base_students),
        question_ids=d.question_ids,
        class_ids=d.class_ids,
    )

    # rows grouped by student, each group in row order
    by_student = np.argsort(d.student_idx, kind="stable")
    bounds = np.searchsorted(d.student_idx[by_student], np.stack([pool_ids, pool_ids + 1]))
    pool: list[PoolStudent] = []
    for s, lo, hi in zip(pool_ids, *bounds):
        rows = by_student[lo:hi]
        answers = dict(zip(d.question_idx[rows].tolist(), d.y[rows].tolist()))
        qs = np.array(sorted(answers), dtype=np.int64)
        k = max(1, int(np.floor(holdout_fraction * qs.size + 0.5)))
        k = min(k, qs.size - 1) if qs.size > 1 else qs.size
        held = set(rng.choice(qs, size=k, replace=False).tolist())
        pool.append(PoolStudent(
            student_id=d.student_ids[s],
            revealed={},
            hidden={q: answers[q] for q in qs.tolist() if q not in held},
            test_holdout={q: answers[q] for q in sorted(held)},
        ))
    return PoolState(base=base, pool=pool)


def select_next(probabilities: dict, already_revealed: set) -> int:
    """Uncertainty rule: unrevealed question with probability closest to 0.5.

    Ties break toward the lowest question index, which also makes the
    choice independent of map iteration order.
    """
    candidates = [q for q in probabilities if q not in already_revealed]
    if not candidates:
        raise ValueError("no unrevealed question to select")
    return min(candidates, key=lambda q: (abs(probabilities[q] - 0.5), q))


def _cells(pool: list, name: str):
    """(pool row, question, label) arrays of one dict field, pool then dict order."""
    maps = [getattr(p, name) for p in pool]
    cells = np.fromiter((qy for m in maps for qy in m.items()), dtype=np.dtype((np.int64, 2)))
    return np.repeat(np.arange(len(maps)), [len(m) for m in maps]), cells[:, 0], cells[:, 1]


def run_active_loop(state: PoolState, cfg: ActiveConfig) -> ActiveResult:
    """Reveal-retrain loop; returns the learning curve for cfg.policy.

    Pool students enter with ability 0 (the population prior mean), so
    round 0 scores question-difficulty-only predictions. Each subsequent
    round reveals cfg.batch_size answers per student (selected exactly as
    select_next does, vectorized across students), retrains the
    ability-difficulty model warm-started from the previous round, and
    scores the reserved holdouts. Rounds that outrun a student's hidden
    answers reveal whatever remains; the loop truncates with a warning
    once every hidden answer is out. The input state is never mutated.
    """
    if not state.pool:
        raise ValueError("pool must be non-empty")
    spec = ModelSpec(RASCH)
    rng = np.random.default_rng(cfg.seed)
    base = state.base
    base_s = base.num_students
    P, Q = len(state.pool), base.num_questions

    label = np.zeros((P, Q), dtype=np.int8)
    queryable, holdout = np.zeros((2, P, Q), dtype=bool)
    for name, mask, value in (("test_holdout", holdout, True), ("hidden", queryable, True),
                              ("revealed", queryable, False)):
        rows, qs, ys = _cells(state.pool, name)
        mask[rows, qs] = value
        label[rows, qs] = ys
    # reveal order per student, -1 past the end; seeded by the "revealed" pass
    order = np.full((P, Q), -1, dtype=np.int64)
    order[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = qs
    n_revealed = np.bincount(rows, minlength=P)

    class_of = np.concatenate([base.class_of, np.zeros(P, dtype=np.int64)])
    student_ids = base.student_ids + tuple(p.student_id for p in state.pool)
    per_round = []   # holdout accuracy per pool student, one row per round

    def combined() -> Dataset:
        """Base responses, then every revealed pool answer in pool and reveal order."""
        j, slot = np.nonzero(order >= 0)
        q = order[j, slot]
        return replace(base, student_idx=np.concatenate([base.student_idx, base_s + j]),
                       question_idx=np.concatenate([base.question_idx, q]),
                       y=np.concatenate([base.y, label[j, q]]),
                       num_students=base_s + P, class_of=class_of, student_ids=student_ids)

    def score(params) -> np.ndarray:
        """Record holdout accuracy per pool student; return the pool's probabilities."""
        probs = sigmoid(logits(params, np.s_[base_s:, None], np.s_[:])[0])  # (P, Q), pool x questions
        hits = ((probs >= 0.5) == (label == 1)) & holdout
        per_round.append(hits.sum(axis=1) / holdout.sum(axis=1))
        return probs

    params, _ = sgd_train(spec, combined(), replace(cfg.retrain, epochs=cfg.initial_epochs, seed=cfg.seed))
    # cold-start pool abilities at the prior mean
    params.ability[base_s:] = 0.0
    probs = score(params)
    steps = np.arange(cfg.batch_size)

    for r in range(1, cfg.rounds + 1):
        if not queryable.any():
            warnings.warn(f"all hidden answers revealed after {r - 1} rounds; truncating")
            break
        open_counts = queryable.sum(axis=1)
        takes = steps < np.minimum(cfg.batch_size, open_counts)[:, None]
        if cfg.policy == UNCERTAINTY:
            scores = np.where(queryable, np.abs(probs - 0.5), np.inf)
        else:
            # one draw per pick, student-major, from the shrinking open count
            draws = np.zeros(takes.shape, dtype=np.int64)
            draws[takes] = rng.integers(0, (open_counts[:, None] - steps)[takes])
        for b in steps:
            j = np.flatnonzero(takes[:, b])
            if cfg.policy == UNCERTAINTY:
                q_next = np.argmin(scores[j], axis=1)  # first minimum = lowest index
                scores[j, q_next] = np.inf
            else:
                # the draws[j, b]-th still-open question of each student
                q_next = np.argmax(np.cumsum(queryable[j], axis=1) > draws[j, b, None], axis=1)
            queryable[j, q_next] = False
            order[j, n_revealed[j]] = q_next
            n_revealed[j] += 1
        retrain_cfg = replace(cfg.retrain, seed=cfg.seed + r)
        params, _ = sgd_train(spec, combined(), retrain_cfg, warm_start=params)
        probs = score(params)

    per_student = np.vstack(per_round)
    return ActiveResult(
        policy=cfg.policy,
        seed=cfg.seed,
        questions_revealed=[k * cfg.batch_size for k in range(len(per_round))],
        overall_accuracy=[float(np.mean(row)) for row in per_student],
        per_student_accuracy=per_student,
    )


def ability_bucket_report(result: ActiveResult, abilities, cut_points) -> dict:
    """Split the pool by ability and average each bucket's learning curve.

    Buckets are the half-open intervals between consecutive cut points
    (outermost buckets unbounded). Empty buckets are omitted. The
    bucket-size-weighted mean of the bucket curves equals the overall
    curve.
    """
    abilities = np.asarray(abilities, dtype=np.float64)
    if abilities.shape[0] != result.per_student_accuracy.shape[1]:
        raise ValueError("need one ability value per pool student")
    edges = [-np.inf] + sorted(float(c) for c in cut_points) + [np.inf]
    report = {}
    for i in range(len(edges) - 1):
        mask = (abilities > edges[i]) & (abilities <= edges[i + 1])
        if not mask.any():
            continue
        label = f"({edges[i]:g}, {edges[i + 1]:g}]"
        report[label] = {
            "count": int(mask.sum()),
            "curve": [float(v) for v in result.per_student_accuracy[:, mask].mean(axis=1)],
        }
    return report
