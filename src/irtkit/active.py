"""Pool-based active learning for brand-new students.

The ability-difficulty model is fit on an initial labelled base. New
pool students start with no revealed answers; each round the policy
picks which of their unanswered questions to query (uncertainty: the
question whose predicted probability is closest to 0.5; random: a
uniform draw), the oracle label is revealed, the model is retrained
warm-started for a capped number of epochs, and accuracy on each pool
student's reserved holdout questions is recorded. The pool is held as
(pool student, question) arrays, so a round is a few whole-pool numpy
operations rather than a pass over the students.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, choice_per_group
from .models import RASCH, logits, require_count, sigmoid
from .optim import TrainConfig, sgd_train

UNCERTAINTY = "uncertainty"
RANDOM = "random"


@dataclass(frozen=True)
class PoolState:
    """The labelled base and the pool of new students, as read-only (P, Q) arrays.

    Row i of each array is the pool student student_ids[i]. label holds
    the int8 answers (0 where there is none); holdout marks the answers
    reserved for scoring and queryable the ones a policy may reveal.
    order lists each student's revealed questions in reveal order, -1
    past the end; a student may arrive with answers revealed.
    """

    base: Dataset             # disjoint from the pool students
    student_ids: tuple
    label: np.ndarray
    holdout: np.ndarray
    queryable: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        for arr in (self.label, self.holdout, self.queryable, self.order):
            arr.setflags(write=False)


@dataclass
class ActiveResult:
    policy: str
    seed: int
    questions_revealed: list           # per round, most answers any pool student has revealed
    overall_accuracy: list             # mean over pool students, per round
    per_student_accuracy: np.ndarray   # (rounds + 1, pool size)


def make_pool_state(d: Dataset, pool_size: int, holdout_fraction: float = 0.2, seed: int = 0) -> PoolState:
    """Carve pool_size students out of a dataset as unseen newcomers.

    The pool is drawn from the students with at least one response. Each
    pool student's answers are split into a reserved test holdout (about
    holdout_fraction of them, at least one) and a hidden oracle the
    policies may query. Remaining students form the labelled base.
    The holdouts are Generator.choice's draws: pool student by pool
    student, the picks of rng.choice(answered questions, size=k,
    replace=False), reproduced in bulk by `choice_per_group`.
    """
    if not 0 < holdout_fraction < 1:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    require_count("pool_size", pool_size, 1)
    if pool_size >= d.num_students:
        raise ValueError("pool_size must leave at least one base student")
    require_count("seed", seed, 0)
    answered = np.flatnonzero(np.bincount(d.student_idx, minlength=d.num_students))
    if pool_size > answered.size:
        raise ValueError(f"pool_size {pool_size} exceeds the {answered.size} students with a response")
    rng = np.random.default_rng(seed)
    pool_ids = np.sort(answered[rng.choice(answered.size, size=pool_size, replace=False)])
    pool = d.keep_students(pool_ids)
    label = np.zeros((pool_size, d.num_questions), dtype=np.int8)
    label[pool.student_idx, pool.question_idx] = pool.y
    observed = np.zeros(label.shape, dtype=bool)
    observed[pool.student_idx, pool.question_idx] = True
    sizes = np.count_nonzero(observed, axis=1)
    ks = np.minimum(np.maximum(1, np.floor(holdout_fraction * sizes + 0.5).astype(np.int64)),
                    np.maximum(1, sizes - 1))
    holdout = np.zeros(label.shape, dtype=bool)
    holdout[observed] = choice_per_group(rng, sizes, ks)   # the groups are the rows' answered cells
    base = d.keep_students(np.flatnonzero(np.bincount(pool_ids, minlength=d.num_students) == 0))
    return PoolState(base=base, student_ids=pool.student_ids, label=label, holdout=holdout,
                     queryable=observed & ~holdout, order=np.full(label.shape, -1, dtype=np.int64))


def select_next(probs: np.ndarray, open_: np.ndarray) -> np.ndarray:
    """Uncertainty rule, row by row: the open question with probability closest to 0.5.

    probs and open_ are (P, Q); returns one question index per row. Ties
    break toward the lowest question index. A row with no open question
    is a ValueError.
    """
    if not open_.any(axis=1).all():
        raise ValueError("no open question to select")
    return np.argmin(np.where(open_, np.abs(probs - 0.5), np.inf), axis=1)


def run_active_loop(state: PoolState, policy: str, rounds: int, retrain: TrainConfig,
                    initial_epochs: int = 30, batch_size: int = 1) -> ActiveResult:
    """Reveal-retrain loop; returns the learning curve for policy.

    Every fit runs retrain's SGD schedule, and retrain.seed is the loop's
    one seed: the initial fit runs initial_epochs epochs from it, round r
    retrains from retrain.seed + r, and the random policy draws from
    default_rng(retrain.seed).
    Pool students enter with ability 0 (the population prior mean), so
    round 0 scores question-difficulty-only predictions. Each subsequent
    round reveals batch_size answers per student (uncertainty: one
    select_next call per batch slot over the whole pool), retrains the
    ability-difficulty model warm-started from the previous round, and
    scores the reserved holdouts. Rounds that outrun a student's hidden
    answers reveal whatever remains; the loop truncates with a warning
    once every hidden answer is out. The loop works on copies, so the
    read-only input state is never mutated.
    The result's questions_revealed holds, per round, the most answers
    any pool student has revealed so far, read from the reveal order:
    answers a student arrived with count, and a student whose hidden
    answers ran out stops adding to it.
    """
    if policy not in (UNCERTAINTY, RANDOM):
        raise ValueError(f"unknown policy {policy!r}")
    for name, value, low in (("batch_size", batch_size, 1), ("rounds", rounds, 0),
                             ("initial_epochs", initial_epochs, 1)):
        require_count(name, value, low)
    if not state.student_ids:
        raise ValueError("pool must be non-empty")
    rng = np.random.default_rng(retrain.seed)
    base, label, holdout = state.base, state.label, state.holdout
    queryable, order = state.queryable.copy(), state.order.copy()
    base_s = base.num_students
    P = label.shape[0]
    n_revealed = (order >= 0).sum(axis=1)

    class_of = np.concatenate([base.class_of, np.zeros(P, dtype=np.int64)])
    student_ids = base.student_ids + state.student_ids
    per_round = []   # holdout accuracy per pool student, one row per round
    revealed = []    # most answers any pool student has revealed, one entry per round

    def combined() -> Dataset:
        """Base responses, then every revealed pool answer in pool and reveal order."""
        j, slot = np.nonzero(order >= 0)
        q = order[j, slot]
        return replace(base, student_idx=np.concatenate([base.student_idx, base_s + j]),
                       question_idx=np.concatenate([base.question_idx, q]),
                       y=np.concatenate([base.y, label[j, q]]), class_of=class_of, student_ids=student_ids)

    def score(params) -> np.ndarray:
        """Record holdout accuracy per pool student; return the pool's probabilities."""
        probs = sigmoid(logits(params, np.s_[base_s:, None], np.s_[:])[0])  # (P, Q), pool x questions
        hits = ((probs >= 0.5) == (label == 1)) & holdout
        per_round.append(hits.sum(axis=1) / holdout.sum(axis=1))
        revealed.append(int(n_revealed.max()))
        return probs

    params, _ = sgd_train(RASCH, combined(), replace(retrain, epochs=initial_epochs))
    # cold-start pool abilities at the prior mean
    params.ability[base_s:] = 0.0
    probs = score(params)
    steps = np.arange(batch_size)

    for r in range(1, rounds + 1):
        if not queryable.any():
            warnings.warn(f"all hidden answers revealed after {r - 1} rounds; truncating")
            break
        open_counts = queryable.sum(axis=1)
        takes = steps < np.minimum(batch_size, open_counts)[:, None]
        if policy == RANDOM:
            # one draw per pick, student-major, from the shrinking open count
            draws = np.zeros(takes.shape, dtype=np.int64)
            draws[takes] = rng.integers(0, (open_counts[:, None] - steps)[takes])
        for b in steps:
            j = np.flatnonzero(takes[:, b])
            if policy == UNCERTAINTY:
                q_next = select_next(probs[j], queryable[j])
            else:
                # the draws[j, b]-th still-open question of each student
                q_next = np.argmax(np.cumsum(queryable[j], axis=1) > draws[j, b, None], axis=1)
            queryable[j, q_next] = False
            order[j, n_revealed[j]] = q_next
            n_revealed[j] += 1
        params, _ = sgd_train(RASCH, combined(), replace(retrain, seed=retrain.seed + r), warm_start=params)
        probs = score(params)

    per_student = np.vstack(per_round)
    return ActiveResult(
        policy=policy,
        seed=retrain.seed,
        questions_revealed=revealed,
        overall_accuracy=[float(np.mean(row)) for row in per_student],
        per_student_accuracy=per_student,
    )

