"""Multi-step experiment presets with fixed seeds and plot-ready CSV output.

Three recipes: a synthetic recovery run comparing the ability-difficulty
and 1-D interaction models, a low-data sweep comparing the point class
interaction model against its variational counterpart across student
subsample fractions, and an uncertainty-vs-random active learning
comparison on a pool of new students.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .active import (RANDOM, UNCERTAINTY, ActiveConfig, ActiveResult, make_pool_state,
                     run_active_loop)
from .data import split_train_test, subsample_students
from .metrics import accuracy
from .models import CLASS_INTERACTION, INTERACTION, RASCH, ModelSpec, predict_proba_array
from .optim import TrainConfig, sgd_train
from .synth import SynthConfig, generate_synthetic
from .vi import CLASS_INTERACTION_VI, VIConfig, predict_proba_vi_array, train_vi

RECIPES = ("appendix-c-recovery", "low-data-sweep", "active-vs-random")

# Derived sub-seed offsets so one --seed drives every component distinctly.
SEED_DATA = 1000
SEED_SPLIT = 2000
SEED_TRAIN = 3000
SEED_POOL = 4000

# Fixed exam realization for the recovery experiment: absolute accuracy
# is a property of one question paper's correctness rate, so the exam is
# held fixed and only student populations vary across seeds.
RECOVERY_EXAM_SEED = 60


def _write_csv(path: str, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _heldout_accuracy(spec, params, split) -> float:
    p = predict_proba_array(spec, params, split.test.student_idx, split.test.question_idx,
                            split.test.class_of)
    return accuracy(p, split.test.y).accuracy


def resolve_workers() -> int:
    """Processes a recipe runs its units on: the usable cores."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _recorded(fn, unit: tuple):
    """Run one unit in a worker; return its result and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*unit)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Re-emit a worker's warning as the module that raised it would have.

    The module's name and registry are passed on, so filters by module and
    the once-per-location rule act as they do in the plain loop.
    """
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            scope = vars(module)
            warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                                   scope.setdefault("__warningregistry__", {}), scope)
            return
    warnings.warn_explicit(message, category, filename, lineno)


def _run_units(fn, units: list) -> list:
    """fn(*unit) for every unit, in unit order, on up to `resolve_workers()` processes.

    One process is a plain loop. With n > 1, this process runs the first
    ceil(len(units) / n) units itself, so its own instrumentation still
    sees them, while n - 1 forked workers take the rest, one task per
    unit. Their warnings are re-emitted here in unit order, and the first
    exception in unit order is raised here. Units are independent and
    seeded, so the results equal the plain loop's.
    """
    workers = min(resolve_workers(), len(units))
    if workers == 1:
        return [fn(*unit) for unit in units]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    own = -(-len(units) // workers)
    with ProcessPoolExecutor(max_workers=workers - 1,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_recorded, fn, unit) for unit in units[own:]]
        try:
            results = [fn(*unit) for unit in units[:own]]
            for future in futures:
                result, caught = future.result()
                for record in caught:
                    _warn_again(*record)
                results.append(result)
        finally:
            for future in futures:
                future.cancel()
    return results


@dataclass
class RecoveryRow:
    model: str
    seed: int
    students: int
    accuracy: float


@lru_cache(maxsize=1)
def _recovery_split(seed: int, students: int, questions: int, test_fraction: float):
    """A seed's recovery data and split, made once for both of its models."""
    data, _ = generate_synthetic(SynthConfig(students=students, questions=questions, dims=1,
                                             mean_bq=-3.0, outcome="threshold",
                                             seed=seed + SEED_DATA,
                                             exam_seed=RECOVERY_EXAM_SEED))
    return split_train_test(data, test_fraction, seed + SEED_SPLIT)


def _recovery_unit(seed: int, model: str, students: int, questions: int, test_fraction: float,
                   epochs: int) -> RecoveryRow:
    """One (seed, model) fit of the recovery run."""
    split = _recovery_split(seed, students, questions, test_fraction)
    if model == RASCH:
        spec = ModelSpec(RASCH)
        cfg = TrainConfig(learning_rate=0.1, epochs=epochs, seed=seed + SEED_TRAIN)
    else:
        spec = ModelSpec(INTERACTION, 1)
        cfg = TrainConfig(learning_rate=0.1, epochs=epochs, init_scale=0.1, seed=seed + SEED_TRAIN)
    params, _ = sgd_train(spec, split.train, cfg)
    return RecoveryRow(model, seed, students, _heldout_accuracy(spec, params, split))


def recovery_run(students: int = 40_000, questions: int = 24, seeds=(0, 1, 2, 3, 4),
                 test_fraction: float = 0.2, epochs: int = 60, out_dir: str | None = None):
    """Synthetic recovery: dense 1-D interaction data, both point models.

    Outcomes are the model's most-likely responses (threshold variant):
    that is the regime in which the recovery accuracies are stable and
    the interaction model reliably beats the ability-difficulty model.
    Each (seed, model) fit is one unit (see `_run_units`). Returns the
    per-seed accuracy rows.
    """
    rows: list[RecoveryRow] = _run_units(
        partial(_recovery_unit, students=students, questions=questions,
                test_fraction=test_fraction, epochs=epochs),
        [(seed, model) for seed in seeds for model in (RASCH, INTERACTION)])
    _recovery_split.cache_clear()

    if out_dir:
        _write_csv(os.path.join(out_dir, "recovery.csv"),
                   ["model", "seed", "students", "accuracy"],
                   [(r.model, r.seed, r.students, r.accuracy) for r in rows])
        summary = []
        for name in (RASCH, INTERACTION):
            accs = [r.accuracy for r in rows if r.model == name]
            summary.append((name, students, float(np.mean(accs)), float(min(accs)), float(max(accs))))
        _write_csv(os.path.join(out_dir, "recovery_summary.csv"),
                   ["model", "students", "mean_accuracy", "min_accuracy", "max_accuracy"], summary)
    return rows


@dataclass
class LowDataRow:
    fraction: float
    students: int
    seed: int
    ci_accuracy: float
    civi_accuracy: float


def low_data_synth_config(seed: int) -> SynthConfig:
    """Class-structured generator used by the low-data sweep."""
    return SynthConfig(students=4000, questions=24, dims=3, mean_bq=0.0,
                       num_classes=40, class_effect_std=1.0, std_xs=0.0, seed=seed)


@lru_cache(maxsize=1)
def _low_data_full(seed: int):
    """A seed's full low-data population, made once for all of its fractions."""
    return generate_synthetic(low_data_synth_config(seed + SEED_DATA))[0]


def _low_data_unit(seed: int, fraction: float, dims: int, test_fraction: float, point_epochs: int,
                   vi_epochs: int, vi_lr: float) -> LowDataRow:
    """One (seed, fraction) pair of the sweep: the point fit, then its VI twin."""
    full = _low_data_full(seed)
    sub = full if fraction == 1.0 else subsample_students(full, fraction, seed + SEED_SPLIT)
    split = split_train_test(sub, test_fraction, seed + SEED_SPLIT)
    spec = ModelSpec(CLASS_INTERACTION, dims)
    point_cfg = TrainConfig(learning_rate=0.1, epochs=point_epochs, init_scale=0.1,
                            seed=seed + SEED_TRAIN)
    point_params, _ = sgd_train(spec, split.train, point_cfg)
    ci_acc = _heldout_accuracy(spec, point_params, split)

    vi_cfg = VIConfig(samples=5, sigma_init=0.8, learning_rate=vi_lr, epochs=vi_epochs,
                      seed=seed + SEED_TRAIN, warm_start=point_params)
    vi_params, _ = train_vi(CLASS_INTERACTION_VI, split.train, vi_cfg, dims=dims)
    p = predict_proba_vi_array(vi_params, split.test.student_idx, split.test.question_idx,
                               split.test.class_of)
    return LowDataRow(fraction, sub.num_students, seed, ci_acc, accuracy(p, split.test.y).accuracy)


def low_data_sweep(fractions=(1.0, 0.5, 0.25, 0.15), seeds=(0, 1, 2, 3, 4),
                   dims: int = 3, test_fraction: float = 0.2,
                   point_epochs: int = 150, vi_epochs: int = 800, vi_lr: float = 0.002,
                   out_dir: str | None = None):
    """Point class interaction vs its VI twin across subsample fractions.

    The VI model is warm-started from the trained point model with its
    ability standard deviations initialised at 0.8, mirroring the
    low-data protocol. Rows are paired: both models see identical data
    and splits per (fraction, seed), which is one unit (see `_run_units`).
    """
    rows: list[LowDataRow] = _run_units(
        partial(_low_data_unit, dims=dims, test_fraction=test_fraction,
                point_epochs=point_epochs, vi_epochs=vi_epochs, vi_lr=vi_lr),
        [(seed, fraction) for seed in seeds for fraction in fractions])
    _low_data_full.cache_clear()

    if out_dir:
        _write_csv(os.path.join(out_dir, "low_data.csv"),
                   ["fraction", "students", "seed", "ci_accuracy", "civi_accuracy"],
                   [(r.fraction, r.students, r.seed, r.ci_accuracy, r.civi_accuracy) for r in rows])
        summary = []
        for fraction in fractions:
            sub_rows = [r for r in rows if r.fraction == fraction]
            summary.append((fraction, sub_rows[0].students,
                            float(np.mean([r.ci_accuracy for r in sub_rows])),
                            float(np.mean([r.civi_accuracy for r in sub_rows]))))
        _write_csv(os.path.join(out_dir, "low_data_summary.csv"),
                   ["fraction", "students", "ci_accuracy", "civi_accuracy"], summary)
    return rows


def active_synth_config(seed: int) -> SynthConfig:
    """Ability-difficulty generator for the active learning comparison."""
    return SynthConfig(students=3000, questions=70, dims=0, mean_bq=0.0, std_bq=2.0, seed=seed)


@lru_cache(maxsize=1)
def _active_pool(seed: int, pool_size: int, holdout_fraction: float):
    """A seed's pool, made once for both policies (`run_active_loop` leaves it as is)."""
    data, _ = generate_synthetic(active_synth_config(seed + SEED_DATA))
    return make_pool_state(data, pool_size, holdout_fraction, seed + SEED_POOL)


def _active_unit(seed: int, policy: str, pool_size: int, rounds: int,
                 holdout_fraction: float) -> ActiveResult:
    """One (seed, policy) learning curve."""
    state = _active_pool(seed, pool_size, holdout_fraction)
    cfg = ActiveConfig(policy=policy, batch_size=1, rounds=rounds,
                       retrain=TrainConfig(learning_rate=0.1, epochs=8, convergence_tol=0.0),
                       initial_epochs=30, seed=seed + SEED_TRAIN)
    return run_active_loop(state, cfg)


def active_vs_random(pool_size: int = 2000, seeds=(0, 1, 2, 3, 4), rounds: int = 56,
                     holdout_fraction: float = 0.2, out_dir: str | None = None):
    """Paired uncertainty-vs-random learning curves on a pool of new students.

    Both policies share the generator, pool construction, and seeds; only
    the selection rule differs. Each (seed, policy) curve is one unit (see
    `_run_units`). Returns {policy: [ActiveResult, ...]}.
    """
    policies = (UNCERTAINTY, RANDOM)
    curves = _run_units(
        partial(_active_unit, pool_size=pool_size, rounds=rounds,
                holdout_fraction=holdout_fraction),
        [(seed, policy) for seed in seeds for policy in policies])
    _active_pool.cache_clear()
    results = {policy: curves[i::len(policies)] for i, policy in enumerate(policies)}

    if out_dir:
        rows = []
        for policy, runs in results.items():
            for res in runs:
                for k, acc in zip(res.questions_revealed, res.overall_accuracy):
                    rows.append((k, acc, policy, res.seed))
        _write_csv(os.path.join(out_dir, "active_curves.csv"),
                   ["questions_revealed", "accuracy", "policy", "seed"], rows)
    return results
