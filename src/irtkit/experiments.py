"""Multi-step experiment presets with fixed seeds and plot-ready CSV output.

Three recipes: a synthetic recovery run comparing the ability-difficulty
and 1-D interaction models, a low-data sweep comparing the point class
interaction model against its variational counterpart across student
subsample fractions, and an uncertainty-vs-random active learning
comparison on a pool of new students.
"""

from __future__ import annotations

import csv
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .active import RANDOM, UNCERTAINTY, ActiveResult, make_pool_state, run_active_loop
from .data import split_train_test, students_kept, subsample_students
from .metrics import accuracy
from .models import CLASS_INTERACTION, INTERACTION, RASCH, predict_proba_array
from .optim import TrainConfig, sgd_train
from .synth import SynthConfig, generate_synthetic
from .vi import CLASS_INTERACTION_VI, VIConfig, predict_proba_vi_array, train_vi

# The tables each recipe writes into its out_dir, in the order it writes them.
TABLES = {"appendix-c-recovery": ("recovery.csv", "recovery_summary.csv"),
          "low-data-sweep": ("low_data.csv", "low_data_summary.csv"),
          "active-vs-random": ("active_curves.csv",)}

# Derived sub-seed offsets so one --seed drives every component distinctly.
SEED_DATA = 1000
SEED_SPLIT = 2000
SEED_TRAIN = 3000
SEED_POOL = 4000

# Fixed exam realization for the recovery experiment: absolute accuracy
# is a property of one question paper's correctness rate, so the exam is
# held fixed and only student populations vary across seeds.
RECOVERY_EXAM_SEED = 60


def write_csv(path: str, header: list[str], rows: list) -> None:
    """A header line, then a line per row, as csv.writer quotes them (floats as their repr), each ended by \\n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # One write a row; a \r\n line end (written as \n) makes csv.writer quote a field holding a \r, as \n would not.
        csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))).writerows([header, *rows])


def table_paths(out_dir: str, recipe: str) -> list[str]:
    """The paths of a recipe's TABLES in out_dir, in the order it writes them."""
    return [os.path.join(out_dir, name) for name in TABLES[recipe]]


def _write_tables(out_dir: str, recipe: str, *tables) -> None:
    """Write a recipe's (header, rows) tables to its table_paths."""
    for path, table in zip(table_paths(out_dir, recipe), tables, strict=True):
        write_csv(path, *table)


def _heldout_accuracy(params, test) -> float:
    p = predict_proba_array(params, test.student_idx, test.question_idx, test.class_of)
    return accuracy(p, test.y)["accuracy"]


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


def _require_nonempty(**lists) -> None:
    """Refuse an empty seed or fraction list before any unit runs: a recipe with no units has nothing to report."""
    for name, values in lists.items():
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")


def _run_units(fn, units: list) -> list:
    """fn(*unit) for every unit, in unit order, on up to `resolve_workers()` processes.

    One process is a plain loop. With n > 1, this process runs the first
    ceil(len(units) / n) units itself, so its own instrumentation still
    sees them, while n - 1 forked workers take the rest, one task per
    unit. Their warnings are re-emitted here in unit order, and the first
    exception in unit order is raised here. Units are independent and
    seeded, so the results equal the plain loop's. A repeated unit (a
    recipe's seed or fraction given twice) is refused before any runs.
    """
    repeated = next((unit for i, unit in enumerate(units) if unit in units[:i]), None)
    if repeated is not None:
        raise ValueError(f"unit {repeated} repeats: a recipe's seeds and fractions must be distinct")
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
def _recovery_split(seed: int, students: int):
    """A seed's recovery data, split into (train, test) once for both of its models."""
    data, _ = generate_synthetic(SynthConfig(students=students, questions=24, dims=1,
                                             mean_bq=-3.0, outcome="threshold",
                                             seed=seed + SEED_DATA,
                                             exam_seed=RECOVERY_EXAM_SEED))
    return split_train_test(data, 0.2, seed + SEED_SPLIT)


def _recovery_unit(seed: int, model: str, students: int, epochs: int) -> RecoveryRow:
    """One (seed, model) fit of the recovery run."""
    train, test = _recovery_split(seed, students)
    cfg = TrainConfig(learning_rate=0.1, epochs=epochs, seed=seed + SEED_TRAIN,
                      init_scale=TrainConfig.init_scale if model == RASCH else 0.1)
    params, _ = sgd_train(model, train, cfg, dims=1)
    return RecoveryRow(model, seed, students, _heldout_accuracy(params, test))


def recovery_run(students: int = 40_000, seeds=(0, 1, 2, 3, 4), epochs: int = 60,
                 out_dir: str | None = None):
    """Synthetic recovery: dense 1-D interaction data, both point models.

    Outcomes are the model's most-likely responses (threshold variant):
    that is the regime in which the recovery accuracies are stable and
    the interaction model reliably beats the ability-difficulty model.
    Each (seed, model) fit is one unit (see `_run_units`). Returns the
    per-seed accuracy rows.
    """
    _require_nonempty(seeds=seeds)
    rows: list[RecoveryRow] = _run_units(
        partial(_recovery_unit, students=students, epochs=epochs),
        [(seed, model) for seed in seeds for model in (RASCH, INTERACTION)])
    _recovery_split.cache_clear()

    if out_dir:
        summary = []
        for name in (RASCH, INTERACTION):
            accs = [r.accuracy for r in rows if r.model == name]
            summary.append((name, students, float(np.mean(accs)), float(min(accs)), float(max(accs))))
        _write_tables(out_dir, "appendix-c-recovery",
                      (["model", "seed", "students", "accuracy"],
                       [(r.model, r.seed, r.students, r.accuracy) for r in rows]),
                      (["model", "students", "mean_accuracy", "min_accuracy", "max_accuracy"], summary))
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


def _low_data_unit(seed: int, fraction: float, point_epochs: int, vi_epochs: int) -> LowDataRow:
    """One (seed, fraction) pair of the sweep: the point fit, then its VI twin."""
    full = _low_data_full(seed)
    sub = full if fraction == 1.0 else subsample_students(full, fraction, seed + SEED_SPLIT)
    train, test = split_train_test(sub, 0.2, seed + SEED_SPLIT)
    point_cfg = TrainConfig(learning_rate=0.1, epochs=point_epochs, init_scale=0.1,
                            seed=seed + SEED_TRAIN)
    point_params, _ = sgd_train(CLASS_INTERACTION, train, point_cfg, dims=3)
    ci_acc = _heldout_accuracy(point_params, test)

    vi_cfg = VIConfig(samples=5, sigma_init=0.8, learning_rate=0.002, epochs=vi_epochs,
                      seed=seed + SEED_TRAIN)
    vi_params, _ = train_vi(CLASS_INTERACTION_VI, train, vi_cfg, dims=3, warm_start=point_params)
    p = predict_proba_vi_array(vi_params, test.student_idx, test.question_idx, test.class_of)
    return LowDataRow(fraction, sub.num_students, seed, ci_acc, accuracy(p, test.y)["accuracy"])


def low_data_sweep(fractions=(1.0, 0.5, 0.25, 0.15), seeds=(0, 1, 2, 3, 4),
                   point_epochs: int = 150, vi_epochs: int = 800, out_dir: str | None = None):
    """Point class interaction vs its VI twin across subsample fractions.

    The VI model is warm-started from the trained point model with its
    ability standard deviations initialised at 0.8, mirroring the
    low-data protocol. Rows are paired: both models see identical data
    and splits per (fraction, seed), which is one unit (see `_run_units`).
    Every fraction is checked against the population before any unit runs.
    """
    _require_nonempty(fractions=fractions, seeds=seeds)
    for fraction in fractions:
        students_kept(fraction, low_data_synth_config(0).students)
    rows: list[LowDataRow] = _run_units(
        partial(_low_data_unit, point_epochs=point_epochs, vi_epochs=vi_epochs),
        [(seed, fraction) for seed in seeds for fraction in fractions])
    _low_data_full.cache_clear()

    if out_dir:
        summary = []
        for fraction in fractions:
            sub_rows = [r for r in rows if r.fraction == fraction]
            summary.append((fraction, sub_rows[0].students,
                            float(np.mean([r.ci_accuracy for r in sub_rows])),
                            float(np.mean([r.civi_accuracy for r in sub_rows]))))
        _write_tables(out_dir, "low-data-sweep",
                      (["fraction", "students", "seed", "ci_accuracy", "civi_accuracy"],
                       [(r.fraction, r.students, r.seed, r.ci_accuracy, r.civi_accuracy) for r in rows]),
                      (["fraction", "students", "ci_accuracy", "civi_accuracy"], summary))
    return rows


def active_synth_config(seed: int) -> SynthConfig:
    """Ability-difficulty generator for the active learning comparison."""
    return SynthConfig(students=3000, questions=70, dims=0, mean_bq=0.0, std_bq=2.0, seed=seed)


@lru_cache(maxsize=1)
def _active_pool(seed: int, pool_size: int):
    """A seed's pool, made once for both policies (`run_active_loop` leaves it as is)."""
    data, _ = generate_synthetic(active_synth_config(seed + SEED_DATA))
    return make_pool_state(data, pool_size, 0.2, seed + SEED_POOL)


def _active_unit(seed: int, policy: str, pool_size: int, rounds: int) -> ActiveResult:
    """One (seed, policy) learning curve."""
    return run_active_loop(_active_pool(seed, pool_size), policy, rounds,
                           TrainConfig(learning_rate=0.1, epochs=8, convergence_tol=0.0, seed=seed + SEED_TRAIN))


def active_vs_random(pool_size: int = 2000, seeds=(0, 1, 2, 3, 4), rounds: int = 56,
                     out_dir: str | None = None):
    """Paired uncertainty-vs-random learning curves on a pool of new students.

    Both policies share the generator, pool construction, and seeds; only
    the selection rule differs. Each (seed, policy) curve is one unit (see
    `_run_units`). Returns {policy: [ActiveResult, ...]}.
    """
    _require_nonempty(seeds=seeds)
    policies = (UNCERTAINTY, RANDOM)
    curves = _run_units(
        partial(_active_unit, pool_size=pool_size, rounds=rounds),
        [(seed, policy) for seed in seeds for policy in policies])
    _active_pool.cache_clear()
    results = {policy: curves[i::len(policies)] for i, policy in enumerate(policies)}

    if out_dir:
        _write_tables(out_dir, "active-vs-random",
                      active_curve_table([res for runs in results.values() for res in runs]))
    return results


def active_curve_table(results: list) -> tuple[list[str], list]:
    """(header, rows): one questions_revealed,accuracy,policy,seed row per round of each ActiveResult."""
    return (["questions_revealed", "accuracy", "policy", "seed"],
            [(k, acc, res.policy, res.seed) for res in results
             for k, acc in zip(res.questions_revealed, res.overall_accuracy)])
