"""Recipe units on worker processes: same rows, same bytes, same errors and warnings; the table writer."""

import csv
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit import experiments
from irtkit.active import ActiveResult
from irtkit.experiments import active_vs_random, low_data_sweep, recovery_run, resolve_workers, write_csv
from irtkit.optim import TrainingDiverged
from oracles import IDS, hand_joined_csv

SMALL = {
    "recovery.csv": (recovery_run, {"students": 400, "epochs": 3, "seeds": (0, 1)}),
    "low_data.csv": (low_data_sweep, {"fractions": (1.0, 0.25), "point_epochs": 3, "vi_epochs": 3,
                                      "seeds": (0, 1)}),
    # one seed: the 2,960-student base fit dominates; unit order across seeds is pinned below
    "active_curves.csv": (active_vs_random, {"pool_size": 40, "rounds": 3, "seeds": (0,)}),
}


def _processes(monkeypatch, n):
    monkeypatch.setattr(experiments, "resolve_workers", lambda: n)  # forked workers inherit it


def _tables(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("table", list(SMALL))
def test_worker_processes_match_the_plain_loop(tmp_path, monkeypatch, table):
    recipe, kwargs = SMALL[table]
    outputs = {}
    for n in (1, 2, 3):
        _processes(monkeypatch, n)
        out = tmp_path / str(n)
        out.mkdir()
        outputs[n] = recipe(out_dir=str(out), **kwargs), _tables(out)
    plain, plain_tables = outputs[1]
    assert table in plain_tables
    for pooled, pooled_tables in (outputs[2], outputs[3]):
        assert pooled_tables == plain_tables
        if isinstance(plain, dict):
            for policy in plain:
                for a, b in zip(plain[policy], pooled[policy], strict=True):
                    assert (a.policy, a.seed, a.questions_revealed, a.overall_accuracy) == \
                        (b.policy, b.seed, b.questions_revealed, b.overall_accuracy)
                    assert np.array_equal(a.per_student_accuracy, b.per_student_accuracy)
        else:
            assert pooled == plain


def test_one_process_starts_no_pool(monkeypatch):
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)  # any import of it fails
    _processes(monkeypatch, 1)
    rows = recovery_run(students=400, epochs=1, seeds=(0,))
    assert [r.model for r in rows] == ["rasch", "interaction"]
    _processes(monkeypatch, 2)
    with pytest.raises(ImportError):
        recovery_run(students=400, epochs=1, seeds=(0,))


def test_default_processes_are_the_usable_cores():
    assert resolve_workers() == len(os.sched_getaffinity(0))


def _stub_loop(state, policy, rounds, retrain):
    warnings.warn(f"stub {policy} {retrain.seed}")
    return ActiveResult(policy, retrain.seed, [os.getpid()], [0.5],
                        np.full((1, len(state.student_ids)), 0.5))


def _stub_warnings(caught):
    return [str(w.message) for w in caught
            if w.category is UserWarning and w.filename == __file__]


def test_caller_runs_the_first_share_and_workers_the_rest(monkeypatch):
    monkeypatch.setattr(experiments, "run_active_loop", _stub_loop)
    _processes(monkeypatch, 2)
    with pytest.warns(UserWarning):
        results = active_vs_random(pool_size=40, seeds=(0, 1, 2), rounds=3)
    pids = [r.questions_revealed[0] for seed in range(3) for r in
            (results["uncertainty"][seed], results["random"][seed])]
    assert pids[:3] == [os.getpid()] * 3
    assert os.getpid() not in pids[3:]


def test_unit_warnings_reach_the_caller_in_unit_order(monkeypatch):
    monkeypatch.setattr(experiments, "run_active_loop", _stub_loop)
    _processes(monkeypatch, 2)
    with pytest.warns(UserWarning) as caught:
        results = active_vs_random(pool_size=40, seeds=(0, 1), rounds=3)
    assert _stub_warnings(caught) == [
        "stub uncertainty 3000", "stub random 3000", "stub uncertainty 3001", "stub random 3001"]
    assert [r.seed for r in results["random"]] == [3000, 3001]


@pytest.mark.parametrize("n", [1, 2])
def test_module_filters_act_on_worker_warnings(monkeypatch, n):
    monkeypatch.setattr(experiments, "run_active_loop", _stub_loop)
    _processes(monkeypatch, n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message="stub uncertainty", module=re.escape(__name__))
        active_vs_random(pool_size=40, seeds=(0, 1), rounds=3)
    assert _stub_warnings(caught) == ["stub random 3000", "stub random 3001"]
    assert {w.lineno for w in caught if w.filename == __file__} == \
        {_stub_loop.__code__.co_firstlineno + 1}


@pytest.mark.parametrize("first", [1, 2], ids=["caller", "worker"])
def test_first_failing_unit_reraises_in_the_caller(monkeypatch, first):
    units = ["uncertainty 3000", "random 3000", "uncertainty 3001", "random 3001"]

    def diverge(state, policy, rounds, retrain):  # every unit from `first` on fails
        if units.index(f"{policy} {retrain.seed}") >= first:
            raise TrainingDiverged(f"non-finite objective for {policy} {retrain.seed}")
        return _stub_loop(state, policy, rounds, retrain)
    monkeypatch.setattr(experiments, "run_active_loop", diverge)
    _processes(monkeypatch, 2)  # units 0-1 in the caller, 2-3 in the worker
    with pytest.raises(TrainingDiverged, match=f"^non-finite objective for {units[first]}$"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            active_vs_random(pool_size=40, seeds=(0, 1), rounds=3)


def _no_unit(*args, **kwargs):
    raise AssertionError("a unit ran")


def test_every_fraction_is_checked_before_any_unit(monkeypatch):
    monkeypatch.setattr(experiments, "_low_data_unit", _no_unit)
    with pytest.raises(ValueError, match=r"^fraction 0\.0002 of 4000 students keeps no student$"):
        low_data_sweep(fractions=(0.15, 0.0002), seeds=(0,))


@pytest.mark.parametrize("recipe,unit,kwargs", [
    (recovery_run, "_recovery_unit", {"students": 200, "seeds": (0, 0)}),
    (low_data_sweep, "_low_data_unit", {"fractions": (0.5, 0.25), "seeds": (0, 1, 0)}),
    (low_data_sweep, "_low_data_unit", {"fractions": (0.5, 0.25, 0.5), "seeds": (0,)}),
    (active_vs_random, "_active_unit", {"seeds": (1, 1)}),
], ids=["recovery seeds", "low-data seeds", "low-data fractions", "active seeds"])
def test_repeated_seed_or_fraction_is_refused_before_any_unit(monkeypatch, tmp_path, recipe, unit, kwargs):
    monkeypatch.setattr(experiments, unit, _no_unit)
    with pytest.raises(ValueError, match=r"^unit \(.+\) repeats: a recipe's seeds and fractions must be distinct$"):
        recipe(out_dir=str(tmp_path), **kwargs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("recipe,unit,kwargs,name", [
    (recovery_run, "_recovery_unit", {"students": 100, "seeds": ()}, "seeds"),
    (low_data_sweep, "_low_data_unit", {"seeds": ()}, "seeds"),
    (low_data_sweep, "_low_data_unit", {"fractions": ()}, "fractions"),
    (active_vs_random, "_active_unit", {"seeds": ()}, "seeds"),
], ids=["recovery seeds", "low-data seeds", "low-data fractions", "active seeds"])
def test_empty_seed_or_fraction_list_is_a_named_error_before_any_unit(monkeypatch, tmp_path, recipe, unit, kwargs,
                                                                     name):
    monkeypatch.setattr(experiments, unit, _no_unit)
    with pytest.raises(ValueError, match=rf"^{name} must not be empty$"):
        recipe(out_dir=str(tmp_path), **kwargs)
    assert list(tmp_path.iterdir()) == []


# Text no field of a table needs quoted: no delimiter, quote or line break.
_PLAIN = st.text(st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters=',"'), min_size=1, max_size=8)


def _tables_of(text):
    """A header of text fields, then rows of text, int and float fields."""
    fields = st.lists(st.one_of(text, st.integers(), st.floats()), min_size=1, max_size=4)
    return st.tuples(st.lists(text, min_size=1, max_size=4), st.lists(fields, max_size=4))


@settings(max_examples=200, deadline=None)
@given(plain=_tables_of(_PLAIN), table=_tables_of(IDS))
def test_write_csv_joins_plain_fields_and_reads_back_any(tmp_path_factory, plain, table):
    directory = tmp_path_factory.mktemp("tables")
    write_csv(str(directory / "got.csv"), *plain)
    hand_joined_csv(str(directory / "want.csv"), *plain)
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()

    header, rows = table
    write_csv(str(directory / "any.csv"), header, rows)
    with open(directory / "any.csv", newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert [len(line) for line in lines] == [len(row) for row in [header, *rows]]
    for line, row in zip(lines, [header, *rows]):
        assert [repr(float(f)) if isinstance(v, float) else f for f, v in zip(line, row)] == \
            [repr(v) if isinstance(v, float) else str(v) for v in row]
