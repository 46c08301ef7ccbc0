"""Self-tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q bench/selftest.py
"""

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    stats = [workloads.generate_raw_marks(str(p), seed, students=200)
             for p, seed in zip(paths, (7, 7, 8))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert stats[0] == stats[1]
    lines = paths[0].read_text().splitlines()
    assert lines[0] + "\n" == workloads.RAW_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == stats[0].responses
    assert stats[0].positives == sum(2 * int(r[3]) > int(r[4]) for r in rows)
    assert any(r[2] == "" for r in rows), "some students must have a blank class_id"
    assert {int(r[4]) for r in rows} <= {1, 2, 3, 4, 5}


def _span(i, name, parent, start, end):
    return spans.Span(i, name, parent, start, end)


def test_self_time_arithmetic_on_a_hand_built_tree():
    tree = [
        _span(0, "experiments.recovery_run", None, 0.0, 10.0),
        _span(1, "optim.sgd_train", 0, 1.0, 6.0),
        _span(2, "optim.nll", 1, 2.0, 3.0),
        _span(3, "optim.nll", 1, 4.0, 4.5),
        _span(4, "metrics.accuracy", 0, 7.0, 7.5),
        _span(5, "cli.dispatch", None, 11.0, 12.0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 3.5, 1.0, 0.5, 0.5, 1.0])
    m = spans.layer_metrics(tree, wall_s=12.0)
    assert m["optim.sgd_train.s"] == pytest.approx(5.0)
    assert m["optim.nll.s"] == pytest.approx(1.5)
    assert m["experiments.self_s"] == pytest.approx(4.5)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["trace.self_coverage"] == pytest.approx(11.0 / 12.0)
    assert m["trace.spans"] == 6


def test_overlapping_children_are_counted_once():
    tree = [_span(0, "a.x", None, 0.0, 10.0), _span(1, "b.y", 0, 1.0, 5.0),
            _span(2, "b.z", 0, 4.0, 6.0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_metric_names_and_benchmark_json():
    names = ([n for n, _, _, _ in spec.END_TO_END] + spec.PER_LAYER_NAMES
             + spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    for _, unit, better, *_ in spec.END_TO_END + spec.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("higher", "lower")
    assert set(spans.layer_metrics([], 1.0)) == set(spec.PER_LAYER_NAMES)
    for *_, workloads_shown in spec.PER_LAYER:
        assert set(workloads_shown) <= set(spec.WORKLOAD_NAMES)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.render()
    doc = spec.benchmark_json()
    assert max(m["bound"] for m in doc["end_to_end"]) == spec.BOUND["setup_s"] <= 0.25


def test_every_workload_has_a_reference_for_every_input_seed():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    assert list(references) == spec.WORKLOAD_NAMES
    for name in spec.WORKLOAD_NAMES:
        assert set(references[name]) == {str(i) for i in range(spec.REFERENCE_SEEDS)}
        assert all(0.5 < a <= 1.0 for a in references[name].values())


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_small_workload_smoke_run(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    work = str(tmp_path)
    size = workloads.SMALL[name]
    workloads.prepare(name, 3, work, size)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        traced = workloads.run(name, 3, work, size)
    traced_tables = {k: Path(v).read_bytes() for k, v in traced.tables.items()}
    plain = workloads.run(name, 3, work, size)
    assert traced.problems == [] and plain.problems == []
    assert traced.accuracy == plain.accuracy
    assert traced_tables and traced_tables == {k: Path(v).read_bytes() for k, v in plain.tables.items()}
    m = spans.layer_metrics(tracer.spans, traced.wall_s)
    assert m["trace.self_coverage"] == pytest.approx(1.0, abs=spec.BOUND["wall_s"])
    shown = [row[0] for row in spec.PER_LAYER if name in row[3] and row[0] != "optim.diverged"]
    assert [metric for metric in shown if not m[metric]] == []
    json.dumps([s.__dict__ for s in tracer.spans])
