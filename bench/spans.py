"""Outside-in tracing of irtkit's public functions, and the per-layer metrics.

`tracing(tracer)` swaps each function in `TARGETS` for a timing wrapper
in every irtkit module that holds it (names imported with
`from .x import f` live in several modules), and restores the originals
on exit. Nothing under `src/` changes. Spans stay in memory; the caller
writes them out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count:
                span.counts = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


# --- counts taken from arguments, return values and files -------------------

def _sgd_counts(a, result):
    _, report = result
    # nll_trace holds one NLL per epoch run; final_nll is the best one seen,
    # or the initial NLL when no epoch improved on it (best epoch 0).
    best = report.nll_trace.index(report.final_nll) + 1 if report.final_nll in report.nll_trace else 0
    return {"epochs": report.epochs_run, "best_epoch": best,
            "resp_epochs": a["data"].n_responses * report.epochs_run}


def _vi_counts(a, result):
    _, report = result
    return {"epochs": report.epochs_run,
            "resp_samples": a["data"].n_responses * report.epochs_run * a["cfg"].samples}


def _size_of(key):
    return lambda a, result: {"bytes": os.path.getsize(a[key])}


TARGETS = {
    "experiments.recovery_run": None,
    "experiments.low_data_sweep": None,
    "experiments.active_vs_random": None,
    "cli.dispatch": None,
    "optim.sgd_train": _sgd_counts,
    "optim.nll": None,
    "vi.train_vi": _vi_counts,
    "vi.predict_proba_vi_array": None,
    "active.make_pool_state": None,
    "active.run_active_loop": lambda a, r: {"rounds": len(r.questions_revealed) - 1},
    "data.load_raw_csv": lambda a, r: {"rows": len(r)},
    "data.load_binary_csv": lambda a, r: {"rows": len(r)},
    "data.build_dataset": None,
    "data.write_binary_csv": lambda a, r: {"rows": a["d"].n_responses},
    "data.split_train_test": None,
    "data.subsample_students": None,
    "checkpoint.save_checkpoint": _size_of("path"),
    "checkpoint.load_checkpoint": _size_of("path"),
    "checkpoint.align_rows_to_checkpoint": None,
    "synth.generate_synthetic": None,
    "models.predict_proba_array": lambda a, r: {"rows": len(a["s_idx"])},
    "metrics.accuracy": None,
    "manifest.file_digest": _size_of("path"),
}
# The CLI dispatches through a table, so its handlers are wrapped there.
CLI_HANDLERS = {"ingest": "cli.ingest", "train": "cli.train", "eval": "cli.eval"}


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    for mod in {name.split(".")[0] for name in TARGETS}:
        importlib.import_module("irtkit." + mod)
    modules = [m for n, m in sys.modules.items() if n == "irtkit" or n.startswith("irtkit.")]
    undo = []
    for qual, count in TARGETS.items():
        mod, attr = qual.split(".")
        original = getattr(sys.modules["irtkit." + mod], attr)
        wrapper = tracer.wrap(qual, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))
    handlers = sys.modules["irtkit.cli"]._HANDLERS
    saved = dict(handlers)
    for cmd, name in CLI_HANDLERS.items():
        handlers[cmd] = tracer.wrap(name, handlers[cmd])
    try:
        yield tracer
    finally:
        handlers.update(saved)
        for m, key, original in undo:
            setattr(m, key, original)


# --- derived metrics ---------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Every per-layer metric of `spec.PER_LAYER`; 0 for layers a run never enters."""
    selfs = self_times(spans)
    dur, calls, self_by_layer, count = (defaultdict(float), defaultdict(int),
                                        defaultdict(float), defaultdict(float))
    for s, own in zip(spans, selfs):
        dur[s.name] += s.duration
        calls[s.name] += 1
        self_by_layer[s.name.split(".")[0]] += own
        for key, value in s.counts.items():
            count[s.name + ":" + key] += value

    by_id = {s.id: s for s in spans}
    loop_self = sum(own for s, own in zip(spans, selfs) if s.name == "active.run_active_loop")
    retrains = [s for s in spans if s.name == "optim.sgd_train" and s.parent is not None
                and by_id[s.parent].name == "active.run_active_loop"]
    rows_read = count["data.load_raw_csv:rows"] + count["data.load_binary_csv:rows"]
    rows_written = count["data.write_binary_csv:rows"]
    m = {name + ".s": dur[name] for name in TARGETS if not name.startswith(("experiments.", "cli."))}
    m.update({
        "optim.sgd_train.calls": calls["optim.sgd_train"],
        "optim.epochs": count["optim.sgd_train:epochs"],
        "optim.epoch_s": _ratio(dur["optim.sgd_train"], count["optim.sgd_train:epochs"]),
        "optim.resp_epochs_per_s": _ratio(count["optim.sgd_train:resp_epochs"], dur["optim.sgd_train"]),
        "optim.useful_epoch_ratio": _ratio(count["optim.sgd_train:best_epoch"],
                                           count["optim.sgd_train:epochs"]),
        "optim.diverged": sum(1 for s in spans
                              if s.name == "optim.sgd_train" and s.error == "TrainingDiverged"),
        "vi.epochs": count["vi.train_vi:epochs"],
        "vi.epoch_s": _ratio(dur["vi.train_vi"], count["vi.train_vi:epochs"]),
        "vi.resp_samples_per_s": _ratio(count["vi.train_vi:resp_samples"], dur["vi.train_vi"]),
        "active.self_s": self_by_layer["active"],
        "active.rounds": count["active.run_active_loop:rounds"],
        "active.round_self_s": _ratio(loop_self, count["active.run_active_loop:rounds"]),
        "active.retrain_calls": len(retrains),
        "active.retrain_share": _ratio(sum(s.duration for s in retrains),
                                       dur["active.run_active_loop"]),
        "data.rows_read": rows_read,
        "data.rows_written": rows_written,
        "data.read_rows_per_s": _ratio(rows_read, dur["data.load_raw_csv"] + dur["data.load_binary_csv"]),
        "data.write_rows_per_s": _ratio(rows_written, dur["data.write_binary_csv"]),
        "checkpoint.bytes": (count["checkpoint.save_checkpoint:bytes"]
                             + count["checkpoint.load_checkpoint:bytes"]),
        "models.rows_predicted": count["models.predict_proba_array:rows"],
        "manifest.bytes_hashed": count["manifest.file_digest:bytes"],
        "cli.ingest.s": dur["cli.ingest"],
        "cli.train.s": dur["cli.train"],
        "cli.eval.s": dur["cli.eval"],
        "cli.self_s": self_by_layer["cli"],
        "experiments.self_s": self_by_layer["experiments"],
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
        "trace.self_coverage": _ratio(sum(selfs), wall_s),
    })
    return m
