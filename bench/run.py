"""irtkit benchmark: one workload per call, or all four with `--all`.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seed <n>]

A run first sets up `SETUPS` times, each in a fresh process (import
irtkit, generate inputs), and reports the median as `setup_s`. It then
runs whole workload iterations, each in a fresh process, while the next
one still fits in `--seconds` (at least one), and reports medians. With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics from the tracer; the last stdout line is one JSON
object. The workload's inputs are made from `--seed % spec.REFERENCE_SEEDS`.
Every iteration's outputs are checked: the runner's checks, accuracy
against the reference recorded for those inputs, and byte-identical
output tables across reruns of the same inputs on the same code. Each
failed check is also printed to stderr. Raw samples and the machine
description go to `.bench_out/`.

`--all` runs every workload untraced and traced, prints every metric
with its unit, the tracing overhead and the failure ratio, and rewrites
`BENCHMARK.json` from `bench/spec.py`. `--record-references <workload>`
runs each reference seed once and writes its accuracy to
`references.json`; do that only when a change is meant to move accuracy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "irtkit")
WORK = os.path.join(ROOT, ".bench_work")
CACHE = os.path.join(ROOT, ".bench_cache")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")

SETUPS = 5  # set-up is mostly loading numpy and OpenBLAS; one sample swings by a third
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {name: unit for name, unit, _, _ in spec.END_TO_END}
UNITS.update({row[0]: row[1] for row in spec.PER_LAYER})
SHOWS_ON = {row[0]: row[3] for row in spec.PER_LAYER}


class WorkerFailed(RuntimeError):
    pass


def source_digest() -> str:
    """Digest of the program and the benchmark code that makes its inputs."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(base, f)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def machine(env: dict) -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": {v: env[v] for v in BLAS_VARS},
            "git_commit": git_commit(), "code_sha256": source_digest(),
            "platform": platform.platform()}


def worker_env() -> dict:
    """BLAS threads capped at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            env[var] = str(nproc)
    return env


def call_worker(args: list, env: dict, deadline: float) -> dict:
    result_path = os.path.join(WORK, f"result-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args), result_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{args[0]} step timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{args[0]} step exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_json(path: str, doc: dict) -> None:
    """Write whole or not at all, so a concurrent reader never sees half a file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def check_iteration(sample: dict, name: str, inputs: int, tables_path: str) -> list:
    """Problems with one iteration's outputs; records first-seen table digests."""
    problems = list(sample["problems"])
    accuracy, tol = sample["accuracy"], spec.REFERENCE_TOLERANCE
    reference = _load_json(REFERENCES).get(name, {}).get(str(inputs))
    if reference is None:
        problems.append(f"no reference accuracy recorded for inputs of seed {inputs}")
    elif abs(accuracy - reference) > tol * reference:
        problems.append(f"accuracy {accuracy!r} differs from the reference {reference!r} "
                        f"for inputs of seed {inputs} by more than {tol:.0%}")
    known = _load_json(tables_path)
    if not known:
        _write_json(tables_path, sample["tables"])
    for table, digest in sample["tables"].items():
        if known.get(table, digest) != digest:
            problems.append(f"{table} differs from an earlier run on the same inputs and code")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the run record."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    inputs = seed % spec.REFERENCE_SEEDS
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    tables_path = os.path.join(CACHE, source_digest()[:16], f"{name}-{inputs}.json")
    setups, samples, errors = [], [], []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            setups.append(call_worker(["setup", name, inputs, work], env, deadline)["setup_s"])
        t0 = time.monotonic()
        while True:
            i0 = time.monotonic()
            try:
                sample = call_worker(["run", name, inputs, work, int(trace)], env, deadline)
            except WorkerFailed as exc:
                errors.append(str(exc))
                break
            sample["check"] = check_iteration(sample, name, inputs, tables_path)
            if trace and abs(1.0 - sample["layers"]["trace.self_coverage"]) > spec.BOUND["wall_s"]:
                sample["check"].append("span self-times do not add up to the traced wall time")
            samples.append(sample)
            now = time.monotonic()
            if now - t0 + (now - i0) > seconds or now + (now - i0) > deadline:
                break
    except WorkerFailed as exc:
        errors.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["check"]) + len(errors)
    attempted = max(1, len(samples) + len(errors))
    metrics = {}
    if samples and setups:
        if trace:
            values = {m: statistics.median(s["layers"][m] for s in samples) for m in spec.PER_LAYER_NAMES}
        else:
            values = {m: statistics.median(s[m] for s in samples)
                      for m in ("wall_s", "peak_rss_mb", "accuracy")}
            values["setup_s"] = statistics.median(setups)
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in values.items()}
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {"workload": name, "seed": seed, "inputs_seed": inputs, "seconds": seconds, "trace": trace,
              "machine": machine(env), "setup_s_samples": setups, "samples": samples,
              "errors": errors, "result": line, "elapsed_s": time.monotonic() - started}
    return line, record


def write_record(record: dict, stem: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def failures(record: dict) -> list:
    return ([f"CHECK FAILED: {p}" for s in record["samples"] for p in s["check"]]
            + [f"FAILED: {e}" for e in record["errors"]])


def record_references(name: str) -> int:
    """Run each reference seed once, untraced, and store its accuracy."""
    env, refs = worker_env(), {}
    for inputs in range(spec.REFERENCE_SEEDS):
        work = os.path.join(WORK, f"{name}-ref{inputs}-{os.getpid()}")
        os.makedirs(work)
        try:
            deadline = time.monotonic() + RUN_LIMIT_S
            call_worker(["setup", name, inputs, work], env, deadline)
            sample = call_worker(["run", name, inputs, work, 0], env, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if sample["problems"]:
            print(f"bench: seed {inputs}: {sample['problems']}", file=sys.stderr)
            return 1
        refs[str(inputs)] = sample["accuracy"]
        print(f"{name} seed {inputs}: accuracy {sample['accuracy']!r}")
    old = _load_json(REFERENCES)
    _write_json(REFERENCES, {w: refs if w == name else old[w]
                             for w in spec.WORKLOAD_NAMES if w == name or w in old})
    return 0


def run_all(seed: int, seconds: float) -> int:
    summary, ok = {}, True
    for name in spec.WORKLOAD_NAMES:
        plain, plain_rec = measure(name, seed, seconds, trace=False)
        traced, traced_rec = measure(name, seed, seconds, trace=True)
        summary[name] = {"untraced": plain_rec, "traced": traced_rec}
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name} (seed {seed})")
        for m, v in plain["metrics"].items():
            print(f"  {m:<40} {v['value']:>16.6g} {v['unit']}")
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"  {'fail_ratio':<40} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
        for m, v in traced["metrics"].items():
            if v["value"] or name in SHOWS_ON[m]:
                print(f"  {m:<40} {v['value']:>16.6g} {v['unit']}")
        if plain["metrics"] and traced["metrics"]:
            overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
            print(f"  {'tracing overhead (traced - untraced)':<40} {overhead:>16.6g} s")
        for rec in (plain_rec, traced_rec):
            for problem in failures(rec):
                print(f"  {problem}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(spec.render())
    print(f"record: {write_record(summary, 'all')}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", choices=spec.WORKLOAD_NAMES, metavar="WORKLOAD",
                        help="re-record the reference accuracies of one workload")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"bench: no irtkit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references(args.record_references)
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("give --workload or --all")
    line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record, f"{args.workload}-s{args.seed}-t{args.trace}")
    for problem in failures(record):
        print(f"bench: {problem} (record: {path})", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
