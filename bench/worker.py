"""One workload step in a fresh process; `run.py` starts it, one at a time.

    worker.py setup <workload> <seed> <work-dir> <result.json>
    worker.py run   <workload> <seed> <work-dir> <trace 0|1> <result.json>

`setup` times importing irtkit plus generating the inputs that are not
part of the program, then flushes the inputs to disk untimed. `run` imports irtkit untimed, optionally installs
the tracer, runs the workload once and records wall time, peak
resident memory, accuracy, output checks and digests of the output
tables. irtkit is always imported from the checkout's own `src/`.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_irtkit():
    sys.path.insert(0, SRC)
    import irtkit
    import irtkit.cli  # noqa: F401 - set-up times the full import, CLI included
    import irtkit.experiments  # noqa: F401
    if not os.path.abspath(irtkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"irtkit was imported from {irtkit.__file__}, not from {SRC}")


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv) -> None:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), argv[3]
    import_irtkit()
    import workloads
    size = workloads.FULL[name]
    if mode == "setup":
        workloads.prepare(name, seed, work, size)
        result = {"setup_s": time.perf_counter() - T0}
        # Flush the inputs to disk untimed, so their write-back does not
        # run during the timed iteration that reads them.
        for f in os.listdir(work):
            fd = os.open(os.path.join(work, f), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    else:
        traced = argv[4] == "1"
        if traced:
            import spans
            tracer = spans.Tracer()
            with spans.tracing(tracer):
                outcome = workloads.run(name, seed, work, size)
        else:
            outcome = workloads.run(name, seed, work, size)
        result = {
            "wall_s": outcome.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": outcome.accuracy,
            "problems": outcome.problems,
            "tables": {k: digest(v) for k, v in outcome.tables.items()},
        }
        if traced:
            result["layers"] = spans.layer_metrics(tracer.spans, outcome.wall_s)
            result["spans"] = [s.__dict__ for s in tracer.spans]
    with open(argv[-1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
