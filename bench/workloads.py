"""The four workload runners and the raw-marks input generator.

Each runner takes the workload seed, a scratch directory and a size
(`FULL` for the benchmark, `SMALL` for the self-tests), times the irtkit
calls from the first call to the last return, then checks the outputs.
Recipes receive the seed as `seeds=(seed,)`; the CLI workload derives
its flags from it. Runners reach irtkit through module attributes at
call time, so a tracer installed beforehand sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

RAW_HEADER = "student_id,question_id,class_id,marks_awarded,marks_available\n"

FULL = {
    "recovery-10k": {"students": 10_000},
    "low-data-vi": {},
    "active-pool": {"rounds": 14},
    "ingest-eval": {"students": 10_000},
}
SMALL = {
    "recovery-10k": {"students": 400, "epochs": 3},
    "low-data-vi": {"point_epochs": 3, "vi_epochs": 3},
    "active-pool": {"pool_size": 40, "rounds": 3},
    "ingest-eval": {"students": 300},
}


@dataclass
class Outcome:
    wall_s: float
    accuracy: float
    tables: dict = field(default_factory=dict)    # output name -> path, for rerun checks
    problems: list = field(default_factory=list)  # failed output checks


# --- ingest-eval input ---------------------------------------------------------

@dataclass
class RawStats:
    students: int
    questions: int
    classes: int
    responses: int
    positives: int   # rows with 2 * awarded > available


# The question paper is fixed across workload seeds, as in the recovery
# recipe, so held-out accuracy varies with the students drawn, not the exam.
EXAM_SEED = 60
QUESTIONS = 24
KEEP = 0.9           # share of student x question cells present
NUM_CLASSES = 200
BLANK_CLASS = 0.05   # share of students with a blank class_id


def generate_raw_marks(path: str, seed: int, students: int) -> RawStats:
    """Write a seeded raw-marks CSV: partial credit out of 1..5 marks per question.

    Marks follow a 1-D interaction model, awarded ~ Binomial(available, p).
    About `KEEP` of the cells are present, rows come in shuffled order,
    and a share of students has a blank class_id (ingested as __none__).
    """
    exam = np.random.default_rng(EXAM_SEED)
    easiness = exam.normal(0.0, 1.0, QUESTIONS)
    demand = exam.normal(0.0, 1.0, QUESTIONS)
    available = exam.integers(1, 6, QUESTIONS)
    rng = np.random.default_rng(seed)
    ability = rng.normal(0.0, 1.0, students)
    skill = rng.normal(0.0, 1.0, students)
    klass = rng.integers(0, NUM_CLASSES, students)
    blank = rng.random(students) < BLANK_CLASS

    s_idx = np.repeat(np.arange(students), QUESTIONS)
    q_idx = np.tile(np.arange(QUESTIONS), students)
    kept = rng.random(s_idx.size) < KEEP
    s_idx, q_idx = s_idx[kept], q_idx[kept]
    order = rng.permutation(s_idx.size)
    s_idx, q_idx = s_idx[order], q_idx[order]
    p = 1.0 / (1.0 + np.exp(-(ability[s_idx] + easiness[q_idx] + skill[s_idx] * demand[q_idx])))
    marks = available[q_idx]
    awarded = rng.binomial(marks, p)

    # Lines are assembled from per-student, per-question and per-mark pieces.
    cid = ["" if b else f"class{k:03d}" for k, b in zip(klass.tolist(), blank.tolist())]
    head = np.array([f"stu{i:06d}," for i in range(students)])
    question = np.array([f"Q{j:02d}" for j in range(QUESTIONS)])
    mid = np.array([f",{c}," for c in cid])
    tail = np.array([f"{a},{m}\n" for a in range(6) for m in range(6)])
    lines = np.strings.add(np.strings.add(head[s_idx], question[q_idx]),
                           np.strings.add(mid[s_idx], tail[awarded * 6 + marks]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RAW_HEADER)
        fh.write("".join(lines.tolist()))
    present = np.flatnonzero(np.bincount(s_idx, minlength=students))
    return RawStats(students=int(present.size),
                    questions=int(np.count_nonzero(np.bincount(q_idx, minlength=QUESTIONS))),
                    classes=len({cid[s] for s in present.tolist()}),
                    responses=int(s_idx.size), positives=int(np.sum(2 * awarded > marks)))


def ingest_input(work: str) -> str:
    return os.path.join(work, "marks.csv")


def ingest_stats(work: str) -> str:
    return os.path.join(work, "marks.stats.json")


def prepare(name: str, seed: int, work: str, size: dict) -> None:
    """Generate the inputs that are not part of the program (set-up)."""
    if name == "ingest-eval":
        stats = generate_raw_marks(ingest_input(work), seed, students=size["students"])
        with open(ingest_stats(work), "w", encoding="utf-8") as fh:
            json.dump(stats.__dict__, fh)


# --- runners ---------------------------------------------------------------------

def _recovery(seed: int, work: str, size: dict) -> Outcome:
    from irtkit import experiments
    t0 = time.perf_counter()
    rows = experiments.recovery_run(seeds=(seed,), out_dir=work, **size)
    wall = time.perf_counter() - t0
    out = Outcome(wall, next((r.accuracy for r in rows if r.model == "interaction"), float("nan")),
                  {"recovery.csv": os.path.join(work, "recovery.csv")})
    if sorted(r.model for r in rows) != ["interaction", "rasch"]:
        out.problems.append(f"recovery rows {[r.model for r in rows]}, expected rasch and interaction")
    return out


def _low_data(seed: int, work: str, size: dict) -> Outcome:
    from irtkit import experiments
    t0 = time.perf_counter()
    rows = experiments.low_data_sweep(fractions=(0.15,), seeds=(seed,), out_dir=work, **size)
    wall = time.perf_counter() - t0
    out = Outcome(wall, rows[0].civi_accuracy if rows else float("nan"),
                  {"low_data.csv": os.path.join(work, "low_data.csv")})
    if len(rows) != 1 or rows[0].students != 600:
        out.problems.append(f"low-data rows {rows}, expected one row of 600 students")
    return out


def _active(seed: int, work: str, size: dict) -> Outcome:
    from irtkit import experiments
    t0 = time.perf_counter()
    results = experiments.active_vs_random(seeds=(seed,), out_dir=work, **size)
    wall = time.perf_counter() - t0
    curves = results.get("uncertainty", [])
    out = Outcome(wall, curves[0].overall_accuracy[-1] if curves else float("nan"),
                  {"active_curves.csv": os.path.join(work, "active_curves.csv")})
    rounds = size["rounds"]
    for policy, runs in results.items():
        if len(runs) != 1 or len(runs[0].overall_accuracy) != rounds + 1:
            out.problems.append(f"{policy} curve does not have {rounds} rounds")
    return out


def _ingest_eval(seed: int, work: str, size: dict) -> Outcome:
    from irtkit import cli
    p = {k: os.path.join(work, k) for k in
         ("all.csv", "train.csv", "test.csv", "model.json", "eval.json")}
    steps = [
        ["ingest", "--input", ingest_input(work), "--format", "raw", "--out", p["all.csv"],
         "--test-fraction", "0.2", "--train-out", p["train.csv"], "--test-out", p["test.csv"],
         "--seed", str(seed)],
        ["train", "--data", p["train.csv"], "--model", "interaction", "--dims", "1",
         "--epochs", "1", "--seed", str(seed), "--out", p["model.json"]],
        ["eval", "--checkpoint", p["model.json"], "--data", p["test.csv"], "--out", p["eval.json"]],
    ]
    printed, codes = [], []
    t0 = time.perf_counter()
    for argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.dispatch(argv))
        printed.append(buf.getvalue())
    wall = time.perf_counter() - t0

    out = Outcome(wall, float("nan"))
    for argv, code in zip(steps, codes):
        if code != 0:
            out.problems.append(f"irtkit {argv[0]} exited with {code}")
    if out.problems:
        return out
    with open(ingest_stats(work), encoding="utf-8") as fh:
        expected = json.load(fh)
    record = json.loads(printed[0].strip().splitlines()[-1])
    for key in ("students", "questions", "classes", "responses"):
        if record.get(key) != expected[key]:
            out.problems.append(f"ingest printed {key}={record.get(key)}, generator made {expected[key]}")
    with open(p["all.csv"], encoding="utf-8") as fh:
        next(fh)
        positives = sum(1 for line in fh if line.rstrip("\n").endswith(",1"))
    if positives != expected["positives"]:
        out.problems.append(f"all.csv has {positives} y=1 rows, generator made {expected['positives']}")
    with open(p["eval.json"], encoding="utf-8") as fh:
        out.accuracy = json.load(fh)["accuracy"]
    out.tables = {k: v for k, v in p.items() if k != "eval.json"}
    return out


RUNNERS = {
    "recovery-10k": _recovery,
    "low-data-vi": _low_data,
    "active-pool": _active,
    "ingest-eval": _ingest_eval,
}


def run(name: str, seed: int, work: str, size: dict) -> Outcome:
    outcome = RUNNERS[name](seed, work, size)
    if not 0.5 < outcome.accuracy <= 1.0:
        outcome.problems.append(f"accuracy {outcome.accuracy} is not above chance")
    return outcome
