"""Ingestion of marked exam responses into indexed binary datasets.

Raw rows carry partial-credit scores (marks awarded out of marks
available). A response counts as correct only when the student earned
strictly more than half the available marks; everything downstream works
on the resulting 0/1 outcomes stored in a sparse triplet layout
(student index, question index, outcome).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

RAW_HEADER = ["student_id", "question_id", "class_id", "marks_awarded", "marks_available"]
BINARY_HEADER = ["student_id", "question_id", "class_id", "y"]

# Class label assigned to raw rows with an empty class_id field.
NO_CLASS = "__none__"
_WRITE_BLOCK = 8192  # rows write_binary_csv converts at a time


class ParseError(ValueError):
    """Raised when an input file violates the expected schema."""


class RawResponse(NamedTuple):
    student_id: str
    question_id: str
    class_id: str
    marks_awarded: int
    marks_available: int


def binarize(r: RawResponse) -> int:
    """Return 1 iff strictly more than half the available marks were earned."""
    return 1 if 2 * r.marks_awarded > r.marks_available else 0


@dataclass(frozen=True)
class Dataset:
    """Immutable triplet store of binary responses with id interning.

    Indices are dense, assigned in first-appearance order of the opaque
    ids. Not every (student, question) cell is observed; class_of maps
    every student index to a class index.
    """

    student_idx: np.ndarray
    question_idx: np.ndarray
    y: np.ndarray
    num_students: int
    num_questions: int
    num_classes: int
    class_of: np.ndarray
    student_ids: tuple
    question_ids: tuple
    class_ids: tuple

    def __post_init__(self):
        for arr in (self.student_idx, self.question_idx, self.y, self.class_of):
            arr.setflags(write=False)

    @property
    def n_responses(self) -> int:
        return int(self.student_idx.shape[0])

    def select(self, positions: np.ndarray) -> "Dataset":
        """Subset view over response positions; counts and id tables are shared."""
        return Dataset(
            student_idx=self.student_idx[positions].copy(),
            question_idx=self.question_idx[positions].copy(),
            y=self.y[positions].copy(),
            num_students=self.num_students,
            num_questions=self.num_questions,
            num_classes=self.num_classes,
            class_of=self.class_of,
            student_ids=self.student_ids,
            question_ids=self.question_ids,
            class_ids=self.class_ids,
        )


@dataclass(frozen=True)
class Split:
    train: Dataset
    test: Dataset


def _read_rows(path: str, header: list[str]) -> Iterable[tuple[int, list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected header {','.join(header)}")
        if [c.strip() for c in got] != header:
            raise ParseError(f"{path}: bad header {got!r}, expected {','.join(header)}")
        # File line numbers count the header as line 1.
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields at line {lineno}, got {len(row)}")
            yield lineno, row


def _parse_int(text: str, field: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-integer {field} {text!r} at line {lineno}") from None


def load_raw_csv(path: str) -> list[RawResponse]:
    """Load raw marked responses (marks awarded / available per question)."""
    rows = []
    for lineno, row in _read_rows(path, RAW_HEADER):
        sid, qid, cid, awarded_s, available_s = (c.strip() for c in row)
        awarded = _parse_int(awarded_s, "marks_awarded", lineno)
        available = _parse_int(available_s, "marks_available", lineno)
        if available < 1:
            raise ParseError(f"marks_available must be >= 1 at line {lineno}")
        if awarded < 0:
            raise ParseError(f"marks_awarded must be >= 0 at line {lineno}")
        if awarded > available:
            raise ParseError(f"marks_awarded exceeds marks_available at line {lineno}")
        rows.append(RawResponse(sid, qid, cid or NO_CLASS, awarded, available))
    return rows


def load_binary_csv(path: str) -> list[RawResponse]:
    """Load pre-binarized responses; y is encoded as marks (y out of 1)."""
    rows = []
    for lineno, row in _read_rows(path, BINARY_HEADER):
        sid, qid, cid, y_s = (c.strip() for c in row)
        y = _parse_int(y_s, "y", lineno)
        if y not in (0, 1):
            raise ParseError(f"y must be 0 or 1 at line {lineno}")
        rows.append(RawResponse(sid, qid, cid or NO_CLASS, y, 1))
    return rows


def build_dataset(rows: Sequence[RawResponse]) -> Dataset:
    """Intern ids in first-appearance order and binarize into a Dataset.

    Raises ValueError on duplicate (student, question) cells or on a
    student appearing under two different class ids.
    """
    students: dict[str, int] = {}
    questions: dict[str, int] = {}
    classes: dict[str, int] = {}
    class_of: list[int] = []
    seen: set[tuple[int, int]] = set()
    s_idx = np.empty(len(rows), dtype=np.int64)
    q_idx = np.empty(len(rows), dtype=np.int64)
    y = np.empty(len(rows), dtype=np.int8)

    for i, r in enumerate(rows):
        s = students.setdefault(r.student_id, len(students))
        q = questions.setdefault(r.question_id, len(questions))
        c = classes.setdefault(r.class_id, len(classes))
        if s == len(class_of):
            class_of.append(c)
        elif class_of[s] != c:
            raise ValueError(
                f"student {r.student_id!r} has conflicting class ids "
                f"{list(classes)[class_of[s]]!r} and {r.class_id!r}"
            )
        if (s, q) in seen:
            raise ValueError(f"duplicate response for student {r.student_id!r} question {r.question_id!r}")
        seen.add((s, q))
        s_idx[i], q_idx[i], y[i] = s, q, binarize(r)

    return Dataset(
        student_idx=s_idx,
        question_idx=q_idx,
        y=y,
        num_students=len(students),
        num_questions=len(questions),
        num_classes=len(classes),
        class_of=np.array(class_of, dtype=np.int64),
        student_ids=tuple(students),
        question_ids=tuple(questions),
        class_ids=tuple(classes),
    )


def dataset_from_arrays(
    student_idx, question_idx, y, class_of, student_ids=None, question_ids=None, class_ids=None
) -> Dataset:
    """Assemble a Dataset from already-dense index arrays (synthetic data path)."""
    class_of = np.asarray(class_of, dtype=np.int64)
    num_students = int(class_of.shape[0])
    question_idx = np.asarray(question_idx, dtype=np.int64)
    if question_ids:
        num_questions = len(question_ids)
    else:
        num_questions = int(question_idx.max()) + 1 if question_idx.size else 0
    if class_ids:
        num_classes = len(class_ids)
    else:
        num_classes = int(class_of.max()) + 1 if class_of.size else 0
    return Dataset(
        student_idx=np.asarray(student_idx, dtype=np.int64),
        question_idx=question_idx,
        y=np.asarray(y, dtype=np.int8),
        num_students=num_students,
        num_questions=num_questions,
        num_classes=num_classes,
        class_of=class_of,
        student_ids=tuple(student_ids) if student_ids else tuple(f"s{i}" for i in range(num_students)),
        question_ids=tuple(question_ids) if question_ids else tuple(f"q{i}" for i in range(num_questions)),
        class_ids=tuple(class_ids) if class_ids else tuple(f"c{i}" for i in range(num_classes)),
    )


def write_binary_csv(d: Dataset, path: str) -> None:
    """Write the pre-binarized CSV schema (round-trips through load_binary_csv).

    Rows become Python ints one block at a time: converting all of them
    at once would hold every index as an int object.
    """
    class_of = d.class_of.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BINARY_HEADER)
        for lo in range(0, d.n_responses, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            writer.writerows([d.student_ids[s], d.question_ids[q], d.class_ids[class_of[s]], y]
                             for s, q, y in zip(d.student_idx[block].tolist(), d.question_idx[block].tolist(),
                                                d.y[block].tolist()))


def split_train_test(d: Dataset, test_fraction: float, seed: int) -> Split:
    """Per-observation random holdout, stratified per student.

    Each student's responses are split so that round(test_fraction * n)
    of them land in test, capped so at least one stays in train. A
    student with a single response always trains. Deterministic per seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if d.n_responses < 2:
        raise ValueError("need at least 2 responses to split")

    rng = np.random.default_rng(seed)
    test_mask = np.zeros(d.n_responses, dtype=bool)
    order = np.argsort(d.student_idx, kind="stable")
    boundaries = np.flatnonzero(np.diff(d.student_idx[order])) + 1
    for group in np.split(order, boundaries):
        n = group.shape[0]
        k = min(int(np.floor(test_fraction * n + 0.5)), n - 1)
        if k > 0:
            test_mask[rng.choice(group, size=k, replace=False)] = True

    return Split(train=d.select(np.flatnonzero(~test_mask)), test=d.select(np.flatnonzero(test_mask)))


def subsample_students(d: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep floor(fraction * S) students chosen uniformly at random.

    Retained students keep every one of their responses and are densely
    reindexed (in ascending original order); question and class indexing
    is left untouched so checkpoints stay comparable across fractions.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    keep = int(np.floor(fraction * d.num_students))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(d.num_students, size=keep, replace=False))
    remap = np.full(d.num_students, -1, dtype=np.int64)
    remap[chosen] = np.arange(keep)
    mask = remap[d.student_idx] >= 0
    return Dataset(
        student_idx=remap[d.student_idx[mask]],
        question_idx=d.question_idx[mask].copy(),
        y=d.y[mask].copy(),
        num_students=keep,
        num_questions=d.num_questions,
        num_classes=d.num_classes,
        class_of=d.class_of[chosen].copy(),
        student_ids=tuple(d.student_ids[i] for i in chosen),
        question_ids=d.question_ids,
        class_ids=d.class_ids,
    )
