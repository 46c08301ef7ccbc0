"""Ingestion, binarization, splitting, and subsampling behavior."""

import codecs
import csv
import io
import os
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit import data
from irtkit.checkpoint import align_rows_to_checkpoint
from irtkit.data import (
    _READ_BLOCK,
    NO_CLASS,
    ParseError,
    build_dataset,
    choice_per_group,
    dataset_from_arrays,
    load_binary_csv,
    load_raw_csv,
    split_train_test,
    subsample_students,
    write_binary_csv,
)

import oracles
from oracles import IDS, Row, cells, csv_writer_binary_csv, responses, rows_of

RAW_HEADER = "student_id,question_id,class_id,marks_awarded,marks_available\n"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadRawCsv:
    def test_direct_field_mapping(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,c1,2,3\n")
        assert rows_of(load_raw_csv(path)) == cells([Row("s1", "q1", "c1", 2, 3)])

    def test_header_only_gives_empty_list(self, tmp_path):
        assert rows_of(load_raw_csv(_write(tmp_path, RAW_HEADER))) == []

    def test_awarded_above_available_names_line(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,c1,4,3\n")
        with pytest.raises(ParseError, match="marks_awarded exceeds marks_available at line 2"):
            load_raw_csv(path)

    def test_non_integer_marks(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,c1,two,3\n")
        with pytest.raises(ParseError, match="non-integer marks_awarded .* line 2"):
            load_raw_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "student,question\ns1,q1\n")
        with pytest.raises(ParseError, match="bad header"):
            load_raw_csv(path)

    def test_missing_field_on_row(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,c1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_raw_csv(path)

    def test_empty_class_id_maps_to_sentinel(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,,2,3\n")
        assert rows_of(load_raw_csv(path))[0].class_id == NO_CLASS


def _bits(tmp_path, marks) -> list:
    """The binarized outcome `y` a load gives each (awarded, available) pair, one loaded row per pair."""
    records = "".join(f"s{i},q,c,{a},{m}\n" for i, (a, m) in enumerate(marks))
    return load_raw_csv(_write(tmp_path, RAW_HEADER + records)).y.tolist()


class TestBinarize:
    def test_more_than_half_is_correct(self, tmp_path):
        assert _bits(tmp_path, [(2, 3)]) == [1]

    def test_exactly_half_is_incorrect(self, tmp_path):
        assert _bits(tmp_path, [(1, 2)]) == [0]

    def test_zero_marks(self, tmp_path):
        assert _bits(tmp_path, [(0, 5)]) == [0]

    def test_monotone_in_marks_awarded(self, tmp_path):
        for available in range(1, 11):
            bits = _bits(tmp_path, [(a, available) for a in range(available + 1)])
            assert bits == sorted(bits)


class TestBuildDataset:
    def test_counts(self):
        rows = [Row("s1", "q1", "c1", 1, 1), Row("s2", "q1", "c1", 0, 1)]
        d = build_dataset(*responses(rows))
        assert (d.num_students, d.num_questions, d.n_responses) == (2, 1, 2)

    def test_conflicting_class_is_an_error(self):
        rows = [Row("s1", "q1", "c1", 1, 1), Row("s1", "q2", "c2", 0, 1)]
        with pytest.raises(ValueError, match="conflicting class ids 'c1' and 'c2'"):
            build_dataset(*responses(rows))

    def test_duplicate_cell_is_an_error(self):
        rows = [Row("s1", "q1", "c1", 1, 1), Row("s1", "q1", "c1", 0, 1)]
        with pytest.raises(ValueError, match="duplicate response"):
            build_dataset(*responses(rows))

    def test_student_codes_out_of_first_appearance_order_rejected(self):
        student_idx, *rest = responses([Row("a", "x", "c1", 1, 1), Row("b", "x", "c2", 0, 1)])
        with pytest.raises(ValueError, match="not numbered in first-appearance order"):
            build_dataset(student_idx[::-1].copy(), *rest)

    def test_first_appearance_indexing(self):
        rows = [Row("b", "y", "c1", 1, 1), Row("a", "x", "c2", 0, 1)]
        d = build_dataset(*responses(rows))
        assert d.student_ids == ("b", "a")
        assert d.question_ids == ("y", "x")

    def test_roundtrip_preserves_binarized_multiset(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for s in range(7):
            for q in range(5):
                if rng.random() < 0.7:
                    avail = int(rng.integers(1, 5))
                    rows.append(Row(f"s{s}", f"q{q}", f"c{s % 2}", int(rng.integers(0, avail + 1)), avail))
        d = build_dataset(*responses(rows))
        path = str(tmp_path / "out.csv")
        write_binary_csv(d, path)
        d2 = load_binary_csv(path)
        original = sorted((r.student_id, r.question_id, int(2 * r.marks_awarded > r.marks_available)) for r in rows)
        reloaded = sorted(
            (d2.student_ids[s], d2.question_ids[q], y)
            for s, q, y in zip(d2.student_idx.tolist(), d2.question_idx.tolist(), d2.y.tolist())
        )
        assert original == reloaded


def _toy_dataset(num_students=12, num_questions=8, seed=1):
    rng = np.random.default_rng(seed)
    s_idx, q_idx, y = [], [], []
    for s in range(num_students):
        qs = rng.choice(num_questions, size=rng.integers(1, num_questions + 1), replace=False)
        for q in qs:
            s_idx.append(s)
            q_idx.append(int(q))
            y.append(int(rng.integers(0, 2)))
    return dataset_from_arrays(s_idx, q_idx, y, class_of=np.zeros(num_students, dtype=np.int64),
                               question_ids=tuple(f"q{i}" for i in range(num_questions)))


class TestSplit:
    def test_partition_is_exact(self):
        d = _toy_dataset()
        train, test = split_train_test(d, 0.25, seed=3)
        assert train.n_responses + test.n_responses == d.n_responses
        cells = set(zip(d.student_idx, d.question_idx))
        train_cells = set(zip(train.student_idx, train.question_idx))
        test_cells = set(zip(test.student_idx, test.question_idx))
        assert train_cells | test_cells == cells
        assert not (train_cells & test_cells)

    def test_deterministic_given_seed(self):
        d = _toy_dataset()
        a_train, a_test = split_train_test(d, 0.2, seed=9)
        b_train, b_test = split_train_test(d, 0.2, seed=9)
        assert np.array_equal(a_train.student_idx, b_train.student_idx)
        assert np.array_equal(a_test.question_idx, b_test.question_idx)

    def test_proportions_near_fraction(self):
        d = dataset_from_arrays(np.zeros(10, dtype=np.int64), np.arange(10), np.ones(10, dtype=np.int8),
                                class_of=np.zeros(1, dtype=np.int64))
        _, test = split_train_test(d, 0.2, seed=0)
        assert test.n_responses == 2

    def test_single_response_student_lands_in_train(self):
        d = dataset_from_arrays([0, 1, 1, 1], [0, 0, 1, 2], [1, 0, 1, 0],
                                class_of=np.zeros(2, dtype=np.int64))
        for seed in range(10):
            train, _ = split_train_test(d, 0.5, seed=seed)
            assert 0 in train.student_idx

    def test_every_student_keeps_a_training_response(self):
        d = _toy_dataset(seed=4)
        train, _ = split_train_test(d, 0.9, seed=2)
        assert set(d.student_idx) == set(train.student_idx)

    def test_fraction_bounds(self):
        d = _toy_dataset()
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                split_train_test(d, bad, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_that_is_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            split_train_test(_toy_dataset(), 0.2, seed=seed)


class TestSubsample:
    def test_full_fraction_is_identity(self):
        d = _toy_dataset()
        sub = subsample_students(d, 1.0, seed=5)
        assert sub.num_students == d.num_students
        assert sub.n_responses == d.n_responses
        assert np.array_equal(np.sort(sub.student_idx), np.sort(d.student_idx))

    @pytest.mark.parametrize("fraction,expected", [(0.15, 5327), (0.5, 17757)])
    def test_floor_counts_at_reference_scale(self, fraction, expected):
        d = dataset_from_arrays(np.arange(35_514), np.zeros(35_514, dtype=np.int64),
                                np.zeros(35_514, dtype=np.int8),
                                class_of=np.zeros(35_514, dtype=np.int64))
        assert subsample_students(d, fraction, seed=0).num_students == expected

    def test_retained_students_keep_all_responses(self):
        d = _toy_dataset(seed=7)
        sub = subsample_students(d, 0.5, seed=11)
        per_student_original = {sid: np.sum(np.asarray(d.student_ids)[d.student_idx] == sid)
                                for sid in sub.student_ids}
        for new_idx, sid in enumerate(sub.student_ids):
            assert np.sum(sub.student_idx == new_idx) == per_student_original[sid]

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            subsample_students(_toy_dataset(), 0.0, seed=0)

    def test_fraction_that_keeps_no_student_rejected(self):
        with pytest.raises(ValueError, match=r"^fraction 0.1 of 3 students keeps no student$"):
            subsample_students(_toy_dataset(num_students=3), 0.1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_that_is_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            subsample_students(_toy_dataset(), 0.5, seed=seed)

    def test_deterministic(self):
        d = _toy_dataset()
        assert subsample_students(d, 0.4, seed=3).student_ids == subsample_students(d, 0.4, seed=3).student_ids


# --- the error contract at block boundaries --------------------------------------

FAR = _READ_BLOCK + 7   # a record index in the second block the loaders read
_N_ROWS = FAR + 20
_BLANK = (3, FAR - 3)        # blank records, in the first and the second block
_TWO_LINES = (5, FAR - 2)    # records whose quoted student id spans two lines


def _valid_rows() -> list:
    """Distinct cells, one class per student; None where a record is blank."""
    rows = [Row(f"s{i // 6}", f"q{i % 6}", f"c{i // 6 % 5}", i % 3, 2) for i in range(_N_ROWS)]
    for i in _BLANK:
        rows[i] = None
    for i in _TWO_LINES:
        rows[i] = Row(f"line\nbreak {i}", "q0", "c0", 1, 2)
    return rows


def _valid_records(raw: bool) -> list[str]:
    def record(r):
        student = f'"{r.student_id}"' if "\n" in r.student_id else r.student_id
        marks = f"{r.marks_awarded},{r.marks_available}" if raw else f"{r.marks_awarded % 2}"
        return f"{student},{r.question_id},{r.class_id},{marks}"

    return ["" if r is None else record(r) for r in _valid_rows()]


def _file(tmp_path, raw: bool, planted: dict) -> str:
    records = _valid_records(raw)
    for index, record in planted.items():
        records[index] = record
    header = RAW_HEADER if raw else "student_id,question_id,class_id,y\n"
    return _write(tmp_path, header + "\n".join(records) + "\n")


def _line(index: int) -> int:
    """File line of a record: the header is line 1 and every record, blank or multi-line, counts one."""
    return index + 2


_RAW_ERRORS = {
    "too few fields": ("sX,qX,cX,1", "{path}: expected 5 fields at line {line}, got 4"),
    "too many fields": ("sX,qX,cX,1,2,3", "{path}: expected 5 fields at line {line}, got 6"),
    "non-integer awarded": ("sX,qX,cX,two,3", "non-integer marks_awarded 'two' at line {line}"),
    "non-integer available": ("sX,qX,cX,1, 3.0 ", "non-integer marks_available '3.0' at line {line}"),
    "both non-integer": ("sX,qX,cX,a,b", "non-integer marks_awarded 'a' at line {line}"),
    "available below 1": ("sX,qX,cX,0,0", "marks_available must be >= 1 at line {line}"),
    "awarded below 0": ("sX,qX,cX,-1,2", "marks_awarded must be >= 0 at line {line}"),
    "both out of range": ("sX,qX,cX,-1,0", "marks_available must be >= 1 at line {line}"),
    "awarded above available": ("sX,qX,cX,4,3", "marks_awarded exceeds marks_available at line {line}"),
}
_BINARY_ERRORS = {
    "too few fields": ("sX,qX,cX", "{path}: expected 4 fields at line {line}, got 3"),
    "non-integer y": ("sX,qX,cX,yes", "non-integer y 'yes' at line {line}"),
    "y not 0 or 1": ("sX,qX,cX,2", "y must be 0 or 1 at line {line}"),
    "y beyond int64": ("sX,qX,cX,99999999999999999999", "y must be 0 or 1 at line {line}"),
}


class TestErrorContract:
    """Each malformed record gives the same error, naming the same line, wherever it sits."""

    @pytest.mark.parametrize("index", [0, FAR])
    @pytest.mark.parametrize("case", sorted(_RAW_ERRORS))
    def test_raw_record_errors(self, tmp_path, case, index):
        record, message = _RAW_ERRORS[case]
        path = _file(tmp_path, True, {index: record})
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
        assert str(exc.value) == message.format(path=path, line=_line(index))

    @pytest.mark.parametrize("index", [0, FAR])
    @pytest.mark.parametrize("case", sorted(_BINARY_ERRORS))
    def test_binary_record_errors(self, tmp_path, case, index):
        record, message = _BINARY_ERRORS[case]
        path = _file(tmp_path, False, {index: record})
        with pytest.raises(ParseError) as exc:
            load_binary_csv(path)
        assert str(exc.value) == message.format(path=path, line=_line(index))

    @pytest.mark.parametrize("first,second", [("non-integer awarded", "too few fields"),
                                              ("too many fields", "awarded above available"),
                                              ("awarded below 0", "non-integer available")])
    def test_first_of_two_bad_records_wins(self, tmp_path, first, second):
        early = FAR - 1
        path = _file(tmp_path, True, {early: _RAW_ERRORS[first][0], FAR: _RAW_ERRORS[second][0]})
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
        assert str(exc.value) == _RAW_ERRORS[first][1].format(path=path, line=_line(early))

    def test_tokenizer_error_comes_after_the_records_before_it(self, tmp_path):
        too_long = "x" * (csv.field_size_limit() + 1) + ",q0,c0,1,2"
        path = _file(tmp_path, True, {FAR - 1: _RAW_ERRORS["awarded above available"][0], FAR: too_long})
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
        assert str(exc.value) == f"marks_awarded exceeds marks_available at line {_line(FAR - 1)}"
        path = _file(tmp_path, True, {FAR: too_long})
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
        assert (exc.value.path, exc.value.line) == (path, _line(FAR))
        limit = csv.field_size_limit()
        assert str(exc.value) == f"{path}: field larger than field limit ({limit}) at line {_line(FAR)}"

    @pytest.mark.parametrize("field", ["marks_awarded", "marks_available"])
    def test_mark_beyond_int64_names_its_line(self, tmp_path, field):
        big = "99999999999999999999"
        record = f"sX,qX,cX,{big},{big}0" if field == "marks_awarded" else f"sX,qX,cX,1,{big}"
        path = _file(tmp_path, True, {FAR: record})
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
        assert str(exc.value) == f"{field} '{big}' does not fit in 64 bits at line {_line(FAR)}"

    @pytest.mark.parametrize("index", [0, FAR])
    @pytest.mark.parametrize("raw", [True, False], ids=["raw", "binary"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, raw, index):
        path = _file(tmp_path, raw, {index: "sBAD,qX,cX,1" + (",2" if raw else "")})
        with open(path, "rb") as fh:
            text = fh.read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b"sBAD", b"s\xff"))   # a byte no UTF-8 text holds
        with pytest.raises(ParseError) as exc:
            (load_raw_csv if raw else load_binary_csv)(path)
        assert str(exc.value) == f"{path}: not UTF-8 text at line {_line(index)}"

    @pytest.mark.parametrize("planted,message", [
        ({FAR: "s0,q0,c0,1,2"}, "duplicate response for student 's0' question 'q0'"),
        ({FAR: "s0,q9,c9,1,2"}, "student 's0' has conflicting class ids 'c0' and 'c9'"),
        ({FAR: "s1,q9,c9,1,2", 8: "s0,q1,c0,1,2"}, "duplicate response for student 's0' question 'q1'"),
        ({FAR: "s1,q0,c1,1,2", 8: "s0,q1,c0,1,2"}, "duplicate response for student 's0' question 'q1'"),
        ({FAR: "s0,q1,c0,1,2", 8: "s1,q9,c9,1,2"}, "student 's1' has conflicting class ids 'c1' and 'c9'"),
        ({FAR: "s0,q0,c9,1,2"}, "student 's0' has conflicting class ids 'c0' and 'c9'"),
    ], ids=["duplicate", "conflict", "duplicate first", "first of two duplicates", "conflict first",
            "both in one row"])
    def test_build_dataset_names_first_offending_row(self, tmp_path, planted, message):
        path = _file(tmp_path, True, planted)
        with pytest.raises(ValueError) as exc:
            load_raw_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("planted,message", [
        ({FAR: "ghost,q0,c0,1,2"}, "student 'ghost' is not in the checkpoint"),
        ({FAR: "s0,qghost,c0,1,2"}, "question 'qghost' is not in the checkpoint"),
        ({FAR: "ghost,q0,c0,1,2", 8: "s1,qghost,c1,1,2"}, "question 'qghost' is not in the checkpoint"),
        ({FAR: "ghost,qghost,c0,1,2"}, "student 'ghost' is not in the checkpoint"),
    ], ids=["student", "question", "question first", "both in one row"])
    def test_align_names_first_unknown_id(self, tmp_path, planted, message):
        known = load_raw_csv(_file(tmp_path, True, {}))
        index = known.select(np.array([], dtype=np.int64))
        rows = load_raw_csv(_file(tmp_path, True, planted))
        with pytest.raises(ValueError) as exc:
            align_rows_to_checkpoint(rows, index, "rasch")
        assert str(exc.value) == message


def test_loaders_read_every_block(tmp_path):
    rows = [r for r in _valid_rows() if r is not None]
    assert rows_of(load_raw_csv(_file(tmp_path, True, {}))) == cells(rows)
    assert rows_of(load_binary_csv(_file(tmp_path, False, {}))) == cells(r._replace(marks_awarded=r.marks_awarded % 2,
                                                                                    marks_available=1) for r in rows)


@pytest.mark.parametrize("text", [" 2 ", "+2", "\x1c2", "٢", "0_2", " 2"])
def test_marks_accept_what_int_of_the_stripped_text_accepts(tmp_path, text):
    path = _write(tmp_path, RAW_HEADER + f"s1,q1,c1,{text},3\ns2,q1,c1,1,{text}\n")
    assert rows_of(load_raw_csv(path)) == cells([Row("s1", "q1", "c1", 2, 3), Row("s2", "q1", "c1", 1, 2)])


# --- property tests ----------------------------------------------------------------

@st.composite
def _binary_rows(draw):
    students = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    questions = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    classes = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    class_of = draw(st.lists(st.sampled_from(classes), min_size=len(students), max_size=len(students)))
    cells = draw(st.lists(st.tuples(st.integers(0, len(students) - 1), st.integers(0, len(questions) - 1)),
                          min_size=1, unique=True))
    return [Row(students[s], questions[q], class_of[s], draw(st.integers(0, 1)), 1) for s, q in cells]


@settings(max_examples=200, deadline=None)
@given(rows=_binary_rows())
def test_csv_round_trip_keeps_ids_indices_and_csv_writer_bytes(tmp_path_factory, rows):
    d = build_dataset(*responses(rows))
    work = tmp_path_factory.mktemp("csv")
    path, reference = str(work / "out.csv"), str(work / "reference.csv")
    write_binary_csv(d, path)
    csv_writer_binary_csv(d, reference)
    assert open(path, "rb").read() == open(reference, "rb").read()
    back = load_binary_csv(path)
    assert (back.student_ids, back.question_ids, back.class_ids) == (d.student_ids, d.question_ids, d.class_ids)
    for name in ("student_idx", "question_idx", "y", "class_of"):
        got, want = getattr(back, name), getattr(d, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.text(st.characters(codec="utf-8") | st.sampled_from([",", '"', "\r", "\n", "\x00", "é"]))))
def test_escaped_ids_are_csv_writers_fields(ids):
    want = []
    for i in ids:
        buf = io.StringIO()
        csv.writer(buf).writerow((i, ""))
        want.append(buf.getvalue().removesuffix("\r\n").encode())
    assert data._escaped(ids).tolist() == want


def test_writer_blocks_join_into_csv_writer_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_WRITE_CHARS", 64)   # a few rows per block
    d = build_dataset(*responses([Row(f"s{i % 7}", f"q,{i // 7}", f"c{i % 7 % 2}", i % 3, 2) for i in range(40)]))
    write_binary_csv(d, str(tmp_path / "out.csv"))
    csv_writer_binary_csv(d, str(tmp_path / "reference.csv"))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@st.composite
def _datasets(draw):
    num_students = draw(st.integers(1, 8))
    num_questions = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, num_students - 1), st.integers(0, num_questions - 1)),
                          min_size=2, unique=True))
    s_idx, q_idx = (np.array(c, dtype=np.int64) for c in zip(*cells))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(cells), max_size=len(cells))))
    return dataset_from_arrays(s_idx, q_idx, y, class_of=np.zeros(num_students, dtype=np.int64),
                               question_ids=tuple(f"q{i}" for i in range(num_questions)))


@settings(max_examples=200, deadline=None)
@given(d=_datasets(), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_split_is_an_exact_stratified_partition(d, fraction, seed):
    train, test = split_train_test(d, fraction, seed)

    def triples(part):
        return sorted(zip(part.student_idx.tolist(), part.question_idx.tolist(), part.y.tolist()))

    assert sorted(triples(train) + triples(test)) == triples(d)
    n = np.bincount(d.student_idx, minlength=d.num_students)
    in_test = np.bincount(test.student_idx, minlength=d.num_students)
    for s in np.flatnonzero(n):
        assert in_test[s] == min(int(np.floor(fraction * n[s] + 0.5)), n[s] - 1)
    assert not np.isin(np.flatnonzero(n == 1), test.student_idx).any()
    again = split_train_test(d, fraction, seed)
    for a, b in zip((train, test), again):
        assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("student_idx", "question_idx", "y"))


# --- the row checks at the load boundary, and align_rows_to_checkpoint ---------------

_WIDE = [f"\x00{i}" for i in range(65_536)]   # with one student more, codes need 17 bits (IDS holds no "\x00")


@st.composite
def _checked_rows(draw, wide: bool):
    """Rows with 0-2 planted faults (a repeated cell, a student under a second class), and a checkpoint index.

    The rows answer distinct cells of small id pools, each student in one class, before the plants. When
    `wide`, the _WIDE students are mixed in, one row each, so the row checks take the int64 key. The index
    holds the pools' ids in a drawn order, at times without one student or one question, and the _WIDE ones.
    """
    students, questions, classes = (draw(st.lists(IDS, min_size=1, max_size=n, unique=True)) for n in (6, 4, 3))
    home = {s: draw(st.sampled_from(classes)) for s in students}
    answered = draw(st.lists(st.tuples(st.sampled_from(students), st.sampled_from(questions)), min_size=1,
                             max_size=12, unique=True))
    rows = [Row(s, q, home[s], draw(st.integers(0, 3)), 3) for s, q in answered]
    for fault in draw(st.lists(st.sampled_from(["repeat", "class"]), max_size=2)):
        if fault == "repeat":   # a cell answered before, in its student's class
            s, q = draw(st.sampled_from(answered))
            c = home[s]
        else:                   # any cell, in any class
            s, q, c = draw(st.sampled_from(students)), draw(st.sampled_from(questions)), draw(st.sampled_from(classes))
        rows.insert(draw(st.integers(0, len(rows))), Row(s, q, c, draw(st.integers(0, 3)), 3))
    index_students = draw(st.permutations(students))[draw(st.integers(0, 1)):]
    index_questions = draw(st.permutations(questions))[draw(st.integers(0, 1)):]
    if wide:
        extra = [Row(s, questions[0], classes[0], 1, 3) for s in _WIDE]
        cut = draw(st.integers(0, len(extra)))
        rows = extra[:cut] + rows + extra[cut:]
        index_students += _WIDE[::-1]
    index = dataset_from_arrays((), (), (), np.zeros(len(index_students), np.int64), index_students,
                                index_questions, classes)
    return rows, index


def _assert_same_dataset(got, want):
    for name in ("student_idx", "question_idx", "y", "class_of"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.student_ids, got.question_ids, got.class_ids) == (want.student_ids, want.question_ids, want.class_ids)


def _write_rows(path: str, rows, raw: bool) -> str:
    """rows as a raw file, or as a binary file of their outcomes, in csv.writer's bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.RAW_HEADER if raw else data.BINARY_HEADER)
        writer.writerows(rows if raw else cells(rows))
    return path


def _assert_row_checks_as_oracle(work, rows, index):
    """Both loaders give the oracle's Dataset of rows or its error; a loaded Dataset aligns as the oracle's does."""
    for raw in (True, False):
        path = _write_rows(str(work / f"rows_{raw}.csv"), rows, raw)
        want = oracles.dataset_of(rows)
        try:
            got = (load_raw_csv if raw else load_binary_csv)(path)
        except ValueError as exc:
            assert str(exc) == want
            continue
        assert not isinstance(want, str), want
        _assert_same_dataset(got, want)
        assert len(got) == got.n_responses
        want = oracles.dataset_of(rows, index)
        try:
            aligned = align_rows_to_checkpoint(got, index, "rasch")
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert not isinstance(want, str), want
            _assert_same_dataset(aligned, want)


@settings(max_examples=80, deadline=None)
@given(case=_checked_rows(wide=False))
def test_row_checks_give_the_oracles_dataset_or_its_error(tmp_path_factory, case):
    _assert_row_checks_as_oracle(tmp_path_factory.mktemp("rows"), *case)


@settings(max_examples=6, deadline=None)
@given(case=_checked_rows(wide=True))
def test_row_checks_on_the_int64_key_give_the_oracles_dataset_or_its_error(tmp_path_factory, case):
    _assert_row_checks_as_oracle(tmp_path_factory.mktemp("rows"), *case)


# --- the bulk Generator.choice kernel and the radix-width sort keys ------------------

def _words(rng, count):
    """The next count 32-bit words of rng's stream (a buffered half-word first)."""
    return rng.integers(0, 2**32, size=count, dtype=np.uint32)


def _assert_draws_as_oracle(seed, sizes, ks, pre=0):
    """choice_per_group marks the oracle's picks, group by group, and leaves the generator where the oracle does."""
    kernel, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (kernel, loop):
        _words(rng, pre)   # an odd count leaves a buffered half-word
    mask = choice_per_group(kernel, np.array(sizes, dtype=np.int64), np.array(ks, dtype=np.int64))
    picks = oracles.choice_per_group(loop, sizes, ks)
    assert mask.size == sum(sizes)
    for lo, n, expected in zip(np.cumsum([0, *sizes]).tolist(), sizes, picks):
        assert np.flatnonzero(mask[lo:lo + n]).tolist() == sorted(expected.tolist())
    assert kernel.bit_generator.state == loop.bit_generator.state
    assert _words(kernel, 3).tolist() == _words(loop, 3).tolist()
    assert kernel.random() == loop.random()


@st.composite
def _group_draws(draw):
    sizes = draw(st.lists(st.one_of(st.integers(1, 40), st.integers(1, 10_000)), max_size=6))
    ks = [int(np.floor(draw(st.floats(0.0, 0.9)) * n + 0.5)) for n in sizes]
    return draw(st.integers(0, 2**64 - 1)), sizes, ks, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(case=_group_draws())
def test_choice_per_group_draws_as_generator_choice_does(case):
    _assert_draws_as_oracle(*case)


class TestChoicePerGroup:
    def test_groups_drawn_whole(self):   # k == n
        _assert_draws_as_oracle(3, [1, 2, 7, 1, 30], [1, 2, 7, 0, 30])   # a bound of 0 draws no word
        _assert_draws_as_oracle(4, [1, 1, 1], [1, 1, 1], pre=1)

    def test_no_groups(self):
        rng = np.random.default_rng(5)
        _words(rng, 1)
        state = rng.bit_generator.state
        assert choice_per_group(rng, np.zeros(0, np.int64), np.zeros(0, np.int64)).size == 0
        assert rng.bit_generator.state == state
        _assert_draws_as_oracle(5, [], [], pre=1)

    def test_other_numpy_draws_each_group_by_choice(self, monkeypatch):
        """Off numpy 2.4 the bulk kernel is not used: the oracle's rng.choice calls, group by group."""
        monkeypatch.setattr(data, "_BULK_CHOICE", False)
        monkeypatch.setattr(data, "_floyd", None)
        _assert_draws_as_oracle(7, [1, 2, 7, 40, 20_000, 3], [0, 1, 3, 39, 1_000, 2], pre=1)
        _assert_draws_as_oracle(8, [], [])

    def test_group_in_numpys_other_branch_is_drawn_by_choice(self):
        assert 1_000 > 20_000 // 50   # n > 10,000 and k > n // 50: the tail-shuffle branch
        _assert_draws_as_oracle(6, [9, 20_000, 12, 20_000, 10_001], [3, 1_000, 5, 400, 201], pre=1)

    @pytest.mark.parametrize("seed,in_picks", [(321, True), (609, False)])
    def test_a_rejected_word_shifts_every_later_draw(self, seed, in_picks):
        n, k = 10_000, 9_000
        choice, words = np.random.default_rng(seed), np.random.default_rng(seed)
        choice.choice(n, size=k, replace=False)
        _words(words, 2 * k - 1)   # a word a draw, without a rejection
        assert choice.bit_generator.state != words.bit_generator.state
        span = np.r_[n - k + np.arange(k), np.arange(k - 1, 0, -1)].astype(np.uint64) + 1   # picks, then the shuffle
        u = _words(np.random.default_rng(seed), span.size).astype(np.uint64)
        assert (np.flatnonzero(u * span % 2**32 < 2**32 % span)[0] < k) == in_picks   # where the first one is
        _assert_draws_as_oracle(seed, [n, 25, 3], [k, 5, 2])


@st.composite
def _cells(draw):
    num_students = draw(st.sampled_from([1, 3, 256, 257, 65_536, 65_537, 200_000]))
    num_questions = draw(st.sampled_from([1, 2, 256, 300, 70_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 300))
    columns = []
    for count in (num_students, num_questions):   # a few codes, the largest among them, so cells repeat
        codes = np.append(rng.integers(0, count, draw(st.integers(1, 8))), count - 1)
        columns.append(codes[rng.integers(0, codes.size, rows)])
    return columns[0], num_students, columns[1], num_questions


@settings(max_examples=100, deadline=None)
@given(case=_cells())
def test_narrow_sort_keys_order_rows_as_the_int64_stable_sort(case):
    s, num_students, q, num_questions = case
    cell = s * num_questions + q
    order, keys = data._stable_order((s, num_students), (q, num_questions))
    assert order.tolist() == np.argsort(cell, kind="stable").tolist()
    same = np.logical_and.reduce([key[:, None] == key[None, :] for key in keys])   # rows equal in every key
    assert np.array_equal(same, cell[:, None] == cell[None, :])
    assert data._stable_order((s, num_students))[0].tolist() == np.argsort(s, kind="stable").tolist()


@settings(max_examples=100, deadline=None)
@given(d=_datasets(), picks=st.data())
def test_keep_students_keeps_each_kept_students_triples_and_class(d, picks):
    class_of = np.array(picks.draw(st.lists(st.integers(0, 2), min_size=d.num_students, max_size=d.num_students)))
    d = replace(d, class_of=class_of, class_ids=("c0", "c1", "c2"))
    kept = np.array(sorted(picks.draw(st.sets(st.integers(0, d.num_students - 1)))), dtype=np.int64)
    sub = d.keep_students(kept)
    assert sub.num_students == kept.size
    assert sub.student_ids == tuple(d.student_ids[s] for s in kept)
    assert sub.class_of.tolist() == class_of[kept].tolist()
    rows = np.isin(d.student_idx, kept)
    assert kept[sub.student_idx].tolist() == d.student_idx[rows].tolist()   # same rows, same order
    assert sub.question_idx.tolist() == d.question_idx[rows].tolist()
    assert sub.y.tolist() == d.y[rows].tolist()
    assert (sub.question_ids, sub.class_ids, sub.num_questions) == (d.question_ids, d.class_ids, d.num_questions)


# --- CSV mutation property -----------------------------------------------------------

_VALID_TEXT = {   # header and records: plain, quoted, empty-class, multi-line, padded and blank ones
    True: RAW_HEADER + "".join(f"s{i},q{i % 3},c{i % 2},{i % 3},2\n" for i in range(6))
          + '"s,2",q1,,1,2\n é ,q2,c2,0,1\n\n"a""b",q2, c2 ,3,3\n"two\nlines",q1,c1, 1 ,1\n',
    False: "student_id,question_id,class_id,y\n" + "".join(f"s{i},q{i % 3},c{i % 2},{i % 2}\n" for i in range(6))
           + '"s,2",q1,,0\n é ,q2,c2,1\n\n"a""b",q2, c2 ,0\n"two\nlines",q1,c1, 1 \n',
}
_TOKENS = ['"', '""', ",", " ", "\n", "\r", "\r\n", "-1", "0", "1_0", "٢", "99999999999999999999", "\x00", "\x1c",
           "\ufeff", "é"]
_ENCODINGS = ["utf-16", "utf-32", "latin-1", "cp1252", "utf-8-sig"]
_MARKS = ["x", "", "1.5", "99999999999999999999", "-1", "0", "7"]   # mark texts that fail to parse, or may break a rule


@st.composite
def _mutated_csv(draw):
    """A valid raw or binary file with 1-3 edits of its bytes, quoting, field counts, marks, line ends or encoding."""
    raw = draw(st.booleans())
    blob = _VALID_TEXT[raw].encode()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(range(len(blob) + 1)))   # integers() would favour the header's start
        edit = draw(st.sampled_from(["bytes", "token", "token", "drop field", "encoding", "marks", "marks"]))
        if edit == "bytes":   # replace up to 3 bytes by up to 3 arbitrary bytes or characters
            new = draw(st.binary(max_size=3) | st.text(max_size=3).map(str.encode))
            blob = blob[:at] + new + blob[at + draw(st.integers(0, 3)):]
        elif edit == "token":
            blob = blob[:at] + draw(st.sampled_from(_TOKENS)).encode() + blob[at:]
        elif edit == "drop field" and b"," in blob[at:]:
            comma = blob.index(b",", at)
            blob = blob[:comma] + blob[comma + 1:]
        elif edit == "encoding":
            blob = blob.decode("utf-8", "replace").encode(draw(st.sampled_from(_ENCODINGS)), "replace")
        elif edit == "marks" and blob.count(b"\n") > 2:   # one of the last two fields, a mark, of two lines
            lines = blob.split(b"\n")
            for i in draw(st.sets(st.integers(1, len(lines) - 2), min_size=2, max_size=2)):
                fields = lines[i].split(b",")
                fields[-draw(st.integers(1, min(2, len(fields))))] = draw(st.sampled_from(_MARKS)).encode()
                lines[i] = b",".join(fields)
            blob = b"\n".join(lines)
    return raw, blob


def _csv_reader_oracle(blob: bytes, raw: bool, path: str = ""):
    """(rows, None, None) as csv.reader reads the UTF-8 text and the loaders' rules take it, or (None, lines, message):
    the lines an error may name: the first faulty record's line (1 for the header) or, when the file is
    not UTF-8, the line holding the first such byte, or the first faulty line if that comes before it.
    One leading UTF-8 byte-order mark is not part of the text. The message is the error's, record by
    record, field by field and check by check, for a field-count, integer, int64-range or mark-rule
    fault of a UTF-8 file, else None."""
    # each byte that is not UTF-8 becomes a lone surrogate
    text = blob.removeprefix(codecs.BOM_UTF8).decode("utf-8", "surrogateescape")
    records = list(csv.reader(io.StringIO(text, newline="")))
    header = data.RAW_HEADER if raw else data.BINARY_HEADER
    width = len(header)
    undecodable = [i + 1 for i, r in enumerate(records) if any("\udc80" <= c <= "\udcff" for c in "".join(r))]
    rows, bad, message = [], None, None
    if not records or [c.strip() for c in records[0]] != header:
        bad = 1
    for line, r in enumerate(records[1:], start=2):
        if bad is not None:
            break
        if not r:
            continue
        if len(r) != width:
            bad, message = line, f"{path}: expected {width} fields at line {line}, got {len(r)}"
            break
        marks = []
        for field, t in zip(header[3:], map(str.strip, r[3:])):
            try:
                marks.append(int(t))
            except ValueError:
                message = f"non-integer {field} {t!r}"
                break
            if not -2**63 <= marks[-1] < 2**63:
                message = f"{field} {t!r} does not fit in 64 bits" if raw else "y must be 0 or 1"
                break
        else:
            checks = ([(marks[1] < 1, "marks_available must be >= 1"), (marks[0] < 0, "marks_awarded must be >= 0"),
                       (marks[0] > marks[1], "marks_awarded exceeds marks_available")] if raw
                      else [(marks[0] not in (0, 1), "y must be 0 or 1")])
            message = next((m for failed, m in checks if failed), None)
        if message is not None:
            bad, message = line, f"{message} at line {line}"
        else:
            marks = marks if raw else [marks[0], 1]   # y out of 1
            rows.append(Row(r[0].strip(), r[1].strip(), r[2].strip() or NO_CLASS, *marks))
    if undecodable:
        return None, {undecodable[0]} | ({bad} if bad is not None and bad < undecodable[0] else set()), None
    return (cells(rows), None, None) if bad is None else (None, {bad}, message)


@settings(max_examples=200, deadline=None)
@given(case=_mutated_csv(), records=st.sampled_from([3, _READ_BLOCK]))
def test_mutated_csv_loads_as_csv_reader_reads_it_or_names_file_and_line(tmp_path_factory, case, records):
    raw, blob = case
    path = str(tmp_path_factory.mktemp("mutated") / "data.csv")
    with open(path, "wb") as fh:
        fh.write(blob)
    rows, lines, want = _csv_reader_oracle(blob, raw, path)
    try:   # a few records and bytes a block, so a fault can sit in a later block of either path, or one csv block
        with mock.patch.object(data, "_READ_BLOCK", records), mock.patch.object(data, "_READ_BYTES", 40):
            got = rows_of(_read(path, raw))
    except ParseError as exc:
        message = str(exc)
        assert lines is not None, message
        assert exc.path == path and exc.line in lines, (message, lines)
        assert "\n" not in message
        assert f"at line {exc.line}" in message or (exc.line == 1 and message.startswith(f"{path}: "))
        assert want is None or message == want, (message, want)
    else:
        assert got == rows


# --- the byte path ---------------------------------------------------------------------

_BINARY_HEADER = "student_id,question_id,class_id,y\n"
_PLAIN_IDS = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='",'),
                     min_size=1, max_size=20)   # packed keys of 1-3 words
_PLAIN_TOKENS = [t for t in _TOKENS if '"' not in t]


@st.composite
def _plain_csv(draw):
    """A quote-free valid raw or binary file with 0-2 edits, whether it was edited, and a block size.

    Records may be blank or padded, have a blank class, leading zeros or several digits in
    their marks, and end in '\n' or '\r\n'; the last line end may be missing.
    """
    raw = draw(st.booleans())
    pools = [draw(st.lists(_PLAIN_IDS, min_size=1, max_size=n, unique=True)) for n in (6, 4)]
    pools.append(draw(st.lists(_PLAIN_IDS | st.just(""), min_size=1, max_size=3, unique=True)))
    pad = st.sampled_from(["", " ", "  "])
    lead = st.sampled_from(["", "0", "00"])
    text = RAW_HEADER if raw else _BINARY_HEADER
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 4)):
            ids = [draw(pad) + draw(st.sampled_from(pool)) + draw(pad) for pool in pools]
            available = draw(st.integers(1, 999))
            marks = ([draw(lead) + str(draw(st.integers(0, available))), draw(lead) + str(available)] if raw
                     else [draw(lead) + str(draw(st.integers(0, 1)))])
            text += ",".join(ids + marks)
        text += draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    blob = text.encode()
    edits = draw(st.integers(0, 2))
    for _ in range(edits):   # a token anywhere, or a digit at a field's end, where it scales a mark
        ends = [i for i, c in enumerate(blob) if c in b",\r\n"] or [len(blob)]
        at, token = draw(st.tuples(st.sampled_from(range(len(blob) + 1)), st.sampled_from(_PLAIN_TOKENS))
                         | st.tuples(st.sampled_from(ends), st.sampled_from("0123456789")))
        blob = blob[:at] + token.encode() + blob[at:]
    return raw, blob, edits > 0, draw(st.sampled_from([data._READ_BYTES, 16, 40]))


def _tables(rows) -> tuple:
    """The id tables of rows: each column's ids in first-appearance order."""
    return tuple(tuple(dict.fromkeys(r[k] for r in rows)) for k in range(3))


_SCHEMA = {True: (data.RAW_HEADER, data._raw_rules, None),
           False: (data.BINARY_HEADER, data._binary_rules, "y must be 0 or 1")}


def _read(path, raw):
    """What the loaders read of a file before the row checks: its columns and id tables, as data._load gives them."""
    return data._load(path, *_SCHEMA[raw])


def _bytes_read(path, raw):
    """What the byte path reads of a file: its columns and id tables, as data._load gives them, and where it stopped."""
    header, rules, _ = _SCHEMA[raw]
    coders, tables = data._id_coders()
    columns, at, line = data._load_bytes(path, header, rules, list(map(data._key_coder, coders)))
    return (*columns, *map(tuple, tables)), at, line


def _csv_read(path, raw):
    """What the csv path reads of a whole file, as data._load gives it."""
    coders, tables = data._id_coders()
    blocks = data._load_csv(path, *_SCHEMA[raw], coders)
    return (*[np.concatenate(col) for col in zip(*blocks)], *map(tuple, tables))


@settings(max_examples=150, deadline=None)
@given(case=_plain_csv())
def test_byte_path_loads_as_csv_reader_reads_it(tmp_path_factory, case):
    raw, blob, edited, block = case
    path = str(tmp_path_factory.mktemp("plain") / "data.csv")
    with open(path, "wb") as fh:
        fh.write(blob)
    rows, lines, _ = _csv_reader_oracle(blob, raw)
    with mock.patch.object(data, "_READ_BYTES", block):
        fast, at, line = _bytes_read(path, raw)
        assert at is None or edited   # every unedited file is in the grammar
        if at is not None:   # the csv path reads on from the start of a line
            assert line == blob[:at].count(b"\n") + 1 and (not at or blob[at - 1] == ord("\n"))
        assert at is not None or rows_of(fast) == rows
        if rows is not None:
            assert rows_of(fast) == rows[:fast[3].size]
            assert fast[4:] == _tables(rows[:fast[3].size])
        try:
            got = _read(path, raw)
        except ParseError as exc:
            message = str(exc)
            assert lines is not None, message
            assert exc.path == path and exc.line in lines, (message, lines)
            assert f"at line {exc.line}" in message or (exc.line == 1 and message.startswith(f"{path}: "))
        else:
            assert rows_of(got) == rows
            assert got[4:] == _tables(rows)


def _no_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


_DIGITS = st.text("0123456789", min_size=1, max_size=18)   # a mark field of the byte path's grammar
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(_DIGITS, min_size=1, max_size=12), pads=st.data())
def test_mark_fields_parse_to_the_values_of_int(tmp_path_factory, fields, pads):
    want = list(map(int, fields))
    length = np.array(list(map(len, fields)))
    lo = np.cumsum(length + 1) - length - 1
    b = np.frombuffer(",".join(fields).encode() + bytes(data._KEY_BYTES), np.uint8)   # padded as _read_block pads
    assert data._digits(b, lo, length).tolist() == want
    header = ["student_id", "question_id", "class_id", "v"]   # one mark column, whose parsed values are the outcome
    records = "".join(f"s{i},q,c,{pads.draw(_PAD) + field + pads.draw(_PAD)}\n" for i, field in enumerate(fields))
    path = _write(tmp_path_factory.mktemp("padded"), ",".join(header) + "\n" + records)
    coders, _ = data._id_coders()
    blocks = data._load_csv(path, header, lambda v: (v, []), None, coders)
    values = np.concatenate([block[3] for block in blocks])
    parsed = values.size
    assert (values.tolist(), parsed) == (want, len(fields))


@st.composite
def _mark_texts(draw):
    """(awarded, available) fields of 1-18 digits, leading zeros included, many at or by 2 * awarded == available."""
    texts = []
    for _ in range(draw(st.integers(1, 10))):
        available = draw(st.integers(1, 10**18 - 1))
        half = available // 2
        awarded = draw(st.integers(0, available) | st.sampled_from([half, min(half + 1, available), max(half - 1, 0)]))
        texts.append(tuple("0" * draw(st.integers(0, 18 - len(str(v)))) + str(v) for v in (awarded, available)))
    return texts


@settings(max_examples=100, deadline=None)
@given(marks=_mark_texts())
def test_loaders_binarize_marks_as_python_ints_do(tmp_path_factory, marks):
    want = [int(2 * int(awarded) > int(available)) for awarded, available in marks]
    work = tmp_path_factory.mktemp("marks")
    raw = _write(work, RAW_HEADER + "".join(f"s{i},q,c,{a},{m}\n" for i, (a, m) in enumerate(marks)), "raw.csv")
    binary = _write(work, _BINARY_HEADER + "".join(f"s{i},q,c,{'0' * i}{y}\n" for i, y in enumerate(want)),
                    "binary.csv")
    with mock.patch.object(data.csv, "reader", _no_reader):   # the byte path
        assert load_raw_csv(raw).y.tolist() == want
        assert load_binary_csv(binary).y.tolist() == want
    assert _csv_read(raw, True)[3].tolist() == want
    assert _csv_read(binary, False)[3].tolist() == want


def _assert_same(got, want):
    """Two reads of data._load's tuple hold equal columns, as int64 codes and an int8 y, and equal id tables."""
    for got_col, want_col, dtype in zip(got, want, (np.int64, np.int64, np.int64, np.int8)):
        assert got_col.dtype == dtype and np.array_equal(got_col, want_col)
    assert got[4:] == want[4:]


def test_quote_free_files_load_without_csv_reader(tmp_path, monkeypatch):
    raw = _write(tmp_path, RAW_HEADER + "s1,q1,c1,2,3\r\n\n s2 ,q1,,0,01", "raw.csv")
    binary = _write(tmp_path, _BINARY_HEADER + "s1,q1,c1,1\n", "binary.csv")
    quoted = _write(tmp_path, RAW_HEADER + 's1,q1,c1,2,3\n"s,2",q1,,0,1\n', "quoted.csv")
    long_id = _write(tmp_path, RAW_HEADER + "s" * 65 + ",q1,c1,2,3\n", "long.csv")   # over 8 key words
    monkeypatch.setattr(data.csv, "reader", _no_reader)
    assert rows_of(load_raw_csv(raw)) == cells([Row("s1", "q1", "c1", 2, 3), Row("s2", "q1", NO_CLASS, 0, 1)])
    assert rows_of(load_binary_csv(binary)) == cells([Row("s1", "q1", "c1", 1, 1)])
    for path in (quoted, long_id):
        with pytest.raises(AssertionError, match="csv.reader called"):
            load_raw_csv(path)
    monkeypatch.undo()
    assert rows_of(load_raw_csv(quoted)) == cells([Row("s1", "q1", "c1", 2, 3), Row("s,2", "q1", NO_CLASS, 0, 1)])
    assert rows_of(load_raw_csv(long_id)) == cells([Row("s" * 65, "q1", "c1", 2, 3)])


@pytest.mark.parametrize("raw", [True, False], ids=["raw", "binary"])
def test_byte_path_blocks_join_into_the_csv_path_result(tmp_path, monkeypatch, raw):
    monkeypatch.setattr(data, "_READ_BYTES", 40)   # a few records a block
    records = [f"s{i % 7},q{i % 3},c{i % 7 % 3},{i % 2}" + (",2" if raw else "") for i in range(40)]
    records[30] = "a_student_first_seen_in_a_late_block,q0,c0,1" + (",2" if raw else "")   # longer than a block
    records[12] = ""
    header = RAW_HEADER if raw else _BINARY_HEADER
    path = _write(tmp_path, header + "\r\n".join(records) + "\r\n")
    ends = np.cumsum([len(r) + 2 for r in records])   # offsets after the header
    assert (np.concatenate(([0], ends[:-1])) // 40 != (ends - 1) // 40).any()   # a record straddles a cut
    want = _csv_read(path, raw)
    monkeypatch.setattr(data.csv, "reader", _no_reader)
    got = _read(path, raw)
    _assert_same(got, want)
    assert got[3].size == 39 and got[4][-1] == "a_student_first_seen_in_a_late_block"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_read_once_by_the_csv_path(tmp_path):
    pipe = str(tmp_path / "pipe.csv")
    os.mkfifo(pipe)
    got = []

    def write():
        with open(pipe, "w", encoding="utf-8") as fh:
            fh.write(RAW_HEADER + "s1,q1,c1,2,3\n")

    threads = [threading.Thread(target=lambda: got.append(rows_of(load_raw_csv(pipe))), daemon=True),
               threading.Thread(target=write, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [cells([Row("s1", "q1", "c1", 2, 3)])]


def test_texts_with_one_hash_are_coded_apart(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_MIX", np.zeros_like(data._MIX))   # every key hashes to 0
    path = _write(tmp_path, RAW_HEADER + "".join(f"s{i % 3},q{i % 2},c,1,2\n" for i in range(9)))
    want = _csv_read(path, True)
    monkeypatch.setattr(data.csv, "reader", _no_reader)
    for size in (data._READ_BYTES, 12):   # one block, and a record a block
        monkeypatch.setattr(data, "_READ_BYTES", size)
        _assert_same(_read(path, True), want)


_KEY_TEXT = st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='",')


@st.composite
def _many_keys_csv(draw):
    """A quote-free raw or binary file whose student ids outnumber a coder's first table's slots.

    Ids have 0-64 bytes, edge spaces included; some share all their key
    words but the last byte; class fields may be blank. Rows come shuffled,
    or grouped by student, where every block's keys are new: the coder's
    miss path at its busiest.
    """
    stems = draw(st.lists(st.integers(1, 8).map(lambda words: "s" * (8 * words - 1)), min_size=1, max_size=3))
    near = [stem + last for stem in stems for last in draw(st.lists(_KEY_TEXT, min_size=2, max_size=4, unique=True))]
    students = draw(st.lists(st.text(_KEY_TEXT, max_size=64), min_size=9, max_size=40, unique=True))
    students = list(dict.fromkeys(students + near))
    questions = draw(st.lists(st.text(_KEY_TEXT, max_size=64), min_size=1, max_size=4, unique=True))
    classes = draw(st.lists(st.text(_KEY_TEXT, max_size=9), min_size=1, max_size=3, unique=True)) + [""]
    raw = draw(st.booleans())
    grouped = st.permutations(students).map(lambda drawn: [s for s in drawn for _ in range(2)])
    order = draw(st.one_of(st.permutations(students * 2), grouped))
    records = [",".join([s, draw(st.sampled_from(questions)), draw(st.sampled_from(classes)),
                         *(["1", "2"] if raw else ["1"])]) for s in order]
    return raw, (RAW_HEADER if raw else _BINARY_HEADER) + "\n".join(records) + "\n"


@settings(max_examples=100, deadline=None)
@given(case=_many_keys_csv())
def test_byte_path_codes_ids_as_the_csv_path_does(tmp_path_factory, case):
    raw, text = case
    path = _write(tmp_path_factory.mktemp("keys"), text)
    with mock.patch.object(data, "_READ_BYTES", 40), mock.patch.object(data, "_FIRST_SLOTS", 8):
        fast, at, _ = _bytes_read(path, raw)
    assert at is None
    _assert_same(fast, _csv_read(path, raw))


@pytest.mark.parametrize("raw", [True, False], ids=["raw", "binary"])
def test_csv_path_reads_on_from_the_block_the_byte_path_stopped_at(tmp_path, monkeypatch, raw):
    monkeypatch.setattr(data, "_READ_BYTES", 40)
    tail = ",2" if raw else ""
    records = [f"s{i % 7},q{i % 3},c{i % 3},1{tail}" for i in range(30)]
    records[25] = '"s,' + records[25].replace(",", '",', 1)   # a quoted id in a late block
    path = _write(tmp_path, (RAW_HEADER if raw else _BINARY_HEADER) + "\n".join(records) + "\n")
    want = _csv_read(path, raw)
    fast, _, line = _bytes_read(path, raw)
    assert 20 <= fast[3].size == line - 2 <= 25
    seen, real = [], csv.reader

    def reader(fh):
        for record in real(fh):
            seen.append(record)
            yield record

    monkeypatch.setattr(data.csv, "reader", reader)
    _assert_same(_read(path, raw), want)
    assert seen == list(real(records[line - 2:]))   # from the block holding the quote on
    records[27] = records[27].replace("s", "s,")   # an error after the quote
    path = _write(tmp_path, (RAW_HEADER if raw else _BINARY_HEADER) + "\n".join(records) + "\n")
    with pytest.raises(ParseError, match="at line 29") as exc:
        (load_raw_csv if raw else load_binary_csv)(path)
    assert (exc.value.path, exc.value.line) == (path, 29)


def test_byte_path_stops_where_the_file_outgrows_its_line_count(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_READ_BYTES", 40)
    path = _write(tmp_path, RAW_HEADER + "".join(f"s{i % 5},q{i % 4},c,1,2\n" for i in range(30)))
    want = _csv_read(path, True)
    monkeypatch.setattr(data, "_line_count", lambda fh: 4)   # lines appended after the count
    fast, at, line = _bytes_read(path, True)
    rows = fast[3].size
    assert 0 < rows <= 4 and line == rows + 2 and at == len(RAW_HEADER) + 12 * rows
    _assert_same(_read(path, True), want)


def test_byte_path_stops_at_a_line_no_record_fills(tmp_path):
    body = "s1,q1,c1,1,2\r" * 50   # bare '\r' line ends after a '\n' header: csv.reader's records
    path = _write(tmp_path, RAW_HEADER + body)
    limit = csv.field_size_limit(15)   # the header's longest field: no record is longer than 80 characters
    try:
        with mock.patch.object(data, "_READ_BYTES", 16), mock.patch.object(data, "_read_block") as parse:
            assert _bytes_read(path, True)[1:] == (len(RAW_HEADER), 2)
            assert not parse.called   # given up before the file's end
        with mock.patch.object(data, "_READ_BYTES", 16):
            _assert_same(_read(path, True), _csv_read(path, True))
    finally:
        csv.field_size_limit(limit)
    assert rows_of(_read(path, True)) == cells([Row("s1", "q1", "c1", 1, 2)] * 50)


@pytest.mark.parametrize("quoted", [False, True], ids=["byte path", "csv path"])
@pytest.mark.parametrize("raw", [True, False], ids=["raw", "binary"])
def test_one_leading_byte_order_mark_is_skipped(tmp_path, raw, quoted):
    marks = ",1,2" if raw else ",1"
    text = ((RAW_HEADER if raw else _BINARY_HEADER) + f"s1,q1,c1{marks}\n"
            + ('"s,2"' if quoted else "s2") + f",q2,{marks}\n")
    load = load_raw_csv if raw else load_binary_csv
    plain = _write(tmp_path, text, "plain.csv")
    marked = str(tmp_path / "marked.csv")
    with open(marked, "wb") as fh:
        fh.write(codecs.BOM_UTF8 + text.encode())
    _assert_same_dataset(load(marked), load(plain))
    with open(marked, "wb") as fh:   # a second mark is text: the header's first field
        fh.write(codecs.BOM_UTF8 * 2 + text.encode())
    with pytest.raises(ParseError, match="bad header") as exc:
        load(marked)
    assert (exc.value.path, exc.value.line) == (marked, 1)


def test_byte_order_mark_after_the_start_is_text(tmp_path):
    path = _write(tmp_path, "\ufeff" + RAW_HEADER + "\ufeffs1,q1,c1,1,2\n")
    assert rows_of(load_raw_csv(path)) == cells([Row("\ufeffs1", "q1", "c1", 1, 2)])


@pytest.mark.parametrize("quoted", [False, True], ids=["byte path", "csv path"])
def test_field_over_the_field_size_limit_names_file_and_line(tmp_path, quoted):
    first = ('"s,1"' if quoted else "s1") + ",q1,c1,{},2\n\n"
    limit = csv.field_size_limit(20)   # the header's longest field has 15 characters
    try:
        assert len(load_raw_csv(_write(tmp_path, RAW_HEADER + first.format(1) + "s" * 20 + ",q1,c1,1,2\n"))) == 2
        with pytest.raises(ParseError, match="marks_awarded exceeds"):   # the records before it come first
            load_raw_csv(_write(tmp_path, RAW_HEADER + first.format(3) + "s" * 21 + ",q1,c1,1,2\n"))
        path = _write(tmp_path, RAW_HEADER + first.format(1) + "s" * 21 + ",q1,c1,1,2\n")
        with pytest.raises(ParseError) as exc:
            load_raw_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert str(exc.value) == f"{path}: field larger than field limit (20) at line 4"
    assert (exc.value.path, exc.value.line) == (path, 4)
