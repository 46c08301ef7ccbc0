"""Ingestion, binarization, splitting, and subsampling behavior."""

import numpy as np
import pytest

from irtkit.data import (
    NO_CLASS,
    ParseError,
    RawResponse,
    binarize,
    build_dataset,
    dataset_from_arrays,
    load_binary_csv,
    load_raw_csv,
    split_train_test,
    subsample_students,
    write_binary_csv,
)

RAW_HEADER = "student_id,question_id,class_id,marks_awarded,marks_available\n"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadRawCsv:
    def test_direct_field_mapping(self, tmp_path):
        path = _write(tmp_path, RAW_HEADER + "s1,q1,c1,2,3\n")
        assert load_raw_csv(path) == [RawResponse("s1", "q1", "c1", 2, 3)]

    def test_header_only_gives_empty_list(self, tmp_path):
        assert load_raw_csv(_write(tmp_path, RAW_HEADER)) == []

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
        assert load_raw_csv(path)[0].class_id == NO_CLASS


class TestBinarize:
    def test_more_than_half_is_correct(self):
        assert binarize(RawResponse("s", "q", "c", 2, 3)) == 1

    def test_exactly_half_is_incorrect(self):
        assert binarize(RawResponse("s", "q", "c", 1, 2)) == 0

    def test_zero_marks(self):
        assert binarize(RawResponse("s", "q", "c", 0, 5)) == 0

    def test_monotone_in_marks_awarded(self):
        for available in range(1, 11):
            bits = [binarize(RawResponse("s", "q", "c", a, available)) for a in range(available + 1)]
            assert bits == sorted(bits)


class TestBuildDataset:
    def test_counts(self):
        rows = [RawResponse("s1", "q1", "c1", 1, 1), RawResponse("s2", "q1", "c1", 0, 1)]
        d = build_dataset(rows)
        assert (d.num_students, d.num_questions, d.n_responses) == (2, 1, 2)

    def test_conflicting_class_is_an_error(self):
        rows = [RawResponse("s1", "q1", "c1", 1, 1), RawResponse("s1", "q2", "c2", 0, 1)]
        with pytest.raises(ValueError, match="conflicting class ids 'c1' and 'c2'"):
            build_dataset(rows)

    def test_duplicate_cell_is_an_error(self):
        rows = [RawResponse("s1", "q1", "c1", 1, 1), RawResponse("s1", "q1", "c1", 0, 1)]
        with pytest.raises(ValueError, match="duplicate response"):
            build_dataset(rows)

    def test_first_appearance_indexing(self):
        rows = [RawResponse("b", "y", "c1", 1, 1), RawResponse("a", "x", "c2", 0, 1)]
        d = build_dataset(rows)
        assert d.student_ids == ("b", "a")
        assert d.question_ids == ("y", "x")

    def test_roundtrip_preserves_binarized_multiset(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for s in range(7):
            for q in range(5):
                if rng.random() < 0.7:
                    avail = int(rng.integers(1, 5))
                    rows.append(RawResponse(f"s{s}", f"q{q}", f"c{s % 2}",
                                            int(rng.integers(0, avail + 1)), avail))
        d = build_dataset(rows)
        path = str(tmp_path / "out.csv")
        write_binary_csv(d, path)
        d2 = build_dataset(load_binary_csv(path))
        original = sorted((r.student_id, r.question_id, binarize(r)) for r in rows)
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
        split = split_train_test(d, 0.25, seed=3)
        assert split.train.n_responses + split.test.n_responses == d.n_responses
        cells = set(zip(d.student_idx, d.question_idx))
        train_cells = set(zip(split.train.student_idx, split.train.question_idx))
        test_cells = set(zip(split.test.student_idx, split.test.question_idx))
        assert train_cells | test_cells == cells
        assert not (train_cells & test_cells)

    def test_deterministic_given_seed(self):
        d = _toy_dataset()
        a = split_train_test(d, 0.2, seed=9)
        b = split_train_test(d, 0.2, seed=9)
        assert np.array_equal(a.train.student_idx, b.train.student_idx)
        assert np.array_equal(a.test.question_idx, b.test.question_idx)

    def test_proportions_near_fraction(self):
        d = dataset_from_arrays(np.zeros(10, dtype=np.int64), np.arange(10), np.ones(10, dtype=np.int8),
                                class_of=np.zeros(1, dtype=np.int64))
        split = split_train_test(d, 0.2, seed=0)
        assert split.test.n_responses == 2

    def test_single_response_student_lands_in_train(self):
        d = dataset_from_arrays([0, 1, 1, 1], [0, 0, 1, 2], [1, 0, 1, 0],
                                class_of=np.zeros(2, dtype=np.int64))
        for seed in range(10):
            split = split_train_test(d, 0.5, seed=seed)
            assert 0 in split.train.student_idx

    def test_every_student_keeps_a_training_response(self):
        d = _toy_dataset(seed=4)
        split = split_train_test(d, 0.9, seed=2)
        assert set(d.student_idx) == set(split.train.student_idx)

    def test_fraction_bounds(self):
        d = _toy_dataset()
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                split_train_test(d, bad, seed=0)


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

    def test_deterministic(self):
        d = _toy_dataset()
        assert subsample_students(d, 0.4, seed=3).student_ids == subsample_students(d, 0.4, seed=3).student_ids
