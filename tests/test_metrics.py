"""Accuracy metrics, the two-proportion z-test, and cosine similarity."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit.metrics import accuracy, cosine_similarity_matrix, two_proportion_z_test

from oracles import log_loss


class TestAccuracy:
    def test_counting(self):
        report = accuracy([0.6, 0.4, 0.7], [1, 0, 0])
        assert report["accuracy"] == pytest.approx(2 / 3)
        assert report["n"] == 3
        assert report["correct"] == 2

    def test_perfect_predictions(self):
        report = accuracy([0.9, 0.1, 0.8], [1, 0, 1])
        assert report["accuracy"] == 1.0

    def test_all_positive(self):
        report = accuracy([0.9, 0.9, 0.9], [1, 1, 1])
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0

    def test_precision_recall_counts(self):
        report = accuracy([0.9, 0.9, 0.1, 0.1], [1, 0, 1, 0])
        assert report["precision"] == pytest.approx(0.5)
        assert report["recall"] == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.random(50)
        labels = rng.integers(0, 2, 50)
        perm = rng.permutation(50)
        assert accuracy(preds, labels)["accuracy"] == accuracy(preds[perm], labels[perm])["accuracy"]

    def test_threshold_tie_counts_as_positive(self):
        report = accuracy([0.5], [1], threshold=0.5)
        assert report["accuracy"] == 1.0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.01, 1.01])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must be in \[0, 1\]"):
            accuracy([0.2, 0.8], [0, 1], threshold=threshold)

    @pytest.mark.parametrize("preds", [[math.nan, 0.7], [0.2, math.inf], [-0.01, 0.5], [0.5, 1.01]])
    def test_prediction_outside_unit_interval_rejected(self, preds):
        with pytest.raises(ValueError, match=r"^predictions must be probabilities in \[0, 1\]$"):
            accuracy(preds, [1, 1])

    def test_closed_interval_ends_are_thresholds(self):
        assert accuracy([0.0, 1.0], [0, 1], threshold=0.0)["correct"] == 1
        assert accuracy([0.0, 1.0], [0, 1], threshold=1.0)["correct"] == 2

    def test_report_is_the_json_record(self):
        report = accuracy(np.array([0.9, 0.2, 0.7]), np.array([1, 0, 0]), threshold=0.6)
        assert list(report) == ["n", "correct", "accuracy", "precision", "recall", "threshold"]
        assert type(report["n"]) is int and type(report["correct"]) is int
        assert json.loads(json.dumps(report)) == report


class TestTwoProportionZTest:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, 1.0, -0.05])
    def test_alpha_outside_open_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^every alpha must be in \(0, 1\)"):
            two_proportion_z_test(30, 100, 40, 100, alphas=(0.05, alpha))

    def test_reported_comparison(self):
        result = two_proportion_z_test(94_440, 120_000, 95_280, 120_000, alphas=[0.01])
        assert result["p_hat"] == pytest.approx(0.7905, abs=1e-4)
        assert result["se"] == pytest.approx(0.00166, abs=1e-5)
        assert result["z"] == pytest.approx(4.21, abs=0.01)
        assert result["p_value"] == pytest.approx(2.5e-5, rel=0.1)
        assert 0.01 in result["significant_at"]

    def test_equal_proportions_give_zero(self):
        assert two_proportion_z_test(30, 100, 30, 100)["z"] == 0.0

    def test_antisymmetry_is_exact(self):
        a = two_proportion_z_test(50, 120, 70, 130)
        b = two_proportion_z_test(70, 130, 50, 120)
        assert a["z"] == -b["z"]

    def test_against_independent_recomputation(self):
        x1, n1, x2, n2 = 50, 100, 60, 100
        result = two_proportion_z_test(x1, n1, x2, n2)
        p_hat = (x1 + x2) / (n1 + n2)
        se = math.sqrt(p_hat * (1 - p_hat) * (1 / n1 + 1 / n2))
        z = (x2 / n2 - x1 / n1) / se
        assert result["z"] == pytest.approx(z, abs=1e-10)
        assert result["se"] == pytest.approx(se, abs=1e-10)

    def test_degenerate_pooled_proportion_rejected(self):
        with pytest.raises(ValueError):
            two_proportion_z_test(0, 10, 0, 10)
        with pytest.raises(ValueError):
            two_proportion_z_test(10, 10, 10, 10)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            two_proportion_z_test(11, 10, 5, 10)

    def test_result_is_the_json_record(self):
        result = two_proportion_z_test(50, 120, 70, 130, alphas=(0.01, 0.05))
        assert list(result) == ["p_hat", "se", "z", "p_value", "significant_at"]
        assert result["significant_at"] == [a for a in (0.01, 0.05) if result["p_value"] < a]
        assert json.loads(json.dumps(result)) == result


class TestCosineSimilarity:
    def test_identical_rows(self):
        sim, _ = cosine_similarity_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows(self):
        sim, _ = cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        sim, _ = cosine_similarity_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert sim[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry_unit_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(12, 4))
        sim, _ = cosine_similarity_matrix(m)
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 1.0)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 3))
        scaled = m.copy()
        scaled[2] *= 37.5
        a, _ = cosine_similarity_matrix(m)
        b, _ = cosine_similarity_matrix(scaled)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_row_is_flagged_not_fatal(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="zero embedding rows"):
            sim, record = cosine_similarity_matrix(m)
        assert record["zero_rows"] == [1]
        assert sim[1, 1] == 1.0
        assert sim[1, 0] == 0.0 and sim[0, 1] == 0.0

    def test_display_rescale_is_flagged(self):
        rng = np.random.default_rng(3)
        sim, record = cosine_similarity_matrix(rng.normal(size=(5, 3)), rescale_display=True)
        assert record["rescaled"]
        off = sim[~np.eye(5, dtype=bool)]
        assert off.min() == pytest.approx(0.0, abs=1e-12)
        assert off.max() == pytest.approx(1.0, abs=1e-12)


@st.composite
def _demands(draw):
    """A random Q x D embedding matrix (Q 1-8, D 1-4), some rows all zero, and positive row scales."""
    q, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(q, d))
    zero = np.array(draw(st.lists(st.booleans(), min_size=q, max_size=q)))
    m[zero] = 0.0
    scales = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=q, max_size=q)))
    return m, np.flatnonzero(zero).tolist(), scales, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_demands())
def test_similarity_record_properties(case):
    """Symmetric, unit diagonal, in [-1, 1], invariant to positive row scales; zero rows listed and 0
    off the diagonal; rescaled exactly when asked for, Q > 1 and the off-diagonal entries differ."""
    m, zero_rows, scales, rescale = case
    q = m.shape[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values, record = cosine_similarity_matrix(m)
        scaled, _ = cosine_similarity_matrix(m * scales[:, None])
        shown, shown_record = cosine_similarity_matrix(m, rescale_display=rescale)
    assert len(caught) == (3 if zero_rows else 0)
    assert list(record) == ["rescaled", "zero_rows"] and record == {"rescaled": False, "zero_rows": zero_rows}
    assert np.array_equal(values, values.T) and np.all(np.diag(values) == 1.0)
    assert np.all(values >= -1.0) and np.all(values <= 1.0)
    np.testing.assert_allclose(scaled, values, rtol=0, atol=1e-12)
    off = ~np.eye(q, dtype=bool)
    for i in zero_rows:
        assert np.all(values[i][off[i]] == 0.0) and np.all(values[:, i][off[:, i]] == 0.0)
    assert shown_record == {"rescaled": bool(rescale and q > 1 and np.ptp(values[off]) > 0), "zero_rows": zero_rows}
    if not shown_record["rescaled"]:
        assert np.array_equal(shown, values)


@settings(max_examples=200, deadline=None)
@given(case=_demands(), exponents=st.lists(st.integers(-300, 300), min_size=8, max_size=8))
def test_similarity_holds_at_row_scales_from_1e_minus_300_to_1e300(case, exponents):
    """Rows times 10^k, k in [-300, 300], where their sums of squares underflow or overflow:
    the same similarities within 1e-12, the same zero rows, and no warning but theirs."""
    m, zero_rows, _, _ = case
    scales = 10.0 ** np.array(exponents[:m.shape[0]], dtype=np.float64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values, record = cosine_similarity_matrix(m)
        scaled, scaled_record = cosine_similarity_matrix(m * scales[:, None])
    assert len(caught) == (2 if zero_rows else 0)
    assert scaled_record == record == {"rescaled": False, "zero_rows": zero_rows}
    np.testing.assert_allclose(scaled, values, rtol=0, atol=1e-12)


def test_similarity_of_rows_whose_squares_underflow_or_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for demand in ([[1e-200, 0.0], [1.0, 0.0]], [[1e200, 1e200], [1.0, 1.0]], [[1e-160, 3e-160], [1.0, 3.0]]):
            values, record = cosine_similarity_matrix(demand)
            np.testing.assert_allclose(values, np.ones((2, 2)), rtol=0, atol=1e-15)
            assert record == {"rescaled": False, "zero_rows": []}


def test_log_loss_matches_hand_value():
    assert log_loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2), abs=1e-12)
