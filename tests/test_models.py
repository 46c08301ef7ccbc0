"""The logits kernel, the stable logistic, and the decision rule."""

import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from irtkit import models, vi
from irtkit.data import split_train_test, subsample_students
from irtkit.experiments import SEED_DATA, SEED_SPLIT, low_data_synth_config
from irtkit.metrics import accuracy
from irtkit.models import (FAMILY, Params, class_cells, logits, predict_proba_array, sigmoid, softplus,
                           tensor_table, vec_rows)
from irtkit.optim import init_params
from irtkit.synth import generate_synthetic

from oracles import two_branch_sigmoid

# every float64 hypothesis can draw: +-0, +-inf, subnormals and NaN included
_ANY_FLOAT = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
_EDGES = [0.0, -0.0, math.inf, -math.inf, 800.0, -800.0, -745.2, 1e-300, -1e-300, 5e-324, -5e-324]


def test_sigmoid_matches_reference_over_wide_range():
    x = np.linspace(-35, 35, 2001)
    np.testing.assert_allclose(sigmoid(x), expit(x), rtol=0, atol=1e-15)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
                  elements=_ANY_FLOAT))
@example(np.array(_EDGES + [math.nan]))
def test_sigmoid_is_bit_identical_to_two_branch_reference(x):
    _assert_same_bits(sigmoid(x), two_branch_sigmoid(x))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
                  elements=_ANY_FLOAT))
@example(np.array(_EDGES + [math.nan]))
def test_passing_shared_exp_keeps_sigmoid_and_softplus_bits(x):
    """The ELBO takes e = exp(-|z|) once for both softplus and sigmoid."""
    e = np.exp(-np.abs(x))
    _assert_same_bits(sigmoid(x, e), two_branch_sigmoid(x))
    _assert_same_bits(softplus(x, e), softplus(x))


def _assert_scalar_matches(v):
    out = sigmoid(v)
    assert type(out) is float
    _assert_same_bits(out, two_branch_sigmoid(v))


@given(_ANY_FLOAT)
def test_sigmoid_scalar_is_a_bit_identical_float(v):
    _assert_scalar_matches(v)


@pytest.mark.parametrize("v", _EDGES + [math.nan])
def test_sigmoid_scalar_edges(v):
    _assert_scalar_matches(v)


def test_sigmoid_symmetry_within_1e12():
    rng = np.random.default_rng(0)
    x = rng.uniform(-60, 60, 5000)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def _logit(params, s, q, class_of=None):
    """Logit of one cell through the array kernel."""
    return logits(params, [s], [q], None if class_of is None else class_of[[s]])[0][0]


def _prob(params, s, q, class_of=None):
    """P(correct) of one cell through the array prediction path."""
    return predict_proba_array(params, [s], [q], class_of)[0]


def _label(p, threshold=0.5):
    """The accuracy decision rule applied to one probability: 1 predicts correct."""
    return accuracy([p], [1], threshold)["correct"]


_SIZES = dict(S=st.integers(1, 7), Q=st.integers(1, 7), C=st.integers(1, 4), D=st.integers(1, 4),
              seed=st.integers(0, 2**32 - 1))


def _assert_zero_term_reduces_to_rasch(kind, zero, S, Q, C, D, seed):
    """With vec or demand all zero, every probability equals rasch's bit for bit."""
    rng = np.random.default_rng(seed)
    class_of = rng.integers(0, C, size=S)
    ability, easiness = rng.normal(size=S), rng.normal(size=Q)
    vec = rng.normal(size=(S if kind == "interaction" else C, D))
    demand = rng.normal(size=(Q, D))
    params = Params(ability, easiness, np.zeros_like(vec) if zero == "vec" else vec,
                    np.zeros_like(demand) if zero == "demand" else demand, kind=kind)
    s_idx, q_idx = np.repeat(np.arange(S), Q), np.tile(np.arange(Q), S)
    got = predict_proba_array(params, s_idx, q_idx, class_of)
    want = predict_proba_array(Params(ability, easiness, kind="rasch"), s_idx, q_idx)
    assert got.tobytes() == want.tobytes()


class TestRasch:
    def test_zero_gives_half(self):
        p = Params(np.array([0.0]), np.array([0.0]), kind="rasch")
        assert _logit(p, 0, 0) == 0.0
        assert _prob(p, 0, 0) == 0.5

    def test_logistic_evaluation(self):
        p = Params(np.array([1.0]), np.array([0.5]), kind="rasch")
        assert _logit(p, 0, 0) == 1.5
        assert _prob(p, 0, 0) == pytest.approx(0.8175744761936437, abs=1e-15)

    def test_log3_gives_three_quarters(self):
        p = Params(np.array([math.log(3)]), np.array([0.0]), kind="rasch")
        assert _prob(p, 0, 0) == pytest.approx(0.75, abs=1e-15)


class TestInteraction:
    def test_all_zeros(self):
        p = Params(np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), kind="interaction")
        assert _logit(p, 0, 0) == 0.0

    def test_unit_product(self):
        p = Params(np.zeros(1), np.zeros(1), np.ones((1, 1)), np.ones((1, 1)), kind="interaction")
        assert _logit(p, 0, 0) == 1.0
        assert _prob(p, 0, 0) == pytest.approx(
            0.7310585786300049, abs=1e-15)

    @given(kind=st.sampled_from(["interaction", "class-interaction"]), **_SIZES)
    def test_zero_demand_reduces_exactly_to_rasch(self, kind, S, Q, C, D, seed):
        _assert_zero_term_reduces_to_rasch(kind, "demand", S, Q, C, D, seed)

    @given(**_SIZES)
    def test_zero_skill_reduces_exactly_to_rasch(self, S, Q, C, D, seed):
        _assert_zero_term_reduces_to_rasch("interaction", "vec", S, Q, C, D, seed)


class TestClassInteraction:
    def test_same_class_same_logits(self):
        class_of = np.array([0, 0, 1])
        p = Params(np.array([0.4, 0.4, 0.1]), np.array([0.0, -1.0]),
                   np.array([[1.5], [-0.5]]), np.array([[0.3], [2.0]]), kind="class-interaction")
        for q in range(2):
            assert _logit(p, 0, q, class_of) == _logit(p, 1, q, class_of)

    def test_arithmetic(self):
        class_of = np.array([0])
        p = Params(np.zeros(1), np.zeros(1), np.array([[2.0]]), np.array([[-1.0]]), kind="class-interaction")
        assert _logit(p, 0, 0, class_of) == -2.0

    @given(**_SIZES)
    def test_zero_class_skill_reduces_to_rasch(self, S, Q, C, D, seed):
        _assert_zero_term_reduces_to_rasch("class-interaction", "vec", S, Q, C, D, seed)

    def test_permuting_students_within_class_is_invariant(self):
        class_of = np.array([0, 0])
        p = Params(np.array([0.7, 0.7]), np.array([0.2]),
                   np.array([[1.0, -2.0]]), np.array([[0.5, 0.5]]), kind="class-interaction")
        assert _logit(p, 0, 0, class_of) == _logit(p, 1, 0, class_of)


class TestClassCells:
    """The cell route serves class kinds only, and only with fewer cells than responses."""

    @staticmethod
    def _cells(kind, data):
        return class_cells(kind, vec_rows(kind, data.student_idx, data.class_of), data.question_idx,
                           data.num_classes, data.num_questions)

    @staticmethod
    def _low_data_train():
        """The training set of the low-data sweep at fraction 0.15, seed 0."""
        full = generate_synthetic(low_data_synth_config(SEED_DATA))[0]
        return split_train_test(subsample_students(full, 0.15, SEED_SPLIT), 0.2, SEED_SPLIT)[0]

    @pytest.mark.parametrize("kind", ["class-interaction", "class-interaction-vi"])
    def test_class_kinds_take_cells_when_fewer_than_responses(self, kind):
        data = self._low_data_train()
        assert data.num_classes * data.num_questions < data.n_responses
        want = data.class_of[data.student_idx] * data.num_questions + data.question_idx
        assert np.array_equal(self._cells(kind, data), want)

    @pytest.mark.parametrize("kind", ["rasch", "rasch-vi", "interaction", "interaction-vi"])
    def test_other_kinds_keep_rows(self, kind):
        # the same sizes that give a class kind cells
        assert self._cells(kind, self._low_data_train()) is None

    @pytest.mark.parametrize("kind", ["class-interaction", "class-interaction-vi"])
    @pytest.mark.parametrize("n, cells", [(0, False), (5, False), (6, False), (7, True)])
    def test_rows_unless_cells_are_fewer_than_responses(self, kind, n, cells):
        # 3 classes x 2 questions = 6 cells
        rng = np.random.default_rng(n)
        s_idx, q_idx = np.arange(n) % 4, rng.integers(0, 2, n)
        rows = np.array([0, 1, 2, 0])[s_idx]
        got = class_cells(kind, rows, q_idx, 3, 2)
        assert (got is not None) == cells
        if cells:
            assert np.array_equal(got, rows * 2 + q_idx)

    @pytest.mark.parametrize("kind", ["class-interaction-vi", "rasch-vi"])
    def test_cell_route_reads_no_question_rows(self, monkeypatch, kind):
        # the same data gives class-interaction-vi cells and rasch-vi rows
        data = self._low_data_train()
        params = init_params(kind, 3, data.num_students, data.num_questions, data.num_classes,
                             np.random.default_rng(0), 0.1, 0.8)

        def question_rows(*args):
            raise AssertionError("question_rows called")

        for module in (models, vi):
            monkeypatch.setattr(module, "question_rows", question_rows)
        if kind == "rasch-vi":
            with pytest.raises(AssertionError, match="question_rows called"):
                vi.elbo_mc(params, data, 5, 0, want_grads=True)
        else:
            elbo, grads = vi.elbo_mc(params, data, 5, 0, want_grads=True)
            assert np.isfinite(elbo) and all(np.isfinite(g).all() for g in grads.values())


class TestPredictProb:
    def test_saturation_without_overflow(self):
        p = Params(np.array([40.0]), np.array([0.0]), kind="rasch")
        val = _prob(p, 0, 0)
        assert val < 1.0
        assert val > 1.0 - 1e-15

    def test_extreme_logits_stay_in_open_interval(self):
        for logit in (-500.0, -100.0, 100.0, 500.0):
            p = Params(np.array([logit]), np.array([0.0]), kind="rasch")
            val = _prob(p, 0, 0)
            assert 0.0 < val < 1.0
            assert math.isfinite(val)


class TestPredictLabel:
    def test_above_threshold(self):
        assert _label(0.6, 0.5) == 1

    def test_tie_predicts_correct(self):
        assert _label(0.5, 0.5) == 1

    def test_below_threshold(self):
        assert _label(0.49, 0.5) == 0


def test_model_spec_validation():
    with pytest.raises(ValueError):
        Params(np.zeros(1), np.zeros(1), kind="unknown")
    with pytest.raises(ValueError):
        tensor_table("interaction", 0, 1, 1, 1)
    assert init_params("rasch", 7, 1, 1, 1, np.random.default_rng(0), 0.01).dims == 0


@pytest.mark.parametrize("kind", FAMILY)
@given(dims=st.integers(1, 3), S=st.integers(1, 4), Q=st.integers(1, 4), C=st.integers(1, 3))
def test_params_builds_iff_it_holds_its_kinds_tensor_table(kind, dims, S, Q, C):
    """For every subset of the optional tensors, a container builds exactly when it holds its kind's table."""
    rows = C if FAMILY[kind] == "class-interaction" else S
    shapes = {"vec": (rows, dims), "demand": (Q, dims), "ability_rho": (S,), "vec_rho": (rows, dims)}
    table = tensor_table(kind, dims, S, Q, C)
    for held in chain.from_iterable(combinations(shapes, r) for r in range(len(shapes) + 1)):
        tensors = {name: np.zeros(shapes[name]) for name in held}
        if {"ability", "easiness", *held} == table.keys():
            assert Params(np.zeros(S), np.zeros(Q), kind=kind, **tensors).tensors().keys() == table.keys()
        else:
            with pytest.raises(ValueError, match=f"^{kind} params must hold "):
                Params(np.zeros(S), np.zeros(Q), kind=kind, **tensors)
