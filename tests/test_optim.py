"""NLL, analytic gradients, the SGD loop, and its oracles."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit import optim
from irtkit.models import POINT_KINDS, Params, logits, softplus, tensor_table, vec_rows
from irtkit.optim import (
    _NLL_CHUNK,
    TrainConfig,
    TrainingDiverged,
    copy_params,
    init_params,
    nll,
    sgd_train,
)

from irtkit.vi import VIConfig, train_vi

from oracles import (dataset_from_arrays, finite_diff_check, grad_nll, gradient_instances, grid_search_rasch_nll,
                     sgd_reference)


def _single_obs(y):
    return dataset_from_arrays([0], [0], [y], class_of=np.zeros(1, dtype=np.int64))


def _random_instance(kind, dims, S, Q, C, seed, density=1.0):
    rng = np.random.default_rng(seed)
    params = init_params(kind, dims, S, Q, C, rng, 1.0)
    s_idx, q_idx, y = [], [], []
    for s in range(S):
        for q in range(Q):
            if rng.random() <= density:
                s_idx.append(s)
                q_idx.append(q)
                y.append(int(rng.integers(0, 2)))
    class_of = rng.integers(0, C, size=S)
    data = dataset_from_arrays(s_idx, q_idx, y, class_of=class_of,
                               question_ids=tuple(f"q{i}" for i in range(Q)),
                               class_ids=tuple(f"c{i}" for i in range(C)))
    return params, data


class TestNll:
    def test_single_observation_at_even_odds(self):
        params = Params(np.zeros(1), np.zeros(1), kind="rasch")
        assert nll(params, _single_obs(1)) == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_correct_prediction(self):
        params = Params(np.array([30.0]), np.array([0.0]), kind="rasch")
        assert nll(params, _single_obs(1)) < 1e-12

    def test_additivity_under_duplication(self):
        params, data = _random_instance("rasch", 0, 3, 4, 1, seed=0)
        doubled = dataset_from_arrays(
            np.concatenate([data.student_idx, data.student_idx]),
            np.concatenate([data.question_idx, data.question_idx]),
            np.concatenate([data.y, data.y]),
            class_of=data.class_of,
            question_ids=data.question_ids,
        )
        assert nll(params, doubled) == pytest.approx(2 * nll(params, data), rel=1e-12)

    def test_order_invariance(self):
        params, data = _random_instance("interaction", 2, 4, 5, 1, seed=1)
        perm = np.random.default_rng(2).permutation(data.n_responses)
        shuffled = data.select(perm)
        assert nll(params, shuffled) == pytest.approx(nll(params, data), rel=1e-10)

    @given(spec=st.sampled_from([("rasch", 0), ("interaction", 2), ("class-interaction", 3)]),
           shift=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_rasch_gauge_freedom(self, spec, shift, seed):
        """Moving a constant from easiness to ability leaves every kind's logits alone."""
        params, data = _random_instance(*spec, 5, 6, 2, seed=seed)
        shifted = Params(params.ability + shift, params.easiness - shift, params.vec, params.demand,
                         kind=params.kind)
        # exact identity up to float rounding of the shifted parameters
        assert nll(shifted, data) == pytest.approx(nll(params, data), abs=5e-10)

    @pytest.mark.parametrize("n", [0, 1, _NLL_CHUNK, _NLL_CHUNK + 1, 5 * _NLL_CHUNK // 2])
    @pytest.mark.parametrize("spec", [("rasch", 0), ("class-interaction", 2)])
    def test_chunked_sum_is_the_one_shot_sum(self, spec, n):
        """nll's chunks and single np.sum give the bits of the sum over all rows at once."""
        rng = np.random.default_rng(n)
        params = init_params(*spec, 50, 7, 3, rng, 2.0)
        data = dataset_from_arrays(rng.integers(0, 50, n), rng.integers(0, 7, n), rng.integers(0, 2, n),
                                   class_of=rng.integers(0, 3, 50), question_ids=tuple(f"q{i}" for i in range(7)),
                                   class_ids=("c0", "c1", "c2"))
        z = logits(params, data.student_idx, data.question_idx,
                   vec_rows(params.kind, data.student_idx, data.class_of))[0]
        want = float(np.sum(softplus(z) - data.y * z))
        assert nll(params, data) == want


class TestGradNll:
    def test_residual_formula_at_even_odds(self):
        params = Params(np.zeros(1), np.zeros(1), kind="rasch")
        g = grad_nll(params, _single_obs(1))
        assert g.ability[0] == pytest.approx(-0.5, abs=1e-15)
        assert g.easiness[0] == pytest.approx(-0.5, abs=1e-15)

    def test_gradient_vanishes_at_perfect_fit(self):
        params = Params(np.array([35.0]), np.array([0.0]), kind="rasch")
        g = grad_nll(params, _single_obs(1))
        assert abs(g.ability[0]) < 1e-12

    def test_interaction_gradient_matches_finite_differences(self):
        params, data = _random_instance("interaction", 1, 3, 3, 1, seed=4)
        assert finite_diff_check(params, data, epsilon=1e-5) < 1e-4

    def test_empty_batch_rejected(self):
        params, data = _random_instance("rasch", 0, 2, 2, 1, seed=5)
        with pytest.raises(ValueError):
            grad_nll(params, data.select(np.array([], dtype=np.int64)))

    @pytest.mark.parametrize("spec", [("rasch", 0), ("interaction", 3), ("class-interaction", 2)])
    def test_finite_differences_all_kinds(self, spec):
        params, data = _random_instance(*spec, 4, 5, 2, seed=6, density=0.8)
        assert finite_diff_check(params, data, epsilon=1e-5) < 1e-4
        assert finite_diff_check(params, data, epsilon=1e-5, l2_penalty=0.05) < 1e-4

    def test_single_cell_instance(self):
        params = Params(np.array([0.3]), np.array([-0.2]), kind="rasch")
        assert finite_diff_check(params, _single_obs(1), epsilon=1e-5) < 1e-4


    @settings(max_examples=100, deadline=None)
    @given(instance=gradient_instances(POINT_KINDS), l2_penalty=st.sampled_from([0.0, 0.05]))
    def test_finite_differences_over_random_batches(self, instance, l2_penalty):
        """Every point kind, on small batches with repeated and absent students, within the fixed cases' 1e-4."""
        params, data, _ = instance
        assert finite_diff_check(params, data, epsilon=1e-5, l2_penalty=l2_penalty) < 1e-4


@st.composite
def sgd_instances(draw):
    """A point kind, its data, a config and maybe a warm start, for comparing sgd_train with sgd_reference.

    S 1-6 students (any of them absent or answering several times), Q 1-6
    questions (question codes of 0-3 bits), C 1-3 classes, D 1-2, 1-60
    responses, batches of 1-7 that often leave a short last one, and nll
    chunks (the patched _NLL_CHUNK) of 1-16 rows; warm starts hold exact
    -0.0 entries, and a convergence_tol up to 0.05 stops some fits early.
    l2 is 0, 0.01, or such that lr * l2 is 0.5 (the shared scale halves
    each batch, and a fit of 21 or more batches an epoch folds it mid-epoch),
    1 or 1.5 (the factor 1 - lr * l2 is about 0 or negative, and every batch
    folds).
    """
    kind = draw(st.sampled_from(POINT_KINDS))
    S, Q, C, D = (draw(st.integers(1, high)) for high in (6, 6, 3, 2))
    N = draw(st.integers(1, 60))
    column = lambda n: st.lists(st.integers(0, n - 1), min_size=N, max_size=N)
    data = dataset_from_arrays(draw(column(S)), draw(column(Q)), draw(column(2)),
                               class_of=draw(st.lists(st.integers(0, C - 1), min_size=S, max_size=S)),
                               question_ids=[f"q{i}" for i in range(Q)], class_ids=[f"c{i}" for i in range(C)])
    lr = draw(st.sampled_from([0.05, 0.3]))
    l2 = draw(st.sampled_from([0.0, 0.01]) | st.sampled_from([0.5, 1.0, 1.5]).map(lambda k: k / lr))
    cfg = TrainConfig(learning_rate=lr, l2_penalty=l2, epochs=draw(st.integers(1, 6)),
                      batch_size=draw(st.integers(1, 7)), seed=draw(st.integers(0, 2**32 - 1)),
                      init_scale=draw(st.sampled_from([0.0, 0.1])),
                      convergence_tol=draw(st.sampled_from([0.0, 1e-3, 0.05])))
    warm = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tensors = {}
        for name, (_, shape) in tensor_table(kind, D, S, Q, C).items():
            arr = rng.uniform(-1.0, 1.0, shape)
            arr[rng.random(shape) < 0.3] = -0.0
            tensors[name] = arr
        warm = Params(kind=kind, **tensors)
    return kind, data, cfg, D, warm, draw(st.integers(1, 16))


def _bits(params, trace) -> list:
    return [(name, arr.tobytes()) for name, arr in params.tensors().items()] + [np.asarray(trace).tobytes()]


class TestSgdTrain:
    @pytest.mark.parametrize("students", [0, 3])
    def test_empty_training_data_rejected(self, students):
        data = dataset_from_arrays([], [], [], class_of=np.zeros(students, dtype=np.int64),
                                   question_ids=("q0",))
        with pytest.raises(ValueError, match="^training data must be non-empty$"):
            sgd_train("rasch", data, TrainConfig(epochs=3))

    def test_separable_data_with_l2_gets_positive_logits(self):
        data = dataset_from_arrays([0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1],
                                   class_of=np.zeros(2, dtype=np.int64))
        cfg = TrainConfig(learning_rate=0.5, epochs=400, batch_size=8, l2_penalty=1e-3,
                          convergence_tol=0.0, seed=0)
        params, _ = sgd_train("rasch", data, cfg)
        for s in range(2):
            for q in range(2):
                assert params.ability[s] + params.easiness[q] > 0

    def test_interchangeable_students_learn_matching_abilities(self):
        data = dataset_from_arrays([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [1, 0, 1, 1, 0, 1],
                                   class_of=np.zeros(2, dtype=np.int64))
        cfg = TrainConfig(learning_rate=0.5, epochs=800, batch_size=16, l2_penalty=1e-4,
                          convergence_tol=0.0, init_scale=0.0, seed=1)
        params, _ = sgd_train("rasch", data, cfg)
        assert params.ability[0] == pytest.approx(params.ability[1], abs=1e-6)

    def test_reaches_grid_search_optimum_on_3x3(self):
        y_matrix = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=np.int8)
        data = dataset_from_arrays(np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3),
                                   y_matrix.reshape(-1), class_of=np.zeros(3, dtype=np.int64))
        cfg = TrainConfig(learning_rate=0.5, epochs=4000, batch_size=64, l2_penalty=1e-4,
                          convergence_tol=0.0, seed=5)
        params, report = sgd_train("rasch", data, cfg)
        grid_opt = grid_search_rasch_nll(y_matrix)
        assert abs(report.final_nll - grid_opt) < 1e-3

    def test_deterministic_given_seed(self):
        _, data = _random_instance("interaction", 2, 6, 5, 1, seed=7)
        cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=4, seed=42)
        a, _ = sgd_train("interaction", data, cfg, dims=2)
        b, _ = sgd_train("interaction", data, cfg, dims=2)
        assert np.array_equal(a.vec, b.vec)
        assert np.array_equal(a.easiness, b.easiness)

    @pytest.mark.parametrize("dims", [1.5, 2.0, True])
    def test_dims_not_an_integer_rejected(self, dims):
        _, data = _random_instance("interaction", 2, 6, 5, 1, seed=7)
        with pytest.raises(ValueError, match=rf"^interaction requires dims >= 1, got {dims!r}$"):
            sgd_train("interaction", data, TrainConfig(epochs=1), dims=dims)

    def test_numpy_integer_dims_trains_as_the_int(self):
        _, data = _random_instance("interaction", 2, 6, 5, 1, seed=7)
        a, _ = sgd_train("interaction", data, TrainConfig(epochs=2), dims=np.int64(2))
        b, _ = sgd_train("interaction", data, TrainConfig(epochs=2), dims=2)
        assert a.dims == 2 and all(np.array_equal(a.tensors()[k], v) for k, v in b.tensors().items())

    def test_divergence_names_the_epoch(self):
        # product terms overflow under an absurd learning rate; the plain
        # rasch objective is linear in |logit| and stays finite
        _, data = _random_instance("interaction", 2, 4, 4, 1, seed=8)
        cfg = TrainConfig(learning_rate=1e9, epochs=10, batch_size=4, init_scale=0.1, seed=0)
        with pytest.raises(TrainingDiverged, match="epoch"):
            with np.errstate(all="ignore"):
                sgd_train("interaction", data, cfg, dims=2)

    @pytest.mark.parametrize("epochs,init_scale", [(0, 1e308), (2, 1e160)])
    def test_non_finite_initial_nll_names_the_initial_parameters(self, epochs, init_scale):
        """The initial NLL is scored under the fit's errstate: no warning, and the error is epoch 0's."""
        _, data = _random_instance("interaction", 1, 60, 6, 1, seed=13)
        cfg = TrainConfig(epochs=epochs, init_scale=init_scale)
        message = "^non-finite training NLL at epoch 0 \\(initial parameters: init_scale or warm start too large\\?\\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match=message):
                sgd_train("interaction", data, cfg)
            with pytest.raises(TrainingDiverged, match=message):
                sgd_reference("interaction", data, cfg)

    def test_best_nll_not_worse_than_initial(self):
        _, data = _random_instance("rasch", 0, 5, 4, 1, seed=9)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=3)
        params, report = sgd_train("rasch", data, cfg)
        fresh = init_params("rasch", 0, 5, 4, 1, np.random.default_rng(3), cfg.init_scale)
        assert report.final_nll <= nll(fresh, data) + 1e-9

    def test_warm_start_shape_mismatch(self):
        _, data = _random_instance("rasch", 0, 5, 4, 1, seed=10)
        bad = Params(np.zeros(3), np.zeros(4), kind="rasch")
        with pytest.raises(ValueError, match="warm-start shape mismatch"):
            sgd_train("rasch", data, TrainConfig(epochs=1), warm_start=bad)

    def test_warm_start_resumes_from_given_params(self):
        _, data = _random_instance("rasch", 0, 5, 4, 1, seed=11)
        cfg = TrainConfig(learning_rate=0.2, epochs=50, batch_size=8, seed=0, convergence_tol=0.0)
        first, _ = sgd_train("rasch", data, cfg)
        resumed, report = sgd_train("rasch", data, TrainConfig(epochs=1, learning_rate=1e-9, seed=1),
                                    warm_start=first)
        assert report.final_nll == pytest.approx(nll(first, data), rel=1e-9)

    def test_warm_start_of_another_family_rejected(self):
        # every student its own class: interaction params have class-interaction shapes
        data = dataset_from_arrays([0, 1, 2], [0, 1, 0], [1, 0, 1], class_of=np.arange(3),
                                   class_ids=("c0", "c1", "c2"))
        inter, _ = sgd_train("interaction", data, TrainConfig(epochs=1), dims=1)
        with pytest.raises(ValueError, match="warm-start params are 'interaction', expected 'class-interaction'"):
            sgd_train("class-interaction", data, TrainConfig(epochs=1), dims=1, warm_start=inter)

    def test_vi_warm_start_names_the_families(self):
        data = _single_obs(1)
        vi_params, _ = train_vi("rasch-vi", data, VIConfig(epochs=0))
        with pytest.raises(ValueError, match="warm-start params are 'rasch-vi', expected 'rasch' for rasch"):
            sgd_train("rasch", data, TrainConfig(epochs=1), warm_start=vi_params)

    # SHA-256 over every final tensor (name, then float64 bytes) and the
    # nll_trace of a 6-epoch run with an l2 term on 40 x 12 cells at
    # density 0.7, in batches of 64 that leave a short last batch;
    # recorded when the step became the shared scale and row scatter
    # (numpy 2.4, x86-64). "interaction-warm" is a 1-D fit warm-started
    # from another.
    PINNED = {
        "rasch": "0c8ddf74cc421416dd49fc280384612a92f5e439a4f5652ecb426aa5b17bc59d",
        "interaction": "60e988dc5cdaf159562cda3c2ec7e84421967064d91fba62f49e1b9be34c9eb9",
        "class-interaction": "b6abca820f41d5b81c33676f03d1c6306bbf1922fcfbeb1393dd8ef7b4a5b384",
        "interaction-warm": "e23df848fafdedde9674bfc80279f8e846d3859aa7002186b1106cc02af27d61",
    }

    @staticmethod
    def _digest(case):
        _, data = _random_instance("rasch", 0, 40, 12, 3, seed=12, density=0.7)
        assert data.n_responses % 64
        cfg = TrainConfig(learning_rate=0.05, epochs=6, batch_size=64, l2_penalty=0.01, seed=3,
                          init_scale=0.1, convergence_tol=0.0)
        if case == "interaction-warm":
            start, _ = sgd_train("interaction", data, cfg, dims=1)
            params, report = sgd_train("interaction", data, replace(cfg, seed=4), dims=1, warm_start=start)
        else:
            params, report = sgd_train(case, data, cfg, dims=2)
        h = hashlib.sha256()
        for name, arr in params.tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(np.asarray(report.nll_trace, dtype=np.float64).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_digest(self, case):
        assert self._digest(case) == self.PINNED[case]

    @settings(max_examples=150, deadline=None)
    @given(instance=sgd_instances())
    def test_every_step_is_the_plain_loops(self, instance):
        """Shuffled row codes, the scaled step's row scatter and folds, and chunked nll give the plain loop's tensors
        and trace, bit for bit."""
        kind, data, cfg, dims, warm, chunk = instance
        with mock.patch.object(optim, "_NLL_CHUNK", chunk):
            params, report = sgd_train(kind, data, cfg, dims=dims, warm_start=warm)
        assert _bits(params, report.nll_trace) == _bits(*sgd_reference(kind, data, cfg, dims=dims, warm_start=warm))

    @settings(max_examples=150, deadline=None)
    @given(instance=sgd_instances())
    def test_the_scaled_step_is_the_plain_l2_step_to_rounding(self, instance):
        """The tensors and trace are those of arr -= lr * (grad + l2 * arr) on every tensor, every batch."""
        kind, data, cfg, dims, warm, _ = instance
        params, report = sgd_train(kind, data, cfg, dims=dims, warm_start=warm)
        dense, trace = sgd_reference(kind, data, cfg, dims=dims, warm_start=warm, dense=True)
        for name, arr in params.tensors().items():
            np.testing.assert_allclose(arr, getattr(dense, name), rtol=1e-9, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(report.nll_trace, trace, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_a_fit_holds_one_response_length_array_at_a_time(self, kind):
        """Above what it was given, a fit's traced peak is one int64 array of its n rows plus chunk-sized slack.

        The shuffled row codes are the one such array the batches hold, and
        nll's per-row losses the one it holds; each is freed before the other
        is made. Whole-epoch gathers beside a loss buffer kept for the whole
        fit held about 33 B a row.
        """
        S, Q = 2000, 100
        rng = np.random.default_rng(0)
        data = dataset_from_arrays(np.repeat(np.arange(S), Q), np.tile(np.arange(Q), S), rng.integers(0, 2, S * Q),
                                   class_of=rng.integers(0, 4, S))
        cfg = TrainConfig(epochs=2, convergence_tol=0.0)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            sgd_train(kind, data, cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 8 * data.n_responses + 16 * _NLL_CHUNK * 8, peak

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_config_rejects_learning_rate_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("name,value", [
        ("epochs", -1), ("epochs", 1.5), ("batch_size", 2.0), ("init_scale", math.nan),
        ("init_scale", -0.01), ("l2_penalty", math.inf), ("l2_penalty", -1e-4),
        ("convergence_tol", math.nan), ("convergence_tol", -1e-5), ("seed", -1), ("seed", 1.5),
    ])
    def test_config_rejects_bad_numeric_field(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            TrainConfig(**{name: value})

    def test_copy_params_is_deep(self):
        params = Params(np.zeros(2), np.zeros(2), kind="rasch")
        dup = copy_params(params)
        dup.ability[0] = 5.0
        assert params.ability[0] == 0.0
