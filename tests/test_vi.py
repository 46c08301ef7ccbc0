"""Variational machinery: KL, reparameterization, the MC ELBO, and training."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irtkit import vi
from irtkit.models import (FAMILY, POINT_KINDS, VI_KINDS, Params, class_cells, inv_softplus, predict_proba_array,
                           sigmoid, softplus, tensor_table, vec_rows)
from irtkit.optim import TrainingDiverged, init_params, nll
from irtkit.synth import SynthConfig, generate_synthetic
from irtkit.vi import (
    VIConfig,
    elbo_mc,
    predict_proba_vi_array,
    train_vi,
)

from oracles import (dataset_from_arrays, elbo_finite_diff_check, exact_elbo_rasch_vi, expected_sigmoid,
                     gradient_instances, kl_gaussian, log_evidence_rasch, log_loss, mc_kl_estimate,
                     per_sample_elbo_core, vi_reference)


def _tiny_data():
    s_idx = np.array([0, 0, 0, 1, 1, 1])
    q_idx = np.array([0, 1, 2, 0, 1, 2])
    y = np.array([1, 0, 1, 0, 0, 1])
    return dataset_from_arrays(s_idx, q_idx, y, class_of=np.zeros(2, dtype=np.int64))


def _rasch_vi_params(mu, sigma, easiness):
    mu = np.asarray(mu, dtype=np.float64)
    return Params(kind="rasch-vi", ability=mu,
                  ability_rho=np.asarray(inv_softplus(np.asarray(sigma, dtype=np.float64))),
                  easiness=np.asarray(easiness, dtype=np.float64))


class TestKlGaussian:
    def test_identical_distributions(self):
        assert kl_gaussian(0.0, 1.0, 0.0, 1.0) == 0.0

    def test_unit_mean_shift(self):
        assert kl_gaussian(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_narrow_posterior(self):
        assert kl_gaussian(0.0, 0.5, 0.0, 1.0) == pytest.approx(0.3181471805599453, abs=1e-15)

    def test_against_monte_carlo(self):
        est, se = mc_kl_estimate(0.0, 0.5, 10**6, seed=0)
        assert abs(kl_gaussian(0.0, 0.5, 0.0, 1.0) - est) <= 3 * se

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            mu1, mu2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            val = kl_gaussian(mu1, s1, mu2, s2)
            assert val >= 0.0
            if (mu1, s1) != (mu2, s2):
                assert val > 0.0

    def test_elementwise_over_arrays_matches_textbook_form(self):
        rng = np.random.default_rng(4)
        mu1, mu2 = rng.normal(size=(2, 3, 4))
        s1, s2 = rng.uniform(0.1, 3.0, size=(2, 3, 4))
        textbook = np.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5
        out = kl_gaussian(mu1, s1, mu2, s2)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, textbook, rtol=1e-12, atol=1e-14)

    def test_rejects_nonpositive_sigma(self):
        for sigma1, sigma2 in [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0),
                               (1.0, math.nan), (1.0, math.inf), ([1.0, math.nan], 1.0)]:
            with pytest.raises(ValueError, match="^standard deviations must be finite and positive$"):
                kl_gaussian(0.0, sigma1, 0.0, sigma2)

    @pytest.mark.parametrize("mu1,mu2", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), ([0.0, math.nan], 0.0)])
    def test_rejects_nonfinite_mean(self, mu1, mu2):
        with pytest.raises(ValueError, match="^means must be finite$"):
            kl_gaussian(mu1, 1.0, mu2, 1.0)


class TestReparameterize:
    @settings(deadline=None)
    @given(sigma=st.floats(1e-300, 1e150))
    @example(sigma=1e-3)
    @example(sigma=0.1)
    @example(sigma=0.8)
    @example(sigma=1.0)
    @example(sigma=5.0)
    @example(sigma=40.0)
    def test_sigma_transform_roundtrip(self, sigma):
        v = _rasch_vi_params([0.0], [sigma], [0.0])
        assert v.ability_sigma[0] == pytest.approx(sigma, rel=1e-12)


class TestElboMc:
    def test_empty_dataset_with_prior_posteriors_is_exactly_zero(self):
        data = dataset_from_arrays([], [], [], class_of=np.zeros(2, dtype=np.int64),
                                   question_ids=("q0",))
        params = _rasch_vi_params([0.0, 0.0], [1.0, 1.0], [0.0])
        assert elbo_mc(params, data, M=4, seed=0)[0] == 0.0

    def test_degenerate_variance_matches_point_nll(self):
        data = _tiny_data()
        mu = np.array([0.4, -0.7])
        easiness = np.array([0.1, -0.3, 0.6])
        params = _rasch_vi_params(mu, [1e-9, 1e-9], easiness)
        kl_sum = sum(kl_gaussian(m, 1e-9, 0.0, 1.0) for m in mu)
        point_nll = nll(Params(mu, easiness, kind="rasch"), data)
        assert elbo_mc(params, data, M=3, seed=1)[0] + kl_sum == pytest.approx(-point_nll, abs=1e-6)

    def test_matches_quadrature_within_mc_error(self):
        data = _tiny_data()
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        exact = exact_elbo_rasch_vi(params, data)
        est = elbo_mc(params, data, M=10**5, seed=3)[0]
        # standard error of the M-sample mean, scaled from repeated small runs
        small = [elbo_mc(params, data, M=100, seed=s)[0] for s in range(100, 200)]
        se = float(np.std(small, ddof=1)) / math.sqrt(10**5 / 100)
        assert abs(est - exact) <= 3 * se

    def test_unbiased_across_seeds_at_m1(self):
        data = _tiny_data()
        params = _rasch_vi_params([0.5, -0.2], [1.1, 0.6], [0.3, 0.0, -0.4])
        exact = exact_elbo_rasch_vi(params, data)
        ests = np.array([elbo_mc(params, data, M=1, seed=s)[0] for s in range(200)])
        se = float(np.std(ests, ddof=1)) / math.sqrt(len(ests))
        assert abs(float(np.mean(ests)) - exact) <= 4 * se

    def test_deterministic_given_seed(self):
        data = _tiny_data()
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        assert elbo_mc(params, data, M=7, seed=11)[0] == elbo_mc(params, data, M=7, seed=11)[0]


class TestElboMcShapes:
    """elbo_mc refuses params of another index with one ValueError naming the tensor, on both routes."""

    @pytest.mark.parametrize("kind, responses, students, classes, tensor", [
        ("interaction-vi", None, 65, 3, "ability"),
        ("interaction-vi", None, 55, 3, "ability"),
        *[("class-interaction-vi", responses, students, classes, tensor)
          for responses in (18, None)   # 3 classes x 6 questions = 18 cells: the row route, then the cell route
          for students, classes, tensor in ((65, 3, "ability"), (55, 3, "ability"), (60, 2, "vec"))],
    ])
    def test_params_of_another_index_rejected(self, kind, responses, students, classes, tensor):
        data, _ = generate_synthetic(SynthConfig(students=60, questions=6, dims=2, num_classes=3, seed=1))
        if responses is not None:
            data = data.select(np.arange(responses))
        assert (vi._responses(kind, data)[3] is None) == (responses is not None or kind == "interaction-vi")
        params = init_params(kind, 2, students, data.num_questions, classes, np.random.default_rng(0), 0.1, 0.8)
        for want_grads in (False, True):
            with pytest.raises(ValueError, match=rf"^params shape mismatch for {tensor}: expected "):
                elbo_mc(params, data, M=2, seed=0, want_grads=want_grads)


class TestElboMcInputs:
    """elbo_mc refuses the params of a point kind, naming the kind, and a seed or sample count that is not a count."""

    @pytest.mark.parametrize("want_grads", [False, True])
    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_point_kind_params_rejected(self, kind, want_grads):
        data, _ = generate_synthetic(SynthConfig(students=60, questions=6, dims=2, num_classes=3, seed=1))
        params = init_params(kind, 2, data.num_students, data.num_questions, data.num_classes,
                             np.random.default_rng(0), 0.1)
        with pytest.raises(ValueError, match=rf"^elbo_mc needs the params of a VI kind, got '{kind}'$"):
            elbo_mc(params, data, M=2, seed=0, want_grads=want_grads)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_not_a_count_rejected(self, seed):
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed}$"):
            elbo_mc(params, _tiny_data(), M=2, seed=seed)

    @pytest.mark.parametrize("M", [1.5, True])
    def test_sample_count_not_a_count_rejected(self, M):
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        with pytest.raises(ValueError, match=rf"^M must be an integer >= 1, got {M}$"):
            elbo_mc(params, _tiny_data(), M=M, seed=0)


class TestElboGradients:
    def _class_data(self):
        s_idx = np.array([0, 0, 1, 1, 2, 2])
        q_idx = np.array([0, 1, 0, 1, 0, 1])
        y = np.array([1, 0, 0, 1, 1, 1])
        return dataset_from_arrays(s_idx, q_idx, y, class_of=np.array([0, 1, 0]),
                                   class_ids=("c0", "c1"))

    def test_rasch_vi_gradient_matches_common_random_number_differences(self):
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        assert elbo_finite_diff_check(params, _tiny_data(), M=5, seed=7) < 1e-4

    def test_interaction_vi_gradient(self):
        rng = np.random.default_rng(8)
        params = Params(
            kind="interaction-vi",
            ability=rng.normal(size=3), ability_rho=np.full(3, 0.2),
            easiness=rng.normal(size=2), demand=rng.normal(size=(2, 2)),
            vec=rng.normal(size=(3, 2)), vec_rho=np.full((3, 2), -0.1),
        )
        assert elbo_finite_diff_check(params, self._class_data(), M=4, seed=9) < 1e-4

    @pytest.mark.parametrize("M", [0, -2])
    def test_elbo_grad_rejects_fewer_than_one_sample(self, M):
        params = _rasch_vi_params([0.3, -0.4], [0.9, 0.7], [0.2, -0.5, 0.1])
        with pytest.raises(ValueError, match="^M must be an integer >= 1"):
            elbo_mc(params, _tiny_data(), M=M, seed=0, want_grads=True)

    def test_class_interaction_vi_gradient(self):
        rng = np.random.default_rng(10)
        params = Params(
            kind="class-interaction-vi",
            ability=rng.normal(size=3), ability_rho=np.full(3, 0.3),
            easiness=rng.normal(size=2), demand=rng.normal(size=(2, 1)),
            vec=rng.normal(size=(2, 1)), vec_rho=np.full((2, 1), 0.1),
        )
        assert elbo_finite_diff_check(params, self._class_data(), M=4, seed=11) < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(instance=gradient_instances(VI_KINDS), M=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_gradient_over_random_batches(self, instance, M, seed):
        """Every VI kind, on small batches with repeated and absent students, on the ELBO's row and
        cell routes, within the fixed cases' 1e-4."""
        params, data, cells = instance
        rows = vec_rows(params.kind, data.student_idx, data.class_of)
        assert (class_cells(params.kind, rows, data.question_idx, data.num_classes, data.num_questions)
                is not None) == cells
        assert elbo_finite_diff_check(params, data, M=M, seed=seed) < 1e-4


@st.composite
def _vi_instance(draw):
    """A random VI model with random responses, eps draws and sizes."""
    kind = draw(st.sampled_from(VI_KINDS))
    dims = 0 if kind == "rasch-vi" else draw(st.integers(1, 3))
    S, Q, C, N = (draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                  draw(st.integers(0, 40)))
    M = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([0.5, 3.0, 40.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = dataset_from_arrays(rng.integers(0, S, N), rng.integers(0, Q, N), rng.integers(0, 2, N),
                               class_of=rng.integers(0, C, S), question_ids=[f"q{i}" for i in range(Q)],
                               class_ids=[f"c{i}" for i in range(C)])
    tensors = {name: rng.normal(0.0, 2.0 if name.endswith("_rho") else scale, shape)
               for name, (_, shape) in tensor_table(kind, dims, S, Q, C).items()}
    params = Params(kind=kind, **tensors)
    eps_ability = rng.standard_normal((M, S))
    eps_vec = rng.standard_normal((M, *params.vec.shape)) if params.dims else None
    return params, data, eps_ability, eps_vec


class TestPlugInContract:
    """A VI model's plug-in prediction is its family's point prediction at the means."""

    @pytest.mark.parametrize("kind", VI_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(S=st.integers(1, 6), Q=st.integers(1, 5), C=st.integers(1, 3), D=st.integers(1, 3),
           scale=st.sampled_from([0.5, 3.0, 40.0]), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_point_and_vi_predictions_agree(self, kind, S, Q, C, D, scale, seed, data):
        rng = np.random.default_rng(seed)
        tensors = {name: rng.normal(0.0, scale, shape)
                   for name, (_, shape) in tensor_table(kind, D, S, Q, C).items()}
        vi_params = Params(kind=kind, **tensors)
        point = Params(**{k: v for k, v in tensors.items() if not k.endswith("_rho")}, kind=FAMILY[kind])
        class_of = rng.integers(0, C, S)
        s_idx, q_idx = np.repeat(np.arange(S), Q), np.tile(np.arange(Q), S)
        want = predict_proba_array(point, s_idx, q_idx, class_of)
        assert predict_proba_array(vi_params, s_idx, q_idx, class_of).tobytes() == want.tobytes()
        assert predict_proba_vi_array(vi_params, s_idx, q_idx, class_of).tobytes() == want.tobytes()
        assert np.all((want > 0.0) & (want < 1.0))
        cell = data.draw(st.integers(0, want.size - 1))
        s, q = int(s_idx[cell]), int(q_idx[cell])
        assert predict_proba_array(vi_params, np.array([s]), np.array([q]), class_of)[0] == want[cell]


class TestElboCoreMatchesPerSampleOracle:
    """The ELBO gathers question rows once per call and shares exp(-|z|)
    between softplus and sigmoid; on the row route every bit must match
    the per-sample form. The cell route sums in another order, so there
    the ELBO must match to 1e-12 relative and every gradient entry to
    1e-12 of the largest gradient magnitude of the instance: an entry,
    or a whole small tensor (one class, D = 1), can be a cancelling sum
    with no relative bound."""

    @given(_vi_instance(), st.booleans())
    def test_same_bits_as_per_sample_reference(self, instance, want_grads):
        self._assert_matches_oracle(instance, want_grads)

    def test_silent_student_on_the_cell_route(self):
        """Student 2 of 5 answers nothing, between students whose rows interleave: its segment is
        empty, which np.add.reduceat would fill with its neighbour's first row."""
        rng = np.random.default_rng(3)
        s_idx, q_idx = np.tile([3, 0, 4, 1], 3), np.repeat([0, 1, 2], 4)   # 12 rows against 2 x 3 = 6 cells
        data = dataset_from_arrays(s_idx, q_idx, rng.integers(0, 2, 12), class_of=np.array([0, 1, 0, 1, 0]))
        params = Params(kind="class-interaction-vi", **{name: rng.normal(size=shape) for name, (_, shape)
                                                        in tensor_table("class-interaction-vi", 2, 5, 3, 2).items()})
        instance = params, data, rng.standard_normal((3, 5)), rng.standard_normal((3, 2, 2))
        assert vi._responses(params.kind, data)[3] is not None
        got = self._assert_matches_oracle(instance, True)
        assert got["ability"][2] == -params.ability[2]
        sigma = softplus(params.ability_rho[2])
        assert got["ability_rho"][2] == -(sigma - 1.0 / sigma) * sigmoid(params.ability_rho[2])

    @staticmethod
    def _assert_matches_oracle(instance, want_grads):
        """Assert _elbo_core matches per_sample_elbo_core as the class docstring says; return its gradients."""
        params, data, eps_ability, eps_vec = instance
        responses = vi._responses(params.kind, data)
        got_elbo, got = vi._elbo_core(params, responses, eps_ability, eps_vec, want_grads)
        want_elbo, want = per_sample_elbo_core(params, data, eps_ability, eps_vec, want_grads)
        bitwise = responses[3] is None  # no cells: the row route
        if bitwise:
            assert np.float64(got_elbo).tobytes() == np.float64(want_elbo).tobytes()
        else:
            assert abs(got_elbo - want_elbo) <= 1e-12 * abs(want_elbo)
        if not want_grads:
            assert got is None and want is None
            return got
        assert list(got) == list(want)
        scale = max(float(np.max(np.abs(g))) for g in want.values())
        for name in want:
            assert got[name].shape == want[name].shape
            if bitwise:
                assert got[name].tobytes() == want[name].tobytes(), name
            else:
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
        return got


@st.composite
def _vi_fit(draw, kind):
    """Data, a config, dims and maybe a point warm start, for comparing train_vi with vi_reference.

    S 1-6 students, Q 1-5 questions, C 1-3 classes, D 1-2, 1-30 responses
    (for class-interaction-vi at most C * Q, the ELBO's row route, where
    per_sample_elbo_core is exact), 1-3 samples and 0-5 epochs.
    """
    S, Q, C, D = (draw(st.integers(1, high)) for high in (6, 5, 3, 2))
    N = draw(st.integers(1, C * Q if kind == "class-interaction-vi" else 30))
    column = lambda n: st.lists(st.integers(0, n - 1), min_size=N, max_size=N)
    data = dataset_from_arrays(draw(column(S)), draw(column(Q)), draw(column(2)),
                               class_of=draw(st.lists(st.integers(0, C - 1), min_size=S, max_size=S)),
                               question_ids=[f"q{i}" for i in range(Q)], class_ids=[f"c{i}" for i in range(C)])
    cfg = VIConfig(samples=draw(st.integers(1, 3)), sigma_init=draw(st.sampled_from([0.3, 0.8])),
                   learning_rate=draw(st.sampled_from([0.01, 0.1])), epochs=draw(st.integers(0, 5)),
                   seed=draw(st.integers(0, 2**32 - 1)))
    warm = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        warm = Params(kind=FAMILY[kind], **{name: rng.uniform(-1.0, 1.0, shape)
                                            for name, (_, shape) in tensor_table(FAMILY[kind], D, S, Q, C).items()})
    return data, cfg, D, warm


class TestTrainVi:
    @pytest.mark.parametrize("kind", VI_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_epoch_is_the_plain_loops(self, kind, data):
        """Noise draws, the ELBO kernels and the in-place steps give the plain loop's tensors and trace, bit for bit."""
        data, cfg, dims, warm = data.draw(_vi_fit(kind))
        params, report = train_vi(kind, data, cfg, dims=dims, warm_start=warm)
        want, trace = vi_reference(kind, data, cfg, dims=dims, warm_start=warm)
        assert [(name, arr.tobytes()) for name, arr in params.tensors().items()] == \
            [(name, arr.tobytes()) for name, arr in want.tensors().items()]
        assert np.asarray(report.nll_trace).tobytes() == np.asarray(trace).tobytes()

    def test_no_observations_converges_to_prior(self):
        """Students 1 and 2 answer nothing, so only their prior KL moves them: the same
        steps, bit for bit, as when nobody answered, which train_vi refuses."""
        data = dataset_from_arrays([0], [0], [1], class_of=np.zeros(3, dtype=np.int64),
                                   question_ids=("q0",))
        cfg = VIConfig(samples=1, sigma_init=0.8, learning_rate=0.05, epochs=2000, seed=0)
        params, _ = train_vi("rasch-vi", data, cfg)
        np.testing.assert_allclose(params.ability[1:], 0.0, atol=1e-2)
        np.testing.assert_allclose(params.ability_sigma[1:], 1.0, atol=1e-2)

    @pytest.mark.parametrize("students", [0, 3])
    def test_empty_training_data_rejected(self, students):
        data = dataset_from_arrays([], [], [], class_of=np.zeros(students, dtype=np.int64),
                                   question_ids=("q0",))
        with pytest.raises(ValueError, match="^training data must be non-empty$"):
            train_vi("rasch-vi", data, VIConfig(epochs=3))

    def test_interaction_vi_with_zero_dims_rejected(self):
        cfg = VIConfig(samples=3, sigma_init=0.8, learning_rate=0.05, epochs=40, seed=4)
        for kind in ("interaction-vi", "class-interaction-vi"):
            with pytest.raises(ValueError, match=f"{kind} requires dims >= 1, got 0"):
                train_vi(kind, _tiny_data(), cfg, dims=0)

    @pytest.mark.parametrize("dims", [1.5, 2.0, True])
    def test_interaction_vi_with_non_integer_dims_rejected(self, dims):
        for kind in ("interaction-vi", "class-interaction-vi"):
            with pytest.raises(ValueError, match=rf"^{kind} requires dims >= 1, got {dims!r}$"):
                train_vi(kind, _tiny_data(), VIConfig(samples=2, epochs=1), dims=dims)

    def test_converged_elbo_stays_below_log_evidence(self):
        data = _tiny_data()
        cfg = VIConfig(samples=8, sigma_init=0.8, learning_rate=0.05, epochs=3000, seed=0)
        params, _ = train_vi("rasch-vi", data, cfg)
        quad_elbo = exact_elbo_rasch_vi(params, data)
        evidence = log_evidence_rasch(params.easiness, data)
        assert quad_elbo <= evidence
        assert evidence - quad_elbo < 0.5

    def test_warm_start_takes_point_estimates(self):
        data = _tiny_data()
        point = Params(np.array([0.9, -1.1]), np.array([0.2, 0.3, -0.8]), kind="rasch")
        cfg = VIConfig(samples=2, sigma_init=0.8, epochs=0, seed=0)
        params, report = train_vi("rasch-vi", data, cfg, warm_start=point)
        np.testing.assert_array_equal(params.ability, point.ability)
        np.testing.assert_array_equal(params.easiness, point.easiness)
        np.testing.assert_allclose(params.ability_sigma, 0.8, rtol=1e-12)
        assert report.epochs_run == 0

    def test_warm_start_shape_mismatch(self):
        data = _tiny_data()
        bad = Params(np.zeros(5), np.zeros(3), kind="rasch")
        cfg = VIConfig(samples=2, epochs=1)
        with pytest.raises(ValueError, match="warm-start shape mismatch"):
            train_vi("rasch-vi", data, cfg, warm_start=bad)

    def test_wrong_family_warm_start_rejected(self):
        data = _tiny_data()
        point = Params(np.zeros(2), np.zeros(3), kind="rasch")
        cfg = VIConfig(samples=2, epochs=1)
        with pytest.raises(ValueError, match="warm-start"):
            train_vi("class-interaction-vi", data, cfg, dims=1, warm_start=point)

    def test_warm_start_of_another_family_rejected(self):
        # every student its own class: interaction params have class-interaction shapes
        data = dataset_from_arrays([0, 1, 2], [0, 1, 0], [1, 0, 1], class_of=np.arange(3),
                                   class_ids=("c0", "c1", "c2"))
        inter = Params(np.zeros(3), np.zeros(2), np.zeros((3, 1)), np.zeros((2, 1)), kind="interaction")
        with pytest.raises(ValueError, match="warm-start params are 'interaction', expected 'class-interaction'"):
            train_vi("class-interaction-vi", data, VIConfig(epochs=1), dims=1, warm_start=inter)

    def test_deterministic_given_seed(self):
        data = _tiny_data()
        cfg = VIConfig(samples=3, learning_rate=0.03, epochs=25, seed=9)
        a, ra = train_vi("rasch-vi", data, cfg)
        b, rb = train_vi("rasch-vi", data, cfg)
        assert np.array_equal(a.ability, b.ability)
        assert ra.nll_trace == rb.nll_trace

    # SHA-256 over every final tensor (name, then float64 bytes) and the
    # nll_trace of a 20-epoch run, recorded before the ELBO gathered
    # question rows once per call (numpy 2.4, x86-64). class-interaction-vi
    # was re-recorded when its ELBO took the cell route (6 classes x 10
    # questions = 60 cells against 478 responses), whose sums run in
    # another order, and again when that route took easiness from the
    # cell table and the ability sigma gradient from the ability gradient
    # (each final tensor within 4.5e-16 of its largest magnitude of the
    # previous recording), and a third time when that route scored its
    # rows grouped by student, with label sums for the y terms and
    # exp(z - softplus(z)) for the residual (within 3.0e-16); the
    # row-route digests did not move.
    PINNED = {
        "rasch-vi": "6afdd53f9ea8efc91ea03ba13fc692514ea7389e6b7787e8dd63554b971c5316",
        "interaction-vi": "91b461eefb00509ca85ba144d0380cdee56083cb616565f86397e9a7a2489fed",
        "class-interaction-vi": "46428f8ba2d3d6a39473e37c361fd0df7c502f47e0425259aec6f5a74de68504",
    }

    @staticmethod
    def _digest(kind):
        data, _ = generate_synthetic(SynthConfig(students=60, questions=10, dims=3, mean_bq=0.0, num_classes=6,
                                                 class_effect_std=1.0, keep_prob=0.8, seed=5))
        params, report = train_vi(kind, data, VIConfig(samples=3, learning_rate=0.01, epochs=20, seed=7), dims=3)
        h = hashlib.sha256()
        for name, arr in params.tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(np.asarray(report.nll_trace, dtype=np.float64).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_pinned_digest(self, kind):
        assert self._digest(kind) == self.PINNED[kind]

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_config_rejects_learning_rate_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            VIConfig(learning_rate=lr)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, math.inf])
    def test_config_rejects_sigma_init_not_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma_init"):
            VIConfig(sigma_init=sigma)

    def test_config_rejects_sigma_init_whose_inverse_overflows(self):
        with pytest.raises(ValueError, match=r"^sigma_init must be"):
            VIConfig(sigma_init=1e-309)
        _, report = train_vi("rasch-vi", _tiny_data(), VIConfig(sigma_init=1e-308, epochs=2))
        assert report.epochs_run == 2

    @pytest.mark.parametrize("sigma", [1e160, 1e200, 1e308])
    def test_config_rejects_sigma_init_whose_square_overflows(self, sigma):
        with pytest.raises(ValueError, match=r"^sigma_init must be"):
            VIConfig(sigma_init=sigma)
        _, report = train_vi("rasch-vi", _tiny_data(), VIConfig(sigma_init=1e150, epochs=2))
        assert report.epochs_run == 2

    def test_an_epoch_1_overflow_blames_the_initial_parameters(self):
        """sigma_init**2 is finite, but 400 of them overflow the KL sum before any step is taken."""
        students = 400
        data = dataset_from_arrays(np.arange(students), np.zeros(students, dtype=np.int64), np.ones(students),
                                   class_of=np.zeros(students, dtype=np.int64))
        cfg = VIConfig(sigma_init=1e153, epochs=2)
        message = r"^non-finite ELBO at epoch 1 \(initial parameters: sigma_init or warm start too large\?\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fit in (train_vi, vi_reference):
                with pytest.raises(TrainingDiverged, match=message):
                    fit("rasch-vi", data, cfg)

    @pytest.mark.parametrize("name,value", [
        ("epochs", -3), ("epochs", 2.5), ("samples", 1.5), ("seed", -1), ("seed", 1.5),
    ])
    def test_config_rejects_bad_numeric_field(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            VIConfig(**{name: value})

    def test_divergence_raises(self):
        data = _tiny_data()
        cfg = VIConfig(samples=2, learning_rate=1e12, epochs=50, seed=0)
        with pytest.raises(TrainingDiverged):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                train_vi("rasch-vi", data, cfg)


class TestPosteriorPredictiveDecision:
    """The plug-in prediction makes the posterior predictive's 0.5 decision.

    Under the variational posterior the logit of a cell is Gaussian in the
    student-side latents, with the plug-in logit as its mean and variance
    sigma_a^2 + sum_d sigma_v,d^2 * demand_qd^2; E[sigmoid(z)] - 1/2 is odd in
    that mean, so its sign is the mean's. Entries are bounded (|rho| <= 3,
    |demand| <= 3, so sd <= 17) where the 64-node quadrature resolves the sign
    at |mean| = 1e-6 (it does up to sd of about 120); means reach the hundreds,
    where the plug-in sigmoid rounds to 0 or 1 and only its clamp keeps the
    log loss of the wrong labels finite."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(VI_KINDS), S=st.integers(1, 6), Q=st.integers(1, 5), C=st.integers(1, 3),
           D=st.integers(1, 3), scale=st.sampled_from([0.5, 3.0, 40.0]), seed=st.integers(0, 2**32 - 1))
    def test_plug_in_decision_is_the_posterior_predictive_decision(self, kind, S, Q, C, D, scale, seed):
        rng = np.random.default_rng(seed)
        bound = {"ability_rho": 3.0, "vec_rho": 3.0, "demand": 3.0}
        params = Params(kind=kind, **{name: rng.uniform(-1.0, 1.0, shape) * bound.get(name, scale)
                                      for name, (_, shape) in tensor_table(kind, D, S, Q, C).items()})
        class_of = rng.integers(0, C, S)
        s_idx, q_idx = np.repeat(np.arange(S), Q), np.tile(np.arange(Q), S)
        p = predict_proba_array(params, s_idx, q_idx, class_of)
        mean = params.ability[s_idx] + params.easiness[q_idx]
        var = params.ability_sigma[s_idx] ** 2
        if params.dims:
            rows = class_of[s_idx] if kind == "class-interaction-vi" else s_idx
            mean = mean + np.sum(params.vec[rows] * params.demand[q_idx], axis=1)
            var = var + np.sum(softplus(params.vec_rho[rows]) ** 2 * params.demand[q_idx] ** 2, axis=1)
        posterior = np.array([expected_sigmoid(m, sd) for m, sd in zip(mean, np.sqrt(var))])
        away = np.abs(mean) > 1e-6
        assert np.array_equal((p >= 0.5)[away], (posterior >= 0.5)[away])
        assert np.all((p > 0.0) & (p < 1.0))
        assert math.isfinite(log_loss(p, p < 0.5))
