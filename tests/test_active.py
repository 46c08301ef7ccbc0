"""Active learning: selection rule, pool bookkeeping, and learning curves."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from irtkit.active import (
    ActiveConfig,
    ability_bucket_report,
    make_pool_state,
    run_active_loop,
    select_next,
)
from irtkit.optim import TrainConfig
from irtkit.synth import SynthConfig, generate_synthetic


class TestSelectNext:
    def test_closest_to_half_wins(self):
        assert select_next({1: 0.9, 2: 0.55, 3: 0.2}, set()) == 2

    def test_tie_breaks_to_lowest_index(self):
        assert select_next({1: 0.4, 2: 0.6}, set()) == 1

    def test_forced_choice(self):
        probs = {q: 0.5 for q in range(10)}
        assert select_next(probs, set(range(10)) - {7}) == 7

    def test_no_candidates_is_an_error(self):
        with pytest.raises(ValueError):
            select_next({1: 0.5}, {1})

    def test_invariant_to_map_iteration_order(self):
        probs = {3: 0.52, 1: 0.48, 2: 0.9}
        reordered = {2: 0.9, 1: 0.48, 3: 0.52}
        assert select_next(probs, set()) == select_next(reordered, set())


def _small_world(seed=0, students=60, questions=12):
    data, truth = generate_synthetic(SynthConfig(students=students, questions=questions,
                                                 dims=0, mean_bq=0.0, std_bq=1.5, seed=seed))
    return data, truth


class TestMakePoolState:
    def test_sets_are_disjoint_and_cover_answers(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=20, holdout_fraction=0.25, seed=1)
        assert state.base.num_students == 40
        for student in state.pool:
            held = set(student.test_holdout)
            hidden = set(student.hidden)
            assert not (held & hidden)
            assert len(held) + len(hidden) == 12
            assert not student.revealed

    def test_pool_students_absent_from_base(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=10, seed=2)
        assert set(state.base.student_ids) | {p.student_id for p in state.pool} == set(data.student_ids)

    def test_pool_size_bounds(self):
        data, _ = _small_world()
        with pytest.raises(ValueError):
            make_pool_state(data, pool_size=60, seed=0)


def _loop_config(policy, rounds, seed=0, epochs=40, batch_size=1):
    return ActiveConfig(policy=policy, batch_size=batch_size, rounds=rounds,
                        retrain=TrainConfig(learning_rate=0.3, epochs=epochs, batch_size=256,
                                            convergence_tol=0.0),
                        initial_epochs=60, seed=seed)


class TestRunActiveLoop:
    def test_round_zero_identical_across_policies(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=15, seed=3)
        unc = run_active_loop(state, _loop_config("uncertainty", rounds=2))
        rnd = run_active_loop(state, _loop_config("random", rounds=2))
        assert unc.overall_accuracy[0] == rnd.overall_accuracy[0]

    def test_input_state_is_not_mutated(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=10, seed=4)
        run_active_loop(state, _loop_config("uncertainty", rounds=3))
        assert all(not p.revealed for p in state.pool)

    def test_curves_are_bit_reproducible(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=12, seed=5)
        a = run_active_loop(state, _loop_config("random", rounds=4, seed=9))
        b = run_active_loop(state, _loop_config("random", rounds=4, seed=9))
        assert a.overall_accuracy == b.overall_accuracy
        assert np.array_equal(a.per_student_accuracy, b.per_student_accuracy)

    def test_truncates_with_warning_when_pool_is_exhausted(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=8, holdout_fraction=0.25, seed=6)
        with pytest.warns(UserWarning, match="truncating"):
            result = run_active_loop(state, _loop_config("uncertainty", rounds=50))
        assert len(result.questions_revealed) <= 11

    def test_policies_converge_once_everything_is_revealed(self):
        data, _ = _small_world(students=80)
        state = make_pool_state(data, pool_size=20, holdout_fraction=0.25, seed=7)
        curves = {}
        for policy in ("uncertainty", "random"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                curves[policy] = run_active_loop(
                    state, _loop_config(policy, rounds=9, epochs=120, seed=11)).overall_accuracy
        assert abs(curves["uncertainty"][-1] - curves["random"][-1]) <= 0.002


def _holdout_hits(state, result):
    """Correct holdout answers per round, one digit per pool student.

    Asserts first that each accuracy is exactly hits / holdout size, so
    the digit strings pin per_student_accuracy bit for bit."""
    n = np.array([len(p.test_holdout) for p in state.pool])
    hits = np.rint(result.per_student_accuracy * n).astype(int)
    assert np.array_equal(hits / n, result.per_student_accuracy)
    return ["".join(str(h) for h in row) for row in hits]


class TestPinnedCurves:
    """Exact curves recorded from the per-student reveal loop that the
    whole-pool array round replaced; any change in picks, draw order,
    dataset row order or scoring shows up here."""

    def _state(self):
        return make_pool_state(_small_world()[0], pool_size=12, seed=5)

    @pytest.mark.parametrize("policy,batch_size,revealed,hits", [
        ("uncertainty", 1, [0, 1, 2, 3, 4],
         ["221222211212", "121122202111", "121121202211", "121222202211", "121222112211"]),
        ("random", 1, [0, 1, 2, 3, 4],
         ["221222211212", "122111222212", "101112222111", "121112222112", "121122122111"]),
        # the draws go student by student: both of a student's picks, then the next student's
        ("random", 2, [0, 2, 4, 6, 8],
         ["221222211212", "121202121111", "221112101111", "121212122211", "221222122211"]),
    ])
    def test_curves(self, policy, batch_size, revealed, hits):
        state = self._state()
        result = run_active_loop(state, _loop_config(policy, rounds=4, seed=9, batch_size=batch_size))
        assert result.questions_revealed == revealed
        assert _holdout_hits(state, result) == hits

    @pytest.mark.parametrize("policy,batch_size,revealed,hits", [
        ("uncertainty", 1, [0, 1, 2, 3],
         ["221212211212", "221122202111", "221121201211", "221222102211"]),
        ("random", 2, [0, 2, 4, 6],
         ["221212211212", "201111122111", "101122122112", "101122121111"]),
    ])
    def test_student_with_prior_reveals(self, policy, batch_size, revealed, hits):
        state = self._state()
        first = state.pool[0]
        prior = {q: first.hidden[q] for q in sorted(first.hidden)[:3]}
        assert sorted(prior) == [0, 1, 4]
        state = replace(state, pool=[replace(first, revealed=prior)] + state.pool[1:])
        result = run_active_loop(state, _loop_config(policy, rounds=3, seed=2, batch_size=batch_size))
        assert result.questions_revealed == revealed
        assert _holdout_hits(state, result) == hits
        assert state.pool[0].revealed == prior

    def test_truncation(self):
        state = make_pool_state(_small_world()[0], pool_size=8, holdout_fraction=0.25, seed=6)
        with pytest.warns(UserWarning, match="after 5 rounds; truncating"):
            result = run_active_loop(state, _loop_config("random", rounds=50, seed=3, batch_size=2))
        assert result.questions_revealed == [0, 2, 4, 6, 8, 10]
        assert _holdout_hits(state, result) == ["22231322", "12130223", "12231222", "22231222",
                                                "22231222", "22232222"]

    def test_pool_split(self):
        state = make_pool_state(_small_world()[0], pool_size=4, holdout_fraction=0.25, seed=1)
        assert [(p.student_id, p.test_holdout) for p in state.pool] == [
            ("s26", {2: 1, 3: 0, 9: 0}), ("s29", {2: 1, 3: 1, 9: 0}),
            ("s44", {0: 1, 5: 0, 11: 1}), ("s57", {5: 1, 8: 1, 9: 0})]
        for p, labels in zip(state.pool, ["000001001", "001011111", "010011101", "101010110"]):
            assert list(p.hidden) == sorted(set(range(12)) - set(p.test_holdout))
            assert "".join(str(y) for y in p.hidden.values()) == labels


class TestAbilityBucketReport:
    def _result(self):
        data, truth = _small_world(students=90)
        state = make_pool_state(data, pool_size=30, seed=8)
        result = run_active_loop(state, _loop_config("uncertainty", rounds=3))
        order = {sid: i for i, sid in enumerate(data.student_ids)}
        abilities = np.array([truth.ability[order[p.student_id]] for p in state.pool])
        return result, abilities

    def test_single_bucket_equals_overall_curve(self):
        result, abilities = self._result()
        report = ability_bucket_report(result, abilities, cut_points=[])
        (label, bucket), = report.items()
        np.testing.assert_allclose(bucket["curve"], result.overall_accuracy, atol=1e-12)

    def test_weighted_bucket_mean_recovers_overall(self):
        result, abilities = self._result()
        cuts = np.quantile(abilities, [1 / 3, 2 / 3])
        report = ability_bucket_report(result, abilities, cut_points=list(cuts))
        total = np.zeros(len(result.overall_accuracy))
        n = 0
        for bucket in report.values():
            total += np.array(bucket["curve"]) * bucket["count"]
            n += bucket["count"]
        np.testing.assert_allclose(total / n, result.overall_accuracy, atol=1e-9)

    def test_empty_bucket_is_omitted(self):
        result, abilities = self._result()
        report = ability_bucket_report(result, abilities, cut_points=[100.0])
        assert len(report) == 1

    def test_mid_tertile_is_hardest_once_abilities_are_learned(self):
        """Mid-ability students sit nearest p = 0.5, so once the loop has
        revealed enough answers to estimate abilities, their accuracy
        trails both outer tertiles (averaged over 5 seeds)."""
        lows, mids, highs = [], [], []
        for seed in range(5):
            data, truth = generate_synthetic(SynthConfig(students=150, questions=20, dims=0,
                                                         mean_bq=0.0, std_bq=1.5, seed=seed))
            state = make_pool_state(data, pool_size=60, holdout_fraction=0.3, seed=seed + 50)
            cfg = ActiveConfig(policy="uncertainty", batch_size=1, rounds=14,
                               retrain=TrainConfig(learning_rate=0.3, epochs=40, batch_size=256,
                                                   convergence_tol=0.0),
                               initial_epochs=50, seed=seed + 90)
            result = run_active_loop(state, cfg)
            order = {sid: i for i, sid in enumerate(data.student_ids)}
            abilities = np.array([truth.ability[order[p.student_id]] for p in state.pool])
            cuts = np.quantile(abilities, [1 / 3, 2 / 3])
            rep = ability_bucket_report(result, abilities, list(cuts))
            low, mid, high = (rep[k]["curve"][-1] for k in rep)
            lows.append(low)
            mids.append(mid)
            highs.append(high)
        assert np.mean(mids) <= np.mean(lows)
        assert np.mean(mids) <= np.mean(highs)
