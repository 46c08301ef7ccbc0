"""Active learning: selection rule, pool bookkeeping, and learning curves."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit.active import (
    make_pool_state,
    run_active_loop,
    select_next,
)
from irtkit.data import dataset_from_arrays
from irtkit.optim import TrainConfig
from irtkit.synth import SynthConfig, generate_synthetic


def _pick(probabilities: dict, already_revealed: set) -> int:
    """select_next on one student: question -> probability, minus the revealed ones, as a (1, Q) row."""
    probs = np.full((1, max(probabilities) + 1), 0.5)
    open_ = np.zeros(probs.shape, dtype=bool)
    for q, p in probabilities.items():
        probs[0, q] = p
        open_[0, q] = q not in already_revealed
    return int(select_next(probs, open_)[0])


class TestSelectNext:
    def test_closest_to_half_wins(self):
        assert _pick({1: 0.9, 2: 0.55, 3: 0.2}, set()) == 2

    def test_tie_breaks_to_lowest_index(self):
        assert _pick({1: 0.4, 2: 0.6}, set()) == 1

    def test_forced_choice(self):
        probs = {q: 0.5 for q in range(10)}
        assert _pick(probs, set(range(10)) - {7}) == 7

    def test_no_candidates_is_an_error(self):
        with pytest.raises(ValueError):
            _pick({1: 0.5}, {1})

    def test_invariant_to_map_iteration_order(self):
        probs = {3: 0.52, 1: 0.48, 2: 0.9}
        reordered = {2: 0.9, 1: 0.48, 3: 0.52}
        assert _pick(probs, set()) == _pick(reordered, set())

    def test_rows_pick_independently(self):
        probs = np.array([[0.9, 0.55, 0.2], [0.5, 0.5, 0.1]])
        open_ = np.array([[True, True, True], [False, True, True]])
        assert select_next(probs, open_).tolist() == [1, 1]


def _small_world(seed=0, students=60, questions=12):
    data, truth = generate_synthetic(SynthConfig(students=students, questions=questions,
                                                 dims=0, mean_bq=0.0, std_bq=1.5, seed=seed))
    return data, truth


@st.composite
def _pools(draw):
    """A random sparse dataset, some students possibly without responses, and a pool drawn from it."""
    students, questions = draw(st.integers(2, 25)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = rng.random((students, questions)) < draw(st.floats(0.1, 1.0))
    observed[rng.integers(students), rng.integers(questions)] = True   # at least one response
    s_idx, q_idx = np.nonzero(observed)
    order = rng.permutation(s_idx.size)   # rows in any order
    d = dataset_from_arrays(s_idx[order], q_idx[order], rng.integers(0, 2, s_idx.size),
                            class_of=rng.integers(0, 3, students),
                            question_ids=tuple(f"q{i}" for i in range(questions)))
    pool_size = draw(st.integers(1, min(observed.any(axis=1).sum(), students - 1)))
    state = make_pool_state(d, pool_size, holdout_fraction=draw(st.floats(0.01, 0.99)),
                            seed=draw(st.integers(0, 2**32 - 1)))
    return d, state


def _observed(d, student_ids):
    """(P, Q) mask of the answered cells of the named students."""
    row = {sid: i for i, sid in enumerate(student_ids)}
    mask = np.zeros((len(student_ids), d.num_questions), dtype=bool)
    for s, q in zip(d.student_idx.tolist(), d.question_idx.tolist()):
        if d.student_ids[s] in row:
            mask[row[d.student_ids[s]], q] = True
    return mask


class TestMakePoolState:
    @settings(max_examples=60, deadline=None)
    @given(pool=_pools())
    def test_sets_are_disjoint_and_cover_answers(self, pool):
        d, state = pool
        assert not (state.holdout & state.queryable).any()
        observed = _observed(d, state.student_ids)
        assert np.array_equal(state.holdout | state.queryable, observed)
        assert state.holdout.any(axis=1).all()
        several = observed.sum(axis=1) >= 2
        assert state.queryable[several].any(axis=1).all()
        assert (state.order == -1).all()

    @settings(max_examples=60, deadline=None)
    @given(pool=_pools())
    def test_pool_students_absent_from_base(self, pool):
        d, state = pool
        assert sorted(state.base.student_ids + state.student_ids) == sorted(d.student_ids)
        base = state.base
        triples = [(base.student_ids[s], base.question_ids[q], y) for s, q, y in
                   zip(base.student_idx.tolist(), base.question_idx.tolist(), base.y.tolist())]
        for i, q in zip(*np.nonzero(state.holdout | state.queryable)):
            triples.append((state.student_ids[i], d.question_ids[q], int(state.label[i, q])))
        assert sorted(triples) == sorted((d.student_ids[s], d.question_ids[q], y) for s, q, y in
                                         zip(d.student_idx.tolist(), d.question_idx.tolist(), d.y.tolist()))

    def test_pool_size_bounds(self):
        data, _ = _small_world()
        with pytest.raises(ValueError):
            make_pool_state(data, pool_size=60, seed=0)

    @pytest.mark.parametrize("fraction", [float("nan"), -1.0, 0.0, 1.0, 1.5])
    def test_holdout_fraction_outside_unit_interval_rejected(self, fraction):
        data, _ = _small_world()
        with pytest.raises(ValueError, match=r"holdout_fraction must be in \(0, 1\)"):
            make_pool_state(data, pool_size=10, holdout_fraction=fraction, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_that_is_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            make_pool_state(_small_world()[0], pool_size=10, seed=seed)

    def test_student_without_responses_stays_in_base(self):
        data, _ = _small_world(students=30, questions=8)
        rows = data.student_idx != 0
        data = dataset_from_arrays(data.student_idx[rows], data.question_idx[rows], data.y[rows],
                                   class_of=data.class_of)
        state = make_pool_state(data, pool_size=10, seed=0)
        assert "s0" in state.base.student_ids
        result = run_active_loop(state, **_loop_config("uncertainty", rounds=2))
        assert np.isfinite(result.overall_accuracy).all()

    def test_pool_larger_than_the_answering_students_rejected(self):
        d = dataset_from_arrays([0, 1], [0, 0], [1, 0], class_of=[0, 0, 0, 0])
        with pytest.raises(ValueError, match="exceeds the 2 students with a response"):
            make_pool_state(d, pool_size=3, seed=0)

    def test_state_is_read_only(self):
        state = make_pool_state(_small_world()[0], pool_size=10, seed=0)
        for arr in (state.label, state.holdout, state.queryable, state.order):
            with pytest.raises(ValueError):
                arr[0, 0] = 1


class TestActiveConfig:
    """run_active_loop's settings, checked before any fit."""

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", 1.5), ("batch_size", float("nan")), ("batch_size", True),
        ("rounds", -1), ("rounds", 2.0), ("initial_epochs", -3), ("initial_epochs", 0),
    ])
    def test_bad_counts_rejected(self, field, value):
        state = make_pool_state(_small_world()[0], pool_size=10, seed=0)
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= "):
            run_active_loop(state, **{**_loop_config("random", rounds=1), field: value})

    def test_zero_rounds_scores_round_zero_only(self):
        state = make_pool_state(_small_world()[0], pool_size=10, seed=0)
        result = run_active_loop(state, **_loop_config("random", rounds=0))
        assert result.questions_revealed == [0]


def _loop_config(policy, rounds, seed=0, epochs=40, batch_size=1):
    """run_active_loop's keyword arguments; seed is the retrain schedule's."""
    return dict(policy=policy, rounds=rounds,
                retrain=TrainConfig(learning_rate=0.3, epochs=epochs, batch_size=256, convergence_tol=0.0,
                                    seed=seed),
                initial_epochs=60, batch_size=batch_size)


class TestRunActiveLoop:
    def test_round_zero_identical_across_policies(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=15, seed=3)
        unc = run_active_loop(state, **_loop_config("uncertainty", rounds=2))
        rnd = run_active_loop(state, **_loop_config("random", rounds=2))
        assert unc.overall_accuracy[0] == rnd.overall_accuracy[0]

    def test_input_state_is_not_mutated(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=10, seed=4)
        before = [arr.copy() for arr in (state.label, state.holdout, state.queryable, state.order)]
        run_active_loop(state, **_loop_config("uncertainty", rounds=3))
        assert (state.order == -1).all()
        for arr, old in zip((state.label, state.holdout, state.queryable, state.order), before):
            assert np.array_equal(arr, old)

    def test_curves_are_bit_reproducible(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=12, seed=5)
        a = run_active_loop(state, **_loop_config("random", rounds=4, seed=9))
        b = run_active_loop(state, **_loop_config("random", rounds=4, seed=9))
        assert a.overall_accuracy == b.overall_accuracy
        assert np.array_equal(a.per_student_accuracy, b.per_student_accuracy)

    def test_truncates_with_warning_when_pool_is_exhausted(self):
        data, _ = _small_world()
        state = make_pool_state(data, pool_size=8, holdout_fraction=0.25, seed=6)
        with pytest.warns(UserWarning, match="truncating"):
            result = run_active_loop(state, **_loop_config("uncertainty", rounds=50))
        assert len(result.questions_revealed) <= 11

    def test_policies_converge_once_everything_is_revealed(self):
        data, _ = _small_world(students=80)
        state = make_pool_state(data, pool_size=20, holdout_fraction=0.25, seed=7)
        curves = {}
        for policy in ("uncertainty", "random"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                curves[policy] = run_active_loop(
                    state, **_loop_config(policy, rounds=9, epochs=120, seed=11)).overall_accuracy
        assert abs(curves["uncertainty"][-1] - curves["random"][-1]) <= 0.002


def _holdout_hits(state, result):
    """Correct holdout answers per round, one digit per pool student.

    Asserts first that each accuracy is exactly hits / holdout size, so
    the digit strings pin per_student_accuracy bit for bit."""
    n = state.holdout.sum(axis=1)
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
        result = run_active_loop(state, **_loop_config(policy, rounds=4, seed=9, batch_size=batch_size))
        assert result.questions_revealed == revealed
        assert _holdout_hits(state, result) == hits

    # the first student arrives with 3 answers revealed, so every count starts at 3
    @pytest.mark.parametrize("policy,batch_size,revealed,hits", [
        ("uncertainty", 1, [3, 4, 5, 6],
         ["221212211212", "221122202111", "221121201211", "221222102211"]),
        ("random", 2, [3, 5, 7, 9],
         ["221212211212", "201111122111", "101122122112", "101122121111"]),
    ])
    def test_student_with_prior_reveals(self, policy, batch_size, revealed, hits):
        state = self._state()
        prior = np.flatnonzero(state.queryable[0])[:3]
        assert prior.tolist() == [0, 1, 4]
        order, queryable = state.order.copy(), state.queryable.copy()
        order[0, :3] = prior
        queryable[0, prior] = False
        state = replace(state, order=order, queryable=queryable)
        result = run_active_loop(state, **_loop_config(policy, rounds=3, seed=2, batch_size=batch_size))
        assert result.questions_revealed == revealed
        assert _holdout_hits(state, result) == hits
        assert state.order[0, :4].tolist() == [0, 1, 4, -1]

    def test_truncation(self):
        state = make_pool_state(_small_world()[0], pool_size=8, holdout_fraction=0.25, seed=6)
        with pytest.warns(UserWarning, match="after 5 rounds; truncating"):
            result = run_active_loop(state, **_loop_config("random", rounds=50, seed=3, batch_size=2))
        # 9 hidden answers per student: the last round reveals one
        assert result.questions_revealed == [0, 2, 4, 6, 8, 9]
        assert _holdout_hits(state, result) == ["22231322", "12130223", "12231222", "22231222",
                                                "22231222", "22232222"]

    def test_pool_split(self):
        state = make_pool_state(_small_world()[0], pool_size=4, holdout_fraction=0.25, seed=1)
        held = [{int(q): int(state.label[i, q]) for q in np.flatnonzero(state.holdout[i])}
                for i in range(len(state.student_ids))]
        assert list(zip(state.student_ids, held)) == [
            ("s26", {2: 1, 3: 0, 9: 0}), ("s29", {2: 1, 3: 1, 9: 0}),
            ("s44", {0: 1, 5: 0, 11: 1}), ("s57", {5: 1, 8: 1, 9: 0})]
        for i, labels in enumerate(["000001001", "001011111", "010011101", "101010110"]):
            hidden = np.flatnonzero(state.queryable[i])
            assert hidden.tolist() == sorted(set(range(12)) - set(held[i]))
            assert "".join(str(y) for y in state.label[i, hidden]) == labels


class TestSparsePool:
    """Exact curves on a pool whose students answer different subsets of
    the questions (about a third of all cells dropped), recorded from the
    dict-based pool that the array pool replaced: a pick or a score of a
    cell the student never answered shows up here."""

    def _state(self):
        data = _small_world()[0]
        keep = np.random.default_rng(4).random(data.n_responses) >= 1 / 3
        return make_pool_state(data.select(np.flatnonzero(keep)), pool_size=12,
                               holdout_fraction=0.25, seed=5)

    def test_pool(self):
        state = self._state()
        assert state.student_ids == ("s1", "s3", "s16", "s23", "s24", "s27", "s32", "s34", "s40",
                                     "s42", "s55", "s58")
        assert (state.holdout | state.queryable).sum(axis=1).tolist() == [10, 8, 9, 7, 10, 6, 6, 9, 9,
                                                                          5, 7, 8]
        assert state.holdout.sum(axis=1).tolist() == [3, 2, 2, 2, 3, 2, 2, 2, 2, 1, 2, 2]

    @pytest.mark.parametrize("policy,batch_size,rounds,revealed,hits", [
        ("uncertainty", 1, 4, [0, 1, 2, 3, 4],
         ["322212220112", "110212222110", "110212220110", "120212220112", "121212221112"]),
        ("random", 2, 4, [0, 2, 4, 6, 7],
         ["322212220112", "120212222111", "221212222112", "221212220112", "122212220112"]),
        ("uncertainty", 3, 50, [0, 3, 6, 7],
         ["322212220112", "122212221122", "122212220112", "122212220112"]),
        ("random", 3, 50, [0, 3, 6, 7],
         ["322212220112", "110212222112", "122212220112", "122212220112"]),
    ])
    def test_curves(self, policy, batch_size, rounds, revealed, hits):
        state = self._state()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_active_loop(state, **_loop_config(policy, rounds=rounds, seed=9,
                                                         batch_size=batch_size))
        assert result.questions_revealed == revealed
        assert _holdout_hits(state, result) == hits
        assert [str(w.message) for w in caught] == (
            ["all hidden answers revealed after 3 rounds; truncating"] if rounds == 50 else [])


class TestAbilityBucketReport:
    """Learning curves split by true ability, bucketed inline over (lo, hi] intervals."""

    def test_mid_tertile_is_hardest_once_abilities_are_learned(self):
        """Mid-ability students sit nearest p = 0.5, so once the loop has
        revealed enough answers to estimate abilities, their accuracy
        trails both outer tertiles (averaged over 5 seeds)."""
        lows, mids, highs = [], [], []
        for seed in range(5):
            data, truth = generate_synthetic(SynthConfig(students=150, questions=20, dims=0,
                                                         mean_bq=0.0, std_bq=1.5, seed=seed))
            state = make_pool_state(data, pool_size=60, holdout_fraction=0.3, seed=seed + 50)
            result = run_active_loop(state, "uncertainty", 14,
                                     TrainConfig(learning_rate=0.3, epochs=40, batch_size=256,
                                                 convergence_tol=0.0, seed=seed + 90),
                                     initial_epochs=50)
            order = {sid: i for i, sid in enumerate(data.student_ids)}
            abilities = np.array([truth["ability"][order[sid]] for sid in state.student_ids])
            edges = [-np.inf, *np.quantile(abilities, [1 / 3, 2 / 3]), np.inf]
            final = result.per_student_accuracy[-1]
            low, mid, high = (final[(abilities > lo) & (abilities <= hi)].mean()
                              for lo, hi in zip(edges, edges[1:]))
            lows.append(low)
            mids.append(mid)
            highs.append(high)
        assert np.mean(mids) <= np.mean(lows)
        assert np.mean(mids) <= np.mean(highs)
