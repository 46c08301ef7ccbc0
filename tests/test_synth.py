"""Synthetic data generation: determinism, scale, generative sanity, and the truth record."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit.cli import dispatch
from irtkit.data import split_train_test
from irtkit.models import predict_proba_array, sigmoid
from irtkit.optim import TrainConfig, sgd_train
from irtkit.synth import SynthConfig, generate_synthetic

from oracles import log_loss


def test_same_seed_is_byte_identical():
    cfg = SynthConfig(students=50, questions=6, dims=2, num_classes=4, class_effect_std=0.5, seed=9)
    d1, t1 = generate_synthetic(cfg)
    d2, t2 = generate_synthetic(cfg)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.student_idx, d2.student_idx)
    assert np.array_equal(t1["ability"], t2["ability"])
    assert np.array_equal(t1["class_skill"], t2["class_skill"])


def test_single_cell_dataset():
    d, _ = generate_synthetic(SynthConfig(students=1, questions=1, dims=0, seed=3))
    assert d.n_responses == 1
    assert d.num_students == 1 and d.num_questions == 1


def test_reference_scale_is_dense():
    d, _ = generate_synthetic(SynthConfig(students=40_000, questions=24, dims=1, seed=0))
    assert d.n_responses == 960_000


def test_easiness_sample_mean_obeys_lln():
    _, truth = generate_synthetic(SynthConfig(students=1, questions=10_000, dims=0, seed=5))
    assert abs(float(np.mean(truth["easiness"])) - (-3.0)) <= 3.0 / np.sqrt(10_000)


def test_correct_rate_monotone_in_mean_easiness():
    rates = []
    for mean_bq in (-3.0, 0.0, 3.0):
        per_seed = [generate_synthetic(SynthConfig(students=300, questions=20, dims=1,
                                                   mean_bq=mean_bq, seed=s))[0].y.mean()
                    for s in (0, 1, 2)]
        rates.append(float(np.mean(per_seed)))
    assert rates[0] < rates[1] < rates[2]


def test_keep_prob_thins_responses():
    full, _ = generate_synthetic(SynthConfig(students=200, questions=10, seed=1))
    thin, _ = generate_synthetic(SynthConfig(students=200, questions=10, keep_prob=0.5, seed=1))
    assert thin.n_responses < full.n_responses
    assert abs(thin.n_responses / full.n_responses - 0.5) < 0.05


def test_round_robin_class_assignment():
    d, truth = generate_synthetic(SynthConfig(students=10, questions=2, num_classes=3,
                                              class_effect_std=1.0, seed=2))
    np.testing.assert_array_equal(d.class_of, np.arange(10) % 3)
    assert truth["class_skill"].shape == (3, 1)


def test_threshold_outcome_is_deterministic_given_latents():
    cfg = SynthConfig(students=30, questions=5, dims=1, outcome="threshold", seed=4)
    d, truth = generate_synthetic(cfg)
    z = (truth["ability"][:, None] + truth["easiness"][None, :] + truth["skill"] @ truth["demand"].T)
    np.testing.assert_array_equal(d.y.reshape(30, 5), (z > 0).astype(np.int8))


def test_exam_seed_fixes_question_side_across_student_seeds():
    a = generate_synthetic(SynthConfig(students=20, questions=6, dims=1, seed=1, exam_seed=77))[1]
    b = generate_synthetic(SynthConfig(students=20, questions=6, dims=1, seed=2, exam_seed=77))[1]
    np.testing.assert_array_equal(a["easiness"], b["easiness"])
    np.testing.assert_array_equal(a["demand"], b["demand"])
    assert not np.array_equal(a["ability"], b["ability"])


@pytest.mark.parametrize("name,value", [
    ("students", float("nan")), ("students", 2.5), ("questions", True), ("dims", 1.5), ("num_classes", -1),
    ("std_bq", float("nan")), ("std_xs", float("inf")),
    ("class_effect_std", float("nan")), ("seed", -1), ("seed", 1.5), ("exam_seed", -2), ("exam_seed", 1.5),
    ("mean_bq", float("nan")), ("mean_bq", float("inf")), ("mean_bq", float("-inf")), ("mean_bq", "-3"),
])
def test_config_rejects_bad_numeric_field(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        SynthConfig(**{name: value})


def test_rasch_limit_logloss_approaches_generative_entropy():
    """With no interaction structure the trained model's held-out log-loss
    should come within 5% of the true-parameter log-loss. Fifty questions
    keep the per-student estimation noise small enough for that margin."""
    data, truth = generate_synthetic(SynthConfig(students=5000, questions=50, dims=0,
                                                 mean_bq=0.0, seed=6))
    train, te = split_train_test(data, 0.2, seed=7)
    params, _ = sgd_train("rasch", train, TrainConfig(learning_rate=0.1, epochs=60, seed=8))
    fitted = log_loss(predict_proba_array(params, te.student_idx, te.question_idx), te.y)
    true_p = sigmoid(truth["ability"][te.student_idx] + truth["easiness"][te.question_idx])
    reference = log_loss(true_p, te.y)
    assert fitted <= reference * 1.05


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(students=0)
    with pytest.raises(ValueError):
        SynthConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        SynthConfig(outcome="coinflip")


@settings(max_examples=40, deadline=None)
@given(students=st.integers(1, 6), questions=st.integers(1, 5), dims=st.integers(0, 3),
       classes=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_truth_record_keys_order_and_shapes_and_what_synth_writes(students, questions, dims, classes, seed):
    cfg = SynthConfig(students=students, questions=questions, dims=dims, num_classes=classes,
                      class_effect_std=0.5, seed=seed)
    _, truth = generate_synthetic(cfg)
    shapes = {"ability": (students,), "easiness": (questions,), "skill": (students, dims),
              "demand": (questions, dims)}
    if classes:
        shapes |= {"class_skill": (classes, dims), "class_of": (students,)}
    assert list(truth) == list(shapes)
    assert {name: array.shape for name, array in truth.items()} == shapes
    with tempfile.TemporaryDirectory() as tmp:
        out, path = os.path.join(tmp, "data.csv"), os.path.join(tmp, "truth.json")
        assert dispatch(["synth", "--students", str(students), "--questions", str(questions), "--dims", str(dims),
                         "--classes", str(classes), "--class-effect-std", "0.5", "--seed", str(seed),
                         "--out", out, "--truth", path]) == 0
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
    assert list(written) == list(truth)
    assert written == {name: array.tolist() for name, array in truth.items()}
