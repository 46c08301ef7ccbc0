"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The recovery experiment
(criterion 1) trains ten models at the 40,000-student scale and dominates
the runtime; the whole module targets well under fifteen minutes.
"""

import json
import warnings

import numpy as np
import pytest

from irtkit.cli import dispatch
from irtkit.data import dataset_from_arrays, split_train_test
from irtkit.experiments import active_vs_random, low_data_sweep, recovery_run
from irtkit.metrics import cosine_similarity_matrix
from irtkit.models import Params, predict_proba_array, sigmoid
from irtkit.optim import init_params, nll
from irtkit.vi import VIConfig, train_vi

from oracles import (
    elbo_finite_diff_check,
    exact_elbo_class_vi,
    exact_elbo_rasch_vi,
    finite_diff_check,
    kl_gaussian,
    log_evidence_class_vi,
    log_evidence_rasch,
    mc_kl_estimate,
)

SEEDS = (0, 1, 2, 3, 4)


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# ------------------------------------------------------------------ 1 ----


class TestCriterion1Recovery:
    def test_full_scale_recovery(self):
        """Synthetic recovery at the 40,000-student reference scale.

        Gates the seed-mean accuracies against the reference values
        95.54 / 96.20 within +-1.0pp and requires the interaction model
        to beat the ability-difficulty model on at least 4 of 5 paired
        seeds.
        """
        rows = recovery_run(students=40_000, seeds=SEEDS)
        rasch = [r.accuracy for r in rows if r.model == "rasch"]
        inter = [r.accuracy for r in rows if r.model == "interaction"]
        mean_rasch, mean_inter = float(np.mean(rasch)), float(np.mean(inter))
        wins = sum(i > r for i, r in zip(inter, rasch))
        detail = (f"rasch {mean_rasch * 100:.2f}% (target 95.54+-1.0), "
                  f"interaction {mean_inter * 100:.2f}% (target 96.20+-1.0), "
                  f"interaction>rasch on {wins}/5 seeds")
        passed = (abs(mean_rasch - 0.9554) <= 0.010 and abs(mean_inter - 0.9620) <= 0.010
                  and wins >= 4)
        report(1, "recovery", passed, detail)

    def test_subscale_fallback_preserves_ordering(self):
        """Documented fallback at 10,000 students keeps interaction > rasch."""
        rows = recovery_run(students=10_000, seeds=SEEDS)
        rasch = [r.accuracy for r in rows if r.model == "rasch"]
        inter = [r.accuracy for r in rows if r.model == "interaction"]
        wins = sum(i > r for i, r in zip(inter, rasch))
        report(1, "recovery-subscale", wins >= 4, f"interaction>rasch on {wins}/5 seeds")


# ------------------------------------------------------------------ 2 ----


def test_criterion_2_significance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = dispatch(["significance", "--x1", "94440", "--n1", "120000",
                     "--x2", "95280", "--n2", "120000", "--alpha", "0.01"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    passed = (code == 0
              and abs(record["p_hat"] - 0.7905) <= 1e-4
              and abs(record["se"] - 0.00166) <= 1e-5
              and abs(record["z"] - 4.21) <= 0.01
              and 0.01 in record["significant_at"])
    with capsys.disabled():
        report(2, "two-proportion z-test", passed,
               f"p_hat {record['p_hat']:.4f} se {record['se']:.5f} z {record['z']:.3f}")


# ------------------------------------------------------------------ 3 ----


def test_criterion_3_kl_closed_form_vs_monte_carlo():
    pairs = [(0.0, 1.0), (1.0, 1.0), (0.0, 0.5), (2.0, 0.3)]
    worst = ""
    passed = True
    for i, (mu, sigma) in enumerate(pairs):
        closed = kl_gaussian(mu, sigma, 0.0, 1.0)
        est, se = mc_kl_estimate(mu, sigma, 10**6, seed=100 + i)
        ok = abs(closed - est) <= 3 * se + 1e-12
        passed = passed and ok
        worst += f"({mu},{sigma}): |{closed:.4f}-{est:.4f}|<=3*{se:.1e}; "
    report(3, "KL closed form vs MC", passed, worst)


# ------------------------------------------------------------------ 4 ----


def _random_point_instance(kind, dims, seed):
    rng = np.random.default_rng(seed)
    S, Q, C = rng.integers(2, 5), rng.integers(2, 5), rng.integers(1, 3)
    params = init_params(kind, dims, S, Q, C, rng, 1.0)
    cells = [(s, q) for s in range(S) for q in range(Q) if rng.random() < 0.85]
    if not cells:
        cells = [(0, 0)]
    s_idx, q_idx = zip(*cells)
    y = rng.integers(0, 2, size=len(cells))
    data = dataset_from_arrays(list(s_idx), list(q_idx), y, class_of=rng.integers(0, C, size=S),
                               question_ids=tuple(f"q{i}" for i in range(Q)),
                               class_ids=tuple(f"c{i}" for i in range(C)))
    return params, data


def _random_vi_instance(kind, seed):
    rng = np.random.default_rng(seed)
    S, Q, C, D = int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2, int(rng.integers(1, 3))
    cells = [(s, q) for s in range(S) for q in range(Q)]
    y = rng.integers(0, 2, size=len(cells))
    s_idx, q_idx = zip(*cells)
    data = dataset_from_arrays(list(s_idx), list(q_idx), y, class_of=rng.integers(0, C, size=S),
                               class_ids=("c0", "c1"))
    tensors = {"ability": rng.normal(size=S), "ability_rho": rng.normal(0.2, 0.3, size=S),
               "easiness": rng.normal(size=Q)}
    if kind == "interaction-vi":
        tensors["demand"] = rng.normal(size=(Q, D))
        tensors["vec"] = rng.normal(size=(S, D))
        tensors["vec_rho"] = rng.normal(0.0, 0.3, size=(S, D))
    elif kind == "class-interaction-vi":
        tensors["demand"] = rng.normal(size=(Q, D))
        tensors["vec"] = rng.normal(size=(C, D))
        tensors["vec_rho"] = rng.normal(0.0, 0.3, size=(C, D))
    return Params(kind=kind, **tensors), data


def test_criterion_4_gradient_fidelity():
    worst_nll = 0.0
    for k, (kind, dims) in enumerate((("rasch", 0), ("interaction", 2), ("class-interaction", 2))):
        for i in range(20):
            params, data = _random_point_instance(kind, dims, seed=1000 + 37 * i + k)
            worst_nll = max(worst_nll, finite_diff_check(params, data, epsilon=1e-5))
    worst_elbo = 0.0
    kinds = ("rasch-vi", "interaction-vi", "class-interaction-vi")
    for i in range(20):
        params, data = _random_vi_instance(kinds[i % 3], seed=2000 + 11 * i)
        worst_elbo = max(worst_elbo, elbo_finite_diff_check(params, data, M=3, seed=300 + i))
    passed = worst_nll < 1e-4 and worst_elbo < 1e-4
    report(4, "gradient fidelity", passed,
           f"max rel err: NLL {worst_nll:.2e}, ELBO(CRN) {worst_elbo:.2e} (tol 1e-4)")


# ------------------------------------------------------------------ 5 ----


def _bound_case_rasch(s_idx, q_idx, y, num_students, num_questions, seed):
    data = dataset_from_arrays(s_idx, q_idx, y, class_of=np.zeros(num_students, dtype=np.int64),
                               question_ids=tuple(f"q{i}" for i in range(num_questions)))
    cfg = VIConfig(samples=8, sigma_init=0.8, learning_rate=0.05, epochs=3000, seed=seed)
    params, _ = train_vi("rasch-vi", data, cfg)
    return exact_elbo_rasch_vi(params, data), log_evidence_rasch(params.easiness, data)


def test_criterion_5_elbo_bounded_by_log_evidence():
    cases = []
    cases.append(_bound_case_rasch([0, 0, 0], [0, 1, 2], [1, 0, 1], 1, 3, seed=0))
    cases.append(_bound_case_rasch([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [1, 0, 1, 0, 0, 1],
                                   2, 3, seed=1))
    cases.append(_bound_case_rasch([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2],
                                   [0, 1, 2, 3, 0, 1, 3, 0, 1, 2, 3],
                                   [1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1], 3, 4, seed=2))
    # class-interaction variant: 2 students sharing one class, D=1
    data = dataset_from_arrays([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [1, 0, 1, 0, 0, 1],
                               class_of=np.zeros(2, dtype=np.int64))
    cfg = VIConfig(samples=8, sigma_init=0.8, learning_rate=0.03, epochs=4000, seed=3)
    ci_params, _ = train_vi("class-interaction-vi", data, cfg, dims=1)
    cases.append((exact_elbo_class_vi(ci_params, data),
                  log_evidence_class_vi(ci_params.easiness, ci_params.demand, data)))

    passed = True
    details = []
    for elbo, evidence in cases:
        gap = evidence - elbo
        passed = passed and (elbo <= evidence) and (gap < 0.5)
        details.append(f"gap {gap:.4f}")
    report(5, "ELBO bounded by log evidence", passed, ", ".join(details) + " (all < 0.5 nats)")


# ------------------------------------------------------------------ 6 ----


def test_criterion_6_low_data_vi_benefit():
    rows = low_data_sweep(fractions=(0.15,), seeds=SEEDS)
    ci = float(np.mean([r.ci_accuracy for r in rows]))
    civi = float(np.mean([r.civi_accuracy for r in rows]))
    wins = sum(r.civi_accuracy > r.ci_accuracy for r in rows)
    passed = civi >= ci - 0.001 and wins >= 3
    report(6, "low-data VI benefit", passed,
           f"CI {ci * 100:.2f}% vs CIVI {civi * 100:.2f}% ({(civi - ci) * 100:+.2f}pp), "
           f"CIVI wins {wins}/5 seeds")


# ------------------------------------------------------------------ 7 ----


def test_criterion_7_active_learning_ordering():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = active_vs_random(pool_size=2000, seeds=SEEDS, rounds=56)
    unc = np.mean([r.overall_accuracy for r in results["uncertainty"]], axis=0)
    rnd = np.mean([r.overall_accuracy for r in results["random"]], axis=0)
    at10 = unc[10] - rnd[10]
    final_gap = abs(unc[-1] - rnd[-1])
    passed = at10 >= 0.0 and final_gap <= 0.002
    report(7, "active learning ordering", passed,
           f"uncertainty-random at 10 questions {at10 * 100:+.2f}pp, "
           f"final curve gap {final_gap * 100:.3f}pp (<= 0.2pp)")


# ------------------------------------------------------------------ 8 ----


class TestCriterion8Structural:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        checks = {}

        ability, easiness = rng.normal(size=6), rng.normal(size=5)
        cells = [(s, q) for s in range(6) for q in range(5)]
        s_idx, q_idx = zip(*cells)
        y = rng.integers(0, 2, size=len(cells))
        data = dataset_from_arrays(list(s_idx), list(q_idx), y, class_of=np.zeros(6, dtype=np.int64))
        base = nll(Params(ability, easiness, kind="rasch"), data)
        shifted = nll(Params(ability + 1.7, easiness - 1.7, kind="rasch"), data)
        checks["gauge"] = abs(base - shifted) <= 5e-10

        x = rng.uniform(-50, 50, 4000)
        checks["logistic symmetry"] = float(np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0))) <= 1e-12

        inter = Params(ability, easiness, np.zeros((6, 2)), rng.normal(size=(5, 2)), kind="interaction")
        rasch = Params(ability, easiness, kind="rasch")
        checks["zero-interaction reduction"] = all(
            predict_proba_array(inter, [s], [q])[0]
            == predict_proba_array(rasch, [s], [q])[0]
            for s in range(6) for q in range(5))

        m = rng.normal(size=(8, 3))
        sim, _ = cosine_similarity_matrix(m)
        scaled, _ = cosine_similarity_matrix(m * np.array([3.7] * 3))
        checks["cosine"] = (np.array_equal(sim, sim.T)
                            and np.all(np.diag(sim) == 1.0)
                            and bool(np.max(np.abs(sim - scaled)) <= 1e-12))

        train, test = split_train_test(data, 0.3, seed=5)
        cells_all = set(zip(data.student_idx, data.question_idx))
        tr = set(zip(train.student_idx, train.question_idx))
        te = set(zip(test.student_idx, test.question_idx))
        checks["split partition"] = (tr | te == cells_all and not (tr & te)
                                     and train.n_responses + test.n_responses
                                     == data.n_responses)

        passed = all(checks.values())
        report(8, "structural invariants", passed,
               ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items()))

    def test_pipeline_seed_determinism(self, tmp_path, monkeypatch, capsys):
        """Two identical CLI runs of every pipeline stage produce identical bytes."""
        outputs = {}
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            monkeypatch.chdir(d)
            steps = [
                ["synth", "--students", "50", "--questions", "8", "--dims", "1",
                 "--mean-bq", "0", "--classes", "5", "--class-effect-std", "0.5",
                 "--seed", "13", "--out", "data.csv", "--truth", "truth.json"],
                ["ingest", "--input", "data.csv", "--format", "binary", "--out", "norm.csv",
                 "--test-fraction", "0.25", "--train-out", "train.csv", "--test-out", "test.csv",
                 "--seed", "3"],
                ["train", "--data", "train.csv", "--model", "class-interaction", "--dims", "1",
                 "--epochs", "20", "--seed", "5", "--out", "ci.json"],
                ["train-vi", "--data", "train.csv", "--model", "class-interaction-vi",
                 "--dims", "1", "--epochs", "15", "--lr", "0.005", "--warm-start", "ci.json",
                 "--seed", "7", "--out", "civi.json"],
                ["eval", "--checkpoint", "civi.json", "--data", "test.csv",
                 "--out", "metrics.json"],
                ["interpret", "--checkpoint", "ci.json", "--out", "matrix.csv"],
                ["active", "--data", "data.csv", "--pool-size", "15", "--policy", "uncertainty",
                 "--rounds", "2", "--seed", "11", "--out", "curve.csv"],
            ]
            for argv in steps:
                assert dispatch(argv) == 0, f"step {argv[0]} failed on run {run}"
            capsys.readouterr()
            outputs[run] = {
                p.name: p.read_bytes()
                for p in sorted(d.iterdir())
                if not p.name.endswith("manifest.json")
            }
        same = outputs["one"] == outputs["two"]
        with capsys.disabled():
            report(8, "seed determinism", same,
                   f"{len(outputs['one'])} artifacts byte-identical across reruns")
