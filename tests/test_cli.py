"""End-to-end command-line flows via the dispatcher."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irtkit
from irtkit.cli import build_parser, dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_record(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _synth_args(out, seed=0, **over):
    base = {"students": "40", "questions": "8", "dims": "1", "mean-bq": "0",
            "classes": "4", "class-effect-std": "0.5", "seed": str(seed)}
    base.update(over)
    argv = ["synth"]
    for key, val in base.items():
        argv += [f"--{key}", val]
    argv += ["--out", out]
    return argv


class TestSignificance:
    def test_reported_z_value(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "significance", "--x1", "94440", "--n1", "120000",
                               "--x2", "95280", "--n2", "120000")
        assert code == 0
        record = last_record(out)
        assert list(record) == ["p_hat", "se", "z", "p_value", "significant_at"]
        assert record["z"] == pytest.approx(4.21, abs=0.01)
        assert record["p_hat"] == pytest.approx(0.7905, abs=1e-4)
        assert 0.01 in record["significant_at"]
        # no --out and no --manifest: no manifest, so no earlier run's is replaced
        assert not os.path.exists("run_manifest.json") and os.listdir() == []

    def test_manifest_flag_writes_the_manifest(self, workdir, capsys):
        code, _, _ = run_cli(capsys, "significance", "--x1", "30", "--n1", "100",
                             "--x2", "40", "--n2", "100", "--manifest", "m.json")
        assert code == 0 and os.listdir() == ["m.json"]
        manifest = json.loads((workdir / "m.json").read_text())
        assert manifest["config"]["x1"] == 30 and manifest["outputs"] == []

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "-0.05"])
    def test_alpha_outside_open_unit_interval_is_a_named_error(self, workdir, capsys, alpha):
        code, out, err = run_cli(capsys, "significance", "--x1", "30", "--n1", "100",
                                 "--x2", "40", "--n2", "100", "--alpha", "0.05", f"--alpha={alpha}")
        assert code == 1 and out == ""
        assert err == f"error: every alpha must be in (0, 1), got [0.05, {float(alpha)!r}]\n"
        assert list(workdir.iterdir()) == []

    def test_degenerate_input_fails_cleanly(self, workdir, capsys):
        code, _, err = run_cli(capsys, "significance", "--x1", "0", "--n1", "5",
                               "--x2", "0", "--n2", "5")
        assert code == 1
        assert err.startswith("error:")
        assert "\n" not in err.strip()


# Every subcommand's options: {option string: (default, required, choices, type name)}.
PARSER_CONTRACT = {
    "ingest": {
        "--manifest": (None, False, None, None),
        "--input": (None, True, None, None),
        "--format": ("raw", False, ("raw", "binary"), None),
        "--out": (None, True, None, None),
        "--test-fraction": (None, False, None, "float"),
        "--train-out": (None, False, None, None),
        "--test-out": (None, False, None, None),
        "--seed": (0, False, None, "int"),
    },
    "train": {
        "--manifest": (None, False, None, None),
        "--data": (None, True, None, None),
        "--format": ("binary", False, ("raw", "binary"), None),
        "--model": (None, True, ("rasch", "interaction", "class-interaction"), None),
        "--dims": (1, False, None, "int"),
        "--lr": (0.1, False, None, "float"),
        "--epochs": (50, False, None, "int"),
        "--batch-size": (1024, False, None, "int"),
        "--l2": (0.0001, False, None, "float"),
        "--init-scale": (0.01, False, None, "float"),
        "--seed": (0, False, None, "int"),
        "--warm-start": (None, False, None, None),
        "--out": (None, True, None, None),
    },
    "train-vi": {
        "--manifest": (None, False, None, None),
        "--data": (None, True, None, None),
        "--format": ("binary", False, ("raw", "binary"), None),
        "--model": (None, True, ("rasch-vi", "interaction-vi", "class-interaction-vi"), None),
        "--dims": (1, False, None, "int"),
        "--samples": (5, False, None, "int"),
        "--sigma-init": (0.8, False, None, "float"),
        "--lr": (0.02, False, None, "float"),
        "--epochs": (500, False, None, "int"),
        "--seed": (0, False, None, "int"),
        "--warm-start": (None, False, None, None),
        "--out": (None, True, None, None),
    },
    "eval": {
        "--manifest": (None, False, None, None),
        "--data": (None, True, None, None),
        "--format": ("binary", False, ("raw", "binary"), None),
        "--checkpoint": (None, True, None, None),
        "--threshold": (0.5, False, None, "float"),
        "--out": (None, False, None, None),
    },
    "synth": {
        "--manifest": (None, False, None, None),
        "--students": (None, True, None, "int"),
        "--questions": (None, True, None, "int"),
        "--dims": (1, False, None, "int"),
        "--mean-bq": (-3.0, False, None, "float"),
        "--std-bq": (1.0, False, None, "float"),
        "--classes": (0, False, None, "int"),
        "--class-effect-std": (0.0, False, None, "float"),
        "--keep-prob": (1.0, False, None, "float"),
        "--outcome": ("sample", False, ("sample", "threshold"), None),
        "--seed": (0, False, None, "int"),
        "--exam-seed": (None, False, None, "int"),
        "--out": (None, True, None, None),
        "--truth": (None, False, None, None),
    },
    "interpret": {
        "--manifest": (None, False, None, None),
        "--checkpoint": (None, True, None, None),
        "--out": (None, True, None, None),
        "--rescale-display": (False, False, None, None),
    },
    "significance": {
        "--manifest": (None, False, None, None),
        "--x1": (None, True, None, "int"),
        "--n1": (None, True, None, "int"),
        "--x2": (None, True, None, "int"),
        "--n2": (None, True, None, "int"),
        "--alpha": (None, False, None, "float"),
    },
    "active": {
        "--manifest": (None, False, None, None),
        "--data": (None, True, None, None),
        "--format": ("binary", False, ("raw", "binary"), None),
        "--pool-size": (2000, False, None, "int"),
        "--policy": (None, True, ("uncertainty", "random"), None),
        "--batch": (1, False, None, "int"),
        "--rounds": (70, False, None, "int"),
        "--holdout-fraction": (0.2, False, None, "float"),
        "--seed": (0, False, None, "int"),
        "--out": (None, True, None, None),
    },
    "experiment": {
        "--manifest": (None, False, None, None),
        "recipe": (None, True, ("appendix-c-recovery", "low-data-sweep", "active-vs-random"), None),
        "--out-dir": (".", False, None, None),
        "--seeds": ("0,1,2,3,4", False, None, None),
        "--students": (40000, False, None, "int"),
        "--fractions": ("1.0,0.5,0.25,0.15", False, None, None),
        "--pool-size": (2000, False, None, "int"),
        "--rounds": (56, False, None, "int"),
    },
}


def test_parser_contract():
    """Each subcommand keeps its option strings, defaults, required flags, choices and types."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {(a.option_strings or [a.dest])[0]:
                    (a.default, a.required, None if a.choices is None else tuple(a.choices),
                     getattr(a.type, "__name__", None))
                    for a in sub._actions if not isinstance(a, argparse._HelpAction)}
             for name, sub in subparsers.choices.items()}
    assert found == PARSER_CONTRACT


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, workdir, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag_exits_2(self, workdir, capsys):
        assert run_cli(capsys, "significance", "--bogus", "1")[0] == 2

    def test_unknown_recipe_exits_2(self, workdir, capsys):
        assert run_cli(capsys, "experiment", "not-a-recipe")[0] == 2

    @pytest.mark.parametrize("argv,flag,path", [
        (["train-vi", "--data", "data.csv", "--model", "rasch-vi", "--out", "nodir/v.json"],
         "--out", "nodir/v.json"),
        (["train", "--data", "data.csv", "--model", "rasch", "--out", "m.json",
          "--manifest", "nodir/m.json"], "--manifest", "nodir/m.json"),
        (["ingest", "--input", "data.csv", "--format", "binary", "--out", "all.csv",
          "--test-fraction", "0.2", "--train-out", "train.csv", "--test-out", "nodir/test.csv"],
         "--test-out", "nodir/test.csv"),
        (["ingest", "--input", "data.csv", "--format", "binary", "--out", "all.csv",
          "--test-fraction", "0.2", "--train-out", "nodir/train.csv", "--test-out", "test.csv"],
         "--train-out", "nodir/train.csv"),
        (_synth_args("s.csv") + ["--truth", "nodir/t.json"], "--truth", "nodir/t.json"),
        (["experiment", "active-vs-random", "--seeds", "0", "--pool-size", "20", "--rounds", "1",
          "--out-dir", "nodir"], "--out-dir", "nodir"),
    ], ids=["train-vi out", "train manifest", "ingest test-out", "ingest train-out", "synth truth",
            "experiment out-dir"])
    def test_missing_output_directory_fails_before_any_work(self, workdir, capsys, argv, flag, path):
        run_cli(capsys, *_synth_args("data.csv", students="30", questions="4"))
        before = sorted(p.name for p in workdir.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} {path}:") and err.count("\n") == 1
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_unwritable_manifest_is_an_error_line(self, workdir, capsys):
        (workdir / "taken").mkdir()
        code, out, err = run_cli(capsys, "significance", "--x1", "4", "--n1", "10", "--x2", "6", "--n2", "10",
                                 "--manifest", "taken")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSynthCli:
    def test_same_seed_same_bytes(self, workdir, capsys):
        code, _, _ = run_cli(capsys, *_synth_args("a.csv", seed=7), "--truth", "ta.json")
        assert code == 0
        code, _, _ = run_cli(capsys, *_synth_args("b.csv", seed=7), "--truth", "tb.json")
        assert code == 0
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
        assert (workdir / "ta.json").read_bytes() == (workdir / "tb.json").read_bytes()

    def test_manifest_written_next_to_output(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        manifest = json.loads((workdir / "data.csv.manifest.json").read_text())
        assert manifest["outputs"] == ["data.csv"]
        assert manifest["seeds"] == {"seed": 0, "exam_seed": None}

    def test_negative_seed_is_a_named_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, *_synth_args("data.csv", seed=-1))
        assert code == 1
        assert err.strip() == "error: seed must be an integer >= 0, got -1"
        assert not os.path.exists("data.csv")


class TestManifest:
    def test_ingest_records_the_split_flags(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        assert run_cli(capsys, "ingest", "--input", "data.csv", "--format", "binary", "--out", "all.csv",
                       "--test-fraction", "0.2", "--train-out", "train.csv", "--test-out", "test.csv",
                       "--seed", "4")[0] == 0
        manifest = json.loads((workdir / "all.csv.manifest.json").read_text())
        assert manifest["config"] == {"format": "binary", "test_fraction": 0.2}
        assert manifest["seeds"] == {"seed": 4}

    def test_synth_records_the_exam_seed(self, workdir, capsys):
        assert run_cli(capsys, *_synth_args("data.csv", seed=3), "--exam-seed", "7")[0] == 0
        manifest = json.loads((workdir / "data.csv.manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 3, "exam_seed": 7}
        assert "exam_seed" not in manifest["config"] and manifest["config"]["students"] == 40

    def test_input_digests_are_the_sha256_of_each_input(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "interaction", "--epochs", "2", "--out", "w.json")
        assert run_cli(capsys, "train", "--data", "data.csv", "--model", "interaction", "--epochs", "2",
                       "--warm-start", "w.json", "--out", "m.json")[0] == 0
        assert run_cli(capsys, "eval", "--checkpoint", "m.json", "--data", "data.csv", "--out", "e.json")[0] == 0
        for manifest, inputs in (("m.json.manifest.json", ("data.csv", "w.json")),
                                 ("e.json.manifest.json", ("m.json", "data.csv"))):
            assert json.loads((workdir / manifest).read_text())["input_digests"] == \
                {path: hashlib.sha256((workdir / path).read_bytes()).hexdigest() for path in inputs}

    def test_interpret_reports_zero_rows_and_records_the_flag(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "interaction", "--epochs", "2", "--out", "m.json")
        code, out, _ = run_cli(capsys, "interpret", "--checkpoint", "m.json", "--out", "q.csv", "--rescale-display")
        assert code == 0 and last_record(out) == {"questions": 8, "rescaled": True, "zero_rows": []}
        assert json.loads((workdir / "q.csv.manifest.json").read_text())["config"] == {"rescale_display": True}


class TestPipeline:
    def test_train_eval_interpret_and_vi(self, workdir, capsys):
        assert run_cli(capsys, *_synth_args("data.csv", seed=3))[0] == 0
        code, out, _ = run_cli(capsys, "ingest", "--input", "data.csv", "--format", "binary",
                               "--out", "norm.csv", "--test-fraction", "0.25",
                               "--train-out", "train.csv", "--test-out", "test.csv")
        assert code == 0
        assert last_record(out)["responses"] == 320

        code, out, _ = run_cli(capsys, "train", "--data", "train.csv", "--model", "interaction",
                               "--dims", "1", "--epochs", "30", "--lr", "0.2",
                               "--seed", "1", "--out", "point.json")
        assert code == 0
        assert os.path.exists("point.json.report.json")

        code, out, _ = run_cli(capsys, "eval", "--checkpoint", "point.json", "--data", "test.csv",
                               "--out", "metrics.json")
        assert code == 0
        record = last_record(out)
        assert 0.0 <= record["accuracy"] <= 1.0
        assert record["n"] == 80
        written = json.loads((workdir / "metrics.json").read_text())
        assert list(written) == ["n", "correct", "accuracy", "precision", "recall", "threshold"]
        assert written == record

        code, _, _ = run_cli(capsys, "interpret", "--checkpoint", "point.json",
                             "--out", "matrix.csv")
        assert code == 0
        lines = (workdir / "matrix.csv").read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("question_id,")

        code, _, _ = run_cli(capsys, "train-vi", "--data", "train.csv", "--model", "interaction-vi",
                             "--dims", "1", "--epochs", "20", "--lr", "0.005",
                             "--warm-start", "point.json", "--seed", "2", "--out", "vi.json")
        assert code == 0
        code, out, _ = run_cli(capsys, "eval", "--checkpoint", "vi.json", "--data", "test.csv")
        assert code == 0
        assert 0.0 <= last_record(out)["accuracy"] <= 1.0

    def test_train_is_deterministic(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv", seed=5))
        for name in ("m1.json", "m2.json"):
            code, _, _ = run_cli(capsys, "train", "--data", "data.csv", "--model", "rasch",
                                 "--epochs", "10", "--seed", "9", "--out", name)
            assert code == 0
        assert (workdir / "m1.json").read_bytes() == (workdir / "m2.json").read_bytes()

    def test_interpret_rejects_rasch(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "rasch",
                "--epochs", "5", "--out", "r.json")
        code, _, err = run_cli(capsys, "interpret", "--checkpoint", "r.json", "--out", "m.csv")
        assert code == 1
        assert "no question embedding vectors" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5", "1.5"])
    def test_threshold_outside_unit_interval_is_a_named_error(self, workdir, capsys, threshold):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "rasch",
                "--epochs", "5", "--out", "r.json")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", "r.json", "--data", "data.csv",
                                 f"--threshold={threshold}", "--out", "m.json")
        assert code == 1 and out == ""
        assert err == f"error: threshold must be in [0, 1], got {float(threshold)!r}\n"
        assert not os.path.exists("m.json") and not os.path.exists("m.json.manifest.json")

    def test_eval_unknown_id_fails(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "rasch",
                "--epochs", "5", "--out", "r.json")
        (workdir / "other.csv").write_text(
            "student_id,question_id,class_id,y\nghost,q0,c0,1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--checkpoint", "r.json", "--data", "other.csv")
        assert code == 1
        assert "ghost" in err

    @pytest.mark.parametrize("rows,error", [
        ("s1,q1,c1,1\ns1,q1,c1,0\ns2,q2,c1,1\n", "duplicate response for student 's1' question 'q1'"),
        ("s1,q1,c1,1\ns1,q2,c2,0\n", "student 's1' has conflicting class ids 'c1' and 'c2'"),
    ], ids=["repeated cell", "two classes"])
    def test_eval_refuses_rows_build_dataset_refuses(self, workdir, capsys, rows, error):
        header = "student_id,question_id,class_id,y\n"
        (workdir / "train.csv").write_text(header + "s1,q1,c1,1\ns1,q2,c1,0\ns2,q1,c2,0\ns2,q2,c2,1\n",
                                           encoding="utf-8")
        assert run_cli(capsys, "train", "--data", "train.csv", "--model", "rasch", "--epochs", "5",
                       "--out", "r.json")[0] == 0
        (workdir / "test.csv").write_text(header + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", "r.json", "--data", "test.csv", "--out", "e.json")
        assert (code, out, err) == (1, "", f"error: {error}\n")
        assert not os.path.exists("e.json")

    @pytest.mark.parametrize("rows,error", [
        ("s1,q1,c2,1\n", "student 's1' is in class 'c1' in the checkpoint, not 'c2'"),
        ("s1,q1,c1,1\ns2,q2,zz,1\n", "student 's2' is in class 'c2' in the checkpoint, not 'zz'"),
        ("s1,q1,c2,1\ns2,q2,zz,1\n", None),
    ], ids=["other class", "unknown class", "rasch ignores classes"])
    def test_eval_of_a_class_kind_refuses_a_row_of_another_class(self, workdir, capsys, rows, error):
        """A class model predicts through the checkpoint's class of each student; rasch has no class rows."""
        header = "student_id,question_id,class_id,y\n"
        (workdir / "train.csv").write_text(header + "s1,q1,c1,1\ns1,q2,c1,0\ns2,q1,c2,0\ns2,q2,c2,1\n",
                                           encoding="utf-8")
        model = "rasch" if error is None else "class-interaction"
        assert run_cli(capsys, "train", "--data", "train.csv", "--model", model, "--epochs", "5",
                       "--out", "m.json")[0] == 0
        (workdir / "test.csv").write_text(header + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", "m.json", "--data", "test.csv", "--out", "e.json")
        if error is None:
            assert (code, err) == (0, "") and last_record(out)["n"] == 2
        else:
            assert (code, out, err) == (1, "", f"error: {error}\n")
            assert not os.path.exists("e.json")

    def test_warm_start_kind_mismatch(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        run_cli(capsys, "train", "--data", "data.csv", "--model", "rasch",
                "--epochs", "5", "--out", "r.json")
        code, _, err = run_cli(capsys, "train-vi", "--data", "data.csv",
                               "--model", "class-interaction-vi", "--dims", "1",
                               "--epochs", "5", "--warm-start", "r.json", "--out", "v.json")
        assert code == 1
        assert "warm-start" in err

    def test_sigma_init_whose_inverse_overflows_is_a_named_error(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        code, out, err = run_cli(capsys, "train-vi", "--data", "data.csv", "--model", "rasch-vi",
                                 "--sigma-init", "1e-309", "--epochs", "3", "--out", "v.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: sigma_init must be ") and err.count("\n") == 1, err
        assert not os.path.exists("v.json")

    def test_sigma_init_whose_square_overflows_is_a_named_error(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        code, out, err = run_cli(capsys, "train-vi", "--data", "data.csv", "--model", "rasch-vi",
                                 "--sigma-init", "1e200", "--epochs", "3", "--out", "v.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: sigma_init must be ") and err.count("\n") == 1, err
        assert not os.path.exists("v.json")

    def test_warm_start_manifest_records_checkpoint_dims(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"))
        assert run_cli(capsys, "train", "--data", "data.csv", "--model", "class-interaction",
                       "--dims", "3", "--epochs", "5", "--out", "ci.json")[0] == 0
        code, _, _ = run_cli(capsys, "train-vi", "--data", "data.csv",
                             "--model", "class-interaction-vi", "--dims", "3", "--epochs", "5",
                             "--warm-start", "ci.json", "--out", "v.json")
        assert code == 0
        manifest = json.loads((workdir / "v.json.manifest.json").read_text())
        assert manifest["config"]["dims"] == 3
        assert json.loads((workdir / "v.json").read_text())["dims"] == 3

    @pytest.mark.parametrize("command,model", [("train", "class-interaction"),
                                               ("train-vi", "class-interaction-vi")])
    def test_warm_start_dims_mismatch_fails(self, workdir, capsys, command, model):
        run_cli(capsys, *_synth_args("data.csv"))
        assert run_cli(capsys, "train", "--data", "data.csv", "--model", "class-interaction",
                       "--dims", "3", "--epochs", "5", "--out", "ci.json")[0] == 0
        code, _, err = run_cli(capsys, command, "--data", "data.csv", "--model", model,
                               "--dims", "1", "--epochs", "5", "--warm-start", "ci.json",
                               "--out", "v.json")
        assert code == 1
        assert "warm-start shape mismatch" in err
        assert not os.path.exists("v.json")

    @staticmethod
    def _three_students(name, classes, students=("s1", "s2", "s3"), questions=("q0", "q1")):
        rows = [f"{s},{q},{c},{(i + j) % 2}" for i, (s, c) in enumerate(zip(students, classes))
                for j, q in enumerate(questions)]
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("student_id,question_id,class_id,y\n" + "\n".join(rows) + "\n")

    def _warm_start(self, capsys, family, command, model, **relabelled):
        self._three_students("a.csv", ("cA", "cB", "cA"))
        self._three_students("b.csv", relabelled.pop("classes", ("cA", "cB", "cA")), **relabelled)
        assert run_cli(capsys, "train", "--data", "a.csv", "--model", family, "--dims", "1",
                       "--epochs", "3", "--out", "w.json")[0] == 0
        return run_cli(capsys, command, "--data", "b.csv", "--model", model, "--dims", "1", "--epochs", "3",
                       "--warm-start", "w.json", "--out", "v.json")

    @pytest.mark.parametrize("command,model", [("train", "class-interaction"),
                                               ("train-vi", "class-interaction-vi")])
    def test_warm_start_class_table_mismatch_fails(self, workdir, capsys, command, model):
        # the same classes, first seen in the other order: vec row 0 would be another class's
        code, _, err = self._warm_start(capsys, "class-interaction", command, model, classes=("cB", "cA", "cB"))
        assert code == 1
        assert "warm-start id tables do not match" in err
        assert not os.path.exists("v.json")

    @pytest.mark.parametrize("relabelled", [{"students": ("s1", "s3", "s2")}, {"questions": ("q1", "q0")}],
                             ids=["students", "questions"])
    @pytest.mark.parametrize("command,model", [("train", "rasch"), ("train-vi", "rasch-vi")])
    def test_warm_start_student_or_question_table_mismatch_fails(self, workdir, capsys, command, model,
                                                                  relabelled):
        code, _, err = self._warm_start(capsys, "rasch", command, model, **relabelled)
        assert code == 1
        assert "warm-start id tables do not match" in err
        assert not os.path.exists("v.json")

    @pytest.mark.parametrize("command,model", [("train", "rasch"), ("train", "interaction"),
                                               ("train-vi", "rasch-vi"), ("train-vi", "interaction-vi")])
    def test_warm_start_without_class_rows_ignores_class_table(self, workdir, capsys, command, model):
        code, _, _ = self._warm_start(capsys, model.removesuffix("-vi"), command, model, classes=("cB", "cA", "cB"))
        assert code == 0
        assert os.path.exists("v.json")

    def test_interpret_quotes_question_ids(self, workdir, capsys):
        questions = ["q,1", 'q"2', "q\n3", "q\r4", "é5"]
        with open("odd.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["student_id", "question_id", "class_id", "y"])
            writer.writerows([f"s{s}", q, "c0", (s + j) % 2] for s in range(6) for j, q in enumerate(questions))
        assert run_cli(capsys, "train", "--data", "odd.csv", "--model", "interaction", "--dims", "2",
                       "--epochs", "3", "--out", "odd.json")[0] == 0
        assert run_cli(capsys, "interpret", "--checkpoint", "odd.json", "--out", "m.csv")[0] == 0
        with open("m.csv", newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        header, rows = lines[0], lines[1:]
        assert header[0] == "question_id" and sorted(header[1:]) == sorted(questions)
        assert [row[0] for row in rows] == header[1:]
        assert all(len(row) == len(header) and all(-1.0 <= float(v) <= 1.0 for v in row[1:]) for row in rows)

    def test_zero_epoch_vi_writes_strict_json(self, workdir, capsys):
        def strict(constant):
            raise ValueError(f"{constant} is not JSON")
        run_cli(capsys, *_synth_args("data.csv"))
        code, out, _ = run_cli(capsys, "train-vi", "--data", "data.csv", "--model", "rasch-vi",
                               "--epochs", "0", "--out", "v.json")
        assert code == 0
        assert json.loads(out, parse_constant=strict) == {"final_negative_elbo": None, "epochs_run": 0}
        assert json.loads((workdir / "v.json.report.json").read_text(), parse_constant=strict) == \
            {"final_nll": None, "epochs_run": 0, "nll_trace": []}

    def test_manifests_list_outputs_in_write_order(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv"), "--truth", "truth.json")
        run_cli(capsys, "ingest", "--input", "data.csv", "--format", "binary", "--out", "norm.csv",
                "--test-fraction", "0.25", "--train-out", "train.csv", "--test-out", "test.csv")
        run_cli(capsys, "train", "--data", "train.csv", "--model", "rasch", "--epochs", "2", "--out", "m.json")
        run_cli(capsys, "eval", "--checkpoint", "m.json", "--data", "test.csv", "--out", "metrics.json")
        run_cli(capsys, "eval", "--checkpoint", "m.json", "--data", "test.csv", "--manifest", "plain.json")
        outputs = {name: json.loads((workdir / name).read_text())["outputs"] for name in
                   ("data.csv.manifest.json", "norm.csv.manifest.json", "m.json.manifest.json",
                    "metrics.json.manifest.json", "plain.json")}
        assert outputs == {"data.csv.manifest.json": ["data.csv", "truth.json"],
                           "norm.csv.manifest.json": ["norm.csv", "train.csv", "test.csv"],
                           "m.json.manifest.json": ["m.json", "m.json.report.json"],
                           "metrics.json.manifest.json": ["metrics.json"], "plain.json": []}


class TestActiveCli:
    def test_curve_csv_schema_and_determinism(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv", seed=11, **{"students": "60", "questions": "10",
                                                             "dims": "0", "classes": "0",
                                                             "class-effect-std": "0"}))
        for name in ("c1.csv", "c2.csv"):
            code, _, _ = run_cli(capsys, "active", "--data", "data.csv", "--pool-size", "20",
                                 "--policy", "uncertainty", "--rounds", "3", "--seed", "4",
                                 "--out", name)
            assert code == 0
        lines = (workdir / "c1.csv").read_text().strip().splitlines()
        assert lines[0] == "questions_revealed,accuracy,policy,seed"
        assert len(lines) == 5
        assert (workdir / "c1.csv").read_bytes() == (workdir / "c2.csv").read_bytes()

    def test_nan_holdout_fraction_is_a_named_error(self, workdir, capsys):
        run_cli(capsys, *_synth_args("data.csv", seed=11, students="60", questions="10"))
        code, _, err = run_cli(capsys, "active", "--data", "data.csv", "--pool-size", "20",
                               "--policy", "random", "--holdout-fraction", "nan", "--out", "c.csv")
        assert code == 1
        assert err.strip() == "error: holdout_fraction must be in (0, 1), got nan"
        assert not os.path.exists("c.csv")


class TestExperimentCli:
    @pytest.mark.parametrize("argv,flag", [
        (["--seeds", "0,,1"], "--seeds"),
        (["--seeds=-1"], "--seeds"),
        (["--seeds", "0,1.5"], "--seeds"),
        (["--fractions", "0.5,abc"], "--fractions"),
        (["--fractions", "0.5,0.25,1.5"], "--fractions"),
        (["--fractions", "0.5,nan"], "--fractions"),
        (["--fractions", "0.5,0"], "--fractions"),
        (["--seeds", "0", "--fractions", "0.5,0.25,0.5"], "--fractions"),
    ], ids=["empty seed", "negative seed", "fractional seed", "fraction not a number",
            "fraction above 1 last", "nan fraction", "zero fraction", "repeated fraction"])
    def test_bad_list_is_a_named_error_before_any_unit(self, workdir, capsys, argv, flag):
        code, out, err = run_cli(capsys, "experiment", "low-data-sweep", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
        assert list(workdir.iterdir()) == []

    def test_repeated_seed_is_a_named_error_before_any_unit(self, workdir, capsys):
        code, out, err = run_cli(capsys, "experiment", "appendix-c-recovery", "--students", "100",
                                 "--seeds", "0,1,0")
        assert (code, out) == (1, "")
        assert err == "error: --seeds must be a comma-separated list of distinct integers >= 0, got '0,1,0'\n"
        assert list(workdir.iterdir()) == []

    def test_recovery_recipe_writes_tables(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "experiment", "appendix-c-recovery",
                               "--students", "500", "--seeds", "0,1", "--out-dir", ".")
        assert code == 0
        rows = (workdir / "recovery.csv").read_text().strip().splitlines()
        assert rows[0] == "model,seed,students,accuracy"
        assert len(rows) == 5
        summary = (workdir / "recovery_summary.csv").read_text()
        assert summary.startswith("model,students,mean_accuracy")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["model"] for r in records} == {"rasch", "interaction"}
        assert (workdir / "appendix-c-recovery.manifest.json").is_file() and not (workdir / "..manifest.json").exists()

    def test_each_recipe_writes_its_own_manifest(self, workdir, capsys):
        """Two recipes into one directory leave two manifests, each listing only its own tables."""
        (workdir / "exp").mkdir()
        for argv in (["active-vs-random", "--pool-size", "40", "--rounds", "3"],
                     ["appendix-c-recovery", "--students", "200"]):
            assert run_cli(capsys, "experiment", *argv, "--seeds", "0", "--out-dir", "exp")[0] == 0
        outputs = {path.name: json.loads(path.read_text())["outputs"]
                   for path in (workdir / "exp").glob("*.manifest.json")}
        assert outputs == {"active-vs-random.manifest.json": ["exp/active_curves.csv"],
                           "appendix-c-recovery.manifest.json": ["exp/recovery.csv", "exp/recovery_summary.csv"]}


class TestRawIngest:
    def test_raw_rows_binarize_on_ingest(self, workdir, capsys):
        (workdir / "raw.csv").write_text(
            "student_id,question_id,class_id,marks_awarded,marks_available\n"
            "s1,q1,c1,2,3\ns1,q2,c1,1,2\ns2,q1,c1,0,4\ns2,q2,c1,2,2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "ingest", "--input", "raw.csv", "--format", "raw",
                               "--out", "binary.csv")
        assert code == 0
        text = (workdir / "binary.csv").read_text()
        assert "s1,q1,c1,1" in text
        assert "s1,q2,c1,0" in text
        assert "s2,q2,c1,1" in text

    def test_parse_error_names_line(self, workdir, capsys):
        (workdir / "raw.csv").write_text(
            "student_id,question_id,class_id,marks_awarded,marks_available\ns1,q1,c1,9,3\n",
            encoding="utf-8")
        code, _, err = run_cli(capsys, "ingest", "--input", "raw.csv", "--format", "raw",
                               "--out", "b.csv")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("split_args", [["--test-fraction", "0.2"],
                                            ["--test-fraction", "0.2", "--train-out", "train.csv"],
                                            ["--test-fraction", "1.5", "--train-out", "train.csv",
                                             "--test-out", "test.csv"],
                                            ["--train-out", "train.csv", "--test-out", "test.csv"]],
                             ids=["no outputs", "no test output", "fraction above 1", "no fraction"])
    def test_bad_split_arguments_write_no_file(self, workdir, capsys, split_args):
        (workdir / "raw.csv").write_text(
            "student_id,question_id,class_id,marks_awarded,marks_available\n"
            "s1,q1,c1,2,3\ns1,q2,c1,1,2\ns2,q1,c1,0,4\ns2,q2,c1,2,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "ingest", "--input", "raw.csv", "--format", "raw",
                               "--out", "binary.csv", *split_args)
        assert code == 1 and err.startswith("error:")
        assert sorted(p.name for p in workdir.iterdir()) == ["raw.csv"]


def _python(tmp_path, *argv):
    """Run a fresh Python in tmp_path that imports this irtkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(irtkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_the_cli(tmp_path):
    done = _python(tmp_path, "-m", "irtkit", "significance", "--x1", "94440", "--n1", "120000",
                   "--x2", "95280", "--n2", "120000")
    assert done.returncode == 0, done.stderr
    assert last_record(done.stdout)["z"] == pytest.approx(4.21, abs=0.01)


@pytest.mark.parametrize("argv, error", [
    (["train", "--model", "rasch", "--lr", "1e300"], "non-finite training NLL at epoch 1 (learning rate too high?)"),
    (["train", "--model", "interaction", "--epochs", "0", "--init-scale", "1e308"],
     "non-finite training NLL at epoch 0 (initial parameters: init_scale or warm start too large?)"),
    (["train-vi", "--model", "interaction-vi", "--lr", "1e12", "--epochs", "5"],
     "non-finite ELBO at epoch 2 (learning rate too high?)"),
], ids=["train", "train-initial", "train-vi"])
def test_a_diverging_fit_prints_only_its_error_line(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *_synth_args("data.csv", students="300"))[0] == 0
    done = _python(tmp_path, "-W", "always", "-m", "irtkit", argv[0], "--data", "data.csv", *argv[1:],
                   "--out", "m.json")
    assert done.returncode == 1
    assert done.stderr == f"error: {error}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.fixture(scope="module")
def tiny_synth(tmp_path_factory):
    """A folder holding a 60 x 6 synth file, data.csv."""
    folder = tmp_path_factory.mktemp("tiny")
    assert dispatch(_synth_args(str(folder / "data.csv"), students="60", questions="6", classes="2")) == 0
    return folder


_EDGES = ("0", "-1", "nan", "inf", "1e-309", "1e308")


@settings(max_examples=60, deadline=None)
@given(lr=st.sampled_from(_EDGES + ("0.1",)), l2=st.sampled_from(_EDGES + ("1e-4",)),
       init_scale=st.sampled_from(_EDGES + ("0.01",)), epochs=st.integers(0, 2))
def test_train_exits_0_or_1_with_one_error_line(tiny_synth, lr, l2, init_scale, epochs):
    """Any --lr, --l2 and --init-scale, ordinary or edge: exit 0 with a checkpoint, or exit 1 with one
    `error:` line and no checkpoint; numpy warns of nothing either way."""
    out = tiny_synth / "m.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = dispatch(["train", "--data", str(tiny_synth / "data.csv"), "--model", "interaction", "--lr", lr,
                             "--l2", l2, "--init-scale", init_scale, "--epochs", str(epochs), "--out", str(out)])
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert out.exists() and stderr.getvalue() == ""
        else:
            assert code == 1 and stdout.getvalue() == "" and not out.exists()
            assert re.fullmatch(r"error: \S[^\n]*\n", stderr.getvalue()), stderr.getvalue()
    finally:
        for path in tiny_synth.glob("m.json*"):
            path.unlink()


def _holds_the_failure_contract(*argv, out=None):
    """Run argv (with --out out, when given) in-process: exit 0 with out written and nothing on stderr, or exit 1
    with one `error:` line, no stdout and no out; numpy warns of nothing either way. Removes what the run wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = dispatch([*argv, *(["--out", str(out)] if out else [])])
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert stderr.getvalue() == "" and (out is None or out.exists())
        else:
            assert code == 1 and stdout.getvalue() == "" and (out is None or not out.exists())
            assert re.fullmatch(r"error: \S[^\n]*\n", stderr.getvalue()), stderr.getvalue()
    finally:
        for path in out.parent.glob(f"{out.name}*") if out else ():
            path.unlink()


@settings(max_examples=450, deadline=None)
@given(lr=st.sampled_from(_EDGES + ("0.05",)), sigma_init=st.sampled_from(_EDGES + ("0.8",)),
       samples=st.integers(0, 2), epochs=st.integers(0, 2))
def test_train_vi_exits_0_or_1_with_one_error_line(tiny_synth, lr, sigma_init, samples, epochs):
    _holds_the_failure_contract("train-vi", "--data", str(tiny_synth / "data.csv"), "--model", "interaction-vi",
                                "--lr", lr, "--sigma-init", sigma_init, "--samples", str(samples),
                                "--epochs", str(epochs), out=tiny_synth / "v.json")


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_synth):
    """tiny_synth's folder, also holding ck.json, a 1-epoch class-interaction fit on its data.csv."""
    assert dispatch(["train", "--data", str(tiny_synth / "data.csv"), "--model", "class-interaction",
                     "--epochs", "1", "--out", str(tiny_synth / "ck.json")]) == 0
    return tiny_synth


@settings(max_examples=10, deadline=None)
@given(threshold=st.sampled_from(_EDGES + ("0.5", "1", "2")))
def test_eval_exits_0_or_1_with_one_error_line(tiny_checkpoint, threshold):
    _holds_the_failure_contract("eval", "--checkpoint", str(tiny_checkpoint / "ck.json"),
                                "--data", str(tiny_checkpoint / "data.csv"), "--threshold", threshold,
                                out=tiny_checkpoint / "e.json")


@settings(max_examples=120, deadline=None)
@given(x1=st.integers(-1, 2), n1=st.integers(-1, 2), alpha=st.sampled_from(_EDGES + ("0.05",)))
def test_significance_exits_0_or_1_with_one_error_line(x1, n1, alpha):
    _holds_the_failure_contract("significance", "--x1", str(x1), "--n1", str(n1), "--x2", "40", "--n2", "100",
                                "--alpha", alpha)


@settings(max_examples=450, deadline=None)
@given(holdout=st.sampled_from(_EDGES + ("0.2",)), pool_size=st.sampled_from((0, 1, 20, 59, 60)),
       batch=st.integers(0, 2), rounds=st.integers(-1, 2))
def test_active_exits_0_or_1_with_one_error_line(tiny_synth, holdout, pool_size, batch, rounds):
    _holds_the_failure_contract("active", "--data", str(tiny_synth / "data.csv"), "--policy", "uncertainty",
                                "--holdout-fraction", holdout, "--pool-size", str(pool_size), "--batch", str(batch),
                                "--rounds", str(rounds), out=tiny_synth / "a.csv")


_INGEST_TRAIN_EVAL = """
import json, sys
from irtkit.cli import dispatch
codes = [dispatch(argv.split()) for argv in (
    "ingest --input raw.csv --out all.csv --test-fraction 0.2 --train-out train.csv --test-out test.csv",
    "train --data train.csv --model interaction --epochs 1 --out m.json",
    "eval --checkpoint m.json --data test.csv --out eval.json")]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_ingest_train_eval_leave_numpy_ma_unimported(tmp_path):
    """numpy.ma costs about 1.7 MB of peak memory; no step of a CLI session needs it."""
    (tmp_path / "raw.csv").write_text("student_id,question_id,class_id,marks_awarded,marks_available\n" + "".join(
        f"s{s},q{q},c{s % 3},{s * q % 3},2\n" for s in range(30) for q in range(6)), encoding="utf-8")
    done = _python(tmp_path, "-c", _INGEST_TRAIN_EVAL)
    assert done.returncode == 0, done.stderr
    assert last_record(done.stdout) == {"codes": [0, 0, 0], "numpy.ma": False}
