"""Command-line entry point.

Subcommands: ingest, train, train-vi, eval, synth, interpret,
significance, active, experiment. `dispatch` is the one exit path and
the one writer of the run manifest. It checks that every output
directory exists, digests every input file, runs the subcommand's
handler, which takes only the parsed arguments, writes the outputs and
returns the JSON records the run reports, then writes the manifest and
prints the records. The manifest holds the command line, the config (the
parsed flags other than file paths and seeds), the seeds, the input
digests, the output paths and the duration, so results can be reproduced
exactly. A run with no --out or --out-dir writes a manifest only where
--manifest says. Any failure is one `error:` line on stderr and exit
code 1. All randomness is driven by explicit --seed flags; environment
variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import active as active_mod
from . import data as data_mod
from . import experiments
from .checkpoint import align_rows_to_checkpoint, load_checkpoint, save_checkpoint, write_json
from .manifest import file_digest, write_manifest
from .metrics import accuracy, cosine_similarity_matrix, two_proportion_z_test
from .models import CLASS_INTERACTION, FAMILY, POINT_KINDS, VI_KINDS, predict_proba_array
from .optim import TrainConfig, sgd_train
from .synth import SynthConfig, generate_synthetic
from .vi import VIConfig, train_vi

# Flag destinations: files read (digested) and written (directory checked, listed), and seeds; the rest is config.
_INPUTS = ("input", "data", "checkpoint", "warm_start")
_OUTPUTS = ("out", "train_out", "test_out", "truth")
_SEEDS = ("seed", "exam_seed", "seeds")
_NOT_CONFIG = {*_INPUTS, *_OUTPUTS, *_SEEDS, "out_dir", "command", "manifest"}
_REPORT = ".report.json"   # the trainers write <out>.report.json next to the checkpoint


def _load_dataset(path: str, fmt: str):
    return (data_mod.load_raw_csv if fmt == "raw" else data_mod.load_binary_csv)(path)


def _parse_list(flag: str, text: str, parse, ok, wanted: str) -> tuple:
    """The distinct items of a comma-separated list flag (a repeat would run and count a unit twice)."""
    try:
        values = tuple(map(parse, text.split(",")))
    except ValueError:
        values = ()
    if not values or not all(map(ok, values)) or len(set(values)) < len(values):
        raise ValueError(f"{flag} must be a comma-separated list of distinct {wanted}, got {text!r}")
    return values


def _cmd_ingest(args) -> list:
    given = (args.test_fraction is not None, bool(args.train_out), bool(args.test_out))
    if any(given) and not all(given):
        raise ValueError("--test-fraction, --train-out and --test-out must be given together")
    dataset = _load_dataset(args.input, args.format)
    # Split before writing anything, so a bad fraction leaves no output behind.
    split = (data_mod.split_train_test(dataset, args.test_fraction, args.seed)
             if args.test_fraction is not None else ())
    for part, path in zip((dataset, *split), (args.out, args.train_out, args.test_out)):
        data_mod.write_binary_csv(part, path)
    return [{"students": dataset.num_students, "questions": dataset.num_questions,
             "classes": dataset.num_classes, "responses": dataset.n_responses}]


def _warm_start(args, dataset):
    """The --warm-start checkpoint's parameters, checked against the id tables (training checks the rest)."""
    if not args.warm_start:
        return None
    params, index = load_checkpoint(args.warm_start)
    tables = ("student_ids", "question_ids") + (("class_ids",) if FAMILY[args.model] == CLASS_INTERACTION else ())
    if any(getattr(index, t) != getattr(dataset, t) for t in tables):   # class vec rows follow class_ids
        raise ValueError("warm-start id tables do not match the training data")
    return params


def _train(args, fit, cfg, objective: str) -> list:
    """Fit on --data (from --warm-start if given), write the checkpoint and its training report; the run's record."""
    dataset = _load_dataset(args.data, args.format)
    params, report = fit(args.model, dataset, cfg, dims=args.dims, warm_start=_warm_start(args, dataset))
    save_checkpoint(args.out, params, dataset)
    write_json(args.out + _REPORT, asdict(report))
    return [{objective: report.final_nll, "epochs_run": report.epochs_run}]


def _cmd_train(args) -> list:
    return _train(args, sgd_train, TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                                               l2_penalty=args.l2, seed=args.seed, init_scale=args.init_scale),
                  "final_nll")


def _cmd_train_vi(args) -> list:
    return _train(args, train_vi, VIConfig(samples=args.samples, sigma_init=args.sigma_init, learning_rate=args.lr,
                                           epochs=args.epochs, seed=args.seed), "final_negative_elbo")


def _cmd_eval(args) -> list:
    params, index = load_checkpoint(args.checkpoint)
    dataset = align_rows_to_checkpoint(_load_dataset(args.data, args.format), index, params.kind)
    preds = predict_proba_array(params, dataset.student_idx, dataset.question_idx, dataset.class_of)
    record = accuracy(preds, dataset.y, args.threshold)
    if args.out:
        write_json(args.out, record)
    return [record]


def _cmd_synth(args) -> list:
    cfg = SynthConfig(students=args.students, questions=args.questions, dims=args.dims,
                      mean_bq=args.mean_bq, std_bq=args.std_bq, num_classes=args.classes,
                      class_effect_std=args.class_effect_std, keep_prob=args.keep_prob,
                      outcome=args.outcome, seed=args.seed, exam_seed=args.exam_seed)
    dataset, truth = generate_synthetic(cfg)
    data_mod.write_binary_csv(dataset, args.out)
    if args.truth:
        write_json(args.truth, {name: array.tolist() for name, array in truth.items()})
    return [{"responses": dataset.n_responses, "students": dataset.num_students,
             "questions": dataset.num_questions}]


def _cmd_interpret(args) -> list:
    params, index = load_checkpoint(args.checkpoint)
    if params.demand is None:
        raise ValueError(f"checkpoint kind {params.kind!r} has no question embedding vectors")
    values, record = cosine_similarity_matrix(params.demand, rescale_display=args.rescale_display)
    experiments.write_csv(args.out, ["question_id", *index.question_ids],
                          [(qid, *row) for qid, row in zip(index.question_ids, values.tolist())])
    return [{"questions": index.num_questions, **record}]


def _cmd_significance(args) -> list:
    return [two_proportion_z_test(args.x1, args.n1, args.x2, args.n2, alphas=args.alpha or [0.01])]


def _cmd_active(args) -> list:
    dataset = _load_dataset(args.data, args.format)
    state = active_mod.make_pool_state(dataset, args.pool_size, args.holdout_fraction, args.seed)
    result = active_mod.run_active_loop(state, args.policy, args.rounds,
                                        TrainConfig(epochs=5, convergence_tol=0.0, seed=args.seed),
                                        batch_size=args.batch)
    experiments.write_csv(args.out, *experiments.active_curve_table([result]))
    return [{"rounds_run": len(result.questions_revealed) - 1,
             "final_accuracy": result.overall_accuracy[-1]}]


def _cmd_experiment(args) -> list:
    seeds = _parse_list("--seeds", args.seeds, int, lambda s: s >= 0, "integers >= 0")
    if args.recipe == "appendix-c-recovery":
        rows = experiments.recovery_run(students=args.students, seeds=seeds, out_dir=args.out_dir)
        return [{"model": model, "mean_accuracy": float(np.mean([r.accuracy for r in rows if r.model == model]))}
                for model in ("rasch", "interaction")]
    if args.recipe == "low-data-sweep":
        fractions = _parse_list("--fractions", args.fractions, float, lambda f: 0 < f <= 1, "numbers in (0, 1]")
        rows = experiments.low_data_sweep(fractions=fractions, seeds=seeds, out_dir=args.out_dir)
        return [{"fraction": fraction,
                 "ci_accuracy": float(np.mean([r.ci_accuracy for r in rows if r.fraction == fraction])),
                 "civi_accuracy": float(np.mean([r.civi_accuracy for r in rows if r.fraction == fraction]))}
                for fraction in fractions]
    results = experiments.active_vs_random(pool_size=args.pool_size, seeds=seeds,
                                           rounds=args.rounds, out_dir=args.out_dir)
    return [{"policy": policy, "final_accuracy": float(np.mean([r.overall_accuracy[-1] for r in runs]))}
            for policy, runs in results.items()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irtkit",
                                     description="Latent-trait models for binary exam responses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, data_format=None, seed=False):
        """A subcommand with --manifest; --data and --format when it reads a data file; --seed when seeded."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json; none without --out)")
        if data_format:
            p.add_argument("--data", required=True)
            p.add_argument("--format", choices=("raw", "binary"), default=data_format)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("ingest", "normalize a response CSV and optionally split it", seed=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("raw", "binary"), default="raw")
    p.add_argument("--out", required=True, help="normalized pre-binarized CSV")
    p.add_argument("--test-fraction", type=float, default=None)
    p.add_argument("--train-out", default=None)
    p.add_argument("--test-out", default=None)

    p = command("train", "train a point-estimate model by SGD", "binary", seed=True)
    p.add_argument("--model", choices=POINT_KINDS, required=True)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--init-scale", type=float, default=0.01)
    p.add_argument("--warm-start", default=None, help="checkpoint to initialize from")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = command("train-vi", "train a variational model by ELBO ascent", "binary", seed=True)
    p.add_argument("--model", choices=VI_KINDS, required=True)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--samples", type=int, default=5, help="Monte Carlo samples per ELBO estimate")
    p.add_argument("--sigma-init", type=float, default=0.8)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--warm-start", default=None, help="point-model checkpoint to initialize from")
    p.add_argument("--out", required=True)

    p = command("eval", "score a checkpoint on a data file", "binary")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None, help="optional metrics JSON path")

    p = command("synth", "generate a synthetic response dataset", seed=True)
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--questions", type=int, required=True)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--mean-bq", type=float, default=-3.0)
    p.add_argument("--std-bq", type=float, default=1.0)
    p.add_argument("--classes", type=int, default=0)
    p.add_argument("--class-effect-std", type=float, default=0.0)
    p.add_argument("--keep-prob", type=float, default=1.0)
    p.add_argument("--outcome", choices=("sample", "threshold"), default="sample",
                   help="Bernoulli draws (default) or the most-likely outcome per cell")
    p.add_argument("--exam-seed", type=int, default=None,
                   help="optional separate seed fixing the question paper")
    p.add_argument("--out", required=True, help="pre-binarized CSV path")
    p.add_argument("--truth", default=None, help="optional JSON path for generating latents")

    p = command("interpret", "emit the question-embedding cosine similarity matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="Q x Q CSV with question-id headers")
    p.add_argument("--rescale-display", action="store_true",
                   help="min-max rescale off-diagonal entries for heatmap display")

    p = command("significance", "two-proportion z-test")
    p.add_argument("--x1", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--x2", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--alpha", type=float, action="append", default=None)

    p = command("active", "run one active learning curve", "binary", seed=True)
    p.add_argument("--pool-size", type=int, default=2000)
    p.add_argument("--policy", choices=(active_mod.UNCERTAINTY, active_mod.RANDOM), required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--rounds", type=int, default=70)
    p.add_argument("--holdout-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True, help="curve CSV path")

    p = command("experiment", "run a named multi-step protocol")
    p.add_argument("recipe", choices=experiments.TABLES)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    p.add_argument("--students", type=int, default=40_000,
                   help="recovery scale (10000 is the documented sub-scale fallback)")
    p.add_argument("--fractions", default="1.0,0.5,0.25,0.15")
    p.add_argument("--pool-size", type=int, default=2000)
    p.add_argument("--rounds", type=int, default=56)

    return parser


_HANDLERS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "train-vi": _cmd_train_vi,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "interpret": _cmd_interpret,
    "significance": _cmd_significance,
    "active": _cmd_active,
    "experiment": _cmd_experiment,
}


def dispatch(argv) -> int:
    """Parse argv, check output directories, digest inputs, run the subcommand, write its manifest; the exit code."""
    started = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    given = vars(args)
    anchor = given.get("out") or given.get("out_dir")
    if anchor:
        anchor = anchor.rstrip("/") + (f"/{args.recipe}" if args.command == "experiment" else "")
    manifest_path = args.manifest or (anchor and anchor + ".manifest.json")   # None: no manifest
    checked = {dest: given.get(dest) for dest in (*_OUTPUTS, "out_dir")} | {"manifest": manifest_path}
    outputs = [given[dest] for dest in _OUTPUTS if given.get(dest)]
    if args.command in ("train", "train-vi"):
        outputs.append(args.out + _REPORT)
    elif args.command == "experiment":
        outputs += experiments.table_paths(args.out_dir, args.recipe)
    try:
        for dest, path in checked.items():
            folder = path if dest == "out_dir" else os.path.dirname(path or "") or "."
            if path and not os.path.isdir(folder):
                raise ValueError(f"--{dest.replace('_', '-')} {path}: no such directory {folder!r}")
        digests = {path: file_digest(path) for path in (given.get(dest) for dest in _INPUTS) if path}
        records = _HANDLERS[args.command](args)
        if manifest_path:
            write_manifest(manifest_path, command=["irtkit", *argv], started=started,
                           config={k: v for k, v in given.items() if k not in _NOT_CONFIG},
                           seeds={k: given[k] for k in _SEEDS if k in given},
                           input_digests=digests, outputs=list(dict.fromkeys(outputs)))
    except Exception as exc:  # noqa: BLE001 - single-line machine-parseable error contract
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps(record))
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
