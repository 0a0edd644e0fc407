"""Command-line pipeline: data prep, training, lambda sweeps, scoring, experiments.

Each option is declared once, with its type, on the argparse parser; the
defaults of `SEED_OPTIONS` are the library's alone, as a flag not given is
not passed on.  A key=value config file (--config) spells flags in full
without `--` and is parsed ahead of the command line, so flags override it.
All randomness flows from --seed or --seeds through `training.seeded_setup`.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics, synth
from .model import BERNOULLI, anomaly_score_batch, load_model, save_model
from .training import run_seed, seeded_setup, sweep_lambda, train


# the --label value that scores rows without a label column
NO_LABEL = "none"

# `training.run_seed`'s options; all but knn_k are `training.seeded_setup`'s too
SEED_OPTIONS = (
    "hidden", "components", "masks", "orderings", "train_anoms", "val_anoms",
    "learning_rate", "max_epochs", "batch_size", "patience", "lambda_grid", "knn_k",
)


def _parse_grid(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty lambda grid")
    return values


def _parse_seeds(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
    else:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty seed list")
    if min(values) < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {min(values)}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"seed list {text!r} repeats a seed")
    return values


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _config_tokens(path: str, options: set[str]) -> list[str]:
    """One `--key=value` token per `key=value` line; `_` in a key reads as `-`.

    Each key must name one of `options`, the subcommand's long flags, in full;
    argparse alone would resolve a prefix such as `conf` to `--config`.
    """
    tokens = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config {path}: line {line_no} is not key=value")
            key, _, value = line.partition("=")
            if key.strip() == "config":
                raise ValueError(f"config {path}: line {line_no} includes another config")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in options:
                raise ValueError(f"config {path}: unknown option {flag}")
            tokens.append(f"{flag}={value.strip()}")
    return tokens


def _output_dir(args, *required) -> Path:
    """Check that the required options and --out are set, and return --out.

    Each command creates --out just before its first write, so a failed run leaves none."""
    for name in (*required, "out"):
        if getattr(args, name) is None:
            raise ValueError(f"missing required option --{name}")
    return Path(args.out)


def _prepare_dataset(args):
    ds = datamod.load_csv(args.data, args.label)
    ds = datamod.dedup(ds)
    return datamod.normalize_minmax(ds)


def _seed_options(args) -> dict:
    """The `SEED_OPTIONS` given as flags; the library's defaults stand for the rest."""
    return {name: getattr(args, name) for name in SEED_OPTIONS if hasattr(args, name)}


def cmd_train(args) -> int:
    out = _output_dir(args, "data")
    ds, stats = _prepare_dataset(args)
    bundle, init, cfg = seeded_setup(ds, args.seed, **_seed_options(args))
    params, report = train(init, ds, bundle, cfg, args.lam)
    out.mkdir(parents=True, exist_ok=True)
    save_model(str(out / "model.bin"), params, stats)
    report.write_csv(str(out / "train_report.csv"))
    print(
        f"trained lambda={_fmt(args.lam)} best_epoch={report.best_epoch} "
        f"val_auc={_fmt(report.best_val_auc)}"
    )
    return 0


def cmd_sweep(args) -> int:
    out = _output_dir(args, "data")
    ds, stats = _prepare_dataset(args)
    bundle, init, cfg = seeded_setup(ds, args.seed, **_seed_options(args))
    result = sweep_lambda(init, ds, bundle, cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_model(str(out / "model.bin"), result.best_params, stats)
    with open(out / "sweep_report.csv", "w", encoding="utf-8") as fh:
        fh.write("lambda,best_epoch,best_val_auc,chosen\n")
        for lam in sorted(result.reports):
            rep = result.reports[lam]
            chosen = int(lam == result.best_lambda)
            fh.write(f"{_fmt(lam)},{rep.best_epoch},{rep.best_val_auc!r},{chosen}\n")
    print(f"chosen lambda={_fmt(result.best_lambda)}")
    return 0


def _check_attribute_names(found: tuple, expected: tuple, unlabeled: bool) -> None:
    """Fail if the data's attribute columns differ from the model's in count or at a position."""
    if len(found) != len(expected):
        problem = f"the data has {len(found)} attribute columns but the model {len(expected)}"
        if unlabeled and found[:-1] == expected:
            problem += (f"; its last column {found[-1]!r} may be a label column,"
                        f" which --label {NO_LABEL} reads as an attribute")
        raise ValueError(problem)
    for pos, (have, want) in enumerate(zip(found, expected)):
        if have != want:
            raise ValueError(f"attribute {pos} is {have!r} in the data but {want!r} in the model")


def _check_binary(attributes, table: datamod.CsvTable) -> None:
    """Fail at the first attribute value a Bernoulli head cannot score, naming its CSV line."""
    bad = np.argwhere((attributes != 0.0) & (attributes != 1.0))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"attribute {table.attribute_names[col]} holds non-binary value "
            f"{float(attributes[row, col])!r} on line {table.line_numbers[row]}"
        )


def cmd_score(args) -> int:
    out = _output_dir(args, "model", "data")
    params, stats = load_model(args.model)
    # only the explicit opt-out reads unlabeled rows; a missing label column still fails
    table = datamod.read_csv(args.data, None if args.label == NO_LABEL else args.label)
    attributes = table.attributes
    if stats is not None:
        _check_attribute_names(table.attribute_names, stats.attribute_names,
                               args.label == NO_LABEL)
        # clamping would turn an out-of-range binary value into 0 or 1
        attributes = stats.apply(attributes, clip=params.head != BERNOULLI)
    if params.head == BERNOULLI:
        _check_binary(attributes, table)
    scores = anomaly_score_batch(params, attributes)
    report = metrics.report_from_scores(np.arange(len(scores)), table.labels, scores)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(str(out / "scores.csv"))
    metrics.write_json_summary(str(out / "score_summary.json"), report.to_json_dict())
    if args.roc and report.auc is not None:
        points = metrics.roc_points(scores[table.labels == 1], scores[table.labels == 0])
        with open(out / "roc.tsv", "w", encoding="utf-8") as fh:
            fh.write("threshold\tfpr\ttpr\n")
            for t, fpr, tpr in points:
                fh.write(f"{_fmt(t)}\t{float(fpr)!r}\t{float(tpr)!r}\n")
    auc_text = "n/a" if report.auc is None else _fmt(report.auc)
    print(f"scored {len(scores)} instances auc={auc_text}")
    return 0


def cmd_experiment(args) -> int:
    out = _output_dir(args, "data")
    ds, _ = _prepare_dataset(args)
    per_method: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_seed(ds, seed, **_seed_options(args))
        out.mkdir(parents=True, exist_ok=True)
        aucs = result.aucs
        for method, value in aucs.items():
            per_method.setdefault(method, []).append(value)
        proposed = result.reports["proposed"]
        proposed.write_csv(str(out / f"scores_{seed}.csv"))
        payload = proposed.to_json_dict(
            seed=seed,
            chosen_lambda=result.sweep.best_lambda,
            auc_per_method=aucs,
            lambda_val_auc={
                _fmt(lam): rep.best_val_auc for lam, rep in sorted(result.sweep.reports.items())
            },
            n_test_normals=len(result.bundle.test_normal),
            n_test_anomalies=len(result.bundle.test_anom),
        )
        metrics.write_json_summary(str(out / f"report_{seed}.json"), payload)
        print(
            f"seed={seed} lambda={_fmt(result.sweep.best_lambda)} "
            + " ".join(f"{m}={_fmt(v)}" for m, v in aucs.items())
        )
    with open(out / "aggregate.csv", "w", encoding="utf-8") as fh:
        fh.write("method,mean_auc,stderr,n_seeds\n")
        for method, values in per_method.items():
            values = np.array(values)
            stderr = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
            fh.write(f"{method},{_fmt(values.mean())},{_fmt(stderr)},{len(values)}\n")
    print(f"wrote {out / 'aggregate.csv'}")
    return 0


def cmd_synth(args) -> int:
    out = _output_dir(args, "scenario")
    raw = synth.make_scenario(args.scenario, args.seed)
    ds = datamod.dedup(raw)
    ds, stats = datamod.normalize_minmax(ds)
    bundle, init, cfg = seeded_setup(ds, args.seed, **_seed_options(args))
    out.mkdir(parents=True, exist_ok=True)
    datamod.write_csv(str(out / "dataset.csv"), raw)
    unsup_params, _ = train(init, ds, bundle, cfg, 0.0)
    sup_params, _ = train(init, ds, bundle, cfg, 1000.0)
    grid = synth.profile_grid()
    score_unsup = anomaly_score_batch(unsup_params, grid)
    score_sup = anomaly_score_batch(sup_params, grid)
    with open(out / "profile.tsv", "w", encoding="utf-8") as fh:
        fh.write("x\tscore_unsup\tscore_sup\n")
        for x, su, ss in zip(grid[:, 0], score_unsup, score_sup):
            fh.write(f"{float(x)!r}\t{float(su)!r}\t{float(ss)!r}\n")
    print(f"wrote {out / 'dataset.csv'} and {out / 'profile.tsv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", help="key=value file of flags without --; flags win")
    files.add_argument("--out", help="output directory")

    inputs = argparse.ArgumentParser(add_help=False, parents=[files])
    inputs.add_argument("--data", help="CSV dataset path")
    inputs.add_argument(
        "--label", default="label",
        help=f"label column name or index; score also takes {NO_LABEL!r}, for data without one",
    )

    fit = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    fit.add_argument("--epochs", dest="max_epochs", type=int, metavar="EPOCHS")
    fit.add_argument("--lr", dest="learning_rate", type=float, metavar="LR")
    fit.add_argument("--batch-size", type=int)
    fit.add_argument("--patience", type=int)
    fit.add_argument("--hidden", type=int)
    fit.add_argument("--components", type=int)
    fit.add_argument("--masks", type=int)
    fit.add_argument("--orderings", type=int)
    fit.add_argument("--train-anoms", type=int)
    fit.add_argument("--val-anoms", type=int)

    grid = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    grid.add_argument("--lambda-grid", type=_parse_grid)

    seeded = argparse.ArgumentParser(add_help=False, parents=[fit])
    seeded.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="anodens",
        description="Supervised anomaly detection with an autoregressive density model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", parents=[inputs, seeded], help="train a single model at a fixed lambda"
    )
    p_train.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser(
        "sweep", parents=[inputs, seeded, grid], help="train across the lambda grid, keep the best"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_score = sub.add_parser("score", parents=[inputs], help="score a CSV with a saved model")
    p_score.add_argument("--model", help="saved model file")
    p_score.add_argument("--roc", action="store_true", help="also emit ROC points TSV")
    p_score.set_defaults(func=cmd_score)

    p_exp = sub.add_parser(
        "experiment", parents=[inputs, fit, grid], help="multi-seed benchmark with baselines"
    )
    p_exp.add_argument(
        "--seeds", type=_parse_seeds, default=tuple(range(10)), help="e.g. 0..9 or 0,3,7"
    )
    p_exp.add_argument("--knn-k", type=int, default=argparse.SUPPRESS)
    p_exp.set_defaults(func=cmd_experiment)

    p_synth = sub.add_parser(
        "synth", parents=[files, seeded], help="generate and profile a synthetic scenario"
    )
    p_synth.add_argument("--scenario", choices=synth.SCENARIOS)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _long_options(parser: argparse.ArgumentParser, command: str) -> set[str]:
    """The long flags of one subcommand; argparse lists them only in private fields."""
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subcommands.choices[command]._actions
    return {flag for action in actions for flag in action.option_strings if flag.startswith("--")}


def _parse_with_config(parser, argv, command, path) -> argparse.Namespace:
    """Parse the config's tokens ahead of the command line's, so flags win."""
    tokens = _config_tokens(path, _long_options(parser, command))
    return parser.parse_args([command, *tokens, *argv[1:]])


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(parser, argv, args.command, args.config)
        # a diverging run fails with one line naming it, not after numpy's overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except Exception as exc:  # single-line, machine-parsable failure surface
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
