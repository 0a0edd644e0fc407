"""Command-line pipeline: data prep, training, lambda sweeps, scoring, experiments.

Options resolve in three layers: built-in defaults, then a key=value config
file (--config), then same-named command-line flags.  All randomness flows
from the seed options; substream seeds are derived by fixed offsets
(split=seed, masks=1000+seed, weights=2000+seed, shuffles=seed).
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics, synth
from .baselines import fit_gaussian, fit_knn, gaussian_score_batch, knn_score_batch
from .model import (
    BERNOULLI,
    anomaly_score_batch,
    build_masks,
    choose_head,
    init_params,
    load_model,
    save_model,
)
from .training import DEFAULT_LAMBDA_GRID, TrainConfig, sweep_lambda, train


def _parse_grid(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    if not values:
        raise ValueError("empty lambda grid")
    return values


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = str(text)
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# option name -> (converter, default); shared across subcommands
_OPTIONS = {
    "label": (str, "label"),
    "epochs": (int, 100),
    "lr": (float, 1e-3),
    "batch_size": (int, 64),
    "patience": (int, 10),
    "hidden": (int, 500),
    "components": (int, 3),
    "masks": (int, 10),
    "orderings": (int, 10),
    "train_anoms": (int, 3),
    "val_anoms": (int, 3),
    "lambda_grid": (_parse_grid, DEFAULT_LAMBDA_GRID),
    "seeds": (_parse_seeds, tuple(range(10))),
    "seed": (int, 0),
    "knn_k": (int, 5),
    "lam": (float, 0.0),
}


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    for name, (convert, default) in _OPTIONS.items():
        if not hasattr(args, name):
            continue
        if getattr(args, name) is None:
            raw = config.get(name)
            setattr(args, name, convert(raw) if raw is not None else default)
    for name in ("data", "out", "scenario", "model"):
        if hasattr(args, name) and getattr(args, name) is None and name in config:
            setattr(args, name, config[name])
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _prepare_dataset(args):
    ds = datamod.load_csv(args.data, args.label)
    ds = datamod.dedup(ds)
    return datamod.normalize_minmax(ds)


def _train_config(args, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        patience=args.patience,
        seed=seed,
        lambda_grid=args.lambda_grid,
    )


def _fresh_model(ds, args, seed: int):
    masks = build_masks(
        ds.n_attributes, args.hidden, args.orderings, args.masks, seed=1000 + seed
    )
    head = choose_head(ds.attribute_kinds)
    return init_params(masks, head=head, n_components=args.components, seed=2000 + seed)


def cmd_train(args) -> int:
    _require(args, "data", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds, stats = _prepare_dataset(args)
    bundle = datamod.split(ds, args.seed, args.train_anoms, args.val_anoms)
    init = _fresh_model(ds, args, args.seed)
    cfg = _train_config(args, args.seed)
    params, report = train(init, ds, bundle, cfg, args.lam)
    save_model(str(out / "model.bin"), params, stats)
    stats.save(str(out / "normstats.txt"))
    report.write_csv(str(out / "train_report.csv"))
    print(
        f"trained lambda={_fmt(args.lam)} best_epoch={report.best_epoch} "
        f"val_auc={_fmt(report.best_val_auc)}"
    )
    return 0


def cmd_sweep(args) -> int:
    _require(args, "data", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds, stats = _prepare_dataset(args)
    bundle = datamod.split(ds, args.seed, args.train_anoms, args.val_anoms)
    init = _fresh_model(ds, args, args.seed)
    cfg = _train_config(args, args.seed)
    result = sweep_lambda(init, ds, bundle, cfg)
    save_model(str(out / "model.bin"), result.best_params, stats)
    stats.save(str(out / "normstats.txt"))
    with open(out / "sweep_report.csv", "w", encoding="utf-8") as fh:
        fh.write("lambda,best_epoch,best_val_auc,chosen\n")
        for lam in sorted(result.reports):
            rep = result.reports[lam]
            chosen = int(lam == result.best_lambda)
            fh.write(f"{_fmt(lam)},{rep.best_epoch},{rep.best_val_auc!r},{chosen}\n")
    print(f"chosen lambda={_fmt(result.best_lambda)}")
    return 0


def _check_attribute_names(found, expected) -> None:
    """Fail at the first position where the data's attribute columns differ from the model's."""
    for pos, (have, want) in enumerate(zip_longest(found, expected)):
        if have != want:
            raise ValueError(f"attribute {pos} is {have!r} in the data but {want!r} in the model")


def _check_binary(attributes, names, path) -> None:
    """Fail at the first attribute value a Bernoulli head cannot score."""
    bad = np.argwhere((attributes != 0.0) & (attributes != 1.0))
    if bad.size:
        row, col = bad[0]
        line = datamod.csv_line_numbers(path)[row]
        raise ValueError(
            f"attribute {names[col]} holds non-binary value {float(attributes[row, col])!r} "
            f"on line {line}"
        )


def cmd_score(args) -> int:
    _require(args, "model", "data", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, stats = load_model(args.model)
    ds = datamod.load_csv(args.data, args.label)
    attributes = ds.attributes
    if stats is not None:
        _check_attribute_names(ds.attribute_names, stats.attribute_names)
        attributes = stats.apply(attributes)
    if params.head == BERNOULLI:
        _check_binary(attributes, ds.attribute_names, args.data)
    scores = anomaly_score_batch(params, attributes)
    report = metrics.report_from_scores(np.arange(ds.n_instances), ds.labels, scores)
    report.write_csv(str(out / "scores.csv"))
    metrics.write_json_summary(str(out / "score_summary.json"), report.to_json_dict())
    if args.roc and report.auc is not None:
        points = metrics.roc_points(scores[ds.labels == 1], scores[ds.labels == 0])
        with open(out / "roc.tsv", "w", encoding="utf-8") as fh:
            fh.write("threshold\tfpr\ttpr\n")
            for t, fpr, tpr in points:
                fh.write(f"{_fmt(t)}\t{float(fpr)!r}\t{float(tpr)!r}\n")
    auc_text = "n/a" if report.auc is None else _fmt(report.auc)
    print(f"scored {ds.n_instances} instances auc={auc_text}")
    return 0


def _experiment_one_seed(ds, args, seed: int):
    bundle = datamod.split(ds, seed, args.train_anoms, args.val_anoms)
    init = _fresh_model(ds, args, seed)
    cfg = _train_config(args, seed)
    result = sweep_lambda(init, ds, bundle, cfg)
    if 0.0 in result.models:
        lambda0_params = result.models[0.0]
    else:
        lambda0_params, _ = train(init, ds, bundle, cfg, 0.0)

    train_normals = ds.attributes[bundle.train_normal]
    gauss = fit_gaussian(train_normals)
    knn = fit_knn(train_normals, k=min(args.knn_k, len(train_normals)))
    test_idx = np.concatenate([bundle.test_normal, bundle.test_anom])
    test_labels = ds.labels[test_idx]
    test_x = ds.attributes[test_idx]

    def _report(scores):
        return metrics.report_from_scores(test_idx, test_labels, scores)

    proposed = _report(anomaly_score_batch(result.best_params, test_x))
    lambda0 = _report(anomaly_score_batch(lambda0_params, test_x))
    gaussian_rep = _report(gaussian_score_batch(gauss, test_x))
    knn_rep = _report(knn_score_batch(knn, test_x))
    aucs = {
        "proposed": proposed.auc,
        "lambda0": lambda0.auc,
        "gaussian": gaussian_rep.auc,
        "knn": knn_rep.auc,
    }
    return bundle, result, proposed, aucs


def cmd_experiment(args) -> int:
    _require(args, "data", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds, _ = _prepare_dataset(args)
    per_method: dict[str, list[float]] = {}
    for seed in args.seeds:
        bundle, result, proposed, aucs = _experiment_one_seed(ds, args, seed)
        for method, value in aucs.items():
            per_method.setdefault(method, []).append(value)
        proposed.write_csv(str(out / f"scores_{seed}.csv"))
        payload = proposed.to_json_dict(
            seed=seed,
            chosen_lambda=result.best_lambda,
            auc_per_method=aucs,
            lambda_val_auc={
                _fmt(lam): rep.best_val_auc for lam, rep in sorted(result.reports.items())
            },
            n_test_normals=len(bundle.test_normal),
            n_test_anomalies=len(bundle.test_anom),
        )
        metrics.write_json_summary(str(out / f"report_{seed}.json"), payload)
        print(
            f"seed={seed} lambda={_fmt(result.best_lambda)} "
            + " ".join(f"{m}={_fmt(v)}" for m, v in aucs.items())
        )
    with open(out / "aggregate.csv", "w", encoding="utf-8") as fh:
        fh.write("method,mean_auc,stderr,n_seeds\n")
        for method in ("proposed", "lambda0", "gaussian", "knn"):
            values = np.array(per_method[method])
            stderr = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
            fh.write(f"{method},{_fmt(values.mean())},{_fmt(stderr)},{len(values)}\n")
    print(f"wrote {out / 'aggregate.csv'}")
    return 0


def cmd_synth(args) -> int:
    _require(args, "scenario", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw = synth.make_scenario(args.scenario, args.seed)
    with open(out / "dataset.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(raw.attribute_names) + ",label\n")
        for row, label in zip(raw.attributes, raw.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    ds = datamod.dedup(raw)
    ds, stats = datamod.normalize_minmax(ds)
    bundle = datamod.split(ds, args.seed, args.train_anoms, args.val_anoms)
    init = _fresh_model(ds, args, args.seed)
    cfg = _train_config(args, args.seed)
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


def _add_common(parser, *, with_seed=True):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--data", help="CSV dataset path")
    parser.add_argument("--label", help="label column name or index (default: label)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--hidden", type=int)
    parser.add_argument("--components", type=int)
    parser.add_argument("--masks", type=int)
    parser.add_argument("--orderings", type=int)
    parser.add_argument("--train-anoms", dest="train_anoms", type=int)
    parser.add_argument("--val-anoms", dest="val_anoms", type=int)
    parser.add_argument("--lambda-grid", dest="lambda_grid", type=_parse_grid)
    if with_seed:
        parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anodens",
        description="Supervised anomaly detection with an autoregressive density model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a single model at a fixed lambda")
    _add_common(p_train)
    p_train.add_argument("--lambda", dest="lam", type=float)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="train across the lambda grid, keep the best")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_score = sub.add_parser("score", help="score a CSV with a saved model")
    p_score.add_argument("--config")
    p_score.add_argument("--model", help="saved model file")
    p_score.add_argument("--data")
    p_score.add_argument("--label")
    p_score.add_argument("--out")
    p_score.add_argument("--roc", action="store_true", help="also emit ROC points TSV")
    p_score.set_defaults(func=cmd_score)

    p_exp = sub.add_parser("experiment", help="multi-seed benchmark with baselines")
    _add_common(p_exp, with_seed=False)
    p_exp.add_argument("--seeds", type=_parse_seeds, help="e.g. 0..9 or 0,3,7")
    p_exp.add_argument("--knn-k", dest="knn_k", type=int)
    p_exp.set_defaults(func=cmd_experiment)

    p_synth = sub.add_parser("synth", help="generate and profile a synthetic scenario")
    _add_common(p_synth)
    p_synth.add_argument("--scenario", choices=synth.SCENARIOS)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except Exception as exc:  # single-line, machine-parsable failure surface
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
