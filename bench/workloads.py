"""Run one anodens benchmark workload in this interpreter and print its result.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

`bench/run.py` starts this script in a fresh interpreter for every workload
run; see `bench/README.md` for the workloads and metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import anodens
from anodens import baselines, data, metrics, model, synth, training
from probe import Recorder, TraceError, patched, summarize, totals_by_op

ROOT = Path(__file__).resolve().parent.parent

# Paper defaults, fixed for every workload.
N_ATTRIBUTES = 30
HIDDEN = 500
ORDERINGS = 10
MASKS_PER_ORDERING = 10
COMPONENTS = 3
BATCH = 64
TRAIN_ANOMS = 3
VAL_ANOMS = 3
LEARNING_RATE = 1e-3

# Sweep workloads: one `experiment` seed per pass.  patience == max_epochs, so
# early stopping never changes the work done; the grid runs both objective
# paths (lambda 0 never reads anomaly rows, lambda > 0 stacks 64 + 3 rows).
SWEEP_NORMALS = 200
SWEEP_ANOMALIES = 50
SWEEP_EPOCHS = 2
SWEEP_GRID = (0.0, 10.0)
SWEEP_ROW_REQUESTS = 8  # single-row requests to the swept model per pass
KNN_K = 5

# Score workload: rows come from a CSV, as `anodens score` reads them.
SCORE_NORMALS = 1600
SCORE_ANOMALIES = 448
SCORE_BULK_ROWS = 512
SCORE_ROW_REQUESTS = 8  # single-row requests per round

SETUP_REPEATS = 15
PASS_DEADLINE_S = 140.0  # no pass starts later than this after process start
ROW_REL_TOL = 1e-12

STARTED = time.perf_counter()


def forward_rows(params, x, *rest) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def ranking_pairs(params, batch, cfg) -> int:
    return batch.n_anomalies * len(batch.normals) if cfg.lam > 0 else 0


# (module, public attribute, boundary name, work counter); wrapped for every
# run so that call counts can be checked, spans are kept only with --trace 1.
WRAPPED = (
    ("anodens.objective", "forward_ensemble", "model.forward", forward_rows),
    ("anodens.objective", "backprop_log_density", "model.backward", lambda p, cache, c: len(cache.x)),
    ("anodens.training", "objective_and_gradient", "objective", ranking_pairs),
    ("anodens.training", "adam_step", "training.adam", None),
    ("anodens.training", "anomaly_score_batch", "training.val_score", forward_rows),
    ("anodens.training", "auc", "metrics.auc", None),
    ("anodens.training", "train", "training.train", None),
    ("anodens.model", "forward_ensemble", "model.forward", forward_rows),
)


def make_continuous(seed: int, n_normal: int, n_anomaly: int) -> data.Dataset:
    return synth.make_tabular_benchmark(seed, n_normal, n_anomaly, N_ATTRIBUTES)


def make_binary(seed: int, n_normal: int, n_anomaly: int) -> data.Dataset:
    """Tabular data thresholded at each column's normal median.

    Thresholding creates duplicates; the first n_normal / n_anomaly distinct
    rows of each label are kept, so every seed yields the same row counts.
    """
    raw = synth.make_tabular_benchmark(seed, 2 * n_normal, 4 * n_anomaly, N_ATTRIBUTES)
    medians = np.median(raw.attributes[raw.labels == 0], axis=0)
    bits = (raw.attributes > medians).astype(np.float64)
    keep = []
    for label, count in ((0, n_normal), (1, n_anomaly)):
        rows = np.flatnonzero(raw.labels == label)
        _, first = np.unique(bits[rows], axis=0, return_index=True)
        distinct = rows[np.sort(first)]
        if len(distinct) < count:
            raise RuntimeError(f"seed {seed}: only {len(distinct)} distinct rows with label {label}")
        keep.append(distinct[:count])
    keep = np.sort(np.concatenate(keep))
    kinds = (data.BINARY,) * N_ATTRIBUTES
    return data.Dataset(bits[keep], raw.labels[keep], raw.attribute_names, kinds)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # (seed, n_normal, n_anomaly) -> Dataset
    n_normal: int
    n_anomaly: int
    scoring: bool  # True: saved-model scoring rounds; False: experiment passes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-d30", make_continuous, SWEEP_NORMALS, SWEEP_ANOMALIES, False),
        Workload("sweep-d30-binary", make_binary, SWEEP_NORMALS, SWEEP_ANOMALIES, False),
        Workload("score-d30", make_continuous, SCORE_NORMALS, SCORE_ANOMALIES, True),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed, and every failed correctness check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, what: str, call, check=None):
        """Run one operation; return its result, or None if it raised or failed `check`."""
        try:
            out = call()
        except Exception as exc:  # one diverged model must not end the run
            self.attempted += 1
            self.failed += 1
            print(f"failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        return out if self.record(what, check(out) if check else None) else None

    def record(self, what: str, problem: str | None) -> bool:
        """Count one completed operation; a problem fails it and makes the run incorrect."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problem(f"{what}: {problem}")
        return not problem

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)


def finite_scores(scores) -> str | None:
    return None if np.isfinite(scores).all() else "non-finite score"


def auc_problem(value: float) -> str | None:
    return None if math.isfinite(value) and 0.0 <= value <= 1.0 else f"AUC {value} outside [0, 1]"


def write_csv(path: Path, ds: data.Dataset) -> None:
    table = np.column_stack([ds.attributes, ds.labels])
    header = ",".join(ds.attribute_names + ("label",))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


@dataclass
class Prepared:
    ds: data.Dataset  # deduplicated and normalized
    init: model.MadeParams
    rows: np.ndarray | None = None  # score-d30: CSV rows under the stored stats
    labels: np.ndarray | None = None
    loaded: model.MadeParams | None = None  # score-d30: the reloaded model


def setup(rec: Recorder, workload: Workload, seed: int, workdir: Path) -> Prepared:
    with rec.span("synth.generate"):
        raw = workload.generate(seed, workload.n_normal, workload.n_anomaly)
    csv_path = workdir / "data.csv"
    with rec.span("bench.write_csv"):
        write_csv(csv_path, raw)
    with rec.span("data.load_csv", raw.n_instances):
        loaded_csv = data.load_csv(str(csv_path), "label")
    with rec.span("data.dedup"):
        ds = data.dedup(loaded_csv)
    with rec.span("data.normalize"):
        ds, stats = data.normalize_minmax(ds)
    with rec.span("model.build_masks"):
        masks = model.build_masks(
            ds.n_attributes, HIDDEN, ORDERINGS, MASKS_PER_ORDERING, seed=1000 + seed
        )
    with rec.span("model.init_params"):
        head = model.choose_head(ds.attribute_kinds)
        init = model.init_params(masks, head, COMPONENTS, seed=2000 + seed)
    prepared = Prepared(ds, init)
    if workload.scoring:
        path = str(workdir / "model.bin")
        with rec.span("model.save_load"):
            model.save_model(path, init, stats)
            prepared.loaded, loaded_stats = model.load_model(path)
        with rec.span("data.normalize"):
            prepared.rows = loaded_stats.apply(loaded_csv.attributes)
        prepared.labels = loaded_csv.labels
    return prepared


def bitwise_reload_check(tally: Tally, params, path: str, x) -> None:
    """Scores from the model saved at `path`, reloaded, must equal `params`' bit for bit.

    Both sides are fresh objects, so the expanded-mask caches a forward pass
    leaves on them are freed with them and do not raise the run's peak memory.
    """
    loaded, _ = model.load_model(path)
    if not np.array_equal(model.anomaly_score_batch(params.copy(), x),
                          model.anomaly_score_batch(loaded, x)):
        tally.problem("reloaded model scores differ from in-memory scores")


def expected_sweep_counts(
    n_train: int, n_val: int, n_test: int, n_row_requests: int,
    grid, epochs: int, batch: int, n_train_anom: int,
) -> tuple[dict[str, int], dict[str, int]]:
    """Calls and work per boundary for one experiment pass, from the split sizes.

    n_val counts validation normals plus anomalies (scored in two calls per
    epoch); n_test counts test rows, scored once by the swept and once by the
    lambda = 0 model.
    """
    runs = len(set(grid))
    positive = sum(1 for lam in set(grid) if lam > 0)
    steps = math.ceil(n_train / batch)
    train_rows = epochs * (runs * n_train + positive * steps * n_train_anom)
    calls = {
        "objective": runs * epochs * steps,
        "model.backward": runs * epochs * steps,
        "training.adam": runs * epochs * steps,
        "training.val_score": 2 * runs * epochs,
        "training.train": runs,
        "model.forward": runs * epochs * steps + 2 * runs * epochs + 2 + n_row_requests,
        "metrics.auc": runs * epochs + 4,  # validation, plus test AUC of 4 scorers
    }
    work = {
        "model.backward": train_rows,
        "objective": positive * epochs * n_train_anom * n_train,
        "model.forward": train_rows + runs * epochs * n_val + 2 * n_test + n_row_requests,
    }
    return calls, work


def expected_score_counts(bulk_rows: int, n_row_requests: int) -> tuple[dict[str, int], dict[str, int]]:
    calls = {
        "model.forward": 1 + n_row_requests,
        "model.backward": 0,
        "training.adam": 0,
        "metrics.auc": 1,
    }
    return calls, {"model.forward": bulk_rows + n_row_requests}


def check_counts(tally: Tally, rec: Recorder, expected) -> None:
    calls, work = expected
    for name, want in calls.items():
        if rec.calls[name] != want:
            tally.problem(f"{name}: {rec.calls[name]} calls, expected {want}")
    for name, want in work.items():
        if rec.work[name] != want:
            tally.problem(f"{name}: {rec.work[name]} rows/pairs, expected {want}")


@dataclass
class PassResult:
    seconds: float
    rows_per_s: float
    row_latencies: list[float]
    quality: float  # test AUC of the swept model, or AUC of the bulk request
    reports: list = field(default_factory=list)  # TrainReports of the sweep


def score_rows(tally, rec, params, x, bulk, latencies, what) -> None:
    """Single-row requests; each must match the same row's bulk score within ROW_REL_TOL."""
    for i in range(len(x)):
        def matches_bulk(score):
            if math.isclose(score, bulk[i], rel_tol=ROW_REL_TOL, abs_tol=0.0):
                return None
            return f"single-row score {score!r} vs bulk {bulk[i]!r}"

        t0 = time.perf_counter()
        with rec.span("model.score_row"):
            score = tally.attempt(f"{what} row {i}", lambda: model.anomaly_score(params, x[i]),
                                  matches_bulk)
        if score is not None:
            latencies.append(time.perf_counter() - t0)


class SweepPasses:
    """One `experiment` seed per pass: split, lambda sweep, test scoring, baselines, AUC."""

    def __init__(self, prepared: Prepared, seed: int, workdir: Path):
        self.ds, self.init, self.seed, self.workdir = prepared.ds, prepared.init, seed, workdir
        self.cfg = training.TrainConfig(
            learning_rate=LEARNING_RATE, max_epochs=SWEEP_EPOCHS, batch_size=BATCH,
            patience=SWEEP_EPOCHS, seed=seed, lambda_grid=SWEEP_GRID,
        )
        self.first_scores = None

    def run(self, rec: Recorder, tally: Tally) -> PassResult | None:
        ds, grid = self.ds, sorted(set(SWEEP_GRID))
        failed_before = tally.failed
        started = time.perf_counter()
        with rec.span("data.split"):
            bundle = data.split(ds, self.seed, TRAIN_ANOMS, VAL_ANOMS)
        t0 = time.perf_counter()
        try:
            result = training.sweep_lambda(self.init, ds, bundle, self.cfg)
        except Exception as exc:  # e.g. a non-finite model: every lambda run of the call fails
            tally.attempted += len(grid)
            tally.failed += len(grid)
            print(f"failed: sweep_lambda: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        sweep_s = time.perf_counter() - t0
        for lam in grid:
            tally.record(f"lambda={lam} run", self.report_problem(result.reports[lam]))

        test_idx = np.concatenate([bundle.test_normal, bundle.test_anom])
        test_x, test_labels = ds.attributes[test_idx], ds.labels[test_idx]

        def scored(what, score_batch, params, span):
            with rec.span(span, len(test_x)):
                scores = tally.attempt(what, lambda: score_batch(params, test_x), finite_scores)
            if scores is None:
                return None, math.nan
            with rec.span("metrics.auc"):
                value = metrics.report_from_scores(test_idx, test_labels, scores).auc
            if auc_problem(value):
                tally.problem(f"{what}: {auc_problem(value)}")
            return scores, value

        swept, test_auc = scored("swept model scoring", model.anomaly_score_batch,
                                 result.best_params, "model.score_bulk")
        scored("lambda=0 model scoring", model.anomaly_score_batch, result.models[0.0],
               "model.score_bulk")
        train_normals = ds.attributes[bundle.train_normal]
        with rec.span("baselines.fit"):
            gauss = baselines.fit_gaussian(train_normals)
            knn = baselines.fit_knn(train_normals, k=min(KNN_K, len(train_normals)))
        scored("gaussian scoring", baselines.gaussian_score_batch, gauss, "baselines.score")
        scored("knn scoring", baselines.knn_score_batch, knn, "baselines.score")

        latencies: list[float] = []
        if swept is not None:
            n = SWEEP_ROW_REQUESTS
            score_rows(tally, rec, result.best_params, test_x[:n], swept[:n], latencies, "swept model")
        seconds = time.perf_counter() - started

        expected = expected_sweep_counts(
            len(bundle.train_normal), len(bundle.val_normal) + len(bundle.val_anom),
            len(test_idx), SWEEP_ROW_REQUESTS, SWEEP_GRID, SWEEP_EPOCHS, BATCH, TRAIN_ANOMS,
        )
        if tally.failed == failed_before:  # a failed call leaves its callees uncounted
            check_counts(tally, rec, expected)
        reports = [result.reports[lam] for lam in grid]
        if swept is not None:
            if self.first_scores is None:
                self.first_scores = swept
                best, path = result.best_params.copy(), str(self.workdir / "swept.bin")
                model.save_model(path, best)
                del result  # free the trained models before the check allocates its own
                bitwise_reload_check(tally, best, path, test_x)
            elif not np.array_equal(swept, self.first_scores):
                tally.problem("swept model scores differ between passes with the same seed")
        train_rows = expected[1]["model.backward"]
        return PassResult(seconds, train_rows / sweep_s, latencies, test_auc, reports)

    @staticmethod
    def report_problem(report: training.TrainReport) -> str | None:
        if len(report.epochs) != SWEEP_EPOCHS:
            return f"{len(report.epochs)} epochs, expected {SWEEP_EPOCHS}"
        if not all(math.isfinite(r.objective) for r in report.epochs):
            return "non-finite objective"
        return auc_problem(report.best_val_auc)


class ScoreRounds:
    """One round: a bulk request with AUC and ROC, then single-row requests."""

    def __init__(self, prepared: Prepared):
        self.params, self.rows, self.labels = prepared.loaded, prepared.rows, prepared.labels
        self.round = 0

    def run(self, rec: Recorder, tally: Tally) -> PassResult | None:
        n = len(self.rows)
        window = (self.round * SCORE_BULK_ROWS + np.arange(SCORE_BULK_ROWS)) % n
        self.round += 1
        x, labels = self.rows[window], self.labels[window]
        failed_before = tally.failed
        started = time.perf_counter()
        with rec.span("model.score_bulk", SCORE_BULK_ROWS):
            bulk = tally.attempt("bulk request",
                                 lambda: model.anomaly_score_batch(self.params, x), finite_scores)
        bulk_s = time.perf_counter() - started
        if bulk is None:
            return None
        anom, norm = bulk[labels == 1], bulk[labels == 0]
        with rec.span("metrics.auc"):
            value = metrics.auc(anom, norm)
        with rec.span("metrics.roc_points"):
            roc = metrics.roc_points(anom, norm)
        problem = auc_problem(value)
        if problem or not ((roc[:, 1:] >= 0) & (roc[:, 1:] <= 1)).all():
            tally.problem(f"bulk request: {problem or 'ROC rate outside [0, 1]'}")
        latencies: list[float] = []
        picks = np.arange(SCORE_ROW_REQUESTS) * (SCORE_BULK_ROWS // SCORE_ROW_REQUESTS)
        score_rows(tally, rec, self.params, x[picks], bulk[picks], latencies, "score")
        seconds = time.perf_counter() - started
        if tally.failed == failed_before:
            check_counts(tally, rec, expected_score_counts(SCORE_BULK_ROWS, SCORE_ROW_REQUESTS))
        return PassResult(seconds, SCORE_BULK_ROWS / bulk_s, latencies, value)


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_", "default"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def flops_per_row(params: model.MadeParams) -> int:
    """Multiply-adds of the input and output masked matmuls, counted as 2 flops each."""
    m, h, d = params.masks.n_members, params.n_hidden, params.n_attributes
    return 2 * m * h * d * (1 + params.head_width)


def layer_metrics(rec: Recorder, run: Measured, csv_rows: int, flops: int) -> dict:
    """Per-layer metrics: set-up layers per set-up, pipeline layers per traced pass."""
    own = totals_by_op(rec.spans)
    whole = totals_by_op(rec.spans, inclusive=True)
    traced = [op for op, _, _ in run.traced_counts]
    n_traced = len(traced)
    reports = [r for result in run.passes[True] for r in result.reports]

    def per_setup(name):
        return statistics.mean(whole[op][name] for op in range(SETUP_REPEATS))

    def per_pass(name):
        return sum(own[op][name] for op in traced) / n_traced

    def count(name, work=False):
        return sum((w if work else c)[name] for _, c, w in run.traced_counts) / n_traced

    def per_call(name):
        calls = count(name) * n_traced
        return sum(whole[op][name] for op in traced) / calls if calls else 0.0

    overhead_s = (statistics.median(r.seconds for r in run.passes[True])
                  - statistics.median(r.seconds for r in run.passes[False]))

    load_s = per_setup("data.load_csv")
    forward_s = per_pass("model.forward")
    gflop = count("model.forward", work=True) * flops / 1e9
    epochs = sum(len(r.epochs) for r in reports)
    out = {
        "synth.generate_s": (per_setup("synth.generate"), "s"),
        "data.load_csv_s": (load_s, "s"),
        "data.load_csv_rows_per_s": (csv_rows / load_s, "rows/s"),
        "data.dedup_s": (per_setup("data.dedup"), "s"),
        "data.normalize_s": (per_setup("data.normalize"), "s"),
        "data.split_s": (per_pass("data.split"), "s"),
        "model.build_masks_s": (per_setup("model.build_masks"), "s"),
        "model.init_params_s": (per_setup("model.init_params"), "s"),
        "model.save_load_s": (per_setup("model.save_load"), "s"),
        "model.forward_s": (forward_s, "s"),
        "model.forward_calls": (count("model.forward"), "count"),
        "model.forward_rows": (count("model.forward", work=True), "count"),
        "model.forward_gflop": (gflop, "GFLOP"),
        "model.forward_gflops_per_s": (gflop / forward_s, "GFLOP/s"),
        "model.backward_s": (per_pass("model.backward"), "s"),
        "model.backward_calls": (count("model.backward"), "count"),
        "model.score_bulk_s": (per_call("model.score_bulk"), "s"),
        "model.score_row_s": (per_call("model.score_row"), "s"),
        "objective.self_s": (per_pass("objective"), "s"),
        "objective.pairs": (count("objective", work=True), "count"),
        "training.adam_s": (per_pass("training.adam"), "s"),
        "training.adam_calls": (count("training.adam"), "count"),
        "training.val_score_s": (per_pass("training.val_score"), "s"),
        "training.self_s": (per_pass("training.train"), "s"),
        "training.epochs": (epochs / n_traced, "count"),
        "training.steps": (count("objective"), "count"),
        "training.best_epoch_share": (
            sum(r.best_epoch for r in reports) / epochs if epochs else 0.0, "ratio"),
        "metrics.auc_s": (per_pass("metrics.auc"), "s"),
        "metrics.auc_calls": (count("metrics.auc"), "count"),
        "metrics.roc_points_s": (per_pass("metrics.roc_points"), "s"),
        "baselines.fit_s": (per_pass("baselines.fit"), "s"),
        "baselines.score_s": (per_pass("baselines.score"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


@dataclass
class Measured:
    setup_s: list[float]
    passes: dict[bool, list[PassResult]]  # keyed by whether the pass was traced
    traced_counts: list  # (op, calls, work) of each successful traced pass


def measure(rec: Recorder, tally: Tally, workload: Workload, seed: int, seconds: float,
            workdir: Path) -> tuple[Measured, Prepared]:
    """Set up SETUP_REPEATS times, warm up, then run passes for `seconds`.

    A traced run goes on past `seconds` until it has a traced pass.
    """
    setup_s = []
    for rep in range(SETUP_REPEATS):
        rec.op = rep
        t0 = time.perf_counter()
        prepared = setup(rec, workload, seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    # Warm-up outside all timings: the first forward pass of a process is
    # slower.  The sweep warms up on a copy, because a forward pass caches
    # the expanded output masks on its params object and the experiment
    # pipeline never runs the initial model itself.
    if workload.scoring:
        model.anomaly_score_batch(prepared.loaded, prepared.rows[:SCORE_BULK_ROWS])
        bitwise_reload_check(tally, prepared.init, str(workdir / "model.bin"), prepared.rows[:BATCH])
        runner = ScoreRounds(prepared)
    else:
        model.anomaly_score_batch(prepared.init.copy(), prepared.ds.attributes[: BATCH + TRAIN_ANOMS])
        runner = SweepPasses(prepared, seed, workdir)

    run = Measured(setup_s, {False: [], True: []}, [])
    deadline = STARTED + PASS_DEADLINE_S
    measure_end = time.perf_counter() + seconds
    n_pass = 0
    while time.perf_counter() < deadline:
        if time.perf_counter() >= measure_end and run.passes[False] and (
                run.passes[True] or not rec.trace):
            break
        # with tracing, untraced and traced passes alternate so both see the
        # same machine conditions; their difference is the tracing overhead
        traced = rec.trace and n_pass % 2 == 1
        rec.op = SETUP_REPEATS + n_pass
        rec.reset_counts()
        with rec.tracing(traced):
            result = runner.run(rec, tally)
        if result is not None:
            run.passes[traced].append(result)
            if traced:
                run.traced_counts.append((rec.op, rec.calls.copy(), rec.work.copy()))
        n_pass += 1
    return run, prepared


def fmt_summary(name: str, values, unit: str, scale: float = 1.0) -> str:
    s = summarize([v * scale for v in values])
    tail = f"p{s['tail_p']:g} {s['tail']:.6g}" if s["tail_p"] is not None else "no tail percentile (n < 20)"
    return (f"{name:<22} median {s['median']:.6g} {unit:<7} {tail}  "
            f"min {min(values) * scale:.6g}  max {max(values) * scale:.6g}  n={s['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package_dir = (ROOT / "src" / "anodens").resolve()
    if Path(anodens.__file__).resolve().parent != package_dir:
        print(f"bench: imported anodens from {anodens.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(workload.name, args.seed)))
    rec = Recorder(trace=bool(args.trace))
    tally = Tally()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        with patched(rec, WRAPPED), tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            run, prepared = measure(rec, tally, workload, args.seed, args.seconds, Path(tmp))
    except TraceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    plain = run.passes[False]
    latencies = [t for r in plain for t in r.row_latencies]
    if not plain or (args.trace and not run.passes[True]):
        print(f"bench: {len(plain)} untraced and {len(run.passes[True])} traced passes "
              f"succeeded before the deadline; no result", file=sys.stderr)
        return 4
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(fmt_summary("setup_s", run.setup_s, "s"))
    print(fmt_summary("pipeline_s", [r.seconds for r in plain], "s"))
    print(fmt_summary("rows_per_s", [r.rows_per_s for r in plain], "rows/s"))
    if latencies:
        print(fmt_summary("score_latency_ms", latencies, "ms", 1e3))
    print(f"{'peak_rss_mb':<22} {peak_rss_mb:.6g} MB")
    print(f"{'error_rate':<22} {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    label = "bulk AUC (saved model)" if workload.scoring else "test AUC (swept model)"
    qualities = sorted({r.quality for r in plain + run.passes[True]})
    print(f"{'quality':<22} {label}: " + ", ".join(f"{q:.6g}" for q in qualities))

    if args.trace:
        csv_rows = workload.n_normal + workload.n_anomaly
        metrics_out = layer_metrics(rec, run, csv_rows, flops_per_row(prepared.init))
        spans_path = ROOT / ".bench_work" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        rec.write_jsonl(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
        for name, m in metrics_out.items():
            print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    else:
        e2e = {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "pipeline_s": (statistics.median(r.seconds for r in plain), "s"),
            "rows_per_s": (statistics.median(r.rows_per_s for r in plain), "rows/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics_out = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
