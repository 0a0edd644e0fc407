"""Print a sha256 prefix of every number a grid of passes produces, one array a line.

Run it on two checkouts and diff the outputs: identical lines mean the two
compute the same bits for those passes.  It imports the `anodens` package
from the `src/` directory beside this script, so each checkout is measured on
its own code.  BLAS may round differently with another thread count, so
compare runs made with the same `OPENBLAS_NUM_THREADS`:

    OPENBLAS_NUM_THREADS=1 python tools/parity.py > parity_1.txt
    OPENBLAS_NUM_THREADS=1 python /path/to/other/tools/parity.py | diff parity_1.txt -

The grid: both heads, float64 and float32 rows, D in {3, 8, 30} (D=30 at the
paper's H=500 with 10 orderings x 10 masks).  For each case it hashes
`log_density_batch` at several row counts, a single-row `anomaly_score`,
`objective_and_gradient`'s value and gradients at lambda 0 and 10 on 64
normals and 3 anomalies, and the arrays of a 67-row `forward_ensemble` pass
for backprop.  Then, for D in {3, 8} and both heads, it runs a
`sweep_lambda` over two weights with a patience short enough to stop early,
and prints the chosen weight, each run's best epoch, best validation AUC and
whether it stopped early, and hashes of each run's epoch records and
returned weights.  Needs only numpy; takes a few seconds.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anodens.data import BINARY, Dataset, normalize_minmax  # noqa: E402
from anodens.model import (  # noqa: E402
    BERNOULLI, GAUSSIAN_MIXTURE, anomaly_score, build_masks, forward_ensemble, init_params,
    log_density_batch,
)
from anodens.objective import LabeledBatch, ObjectiveConfig, objective_and_gradient  # noqa: E402
from anodens.synth import make_tabular_benchmark  # noqa: E402
from anodens.training import seeded_setup, sweep_lambda  # noqa: E402

# (D, H, orderings, masks per ordering)
SHAPES = [(3, 16, 2, 2), (8, 64, 4, 4), (30, 500, 10, 10)]
SCORE_ROWS = [1, 2, 3, 4, 5, 33, 67, 257, 300]
LAMBDAS = [0.0, 10.0]
NORMALS, ANOMALIES = 64, 3
# the training runs: their shapes, and options that stop some runs early
TRAIN_SHAPES = SHAPES[:2]
TRAIN_OPTIONS = dict(max_epochs=40, batch_size=16, patience=4, learning_rate=3e-3,
                     lambda_grid=(0.0, 10.0))


def digest(a) -> str:
    a = np.asarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def case_lines(head: str, dtype, shape: tuple):
    d, h, orderings, masks = shape
    params = init_params(build_masks(d, h, orderings, masks, seed=1000 + d), head=head,
                         n_components=3, seed=2000 + d)
    rng = np.random.default_rng(d)
    # jitter every weight, so no pass sees the symmetric initial biases
    for arr in params.trainable().values():
        arr += rng.normal(scale=0.1, size=arr.shape)
    x = rng.uniform(size=(max(SCORE_ROWS), d))
    if head == BERNOULLI:
        x = (x > 0.5).astype(float)
    x = x.astype(dtype)
    for b in SCORE_ROWS:
        yield f"scores B={b}", log_density_batch(params, x[:b])
    yield "anomaly_score row", anomaly_score(params, x[0])
    batch = LabeledBatch(x[:NORMALS], x[NORMALS : NORMALS + ANOMALIES])
    for lam in LAMBDAS:
        value, grads = objective_and_gradient(params, batch, ObjectiveConfig(lam=lam))
        yield f"objective lambda={lam:g} value", np.float64(value)
        for name, grad in grads.items():
            yield f"objective lambda={lam:g} grad {name}", grad
    cache = forward_ensemble(params, x[: NORMALS + ANOMALIES])
    for name, arr in vars(cache).items():
        yield f"cache B={NORMALS + ANOMALIES} {name}", arr


def pass_lines(shapes):
    for d_shape in shapes:
        for head in (GAUSSIAN_MIXTURE, BERNOULLI):
            for dtype in (np.float64, np.float32):
                case = f"{head} {np.dtype(dtype).name} D={d_shape[0]} H={d_shape[1]}"
                for what, arr in case_lines(head, dtype, d_shape):
                    yield f"{case} {what} {digest(arr)}"


def sweep_lines(head: str, shape: tuple):
    d, h, orderings, masks = shape
    ds, _ = normalize_minmax(make_tabular_benchmark(d, n_normal=160, n_anomaly=24, n_attributes=d))
    if head == BERNOULLI:
        ds = Dataset((ds.attributes > 0.5).astype(float), ds.labels, ds.attribute_names,
                     (BINARY,) * d)
    bundle, init, cfg = seeded_setup(ds, d, hidden=h, orderings=orderings, masks=masks,
                                     **TRAIN_OPTIONS)
    result = sweep_lambda(init, ds, bundle, cfg)
    yield f"best_lambda={result.best_lambda!r}"
    for lam, report in result.reports.items():
        yield (f"lambda={lam:g} best_epoch={report.best_epoch} "
               f"best_val_auc={report.best_val_auc!r} stopped_early={report.stopped_early}")
        records = [(rec.epoch, rec.objective, rec.val_auc) for rec in report.epochs]
        yield f"lambda={lam:g} epochs={len(records)} {digest(np.array(records))}"
        for name, arr in result.models[lam].trainable().items():
            yield f"lambda={lam:g} params {name} {digest(arr)}"


def training_lines(shapes):
    for d_shape in shapes:
        for head in (GAUSSIAN_MIXTURE, BERNOULLI):
            case = f"sweep {head} D={d_shape[0]} H={d_shape[1]}"
            for line in sweep_lines(head, d_shape):
                yield f"{case} {line}"


def main() -> None:
    for line in pass_lines(SHAPES):
        print(line, flush=True)
    for line in training_lines(TRAIN_SHAPES):
        print(line, flush=True)


if __name__ == "__main__":
    main()
