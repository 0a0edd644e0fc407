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
for backprop.  Needs only numpy; takes a few seconds.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anodens.model import (  # noqa: E402
    BERNOULLI, GAUSSIAN_MIXTURE, anomaly_score, build_masks, forward_ensemble, init_params,
    log_density_batch,
)
from anodens.objective import LabeledBatch, ObjectiveConfig, objective_and_gradient  # noqa: E402

# (D, H, orderings, masks per ordering)
SHAPES = [(3, 16, 2, 2), (8, 64, 4, 4), (30, 500, 10, 10)]
SCORE_ROWS = [1, 2, 3, 4, 5, 33, 67, 257, 300]
LAMBDAS = [0.0, 10.0]
NORMALS, ANOMALIES = 64, 3


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


def main() -> None:
    for d_shape in SHAPES:
        for head in (GAUSSIAN_MIXTURE, BERNOULLI):
            for dtype in (np.float64, np.float32):
                case = f"{head} {np.dtype(dtype).name} D={d_shape[0]} H={d_shape[1]}"
                for what, arr in case_lines(head, dtype, d_shape):
                    print(f"{case} {what} {digest(arr)}", flush=True)


if __name__ == "__main__":
    main()
