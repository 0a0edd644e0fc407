"""Seeded benchmark: swept supervision vs plain likelihood vs baselines.

Runs the full protocol on a benchmark-scale synthetic dataset: dedup,
normalize, then `run_seed` per seed: a seeded split with three labeled
training anomalies, a regularizer-weight sweep selected on validation AUC,
and test-set AUC against the unsupervised model and two simple reference
scorers.
"""

import numpy as np

from anodens import dedup, normalize_minmax, run_seed
from anodens.synth import make_tabular_benchmark

raw = make_tabular_benchmark(seed=12345)
ds = dedup(raw)
ds, _ = normalize_minmax(ds)
print(f"dataset: {ds.n_instances} instances, {ds.n_attributes} attributes, "
      f"{len(ds.anomaly_indices())} anomalies")

results = {}
chosen = []
for seed in range(5):
    result = run_seed(ds, seed, hidden=64, orderings=2, masks=2, max_epochs=40)
    chosen.append(result.sweep.best_lambda)
    # the swept model is the protocol's "proposed" scorer
    row = {"swept" if name == "proposed" else name: value for name, value in result.aucs.items()}
    for name, value in row.items():
        results.setdefault(name, []).append(value)
    print(f"seed {seed}: chose lambda={result.sweep.best_lambda:<6g} "
          + "  ".join(f"{k}={v:.3f}" for k, v in row.items()))

print("\nmean test AUC over seeds")
for name, values in results.items():
    mean = np.mean(values)
    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    print(f"  {name:<9s} {mean:.3f} +- {stderr:.3f}")
print(f"\nchosen regularizer weights per seed: {chosen}")
