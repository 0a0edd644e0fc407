"""Data pipeline and model persistence, end to end.

Covers: CSV round trip, duplicate removal, min-max normalization with stored
stats, the seeded split protocol, training, saving the model to a single
self-describing file, and scoring unseen (out-of-range) instances with the
reloaded model.
"""

import os
import tempfile

import numpy as np

from anodens import (
    GAUSSIAN_MIXTURE,
    anomaly_score_batch,
    build_masks,
    dedup,
    init_params,
    load_csv,
    load_model,
    normalize_minmax,
    save_model,
    split,
    write_csv,
)
from anodens.synth import make_tabular_benchmark
from anodens.training import TrainConfig, train

workdir = tempfile.mkdtemp(prefix="anodens_demo_")
csv_path = os.path.join(workdir, "bench.csv")

# --- write a CSV, load it back ------------------------------------------------
raw = make_tabular_benchmark(seed=7, n_normal=300, n_anomaly=60, n_attributes=5)
write_csv(csv_path, raw)

ds = load_csv(csv_path, label_column="label")
print(f"loaded {ds.n_instances} rows, {ds.n_attributes} attributes, "
      f"{len(ds.anomaly_indices())} anomalies")
print(f"attribute kinds: {ds.attribute_kinds}")

# --- dedup + normalize ---------------------------------------------------------
ds = dedup(ds)
ds, stats = normalize_minmax(ds)
print(f"after dedup: {ds.n_instances} rows; "
      f"columns now span [{ds.attributes.min():.0f}, {ds.attributes.max():.0f}]")

# --- seeded split ---------------------------------------------------------------
bundle = split(ds, seed=0, n_train_anom=3, n_val_anom=3)
print(f"split: {len(bundle.train_normal)}/{len(bundle.val_normal)}/"
      f"{len(bundle.test_normal)} normals, "
      f"{len(bundle.train_anom)}/{len(bundle.val_anom)}/{len(bundle.test_anom)} anomalies")

# --- train and persist -----------------------------------------------------------
masks = build_masks(ds.n_attributes, n_hidden=32, n_orderings=2,
                    n_masks_per_ordering=2, seed=1000)
init = init_params(masks, head=GAUSSIAN_MIXTURE, n_components=3, seed=2000)
cfg = TrainConfig(max_epochs=50, batch_size=64, patience=10, seed=0)
model, report = train(init, ds, bundle, cfg, lam=10.0)
print(f"trained: best epoch {report.best_epoch}, val AUC {report.best_val_auc:.3f}")

model_path = os.path.join(workdir, "model.bin")
save_model(model_path, model, stats)
print(f"saved model to {model_path} ({os.path.getsize(model_path)} bytes)")

# --- reload and score unseen instances -------------------------------------------
reloaded, reloaded_stats = load_model(model_path)
test_x = ds.attributes[bundle.test_anom]
np.testing.assert_array_equal(
    anomaly_score_batch(model, test_x), anomaly_score_batch(reloaded, test_x)
)
print("reloaded model reproduces scores bit-for-bit")

# out-of-range raw values are mapped with the stored stats and clamped to [0, 1]
wild = np.array([[99.0, -99.0, 0.5, 0.5, 0.5]])
clamped = reloaded_stats.apply(wild)
print(f"unseen raw instance {wild[0][:2]}... maps to {np.round(clamped[0], 3)}")
print(f"its anomaly score: {anomaly_score_batch(reloaded, clamped)[0]:.3f}")
