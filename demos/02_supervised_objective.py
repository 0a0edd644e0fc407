"""The supervised objective: likelihood plus a pairwise ranking regularizer.

Shows that the regularizer is a smooth stand-in for the exact pairwise
ranking rate (the AUC), and that the analytic gradient agrees with finite
differences.
"""

import numpy as np

from anodens import (
    GAUSSIAN_MIXTURE,
    LabeledBatch,
    ObjectiveConfig,
    auc,
    build_masks,
    init_params,
    objective_and_gradient,
    objective_value,
    pairwise_regularizer,
    sigmoid,
)

rng = np.random.default_rng(3)

# --- the regularizer approximates the AUC ------------------------------------
scores_anom = rng.permutation(12) * 0.1 + 0.05   # anomaly scores (tie-free)
scores_norm = rng.permutation(20) * 0.1
exact_auc = auc(scores_anom, scores_norm)
print("pairwise ranking term vs exact AUC")
print(f"  exact AUC (indicator, 0.5 for ties): {exact_auc:.4f}")
for temp in (1.0, 10.0, 1e4):
    smooth = pairwise_regularizer(-temp * scores_norm, -temp * scores_anom)
    print(f"  sigmoid surrogate at temperature {temp:>7g}: {smooth:.4f}")
print("  (sharper sigmoids converge to the indicator, hence to the AUC)")

# --- objective composition ----------------------------------------------------
masks = build_masks(3, 8, 2, 2, seed=0)
params = init_params(masks, GAUSSIAN_MIXTURE, n_components=2, seed=1)
for arr in params.trainable().values():
    arr += rng.normal(scale=0.3, size=arr.shape)

batch = LabeledBatch(rng.uniform(size=(6, 3)), rng.uniform(size=(2, 3)))
for lam in (0.0, 1.0, 100.0):
    value = objective_value(params, batch, ObjectiveConfig(lam=lam))
    print(f"objective at lambda={lam:>5g}: {value:+.4f}")
likelihood = objective_value(params, LabeledBatch(batch.normals), ObjectiveConfig())
print(f"likelihood term alone:      {likelihood:+.4f}")
print("(lambda=0 reduces the objective to plain maximum likelihood)")

# --- gradient check -----------------------------------------------------------
cfg = ObjectiveConfig(lam=10.0)
_, grads = objective_and_gradient(params, batch, cfg)
h = 1e-5
worst = 0.0
for name, arr in params.trainable().items():
    flat = arr.ravel()
    gflat = grads[name].ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective_value(params, batch, cfg)
        flat[i] = orig - h
        down = objective_value(params, batch, cfg)
        flat[i] = orig
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-4))
print(f"\nanalytic vs central-difference gradient, max relative error: {worst:.2e}")

# --- sigmoid corner cases ------------------------------------------------------
print("\nsigmoid sanity:", sigmoid(0.0), sigmoid(40.0), f"{sigmoid(-40.0):.1e}")
