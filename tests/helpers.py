"""Shared test oracles: finite differences, quadrature, brute-force AUC, loop references."""

from __future__ import annotations

import numpy as np

from anodens.model import GAUSSIAN_MIXTURE, SIGMA_MIN, build_masks, init_params
from anodens.objective import LabeledBatch, ObjectiveConfig, objective_value

FD_STEP = 1e-5
FD_RTOL = 1e-4


def tiny_params(head=GAUSSIAN_MIXTURE, seed=0, n_attributes=3, n_hidden=5,
                n_components=2, n_orderings=2, n_masks=2, noise=0.3):
    """Small randomized model: Glorot init plus Gaussian jitter on every array."""
    rng = np.random.default_rng(seed)
    masks = build_masks(n_attributes, n_hidden, n_orderings, n_masks, seed=seed)
    params = init_params(masks, head=head, n_components=n_components, seed=seed + 1)
    if noise:
        for arr in params.trainable().values():
            arr += rng.normal(scale=noise, size=arr.shape)
    return params


def random_batch(head, seed, n_attributes=3, n_normals=4, n_anomalies=2):
    rng = np.random.default_rng(seed)
    shape_n = (n_normals, n_attributes)
    shape_a = (n_anomalies, n_attributes)
    if head == GAUSSIAN_MIXTURE:
        return LabeledBatch(rng.uniform(size=shape_n), rng.uniform(size=shape_a))
    return LabeledBatch(
        (rng.uniform(size=shape_n) > 0.5).astype(float),
        (rng.uniform(size=shape_a) > 0.5).astype(float),
    )


def fd_gradient(params, batch, cfg: ObjectiveConfig, h: float = FD_STEP):
    """Central finite differences of the objective over every parameter."""
    out = {}
    for name, arr in params.trainable().items():
        flat = arr.ravel()
        grad = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = objective_value(params, batch, cfg)
            flat[i] = orig - h
            down = objective_value(params, batch, cfg)
            flat[i] = orig
            grad[i] = (up - down) / (2.0 * h)
        out[name] = grad.reshape(arr.shape)
    return out


def max_rel_err(analytic, numeric, objective_scale, h=FD_STEP, rtol=FD_RTOL):
    """Max relative gradient error, floored at the certifiable FD resolution.

    Roundoff on each objective evaluation is ~eps * |f|, so the central
    quotient carries ~2 eps |f| / (2h) of noise; coordinates below
    noise / rtol can only be compared absolutely.
    """
    floor = 2.0 * np.finfo(float).eps * max(1.0, abs(objective_scale)) / (h * rtol)
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def auc_double_loop(anomaly_scores, normal_scores):
    """Literal pairwise indicator sum with 0.5 credit for ties."""
    total = 0.0
    for a in anomaly_scores:
        for n in normal_scores:
            if a > n:
                total += 1.0
            elif a == n:
                total += 0.5
    return total / (len(anomaly_scores) * len(normal_scores))


def mixture_pdf(weights, means, sigmas, grid):
    comps = np.exp(-0.5 * ((grid[:, None] - means[None, :]) / sigmas[None, :]) ** 2)
    comps /= sigmas[None, :] * np.sqrt(2.0 * np.pi)
    return comps @ weights


def trapezoid_mixture_mass(weights, means, variances, n_points=10001, tail=8.0):
    """Trapezoid quadrature of a 1-D Gaussian mixture over its +-tail support."""
    sigmas = np.sqrt(variances)
    lo = means.min() - tail * sigmas.max()
    hi = means.max() + tail * sigmas.max()
    grid = np.linspace(lo, hi, n_points)
    pdf = mixture_pdf(weights, means, sigmas, grid)
    return float(np.trapezoid(pdf, grid))


def gaussian_logpdf(x, mean, variance):
    return -0.5 * (np.log(2.0 * np.pi * variance) + (x - mean) ** 2 / variance)


def roc_points_loop(anomaly_scores, normal_scores):
    """One full scan per distinct threshold, highest first, after an (inf, 0, 0) row."""
    anomaly_scores = np.asarray(anomaly_scores, dtype=np.float64)
    normal_scores = np.asarray(normal_scores, dtype=np.float64)
    thresholds = np.unique(np.concatenate([anomaly_scores, normal_scores]))[::-1]
    rows = [(np.inf, 0.0, 0.0)]
    for t in thresholds:
        tpr = float((anomaly_scores >= t).mean())
        fpr = float((normal_scores >= t).mean())
        rows.append((float(t), fpr, tpr))
    return np.array(rows)


def sigmoid_two_branch(s):
    """1 / (1 + exp(-s)) for s >= 0 and exp(s) / (1 + exp(s)) below, by boolean indexing."""
    arr = np.asarray(s, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    es = np.exp(arr[~pos])
    out[~pos] = es / (1.0 + es)
    return out if arr.ndim else float(out)


def reference_log_density(params, x):
    """Ensemble log-density by a plain loop over members in the stored (D, P) column order.

    Column d * P + j of w_out and b_out is raw output j of attribute d; the
    raw outputs of attribute d are logits, means and softplus scales (mixture)
    or one logit (Bernoulli).
    """
    masks = params.masks
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d, p, k = params.n_attributes, params.head_width, params.n_components
    member_ld = []
    for m in range(masks.n_members):
        hidden = np.maximum(x @ (params.w_in * masks.input_masks[m]) + params.b_in, 0.0)
        out_mask = np.repeat(masks.output_masks[m], p, axis=1)  # (H, D * P)
        raw = (hidden @ (params.w_out * out_mask) + params.b_out).reshape(len(x), d, p)
        if params.head == GAUSSIAN_MIXTURE:
            logits = raw[:, :, :k]
            log_mix = logits - np.logaddexp.reduce(logits, axis=2, keepdims=True)
            sigmas = np.logaddexp(0.0, raw[:, :, 2 * k :]) + SIGMA_MIN
            comps = log_mix + gaussian_logpdf(x[:, :, None], raw[:, :, k : 2 * k], sigmas**2)
            log_cond = np.logaddexp.reduce(comps, axis=2)
        else:
            logit = raw[:, :, 0]
            log_cond = -np.where(x == 1.0, np.logaddexp(0.0, -logit), np.logaddexp(0.0, logit))
        member_ld.append(log_cond.sum(axis=1))
    return np.logaddexp.reduce(np.array(member_ld), axis=0) - np.log(masks.n_members)


def assert_same_model(got, want):
    """Every weight array bit-identical in value and dtype, and the same head and masks."""
    assert (got.head, got.n_components) == (want.head, want.n_components)
    for name, arr in want.trainable().items():
        other = got.trainable()[name]
        assert other.dtype == arr.dtype and other.tobytes() == arr.tobytes(), name
    for name in ("orderings", "hidden_degrees", "input_masks", "output_masks"):
        assert np.array_equal(getattr(got.masks, name), getattr(want.masks, name)), name


def split_parts(bundle):
    """The six index sets of a split."""
    return (bundle.train_normal, bundle.val_normal, bundle.test_normal,
            bundle.train_anom, bundle.val_anom, bundle.test_anom)


def assert_partition(bundle, n_instances):
    """The six index sets of a split are a disjoint cover of range(n_instances)."""
    combined = np.concatenate(split_parts(bundle))
    np.testing.assert_array_equal(np.sort(combined), np.arange(n_instances))
