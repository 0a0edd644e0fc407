"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is asserted here, not just eyeballed.
"""

import time

import numpy as np

from anodens.data import dedup, normalize_minmax, split
from anodens.metrics import auc
from anodens.model import (
    BERNOULLI,
    GAUSSIAN_MIXTURE,
    anomaly_score_batch,
    build_masks,
    forward_conditionals,
    init_params,
)
from anodens.objective import (
    LabeledBatch,
    ObjectiveConfig,
    normal_loglik,
    objective_and_gradient,
    objective_value,
    pairwise_regularizer,
)
from anodens.synth import make_scenario, make_tabular_benchmark
from anodens.training import TrainConfig, sweep_lambda, train

from helpers import (
    auc_double_loop,
    fd_gradient,
    max_rel_err,
    random_batch,
    tiny_params,
    trapezoid_mixture_mass,
)


def report(criterion, message):
    print(f"[criterion {criterion}] PASS - {message}")


def conditional_arrays(cond):
    if cond.head == GAUSSIAN_MIXTURE:
        return (cond.mixture_weights, cond.means, cond.variances)
    return (cond.bernoulli_probs,)


def test_criterion_1_autoregressive_masks_bit_exact():
    """Perturbing any at-or-after coordinate leaves each conditional bit-identical."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for n_attributes in (2, 3, 8):
        for n_hidden in (4, 500):
            masks = build_masks(n_attributes, n_hidden, 10, 10, seed=7)
            params = init_params(masks, GAUSSIAN_MIXTURE, 3, seed=1)
            for arr in params.trainable().values():
                arr += rng.normal(scale=0.5, size=arr.shape)
            x = rng.uniform(size=n_attributes)
            for member in range(masks.n_members):
                order = masks.ordering_of_member(member)
                base = conditional_arrays(forward_conditionals(params, x, member))
                for j in range(n_attributes):
                    x2 = x.copy()
                    x2[j] = rng.uniform()
                    moved = conditional_arrays(forward_conditionals(params, x2, member))
                    for d in range(n_attributes):
                        if order[j] >= order[d]:
                            for left, right in zip(base, moved):
                                assert np.array_equal(left[d], right[d]), (
                                    f"D={n_attributes} H={n_hidden} member={member} "
                                    f"perturbed {j} changed conditional {d}"
                                )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"autoregressive masks exact for D in (2,3,8), H in (4,500) [{elapsed:.1f}s]")


def test_criterion_2_gradient_fidelity():
    """Analytic gradient matches central differences to 1e-4 relative error."""
    started = time.perf_counter()
    worst = 0.0
    for head in (GAUSSIAN_MIXTURE, BERNOULLI):
        for lam in (0.0, 1.0, 1e3):
            for seed in range(20):
                params = tiny_params(head=head, seed=seed)
                batch = random_batch(head, seed)
                cfg = ObjectiveConfig(lam=lam)
                value = objective_value(params, batch, cfg)
                worst = max(
                    worst,
                    max_rel_err(
                        objective_and_gradient(params, batch, cfg)[1],
                        fd_gradient(params, batch, cfg, h=1e-5),
                        value,
                    ),
                )
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0
    report(2, f"gradient matches finite differences, worst rel err {worst:.2e} [{elapsed:.1f}s]")


def test_criterion_3_conditional_normalization():
    """Mixture conditionals integrate to 1 +- 1e-3; Bernoulli masses sum exactly."""
    started = time.perf_counter()
    for seed in range(4):
        params = tiny_params(seed=seed, n_components=3, noise=0.6)
        x = np.random.default_rng(seed + 50).uniform(size=3)
        for member in (0, params.masks.n_members - 1):
            cond = forward_conditionals(params, x, member)
            for d in range(3):
                mass = trapezoid_mixture_mass(
                    cond.mixture_weights[d], cond.means[d], cond.variances[d]
                )
                assert abs(mass - 1.0) <= 1e-3
    for seed in range(4):
        params = tiny_params(head=BERNOULLI, seed=seed, noise=1.0)
        x = (np.random.default_rng(seed).uniform(size=3) > 0.5).astype(float)
        cond = forward_conditionals(params, x, seed % params.masks.n_members)
        for phi in cond.bernoulli_probs:
            assert phi + (1.0 - phi) == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, f"conditionals normalized under quadrature and exact Bernoulli masses [{elapsed:.1f}s]")


def test_criterion_4_auc_oracle_equivalence():
    """Rank-based AUC equals the pairwise indicator double loop to 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        n_anom = int(rng.integers(1, 30))
        n_norm = int(rng.integers(1, 40))
        # coarse grid plants exact ties, both within and across groups
        anoms = rng.integers(0, 10, size=n_anom) / 3.0
        norms = rng.integers(0, 10, size=n_norm) / 3.0
        worst = max(worst, abs(auc(anoms, norms) - auc_double_loop(anoms, norms)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(4, f"rank AUC equals double loop on 500 tied score sets, worst gap {worst:.1e} [{elapsed:.1f}s]")


def test_criterion_5_regularizer_auc_correspondence():
    """Indicator-substituted regularizer reproduces the AUC; sigmoid converges to it."""
    started = time.perf_counter()
    rng = np.random.default_rng(123)
    indicator = lambda s: (np.asarray(s) > 0).astype(float)
    for trial in range(20):
        scores_anom = rng.permutation(20) * 1e-2 + 5e-3  # tie-free, gaps >= 5e-3
        scores_norm = rng.permutation(30) * 1e-2
        target = auc(scores_anom, scores_norm)
        exact = pairwise_regularizer(-scores_norm, -scores_anom, transfer=indicator)
        assert exact == target
        t = 1e4
        smooth = pairwise_regularizer(-t * scores_norm, -t * scores_anom)
        assert abs(smooth - target) <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(5, f"regularizer reproduces AUC exactly (indicator) and to 1e-3 at t=1e4 [{elapsed:.1f}s]")


class RecordingMatrix:
    """Array stand-in that logs which rows are gathered."""

    def __init__(self, base):
        self.base = base
        self.accessed = []
        self.shape = base.shape

    def __getitem__(self, idx):
        self.accessed.append(np.atleast_1d(np.asarray(idx)).ravel().copy())
        return self.base[idx]


def test_criterion_6_lambda_zero_reduction():
    """lam=0 objective/gradient/training are the pure-likelihood path, bitwise."""
    started = time.perf_counter()

    params = tiny_params(seed=21, noise=0.4)
    batch = random_batch(GAUSSIAN_MIXTURE, seed=21)
    assert objective_value(params, batch, ObjectiveConfig(lam=0.0)) == normal_loglik(
        params, batch.normals
    )
    _, with_anoms = objective_and_gradient(params, batch, ObjectiveConfig(lam=0.0))
    _, pure = objective_and_gradient(params, LabeledBatch(batch.normals), ObjectiveConfig(lam=7.0))
    for name in with_anoms:
        assert np.array_equal(with_anoms[name], pure[name])

    raw = make_scenario("inside_cluster", seed=2)
    ds = dedup(raw)
    ds, _ = normalize_minmax(ds)
    bundle = split(ds, seed=2, n_train_anom=3, n_val_anom=3)
    masks = build_masks(2, 16, 2, 2, seed=5)
    init = init_params(masks, GAUSSIAN_MIXTURE, 3, seed=6)
    cfg = TrainConfig(max_epochs=6, batch_size=32, patience=6, seed=2)

    clean_params, clean_report = train(init, ds, bundle, cfg, 0.0)

    # corrupt the training anomaly rows: a lam=0 run must never look at them
    corrupted = type(ds)(
        ds.attributes.copy(), ds.labels, ds.attribute_names, ds.attribute_kinds
    )
    corrupted.attributes[np.asarray(bundle.train_anom)] = np.nan
    corrupt_params, corrupt_report = train(init, corrupted, bundle, cfg, 0.0)
    for name in clean_params.trainable():
        assert np.array_equal(
            clean_params.trainable()[name], corrupt_params.trainable()[name]
        )
    assert clean_report == corrupt_report

    # instrumented accessor: the gathered row sets never include train anomalies
    recording = type(ds)(
        ds.attributes.copy(), ds.labels, ds.attribute_names, ds.attribute_kinds
    )
    recorder = RecordingMatrix(recording.attributes)
    recording.attributes = recorder
    train(init, recording, bundle, cfg, 0.0)
    touched = set(np.concatenate(recorder.accessed).tolist())
    assert touched.isdisjoint(set(bundle.train_anom.tolist()))

    # sanity: a supervised run does read them
    recorder2 = RecordingMatrix(ds.attributes.copy())
    recording.attributes = recorder2
    train(init, recording, bundle, cfg, 1000.0)
    touched2 = set(np.concatenate(recorder2.accessed).tolist())
    assert set(bundle.train_anom.tolist()) <= touched2

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, f"lam=0 path is bitwise pure-likelihood and never reads train anomalies [{elapsed:.1f}s]")


def test_criterion_7_inside_cluster_qualitative():
    """Swept supervised model flags center-planted anomalies; pure likelihood cannot."""
    started = time.perf_counter()
    swept_detects = 0
    unsup_detects = 0
    supervised_picks = 0
    for seed in range(10):
        seed_started = time.perf_counter()
        raw = make_scenario("inside_cluster", seed)
        ds = dedup(raw)
        ds, _ = normalize_minmax(ds)
        bundle = split(ds, seed, n_train_anom=3, n_val_anom=3)
        masks = build_masks(2, 64, 2, 2, seed=1000 + seed)
        init = init_params(masks, GAUSSIAN_MIXTURE, 3, seed=2000 + seed)
        cfg = TrainConfig(
            learning_rate=3e-3,
            max_epochs=60,
            batch_size=16,
            patience=15,
            seed=seed,
            lambda_grid=(0.0, 1000.0),
        )
        result = sweep_lambda(init, ds, bundle, cfg)
        test_normals = ds.attributes[bundle.test_normal]
        test_anoms = ds.attributes[bundle.test_anom]

        def detects(model):
            median_normal = np.median(anomaly_score_batch(model, test_normals))
            return bool((anomaly_score_batch(model, test_anoms) > median_normal).all())

        swept_detects += detects(result.best_params)
        unsup_detects += detects(result.models[0.0])
        supervised_picks += result.best_lambda == 1000.0
        assert time.perf_counter() - seed_started < 30.0
    assert swept_detects >= 8, f"swept model detected in only {swept_detects}/10 seeds"
    assert unsup_detects <= 2, f"lam=0 detected in {unsup_detects}/10 seeds"
    assert supervised_picks >= 8, f"sweep chose the supervised weight in only {supervised_picks}/10"
    elapsed = time.perf_counter() - started
    report(
        7,
        f"inside-cluster anomalies: swept detects {swept_detects}/10, "
        f"lam=0 detects {unsup_detects}/10, sweep picks 1e3 in {supervised_picks}/10 "
        f"[{elapsed:.1f}s]",
    )


def test_criterion_8_benchmark_direction():
    """On a benchmark-scale dataset the swept model is no worse than lam=0."""
    started = time.perf_counter()
    raw = make_tabular_benchmark(seed=12345)
    ds = dedup(raw)
    ds, _ = normalize_minmax(ds)
    assert abs(ds.n_instances - 625) <= 5 and ds.n_attributes == 8

    swept_aucs, unsup_aucs = [], []
    for seed in range(10):
        bundle = split(ds, seed, n_train_anom=3, n_val_anom=3)
        masks = build_masks(ds.n_attributes, 64, 2, 2, seed=1000 + seed)
        init = init_params(masks, GAUSSIAN_MIXTURE, 3, seed=2000 + seed)
        cfg = TrainConfig(max_epochs=40, batch_size=64, patience=10, seed=seed)
        result = sweep_lambda(init, ds, bundle, cfg)
        test_normals = ds.attributes[bundle.test_normal]
        test_anoms = ds.attributes[bundle.test_anom]
        for model, bucket in (
            (result.best_params, swept_aucs),
            (result.models[0.0], unsup_aucs),
        ):
            bucket.append(
                auc(
                    anomaly_score_batch(model, test_anoms),
                    anomaly_score_batch(model, test_normals),
                )
            )
    mean_swept = float(np.mean(swept_aucs))
    mean_unsup = float(np.mean(unsup_aucs))
    elapsed = time.perf_counter() - started
    assert mean_swept >= mean_unsup - 0.01, (
        f"swept mean {mean_swept:.3f} fell below lam=0 mean {mean_unsup:.3f} - 0.01"
    )
    assert elapsed < 900.0
    report(
        8,
        f"benchmark ordering holds: swept {mean_swept:.3f} vs lam=0 {mean_unsup:.3f} "
        f"over 10 seeds [{elapsed:.0f}s]",
    )


def test_criterion_9_full_table_reproduction_out_of_scope():
    """The 16-dataset study needs external data and compute; criteria 1-8 stand in."""
    report(9, "full multi-dataset reproduction is out of desk scope by design")
