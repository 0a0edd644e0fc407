import weakref

import numpy as np
import pytest

from anodens.data import dedup, normalize_minmax, split
from anodens.metrics import auc
from anodens.model import (
    GAUSSIAN_MIXTURE,
    anomaly_score_batch,
    build_masks,
    init_params,
    load_model,
    save_model,
)
from anodens.objective import LabeledBatch, ObjectiveConfig, objective_and_gradient, objective_value
from anodens.synth import make_scenario
from anodens.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainReport,
    adam_step,
    run_seed,
    seeded_setup,
    sweep_lambda,
    train,
)

import anodens.training as training_module

from helpers import assert_same_model


def quick_cfg(**kw):
    base = dict(max_epochs=8, batch_size=32, patience=4, seed=0, lambda_grid=(0.0, 1000.0))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def scenario_data():
    raw = make_scenario("inside_cluster", seed=0)
    ds = dedup(raw)
    ds, _ = normalize_minmax(ds)
    bundle = split(ds, seed=0, n_train_anom=3, n_val_anom=3)
    return ds, bundle


def fresh_init(ds, seed=0):
    masks = build_masks(ds.n_attributes, 16, 2, 2, seed=1000 + seed)
    return init_params(masks, GAUSSIAN_MIXTURE, 3, seed=2000 + seed)


class TestAdamStep:
    def test_first_step_hand_computed(self):
        cfg = TrainConfig(learning_rate=1e-3)
        trainable = {"p": np.array([0.0])}
        state = AdamState.zeros_like(trainable)
        adam_step(trainable, {"p": np.array([0.5])}, state, cfg)
        # bias-corrected first step: m_hat = g, v_hat = g^2,
        # so the update is lr * g / (|g| + eps)
        expected = 1e-3 * 0.5 / (0.5 + 1e-8)
        assert trainable["p"][0] == pytest.approx(expected, rel=1e-12)
        assert abs(trainable["p"][0]) == pytest.approx(1e-3, rel=1e-6)

    def test_zero_gradient_leaves_parameters(self):
        cfg = TrainConfig()
        trainable = {"p": np.array([1.5, -2.0])}
        state = AdamState.zeros_like(trainable)
        adam_step(trainable, {"p": np.zeros(2)}, state, cfg)
        assert trainable["p"].tolist() == [1.5, -2.0]

    def test_ascends_along_gradient(self):
        cfg = TrainConfig(learning_rate=0.1)
        trainable = {"p": np.array([0.0, 0.0])}
        state = AdamState.zeros_like(trainable)
        adam_step(trainable, {"p": np.array([1.0, -1.0])}, state, cfg)
        assert trainable["p"][0] > 0 and trainable["p"][1] < 0

    def test_shape_mismatch(self):
        cfg = TrainConfig()
        trainable = {"p": np.zeros(3)}
        state = AdamState.zeros_like(trainable)
        with pytest.raises(ValueError, match="shape"):
            adam_step(trainable, {"p": np.zeros(2)}, state, cfg)


def scripted_train(monkeypatch, ds, bundle, aucs, **kw):
    """train with validation AUCs read from `aucs`, one per epoch."""
    scripted = iter(aucs)
    monkeypatch.setattr(training_module, "auc", lambda *scores: next(scripted))
    return train(fresh_init(ds), ds, bundle, quick_cfg(**kw), 0.0)


class TestEarlyStopping:
    def test_peak_then_decline_with_patience_one(self, scenario_data, monkeypatch):
        ds, bundle = scenario_data
        params, report = scripted_train(
            monkeypatch, ds, bundle, [0.5, 0.9, 0.8], patience=1, max_epochs=10
        )
        assert [rec.epoch for rec in report.epochs] == [1, 2, 3]
        assert (report.best_epoch, report.best_val_auc, report.stopped_early) == (2, 0.9, True)
        at_best, _ = scripted_train(monkeypatch, ds, bundle, [0.5, 0.9], max_epochs=2)
        assert_same_model(params, at_best)

    def test_ties_keep_earliest(self, scenario_data, monkeypatch):
        ds, bundle = scenario_data
        params, report = scripted_train(
            monkeypatch, ds, bundle, [0.7, 0.7], patience=5, max_epochs=2
        )
        assert (report.best_epoch, report.best_val_auc, report.stopped_early) == (1, 0.7, False)
        first, _ = scripted_train(monkeypatch, ds, bundle, [0.7], max_epochs=1)
        assert_same_model(params, first)

    @pytest.mark.parametrize(
        "aucs, best_epoch, stopped_early",
        [
            ([0.9, 0.5], 1, True),  # patience runs out on the last epoch
            ([0.5, 0.9], 2, False),
            ([0.9, 0.9], 1, True),  # the tie keeps epoch 1, which the last epoch passed
        ],
    )
    def test_last_epoch_edge_cases_with_patience_one(
        self, scenario_data, monkeypatch, aucs, best_epoch, stopped_early
    ):
        ds, bundle = scenario_data
        _, report = scripted_train(monkeypatch, ds, bundle, aucs, patience=1, max_epochs=2)
        assert [rec.epoch for rec in report.epochs] == [1, 2]
        assert (report.best_epoch, report.stopped_early) == (best_epoch, stopped_early)


class TestTrain:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(learning_rate=float("nan")), "learning rate must be finite"),
            (dict(learning_rate=float("inf")), "learning rate must be finite"),
            (dict(patience=0), "patience must be at least 1"),
            (dict(lambda_grid=(0.0, float("nan"))), "regularizer weight must be finite, got nan"),
            (dict(lambda_grid=(float("inf"),)), "regularizer weight must be finite, got inf"),
            (dict(lambda_grid=(0.0, -1.0)), "regularizer weight must be non-negative, got -1.0"),
        ],
    )
    def test_rejects_out_of_range_config(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)

    def test_rejects_empty_training_normals(self, scenario_data):
        ds, bundle = scenario_data
        crippled = type(bundle)(
            train_normal=np.array([], dtype=int),
            val_normal=bundle.val_normal,
            test_normal=bundle.test_normal,
            train_anom=bundle.train_anom,
            val_anom=bundle.val_anom,
            test_anom=bundle.test_anom,
        )
        with pytest.raises(ValueError, match="no normal"):
            train(fresh_init(ds), ds, crippled, quick_cfg(), 0.0)

    def test_mle_training_raises_loglik(self, scenario_data):
        ds, bundle = scenario_data
        init = fresh_init(ds)
        cfg = quick_cfg(max_epochs=15, patience=15, learning_rate=3e-3, batch_size=16)
        trained, report = train(init, ds, bundle, cfg, 0.0)
        batch = LabeledBatch(ds.attributes[bundle.train_normal])
        mle = ObjectiveConfig()
        assert objective_value(trained, batch, mle) > objective_value(init, batch, mle)
        assert report.lam == 0.0
        assert len(report.epochs) <= 15

    def test_deterministic_given_seed(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg()
        a_params, a_report = train(fresh_init(ds), ds, bundle, cfg, 1000.0)
        b_params, b_report = train(fresh_init(ds), ds, bundle, cfg, 1000.0)
        for name in a_params.trainable():
            np.testing.assert_array_equal(
                a_params.trainable()[name], b_params.trainable()[name]
            )
        assert a_report == b_report

    def test_returned_params_match_recorded_best(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg(max_epochs=12, patience=12)
        params, report = train(fresh_init(ds), ds, bundle, cfg, 1000.0)
        rescored = auc(
            anomaly_score_batch(params, ds.attributes[bundle.val_anom]),
            anomaly_score_batch(params, ds.attributes[bundle.val_normal]),
        )
        assert rescored == pytest.approx(report.best_val_auc, abs=1e-9)
        assert report.best_val_auc == max(r.val_auc for r in report.epochs)
        assert report.best_epoch == min(
            r.epoch for r in report.epochs if r.val_auc == report.best_val_auc
        )

    def test_early_stop_bookkeeping(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg(max_epochs=40, patience=3, learning_rate=3e-3, batch_size=16)
        _, report = train(fresh_init(ds), ds, bundle, cfg, 0.0)
        if report.stopped_early:
            assert len(report.epochs) == report.best_epoch + cfg.patience

    def test_initial_params_not_mutated(self, scenario_data):
        ds, bundle = scenario_data
        init = fresh_init(ds)
        snapshot = {k: v.copy() for k, v in init.trainable().items()}
        train(init, ds, bundle, quick_cfg(), 0.0)
        for name, arr in init.trainable().items():
            np.testing.assert_array_equal(arr, snapshot[name])

    def test_float32_steps_leave_float64_parameters_and_files(
        self, tmp_path, scenario_data, monkeypatch
    ):
        ds, bundle = scenario_data
        step_dtypes, val_dtypes, val_param_dtypes = set(), [], set()

        def recording_step(params, batch, cfg):
            step_dtypes.update({batch.normals.dtype, batch.anomalies.dtype})
            return objective_and_gradient(params, batch, cfg)

        def recording_score(params, x):
            val_dtypes.append(x.dtype)
            val_param_dtypes.update(arr.dtype for arr in params.trainable().values())
            scores = anomaly_score_batch(params, x)
            assert scores.dtype == np.float32
            return scores

        monkeypatch.setattr(training_module, "objective_and_gradient", recording_step)
        monkeypatch.setattr(training_module, "anomaly_score_batch", recording_score)
        params, report = train(fresh_init(ds), ds, bundle, quick_cfg(max_epochs=3), 1000.0)
        assert step_dtypes == {np.dtype(np.float32)}
        # two validation calls per epoch, on float32 rows, of the float64 parameters
        assert val_dtypes == [np.dtype(np.float32)] * (2 * len(report.epochs))
        assert val_param_dtypes == {np.dtype(np.float64)}
        assert all(arr.dtype == np.float64 for arr in params.trainable().values())
        path = str(tmp_path / "model.bin")
        save_model(path, params)
        with np.load(path) as payload:
            assert all(payload[name].dtype == np.float64 for name in params.trainable())
        loaded, _ = load_model(path)
        assert_same_model(loaded, params)

    def test_each_step_frees_its_gradients_before_the_next(self, scenario_data, monkeypatch):
        # held through the next step's forward, they split the heap its activations need
        ds, bundle = scenario_data
        previous, steps = [], []

        def recording_step(params, batch, cfg):
            steps.append(sum(ref() is not None for ref in previous))
            value, grads = objective_and_gradient(params, batch, cfg)
            previous[:] = [weakref.ref(arr) for arr in grads.values()]
            return value, grads

        monkeypatch.setattr(training_module, "objective_and_gradient", recording_step)
        train(fresh_init(ds), ds, bundle, quick_cfg(max_epochs=2), 1000.0)
        assert len(steps) > 2 and not any(steps)

    def test_rows_beyond_float32_range_rejected(self, scenario_data):
        ds, bundle = scenario_data
        huge = type(ds)(ds.attributes * 1e39, ds.labels, ds.attribute_names, ds.attribute_kinds)
        with pytest.raises(ValueError, match="beyond float32 range"):
            train(fresh_init(ds), huge, bundle, quick_cfg(), 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_optimiser_fails_with_one_line(self, scenario_data):
        ds, bundle = scenario_data
        with pytest.raises(ValueError) as exc:
            train(fresh_init(ds), ds, bundle, quick_cfg(learning_rate=1e16), 1000.0)
        assert str(exc.value).startswith("lambda=1000 diverged at epoch ")
        assert str(exc.value).endswith("; try a lower --lr than 1e+16")
        # huge but finite values are left to the validation AUC
        train(fresh_init(ds), ds, bundle, quick_cfg(learning_rate=1e6, max_epochs=2), 1000.0)

    def test_report_csv(self, tmp_path, scenario_data):
        ds, bundle = scenario_data
        _, report = train(fresh_init(ds), ds, bundle, quick_cfg(max_epochs=3), 0.0)
        path = tmp_path / "report.csv"
        report.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,objective,val_auc"
        assert len(lines) == len(report.epochs) + 2  # header + rows + summary


class TestSweep:
    def test_singleton_grid_returns_mle_model(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg(lambda_grid=(0.0,))
        result = sweep_lambda(fresh_init(ds), ds, bundle, cfg)
        assert result.best_lambda == 0.0
        direct, _ = train(fresh_init(ds), ds, bundle, cfg, 0.0)
        for name in direct.trainable():
            np.testing.assert_array_equal(
                result.best_params.trainable()[name], direct.trainable()[name]
            )

    def test_ties_break_toward_smaller_lambda(self, scenario_data, monkeypatch):
        ds, bundle = scenario_data

        def fake_train(init, ds_, bundle_, cfg_, lam):
            report = TrainReport(lam=lam, patience=1, epochs=[EpochRecord(1, 0.0, 0.75)])
            return init.copy(), report

        monkeypatch.setattr(training_module, "train", fake_train)
        cfg = quick_cfg(lambda_grid=(10.0, 0.1, 1000.0))
        result = sweep_lambda(fresh_init(ds), ds, bundle, cfg)
        assert result.best_lambda == 0.1

    def test_empty_grid_rejected(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg()
        object.__setattr__(cfg, "lambda_grid", ())
        with pytest.raises(ValueError, match="grid"):
            sweep_lambda(fresh_init(ds), ds, bundle, cfg)

    def test_reports_cover_grid(self, scenario_data):
        ds, bundle = scenario_data
        cfg = quick_cfg(max_epochs=3, lambda_grid=(0.0, 1.0))
        result = sweep_lambda(fresh_init(ds), ds, bundle, cfg)
        assert set(result.reports) == {0.0, 1.0}
        assert set(result.models) == {0.0, 1.0}
        assert result.best_lambda in result.models


SEED_OPTIONS = dict(hidden=16, orderings=2, masks=2, max_epochs=3, batch_size=32)


class TestRunSeed:
    def test_seeded_setup_derives_every_seed(self, scenario_data):
        ds, _ = scenario_data
        bundle, init, cfg = seeded_setup(ds, 7, **SEED_OPTIONS)
        np.testing.assert_array_equal(bundle.train_normal, split(ds, 7).train_normal)
        assert init.masks.seed == 1000 + 7
        expected = init_params(build_masks(ds.n_attributes, 16, 2, 2, 1007), GAUSSIAN_MIXTURE,
                               3, seed=2007)
        assert_same_model(init, expected)
        assert cfg == TrainConfig(max_epochs=3, batch_size=32, seed=7)

    def test_grid_with_zero_reuses_the_sweeps_lambda0_model(self, scenario_data):
        ds, _ = scenario_data
        result = run_seed(ds, 0, lambda_grid=(0.0, 10.0), **SEED_OPTIONS)
        assert result.lambda0_params is result.sweep.models[0.0]
        test_idx = np.concatenate([result.bundle.test_normal, result.bundle.test_anom])
        scores = anomaly_score_batch(result.sweep.best_params, ds.attributes[test_idx])
        np.testing.assert_array_equal(result.reports["proposed"].indices, test_idx)
        np.testing.assert_array_equal(result.reports["proposed"].scores, scores)
        assert list(result.aucs) == ["proposed", "lambda0", "gaussian", "knn"]

    def test_grid_without_zero_trains_the_lambda0_model(self, scenario_data):
        ds, _ = scenario_data
        result = run_seed(ds, 0, lambda_grid=(10.0,), **SEED_OPTIONS)
        assert set(result.sweep.models) == {10.0}
        bundle, init, cfg = seeded_setup(ds, 0, lambda_grid=(10.0,), **SEED_OPTIONS)
        direct, _ = train(init, ds, bundle, cfg, 0.0)
        assert_same_model(result.lambda0_params, direct)
        test_x = ds.attributes[result.reports["lambda0"].indices]
        np.testing.assert_array_equal(
            result.reports["lambda0"].scores, anomaly_score_batch(direct, test_x)
        )
