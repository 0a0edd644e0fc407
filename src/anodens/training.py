"""ADAM ascent on the supervised objective with validation-AUC early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitBundle
from .metrics import auc
from .model import MadeParams, anomaly_score_batch
from .objective import LabeledBatch, ObjectiveConfig, objective_and_gradient

DEFAULT_LAMBDA_GRID = (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)

# ADAM moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 100
    batch_size: int = 64
    patience: int = 10
    seed: int = 0
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if any(lam < 0 for lam in self.lambda_grid):
            raise ValueError("regularizer weights must be non-negative")
        if not np.isfinite(self.lambda_grid).all():
            raise ValueError(f"regularizer weights must be finite, got {self.lambda_grid}")


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    val_auc: float


@dataclass
class TrainReport:
    lam: float
    epochs: list[EpochRecord]
    best_epoch: int
    best_val_auc: float
    stopped_early: bool
    wall_time: float = field(compare=False, default=0.0)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,objective,val_auc\n")
            for rec in self.epochs:
                fh.write(f"{rec.epoch},{rec.objective!r},{rec.val_auc!r}\n")
            fh.write(
                f"# best_epoch={self.best_epoch} best_val_auc={self.best_val_auc!r} "
                f"lambda={self.lam!r}\n"
            )


@dataclass
class AdamState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, trainable: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            first_moment={k: np.zeros_like(v) for k, v in trainable.items()},
            second_moment={k: np.zeros_like(v) for k, v in trainable.items()},
        )


def adam_step(
    trainable: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """In-place ADAM ascent step with bias correction."""
    state.step += 1
    t = state.step
    for name, grad in grads.items():
        if grad.shape != trainable[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        trainable[name] += cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class EarlyStopper:
    """Track the best validation value; stop after `patience` epochs without
    strict improvement.  Ties keep the earliest best epoch."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_value = -np.inf
        self.best_epoch = 0
        self.epochs_since_best = 0

    def update(self, epoch: int, value: float) -> bool:
        if value > self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best >= self.patience


def _batch_slices(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def _float32_rows(rows: np.ndarray) -> np.ndarray:
    """Training rows cast once to float32, the dtype every training step computes in.

    Parameters, ADAM state and validation scoring stay float64.  A finite
    value beyond float32's range fails here rather than as a non-finite input.
    """
    with np.errstate(over="raise"):
        try:
            return np.asarray(rows, dtype=np.float32)
        except FloatingPointError:
            raise ValueError(
                f"training rows hold a value beyond float32 range "
                f"(|x| > {np.finfo(np.float32).max:.4g}); normalize the data first"
            ) from None


def train(
    init: MadeParams,
    ds: Dataset,
    bundle: SplitBundle,
    cfg: TrainConfig,
    lam: float,
) -> tuple[MadeParams, TrainReport]:
    """Optimize the objective on the training split, early-stopping on val AUC.

    Returns the parameters from the best-validation-AUC epoch.  With lam == 0
    the anomaly rows of the training split are never read.
    """
    started = time.perf_counter()
    if len(bundle.train_normal) == 0:
        raise ValueError("training split has no normal instances")
    if len(bundle.val_normal) == 0 or len(bundle.val_anom) == 0:
        raise ValueError("validation split needs both normals and anomalies")

    train_normals = _float32_rows(ds.attributes[np.asarray(bundle.train_normal)])
    train_anoms = _float32_rows(
        ds.attributes[np.asarray(bundle.train_anom if lam > 0 else (), dtype=np.int64)]
    )
    val_normals = np.asarray(ds.attributes[np.asarray(bundle.val_normal)], dtype=np.float64)
    val_anoms = np.asarray(ds.attributes[np.asarray(bundle.val_anom)], dtype=np.float64)

    params = init.copy()
    best_params = params.copy()
    obj_cfg = ObjectiveConfig(lam=lam)
    state = AdamState.zeros_like(params.trainable())
    stopper = EarlyStopper(cfg.patience)
    rng = np.random.default_rng(cfg.seed)
    records: list[EpochRecord] = []
    stopped_early = False

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_normals))
        epoch_values = []
        for chunk in _batch_slices(len(order), cfg.batch_size):
            batch = LabeledBatch(train_normals[order[chunk]], train_anoms)
            value, grads = objective_and_gradient(params, batch, obj_cfg)
            adam_step(params.trainable(), grads, state, cfg)
            epoch_values.append(value)
        val_auc = auc(
            anomaly_score_batch(params, val_anoms),
            anomaly_score_batch(params, val_normals),
        )
        records.append(EpochRecord(epoch, float(np.mean(epoch_values)), val_auc))
        if stopper.update(epoch, val_auc):
            best_params = params.copy()
        if stopper.should_stop:
            stopped_early = True
            break

    report = TrainReport(
        lam=lam,
        epochs=records,
        best_epoch=stopper.best_epoch,
        best_val_auc=stopper.best_value,
        stopped_early=stopped_early,
        wall_time=time.perf_counter() - started,
    )
    return best_params, report


@dataclass
class SweepResult:
    best_params: MadeParams
    best_lambda: float
    reports: dict[float, TrainReport]
    models: dict[float, MadeParams]


def sweep_lambda(
    init: MadeParams, ds: Dataset, bundle: SplitBundle, cfg: TrainConfig
) -> SweepResult:
    """Train one model per grid value, keep the best validation AUC.

    Every run starts from a copy of the same initial parameters and uses the
    same shuffle seed.  Ties in validation AUC go to the smaller weight.
    """
    if not cfg.lambda_grid:
        raise ValueError("lambda grid must be non-empty")
    reports: dict[float, TrainReport] = {}
    models: dict[float, MadeParams] = {}
    best_lambda = None
    best_auc = -np.inf
    for lam in sorted(set(cfg.lambda_grid)):
        model, report = train(init, ds, bundle, cfg, lam)
        reports[lam] = report
        models[lam] = model
        if report.best_val_auc > best_auc:
            best_auc = report.best_val_auc
            best_lambda = lam
    return SweepResult(
        best_params=models[best_lambda],
        best_lambda=best_lambda,
        reports=reports,
        models=models,
    )
