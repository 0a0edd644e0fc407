"""ADAM ascent on the supervised objective with validation-AUC early stopping,
and the experiment protocol that runs it for one seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import fit_gaussian, fit_knn, gaussian_score_batch, knn_score_batch
from .data import Dataset, SplitBundle, split
from .metrics import ScoreReport, auc, report_from_scores
from .model import (
    MadeParams, anomaly_score_batch, build_masks, choose_head, init_params, tile_slices
)
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
        for lam in self.lambda_grid:
            ObjectiveConfig(lam)  # raises on a negative or non-finite weight


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


def _check_finite(lam, epoch, objective, val_scores, learning_rate) -> None:
    """Fail with one line when an epoch's objective or validation scores are not finite."""
    if not np.isfinite(objective):
        value = "training objective"
    elif not all(np.isfinite(scores).all() for scores in val_scores):
        value = "validation scores"
    else:
        return
    raise ValueError(
        f"lambda={lam:g} diverged at epoch {epoch}: non-finite {value}; "
        f"try a lower --lr than {learning_rate:g}"
    )


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
    obj_cfg = ObjectiveConfig(lam=lam)
    state = AdamState.zeros_like(params.trainable())
    rng = np.random.default_rng(cfg.seed)
    records: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_normals))
        epoch_values = []
        for chunk in tile_slices(len(order), cfg.batch_size):
            batch = LabeledBatch(train_normals[order[chunk]], train_anoms)
            value, grads = objective_and_gradient(params, batch, obj_cfg)
            adam_step(params.trainable(), grads, state, cfg)
            epoch_values.append(value)
        objective = float(np.mean(epoch_values))
        val_scores = (
            anomaly_score_batch(params, val_anoms),
            anomaly_score_batch(params, val_normals),
        )
        _check_finite(lam, epoch, objective, val_scores, cfg.learning_rate)
        records.append(EpochRecord(epoch, objective, auc(*val_scores)))
        # max keeps the first of equal values, so ties keep the earliest epoch
        best = max(records, key=lambda rec: rec.val_auc)
        if best is records[-1]:
            best_params = params.copy()
        elif epoch - best.epoch >= cfg.patience:
            break

    report = TrainReport(
        lam=lam,
        epochs=records,
        best_epoch=best.epoch,
        best_val_auc=best.val_auc,
        stopped_early=epoch - best.epoch >= cfg.patience,
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
    grid = sorted(set(cfg.lambda_grid))
    reports: dict[float, TrainReport] = {}
    models: dict[float, MadeParams] = {}
    for lam in grid:
        models[lam], reports[lam] = train(init, ds, bundle, cfg, lam)
    # max keeps the first of equal values, so ties keep the smaller weight
    best_lambda = max(grid, key=lambda lam: reports[lam].best_val_auc)
    return SweepResult(
        best_params=models[best_lambda],
        best_lambda=best_lambda,
        reports=reports,
        models=models,
    )


def seeded_setup(
    ds: Dataset,
    seed: int,
    *,
    hidden: int = 500,
    components: int = 3,
    orderings: int = 10,
    masks: int = 10,
    train_anoms: int = 3,
    val_anoms: int = 3,
    **train_options,
) -> tuple[SplitBundle, MadeParams, TrainConfig]:
    """The split, fresh model and training config of one seed.

    All randomness flows from `seed`: the split uses seed, the masks
    1000+seed, the initial weights 2000+seed and the epoch shuffles seed.
    `train_options` are the other TrainConfig fields.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    bundle = split(ds, seed, train_anoms, val_anoms)
    mask_set = build_masks(ds.n_attributes, hidden, orderings, masks, 1000 + seed)
    head = choose_head(ds.attribute_kinds)
    init = init_params(mask_set, head=head, n_components=components, seed=2000 + seed)
    return bundle, init, TrainConfig(seed=seed, **train_options)


@dataclass
class SeedResult:
    """One seed's split, sweep and lambda=0 model, and a report of its test
    rows (normals first) per scorer: proposed, lambda0, gaussian and knn."""

    bundle: SplitBundle
    sweep: SweepResult
    lambda0_params: MadeParams
    reports: dict[str, ScoreReport]

    @property
    def aucs(self) -> dict[str, float]:
        return {name: report.auc for name, report in self.reports.items()}


def run_seed(ds: Dataset, seed: int, *, knn_k: int = 5, **options) -> SeedResult:
    """One seed of the experiment protocol, with `seeded_setup`'s options.

    Sweeps the lambda grid on the seed's split, then scores its test rows
    with the chosen model, the lambda=0 model (the sweep's, or trained when
    0 is not in the grid) and the Gaussian and kNN baselines fit on the
    training normals.
    """
    bundle, init, cfg = seeded_setup(ds, seed, **options)
    # the baselines read only the split, so a bad knn_k fails before any training
    train_normals = ds.attributes[bundle.train_normal]
    gaussian = fit_gaussian(train_normals)
    knn = fit_knn(train_normals, k=min(knn_k, len(train_normals)))
    sweep = sweep_lambda(init, ds, bundle, cfg)
    if 0.0 in sweep.models:
        lambda0_params = sweep.models[0.0]
    else:
        lambda0_params, _ = train(init, ds, bundle, cfg, 0.0)
    test_idx = np.concatenate([bundle.test_normal, bundle.test_anom])
    test_x = ds.attributes[test_idx]
    scores = {
        "proposed": anomaly_score_batch(sweep.best_params, test_x),
        "lambda0": anomaly_score_batch(lambda0_params, test_x),
        "gaussian": gaussian_score_batch(gaussian, test_x),
        "knn": knn_score_batch(knn, test_x),
    }
    reports = {
        name: report_from_scores(test_idx, ds.labels[test_idx], values)
        for name, values in scores.items()
    }
    return SeedResult(bundle, sweep, lambda0_params, reports)
