"""ADAM ascent on the supervised objective with validation-AUC early stopping,
and the experiment protocol that runs it for one seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import fit_gaussian, fit_knn, gaussian_score_batch, knn_score_batch
from .data import Dataset, SplitBundle, split, write_rows
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
    """One run's epoch records, in epoch order; the early-stop rule derives the rest."""

    lam: float
    patience: int
    epochs: list[EpochRecord]

    @property
    def best(self) -> EpochRecord:
        # max keeps the first of equal values, so ties keep the earliest epoch
        return max(self.epochs, key=lambda rec: rec.val_auc)

    @property
    def best_epoch(self) -> int:
        return self.best.epoch

    @property
    def best_val_auc(self) -> float:
        return self.best.val_auc

    @property
    def stopped_early(self) -> bool:
        return self.epochs[-1].epoch - self.best.epoch >= self.patience

    def write_csv(self, path: str) -> None:
        """The epoch rows, then a one-field `# best_epoch=…` summary row."""
        summary = (f"# best_epoch={self.best_epoch} best_val_auc={self.best_val_auc!r} "
                   f"lambda={self.lam!r}")
        rows = [(rec.epoch, rec.objective, rec.val_auc) for rec in self.epochs]
        write_rows(path, ("epoch", "objective", "val_auc"), [*rows, (summary,)])


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
    """Training or validation rows cast once to float32, the dtype every
    training step and validation scoring pass computes in.

    Parameters, ADAM state and the returned model stay float64.  A finite
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

    Returns the parameters of the report's best epoch.  With lam == 0
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
    val_normals = _float32_rows(ds.attributes[np.asarray(bundle.val_normal)])
    val_anoms = _float32_rows(ds.attributes[np.asarray(bundle.val_anom)])

    params = init.copy()
    obj_cfg = ObjectiveConfig(lam=lam)
    state = AdamState.zeros_like(params.trainable())
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport(lam, cfg.patience, [])

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_normals))
        epoch_values = []
        for chunk in tile_slices(len(order), cfg.batch_size):
            batch = LabeledBatch(train_normals[order[chunk]], train_anoms)
            value, grads = objective_and_gradient(params, batch, obj_cfg)
            adam_step(params.trainable(), grads, state, cfg)
            # freed now, not held through the next step's forward, whose
            # activations then need no heap beyond the previous step's
            del grads
            epoch_values.append(value)
        objective = float(np.mean(epoch_values))
        val_scores = (
            anomaly_score_batch(params, val_anoms),
            anomaly_score_batch(params, val_normals),
        )
        _check_finite(lam, epoch, objective, val_scores, cfg.learning_rate)
        report.epochs.append(EpochRecord(epoch, objective, auc(*val_scores)))
        if report.best is report.epochs[-1]:
            best_params = params.copy()
        elif report.stopped_early:
            break
    return best_params, report


@dataclass
class SweepResult:
    """One report and trained model per grid weight, both keyed in ascending weight."""

    reports: dict[float, TrainReport]
    models: dict[float, MadeParams]

    @property
    def best_lambda(self) -> float:
        # max keeps the first of equal values, so ties keep the smaller weight
        return max(self.reports, key=lambda lam: self.reports[lam].best_val_auc)

    @property
    def best_params(self) -> MadeParams:
        return self.models[self.best_lambda]


def sweep_lambda(
    init: MadeParams, ds: Dataset, bundle: SplitBundle, cfg: TrainConfig
) -> SweepResult:
    """Train one model per grid value; the result picks the best validation AUC.

    Every run starts from a copy of the same initial parameters and uses the
    same shuffle seed.  Ties in validation AUC go to the smaller weight.
    """
    if not cfg.lambda_grid:
        raise ValueError("lambda grid must be non-empty")
    reports: dict[float, TrainReport] = {}
    models: dict[float, MadeParams] = {}
    for lam in sorted(set(cfg.lambda_grid)):
        models[lam], reports[lam] = train(init, ds, bundle, cfg, lam)
    return SweepResult(reports, models)


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
    knn = fit_knn(train_normals, k=knn_k)
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
