"""Supervised anomaly detection with a masked autoregressive density estimator.

Instances are scored by negative log-density under an autoregressive neural
density model.  Training maximizes the log-likelihood of normal instances
plus a pairwise sigmoid ranking term that pushes labeled anomalies below
normals in likelihood.
"""

from .baselines import (
    GaussianBaseline,
    KnnBaseline,
    fit_gaussian,
    fit_knn,
    gaussian_score_batch,
    knn_score_batch,
)
from .data import (
    BINARY,
    CONTINUOUS,
    Dataset,
    NormStats,
    SplitBundle,
    dedup,
    load_csv,
    normalize_minmax,
    split,
)
from .metrics import ScoreReport, auc, report_from_scores, roc_points
from .model import (
    BERNOULLI,
    GAUSSIAN_MIXTURE,
    SIGMA_MIN,
    ConditionalParams,
    MadeParams,
    MaskSet,
    anomaly_score,
    anomaly_score_batch,
    build_masks,
    choose_head,
    forward_conditionals,
    init_params,
    load_model,
    log_density,
    log_density_batch,
    save_model,
    sigmoid,
)
from .objective import (
    LabeledBatch,
    ObjectiveConfig,
    normal_loglik,
    objective_and_gradient,
    objective_value,
    pairwise_regularizer,
)
from .training import (
    AdamState,
    SeedResult,
    SweepResult,
    TrainConfig,
    TrainReport,
    adam_step,
    run_seed,
    seeded_setup,
    sweep_lambda,
    train,
)

__version__ = "0.1.0"
