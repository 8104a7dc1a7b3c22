"""Cost-sensitive classifier growing one hidden node per decision level."""

from .data import Dataset, FoldPlan, Split, load_csv, make_folds, normalize, split_811
from .discretize import (
    Clustering,
    EquivalenceClass,
    build_equivalence_classes,
    kmeans_cluster,
    kmeanspp_seed,
)
from .errors import ConfigError, DataError, SamplingError
from .metrics import ConfusionMatrix, RocCurve, accuracy, roc_auc, weighted_f1
from .network import (
    AdamState,
    LayeredNetwork,
    NodeParams,
    TrainHyper,
    adam_step,
    classify_split,
    focal_loss,
    init_node,
    predict_batch,
    regularized_cost,
    train_node,
)
from .numerics import ACTIVATION_KINDS, RngStream, activate, activate_derivative, derive_stream
from .threeway import (
    CostMatrix,
    Regions,
    ThresholdSchedule,
    accrue_process_costs,
    build_schedule,
    decision_risk_three_way,
    decision_risk_two_way,
    gamma_from,
    partition_three_way,
    partition_two_way,
    sample_cost_matrix,
    thresholds_from,
)
from .trainer import RunLedger, TrainConfig, run
from .baselines import (
    BASELINE_KINDS,
    empirical_nodes,
    grid_search,
    run_stwd_nk,
    run_twd_fixed,
    train_fixed_topology,
)

__version__ = "0.1.0"
