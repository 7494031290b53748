"""Randomized-subspace anomaly detection for simulated IP link-traffic
matrices: PCA, randomized-basis (rbad), and switched-ensemble (sspbad)
subspace models with Q-statistic thresholding, plus the synthetic traffic
generator and experiment harnesses."""

from .detectors import (
    DEFAULT_BETA,
    DEFAULT_POWER_EXPONENT,
    METHOD_PCA,
    METHOD_RBAD,
    METHOD_SSPBAD,
    METHODS,
    DegenerateSpectrumError,
    DetectionReport,
    ModelSummary,
    QThreshold,
    SubspaceModel,
    build_pca_model,
    build_rbad_model,
    build_sspbad_candidates,
    detect,
    detect_method,
    detect_ranks,
    project,
    q_threshold,
    sspbad_detect,
    sspbad_select,
)
from .ensembles import (
    EnsembleKind,
    SeedSpec,
    ensemble_matrix,
    gen_bernoulli,
    gen_gaussian,
)
from .evaluation import (
    ConfusionCounts,
    MetricRow,
    SweepCurve,
    VarianceTable,
    detection_rate,
    false_alarm_rate,
    score,
    sweep_rank,
    true_positive_rate,
    variance_compare,
)
from .storage import read_matrix_csv, write_matrix_csv
from .traffic import (
    Scenario,
    ScenarioConfig,
    assemble_scenario,
    default_anomaly_count,
)

__version__ = "0.1.0"
