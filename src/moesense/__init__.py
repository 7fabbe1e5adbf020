"""Rate-aware mixture-of-experts target counting on simulated CSI streams."""

from .classifiers import (
    ForestModel,
    KnnModel,
    LabeledDataset,
    LinearSvmModel,
    predict_forest,
    predict_knn,
    predict_linear_svm,
    predict_posterior,
    train_forest,
    train_knn,
    train_linear_svm,
)
from .errors import (
    ConfigurationError,
    FormatError,
    InputError,
    MoeSenseError,
    RateError,
    TrainingError,
)
from .features import (
    DopplerConfig,
    FeatureKind,
    FeatureVector,
    extract_amp_stats,
    extract_doppler,
    pearson,
)
from .gating import (
    ClassifierKind,
    ExpertSpec,
    GatingDecision,
    GatingMode,
    TemplateLibrary,
    decide,
    default_registry,
    filter_by_rate,
    fuse,
    load_registry,
    score_experts,
    select_top_k,
)
from .pipeline import (
    DetectionReport,
    TrainedBundle,
    build_bundle,
    detect,
    load_bundle,
    save_bundle,
    split_train_val,
)
from .simulate import (
    CsiStream,
    ScenarioConfig,
    TargetPath,
    decimate,
    load_stream,
    save_stream,
    synthesize_stream,
)

__version__ = "0.1.0"
