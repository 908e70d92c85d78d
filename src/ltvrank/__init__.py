"""ltvrank: long-term-value labels, training, and evaluation for
sequential video feeds, with a synthetic log generator whose planted
structure makes every claim checkable."""

from .artifacts import DatasetFormatError
from .datamodel import (
    DEFAULT_CAP_Q,
    Dataset,
    ImpressionRecord,
    LabeledExample,
    Session,
    compute_slide_time,
    load_dataset,
    save_dataset,
    session_slide_times,
    validate_session,
)
from .pdq import (
    TABLE4_BOUNDARIES,
    PageGroupSpec,
    QuantileTable,
    bucketize,
    fit_page_groups,
    fit_quantile_table,
    fit_tables,
    quantile_label,
    quantile_labels,
)
from .attribution import (
    FLAG_NAMES,
    AttributionConfig,
    attributed_slide_time,
    combine_strength,
    pair_flags,
    session_attributed_slide_times,
    table1_diagnostics,
)
from .author_ltv import (
    DualStreamBatchPlan,
    aggregate_author_days,
    audit_no_leakage,
    author_ltv_label,
    plan_dual_stream,
)
from .predictor import (
    HEAD_SPECS,
    HashConfig,
    PredictorParams,
    StreamData,
    TrainConfig,
    encode_features,
    gradient_check,
    hybrid_loss,
    mse_loss,
    predict,
    train,
    tweedie_loss,
)
from .metrics import (
    MetricsReport,
    lt_n,
    mae,
    pcoc,
    pcoc_bucketed,
    xauc,
    xauc_grouped,
)
from .fusion import FusionWeights, fused_score, qa_authors, replay, replay_eval
from .synthgen import GenConfig, GroundTruth, empirical_zero_fraction, generate
from .config import ConfigError, PipelineConfig, load_config
from .pipeline import STAGES, StageInputError, run_stage, run_stages

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CAP_Q", "Dataset", "DatasetFormatError", "ImpressionRecord",
    "LabeledExample", "Session", "compute_slide_time", "load_dataset",
    "save_dataset", "session_slide_times", "validate_session",
    "TABLE4_BOUNDARIES", "PageGroupSpec", "QuantileTable", "bucketize",
    "fit_page_groups", "fit_quantile_table", "fit_tables", "quantile_label",
    "quantile_labels",
    "FLAG_NAMES", "AttributionConfig", "attributed_slide_time",
    "combine_strength", "pair_flags", "session_attributed_slide_times",
    "table1_diagnostics",
    "DualStreamBatchPlan", "aggregate_author_days", "audit_no_leakage",
    "author_ltv_label", "plan_dual_stream",
    "HEAD_SPECS", "HashConfig", "PredictorParams", "StreamData", "TrainConfig",
    "encode_features", "gradient_check", "hybrid_loss", "mse_loss", "predict",
    "train", "tweedie_loss",
    "MetricsReport", "lt_n", "mae", "pcoc", "pcoc_bucketed", "xauc",
    "xauc_grouped",
    "FusionWeights", "fused_score", "qa_authors", "replay", "replay_eval",
    "GenConfig", "GroundTruth", "empirical_zero_fraction", "generate",
    "ConfigError", "PipelineConfig", "load_config",
    "STAGES", "StageInputError", "run_stage", "run_stages",
]
