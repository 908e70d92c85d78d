"""ltvrank: long-term-value labels, training, and evaluation for
sequential video feeds, with a synthetic log generator whose planted
structure makes every claim checkable.

Submodules load on first use of one of their names, so importing the
package (or ``ltvrank.cli``) does not import numpy; the CLI's ``--threads``
cap can then reach the BLAS thread pools before they start.
"""

import importlib

__version__ = "1.0.0"

#: submodule -> the public names the package re-exports from it
_EXPORTS = {
    "artifacts": ("DatasetFormatError",),
    "datamodel": (
        "DEFAULT_CAP_Q", "LABEL_COLUMNS", "Dataset", "ImpressionRecord", "Session",
        "compute_slide_time", "load_dataset", "save_dataset", "session_slide_times",
        "validate_session"),
    "pdq": (
        "PAGE_GROUPS", "QuantileTable", "bucketize", "fit_quantile_table", "fit_tables",
        "page_groups", "quantile_label", "quantile_labels"),
    "attribution": (
        "FLAG_NAMES", "AttributionConfig", "attributed_slide_time", "pair_flags",
        "session_attributed_slide_times", "table1_diagnostics"),
    "author_ltv": (
        "DualStreamBatchPlan", "aggregate_author_days", "audit_no_leakage",
        "author_ltv_label", "plan_dual_stream"),
    "predictor": (
        "HEAD_SPECS", "VOCAB", "PredictorParams", "StreamData", "TrainConfig",
        "encode_features", "gradient_check", "hybrid_loss", "mse_loss", "predict",
        "train", "tweedie_loss"),
    "metrics": ("MetricsReport", "lt_n", "mae", "pcoc", "xauc", "xauc_grouped"),
    "fusion": ("FusionWeights", "fused_score", "qa_authors", "replay", "replay_eval"),
    "synthgen": ("GenConfig", "GroundTruth", "empirical_zero_fraction", "generate"),
    "config": ("ConfigError", "PipelineConfig", "load_config"),
    "pipeline": ("STAGES", "StageInputError", "run_stage", "run_stages"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
