"""boxvote: detection-ensemble fusion with source contribution weighting."""

from .consensus import (
    ContributionReport,
    SourceDomain,
    SourceEnsemble,
    compute_weights,
    consensus_focus_scores,
    shapley_scores,
    weighted_fusion,
)
from .evaluation import (
    F1Curve,
    GroundTruth,
    GroundTruthBox,
    Matches,
    MetricsReport,
    average_precision,
    evaluate,
    f1_curve,
    match_all,
)
from .fusion import (
    ConfidenceGates,
    FusedBox,
    FusionParams,
    LabelSpaceFilter,
    apply_gates,
    nms,
    soft_nms,
    wbf,
)
from .geometry import Box, DetectionSet, iou, validate_box

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConfidenceGates",
    "ContributionReport",
    "DetectionSet",
    "F1Curve",
    "FusedBox",
    "FusionParams",
    "GroundTruth",
    "GroundTruthBox",
    "LabelSpaceFilter",
    "Matches",
    "MetricsReport",
    "SourceDomain",
    "SourceEnsemble",
    "apply_gates",
    "average_precision",
    "compute_weights",
    "consensus_focus_scores",
    "evaluate",
    "f1_curve",
    "iou",
    "match_all",
    "nms",
    "shapley_scores",
    "soft_nms",
    "validate_box",
    "wbf",
    "weighted_fusion",
]
