"""Behavioral analytics for tracked animal video and field observations.

The pipeline runs: ingest (canonical CSV/JSON/XML readers) -> mini-scene
extraction -> timeline harmonization across observation methods ->
metrics (time budgets, transition matrices, agreement) -> social
interaction detection -> regression, with a deterministic herd
simulator providing ground truth for end-to-end verification.
"""

from .core import (
    DRONE_FOCAL,
    GIRAFFE,
    GREVYS_ZEBRA,
    GROUND_FOCAL,
    GROUND_SCAN,
    KNOWN_SPECIES,
    METHODS,
    ML_AUTO,
    PLAINS_ZEBRA,
    ZEBRA_UNSPECIFIED,
    AnalysisParams,
    BoundingBox,
    LabelStream,
    ObservationStream,
    ObsInterval,
    Rect,
    Segment,
    Track,
    ValidationIssue,
    ValidationReport,
    VideoMeta,
    validate_session,
)
from .ethogram import (
    OCCLUDED,
    OUT_OF_FOCUS,
    OUT_OF_FRAME,
    OUT_OF_SIGHT,
    TECHNICAL_CODES,
    BehaviorClass,
    Ethogram,
    default_ethogram,
    dump_ethogram,
    parse_ethogram,
    read_ethogram,
    write_ethogram,
)
from .ingest import (
    END_CODE,
    CvatImportWarning,
    ObservationIndex,
    ParseError,
    dump_ground_observations,
    dump_labels,
    dump_tracks,
    dump_video_meta,
    import_cvat_video_xml,
    parse_ground_observations,
    parse_labels,
    parse_tracks,
    parse_video_meta,
    read_ground_observations,
    read_labels,
    read_observation_index,
    read_tracks,
    read_video_meta,
    write_ground_observations,
    write_labels,
    write_tracks,
    write_video_meta,
)
from .metrics import (
    OTHER_CODE,
    AgreementStats,
    ClassMetrics,
    ClassScore,
    ConfusionMatrix,
    CostEstimate,
    TimeBudget,
    TransitionMatrix,
    annotation_cost,
    class_metrics,
    cohens_kappa,
    confusion,
    gantt_segments,
    out_of_sight_fraction,
    time_budget,
    transition_matrix,
)
from .miniscene import (
    MiniScene,
    Window,
    crop_window,
    dump_miniscene_manifest,
    extract_miniscenes,
)
from .social import (
    InteractionEvent,
    OverlapEntry,
    OverlapMatrix,
    detect_interactions,
    dump_interaction_events,
    dump_overlap_matrix,
    overlap_ratio,
    overlap_summary,
    tag_interactions,
)
from .stats import (
    DesignMatrix,
    FTestResult,
    RegressionResult,
    TTestResult,
    dummy_code,
    f_cdf,
    nested_f_test,
    ols_fit,
    paired_ttest,
    significance_stars,
    student_t_cdf,
    two_sided_p,
)
from .simulator import (
    OcclusionZone,
    SimConfig,
    SimWorld,
    demo_config,
    export_world,
    observe_focal,
    observe_scan,
    simulate,
)
from .svgplot import (
    confusion_heatmap_svg,
    gantt_svg,
    heatmap_svg,
    transition_heatmap_svg,
)
from .timeline import (
    PairedSeries,
    align_pair,
    dump_paired_series,
    label_stream_to_observation,
    map_labels,
    propagate_scan,
    visibility_filter,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
