"""The paper's contribution: configuration generation, clustering,
localization, scheduling, prediction, and the end-to-end pipeline."""

from .clustering import ClusterState, clusters_from_catchment_history
from .configgen import (
    PHASE_COMMUNITIES,
    PHASE_LOCATIONS,
    PHASE_POISONING,
    PHASE_PREPENDING,
    ScheduleParams,
    community_configs,
    distant_poison_configs,
    expected_location_count,
    expected_prepend_count,
    generate_schedule,
    location_configs,
    poison_configs,
    prepend_configs,
    provider_neighbor_targets,
)
from .hijack import (
    HijackImpact,
    HijackScenario,
    hijack_coverage_report,
    hijack_impact,
    hijack_scenarios,
)
from .localization import (
    LocalizationQuality,
    LocalizationResult,
    RankedCluster,
    SpoofLocalizer,
    estimate_cluster_volumes,
    traffic_fraction_by_cluster_size,
)
from .engine import EngineStats, SimulationEngine, warm_start_parent
from .evidence import Evidence, EvidenceStep
from .pipeline import (
    SpoofTracker,
    StepStats,
    Testbed,
    TestbedSpec,
    TrackerReport,
    build_testbed,
)
from .refinement import LargeClusterSplitter, SplitReport, SplitSnapshot
from .staleness import StalenessExperiment, StalenessPoint, churned_policy
from .timeline import (
    PAPER_MINUTES_PER_CONFIG,
    CampaignTimeline,
    paper_campaign_duration,
)
from .prediction import (
    CatchmentPredictor,
    ComplianceStats,
    PredictionAccuracy,
    policy_compliance,
)
from .scheduler import (
    mean_cluster_size_curve,
    percentile_curve,
    random_schedule_curves,
)

__all__ = [
    "ClusterState",
    "clusters_from_catchment_history",
    "ScheduleParams",
    "generate_schedule",
    "location_configs",
    "prepend_configs",
    "poison_configs",
    "community_configs",
    "distant_poison_configs",
    "provider_neighbor_targets",
    "expected_location_count",
    "expected_prepend_count",
    "PHASE_LOCATIONS",
    "PHASE_PREPENDING",
    "PHASE_POISONING",
    "PHASE_COMMUNITIES",
    "LargeClusterSplitter",
    "SplitReport",
    "SplitSnapshot",
    "SimulationEngine",
    "EngineStats",
    "warm_start_parent",
    "Evidence",
    "EvidenceStep",
    "StalenessExperiment",
    "StalenessPoint",
    "churned_policy",
    "CampaignTimeline",
    "paper_campaign_duration",
    "PAPER_MINUTES_PER_CONFIG",
    "SpoofLocalizer",
    "LocalizationResult",
    "LocalizationQuality",
    "RankedCluster",
    "estimate_cluster_volumes",
    "traffic_fraction_by_cluster_size",
    "mean_cluster_size_curve",
    "random_schedule_curves",
    "percentile_curve",
    "CatchmentPredictor",
    "ComplianceStats",
    "PredictionAccuracy",
    "policy_compliance",
    "HijackScenario",
    "HijackImpact",
    "hijack_scenarios",
    "hijack_impact",
    "hijack_coverage_report",
    "Testbed",
    "TestbedSpec",
    "build_testbed",
    "SpoofTracker",
    "TrackerReport",
    "StepStats",
]
