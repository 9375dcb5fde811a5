"""Cohort-level treatment-policy discovery for randomized experiments.

Find near-Pareto-efficient cohort -> treatment policies under multi-metric
trade-offs, govern them with deterministic stability checks, and evaluate
any policy-selection strategy against a reproducible ground-truth oracle.
"""

from .errors import (CohortPolicyError, ConfigError, EstimationError,
                     InsufficientDataError, IntegrityError, RowIngestError,
                     SchemaError, UnmatchedInstructionError)
from .evaluation import (GroundTruth, InstructionSpec, SelectorRanking,
                         evaluate_selector, ground_truth_oracle, ndcg_at_k,
                         precision_at_k, recall_at_k, spearman_corr,
                         top1_metrics)
from .experiment import ExperimentDataset, MetricEstimate, compute_ate, segment_hte
from .frontier import (FrontierResult, ToleranceConfig, strict_pareto_oracle,
                       tolerance_dominates, tolerance_filter)
from .governance import (FeatureSnapshotPair, HookReport, StabilityThresholds,
                         StabilityVerdict, classify_stability, pre_search_filter,
                         robustness_check, run_backtest, shift_ratio,
                         stability_verdicts)
from .ingest import IngestSchema, parse_lift_text
from .pipeline import PipelineResult, RunConfig, govern_pipeline, write_run_artifacts
from .search import (CandidateSet, PolicyCandidate, collect_candidates,
                     enumerate_policies, evaluate_policies, global_policies,
                     sample_weights)
from .segmentation import (CutEnumerationConfig, CutSpec, Segment, binary_split,
                           enumerate_cuts, individual_split, quantile)
from .synth import (BenchmarkConfig, DriftSpec, PlantedEffect, ScenarioConfig,
                    build_benchmark, conflict_scenario, generate_daily_slices,
                    generate_experiment, generate_snapshots, stitch_days)

__version__ = "0.1.0"

__all__ = [
    "CohortPolicyError", "ConfigError", "EstimationError",
    "InsufficientDataError", "IntegrityError", "RowIngestError", "SchemaError",
    "UnmatchedInstructionError",
    "ExperimentDataset", "MetricEstimate", "compute_ate", "segment_hte",
    "IngestSchema", "parse_lift_text",
    "CutEnumerationConfig", "CutSpec", "Segment", "binary_split",
    "enumerate_cuts", "individual_split", "quantile",
    "CandidateSet", "PolicyCandidate", "collect_candidates",
    "enumerate_policies", "evaluate_policies", "global_policies", "sample_weights",
    "FrontierResult", "ToleranceConfig", "strict_pareto_oracle",
    "tolerance_dominates", "tolerance_filter",
    "FeatureSnapshotPair", "HookReport", "StabilityThresholds", "StabilityVerdict",
    "classify_stability", "pre_search_filter", "robustness_check",
    "run_backtest", "shift_ratio", "stability_verdicts",
    "GroundTruth", "InstructionSpec", "SelectorRanking", "evaluate_selector",
    "ground_truth_oracle", "ndcg_at_k", "precision_at_k", "recall_at_k",
    "spearman_corr", "top1_metrics",
    "BenchmarkConfig", "DriftSpec", "PlantedEffect", "ScenarioConfig",
    "build_benchmark", "conflict_scenario", "generate_daily_slices",
    "generate_experiment", "generate_snapshots", "stitch_days",
    "PipelineResult", "RunConfig", "govern_pipeline", "write_run_artifacts",
]
