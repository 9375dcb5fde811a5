"""End-to-end governed run: stability filter -> search -> frontier ->
robustness -> backtest, with a bounded refinement loop.

Every stage is seeded and deterministic, so identical run configs produce
byte-identical artifacts regardless of input row order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import from_mapping as read_config
from .errors import ConfigError, EstimationError, InsufficientDataError
from .experiment import ExperimentDataset
from .frontier import (FrontierResult, ToleranceConfig, save_frontier,
                       save_frontier_coords, tolerance_filter)
from .governance import (CODE_INSUFFICIENT_DATA, CODE_NO_QUALIFYING_POLICY,
                         DEFAULT_THRESHOLDS, REJECT, STAGE_POST_SEARCH,
                         STAGE_PRE_RECOMMENDATION, SIGNIFICANCE_Z,
                         MIN_ROBUSTNESS_SLICES, FeatureSnapshotPair,
                         HookReport, backtest_spans,
                         backtest_verdict, load_snapshots, pre_search_filter,
                         robustness_check, save_reports, stability_verdicts)
from .ingest import IngestSchema, ingest
from .search import (FORMAT_VERSION, PolicyCandidate, PolicyTable,
                     collect_candidates, evaluate_policies, evaluate_policy_days,
                     enumerate_policies, sample_weights, save_policy_table)
from .segmentation import CutEnumerationConfig, enumerate_cuts
from .synth import ScenarioConfig, drift_snapshots, generate_experiment


@dataclass
class RunConfig:
    """Knobs for one governed pipeline run.

    Defaults: 1000 weight samples, top-5 per weight, tau = 1.0, shift
    thresholds 15% (binary) / 45% (quantile), refinement budget 3.
    `backtest_days` splits only a dataset without day labels into that many
    days; a dataset with day labels is sliced and backtested over all of its
    days.
    """

    seed: int = 0
    weight_samples: int = 1000
    top_k: int = 5
    tau: float = 1.0
    thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    max_refinements: int = 3
    primary_metric: str | None = None
    minimize_metrics: tuple[str, ...] = ()
    n_bins: int = 4
    cut_kinds: tuple[str, ...] = ("individual", "binary")
    policy_budget: int = 128
    features: tuple[str, ...] | None = None
    backtest_days: int = 14
    robustness_slices: int = 4
    scenario: ScenarioConfig | None = None
    dataset_path: str | None = None
    schema_path: str | None = None
    snapshots_path: str | None = None

    def __post_init__(self):
        if self.weight_samples < 1:
            raise ConfigError("weight_samples must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        if self.max_refinements < 0:
            raise ConfigError("max_refinements must be >= 0")
        if self.robustness_slices < MIN_ROBUSTNESS_SLICES:
            raise ConfigError(f"robustness_slices must be >= {MIN_ROBUSTNESS_SLICES}, "
                              f"got {self.robustness_slices}")
        for key in ("binary", "quantile"):
            value = self.thresholds.get(key)
            if value is None or not (0.0 <= value <= 1.0):
                raise ConfigError(f"threshold {key!r} must be in [0, 1], got {value}")
        if self.scenario is None and not self.dataset_path:
            raise ConfigError("run config needs either a scenario or a dataset path")
        if self.dataset_path and not self.schema_path:
            raise ConfigError("a dataset path needs a schema path")
        self.features = tuple(self.features) if self.features else None

    @classmethod
    def from_mapping(cls, data: Mapping) -> "RunConfig":
        return read_config(cls, data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed run config: {exc}") from exc
        return cls.from_mapping(data)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class PipelineResult:
    """Outcome of a governed run: recommendation or terminal rejection."""

    status: str  # "recommended" | "rejected"
    recommendation: PolicyCandidate | None
    reports: list[HookReport]
    iterations: int
    policies: list[PolicyCandidate]
    frontier: FrontierResult | None
    dataset: ExperimentDataset | None = None
    backtest_series: object | None = None

    @property
    def recommended(self) -> bool:
        return self.status == "recommended"


def _load_inputs(config: RunConfig
                 ) -> tuple[ExperimentDataset, dict[str, FeatureSnapshotPair]]:
    if config.scenario is not None:
        ds, _ = generate_experiment(config.scenario)
        return ds, drift_snapshots(config.scenario, ds)
    ds = ingest(config.dataset_path, IngestSchema.from_json(config.schema_path))
    if not config.snapshots_path:
        raise ConfigError("file-based runs need a snapshots path for the "
                          "pre-search stability filter")
    return ds, load_snapshots(config.snapshots_path)


def _qualifies(policy: PolicyCandidate, primary: str, sign: float,
               metrics: Sequence[str]) -> bool:
    # `sign` orients the primary metric so that its better direction is +.
    est = policy.estimates[primary]
    mean = sign * est.mean
    if mean < SIGNIFICANCE_Z * est.std_err or mean <= 0:
        return False
    for metric in metrics:
        if metric == primary:
            continue
        other = policy.estimates[metric]
        if abs(other.mean) > SIGNIFICANCE_Z * other.std_err:
            return False
    return True


def _insufficient_data(policy: PolicyCandidate, stage: str,
                       narrative: str) -> HookReport:
    return HookReport(stage=stage, verdict=REJECT,
                      reason_codes=[CODE_INSUFFICIENT_DATA],
                      entities=[policy.policy_id], narrative=narrative)


def govern_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full governed search and return the hook-report trail plus
    either a recommended policy or a terminal rejection.

    A policy-level rejection removes the offending policy and re-runs Top-K,
    the tolerance filter and the hooks over the remaining evaluated
    policies, up to `max_refinements` extra iterations; a rejection nothing
    can be removed for (empty search space, no qualifying policy) is
    terminal. A candidate whose robustness slices or backtest days lack the
    data to judge it (an unsupported slice, too few usable days) is
    rejected with INSUFFICIENT_DATA. A candidate's robustness slices and
    backtest come from one table of its (day, slot, arm) moments.
    Everything before Top-K is independent of the removed policies and runs
    once; its pre-search report opens every iteration's trail.
    """
    ds, snapshots = _load_inputs(config)
    primary = config.primary_metric or ds.metrics[0]
    if primary not in ds.metrics:
        raise ConfigError(f"primary metric {primary!r} not in dataset metrics")
    eligible = config.features or ds.features
    tolerance = ToleranceConfig(tau=config.tau, minimize=config.minimize_metrics)
    sign = tolerance.sign(primary)

    verdicts = stability_verdicts(eligible, snapshots, config.thresholds)
    pre_report, admitted_features = pre_search_filter(verdicts, config.thresholds)
    if not admitted_features:
        return PipelineResult(status="rejected", recommendation=None,
                              reports=[pre_report], iterations=1, policies=[],
                              frontier=None, dataset=ds)
    cuts = enumerate_cuts(ds, CutEnumerationConfig(
        features=tuple(admitted_features), n_bins=config.n_bins,
        kinds=config.cut_kinds))
    evaluated = evaluate_policies(
        ds, enumerate_policies(ds, cuts, budget=config.policy_budget,
                               seed=config.seed),
        skip_unsupported=True)
    by_id = {p.policy_id: p for p in evaluated}
    weights = sample_weights(len(ds.metrics), config.weight_samples, config.seed)
    # Each candidate is validated on these day ranges: the robustness
    # slices, then the backtest's days and cumulative prefixes.
    day, day_labels = ds.day_codes(config.backtest_days)
    slice_bounds = np.linspace(0, len(day_labels),
                               config.robustness_slices + 1).astype(int)
    backtest_lo, backtest_hi = backtest_spans(len(day_labels))
    span_lo = np.concatenate([slice_bounds[:-1], backtest_lo])
    span_hi = np.concatenate([slice_bounds[1:], backtest_hi])

    reports: list[HookReport] = []
    excluded_policies: set[str] = set()
    for iteration in range(config.max_refinements + 1):
        iterations = iteration + 1
        reports.append(pre_report)
        policies = [p for p in evaluated if p.policy_id not in excluded_policies]
        candidate_set = collect_candidates(policies, weights, config.top_k,
                                           metrics=ds.metrics,
                                           minimize=config.minimize_metrics)
        candidates = [by_id[pid] for pid in candidate_set.policy_ids]
        frontier = tolerance_filter(candidates, tolerance, metrics=ds.metrics)

        qualifying = [by_id[pid] for pid in frontier.admitted
                      if _qualifies(by_id[pid], primary, sign, ds.metrics)]
        if not qualifying:
            reports.append(HookReport(
                stage=STAGE_POST_SEARCH, verdict=REJECT,
                reason_codes=[CODE_NO_QUALIFYING_POLICY],
                entities=list(frontier.admitted) or ["<frontier>"],
                narrative=(f"no frontier policy lifts {primary} at "
                           f"{SIGNIFICANCE_Z} sigma while staying neutral "
                           f"elsewhere")))
            return PipelineResult(status="rejected", recommendation=None,
                                  reports=reports, iterations=iterations,
                                  policies=policies, frontier=frontier,
                                  dataset=ds)
        candidate = max(qualifying,
                        key=lambda p: (sign * p.estimates[primary].mean, p.policy_id))

        spans = evaluate_policy_days(ds, candidate, day, len(day_labels),
                                     span_lo, span_hi)
        slices = spans[:config.robustness_slices]
        shortfall = next((s for s in slices if isinstance(s, EstimationError)),
                         None)
        if shortfall is not None:
            reports.append(_insufficient_data(candidate, STAGE_POST_SEARCH,
                                              f"robustness slice: {shortfall}"))
            excluded_policies.add(candidate.policy_id)
            continue
        robustness_report = robustness_check(
            candidate, [s.estimates for s in slices], target_metrics=[primary])
        reports.append(robustness_report)
        if robustness_report.rejected:
            excluded_policies.add(candidate.policy_id)
            continue

        try:
            series, backtest_report = backtest_verdict(
                candidate, ds, day, day_labels,
                spans[config.robustness_slices:], target_metrics=[primary])
        except InsufficientDataError as exc:
            reports.append(_insufficient_data(
                candidate, STAGE_PRE_RECOMMENDATION,
                f"policy {candidate.policy_id!r}: {exc}"))
            excluded_policies.add(candidate.policy_id)
            continue
        reports.append(backtest_report)
        if backtest_report.rejected:
            excluded_policies.add(candidate.policy_id)
            continue

        return PipelineResult(status="recommended", recommendation=candidate,
                              reports=reports, iterations=iterations,
                              policies=policies, frontier=frontier,
                              dataset=ds, backtest_series=series)

    return PipelineResult(status="rejected", recommendation=None,
                          reports=reports, iterations=iterations,
                          policies=policies, frontier=frontier, dataset=ds)


def write_run_artifacts(result: PipelineResult, config: RunConfig,
                        out_dir: str | Path) -> dict[str, str]:
    """Persist the run directory: policy table, frontier JSON and coordinate
    file, hook-report trail, recommendation JSON, and a manifest.

    Contents carry no timestamps or machine details, so identical configs
    write byte-identical directories.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = result.dataset
    metrics = list(ds.metrics) if ds is not None else []

    artifacts: dict[str, str] = {}
    if result.policies:
        save_policy_table(out / "policy_table.csv",
                          PolicyTable.from_candidates(result.policies, metrics))
        artifacts["policy_table"] = "policy_table.csv"
    if result.frontier is not None:
        save_frontier(out / "frontier.json", result.frontier)
        artifacts["frontier"] = "frontier.json"
        if len(metrics) >= 2 and result.policies:
            save_frontier_coords(out / "frontier_coords.csv", result.policies,
                                 result.frontier, (metrics[0], metrics[1]))
            artifacts["frontier_coords"] = "frontier_coords.csv"
    save_reports(out / "hook_reports.jsonl", result.reports)
    artifacts["hook_reports"] = "hook_reports.jsonl"

    recommendation: dict = {
        "format_version": FORMAT_VERSION,
        "status": result.status,
        "iterations": result.iterations,
        "policy": None,
    }
    if result.recommendation is not None:
        policy = result.recommendation
        recommendation["policy"] = {
            "policy_id": policy.policy_id,
            "feature": policy.cut.feature if policy.cut else None,
            "cut": policy.cut.short_descriptor if policy.cut else "global",
            "assignment": list(policy.assignment),
            "estimates": {m: policy.estimates[m].to_json() for m in metrics},
        }
    with open(out / "recommendation.json", "w", encoding="utf-8") as fh:
        json.dump(recommendation, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts["recommendation"] = "recommendation.json"

    if result.backtest_series is not None:
        result.backtest_series.save_csv(out / "backtest.csv", metrics)
        artifacts["backtest"] = "backtest.csv"

    manifest = {
        "format_version": FORMAT_VERSION,
        "status": result.status,
        "iterations": result.iterations,
        "config": config.to_json(),
        "artifacts": dict(sorted(artifacts.items())),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts["manifest"] = "manifest.json"
    return artifacts
