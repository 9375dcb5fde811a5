"""End-to-end governed run: stability filter -> search -> frontier ->
robustness -> backtest, with a bounded refinement loop.

The search reads one `PolicyTable` (see `search`); refinement takes the
rows it keeps. Every stage is seeded and deterministic, so identical run
configs produce byte-identical artifacts regardless of input row order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import from_mapping as read_config, reject_repeats
from .cube import moments_cube
from .errors import ConfigError
from .experiment import ExperimentDataset
from .frontier import (FrontierResult, ToleranceConfig, save_frontier,
                       save_frontier_coords, tolerance_filter)
from .governance import (MIN_ROBUSTNESS_SLICES, FeatureSnapshotPair, HookReport,
                         StabilityThresholds, load_snapshots, pre_search_filter,
                         save_reports, select_candidate, stability_verdicts,
                         validate_candidate)
from .ingest import IngestSchema, ingest, read_json, write_json
from .search import (PolicyCandidate, PolicyTable, build_policy_table,
                     rank_policies, sample_weights, save_policy_table)
from .segmentation import CutEnumerationConfig, enumerate_cuts
from .synth import ScenarioConfig, drift_snapshots, generate_experiment


@dataclass
class RunConfig:
    """Knobs for one governed pipeline run.

    Defaults: 1000 weight samples, top-5 per weight, tau = 1.0, shift
    thresholds 15% (binary) / 45% (quantile), refinement budget 3.
    `backtest_days` splits only a dataset without day labels into that many
    days; a dataset with day labels is sliced and backtested over all of its
    days. The input is exactly one of `scenario` and `dataset_path`; a
    dataset path needs a schema path and a snapshots path, and a scenario
    takes neither. `features` and `cut_kinds` list each entry once.
    """

    seed: int = 0
    weight_samples: int = 1000
    top_k: int = 5
    tau: float = 1.0
    thresholds: StabilityThresholds = StabilityThresholds()
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
        if self.backtest_days < 1:
            raise ConfigError("backtest_days must be >= 1")
        if self.robustness_slices < MIN_ROBUSTNESS_SLICES:
            raise ConfigError(f"robustness_slices must be >= {MIN_ROBUSTNESS_SLICES}, "
                              f"got {self.robustness_slices}")
        if (self.scenario is None) == (not self.dataset_path):
            raise ConfigError("run config needs exactly one of a scenario and "
                              "a dataset path")
        for name in ("schema_path", "snapshots_path"):
            if self.scenario is not None and getattr(self, name):
                raise ConfigError(f"{name} is read only with a dataset path, "
                                  f"not with a scenario")
        if self.dataset_path and not self.schema_path:
            raise ConfigError("a dataset path needs a schema path")
        if self.dataset_path and not self.snapshots_path:
            raise ConfigError("a dataset path needs a snapshots path for the "
                              "pre-search stability filter")
        reject_repeats("features", self.features or ())
        reject_repeats("cut_kinds", self.cut_kinds)
        self.features = tuple(self.features) if self.features else None

    @classmethod
    def from_mapping(cls, data: Mapping) -> "RunConfig":
        return read_config(cls, data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        """The run config of a JSON file, read by `ingest.read_json`."""
        return read_json(path, cls)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class PipelineResult:
    """Outcome of a governed run: recommendation or terminal rejection.
    `policies` is the policy table that the last iteration searched (None
    if no feature was admitted), and the recommendation is one of its rows.
    """

    status: str  # "recommended" | "rejected"
    recommendation: PolicyCandidate | None
    reports: list[HookReport]
    iterations: int
    policies: PolicyTable | None
    frontier: FrontierResult | None
    metrics: tuple[str, ...] = ()
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
    return ds, load_snapshots(config.snapshots_path)


def govern_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full governed search and return the hook-report trail plus
    either a recommended policy or a terminal rejection.

    Every verdict comes from `governance`: the pre-search filter, the
    choice of candidate (`select_candidate`) and its robustness slices and
    backtest (`validate_candidate`). A policy-level rejection removes the
    offending policy and runs Top-K, the tolerance filter and the hooks
    again over the remaining rows of the policy table, up to
    `max_refinements` extra iterations; a rejection nothing can be removed
    for (empty search space, no qualifying policy) is terminal. Everything
    before Top-K is independent of the removed policies and runs once; its
    pre-search report opens every iteration's trail. The users are read
    once, into a `moments_cube` of the admitted features' grids over the
    days of `ds.day_codes(backtest_days)`, and then released: the table
    reads every day of the cube, and each pick's validation its day
    ranges. The table is scored
    once (`rank_policies`, `top_k + max_refinements` deep), and each
    iteration takes its Top-K from that ranking without the removed
    policies, which equals Top-K on the remaining rows. The chosen policy
    is its table row (`PolicyTable.candidate`), estimates and user counts
    included.
    """
    ds, snapshots = _load_inputs(config)
    primary = config.primary_metric or ds.metrics[0]
    if primary not in ds.metrics:
        raise ConfigError(f"primary metric {primary!r} not in dataset metrics")
    eligible = config.features or ds.features
    tolerance = ToleranceConfig(tau=config.tau, minimize=config.minimize_metrics)

    verdicts = stability_verdicts(eligible, snapshots, config.thresholds)
    del snapshots  # nothing after the stability filter reads the pairs
    pre_report, admitted_features = pre_search_filter(verdicts)
    if not admitted_features:
        return PipelineResult(status="rejected", recommendation=None,
                              reports=[pre_report], iterations=1, policies=None,
                              frontier=None, metrics=ds.metrics)
    cuts = enumerate_cuts(ds, CutEnumerationConfig(
        features=tuple(admitted_features), n_bins=config.n_bins,
        kinds=config.cut_kinds))
    cube = moments_cube(ds, cuts, ds.day_codes(config.backtest_days))
    del ds  # nothing after the cube reads the users
    metrics = cube.metrics
    table = build_policy_table(cube, cuts, config.policy_budget, config.seed)
    weights = sample_weights(len(metrics), config.weight_samples, config.seed)
    # Deep enough for the Top-K of every iteration.
    ranking = rank_policies(table, weights, config.top_k + config.max_refinements,
                            metrics=metrics, minimize=config.minimize_metrics)

    reports: list[HookReport] = []
    excluded: list[str] = []
    series = None
    for iteration in range(config.max_refinements + 1):
        if iteration:
            # The previous iteration's candidate failed validation.
            excluded.append(picked)
            table = table.take(np.arange(len(table)) != table.row(picked))
        reports.append(pre_report)
        frontier = tolerance_filter(table.take(ranking.top_k_ids(config.top_k, excluded)),
                                    tolerance, metrics=metrics)
        picked, rejection = select_candidate(table.take(frontier.admitted),
                                             primary, metrics,
                                             config.minimize_metrics)
        if picked is None:
            reports.append(rejection)
            break
        candidate = table.candidate(picked, cuts)
        series, verdicts = validate_candidate(cube, candidate, [primary],
                                              config.robustness_slices)
        reports += verdicts
        if series is not None:
            break
    recommended = series is not None
    return PipelineResult(status="recommended" if recommended else "rejected",
                          recommendation=candidate if recommended else None,
                          reports=reports, iterations=iteration + 1,
                          policies=table, frontier=frontier, metrics=metrics,
                          backtest_series=series)


def write_run_artifacts(result: PipelineResult, config: RunConfig,
                        out_dir: str | Path) -> dict[str, str]:
    """Persist the run directory: policy table, frontier JSON and coordinate
    file, hook-report trail, recommendation JSON, and a manifest.

    Contents carry no timestamps or machine details, so identical configs
    write byte-identical directories.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = list(result.metrics)

    artifacts: dict[str, str] = {}
    policies = result.policies
    if policies:
        save_policy_table(out / "policy_table.csv", policies)
        artifacts["policy_table"] = "policy_table.csv"
    if result.frontier is not None:
        save_frontier(out / "frontier.json", result.frontier)
        artifacts["frontier"] = "frontier.json"
        if len(metrics) >= 2 and policies:
            save_frontier_coords(out / "frontier_coords.csv", policies,
                                 result.frontier, (metrics[0], metrics[1]))
            artifacts["frontier_coords"] = "frontier_coords.csv"
    save_reports(out / "hook_reports.jsonl", result.reports)
    artifacts["hook_reports"] = "hook_reports.jsonl"

    recommendation: dict = {
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
    write_json(out / "recommendation.json", recommendation)
    artifacts["recommendation"] = "recommendation.json"

    if result.backtest_series is not None:
        result.backtest_series.save_csv(out / "backtest.csv", metrics)
        artifacts["backtest"] = "backtest.csv"

    manifest = {
        "status": result.status,
        "iterations": result.iterations,
        "config": config.to_json(),
        "artifacts": dict(sorted(artifacts.items())),
    }
    write_json(out / "manifest.json", manifest)
    artifacts["manifest"] = "manifest.json"
    return artifacts
