"""Seeded synthetic experiments with planted effects, conflicts, and drift.

Everything is derived from integer seeds (per-experiment seeds come from a
SeedSequence spawn), so identical configs give identical datasets, policy
tables, and ground truths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import from_mapping as read_config
from .errors import ConfigError
from .evaluation import KINDS, GroundTruth, InstructionSpec, ground_truth_oracle
from .experiment import ExperimentDataset
from .governance import QUARTILES, FeatureSnapshotPair
from .search import PolicyTable, build_policy_table, moments_cube
from .segmentation import (CutEnumerationConfig, enumerate_cuts, slot_codes,
                           sort_values, sorted_boundaries, sorted_quantile)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PlantedEffect:
    """Add `lift` to `metric` for users in a quantile range of `feature`
    assigned to `action`."""

    feature: str
    q_lo: float
    q_hi: float
    action: str
    metric: str
    lift: float

    def __post_init__(self):
        if not (0.0 <= self.q_lo < self.q_hi <= 1.0):
            raise ConfigError(
                f"planted quantile range must satisfy 0 <= lo < hi <= 1, "
                f"got ({self.q_lo}, {self.q_hi})")


@dataclass(frozen=True)
class DriftSpec:
    """Perturb `feature` so its measured quantile shift ratio hits the target."""

    feature: str
    target_shift_ratio: float

    def __post_init__(self):
        if not (0.0 <= self.target_shift_ratio <= 1.0):
            raise ConfigError(
                f"target shift ratio must be in [0, 1], got {self.target_shift_ratio}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic experiment: sizes, planted effects, drift, noise."""

    seed: int = 0
    n_users: int = 1000
    n_features: int = 2
    n_metrics: int = 2
    n_actions: int = 2
    planted_effects: tuple[PlantedEffect, ...] = ()
    drift_specs: tuple[DriftSpec, ...] = ()
    noise_sd: float = 1.0
    n_days: int = 0
    experiment_id: str = "synth"

    def __post_init__(self):
        for name, value in (("n_users", self.n_users), ("n_features", self.n_features),
                            ("n_metrics", self.n_metrics), ("n_actions", self.n_actions)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        _check_contradictions(self.planted_effects)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"f{i + 1}" for i in range(self.n_features))

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(f"m{i + 1}" for i in range(self.n_metrics))

    @property
    def action_names(self) -> tuple[str, ...]:
        return ("a0", *(f"a{i + 1}" for i in range(self.n_actions)))

    @classmethod
    def from_mapping(cls, data) -> "ScenarioConfig":
        return read_config(cls, data)


def _check_contradictions(effects: Sequence[PlantedEffect]) -> None:
    # Two effects on the same (feature, action, metric) with overlapping
    # quantile ranges would stack unpredictably; reject the configuration.
    for i, a in enumerate(effects):
        for b in effects[i + 1:]:
            if (a.feature, a.action, a.metric) != (b.feature, b.action, b.metric):
                continue
            if a.q_lo < b.q_hi and b.q_lo < a.q_hi:
                raise ConfigError(
                    f"planted effects overlap on ({a.feature}, {a.action}, "
                    f"{a.metric}): ({a.q_lo}, {a.q_hi}) vs ({b.q_lo}, {b.q_hi})")


def _effect_mask(values: np.ndarray, sorted_values: np.ndarray, q_lo: float,
                 q_hi: float) -> np.ndarray:
    # The users whose value lies in (Q(q_lo), Q(q_hi)], Q being `quantile`.
    lower = NEG_INF if q_lo == 0.0 else sorted_quantile(sorted_values, q_lo)
    upper = sorted_quantile(sorted_values, q_hi)
    return (values > lower) & (values <= upper)


def _user_ids(n: int) -> np.ndarray:
    # "u" and i zero-padded to max(5, len(str(n))) digits for i < n, as one
    # <U array written as its UCS-4 code points, one digit column at a time.
    width = max(5, len(str(n)))
    codes = np.empty((n, width + 1), dtype=np.uint32)
    codes[:, 0] = ord("u")
    rest = np.arange(n)
    for column in range(width, 0, -1):
        codes[:, column] = rest % 10
        rest //= 10
    codes[:, 1:] += ord("0")
    return codes.view(f"<U{width + 1}").reshape(n)


def _balanced_codes(n_labels: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # Codes 0..n_labels-1 tiled over n users, then shuffled.
    return (np.arange(n) % n_labels)[rng.permutation(n)]


def generate_experiment(cfg: ScenarioConfig,
                        lift_scale: float = 1.0
                        ) -> tuple[ExperimentDataset, dict]:
    """Build one experiment: uniform features, balanced random arms, outcomes
    = planted segment lifts + Gaussian noise.

    Returns the dataset and a planted-truth record (realized segment bounds
    and member counts per effect) for oracle checks. `lift_scale` scales all
    planted lifts, which backtest fixtures use to decay effects over days.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_users
    features, actions, metrics = cfg.feature_names, cfg.action_names, cfg.metric_names
    feature_matrix = rng.random((len(features), n))
    arm_codes = _balanced_codes(len(actions), n, rng)
    days = _balanced_codes(cfg.n_days, n, rng) if cfg.n_days > 0 else None

    outcome_matrix = np.zeros((len(metrics), n))
    sorted_rows: dict[int, np.ndarray] = {}
    truth_effects = []
    for effect in cfg.planted_effects:
        for kind, name, names in (("feature", effect.feature, features),
                                  ("action", effect.action, actions),
                                  ("metric", effect.metric, metrics)):
            if name not in names:
                raise ConfigError(f"planted effect references unknown {kind} "
                                  f"{name!r}")
        row = features.index(effect.feature)
        if row not in sorted_rows:
            sorted_rows[row] = sort_values(feature_matrix[row])
        in_range = _effect_mask(feature_matrix[row], sorted_rows[row],
                                effect.q_lo, effect.q_hi)
        mask = in_range & (arm_codes == actions.index(effect.action))
        outcome_matrix[metrics.index(effect.metric), mask] += effect.lift * lift_scale
        truth_effects.append({
            "feature": effect.feature, "q_lo": effect.q_lo, "q_hi": effect.q_hi,
            "action": effect.action, "metric": effect.metric,
            "lift": effect.lift * lift_scale,
            "n_in_range": int(in_range.sum()), "n_affected": int(mask.sum()),
        })
    if cfg.noise_sd > 0:
        for row in outcome_matrix:
            row += rng.normal(0.0, cfg.noise_sd, n)

    dataset = ExperimentDataset(
        experiment_id=cfg.experiment_id,
        user_ids=_user_ids(n),
        arm_codes=arm_codes,
        feature_matrix=feature_matrix,
        outcome_matrix=outcome_matrix,
        days=days,
        actions=actions,
        control_action="a0",
        metrics=metrics,
        features=features,
    )
    truth = {
        "experiment_id": cfg.experiment_id,
        "seed": cfg.seed,
        "noise_sd": cfg.noise_sd,
        "lift_scale": lift_scale,
        "effects": truth_effects,
    }
    return dataset, truth


def generate_daily_slices(cfg: ScenarioConfig, n_days: int,
                          lift_schedule: Sequence[float] | None = None
                          ) -> list[ExperimentDataset]:
    """Independent per-day experiments with seed-derived randomness.

    `lift_schedule` scales the planted lifts per day (e.g. a decay to zero);
    default is stationary (1.0 every day).
    """
    if n_days < 1:
        raise ConfigError(f"n_days must be >= 1, got {n_days}")
    if lift_schedule is not None and len(lift_schedule) != n_days:
        raise ConfigError("lift_schedule length must equal n_days")
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n_days)
    out = []
    for day in range(n_days):
        scale = 1.0 if lift_schedule is None else float(lift_schedule[day])
        day_cfg = replace(cfg, seed=int(seeds[day]), n_days=0,
                          experiment_id=f"{cfg.experiment_id}#day{day}")
        ds, _ = generate_experiment(day_cfg, lift_scale=scale)
        out.append(replace(ds, user_ids=np.char.add(f"d{day:03d}.", ds.user_ids),
                           days=np.full(ds.n_users, day)))
    return out


def stitch_days(slices: Sequence[ExperimentDataset],
                experiment_id: str | None = None) -> ExperimentDataset:
    """Concatenate per-day slices into one day-labelled dataset."""
    if not slices:
        raise ConfigError("no slices to stitch")
    first = slices[0]
    layout = (first.actions, first.metrics, first.features)
    if any((ds.actions, ds.metrics, ds.features) != layout for ds in slices):
        raise ConfigError("slices differ in actions, metrics or features")
    labelled = all(ds.days is not None for ds in slices)
    return replace(
        first, experiment_id=experiment_id or first.experiment_id.split("#")[0],
        user_ids=np.concatenate([ds.user_ids for ds in slices]),
        arm_codes=np.concatenate([ds.arm_codes for ds in slices]),
        feature_matrix=np.concatenate([ds.feature_matrix for ds in slices], axis=1),
        outcome_matrix=np.concatenate([ds.outcome_matrix for ds in slices], axis=1),
        days=np.concatenate([ds.days for ds in slices]) if labelled else None)


def generate_snapshots(ds: ExperimentDataset, drift: DriftSpec, seed: int
                       ) -> FeatureSnapshotPair:
    """Snapshot pair whose measured quantile shift ratio matches the target.

    Exactly round(target * n) users get their t1 value re-drawn inside a
    different t0 quartile bucket; everyone else keeps their t0 value.
    Buckets are fixed from the t0 quartiles that `shift_ratio` measures
    with, so the measured ratio is exactly moved/n. The pair's ids and t0
    are the dataset's own read-only columns; only t1 is a new array.

    The draws: `rng.choice(n, round(target * n), replace=False)` picks the
    movers; then one `rng.integers(0, k, size=movers)` picks each mover's
    target among the k reachable buckets other than its own, and one
    `rng.random(movers)` places each value in its target bucket.
    """
    rng = np.random.default_rng(seed)
    values = ds.feature_values(drift.feature)
    n = ds.n_users
    cuts = np.array(sorted_boundaries(ds.sorted_feature_values(drift.feature),
                                      QUARTILES)[:-1])
    buckets = slot_codes(values, cuts)
    span = float(values.max() - values.min()) or 1.0
    # Buckets emptied by tied cutpoints cannot receive a value; skip them.
    # Both end buckets are always open, so every mover has k >= 1 targets.
    open_buckets = np.ones(cuts.size + 1, dtype=bool)
    open_buckets[1:-1] = cuts[1:] > cuts[:-1]
    reachable = np.flatnonzero(open_buckets)

    t1 = values.copy()
    rows = rng.choice(n, size=round(drift.target_shift_ratio * n), replace=False)
    rows.sort()
    picks = rng.integers(0, reachable.size - 1, size=rows.size)
    uniforms = rng.random(rows.size)
    # A pick indexes the reachable buckets with the mover's own left out.
    picks += picks >= np.searchsorted(reachable, buckets[rows])
    target = reachable[picks]
    below, above = target == 0, target == cuts.size
    inner = ~(below | above)
    lower, upper = cuts[target[inner] - 1], cuts[target[inner]]
    inside = lower + (upper - lower) * uniforms[inner]
    t1[rows[inner]] = np.where(inside <= lower, upper, inside)
    t1[rows[below]] = cuts[target[below]] - span * uniforms[below]
    t1[rows[above]] = cuts[target[above] - 1] + span * (uniforms[above] + 1e-9)
    return FeatureSnapshotPair(feature=drift.feature, user_ids=ds.user_ids,
                               t0=values, t1=t1)


def drift_snapshots(cfg: ScenarioConfig, ds: ExperimentDataset
                    ) -> dict[str, FeatureSnapshotPair]:
    """The snapshot pair of each of `cfg`'s drift specs on `ds`, keyed by
    feature; spec i is seeded with `cfg.seed + 1000 + i`."""
    return {drift.feature: generate_snapshots(ds, drift, seed=cfg.seed + 1000 + i)
            for i, drift in enumerate(cfg.drift_specs)}


# -- canonical scenarios ---------------------------------------------------------


def conflict_scenario(seed: int = 7, n_users: int = 4000, noise_sd: float = 1.0,
                      n_days: int = 14) -> ScenarioConfig:
    """Two-metric conflict: one treatment helps active users' m1, the other
    helps inactive users' m2, and each harms the opposite metric for the
    other cohort. Globally uniform treatments are zero-sum; the cohort
    policy (a1 to active users, control elsewhere) lifts m1 and stays
    neutral on m2.
    """
    return ScenarioConfig(
        seed=seed, n_users=n_users, n_features=2, n_metrics=2, n_actions=2,
        noise_sd=noise_sd, n_days=n_days, experiment_id="conflict",
        planted_effects=(
            PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),
            PlantedEffect("f1", 0.0, 0.5, "a1", "m2", -2.0),
            PlantedEffect("f1", 0.0, 0.5, "a2", "m1", -2.0),
            PlantedEffect("f1", 0.0, 0.5, "a2", "m2", 2.0),
        ),
        drift_specs=(DriftSpec("f1", 0.04), DriftSpec("f2", 0.03)),
    )


def drifted_scenario(seed: int = 11, n_users: int = 3000) -> ScenarioConfig:
    """One stable feature with a real effect plus one unstable feature with a
    tempting decoy effect; governance should keep only the stable one."""
    return ScenarioConfig(
        seed=seed, n_users=n_users, n_features=2, n_metrics=2, n_actions=2,
        noise_sd=1.0, n_days=14, experiment_id="drifted",
        planted_effects=(
            PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),
            PlantedEffect("f2", 0.75, 1.0, "a2", "m1", 3.0),
        ),
        drift_specs=(DriftSpec("f1", 0.04), DriftSpec("f2", 0.50)),
    )


# -- benchmark -------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """Benchmark shape: experiments x the five instruction kinds."""

    seed: int = 0
    n_experiments: int = 20
    n_users: int = 800
    n_features: int = 3
    n_metrics: int = 2
    n_actions: int = 2
    noise_sd: float = 1.0
    n_bins: int = 4
    policy_budget: int = 60

    def __post_init__(self):
        if self.n_experiments < 1:
            raise ConfigError("n_experiments must be >= 1")
        if self.n_metrics < 2:
            raise ConfigError("the benchmark instruction kinds need >= 2 metrics")

    @classmethod
    def from_mapping(cls, data) -> "BenchmarkConfig":
        return read_config(cls, data)


@dataclass
class BenchmarkBundle:
    """Instructions, their oracle ground truths, and one columnar policy
    table per experiment (a Mapping {policy_id: {metric: MetricEstimate}})."""

    instructions: list[InstructionSpec]
    ground_truths: list[GroundTruth]
    policy_tables: dict[str, PolicyTable]


def _random_effects(rng: np.random.Generator, cfg: BenchmarkConfig
                    ) -> tuple[PlantedEffect, ...]:
    features = [f"f{i + 1}" for i in range(cfg.n_features)]
    actions = [f"a{i + 1}" for i in range(cfg.n_actions)]
    # A conflicting pair stretches the two-metric frontier so the Pareto set
    # stays comfortably larger than the 5 ground-truth slots.
    effects = [
        PlantedEffect("f1", 0.5, 1.0, actions[0], "m1", float(rng.uniform(1.5, 3.0))),
        PlantedEffect("f1", 0.5, 1.0, actions[0], "m2", -float(rng.uniform(1.0, 2.0))),
        PlantedEffect("f1", 0.0, 0.5, actions[-1], "m2", float(rng.uniform(1.5, 3.0))),
        PlantedEffect("f1", 0.0, 0.5, actions[-1], "m1", -float(rng.uniform(1.0, 2.0))),
    ]
    quartiles = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(int(rng.integers(2, 5))):
        feature = features[int(rng.integers(1, len(features)))] if len(features) > 1 else "f1"
        lo = int(rng.integers(0, 4))
        hi = int(rng.integers(lo + 1, 5))
        effect = PlantedEffect(
            feature=feature, q_lo=quartiles[lo], q_hi=quartiles[hi],
            action=actions[int(rng.integers(0, len(actions)))],
            metric=f"m{int(rng.integers(1, cfg.n_metrics + 1))}",
            lift=float(rng.uniform(-2.5, 2.5)),
        )
        try:
            _check_contradictions([*effects, effect])
        except ConfigError:
            continue
        effects.append(effect)
    return tuple(effects)


def build_benchmark(cfg: BenchmarkConfig) -> BenchmarkBundle:
    """Generate experiments, search their policy spaces, and emit all five
    instruction kinds with oracle ground truths (default 20 x 5 = 100)."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.n_experiments)
    instructions: list[InstructionSpec] = []
    ground_truths: list[GroundTruth] = []
    tables: dict[str, PolicyTable] = {}
    idx = 0
    for e in range(cfg.n_experiments):
        exp_seed = int(seeds[e])
        rng = np.random.default_rng([cfg.seed, e])
        scenario = ScenarioConfig(
            seed=exp_seed, n_users=cfg.n_users, n_features=cfg.n_features,
            n_metrics=cfg.n_metrics, n_actions=cfg.n_actions,
            noise_sd=cfg.noise_sd, experiment_id=f"exp{e:03d}",
            planted_effects=_random_effects(rng, cfg),
        )
        ds, _ = generate_experiment(scenario)
        cuts = enumerate_cuts(ds, CutEnumerationConfig(
            features=ds.features, n_bins=cfg.n_bins))
        table = build_policy_table(moments_cube(ds, cuts), cuts,
                                   budget=cfg.policy_budget, seed=exp_seed)
        tables[scenario.experiment_id] = table

        primary, secondary = (("m1", "m2") if e % 2 == 0 else ("m2", "m1"))
        for kind in KINDS:
            instruction = InstructionSpec(
                kind=kind,
                primary_metric=primary,
                secondary_metric=None if kind == "single_metric" else secondary,
                experiment_id=scenario.experiment_id,
            )
            gt = ground_truth_oracle(instruction, table)
            gt.instruction_idx = idx
            instructions.append(instruction)
            ground_truths.append(gt)
            idx += 1
    return BenchmarkBundle(instructions=instructions, ground_truths=ground_truths,
                           policy_tables=tables)


def write_benchmark(bundle: BenchmarkBundle, out_dir: str | Path) -> dict[str, str]:
    """Write instructions.jsonl, ground_truth.json, and per-experiment policy
    tables under `out_dir`. Returns the artifact name map."""
    from .evaluation import save_ground_truths, save_instructions
    from .search import save_policy_table

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_instructions(out / "instructions.jsonl", bundle.instructions)
    save_ground_truths(out / "ground_truth.json", bundle.ground_truths)
    tables_dir = out / "policy_tables"
    tables_dir.mkdir(exist_ok=True)
    for experiment_id in sorted(bundle.policy_tables):
        save_policy_table(tables_dir / f"{experiment_id}.csv",
                          bundle.policy_tables[experiment_id])
    return {"instructions": "instructions.jsonl",
            "ground_truth": "ground_truth.json",
            "policy_tables": "policy_tables"}
