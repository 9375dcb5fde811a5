"""Deterministic lifecycle governance hooks.

Validation checks around the search stages: pre-search feature-stability
filtering on user-cohort shift ratios, post-search selection of the
candidate to validate, statistical robustness over temporal slices, and a
backtest that replays a policy's lift over daily slices. Every hook report
is built here; hooks only emit verdicts, they never mutate estimates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cube import MomentsCube, cut_effects, moments_cube
from .errors import (ConfigError, EstimationError, InsufficientDataError,
                     IntegrityError, RowIngestError)
from .experiment import ExperimentDataset, MetricEstimate
from .ingest import csv_blocks, csv_rows, read_jsonl, write_csv, write_jsonl
from .search import Estimates, Policies, PolicyCandidate, compose_estimates, policy_columns
from .segmentation import slot_codes, sort_values, sorted_boundaries

STAGE_PRE_SEARCH = "pre_search"
STAGE_POST_SEARCH = "post_search"
STAGE_PRE_RECOMMENDATION = "pre_recommendation"

PASS = "pass"
REJECT = "reject"

CODE_FEATURE_UNSTABLE = "FEATURE_UNSTABLE"
CODE_SIGN_FLIP = "SIGN_FLIP"
CODE_NOT_SIGNIFICANT = "NOT_SIGNIFICANT"
CODE_BACKTEST_DIVERGED = "BACKTEST_DIVERGED"
CODE_EMPTY_SLICE = "EMPTY_SLICE_SKIPPED"
CODE_NO_TIME_AXIS = "NO_TIME_AXIS"
CODE_NO_QUALIFYING_POLICY = "NO_QUALIFYING_POLICY"
CODE_INSUFFICIENT_DATA = "INSUFFICIENT_DATA"

STATUS_STABLE = "stable"
STATUS_UNSTABLE = "unstable"

QUANTILE_CUT = "quantile"
BINARY_CUT = "binary"
# The quantile cut basis: the t0 quartiles, i.e. four equal buckets.
QUARTILES = 4

SIGNIFICANCE_Z = 1.96
SIGN_CONSISTENCY_SHARE = 2.0 / 3.0
BACKTEST_ENVELOPE_Z = 2.0
BACKTEST_BURN_IN_DAYS = 7
MIN_ROBUSTNESS_SLICES = 3


@dataclass(frozen=True)
class StabilityThresholds:
    """Admission thresholds for the pre-search filter: a feature enters the
    search space if its binary-cut shift is <= `binary` or its quantile-cut
    shift is <= `quantile`. Each must lie in [0, 1]."""

    binary: float = 0.15
    quantile: float = 0.45

    def __post_init__(self):
        for key, value in asdict(self).items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"threshold {key!r} must be in [0, 1], got {value}")


@dataclass(eq=False)
class FeatureSnapshotPair:
    """One feature's values at two snapshot times, as aligned columns.

    `user_ids` holds the users present in both snapshots, sorted and
    unique; `t0` and `t1` hold their finite values, aligned with
    `user_ids`.
    """

    feature: str
    user_ids: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=str)
        self.t0 = np.asarray(self.t0, dtype=float)
        self.t1 = np.asarray(self.t1, dtype=float)
        shape = self.user_ids.shape
        if len(shape) != 1 or self.t0.shape != shape or self.t1.shape != shape:
            raise ValueError(
                f"feature {self.feature!r}: user_ids, t0 and t1 must be aligned "
                f"1-D columns, got shapes {shape}, {self.t0.shape}, {self.t1.shape}")
        if not (self.user_ids[1:] > self.user_ids[:-1]).all():
            raise ValueError(f"feature {self.feature!r}: user_ids must be "
                             f"sorted and unique")
        for label, values in (("t0", self.t0), ("t1", self.t1)):
            if not np.isfinite(values).all():
                raise ValueError(f"feature {self.feature!r}: {label} values must "
                                 f"be finite")

    @cached_property
    def t0_quartiles(self) -> list[float]:
        """The nearest-rank p25, p50, p75 and maximum of t0, which both cut
        bases of `shift_ratio` read; the n sorted values are not kept, as
        these four are all that either basis needs."""
        return sorted_boundaries(sort_values(self.t0), QUARTILES)


@dataclass
class StabilityVerdict:
    """Shift measurements for one feature plus the resulting status."""

    feature: str
    shift_quantile: float | None
    shift_binary: float | None
    status: str
    threshold_basis: StabilityThresholds

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class HookReport:
    """Outcome of one governance hook: stage, verdict, machine-readable
    reason codes, and the offending entity ids."""

    stage: str
    verdict: str
    reason_codes: list[str] = field(default_factory=list)
    entities: list[str] = field(default_factory=list)
    narrative: str = ""

    def __post_init__(self):
        if self.verdict == REJECT and (not self.reason_codes or not self.entities):
            raise ValueError("a rejection needs at least one reason code and entity")

    @property
    def rejected(self) -> bool:
        return self.verdict == REJECT

    def to_json(self) -> dict:
        return asdict(self)


# -- feature stability ---------------------------------------------------------


def shift_ratio(pair: FeatureSnapshotPair, cut: str = QUANTILE_CUT) -> float:
    """Fraction of users whose cohort bucket changed between snapshots.

    Buckets come from the t0 distribution (quantile cuts: its four quartile
    buckets; binary cuts: p25/p75 thresholds, i.e. three buckets) and t1
    values are re-bucketed against those fixed t0 cutpoints, so the ratio
    measures user migration rather than distribution reshaping.
    """
    n = pair.user_ids.size
    if n < 2:
        raise InsufficientDataError(
            f"feature {pair.feature!r}: need >= 2 users present in both "
            f"snapshots, got {n}")
    p25, p50, p75, _ = pair.t0_quartiles
    if cut == QUANTILE_CUT:
        cuts = [p25, p50, p75]
    elif cut == BINARY_CUT:
        cuts = [p25, p75]
    else:
        raise ValueError(f"unknown cut basis {cut!r}")
    moved = np.count_nonzero(slot_codes(pair.t0, cuts) != slot_codes(pair.t1, cuts))
    return moved / n


def classify_stability(feature: str, shift_quantile: float | None = None,
                       shift_binary: float | None = None,
                       thresholds: StabilityThresholds = StabilityThresholds()
                       ) -> StabilityVerdict:
    """Status from the available shift measures.

    Unstable iff every available measure exceeds its threshold; passing on
    either cut basis suffices for stability.
    """
    if shift_quantile is None and shift_binary is None:
        raise ValueError(f"feature {feature!r} has no shift measure")
    passes = [shift <= limit for shift, limit in
              ((shift_quantile, thresholds.quantile), (shift_binary, thresholds.binary))
              if shift is not None]
    status = STATUS_STABLE if any(passes) else STATUS_UNSTABLE
    return StabilityVerdict(feature=feature, shift_quantile=shift_quantile,
                            shift_binary=shift_binary, status=status,
                            threshold_basis=thresholds)


def stability_verdicts(features: Sequence[str],
                       snapshots: Mapping[str, FeatureSnapshotPair],
                       thresholds: StabilityThresholds = StabilityThresholds()
                       ) -> list[StabilityVerdict]:
    """One verdict per feature, from its quantile and binary shift ratios."""
    verdicts = []
    for feature in features:
        pair = snapshots.get(feature)
        if pair is None:
            raise ConfigError(f"no snapshot data for feature {feature!r}")
        verdicts.append(classify_stability(
            feature,
            shift_quantile=shift_ratio(pair, QUANTILE_CUT),
            shift_binary=shift_ratio(pair, BINARY_CUT),
            thresholds=thresholds))
    return verdicts


def pre_search_filter(verdicts: Sequence[StabilityVerdict]
                      ) -> tuple[HookReport, list[str]]:
    """Admit the features whose verdict is not unstable (see
    `classify_stability`).

    The hook rejects only when a non-empty verdict list admits nothing;
    pruning with survivors is a pass and the pipeline proceeds on the
    admitted subset.
    """
    admitted: list[str] = []
    rejected: list[str] = []
    for verdict in verdicts:
        (rejected if verdict.status == STATUS_UNSTABLE else admitted).append(
            verdict.feature)
    if verdicts and not admitted:
        report = HookReport(
            stage=STAGE_PRE_SEARCH, verdict=REJECT,
            reason_codes=[CODE_FEATURE_UNSTABLE],
            entities=rejected,
            narrative=f"all {len(rejected)} features exceed both shift thresholds")
    else:
        report = HookReport(
            stage=STAGE_PRE_SEARCH, verdict=PASS,
            reason_codes=[CODE_FEATURE_UNSTABLE] if rejected else [],
            entities=rejected,
            narrative=(f"{len(admitted)} features admitted, "
                       f"{len(rejected)} filtered out"))
    return report, admitted


# -- post-search selection ---------------------------------------------------------


def select_candidate(admitted: Policies, primary: str, metrics: Sequence[str],
                     minimize: Sequence[str]) -> tuple[str | None, HookReport | None]:
    """The id of the admitted frontier policy to validate, or else a
    NO_QUALIFYING_POLICY rejection naming the admitted ids in ascending
    order.

    A policy qualifies when its `primary` lift clears 1.96 standard errors
    in its better direction (lower if in `minimize`) while every other
    metric stays within 1.96 standard errors of zero. The best primary mean
    wins, ties going to the larger policy id.
    """
    ids, _, mean, std_err = policy_columns(
        admitted, (primary, *(m for m in metrics if m != primary)))
    # The primary lift, oriented so that its better direction is +.
    lift = (-1.0 if primary in minimize else 1.0) * mean[:, 0]
    qualifies = (~(lift < SIGNIFICANCE_Z * std_err[:, 0]) & ~(lift <= 0)
                 & ~(np.abs(mean[:, 1:]) > SIGNIFICANCE_Z * std_err[:, 1:]).any(axis=1))
    rows = np.flatnonzero(qualifies)
    if rows.size:
        # Rows are in id order: the last of the best lifts has the larger id.
        return ids[rows[np.lexsort((rows, lift[rows]))[-1]]], None
    return None, HookReport(
        stage=STAGE_POST_SEARCH, verdict=REJECT,
        reason_codes=[CODE_NO_QUALIFYING_POLICY],
        entities=ids or ["<frontier>"],
        narrative=(f"no frontier policy lifts {primary} at {SIGNIFICANCE_Z} "
                   f"sigma while staying neutral elsewhere"))


# -- policy robustness -----------------------------------------------------------


def _pooled(series: Sequence[MetricEstimate]) -> MetricEstimate:
    # Size-weighted stratified combination of slice estimates.
    weights = np.array([max(e.n_treated + e.n_control, 1) for e in series], dtype=float)
    weights = weights / weights.sum()
    mean = float(sum(w * e.mean for w, e in zip(weights, series)))
    var = float(sum((w * e.std_err) ** 2 for w, e in zip(weights, series)))
    return MetricEstimate(mean=mean, std_err=math.sqrt(var),
                          n_treated=sum(e.n_treated for e in series),
                          n_control=sum(e.n_control for e in series))


def robustness_check(policy: PolicyCandidate,
                     slices: Sequence[Mapping[str, MetricEstimate]],
                     target_metrics: Sequence[str]) -> HookReport:
    """Temporal-slice robustness for the metrics the policy is meant to move.

    Pass iff, per target metric, the slice-level lift keeps the pooled sign
    in at least 2/3 of slices and the pooled lift clears 1.96 standard
    errors. Rejections carry SIGN_FLIP / NOT_SIGNIFICANT codes. Fewer than
    3 slices raise InsufficientDataError.
    """
    if len(slices) < MIN_ROBUSTNESS_SLICES:
        raise InsufficientDataError(
            f"robustness check needs >= {MIN_ROBUSTNESS_SLICES} temporal slices, "
            f"got {len(slices)}")
    codes: list[str] = []
    notes: list[str] = []
    for metric in target_metrics:
        series = [s[metric] for s in slices]
        pooled = _pooled(series)
        ref = math.copysign(1.0, pooled.mean) if pooled.mean != 0 else 0.0
        consistent = sum(1 for e in series
                         if e.mean == 0.0 or math.copysign(1.0, e.mean) == ref)
        if consistent / len(series) < SIGN_CONSISTENCY_SHARE:
            codes.append(CODE_SIGN_FLIP)
            notes.append(f"{metric}: lift sign holds in only "
                         f"{consistent}/{len(series)} slices")
        if abs(pooled.mean) < SIGNIFICANCE_Z * pooled.std_err:
            codes.append(CODE_NOT_SIGNIFICANT)
            notes.append(f"{metric}: pooled lift {pooled.mean:.4g} within "
                         f"{SIGNIFICANCE_Z} x {pooled.std_err:.4g}")
    if codes:
        return HookReport(stage=STAGE_POST_SEARCH, verdict=REJECT,
                          reason_codes=sorted(set(codes)),
                          entities=[policy.policy_id],
                          narrative="; ".join(notes))
    return HookReport(stage=STAGE_POST_SEARCH, verdict=PASS,
                      entities=[policy.policy_id],
                      narrative=f"lift stable across {len(slices)} slices")


# -- backtest --------------------------------------------------------------------


@dataclass
class BacktestSeries:
    """Per-day and cumulative lift series for one policy. `time_axis` is
    False when the "days" are chunks of id-sorted users (data without day
    labels)."""

    days: list[str]
    daily: list[dict[str, MetricEstimate]]
    cumulative: list[dict[str, MetricEstimate]]
    time_axis: bool = True

    def save_csv(self, path: str | Path, metrics: Sequence[str]) -> None:
        """Write the series through `ingest.write_csv`: the day (headed
        `chunk` without a time axis), then each metric's daily and
        cumulative mean and std_err."""
        header, columns = ["day" if self.time_axis else "chunk"], [self.days]
        for metric in metrics:
            for name, series in (("daily", self.daily), ("cum", self.cumulative)):
                header += [f"{metric}_{name}_mean", f"{metric}_{name}_std_err"]
                columns += [[est[metric].mean for est in series],
                            [est[metric].std_err for est in series]]
        write_csv(path, header, columns)


def validation_spans(n_days: int, n_slices: int) -> tuple[np.ndarray, np.ndarray]:
    """The day ranges [lo, hi) a candidate is judged on over `n_days` days:
    `n_slices` contiguous robustness slices, then each day, then each prefix
    of days (the backtest's ranges)."""
    bounds = np.linspace(0, n_days, n_slices + 1).astype(int)
    k = np.arange(n_days)
    return (np.concatenate([bounds[:-1], k, np.zeros_like(k)]),
            np.concatenate([bounds[1:], k + 1, k + 1]))


def _span_estimates(cube: MomentsCube, policy: PolicyCandidate, n_slices: int
                    ) -> list[Estimates | EstimationError]:
    # The policy's estimates on the `validation_spans` of the cube's days.
    lo, hi = validation_spans(len(cube.days), n_slices)
    return compose_estimates(cube, cut_effects(cube, [policy.cut], lo, hi),
                             [policy] * len(lo), np.arange(len(lo)))


def run_backtest(policy: PolicyCandidate, window: ExperimentDataset,
                 target_metrics: Sequence[str], n_days: int | None = None
                 ) -> tuple[BacktestSeries, HookReport]:
    """Replay the policy's lift day by day and check temporal persistence.

    Days are `window.day_codes(n_days)`. Cohort boundaries are pinned from
    the whole window: every daily and cumulative estimate is read from one
    `moments_cube` of the window's days on the policy's grid, where a day
    reads its own cells and a cumulative prefix pools the cells of its
    days. See `backtest_verdict` for the pass rule and the 7-day minimum.
    """
    cube = moments_cube(window, [policy.cut], window.day_codes(n_days))
    return backtest_verdict(policy, cube, _span_estimates(cube, policy, 0),
                            target_metrics)


def backtest_verdict(policy: PolicyCandidate, cube: MomentsCube,
                     estimates: Sequence[Estimates | EstimationError],
                     target_metrics: Sequence[str]
                     ) -> tuple[BacktestSeries, HookReport]:
    """The backtest series and report from the policy's estimates on the
    backtest ranges of `validation_spans` over the days of `cube`.

    The reference is the policy's own (search-time) full-window estimate.
    Pass iff, from day 7 on, each cumulative estimate stays within 2
    standard errors of the reference (SE of the difference) and its sign
    never flips against the reference. Days that are empty or lack arm
    support are skipped with a warning code; fewer than 7 usable days raise
    InsufficientDataError. On users without day labels the "days" are
    chunks of id-sorted users: rows and notes name them chunks, and the
    report carries the warning code NO_TIME_AXIS.
    """
    for metric in target_metrics:
        if metric not in policy.estimates:
            raise ValueError(
                f"policy {policy.policy_id!r} has no estimate for {metric!r}")
    n_days = len(cube.days)
    users = cube.moments.counts[:, 0].sum(axis=(1, 2))

    days, daily_series, cumulative_series, codes, notes = [], [], [], [], []
    unit = "day" if cube.time_axis else "chunk"
    if not cube.time_axis:
        codes.append(CODE_NO_TIME_AXIS)
        notes.append("no day labels: the backtest replays chunks of id-sorted "
                     "users, not days")
    for k, label in enumerate(cube.days):
        name = f"{cube.experiment_id}#{unit}{label}"
        today, prefix = estimates[k], estimates[n_days + k]
        if not users[k]:
            codes.append(CODE_EMPTY_SLICE)
            notes.append(f"slice {name} empty, skipped")
            continue
        if isinstance(today, EstimationError) or isinstance(prefix, EstimationError):
            codes.append(CODE_EMPTY_SLICE)
            notes.append(f"slice {name} lacks arm support, skipped")
            continue
        days.append(name)
        daily_series.append(today)
        cumulative_series.append(prefix)

    series = BacktestSeries(days=days, daily=daily_series,
                            cumulative=cumulative_series, time_axis=cube.time_axis)
    if len(cumulative_series) < BACKTEST_BURN_IN_DAYS:
        raise InsufficientDataError(
            f"backtest needs >= {BACKTEST_BURN_IN_DAYS} usable "
            f"{'daily slices' if cube.time_axis else 'chunks'}, "
            f"got {len(cumulative_series)}")

    for metric in target_metrics:
        reference = policy.estimates[metric]
        for day_idx in range(BACKTEST_BURN_IN_DAYS - 1, len(cumulative_series)):
            cum = cumulative_series[day_idx][metric]
            band = BACKTEST_ENVELOPE_Z * math.sqrt(
                cum.std_err ** 2 + reference.std_err ** 2)
            if abs(cum.mean - reference.mean) > band:
                codes.append(CODE_BACKTEST_DIVERGED)
                notes.append(
                    f"{metric}: cumulative lift {cum.mean:.4g} on {unit} "
                    f"{day_idx + 1} leaves the {BACKTEST_ENVELOPE_Z}-SE band "
                    f"around {reference.mean:.4g}")
                break
        for day_idx in range(BACKTEST_BURN_IN_DAYS - 1, len(cumulative_series)):
            cum = cumulative_series[day_idx][metric]
            if cum.mean * reference.mean < 0:
                codes.append(CODE_SIGN_FLIP)
                notes.append(f"{metric}: cumulative lift flips sign on {unit} "
                             f"{day_idx + 1}")
                break

    hard_codes = [c for c in codes if c not in (CODE_EMPTY_SLICE, CODE_NO_TIME_AXIS)]
    if hard_codes:
        report = HookReport(stage=STAGE_PRE_RECOMMENDATION, verdict=REJECT,
                            reason_codes=sorted(set(codes)),
                            entities=[policy.policy_id],
                            narrative="; ".join(notes))
    else:
        report = HookReport(stage=STAGE_PRE_RECOMMENDATION, verdict=PASS,
                            reason_codes=sorted(set(codes)),
                            entities=[policy.policy_id],
                            narrative=(f"cumulative lift consistent over "
                                       f"{len(cumulative_series)} {unit}s"))
    return series, report


# -- the validation stage ----------------------------------------------------------


def _insufficient_data(policy: PolicyCandidate, stage: str,
                       narrative: str) -> HookReport:
    return HookReport(stage=stage, verdict=REJECT,
                      reason_codes=[CODE_INSUFFICIENT_DATA],
                      entities=[policy.policy_id], narrative=narrative)


def validate_candidate(cube: MomentsCube, candidate: PolicyCandidate,
                       target_metrics: Sequence[str], n_slices: int
                       ) -> tuple[BacktestSeries | None, list[HookReport]]:
    """The robustness check over `n_slices` temporal slices, then the
    backtest over the days of `cube`: one `cut_effects` read of the
    candidate's cut on the `validation_spans`, with no pass over the users.
    A candidate read from the same cube over every day (its table row)
    equals the last cumulative prefix bit for bit.

    A slice without arm support, or a backtest with too few usable days, is
    an INSUFFICIENT_DATA rejection. Returns the backtest series, None unless
    every hook passed, and the reports in trail order.
    """
    spans = _span_estimates(cube, candidate, n_slices)
    slices = spans[:n_slices]
    shortfall = next((s for s in slices if isinstance(s, EstimationError)), None)
    if shortfall is not None:
        return None, [_insufficient_data(candidate, STAGE_POST_SEARCH,
                                         f"robustness slice: {shortfall}")]
    robustness = robustness_check(candidate, slices, target_metrics)
    if robustness.rejected:
        return None, [robustness]
    try:
        series, backtest = backtest_verdict(candidate, cube, spans[n_slices:],
                                            target_metrics)
    except InsufficientDataError as exc:
        return None, [robustness, _insufficient_data(
            candidate, STAGE_PRE_RECOMMENDATION,
            f"policy {candidate.policy_id!r}: {exc}")]
    return (None if backtest.rejected else series), [robustness, backtest]


# -- snapshot and report persistence ----------------------------------------------


SNAPSHOT_COLUMNS = ("user_id", "feature_id", "value", "snapshot")
SNAPSHOT_LABELS = ("t0", "t1")


def _raise_first_bad_row(path: str | Path) -> None:
    # Names the first data row that is short, holds a non-numeric value or
    # holds a label other than t0/t1, checked in that order.
    for row, (_, _, raw, label), short in csv_rows(path, SNAPSHOT_COLUMNS):
        if short is not None:
            raise short
        try:
            float(raw)
        except ValueError:
            raise RowIngestError(row, f"non-numeric value {raw!r}") from None
        if label not in SNAPSHOT_LABELS:
            raise RowIngestError(row, f"snapshot label {label!r} is not one "
                                      f"of {SNAPSHOT_LABELS}")


def _joined(parts: list, dtype=float) -> np.ndarray:
    # The parts as one array; the list is emptied, so each row is held once.
    joined = np.concatenate([np.empty(0, dtype=dtype), *parts])
    parts.clear()
    return joined


def _by_user(feature: str, label: str, ids: np.ndarray, *columns: np.ndarray
             ) -> tuple[np.ndarray, ...]:
    # One (feature, label) group's users in id order, and each value column
    # aligned with them in the same order. Users already in strictly
    # increasing id order are not sorted.
    if (ids[1:] > ids[:-1]).all():
        return ids, *columns
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeated = np.flatnonzero(ids[1:] == ids[:-1])
    if repeated.size:
        raise IntegrityError(f"user {str(ids[repeated[0]])!r} has more than "
                             f"one {label} value for feature {feature!r}")
    return ids, *(column[order] for column in columns)


class _FeatureRows:
    # One feature's snapshot rows in file order, gathered block by block: a
    # t0 id part and value part per block, and a t1 value part per block with
    # its ids, or with only its rows (a slice) where those ids equal the t0
    # ids at the same running row offset, as in every file `save_snapshots`
    # writes. So the t1 ids of such a file are never held.

    def __init__(self):
        self.t0_ids: list[np.ndarray] = []
        self.t0_values: list[np.ndarray] = []
        self.t0_ends: list[int] = []  # the running row count after each t0 part
        self.t1_ids: list[np.ndarray | slice] = []
        self.t1_values: list[np.ndarray] = []
        self.t1_rows = 0

    def add(self, t1: int, ids: np.ndarray, values: np.ndarray) -> None:
        if t1:
            rows = slice(self.t1_rows, self.t1_rows + len(ids))
            self.t1_ids.append(rows if self._repeats_t0(rows, ids) else ids)
            self.t1_rows = rows.stop
            self.t1_values.append(values)
        else:
            self.t0_ends.append(len(ids) + (self.t0_ends[-1] if self.t0_ends else 0))
            self.t0_ids.append(ids)
            self.t0_values.append(values)

    def _repeats_t0(self, rows: slice, ids: np.ndarray) -> bool:
        # Whether `ids` equal the t0 ids at `rows`, read across the t0 parts
        # that hold them.
        ends, start, stop = self.t0_ends, rows.start, rows.stop
        if not ends or stop > ends[-1]:
            return False
        part = bisect_right(ends, start)
        while start < stop:
            first = ends[part] - len(self.t0_ids[part])
            piece = self.t0_ids[part][start - first:stop - first]
            if not np.array_equal(piece, ids[:len(piece)]):
                return False
            ids, start, part = ids[len(piece):], start + len(piece), part + 1
        return True

    def pair(self, feature: str) -> FeatureSnapshotPair:
        # The feature's pair; its parts are emptied once joined, so each row
        # is held once.
        ids = _joined(self.t0_ids, str)
        if self.t1_rows == len(ids) and all(
                isinstance(part, slice) for part in self.t1_ids):
            # t1 holds t0's users in t0's file order.
            ids, t0, t1 = _by_user(feature, "t0", ids, _joined(self.t0_values),
                                   _joined(self.t1_values))
        else:
            t1_ids = _joined([ids[part] if isinstance(part, slice) else part
                              for part in self.t1_ids], str)
            self.t1_ids.clear()
            ids, t0 = _by_user(feature, "t0", ids, _joined(self.t0_values))
            t1_ids, t1 = _by_user(feature, "t1", t1_ids, _joined(self.t1_values))
            if not np.array_equal(ids, t1_ids):
                ids, i0, i1 = np.intersect1d(ids, t1_ids, assume_unique=True,
                                             return_indices=True)
                t0, t1 = t0[i0], t1[i1]
        return FeatureSnapshotPair(feature=feature, user_ids=ids, t0=t0, t1=t1)


def _snapshot_blocks(path: str | Path
                     ) -> tuple[dict[str, _FeatureRows], tuple[int, float] | None]:
    # Each feature's rows, in order of first appearance, gathered one part
    # per (feature, label) group of each block (see `_FeatureRows`). Also
    # the first non-finite value's 1-based data row and value, or None.
    # Raises ValueError on a short row, an unparsable value or a bad label.
    features: dict[str, _FeatureRows] = {}
    non_finite, rows = None, 0
    for text, numbers in csv_blocks(path, ("user_id", "feature_id", "snapshot"),
                                    ("value",)):
        user, feature, label = text
        values = numbers[:, 0]
        is_t1 = label == "t1"
        if not (is_t1 | (label == "t0")).all():
            raise ValueError("snapshot label is not one of t0, t1")
        if non_finite is None and not np.isfinite(values).all():
            row = int(np.flatnonzero(~np.isfinite(values))[0])
            non_finite = (rows + row + 1, float(values[row]))
        rows += len(values)
        users = user.astype(str, copy=False)
        if (feature == feature[0]).all():
            # One feature, as an exported file's blocks hold: no unique.
            names = appearance = feature[:1].astype(str).tolist()
            group = is_t1.astype(np.intp)
        else:
            unique, first, group = np.unique(feature.astype(str), return_index=True,
                                             return_inverse=True)
            names, appearance = unique.tolist(), unique[np.argsort(first)].tolist()
            group = 2 * group + is_t1
        for name in appearance:
            if name not in features:
                features[name] = _FeatureRows()
        # Rows of one (feature, label) group, each group in file order; a
        # feature's t0 part comes before its t1 part.
        order = np.argsort(group, kind="stable")
        for part in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
            code, t1 = divmod(int(group[part[0]]), 2)
            features[names[code]].add(t1, users[part], values[part])
    return features, non_finite


def load_snapshots(path: str | Path) -> dict[str, FeatureSnapshotPair]:
    """Read snapshot CSV rows (user_id, feature_id, value, snapshot in {t0,t1})
    into per-feature snapshot pairs, in order of first appearance.

    The file streams through `ingest.csv_blocks`, so it follows that
    reader's dialect, and values parse as Python's float() parses them.
    Each block's rows are split by (feature, label) as they arrive; a block
    of one feature, as an exported file's blocks are, is split by label
    alone. A t1 part whose users equal its feature's t0 users at the same
    running row offset keeps only its range of rows, so the t1 ids of
    every file that `save_snapshots` writes are never held. Each feature
    is then paired on its own. t0's users are sorted only when they are
    not already in strictly increasing id order. A feature whose every t1
    part repeats t0's users, all of them, is paired on t0's ids, its t1
    values taking t0's sort order; any other feature sorts its t1 users the
    same way and matches them against t0's, directly when both hold the
    same users. So a sorted, aligned file is never re-sorted, and a
    shuffled or gapped one gives the same pairs. Each pair keeps the users
    present in both snapshots of its feature; users present in only one
    are dropped. A header without one of the four columns raises
    SchemaError. A short row, a non-numeric value or a label other than
    t0/t1 raises RowIngestError with the first such 1-based data row; then
    a non-finite value does the same; a repeated (user, feature, snapshot)
    raises IntegrityError.
    """
    try:
        features, non_finite = _snapshot_blocks(path)
    except ValueError as exc:
        _raise_first_bad_row(path)
        raise IntegrityError(f"{path}: a block failed to parse ({exc}) but "
                             f"no row did") from exc
    if non_finite is not None:
        row, value = non_finite
        raise RowIngestError(row, f"non-finite value {value}")
    return {feature: features.pop(feature).pair(feature) for feature in list(features)}


def save_snapshots(path: str | Path,
                   pairs: Mapping[str, FeatureSnapshotPair]) -> None:
    """Write snapshot rows through `ingest.write_csv`, feature by feature in
    name order: each user's t0 value, then each user's t1 value."""
    columns: list[list] = [[], [], [], []]
    for feature in sorted(pairs):
        pair = pairs[feature]
        for label, values in zip(SNAPSHOT_LABELS, (pair.t0, pair.t1)):
            columns[0] += pair.user_ids.tolist()
            columns[1] += [feature] * len(values)
            columns[2] += values.tolist()
            columns[3] += [label] * len(values)
    write_csv(path, SNAPSHOT_COLUMNS, columns)


def save_reports(path: str | Path, reports: Sequence[HookReport]) -> None:
    """Write the hook-report trail as JSONL, one report per line."""
    write_jsonl(path, (report.to_json() for report in reports))


def load_reports(path: str | Path) -> list[HookReport]:
    """The hook reports of a JSONL trail, read by `ingest.read_jsonl`."""
    return read_jsonl(path, HookReport)
