"""Quantile-based cohort segmentation.

Cut families over a single feature: N-bin individual splits and two-sided
binary splits at a threshold index. Quantiles are nearest-rank (no
interpolation) so cohort assignment is bit-identical across platforms, and
segment intervals are half-open (lower, upper].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import from_mapping as read_config, reject_repeats
from .errors import ConfigError
from .experiment import ExperimentDataset

INDIVIDUAL = "individual"
BINARY = "binary"

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True, slots=True)
class CutSpec:
    """One segmentation family: `individual` (N bins) or `binary` (at index i0)."""

    feature: str
    kind: str
    n_bins: int
    threshold_index: int | None = None

    def __post_init__(self):
        if self.kind not in (INDIVIDUAL, BINARY):
            raise ValueError(f"unknown cut kind {self.kind!r}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.kind == BINARY:
            i0 = self.threshold_index
            if i0 is None or not (1 <= i0 <= self.n_bins - 1):
                raise ValueError(
                    f"binary threshold index must be in [1, {self.n_bins - 1}], got {i0}"
                )
        elif self.threshold_index is not None:
            raise ValueError("individual cuts take no threshold index")

    @property
    def slot_count(self) -> int:
        return self.n_bins if self.kind == INDIVIDUAL else 2

    @property
    def short_descriptor(self) -> str:
        if self.kind == INDIVIDUAL:
            return f"ind{self.n_bins}"
        return f"bin{self.threshold_index}of{self.n_bins}"

    def describe(self) -> str:
        return f"{self.feature}.{self.short_descriptor}"


@dataclass(frozen=True, slots=True)
class Segment:
    """A cohort: the `size` users whose feature value lies in (lower, upper]."""

    feature: str
    lower: float
    upper: float
    size: int

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def describe(self) -> str:
        return f"{self.feature} in ({_bound_str(self.lower)}, {_bound_str(self.upper)}]"


def _bound_str(value: float) -> str | float:
    if value == NEG_INF:
        return "-inf"
    if value == POS_INF:
        return "+inf"
    return value


def sort_values(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Ascending copy of a finite float column, or of each row of a matrix:
    bit for bit what `np.sort(values, kind="stable")` gives, from numpy's
    faster default sort.

    Equal floats have equal bits, except 0.0 beside -0.0. The stable sort
    keeps that run in input order, while the default sort may return its
    zeros with one sign; so a row's zero run, where present, is copied
    from its input in order. Callers pass finite values: datasets,
    snapshot pairs and `quantile` reject the others.
    """
    arr = np.asarray(values, dtype=float)
    out = np.sort(arr)
    for row, source in zip(np.atleast_2d(out), np.atleast_2d(arr)):
        lo, hi = row.searchsorted(0.0, "left"), row.searchsorted(0.0, "right")
        if lo < hi:
            row[lo:hi] = source[source == 0.0]
    return out


def sorted_quantile(sorted_values: np.ndarray, p: float) -> float:
    """`quantile` of values already in ascending order, for p in (0, 1]."""
    n = sorted_values.size
    return float(sorted_values[min(math.ceil(p * n), n) - 1])


def quantile(values: Sequence[float] | np.ndarray, p: float) -> float:
    """Nearest-rank quantile: the sorted value at 1-based index ceil(p*n).

    p=0 returns -inf (the open lower sentinel); p=1 returns the maximum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("quantile of empty values is undefined")
    if not np.isfinite(arr).all():
        raise ValueError("quantile requires finite values")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return NEG_INF
    return sorted_quantile(sort_values(arr), p)


def sorted_boundaries(sorted_values: np.ndarray, n_bins: int) -> list[float]:
    """The N nearest-rank quantiles Q(i/N), i = 1..N, of values already in
    ascending order; the last is the maximum."""
    n = sorted_values.size
    bounds = []
    for i in range(1, n_bins + 1):
        idx = -((-i * n) // n_bins)  # ceil(i*n/N) without float error
        bounds.append(float(sorted_values[idx - 1]))
    return bounds


def slot_codes(values: Sequence[float] | np.ndarray,
               cutpoints: Sequence[float]) -> np.ndarray:
    """Slot of each value against fixed interior cutpoints.

    Slots are (-inf, c1], (c1, c2], ..., (c_{B-1}, +inf): a value's slot is
    the number of cutpoints strictly below it, so out-of-range values fall
    into the end slots and tied cutpoints leave their slot empty. A NaN
    value lands in the last slot. The codes equal
    `np.searchsorted(cutpoints, values, side="left")` for ascending,
    non-NaN cutpoints, made with one comparison pass per cutpoint.
    """
    arr = np.asarray(values, dtype=float)
    codes = np.full(arr.shape, len(cutpoints), dtype=np.intp)
    for cut in cutpoints:
        codes -= arr <= cut
    return codes


def _slot_uppers(ds: ExperimentDataset, cut: CutSpec) -> list[float]:
    # Upper bound of every slot of `cut`; the binary top slot ends at the max.
    order = ds.sorted_feature_values(cut.feature)
    bounds = sorted_boundaries(order, cut.n_bins)
    if cut.kind == INDIVIDUAL:
        return bounds
    return [bounds[cut.threshold_index - 1], float(order[-1])]


def cut_slot_codes(ds: ExperimentDataset, cut: CutSpec | None) -> np.ndarray:
    """Every user's slot under `cut` (all 0 for the whole population), the
    cohorts `materialize` describes."""
    if cut is None:
        return np.zeros(ds.n_users, dtype=np.intp)
    return slot_codes(ds.feature_values(cut.feature), _slot_uppers(ds, cut)[:-1])


def _segments(ds: ExperimentDataset, cut: CutSpec) -> list[Segment]:
    uppers = _slot_uppers(ds, cut)
    sizes = np.bincount(cut_slot_codes(ds, cut), minlength=len(uppers))
    lowers = [NEG_INF, *uppers[:-1]]
    return [Segment(feature=cut.feature, lower=lower, upper=upper, size=int(size))
            for lower, upper, size in zip(lowers, uppers, sizes)]


def individual_split(ds: ExperimentDataset, feature: str, n_bins: int) -> list[Segment]:
    """Split users into N quantile bins of `feature`.

    Segment i covers (Q((i-1)/N), Q(i/N)]. Bins emptied by ties are retained
    (flagged via `is_empty`) so slot indices stay positionally stable.
    """
    return _segments(ds, CutSpec(feature=feature, kind=INDIVIDUAL, n_bins=n_bins))


def binary_split(ds: ExperimentDataset, feature: str, threshold_index: int,
                 n_bins: int) -> tuple[Segment, Segment]:
    """Two-way split at the i0/N quantile: (-inf, Q(i0/N)] vs (Q(i0/N), max]."""
    low, high = _segments(ds, CutSpec(feature=feature, kind=BINARY, n_bins=n_bins,
                                      threshold_index=threshold_index))
    return low, high


def materialize(ds: ExperimentDataset, cut: CutSpec | None) -> list[Segment]:
    """Segments of `cut` against `ds`; None means the whole population, one
    feature-less segment over an unbounded interval."""
    if cut is None:
        return [Segment(feature="", lower=NEG_INF, upper=POS_INF, size=ds.n_users)]
    return _segments(ds, cut)


@dataclass(frozen=True)
class CutEnumerationConfig:
    """Which cut families to enumerate: features, bin count, kinds, each
    feature and kind listed once."""

    features: tuple[str, ...]
    n_bins: int = 4
    kinds: tuple[str, ...] = (INDIVIDUAL, BINARY)

    def __post_init__(self):
        if self.n_bins < 1:
            raise ConfigError(f"n_bins must be >= 1, got {self.n_bins}")
        for kind in self.kinds:
            if kind not in (INDIVIDUAL, BINARY):
                raise ConfigError(f"unknown cut kind {kind!r}")
        reject_repeats("features", self.features)
        reject_repeats("kinds", self.kinds)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "CutEnumerationConfig":
        return read_config(cls, data)


def enumerate_cuts(ds: ExperimentDataset, config: CutEnumerationConfig | Mapping) -> list[CutSpec]:
    """All CutSpecs for the config, in deterministic order.

    Features in declared order, individual before binary, threshold index
    ascending.
    """
    if not isinstance(config, CutEnumerationConfig):
        config = CutEnumerationConfig.from_mapping(config)
    for feature in config.features:
        if feature not in ds.features:
            raise ValueError(f"unknown feature {feature!r}")
    cuts: list[CutSpec] = []
    for feature in config.features:
        if INDIVIDUAL in config.kinds:
            cuts.append(CutSpec(feature=feature, kind=INDIVIDUAL, n_bins=config.n_bins))
        if BINARY in config.kinds:
            for i0 in range(1, config.n_bins):
                cuts.append(CutSpec(feature=feature, kind=BINARY,
                                    n_bins=config.n_bins, threshold_index=i0))
    return cuts
