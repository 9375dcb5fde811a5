"""Randomized-experiment data model and treatment-effect estimators.

The dataset is immutable after construction: its per-user columns are
held sorted by user_id so every estimate is independent of input row
order, and all estimators are pure functions of the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import EstimationError, IntegrityError

if TYPE_CHECKING:  # pragma: no cover
    from .segmentation import Segment

ABSOLUTE = "absolute"
LIFT_UNITS = (ABSOLUTE,)


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    """A lift estimate: mean difference vs control plus its standard error.

    `mean` is in the dataset's declared lift units (absolute metric
    units); no unit conversion ever happens downstream.
    Counts are 0 where none are known, as for a lift parsed from reported
    text (`ingest.parse_lift_text`) or a policy table read from a file.
    """

    mean: float
    std_err: float
    n_treated: int = 0
    n_control: int = 0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"estimate mean must be finite, got {self.mean}")
        if not (math.isfinite(self.std_err) and self.std_err >= 0.0):
            raise ValueError(f"std_err must be finite and >= 0, got {self.std_err}")

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "std_err": self.std_err,
            "n_treated": self.n_treated,
            "n_control": self.n_control,
        }


@dataclass(eq=False, kw_only=True)
class ExperimentDataset:
    """One randomized experiment, stored as per-user columns. Treat as
    immutable after construction.

    `user_ids` holds one string per user, `arm_codes` each user's arm as an
    index into `actions` (which lists every arm, the control included),
    `feature_matrix` and `outcome_matrix` one row per name in `features`
    and `metrics`, and `days` each user's integer day label (or None). The
    columns are held in user-id order, so estimates do not depend on input
    row order. Columns whose ids arrive strictly increasing are adopted as
    read-only views, not copied: the caller must not change those arrays
    afterwards. Other columns are sorted by id (stably) into new arrays.
    The constructor rejects duplicate ids, unknown arm codes, action names
    holding `-`, non-finite values and columns of the wrong length.
    """

    experiment_id: str
    user_ids: np.ndarray
    arm_codes: np.ndarray
    feature_matrix: np.ndarray
    outcome_matrix: np.ndarray
    actions: tuple[str, ...]
    control_action: str
    metrics: tuple[str, ...]
    features: tuple[str, ...]
    days: np.ndarray | None = None
    lift_units: str = ABSOLUTE

    def __post_init__(self):
        self.actions = tuple(self.actions)
        self.metrics = tuple(self.metrics)
        self.features = tuple(self.features)
        if self.control_action not in self.actions:
            raise IntegrityError(
                f"control action {self.control_action!r} not in actions {self.actions}"
            )
        if self.lift_units not in LIFT_UNITS:
            raise ValueError(f"lift_units {self.lift_units!r} is not supported: "
                             f"only {ABSOLUTE!r} differences are computed")
        for action in self.actions:
            if "-" in action:
                raise IntegrityError(f"action {action!r} contains '-', which "
                                     f"joins actions in policy ids")
        ids = np.asarray(self.user_ids, dtype=str)
        n = len(ids)
        columns = {
            "arm_codes": (np.asarray(self.arm_codes, dtype=np.intp), (n,)),
            "feature_matrix": (np.asarray(self.feature_matrix, dtype=float),
                               (len(self.features), n)),
            "outcome_matrix": (np.asarray(self.outcome_matrix, dtype=float),
                               (len(self.metrics), n)),
        }
        if self.days is not None:
            columns["days"] = (np.asarray(self.days, dtype=np.int64), (n,))
        for name, (column, shape) in columns.items():
            if column.shape != shape:
                raise IntegrityError(
                    f"column {name} has shape {column.shape}, expected {shape}")
        # Strictly increasing ids are in id order and repeat none.
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            columns = {name: (column[..., order], shape)
                       for name, (column, shape) in columns.items()}
            repeated = np.flatnonzero(ids[1:] == ids[:-1])
            if repeated.size:
                raise IntegrityError(
                    f"user {str(ids[repeated[0]])!r} appears more than once")
        held = {name: column for name, (column, _) in columns.items()}
        for name, column in {"user_ids": ids, **held}.items():
            column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)
        unknown = np.flatnonzero((self.arm_codes < 0)
                                 | (self.arm_codes >= len(self.actions)))
        if unknown.size:
            raise IntegrityError(
                f"user {str(self.user_ids[unknown[0]])!r} assigned to unknown arm "
                f"code {self.arm_codes[unknown[0]]}")
        for kind, names, matrix in (("feature", self.features, self.feature_matrix),
                                    ("outcome", self.metrics, self.outcome_matrix)):
            bad = np.argwhere(~np.isfinite(matrix))
            if bad.size:
                row, user = bad[np.argmin(bad[:, 1])]
                raise IntegrityError(
                    f"user {str(self.user_ids[user])!r} has non-finite {kind} "
                    f"{names[row]!r}")

    # -- derived views -----------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def treatments(self) -> tuple[str, ...]:
        return tuple(a for a in self.actions if a != self.control_action)

    @cached_property
    def _sorted_feature_matrix(self) -> np.ndarray:
        from .segmentation import sort_values  # segmentation imports this module
        return sort_values(self.feature_matrix)

    def _feature_row(self, feature: str) -> int:
        if feature not in self.features:
            raise ValueError(f"unknown feature {feature!r}")
        return self.features.index(feature)

    def feature_values(self, feature: str) -> np.ndarray:
        return self.feature_matrix[self._feature_row(feature)]

    def sorted_feature_values(self, feature: str) -> np.ndarray:
        """`feature_values(feature)` in ascending order."""
        return self._sorted_feature_matrix[self._feature_row(feature)]

    def outcome_values(self, metric: str) -> np.ndarray:
        if metric not in self.metrics:
            raise ValueError(f"unknown metric {metric!r}")
        return self.outcome_matrix[self.metrics.index(metric)]

    def arm_mask(self, action: str) -> np.ndarray:
        if action not in self.actions:
            raise ValueError(f"unknown action {action!r}")
        return self.arm_codes == self.actions.index(action)

    def subset(self, mask: np.ndarray, experiment_id: str | None = None) -> "ExperimentDataset":
        return replace(
            self, experiment_id=experiment_id or self.experiment_id,
            user_ids=self.user_ids[mask], arm_codes=self.arm_codes[mask],
            feature_matrix=self.feature_matrix[:, mask],
            outcome_matrix=self.outcome_matrix[:, mask],
            days=None if self.days is None else self.days[mask])

    def day_codes(self, n_days: int | None = None) -> tuple[np.ndarray, list[int]]:
        """Each user's day as an index into the returned day labels.

        Uses the users' day labels when present (sorted distinct labels);
        otherwise partitions the id-sorted users into `n_days` contiguous
        chunks labelled 0..n_days-1 (a valid proxy for time slices in a
        randomized experiment, where users are exchangeable).
        """
        if self.days is not None and self.n_users:
            return _label_codes(self.days)
        if n_days is None or n_days < 1:
            raise ValueError("dataset has no day labels; pass n_days >= 1")
        bounds = np.linspace(0, self.n_users, n_days + 1).astype(int)
        return np.repeat(np.arange(n_days), np.diff(bounds)), list(range(n_days))

    def daily_slices(self, n_days: int | None = None) -> list["ExperimentDataset"]:
        """Split into per-day datasets, one per label of `day_codes`, named
        `<id>#day<label>`; without day labels the slices are chunks of
        id-sorted users, named `<id>#chunk<k>`."""
        codes, days = self.day_codes(n_days)
        unit = "day" if self.days is not None and self.n_users else "chunk"
        return [self.subset(codes == k, f"{self.experiment_id}#{unit}{d}")
                for k, d in enumerate(days)]


# Day labels spanning at most this many values per user are coded densely.
_DENSE_SPAN = 2


def _label_codes(days: np.ndarray) -> tuple[np.ndarray, list[int]]:
    # `np.unique(days, return_inverse=True)` as (codes, labels). Labels in
    # a dense span are numbered from one bincount over it, without a sort.
    lo, hi = int(days.min()), int(days.max())
    if hi - lo >= _DENSE_SPAN * days.size:
        labels, codes = np.unique(days, return_inverse=True)
        return codes, labels.tolist()
    offsets = days - lo
    present = np.bincount(offsets, minlength=hi - lo + 1) > 0
    rank = np.cumsum(present) - 1
    return rank[offsets], (np.flatnonzero(present) + lo).tolist()


# -- estimators --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SlotEffects:
    """Every arm's effect vs control in every slot of one cut.

    Arms are indexed as `ds.actions`. `counts[slot, arm]` is the number of
    selected users in each (slot, arm) cell. `mean[slot, arm, metric]` is the
    treated-minus-control mean difference and `std_err[slot, arm, metric]`
    its unpooled standard error. `supported[slot, arm]` is False where a
    treatment arm lacks treated or control users in the slot; there, and in
    the control arm's column, mean and std_err are 0. A table per range of
    days carries a leading range axis on every array.
    """

    counts: np.ndarray
    mean: np.ndarray
    std_err: np.ndarray
    supported: np.ndarray


@dataclass(frozen=True, slots=True)
class CellMoments:
    """Sample moments of the selected users in every (cell, arm) group.

    Leading axes index cells: a slot, or a (day, slot) pair. Arms are
    indexed as `ds.actions`. `counts[..., arm]` is the number of users,
    `sums[..., arm, metric]` their outcome sum and `m2[..., arm, metric]`
    the sum of squared deviations from the group mean.
    """

    counts: np.ndarray
    sums: np.ndarray
    m2: np.ndarray


def cell_moments(ds: ExperimentDataset, codes: np.ndarray,
                 shape: tuple[int, ...]) -> CellMoments:
    """Count, outcome sum and centred sum of squares of every (cell, arm)
    group of the users of `ds`.

    `codes` holds every user's cell as a flat index into `shape`, as an
    intp array that this call consumes: it becomes each user's (cell, arm)
    code in place. One bincount pass per metric fills the sums, and one
    more the squared deviations from each group's mean.
    """
    n_arms = len(ds.actions)
    cell = codes
    cell *= n_arms
    cell += ds.arm_codes
    count = np.bincount(cell, minlength=math.prod(shape) * n_arms)
    sums, m2s = [], []
    for y in ds.outcome_matrix:
        total = np.bincount(cell, weights=y, minlength=count.size)
        # Squared deviations from the group mean, in one temporary.
        dev = (total / np.maximum(count, 1))[cell]
        np.subtract(y, dev, out=dev)
        sums.append(total)
        m2s.append(np.bincount(cell, weights=np.square(dev, out=dev),
                               minlength=count.size))
    shape = (*shape, n_arms, len(sums))
    return CellMoments(counts=count.reshape(shape[:-1]),
                       sums=np.stack(sums, axis=-1).reshape(shape),
                       m2=np.stack(m2s, axis=-1).reshape(shape))


def pool_moments(moments: CellMoments, lo: np.ndarray, hi: np.ndarray,
                 axis: int = 0) -> CellMoments:
    """The moments of the cells in each range [lo[i], hi[i]) of cell axis
    `axis`, pooled per remaining cell: a range axis takes that axis's
    place. An empty range pools no cells.

    Groups merge as in Chan, Golub & LeVeque (1979): n = sum n_d,
    sum = sum sum_d and M2 = sum M2_d + sum n_d (mean_d - mean)^2. A
    one-cell range returns that cell's moments exactly.
    """
    index = np.arange(moments.counts.shape[axis])
    inside = (index >= np.asarray(lo)[:, None]) & (index < np.asarray(hi)[:, None])
    # Each part gains the range axis before its cell axis, which the sums
    # run over in cell order.
    inside = inside.reshape((1,) * axis + inside.shape
                            + (1,) * (moments.counts.ndim - axis - 1))
    counts, sums, m2 = (np.expand_dims(part, axis)
                        for part in (moments.counts, moments.sums, moments.m2))
    pooled_counts = np.where(inside, counts, 0).sum(axis=axis + 1)
    pooled_sums = np.where(inside[..., None], sums, 0.0).sum(axis=axis + 1)
    mean = pooled_sums / np.maximum(pooled_counts, 1)[..., None]
    cell_mean = sums / np.maximum(counts, 1)[..., None]
    spread = counts[..., None] * np.square(cell_mean - np.expand_dims(mean, axis + 1))
    m2 = np.where(inside[..., None], m2 + spread, 0.0).sum(axis=axis + 1)
    return CellMoments(counts=pooled_counts, sums=pooled_sums, m2=m2)


def effects_from_moments(moments: CellMoments, control: int) -> SlotEffects:
    """Every arm's effect vs the `control` arm in every cell of `moments`,
    leading axes kept.

    An effect is the treated-minus-control mean difference with the
    unpooled standard error sqrt(s_t^2/n_t + s_c^2/n_c), sample variances
    having an n-1 denominator (0 for a single user).
    """
    count = moments.counts
    mean = moments.sums / np.maximum(count, 1)[..., None]
    var = np.where(count[..., None] > 1,
                   moments.m2 / np.maximum(count - 1, 1)[..., None], 0.0)
    is_control = np.arange(count.shape[-1]) == control
    treated = (count > 0) & (count[..., control] > 0)[..., None] & ~is_control
    sampling = var / np.maximum(count, 1)[..., None]
    se = np.sqrt(sampling + sampling[..., control, None, :])
    return SlotEffects(
        counts=count,
        mean=np.where(treated[..., None],
                      mean - mean[..., control, None, :], 0.0),
        std_err=np.where(treated[..., None], se, 0.0),
        supported=treated | is_control)


def _lift(ds: ExperimentDataset, rows: np.ndarray, action: str,
          metric: str, where: str) -> MetricEstimate:
    # The effect of `action` on the users that the mask `rows` selects:
    # cell 1 of a two-cell table whose cell 0 holds the other users.
    if action not in ds.actions:
        raise ValueError(f"unknown action {action!r}")
    if metric not in ds.metrics:
        raise ValueError(f"unknown metric {metric!r}")
    arm, control = ds.actions.index(action), ds.actions.index(ds.control_action)
    effects = effects_from_moments(cell_moments(ds, rows.astype(np.intp), (2,)),
                                   control)
    if not effects.supported[1, arm]:
        raise EstimationError(
            f"{action!r} lacks treated or control users in {where}")
    m = ds.metrics.index(metric)
    return MetricEstimate(mean=float(effects.mean[1, arm, m]),
                          std_err=float(effects.std_err[1, arm, m]),
                          n_treated=int(effects.counts[1, arm]),
                          n_control=int(effects.counts[1, control]))


def compute_ate(ds: ExperimentDataset, action: str, metric: str) -> MetricEstimate:
    """Average treatment effect of `action` vs control on `metric`.

    Mean outcome over the treated arm minus mean outcome over the control
    arm; standard error is the two-sample unpooled sqrt(s_t^2/n_t + s_c^2/n_c).
    """
    return _lift(ds, np.ones(ds.n_users, dtype=bool), action, metric,
                 f"experiment {ds.experiment_id!r}")


def segment_hte(ds: ExperimentDataset, segment: "Segment", action: str,
                metric: str) -> MetricEstimate:
    """Segment-level heterogeneous treatment effect of `action` on `metric`.

    Restricted to the users whose feature value lies in the segment's
    interval (every user for the feature-less whole-population segment):
    mean outcome of treated members minus mean outcome of control members.
    Over the full population this equals compute_ate exactly. A segment
    without treated or control users, an empty one included, raises
    EstimationError.
    """
    if segment.feature:
        values = ds.feature_values(segment.feature)
        rows = (values > segment.lower) & (values <= segment.upper)
    else:
        rows = np.ones(ds.n_users, dtype=bool)
    return _lift(ds, rows, action, metric, f"segment {segment.describe()}")
