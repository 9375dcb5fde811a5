"""Randomized-experiment data model and treatment-effect estimators.

The dataset is immutable after construction: users are stored sorted by
user_id so every estimate is independent of input row order, and all
estimators are pure functions of the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import EstimationError, IntegrityError

if TYPE_CHECKING:  # pragma: no cover
    from .segmentation import Segment

ABSOLUTE = "absolute"
RELATIVE_PERCENT = "relative_percent"
LIFT_UNITS = (ABSOLUTE, RELATIVE_PERCENT)


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    """A lift estimate: mean difference vs control plus its standard error.

    `mean` is in the dataset's declared lift units (absolute metric units
    or relative fraction); no unit conversion ever happens downstream.
    Counts are 0 for estimates loaded from a stored-estimate file.
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


@dataclass(frozen=True, slots=True)
class UserRecord:
    """One experiment participant: features, assigned arm, observed outcomes."""

    user_id: str
    features: Mapping[str, float]
    arm: str
    outcomes: Mapping[str, float]
    day: int | None = None


@dataclass(eq=False)
class ExperimentDataset:
    """One randomized experiment. Treat as immutable after construction.

    `actions` lists every arm including the control; `control_action` names
    which one is the control. All users must carry the same feature and
    metric keys, with finite values.
    """

    experiment_id: str
    users: tuple[UserRecord, ...]
    actions: tuple[str, ...]
    control_action: str
    metrics: tuple[str, ...]
    features: tuple[str, ...]
    lift_units: str = ABSOLUTE

    def __post_init__(self):
        self.users = tuple(sorted(self.users, key=lambda u: u.user_id))
        self.actions = tuple(self.actions)
        self.metrics = tuple(self.metrics)
        self.features = tuple(self.features)
        if self.control_action not in self.actions:
            raise IntegrityError(
                f"control action {self.control_action!r} not in actions {self.actions}"
            )
        if self.lift_units not in LIFT_UNITS:
            raise ValueError(f"lift_units must be one of {LIFT_UNITS}")
        self._validate_users()

    def _validate_users(self):
        feature_keys = set(self.features)
        metric_keys = set(self.metrics)
        action_set = set(self.actions)
        seen: set[str] = set()
        for user in self.users:
            if user.user_id in seen:
                raise IntegrityError(f"user {user.user_id!r} appears more than once")
            seen.add(user.user_id)
            if user.arm not in action_set:
                raise IntegrityError(
                    f"user {user.user_id!r} assigned to unknown arm {user.arm!r}"
                )
            if set(user.features) != feature_keys:
                raise IntegrityError(
                    f"user {user.user_id!r} features do not match dataset features"
                )
            if set(user.outcomes) != metric_keys:
                raise IntegrityError(
                    f"user {user.user_id!r} outcomes do not match dataset metrics"
                )
            for key, value in user.features.items():
                if not math.isfinite(value):
                    raise IntegrityError(
                        f"user {user.user_id!r} has non-finite feature {key!r}"
                    )
            for key, value in user.outcomes.items():
                if not math.isfinite(value):
                    raise IntegrityError(
                        f"user {user.user_id!r} has non-finite outcome {key!r}"
                    )

    # -- derived views -----------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def treatments(self) -> tuple[str, ...]:
        return tuple(a for a in self.actions if a != self.control_action)

    @cached_property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(u.user_id for u in self.users)

    @cached_property
    def arm_codes(self) -> np.ndarray:
        """Each user's arm as an index into `actions`."""
        index = {a: i for i, a in enumerate(self.actions)}
        return np.array([index[u.arm] for u in self.users], dtype=np.intp)

    @cached_property
    def _feature_columns(self) -> dict[str, np.ndarray]:
        cols = {}
        for name in self.features:
            cols[name] = np.array([u.features[name] for u in self.users], dtype=float)
        return cols

    @cached_property
    def _sorted_feature_columns(self) -> dict[str, np.ndarray]:
        return {name: np.sort(col, kind="stable")
                for name, col in self._feature_columns.items()}

    @cached_property
    def outcome_matrix(self) -> np.ndarray:
        """Outcomes as a (metrics, users) array, rows in `metrics` order."""
        return np.array([[u.outcomes[name] for u in self.users]
                         for name in self.metrics], dtype=float)

    def feature_values(self, feature: str) -> np.ndarray:
        if feature not in self._feature_columns:
            raise ValueError(f"unknown feature {feature!r}")
        return self._feature_columns[feature]

    def sorted_feature_values(self, feature: str) -> np.ndarray:
        """`feature_values(feature)` in ascending order."""
        self.feature_values(feature)
        return self._sorted_feature_columns[feature]

    def outcome_values(self, metric: str) -> np.ndarray:
        if metric not in self.metrics:
            raise ValueError(f"unknown metric {metric!r}")
        return self.outcome_matrix[self.metrics.index(metric)]

    def arm_mask(self, action: str) -> np.ndarray:
        if action not in self.actions:
            raise ValueError(f"unknown action {action!r}")
        return self.arm_codes == self.actions.index(action)

    def subset(self, mask: np.ndarray, experiment_id: str | None = None) -> "ExperimentDataset":
        users = tuple(u for u, keep in zip(self.users, mask) if keep)
        return ExperimentDataset(
            experiment_id=experiment_id or self.experiment_id,
            users=users,
            actions=self.actions,
            control_action=self.control_action,
            metrics=self.metrics,
            features=self.features,
            lift_units=self.lift_units,
        )

    def day_codes(self, n_days: int | None = None) -> tuple[np.ndarray, list[int]]:
        """Each user's day as an index into the returned day labels.

        Uses the users' day labels when present (sorted distinct labels);
        otherwise partitions the id-sorted users into `n_days` contiguous
        chunks labelled 0..n_days-1 (a valid proxy for time slices in a
        randomized experiment, where users are exchangeable).
        """
        labels = [u.day for u in self.users]
        if self.users and all(d is not None for d in labels):
            days, codes = np.unique(np.array(labels), return_inverse=True)
            return codes, [int(d) for d in days]
        if n_days is None or n_days < 1:
            raise ValueError("dataset has no day labels; pass n_days >= 1")
        bounds = np.linspace(0, self.n_users, n_days + 1).astype(int)
        return np.repeat(np.arange(n_days), np.diff(bounds)), list(range(n_days))

    def daily_slices(self, n_days: int | None = None) -> list["ExperimentDataset"]:
        """Split into per-day datasets, one per label of `day_codes`."""
        codes, days = self.day_codes(n_days)
        return [self.subset(codes == k, f"{self.experiment_id}#day{d}")
                for k, d in enumerate(days)]


# -- estimators --------------------------------------------------------------


def slot_effects(ds: ExperimentDataset, codes: np.ndarray, n_slots: int,
                 rows: np.ndarray | None = None,
                 metrics: Sequence[str] | None = None
                 ) -> tuple[list[int], dict[tuple[int, str, str], MetricEstimate | None]]:
    """Effect of every treatment vs control in every slot, over `rows` of `ds`.

    `codes` holds every user's slot. One bincount pass per metric fills the
    count, mean and centred sum of squares of every (slot, arm) cell. An
    effect is the treated-minus-control mean difference with the unpooled
    standard error sqrt(s_t^2/n_t + s_c^2/n_c), sample variances having an
    n-1 denominator (0 for a single user).

    Returns the number of selected users in each slot and the effects keyed
    by (slot, action, metric), None where a slot lacks treated or control
    users.
    """
    metrics = ds.metrics if metrics is None else tuple(metrics)
    arms = ds.arm_codes
    outcomes = [ds.outcome_values(metric) for metric in metrics]
    if rows is not None:
        codes, arms = codes[rows], arms[rows]
        outcomes = [y[rows] for y in outcomes]
    n_arms = len(ds.actions)
    cell = codes * n_arms + arms
    count = np.bincount(cell, minlength=n_slots * n_arms)
    stats = []
    for y in outcomes:
        mean = np.bincount(cell, weights=y, minlength=count.size) / np.maximum(count, 1)
        dev = y - mean[cell]
        m2 = np.bincount(cell, weights=dev * dev, minlength=count.size)
        var = np.where(count > 1, m2 / np.maximum(count - 1, 1), 0.0)
        stats.append((mean.reshape(n_slots, n_arms), var.reshape(n_slots, n_arms)))
    count = count.reshape(n_slots, n_arms)

    control = ds.actions.index(ds.control_action)
    effects: dict[tuple[int, str, str], MetricEstimate | None] = {}
    for slot in range(n_slots):
        n_c = int(count[slot, control])
        for arm, action in enumerate(ds.actions):
            n_t = int(count[slot, arm])
            if arm == control:
                continue
            for metric, (mean, var) in zip(metrics, stats):
                effects[slot, action, metric] = MetricEstimate(
                    mean=float(mean[slot, arm] - mean[slot, control]),
                    std_err=math.sqrt(var[slot, arm] / n_t + var[slot, control] / n_c),
                    n_treated=n_t, n_control=n_c) if n_t and n_c else None
    return count.sum(axis=1).tolist(), effects


def _lift(ds: ExperimentDataset, rows: np.ndarray | None, action: str,
          metric: str, where: str) -> MetricEstimate:
    # The effect of `action` over `rows`, taken as a single slot.
    if action not in ds.actions:
        raise ValueError(f"unknown action {action!r}")
    if metric not in ds.metrics:
        raise ValueError(f"unknown metric {metric!r}")
    if action == ds.control_action:
        in_arm = ds.arm_mask(action)
        n_c = int((in_arm if rows is None else in_arm[rows]).sum())
        return MetricEstimate(mean=0.0, std_err=0.0, n_treated=n_c, n_control=n_c)
    codes = np.zeros(ds.n_users, dtype=np.intp)
    _, effects = slot_effects(ds, codes, 1, rows, (metric,))
    estimate = effects[0, action, metric]
    if estimate is None:
        raise EstimationError(
            f"{action!r} lacks treated or control users in {where}")
    return estimate


def compute_ate(ds: ExperimentDataset, action: str, metric: str) -> MetricEstimate:
    """Average treatment effect of `action` vs control on `metric`.

    Mean outcome over the treated arm minus mean outcome over the control
    arm; standard error is the two-sample unpooled sqrt(s_t^2/n_t + s_c^2/n_c).
    """
    return _lift(ds, None, action, metric, f"experiment {ds.experiment_id!r}")


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
