"""Tolerance-based Pareto filtering (Step 2 of frontier search).

A candidate is discarded only if some other candidate beats it beyond a
per-metric tolerance band proportional to the candidate's own uncertainty
(tau * sigma of the dominated policy). tau=0 recovers strict weak-Pareto
filtering. Note the asymmetry: the band comes from the dominated side, so
dominance is not symmetric in (p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ingest import write_csv, write_json
from .search import Policies, PolicyCandidate, check_minimize, policy_columns


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance multiplier plus the metrics to minimize; every other metric
    is maximized. Minimized metrics are sign-flipped before the
    maximize-case dominance test."""

    tau: float
    minimize: tuple[str, ...] = ()

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    def sign(self, metric: str) -> float:
        return -1.0 if metric in self.minimize else 1.0


@dataclass
class FrontierResult:
    """Admitted policy ids (ascending), plus who rejected whom."""

    admitted: list[str]
    dominated_by: dict[str, str]
    tau_used: float

    def to_json(self) -> dict:
        return {
            "tau": self.tau_used,
            "admitted": list(self.admitted),
            "dominated_by": dict(sorted(self.dominated_by.items())),
        }


def tolerance_dominates(q: PolicyCandidate, p: PolicyCandidate,
                        cfg: ToleranceConfig,
                        metrics: Sequence[str] | None = None) -> bool:
    """True iff q is at least as good as p within p's tolerance band on every
    metric, and strictly better than p beyond the band on some metric (the
    test `tolerance_filter` makes on every pair at once)."""
    metric_order = tuple(metrics) if metrics is not None else tuple(p.estimates)
    beyond = False
    for metric in metric_order:
        for policy in (q, p):
            if metric not in policy.estimates:
                raise ValueError(f"policy {policy.policy_id!r} has no estimate "
                                 f"for metric {metric!r}")
        mu_q = cfg.sign(metric) * q.estimates[metric].mean
        mu_p = cfg.sign(metric) * p.estimates[metric].mean
        eps = cfg.tau * p.estimates[metric].std_err
        if mu_q < mu_p - eps:
            return False
        if mu_q > mu_p + eps:
            beyond = True
    return beyond


# Candidates judged this many at a time: each block's (candidates x block x
# metrics) comparisons stay small however large the table.
_JUDGED_BLOCK = 256


def tolerance_filter(candidates: Policies, cfg: ToleranceConfig,
                     metrics: Sequence[str] | None = None) -> FrontierResult:
    """Reject every candidate that some other candidate tolerance-dominates,
    testing all pairs at once on the columns of `search.policy_columns`.

    `dominated_by` records the first dominator in ascending id order, for
    deterministic audit logs. No candidates yield an empty result. Every
    metric in `cfg.minimize` must be one of the metrics (by default the
    table's, or the first candidate's); without candidates, only metrics
    given or a table's are checked.
    """
    ids, metric_order, mean, std_err = policy_columns(candidates, metrics)
    if ids or metric_order:
        check_minimize(cfg.minimize, metric_order)
    mu = mean * np.array([cfg.sign(metric) for metric in metric_order])
    eps = cfg.tau * std_err
    # floor[p] and ceiling[p] bound p's tolerance band; q dominates p when
    # it is nowhere below the floor and somewhere above the ceiling.
    floor, ceiling = mu - eps, mu + eps
    dominator = np.full(len(ids), -1)
    for start in range(0, len(ids), _JUDGED_BLOCK):
        judged = slice(start, start + _JUDGED_BLOCK)
        dominates = (~(mu[:, None, :] < floor[None, judged, :]).any(axis=2)
                     & (mu[:, None, :] > ceiling[None, judged, :]).any(axis=2))
        column = np.arange(dominates.shape[1])
        dominates[start + column, column] = False  # no candidate beats itself
        dominator[judged] = np.where(dominates.any(axis=0), dominates.argmax(axis=0), -1)
    return FrontierResult(
        admitted=[pid for pid, d in zip(ids, dominator.tolist()) if d < 0],
        dominated_by={pid: ids[d] for pid, d in zip(ids, dominator.tolist()) if d >= 0},
        tau_used=cfg.tau)


def weak_pareto_mask_2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weak-Pareto mask of the points (x[i], y[i]), maximize case, by one
    sort and one sweep in O(n log n) (Kung, Luccio & Preparata, 1975).

    Point i is dominated iff some point has a strictly larger x and a y at
    least as large, or the same x and a strictly larger y. Sorting by
    (-x, -y) puts each group of equal x together with its largest y first,
    so the best y over strictly larger x is a running max over the groups
    before it. Equal vectors never dominate each other, and -0.0 equals 0.0,
    as in `weak_pareto_ids`. The coordinates must not be NaN.
    """
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    starts = np.ones(xs.size, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    group = np.cumsum(starts) - 1
    group_max = ys[starts]
    best_before = np.maximum.accumulate(group_max)
    beaten_by_larger_x = (group > 0) & (best_before[group - 1] >= ys)
    dominated = beaten_by_larger_x | (group_max[group] > ys)
    mask = np.empty(xs.size, dtype=bool)
    mask[order] = ~dominated
    return mask


# -- independent reference oracle ---------------------------------------------


def weak_pareto_ids(means: Mapping[str, Sequence[float]]) -> set[str]:
    """Brute-force O(n^2) weak-Pareto set over mean vectors (maximize case).

    Kept free of the tolerance machinery and of the sweep on purpose: this is
    the reference that both the tolerance filter (at tau=0) and the
    oracle's sort-and-sweep Pareto set (`weak_pareto_mask_2d`) are checked
    against.
    """
    ids = sorted(means)
    out = set()
    for pid in ids:
        mine = means[pid]
        dominated = False
        for other in ids:
            if other == pid:
                continue
            theirs = means[other]
            if all(t >= m for t, m in zip(theirs, mine)) and \
                    any(t > m for t, m in zip(theirs, mine)):
                dominated = True
                break
        if not dominated:
            out.add(pid)
    return out


def strict_pareto_oracle(policies: Policies,
                         metrics: Sequence[str] | None = None) -> set[str]:
    """Weak-Pareto-optimal policy ids by exhaustive pairwise comparison."""
    ids, _, mean, _ = policy_columns(policies, metrics)
    return weak_pareto_ids(dict(zip(ids, map(tuple, mean.tolist()))))


# -- serialization --------------------------------------------------------------


def save_frontier(path: str | Path, result: FrontierResult) -> None:
    write_json(path, result.to_json())


def save_frontier_coords(path: str | Path, policies: Policies,
                         result: FrontierResult,
                         metric_pair: tuple[str, str]) -> None:
    """Two-metric coordinate file (policy_id, mu_1, mu_2, admitted) for
    external frontier plots, one row per policy the filter judged (admitted
    or dominated), in id order, written from the policies' columns."""
    admitted = set(result.admitted)
    judged = admitted | set(result.dominated_by)
    ids, _, mean, _ = policy_columns(policies, metric_pair)
    rows = [row for row, pid in enumerate(ids) if pid in judged]
    ids = [ids[row] for row in rows]
    write_csv(path, ["policy_id", f"{metric_pair[0]}_mean",
                     f"{metric_pair[1]}_mean", "admitted"],
              [ids, *mean[rows].T, [int(pid in admitted) for pid in ids]])
