"""Tolerance-based Pareto filtering (Step 2 of frontier search).

A candidate is discarded only if some other candidate beats it beyond a
per-metric tolerance band proportional to the candidate's own uncertainty
(tau * sigma of the dominated policy). tau=0 recovers strict weak-Pareto
filtering. Note the asymmetry: the band comes from the dominated side, so
dominance is not symmetric in (p, q).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .search import FORMAT_VERSION, PolicyCandidate, check_minimize


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
            "format_version": FORMAT_VERSION,
            "tau": self.tau_used,
            "admitted": list(self.admitted),
            "dominated_by": dict(sorted(self.dominated_by.items())),
        }


def _oriented(policy: PolicyCandidate, metric: str, cfg: ToleranceConfig) -> tuple[float, float]:
    if metric not in policy.estimates:
        raise ValueError(
            f"policy {policy.policy_id!r} has no estimate for metric {metric!r}")
    est = policy.estimates[metric]
    return cfg.sign(metric) * est.mean, est.std_err


def tolerance_dominates(q: PolicyCandidate, p: PolicyCandidate,
                        cfg: ToleranceConfig,
                        metrics: Sequence[str] | None = None) -> bool:
    """True iff q is at least as good as p within p's tolerance band on every
    metric, and strictly better than p beyond the band on some metric."""
    metric_order = tuple(metrics) if metrics is not None else tuple(p.estimates)
    beyond = False
    for metric in metric_order:
        mu_q, _ = _oriented(q, metric, cfg)
        mu_p, sigma_p = _oriented(p, metric, cfg)
        eps = cfg.tau * sigma_p
        if mu_q < mu_p - eps:
            return False
        if mu_q > mu_p + eps:
            beyond = True
    return beyond


def tolerance_filter(candidates: Sequence[PolicyCandidate], cfg: ToleranceConfig,
                     metrics: Sequence[str] | None = None) -> FrontierResult:
    """Reject every candidate that some other candidate tolerance-dominates.

    `dominated_by` records the first dominator in ascending id order, for
    deterministic audit logs. An empty candidate list yields an empty result.
    Every metric in `cfg.minimize` must be one of the metrics (by default
    the first candidate's).
    """
    ordered = sorted(candidates, key=lambda p: p.policy_id)
    first = tuple(ordered[0].estimates) if ordered else ()
    check_minimize(cfg.minimize, first if metrics is None else metrics)
    admitted: list[str] = []
    dominated_by: dict[str, str] = {}
    for p in ordered:
        dominator = None
        for q in ordered:
            if q.policy_id != p.policy_id and tolerance_dominates(q, p, cfg, metrics):
                dominator = q.policy_id
                break
        if dominator is None:
            admitted.append(p.policy_id)
        else:
            dominated_by[p.policy_id] = dominator
    return FrontierResult(admitted=admitted, dominated_by=dominated_by,
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


def strict_pareto_oracle(policies: Iterable[PolicyCandidate],
                         metrics: Sequence[str] | None = None) -> set[str]:
    """Weak-Pareto-optimal policy ids by exhaustive pairwise comparison."""
    policies = list(policies)
    if not policies:
        return set()
    metric_order = tuple(metrics) if metrics is not None else tuple(policies[0].estimates)
    means = {p.policy_id: p.mean_vector(metric_order) for p in policies}
    return weak_pareto_ids(means)


# -- serialization --------------------------------------------------------------


def save_frontier(path: str | Path, result: FrontierResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_frontier_coords(path: str | Path, policies: Sequence[PolicyCandidate],
                         result: FrontierResult,
                         metric_pair: tuple[str, str]) -> None:
    """Two-metric coordinate file (policy_id, mu_1, mu_2, admitted) for
    external frontier plots, one row per policy the filter judged (admitted
    or dominated)."""
    admitted = set(result.admitted)
    judged = admitted | set(result.dominated_by)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy_id", f"{metric_pair[0]}_mean",
                         f"{metric_pair[1]}_mean", "admitted"])
        for policy in sorted((p for p in policies if p.policy_id in judged),
                             key=lambda p: p.policy_id):
            writer.writerow([
                policy.policy_id,
                repr(policy.estimates[metric_pair[0]].mean),
                repr(policy.estimates[metric_pair[1]].mean),
                int(policy.policy_id in admitted),
            ])
