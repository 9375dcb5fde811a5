"""Candidate policy enumeration, evaluation, and random-weight Top-K search.

A policy maps each segment slot of one cut to an action (control allowed).
Per-metric policy lift is the segment-size-weighted sum of the slot effects
of its treated slots; policy standard errors compose slot standard errors as
independent size-weighted variances (segments are disjoint user sets). Each
cut's effects come from one `experiment.slot_effects` table, and every policy
on the cut is composed from that table's arrays.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, EstimationError
from .experiment import (ExperimentDataset, MetricEstimate, SlotEffects,
                         cell_moments, effects_from_moments, pool_moments,
                         slot_effects)
from .segmentation import CutSpec, cut_slot_codes

FORMAT_VERSION = 1


@dataclass
class PolicyCandidate:
    """A segment->action assignment over one cut, plus per-metric estimates.

    `cut` is None for the degenerate single-slot (whole population) policy.
    `assignment` is positional: slot index -> action id.
    """

    policy_id: str
    cut: CutSpec | None
    assignment: tuple[str, ...]
    estimates: dict[str, MetricEstimate] = field(default_factory=dict)

    def __post_init__(self):
        slots = self.cut.slot_count if self.cut is not None else 1
        if len(self.assignment) != slots:
            raise ValueError(
                f"policy {self.policy_id!r} assigns {len(self.assignment)} slots, "
                f"cut has {slots}"
            )

    def mean_vector(self, metrics: Sequence[str]) -> tuple[float, ...]:
        return tuple(self.estimates[m].mean for m in metrics)


@dataclass(frozen=True)
class WeightVector:
    """A point on the metric simplex: non-negative weights summing to 1."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weight vector must be non-empty")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"weights must be non-negative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")


@dataclass
class CandidateSet:
    """Union of per-weight Top-K selections, with admission provenance.

    `policy_ids` is sorted ascending; `provenance` maps each admitted id to
    the (weight index, rank) pairs that admitted it.
    """

    policy_ids: list[str]
    provenance: dict[str, list[tuple[int, int]]]


def make_policy_id(cut: CutSpec | None, assignment: Sequence[str]) -> str:
    if cut is None:
        return f"global.{assignment[0]}"
    return f"{cut.describe()}.{'-'.join(assignment)}"


def global_policies(ds: ExperimentDataset,
                    actions: Sequence[str] | None = None) -> list[PolicyCandidate]:
    """One single-slot whole-population policy per action."""
    actions = tuple(actions) if actions is not None else ds.actions
    return [PolicyCandidate(policy_id=make_policy_id(None, (a,)),
                            cut=None, assignment=(a,))
            for a in actions]


def _sample_assignments(n_actions: int, slots: int, budget: int,
                        control_index: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    # All-control is forced in; the rest are unique uniform draws.
    control = tuple([control_index] * slots)
    chosen = {control}
    while len(chosen) < budget:
        chosen.add(tuple(int(a) for a in rng.integers(0, n_actions, size=slots)))
    return sorted(chosen)


def enumerate_policies(ds: ExperimentDataset, cuts: Sequence[CutSpec],
                       actions: Sequence[str] | None = None,
                       budget: int = 128, seed: int = 0) -> list[PolicyCandidate]:
    """Candidate policies for each cut: the full action cross-product when it
    fits the per-cut budget, otherwise a seeded uniform sample without
    replacement with the all-control reference always present.

    An empty cut list yields the global single-slot policies, one per action.
    """
    if budget < 1:
        raise ConfigError(f"policy budget must be >= 1, got {budget}")
    action_list = tuple(actions) if actions is not None else ds.actions
    if not action_list:
        raise ConfigError("no actions to assign")
    if not cuts:
        return global_policies(ds, action_list)

    control_index = (action_list.index(ds.control_action)
                     if ds.control_action in action_list else 0)
    rng = np.random.default_rng(seed)
    policies: list[PolicyCandidate] = []
    for cut in cuts:
        slots = cut.slot_count
        total = len(action_list) ** slots
        if total <= budget:
            combos = list(itertools.product(range(len(action_list)), repeat=slots))
        else:
            combos = _sample_assignments(len(action_list), slots, budget,
                                         control_index, rng)
        for combo in combos:
            assignment = tuple(action_list[i] for i in combo)
            policies.append(PolicyCandidate(
                policy_id=make_policy_id(cut, assignment),
                cut=cut, assignment=assignment))
    return policies


# -- evaluation ---------------------------------------------------------------


def _cut_effects(ds: ExperimentDataset, cut: CutSpec | None,
                 rows: np.ndarray | None = None) -> SlotEffects:
    n_slots = cut.slot_count if cut is not None else 1
    return slot_effects(ds, cut_slot_codes(ds, cut), n_slots, rows)


def _compose(ds: ExperimentDataset, effects: SlotEffects,
             policies: Sequence[PolicyCandidate]
             ) -> list[PolicyCandidate | EstimationError]:
    """Each policy on the cut that `effects` describes, with its estimates
    filled, or the EstimationError naming its first unsupported slot.

    A policy's lift is the size-weighted sum, in slot order, of the effects
    of its treated, non-empty slots; its variance is the sum of the squared
    size-weighted standard errors. The P x S matrix of arm codes is composed
    one slot at a time across all P policies. Effects with leading axes
    (one table per range of days) compose every table at once; the result
    lists each table's P policies in turn.
    """
    arm_of = {action: k for k, action in enumerate(ds.actions)}
    try:
        arms = np.array([[arm_of[a] for a in p.assignment] for p in policies],
                        dtype=np.intp).reshape(len(policies), -1)
    except KeyError as exc:
        raise ValueError(f"unknown action {exc.args[0]!r}") from None
    control = arm_of[ds.control_action]
    sizes = effects.counts.sum(axis=-1)
    weights = sizes / np.maximum(sizes.sum(axis=-1, keepdims=True), 1)
    terms = weights[..., None, None] * effects.mean
    weighted = weights[..., None, None] * effects.std_err
    # Squared with libm pow (Python's float `**`), not numpy's x * x, which
    # rounds differently on about 0.1% of inputs: written std_err columns
    # stay byte-identical to those of earlier versions.
    squares = np.array([x ** 2 for x in weighted.ravel().tolist()]
                       ).reshape(weighted.shape)
    # The control arm's column and every empty slot hold zero effect and
    # zero error, and sums run in slot order.
    mean = np.zeros((*sizes.shape[:-1], len(policies), len(ds.metrics)))
    var = np.zeros_like(mean)
    for slot in range(arms.shape[1]):
        mean += terms[..., slot, arms[:, slot], :]
        var += squares[..., slot, arms[:, slot], :]
    slots = np.arange(arms.shape[1])
    treated = arms != control
    n_treated = (effects.counts[..., slots, arms] * treated).sum(axis=-1)
    n_control = (effects.counts[..., None, :, control] * treated).sum(axis=-1)
    lacking = ~effects.supported[..., slots, arms] & (sizes[..., None, :] > 0)
    unsupported = np.where(lacking.any(axis=-1), lacking.argmax(axis=-1), -1)

    out: list[PolicyCandidate | EstimationError] = []
    for policy, means, errors, n_t, n_c, slot in zip(
            itertools.cycle(policies), mean.reshape(-1, len(ds.metrics)).tolist(),
            np.sqrt(var).reshape(-1, len(ds.metrics)).tolist(),
            n_treated.ravel().tolist(), n_control.ravel().tolist(),
            unsupported.ravel().tolist()):
        if slot >= 0:
            out.append(EstimationError(
                f"policy {policy.policy_id!r} slot {slot}: no treated/control "
                f"support for action {policy.assignment[slot]!r}"))
        else:
            out.append(PolicyCandidate(
                policy_id=policy.policy_id, cut=policy.cut,
                assignment=policy.assignment, estimates={
                    metric: MetricEstimate(mean=mu, std_err=se, n_treated=n_t,
                                           n_control=n_c)
                    for metric, mu, se in zip(ds.metrics, means, errors)}))
    return out


def evaluate_policies(ds: ExperimentDataset, policies: Sequence[PolicyCandidate],
                      skip_unsupported: bool = False) -> list[PolicyCandidate]:
    """Fill per-metric estimates for each policy (returns new candidates, in
    input order).

    Each cut's slot-effect table comes from one `slot_effects` pass, and
    every policy on the cut is composed from that table.
    Control-assigned slots contribute zero lift by definition; empty slots
    carry zero weight. A non-empty slot whose assigned action lacks treated
    or control users makes the policy unsupported: the first unsupported
    policy raises EstimationError naming the slot, or with
    `skip_unsupported` every unsupported policy is dropped from the result.
    """
    by_cut: dict[CutSpec | None, list[int]] = {}
    for index, policy in enumerate(policies):
        by_cut.setdefault(policy.cut, []).append(index)
    results: list = [None] * len(policies)
    for cut, indices in by_cut.items():
        composed = _compose(ds, _cut_effects(ds, cut),
                            [policies[i] for i in indices])
        for index, result in zip(indices, composed):
            results[index] = result
    if not skip_unsupported:
        for result in results:
            if isinstance(result, EstimationError):
                raise result
    return [r for r in results if isinstance(r, PolicyCandidate)]


def evaluate_policy(ds: ExperimentDataset, policy: PolicyCandidate) -> PolicyCandidate:
    """Fill per-metric estimates for one policy (see evaluate_policies)."""
    return evaluate_policies(ds, [policy])[0]


def evaluate_policy_pinned(ds: ExperimentDataset, policy: PolicyCandidate,
                           rows: np.ndarray) -> PolicyCandidate:
    """This policy on `rows` of `ds` (a mask or index array), with cohort
    bounds fixed from all of `ds`.

    Slot weights and arm counts come from the selected rows only, so a
    temporal slice or a backtest day is evaluated against the cohorts of
    the window it belongs to rather than re-deriving its own quantiles.
    """
    [result] = _compose(ds, _cut_effects(ds, policy.cut, rows), [policy])
    if isinstance(result, EstimationError):
        raise result
    return result


def evaluate_policy_days(ds: ExperimentDataset, policy: PolicyCandidate,
                         day: np.ndarray, n_days: int, lo: np.ndarray,
                         hi: np.ndarray) -> list[PolicyCandidate | EstimationError]:
    """This policy on the users of each day range [lo[i], hi[i]), with
    cohort bounds fixed from all of `ds`; `day` holds every user's day code
    in range(n_days).

    One moment pass over (day, slot, arm) cells serves every range, and
    every range is composed at once. A one-day range reads that day's cells
    and equals `evaluate_policy_pinned` on the day's rows exactly; a longer
    range pools its days' moments (`pool_moments`) and agrees with it to
    rounding. A range without arm support yields the EstimationError that
    `evaluate_policy_pinned` would raise.
    """
    n_slots = policy.cut.slot_count if policy.cut is not None else 1
    codes = day * n_slots + cut_slot_codes(ds, policy.cut)
    moments = cell_moments(ds, codes, (n_days, n_slots))
    effects = effects_from_moments(pool_moments(moments, lo, hi),
                                   ds.actions.index(ds.control_action))
    return _compose(ds, effects, [policy])


# -- random-weight search ------------------------------------------------------


def sample_weights(n_metrics: int, n_samples: int, seed: int) -> list[WeightVector]:
    """Uniform simplex samples via normalized unit-rate exponentials.

    Identical seed gives an identical sequence.
    """
    if n_metrics < 1:
        raise ValueError(f"n_metrics must be >= 1, got {n_metrics}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_metrics == 1:
        return [WeightVector((1.0,)) for _ in range(n_samples)]
    rng = np.random.default_rng(seed)
    draws = -np.log1p(-rng.random((n_samples, n_metrics)))
    totals = draws.sum(axis=1)
    totals[totals == 0.0] = 1.0
    normalized = draws / totals[:, None]
    # Exact sum-to-1 after float division is not guaranteed; renormalize the
    # largest coordinate to absorb the residual.
    out = []
    for row in normalized:
        residual = 1.0 - row.sum()
        row = row.copy()
        row[int(np.argmax(row))] += residual
        out.append(WeightVector(tuple(float(w) for w in row)))
    return out


def scalarized_score(policy: PolicyCandidate, weights: WeightVector,
                     metrics: Sequence[str] | None = None) -> float:
    """Weighted sum of per-metric mean lifts, weights aligned with `metrics`
    (default: the policy's estimate insertion order)."""
    metric_order = tuple(metrics) if metrics is not None else tuple(policy.estimates)
    if len(metric_order) != len(weights.weights):
        raise ValueError(
            f"weight vector has {len(weights.weights)} entries for "
            f"{len(metric_order)} metrics")
    total = 0.0
    for w, metric in zip(weights.weights, metric_order):
        if metric not in policy.estimates:
            raise ValueError(
                f"policy {policy.policy_id!r} has no estimate for metric {metric!r}")
        total += w * policy.estimates[metric].mean
    return total


# Weights are scored this many at a time. A governed run can reach its
# peak RSS in Top-K, where every (weights x policies) temporary adds to it;
# blocks this small keep each one to tens of kilobytes.
_WEIGHT_BLOCK = 16


def collect_candidates(policies: Sequence[PolicyCandidate],
                       weights: Sequence[WeightVector], top_k: int,
                       metrics: Sequence[str] | None = None,
                       minimize: Sequence[str] = ()) -> CandidateSet:
    """Union of Top-K policies per weight vector (Step 1 of frontier search).

    Scores are weighted sums of means oriented so that higher is better:
    the means of metrics in `minimize`, each of which must be one of the
    metrics, enter negated. Ties in score break by ascending policy_id, so
    the result is independent of input ordering and scheduling. Provenance
    records every (weight index, 1-based rank) that admitted each policy.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if not policies:
        raise ValueError("no policies to search")
    metric_order = tuple(metrics) if metrics is not None else tuple(policies[0].estimates)
    for metric in minimize:
        if metric not in metric_order:
            raise ValueError(f"metric {metric!r} to minimize is not one of "
                             f"the metrics {list(metric_order)}")
    for w in weights:
        if len(w.weights) != len(metric_order):
            raise ValueError(f"weight vector has {len(w.weights)} entries for "
                             f"{len(metric_order)} metrics")
    try:
        mu = np.array([[p.estimates[m].mean for m in metric_order] for p in policies])
    except KeyError as exc:
        raise ValueError(f"a policy is missing an estimate for metric "
                         f"{exc.args[0]!r}") from exc
    mu[:, [metric in minimize for metric in metric_order]] *= -1.0
    ids = [p.policy_id for p in policies]
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[np.argsort(np.array(ids, dtype=object), kind="stable")] = np.arange(len(ids))
    w_matrix = np.array([w.weights for w in weights],
                        dtype=float).reshape(len(weights), len(metric_order))
    k = min(top_k, len(ids))

    provenance: dict[str, list[tuple[int, int]]] = {}
    for start in range(0, len(w_matrix), _WEIGHT_BLOCK):
        # A stack of matrix-vector products rounds every score as `mu @ w`
        # does for one weight; a matrix product rounds some differently.
        block = w_matrix[start:start + _WEIGHT_BLOCK]
        scores = np.matmul(mu, block[:, :, None])[..., 0]
        # Every score at least each weight's k-th largest survives, ties
        # included; one sort orders them by weight, descending score and
        # ascending id.
        kth = np.partition(scores, -k, axis=1)[:, -k]
        weight, row = np.nonzero(scores >= kth[:, None])
        order = np.lexsort((id_rank[row], -scores[weight, row], weight))
        weight, row = weight[order], row[order]
        rank = np.arange(weight.size) - np.searchsorted(weight, weight)
        keep = rank < k
        for w_idx, r, rank_ in zip((weight[keep] + start).tolist(),
                                   row[keep].tolist(), (rank[keep] + 1).tolist()):
            provenance.setdefault(ids[r], []).append((w_idx, rank_))
    return CandidateSet(policy_ids=sorted(provenance), provenance=provenance)


# -- policy table persistence ---------------------------------------------------


def save_policy_table(path: str | Path, policies: Sequence[PolicyCandidate],
                      metrics: Sequence[str]) -> None:
    """Write the policy table CSV: id, cut descriptor, per-slot actions, and
    per-metric mean/std_err columns."""
    path = Path(path)
    header = ["policy_id", "feature", "cut", "actions"]
    for metric in metrics:
        header += [f"{metric}_mean", f"{metric}_std_err"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for policy in sorted(policies, key=lambda p: p.policy_id):
            cut = policy.cut
            row = [policy.policy_id,
                   cut.feature if cut is not None else "",
                   cut.short_descriptor if cut is not None else "global",
                   "-".join(policy.assignment)]
            for metric in metrics:
                est = policy.estimates[metric]
                row += [repr(est.mean), repr(est.std_err)]
            writer.writerow(row)


def load_policy_table(path: str | Path) -> tuple[dict[str, dict[str, MetricEstimate]], list[str]]:
    """Read a policy table CSV into {policy_id: {metric: MetricEstimate}} and
    the metric id list."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    metric_cols = [(i, name[: -len("_mean")]) for i, name in enumerate(header)
                   if name.endswith("_mean")]
    err_col = {name: header.index(f"{name}_std_err") for _, name in metric_cols}
    table: dict[str, dict[str, MetricEstimate]] = {}
    for row in reader:
        if not row:
            continue
        policy_id = row[0]
        table[policy_id] = {
            name: MetricEstimate(mean=float(row[i]), std_err=float(row[err_col[name]]))
            for i, name in metric_cols
        }
    return table, [name for _, name in metric_cols]
