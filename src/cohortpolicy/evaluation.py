"""Ranking metrics, the five-instruction ground-truth oracle, and selector
scoring.

External selectors plug in as files: rankings arrive as JSONL records and
are scored against oracle ground truths on the twelve report columns
(nDCG@{1,3,5}, Precision@{1,3,5}, rank correlation, Recall@{1,3,5}, Top-1
accuracy, Top-1 in ground truth).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import UnmatchedInstructionError
from .experiment import MetricEstimate
from .frontier import weak_pareto_mask_2d
from .search import FORMAT_VERSION

MAXIMIZE_BOTH = "maximize_both"
MAXIMIZE_WITH_CONSTRAINT = "maximize_with_constraint"
TRADEOFF_ANALYSIS = "tradeoff_analysis"
EFFICIENCY_OPTIMIZATION = "efficiency_optimization"
SINGLE_METRIC = "single_metric"
KINDS = (MAXIMIZE_BOTH, MAXIMIZE_WITH_CONSTRAINT, TRADEOFF_ANALYSIS,
         EFFICIENCY_OPTIMIZATION, SINGLE_METRIC)

_TWO_METRIC_KINDS = (MAXIMIZE_BOTH, MAXIMIZE_WITH_CONSTRAINT, TRADEOFF_ANALYSIS)

GT_SIZE = 5
SIGMA_FLOOR = 1e-9
CONSTRAINT_Z = 1.96

REPORT_COLUMNS = ("ndcg@1", "ndcg@3", "ndcg@5", "prec@1", "prec@3", "prec@5",
                  "rank_corr", "recall@1", "recall@3", "recall@5",
                  "top1_acc", "top1_in_gt")


@dataclass
class InstructionSpec:
    """One policy-selection task over an experiment's policy table."""

    kind: str
    primary_metric: str
    secondary_metric: str | None = None
    experiment_id: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.kind in _TWO_METRIC_KINDS and not self.secondary_metric:
            raise ValueError(f"{self.kind} requires a secondary metric")
        if self.kind == SINGLE_METRIC and self.secondary_metric:
            raise ValueError("single_metric takes exactly one metric")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "primary_metric": self.primary_metric,
            "secondary_metric": self.secondary_metric,
            "experiment_id": self.experiment_id,
        }


@dataclass
class GroundTruth:
    """The deterministic top-5 answer for one instruction."""

    experiment_id: str
    top5: list[str]
    instruction_idx: int = -1
    instruction: InstructionSpec | None = None


@dataclass
class SelectorRanking:
    """One selector's ranked policy ids for one instruction."""

    selector_name: str
    experiment_id: str
    instruction_idx: int
    ranked: list[str]

    def __post_init__(self):
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(
                f"ranking for instruction {self.instruction_idx} has duplicates")


# -- ranking metrics -------------------------------------------------------------


def ndcg_at_k(ranked: Sequence[str], gt_set: set[str] | Sequence[str], k: int) -> float:
    """Binary-relevance nDCG@k: DCG of the predicted order over the ideal DCG.

    The ideal ranking fills min(k, |gt|) relevant slots. Empty ground truth
    scores 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(gt_set)
    if not relevant:
        return 0.0
    dcg = sum(1.0 / math.log2(i + 2)
              for i, pid in enumerate(ranked[:k]) if pid in relevant)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal


def precision_at_k(ranked: Sequence[str], gt_set: set[str] | Sequence[str], k: int) -> float:
    """Fraction of the top-k predictions that are in the ground-truth set.
    The denominator stays k even when fewer predictions exist."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(gt_set)
    return sum(1 for pid in ranked[:k] if pid in relevant) / k


def recall_at_k(ranked: Sequence[str], gt_set: set[str] | Sequence[str], k: int) -> float:
    """Fraction of the reachable ground truth captured in the top-k
    predictions: |top-k intersect gt| / min(k, |gt|).

    The denominator is capped at k so a perfect selector scores 1 at every
    cutoff. Empty ground truth scores 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(gt_set)
    if not relevant:
        return 0.0
    return sum(1 for pid in ranked[:k] if pid in relevant) / min(k, len(relevant))


def top1_metrics(ranked: Sequence[str], gt: GroundTruth) -> dict[str, int]:
    """Exact-match and membership checks for the top prediction."""
    if not ranked or not gt.top5:
        return {"top1_acc": 0, "top1_in_gt": 0}
    return {
        "top1_acc": int(ranked[0] == gt.top5[0]),
        "top1_in_gt": int(ranked[0] in set(gt.top5)),
    }


def spearman_corr(ranked: Sequence[str], gt: GroundTruth) -> float:
    """Spearman's rho between the two orderings over their common policies.

    Computed on the rank positions of the intersection; fewer than two
    common items gives 0. Both position lists are tie-free (a ranking holds
    no duplicate ids), so rho is exactly 1 - 6 sum(d^2) / (n (n^2 - 1)).
    """
    gt_pos = {pid: i for i, pid in enumerate(gt.top5)}
    gt_positions = [gt_pos[pid] for pid in ranked if pid in gt_pos]
    n = len(gt_positions)
    if n < 2:
        return 0.0
    # Predicted ranks are 0..n-1 in order; the ground-truth ranks order the
    # positions the common items hold in the ground truth.
    gt_ranks = np.argsort(np.argsort(gt_positions))
    d2 = float(((np.arange(n) - gt_ranks) ** 2).sum())
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


# -- ground-truth oracle -----------------------------------------------------------


PolicyTable = Mapping[str, Mapping[str, MetricEstimate]]


def _require_metric(table: PolicyTable, metric: str | None, kind: str) -> str:
    if not metric:
        raise ValueError(f"{kind} requires a metric id")
    for policy_id, estimates in table.items():
        if metric not in estimates:
            raise ValueError(
                f"policy {policy_id!r} has no estimate for metric {metric!r}")
    return metric


def _z(est: MetricEstimate) -> float:
    return est.mean / max(est.std_err, SIGMA_FLOOR)


def _top_by(ids: Sequence[str], score: Mapping[str, float], n: int = GT_SIZE) -> list[str]:
    return sorted(ids, key=lambda pid: (-score[pid], pid))[:n]


def _tradeoff_spread(ids: Sequence[str], table: PolicyTable, primary: str,
                     secondary: str) -> list[str]:
    x = np.array([table[pid][primary].mean for pid in ids])
    y = np.array([table[pid][secondary].mean for pid in ids])
    pareto = [ids[i] for i in np.flatnonzero(weak_pareto_mask_2d(x, y))]
    means = {pid: (table[pid][primary].mean, table[pid][secondary].mean)
             for pid in pareto}
    if len(pareto) <= GT_SIZE:
        seeds = sorted(pareto, key=lambda pid: (-means[pid][0], pid))
        return seeds
    lo = [min(means[p][i] for p in pareto) for i in (0, 1)]
    hi = [max(means[p][i] for p in pareto) for i in (0, 1)]
    span = [max(hi[i] - lo[i], SIGMA_FLOOR) for i in (0, 1)]

    def norm(pid):
        return tuple((means[pid][i] - lo[i]) / span[i] for i in (0, 1))

    extreme_primary = min(pareto, key=lambda pid: (-means[pid][0], pid))
    extreme_secondary = min(pareto, key=lambda pid: (-means[pid][1], pid))
    chosen = [extreme_primary]
    if extreme_secondary != extreme_primary:
        chosen.append(extreme_secondary)
    remaining = [pid for pid in pareto if pid not in chosen]
    while len(chosen) < GT_SIZE and remaining:
        best = min(
            remaining,
            key=lambda pid: (-min(math.dist(norm(pid), norm(c)) for c in chosen), pid),
        )
        chosen.append(best)
        remaining.remove(best)
    return chosen


def ground_truth_oracle(instruction: InstructionSpec, table: PolicyTable) -> GroundTruth:
    """Deterministic top-5 for one instruction, from policy means and
    uncertainties alone. Ties always break by ascending policy id.

    - single_metric: highest primary mean.
    - maximize_with_constraint: highest primary mean among policies whose
      secondary metric is not significantly negative (mean + 1.96*sigma >= 0).
    - maximize_both: z-score sum over policies non-negative on both metrics,
      topped up unconstrained when fewer than five qualify.
    - tradeoff_analysis: weak-Pareto set on the two means (one sort and
      sweep), spread-maximized (extremes first, then greedy max-min distance
      in normalized mean space).
    - efficiency_optimization: equal-weight mean of per-metric z-scores;
      every policy must carry every metric any policy has.
    """
    ids = sorted(table)
    kind = instruction.kind
    if not ids:
        return GroundTruth(experiment_id=instruction.experiment_id, top5=[],
                           instruction=instruction)
    primary = _require_metric(table, instruction.primary_metric, kind)

    if kind == SINGLE_METRIC:
        score = {pid: table[pid][primary].mean for pid in ids}
        top = _top_by(ids, score)
    elif kind == MAXIMIZE_WITH_CONSTRAINT:
        secondary = _require_metric(table, instruction.secondary_metric, kind)
        eligible = [pid for pid in ids
                    if table[pid][secondary].mean
                    + CONSTRAINT_Z * table[pid][secondary].std_err >= 0]
        score = {pid: table[pid][primary].mean for pid in eligible}
        top = _top_by(eligible, score)
    elif kind == MAXIMIZE_BOTH:
        secondary = _require_metric(table, instruction.secondary_metric, kind)
        score = {pid: _z(table[pid][primary]) + _z(table[pid][secondary])
                 for pid in ids}
        eligible = [pid for pid in ids
                    if table[pid][primary].mean >= 0 and table[pid][secondary].mean >= 0]
        top = _top_by(eligible, score)
        if len(top) < GT_SIZE:
            taken = set(top)
            rest = [pid for pid in ids if pid not in taken]
            top += _top_by(rest, score, GT_SIZE - len(top))
    elif kind == TRADEOFF_ANALYSIS:
        secondary = _require_metric(table, instruction.secondary_metric, kind)
        top = _tradeoff_spread(ids, table, primary, secondary)
    elif kind == EFFICIENCY_OPTIMIZATION:
        # Every policy must carry every scored metric; the first policy's
        # order fixes the summation order.
        metrics = tuple(dict.fromkeys(m for pid in ids for m in table[pid]))
        for metric in metrics:
            _require_metric(table, metric, kind)
        score = {pid: sum(_z(table[pid][m]) for m in metrics) / len(metrics)
                 for pid in ids}
        top = _top_by(ids, score)
    else:  # pragma: no cover - guarded by InstructionSpec
        raise ValueError(f"unknown instruction kind {kind!r}")

    return GroundTruth(experiment_id=instruction.experiment_id, top5=list(top),
                       instruction=instruction)


# -- selector scoring ---------------------------------------------------------------


def score_ranking(ranked: Sequence[str], gt: GroundTruth) -> dict[str, float]:
    """All twelve report columns for one (ranking, ground truth) pair."""
    gt_set = set(gt.top5)
    row: dict[str, float] = {}
    for k in (1, 3, 5):
        row[f"ndcg@{k}"] = ndcg_at_k(ranked, gt_set, k)
    for k in (1, 3, 5):
        row[f"prec@{k}"] = precision_at_k(ranked, gt_set, k)
    row["rank_corr"] = spearman_corr(ranked, gt)
    for k in (1, 3, 5):
        row[f"recall@{k}"] = recall_at_k(ranked, gt_set, k)
    row.update({k: float(v) for k, v in top1_metrics(ranked, gt).items()})
    return row


def evaluate_selector(rankings: Sequence[SelectorRanking],
                      gts: Sequence[GroundTruth]) -> dict[str, dict[str, float]]:
    """Macro-average the twelve columns per selector across instructions.

    Every ranking must match a ground truth by (experiment, instruction
    index); an unmatched ranking raises UnmatchedInstructionError.
    """
    gt_by_key = {(gt.experiment_id, gt.instruction_idx): gt for gt in gts}
    sums: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    order: list[str] = []
    for ranking in rankings:
        key = (ranking.experiment_id, ranking.instruction_idx)
        gt = gt_by_key.get(key)
        if gt is None:
            raise UnmatchedInstructionError(
                f"no ground truth for instruction {key[1]} of experiment "
                f"{key[0]!r}")
        row = score_ranking(ranking.ranked, gt)
        if ranking.selector_name not in sums:
            sums[ranking.selector_name] = {col: 0.0 for col in REPORT_COLUMNS}
            counts[ranking.selector_name] = 0
            order.append(ranking.selector_name)
        for col in REPORT_COLUMNS:
            sums[ranking.selector_name][col] += row[col]
        counts[ranking.selector_name] += 1
    return {
        name: {col: sums[name][col] / counts[name] for col in REPORT_COLUMNS}
        for name in order
    }


# -- file formats ---------------------------------------------------------------------


def save_instructions(path: str | Path, instructions: Sequence[InstructionSpec]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, instruction in enumerate(instructions):
            record = {"format_version": FORMAT_VERSION, "instruction_idx": idx}
            record.update(instruction.to_json())
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def load_instructions(path: str | Path) -> list[InstructionSpec]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            out.append(InstructionSpec(
                kind=data["kind"], primary_metric=data["primary_metric"],
                secondary_metric=data.get("secondary_metric"),
                experiment_id=data.get("experiment_id", "")))
    return out


def save_ground_truths(path: str | Path, gts: Sequence[GroundTruth]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "ground_truths": [
            {"experiment_id": gt.experiment_id,
             "instruction_idx": gt.instruction_idx,
             "top5": list(gt.top5)}
            for gt in gts
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ground_truths(path: str | Path) -> list[GroundTruth]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    records = payload["ground_truths"] if isinstance(payload, Mapping) else payload
    return [GroundTruth(experiment_id=r["experiment_id"], top5=list(r["top5"]),
                        instruction_idx=int(r["instruction_idx"]))
            for r in records]


def save_rankings(path: str | Path, rankings: Sequence[SelectorRanking]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in rankings:
            fh.write(json.dumps({
                "format_version": FORMAT_VERSION,
                "selector_name": ranking.selector_name,
                "experiment_id": ranking.experiment_id,
                "instruction_idx": ranking.instruction_idx,
                "ranked": list(ranking.ranked),
            }, sort_keys=True))
            fh.write("\n")


def load_rankings(path: str | Path) -> list[SelectorRanking]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            out.append(SelectorRanking(
                selector_name=data["selector_name"],
                experiment_id=data["experiment_id"],
                instruction_idx=int(data["instruction_idx"]),
                ranked=list(data["ranked"])))
    return out


def save_report(csv_path: str | Path, text_path: str | Path,
                report: Mapping[str, Mapping[str, float]]) -> None:
    """Write the selector report as CSV and aligned text."""
    import csv as _csv

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["selector", *REPORT_COLUMNS])
        for name, row in report.items():
            writer.writerow([name, *(f"{row[c]:.6f}" for c in REPORT_COLUMNS)])
    widths = [max(len(c), 9) for c in REPORT_COLUMNS]
    name_width = max([len("selector")] + [len(n) for n in report])
    lines = [f"# format_version: {FORMAT_VERSION}",
             "  ".join(["selector".ljust(name_width)]
                       + [c.rjust(w) for c, w in zip(REPORT_COLUMNS, widths)])]
    for name, row in report.items():
        lines.append("  ".join(
            [name.ljust(name_width)]
            + [f"{row[c]:.4f}".rjust(w) for c, w in zip(REPORT_COLUMNS, widths)]))
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
