"""Ranking metrics, the five-instruction ground-truth oracle, and selector
scoring.

External selectors plug in as files: rankings arrive as JSONL records and
are scored against oracle ground truths on the twelve report columns
(nDCG@{1,3,5}, Precision@{1,3,5}, rank correlation, Recall@{1,3,5}, Top-1
accuracy, Top-1 in ground truth).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import UnmatchedInstructionError
from .experiment import MetricEstimate
from .frontier import weak_pareto_mask_2d
from .ingest import (VERSION_LINE, read_json, read_jsonl, write_csv, write_json,
                     write_jsonl)
from .search import PolicyTable, policy_columns

Estimates = Mapping[str, Mapping[str, MetricEstimate]]

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


def _z(mean: np.ndarray, std_err: np.ndarray) -> np.ndarray:
    return mean / np.maximum(std_err, SIGMA_FLOOR)


def _top_by(ids: Sequence[str], score: np.ndarray,
            eligible: np.ndarray | None = None, n: int = GT_SIZE) -> list[str]:
    # The first n ids by descending score, ties by ascending id (rows are
    # in id order); eligible rows all rank before ineligible ones.
    keys = (np.arange(score.size), -score)
    if eligible is not None:
        keys += (~eligible,)
    return [ids[i] for i in np.lexsort(keys)[:n].tolist()]


def _tradeoff_spread(ids: Sequence[str], x: np.ndarray, y: np.ndarray) -> list[str]:
    pareto = np.flatnonzero(weak_pareto_mask_2d(x, y))
    if len(pareto) <= GT_SIZE:
        return [ids[i] for i in pareto[np.lexsort((pareto, -x[pareto]))]]
    # Positions into the Pareto set, which is in id order, stand for ids.
    xs, ys = x[pareto].tolist(), y[pareto].tolist()
    lo = (min(xs), min(ys))
    span = (max(max(xs) - lo[0], SIGMA_FLOOR), max(max(ys) - lo[1], SIGMA_FLOOR))
    points = [((a - lo[0]) / span[0], (b - lo[1]) / span[1]) for a, b in zip(xs, ys)]
    extreme_primary = min(range(len(xs)), key=lambda j: (-xs[j], j))
    extreme_secondary = min(range(len(ys)), key=lambda j: (-ys[j], j))
    chosen = [extreme_primary]
    if extreme_secondary != extreme_primary:
        chosen.append(extreme_secondary)
    remaining = [j for j in range(len(xs)) if j not in chosen]
    while len(chosen) < GT_SIZE and remaining:
        best = min(
            remaining,
            key=lambda j: (-min(math.dist(points[j], points[c]) for c in chosen), j),
        )
        chosen.append(best)
        remaining.remove(best)
    return [ids[pareto[j]] for j in chosen]


def ground_truth_oracle(instruction: InstructionSpec, table: Estimates) -> GroundTruth:
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

    `table` is a PolicyTable or any {policy_id: {metric: MetricEstimate}}
    mapping; either way the scores and rankings are array passes over its
    id-sorted columns.
    """
    kind = instruction.kind
    if not table:
        return GroundTruth(experiment_id=instruction.experiment_id, top5=[],
                           instruction=instruction)
    primary = instruction.primary_metric
    named = ((primary, instruction.secondary_metric) if kind in _TWO_METRIC_KINDS
             else (primary,))
    if not all(named):
        raise ValueError(f"{kind} requires a metric id")
    if kind == EFFICIENCY_OPTIMIZATION:
        # Every policy must carry every scored metric; the first policy's
        # order fixes the summation order.
        policy_columns(table, named)
        named = (table.metrics if isinstance(table, PolicyTable) else
                 tuple(dict.fromkeys(m for pid in sorted(table) for m in table[pid])))
    ids, _, mean, std_err = policy_columns(table, named)

    if kind == SINGLE_METRIC:
        top = _top_by(ids, mean[:, 0])
    elif kind == MAXIMIZE_WITH_CONSTRAINT:
        eligible = mean[:, 1] + CONSTRAINT_Z * std_err[:, 1] >= 0
        top = _top_by(ids, mean[:, 0], eligible, min(GT_SIZE, int(eligible.sum())))
    elif kind == MAXIMIZE_BOTH:
        z = _z(mean, std_err)
        top = _top_by(ids, z[:, 0] + z[:, 1], (mean[:, 0] >= 0) & (mean[:, 1] >= 0))
    elif kind == TRADEOFF_ANALYSIS:
        top = _tradeoff_spread(ids, mean[:, 0], mean[:, 1])
    elif kind == EFFICIENCY_OPTIMIZATION:
        # Summed left to right from 0, as Python's sum() does.
        total = np.zeros(len(ids))
        for column in _z(mean, std_err).T:
            total = total + column
        top = _top_by(ids, total / mean.shape[1])
    else:  # pragma: no cover - guarded by InstructionSpec
        raise ValueError(f"unknown instruction kind {kind!r}")
    return GroundTruth(experiment_id=instruction.experiment_id, top5=top,
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
    write_jsonl(path, ({"instruction_idx": idx, **instruction.to_json()}
                       for idx, instruction in enumerate(instructions)))


@dataclass
class _IndexedInstruction(InstructionSpec):
    """One instructions.jsonl record: an instruction and its index."""

    instruction_idx: int = field(kw_only=True)


def load_instructions(path: str | Path) -> list[InstructionSpec]:
    return [InstructionSpec(r.kind, r.primary_metric, r.secondary_metric,
                            r.experiment_id)
            for r in read_jsonl(path, _IndexedInstruction)]


def save_ground_truths(path: str | Path, gts: Sequence[GroundTruth]) -> None:
    write_json(path, {"ground_truths": [
        {"experiment_id": gt.experiment_id,
         "instruction_idx": gt.instruction_idx,
         "top5": list(gt.top5)}
        for gt in gts
    ]})


@dataclass
class _GroundTruthFile:
    """The ground_truth.json object."""

    ground_truths: list[GroundTruth]


def load_ground_truths(path: str | Path) -> list[GroundTruth]:
    return read_json(path, _GroundTruthFile).ground_truths


def save_rankings(path: str | Path, rankings: Sequence[SelectorRanking]) -> None:
    write_jsonl(path, map(asdict, rankings))


def load_rankings(path: str | Path) -> list[SelectorRanking]:
    return read_jsonl(path, SelectorRanking)


def save_report(csv_path: str | Path, text_path: str | Path,
                report: Mapping[str, Mapping[str, float]]) -> None:
    """Write the selector report as CSV and aligned text."""
    write_csv(csv_path, ["selector", *REPORT_COLUMNS],
              [list(report), *([f"{row[c]:.6f}" for row in report.values()]
                               for c in REPORT_COLUMNS)])
    widths = [max(len(c), 9) for c in REPORT_COLUMNS]
    name_width = max([len("selector")] + [len(n) for n in report])
    lines = [VERSION_LINE,
             "  ".join(["selector".ljust(name_width)]
                       + [c.rjust(w) for c, w in zip(REPORT_COLUMNS, widths)])]
    for name, row in report.items():
        lines.append("  ".join(
            [name.ljust(name_width)]
            + [f"{row[c]:.4f}".rjust(w) for c, w in zip(REPORT_COLUMNS, widths)]))
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
