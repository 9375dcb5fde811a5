import math

import numpy as np
import pytest

from cohortpolicy.errors import UnmatchedInstructionError
from cohortpolicy.evaluation import (REPORT_COLUMNS, GroundTruth,
                                     InstructionSpec, SelectorRanking,
                                     evaluate_selector, ground_truth_oracle,
                                     load_ground_truths, load_instructions,
                                     load_rankings, ndcg_at_k, precision_at_k,
                                     recall_at_k, save_ground_truths,
                                     save_instructions, save_rankings,
                                     score_ranking, spearman_corr,
                                     top1_metrics)
from cohortpolicy.experiment import MetricEstimate
from cohortpolicy.frontier import weak_pareto_ids
from cohortpolicy.synth import BenchmarkConfig, build_benchmark


def gt(top5, experiment_id="e1", idx=0):
    return GroundTruth(experiment_id=experiment_id, top5=list(top5),
                       instruction_idx=idx)


def table_from(rows):
    """rows: {policy_id: [(mean, std_err) per metric]}"""
    out = {}
    for pid, pairs in rows.items():
        out[pid] = {f"m{i + 1}": MetricEstimate(mean=m, std_err=s)
                    for i, (m, s) in enumerate(pairs)}
    return out


# -- brute-force metric oracles (kept deliberately naive) ---------------------------


def oracle_ndcg(ranked, gt_set, k):
    dcg = 0.0
    for i in range(min(k, len(ranked))):
        rel = 1 if ranked[i] in gt_set else 0
        dcg += (2 ** rel - 1) / math.log2(i + 2)
    ideal = 0.0
    for i in range(min(k, len(gt_set))):
        ideal += (2 ** 1 - 1) / math.log2(i + 2)
    return dcg / ideal if ideal > 0 else 0.0


def oracle_precision(ranked, gt_set, k):
    return len([p for p in ranked[:k] if p in gt_set]) / k


def oracle_recall(ranked, gt_set, k):
    if not gt_set:
        return 0.0
    return len([p for p in ranked[:k] if p in gt_set]) / min(k, len(gt_set))


def oracle_spearman(ranked, gt_list):
    common = [p for p in ranked if p in set(gt_list)]
    if len(common) < 2:
        return 0.0
    xs = [ranked.index(p) for p in common]
    ys = [gt_list.index(p) for p in common]
    n = len(common)
    # distinct ranks on both sides: the classic 6*sum(d^2) formula is exact
    d2 = sum((rx - ry) ** 2 for rx, ry in zip(
        sorted(range(n), key=lambda i: xs[i]),
        sorted(range(n), key=lambda i: ys[i])))
    xr = {p: r for r, p in enumerate(sorted(common, key=lambda p: ranked.index(p)))}
    yr = {p: r for r, p in enumerate(sorted(common, key=lambda p: gt_list.index(p)))}
    d2 = sum((xr[p] - yr[p]) ** 2 for p in common)
    return 1 - 6 * d2 / (n * (n ** 2 - 1))


# -- metric examples ----------------------------------------------------------------


def test_ndcg_ideal_ranking_is_one():
    assert ndcg_at_k(["a", "b", "c"], {"a", "b", "c"}, 3) == 1.0
    assert ndcg_at_k(["a", "b"], {"a", "b"}, 5) == 1.0


def test_ndcg_hand_derived_case():
    # [A, B, C] vs {A, C}: (1 + 1/log2(4)) / (1 + 1/log2(3))
    value = ndcg_at_k(["A", "B", "C"], {"A", "C"}, 3)
    assert value == pytest.approx(0.91972, abs=1e-5)
    assert value == pytest.approx(1.5 / (1 + 1 / math.log2(3)), abs=1e-12)


def test_ndcg_zero_overlap():
    assert ndcg_at_k(["x", "y"], {"a", "b"}, 3) == 0.0


def test_ndcg_empty_gt_is_zero():
    assert ndcg_at_k(["a"], set(), 3) == 0.0


def test_precision_recall_examples():
    assert precision_at_k(["a", "x", "y"], {"a"}, 1) == 1.0
    assert recall_at_k(["g1", "g2", "g3", "x", "y"],
                       {"g1", "g2", "g3", "g4", "g5"}, 5) == 0.6
    # short rankings keep the k denominator
    assert precision_at_k(["a"], {"a", "b"}, 5) == 1 / 5
    assert recall_at_k([], {"a"}, 3) == 0.0


def test_recall_monotone_beyond_gt_size():
    # The capped denominator makes recall non-decreasing once k >= |gt|.
    ranked = ["a", "x", "b", "y", "c", "z", "w"]
    gt_set = {"a", "b", "c"}
    values = [recall_at_k(ranked, gt_set, k) for k in range(3, 8)]
    assert values == sorted(values)
    assert recall_at_k(ranked, gt_set, 1) == 1.0  # top-1 hit saturates at k=1


def test_metrics_invariant_to_gt_order():
    ranked = ["a", "b", "c", "d"]
    assert ndcg_at_k(ranked, ["d", "a"], 4) == ndcg_at_k(ranked, ["a", "d"], 4)
    assert precision_at_k(ranked, ("d", "a"), 2) == \
        precision_at_k(ranked, ("a", "d"), 2)


def test_ndcg_degrades_when_relevant_moves_down():
    gt_set = {"a"}
    better = ndcg_at_k(["a", "x", "y"], gt_set, 3)
    worse = ndcg_at_k(["x", "a", "y"], gt_set, 3)
    worst = ndcg_at_k(["x", "y", "a"], gt_set, 3)
    assert better > worse > worst


def test_top1_cases():
    truth = gt(["a", "b", "c"])
    assert top1_metrics(["a"], truth) == {"top1_acc": 1, "top1_in_gt": 1}
    assert top1_metrics(["c"], truth) == {"top1_acc": 0, "top1_in_gt": 1}
    assert top1_metrics(["z"], truth) == {"top1_acc": 0, "top1_in_gt": 0}
    assert top1_metrics([], truth) == {"top1_acc": 0, "top1_in_gt": 0}


def test_spearman_identical_and_reversed():
    truth = gt(["a", "b", "c", "d"])
    assert spearman_corr(["a", "b", "c", "d"], truth) == pytest.approx(1.0)
    assert spearman_corr(["d", "c", "b", "a"], truth) == pytest.approx(-1.0)


def test_spearman_single_common_item_is_zero():
    assert spearman_corr(["a", "x"], gt(["a", "b"])) == 0.0
    assert spearman_corr([], gt(["a"])) == 0.0


def test_metrics_match_brute_force_oracles(rng):
    ids = [f"p{i:02d}" for i in range(20)]
    for _ in range(300):
        ranked = list(rng.permutation(ids))[: int(rng.integers(0, 12))]
        gt_list = list(rng.permutation(ids))[: int(rng.integers(0, 6))]
        truth = gt(gt_list)
        for k in (1, 3, 5):
            assert ndcg_at_k(ranked, set(gt_list), k) == pytest.approx(
                oracle_ndcg(ranked, set(gt_list), k), abs=1e-9)
            assert precision_at_k(ranked, set(gt_list), k) == pytest.approx(
                oracle_precision(ranked, set(gt_list), k), abs=1e-9)
            assert recall_at_k(ranked, set(gt_list), k) == pytest.approx(
                oracle_recall(ranked, set(gt_list), k), abs=1e-9)
        assert spearman_corr(ranked, truth) == pytest.approx(
            oracle_spearman(ranked, gt_list), abs=1e-9)
        # range invariants: everything in [0, 1] except Spearman in [-1, 1]
        row = score_ranking(ranked, truth)
        for column, value in row.items():
            low = -1.0 if column == "rank_corr" else 0.0
            assert low <= value <= 1.0, (column, value)


# -- ground-truth oracle ---------------------------------------------------------------


def test_single_policy_any_kind():
    table = table_from({"only": [(1.0, 0.1), (0.5, 0.1)]})
    for kind in ("maximize_both", "maximize_with_constraint",
                 "tradeoff_analysis", "efficiency_optimization"):
        spec = InstructionSpec(kind=kind, primary_metric="m1",
                               secondary_metric="m2", experiment_id="e1")
        assert ground_truth_oracle(spec, table).top5 == ["only"]
    spec = InstructionSpec(kind="single_metric", primary_metric="m1")
    assert ground_truth_oracle(spec, table).top5 == ["only"]


def test_single_metric_sorts_by_mean():
    table = table_from({"a": [(3.0, 0.1)], "b": [(1.0, 0.1)], "c": [(2.0, 0.1)]})
    spec = InstructionSpec(kind="single_metric", primary_metric="m1")
    assert ground_truth_oracle(spec, table).top5 == ["a", "c", "b"]


def test_single_metric_ties_break_by_id():
    table = table_from({"b": [(1.0, 0.1)], "a": [(1.0, 0.1)]})
    spec = InstructionSpec(kind="single_metric", primary_metric="m1")
    assert ground_truth_oracle(spec, table).top5 == ["a", "b"]


def test_constraint_excludes_significant_regression():
    # best primary policy regresses m2 by -1.0 +/- 0.1: -1 + 0.196 < 0
    table = table_from({
        "best_primary": [(5.0, 0.1), (-1.0, 0.1)],
        "safe1": [(1.0, 0.1), (0.0, 0.1)],
        "safe2": [(0.5, 0.1), (0.5, 0.1)],
    })
    spec = InstructionSpec(kind="maximize_with_constraint",
                           primary_metric="m1", secondary_metric="m2")
    top = ground_truth_oracle(spec, table).top5
    assert "best_primary" not in top
    assert top == ["safe1", "safe2"]


def test_constraint_keeps_borderline():
    # -0.1 + 1.96 * 0.1 >= 0: not significantly negative, stays eligible
    table = table_from({"edge": [(1.0, 0.1), (-0.1, 0.1)]})
    spec = InstructionSpec(kind="maximize_with_constraint",
                           primary_metric="m1", secondary_metric="m2")
    assert ground_truth_oracle(spec, table).top5 == ["edge"]


def test_maximize_both_prefers_joint_z():
    table = table_from({
        "both": [(1.0, 0.1), (1.0, 0.1)],
        "lopsided": [(5.0, 0.1), (-2.0, 0.1)],
        "weak": [(0.1, 0.1), (0.1, 0.1)],
    })
    spec = InstructionSpec(kind="maximize_both", primary_metric="m1",
                           secondary_metric="m2")
    top = ground_truth_oracle(spec, table).top5
    # qualifying (non-negative on both) come first, by z sum
    assert top[:2] == ["both", "weak"]
    assert top[2] == "lopsided"  # unconstrained fill when < 5 qualify


def test_tradeoff_extremes_then_spread():
    table = table_from({
        "ext1": [(1.0, 0.1), (0.0, 0.1)],
        "ext2": [(0.0, 0.1), (1.0, 0.1)],
        "mid": [(0.55, 0.1), (0.55, 0.1)],
        "near_ext1": [(0.95, 0.1), (0.30, 0.1)],
        "near_ext2": [(0.30, 0.1), (0.95, 0.1)],
        "mid2": [(0.60, 0.1), (0.50, 0.1)],
        "dominated": [(0.1, 0.1), (0.1, 0.1)],
    })
    spec = InstructionSpec(kind="tradeoff_analysis", primary_metric="m1",
                           secondary_metric="m2")
    top = ground_truth_oracle(spec, table).top5
    assert top[0] == "ext1" and top[1] == "ext2"
    assert "dominated" not in top
    assert top[2] == "mid"  # farthest from both extremes
    assert len(top) == 5


def test_efficiency_uses_all_metric_z_scores():
    table = table_from({
        "balanced": [(1.0, 0.1), (1.0, 0.1)],
        "spiky": [(3.0, 1.0), (-1.0, 0.1)],
    })
    spec = InstructionSpec(kind="efficiency_optimization", primary_metric="m1",
                           secondary_metric="m2")
    top = ground_truth_oracle(spec, table).top5
    # balanced: (10 + 10)/2 = 10; spiky: (3 - 10)/2 = -3.5
    assert top == ["balanced", "spiky"]


@pytest.mark.parametrize("lacking", ["a", "b"])
def test_efficiency_requires_every_metric(lacking):
    # The first policy in id order lacking m3, or a later one: either way
    # the policy and the metric are named.
    rows = {"a": [(1.0, 0.1), (0.5, 0.1), (0.2, 0.1)],
            "b": [(0.3, 0.1), (0.4, 0.1), (0.1, 0.1)]}
    rows[lacking] = rows[lacking][:2]
    spec = InstructionSpec(kind="efficiency_optimization", primary_metric="m1",
                           secondary_metric="m2")
    with pytest.raises(ValueError,
                       match=f"policy '{lacking}' has no estimate for metric 'm3'"):
        ground_truth_oracle(spec, table_from(rows))


def test_oracle_pure_function_row_order():
    rows = {"a": [(1.0, 0.1), (0.2, 0.1)], "b": [(0.5, 0.2), (0.9, 0.1)],
            "c": [(0.7, 0.1), (0.7, 0.1)]}
    spec = InstructionSpec(kind="efficiency_optimization", primary_metric="m1",
                           secondary_metric="m2")
    forward = ground_truth_oracle(spec, table_from(rows))
    backward = ground_truth_oracle(
        spec, table_from(dict(reversed(list(rows.items())))))
    assert forward.top5 == backward.top5


def test_instruction_validation():
    with pytest.raises(ValueError):
        InstructionSpec(kind="maximize_both", primary_metric="m1")
    with pytest.raises(ValueError):
        InstructionSpec(kind="single_metric", primary_metric="m1",
                        secondary_metric="m2")
    with pytest.raises(ValueError):
        InstructionSpec(kind="mystery", primary_metric="m1")


# -- the oracle against its pre-sweep algorithm ------------------------------------------


def reference_maximize_both(ids, table, primary, secondary):
    def z(est):
        return est.mean / max(est.std_err, 1e-9)

    score = {pid: z(table[pid][primary]) + z(table[pid][secondary]) for pid in ids}
    eligible = [pid for pid in ids
                if table[pid][primary].mean >= 0 and table[pid][secondary].mean >= 0]
    top = sorted(eligible, key=lambda pid: (-score[pid], pid))[:5]
    if len(top) < 5:
        rest = [pid for pid in ids if pid not in set(top)]
        top += sorted(rest, key=lambda pid: (-score[pid], pid))[:5 - len(top)]
    return top


def reference_tradeoff(table, primary, secondary):
    means = {pid: (table[pid][primary].mean, table[pid][secondary].mean)
             for pid in table}
    pareto = sorted(weak_pareto_ids(means))
    if len(pareto) <= 5:
        return sorted(pareto, key=lambda pid: (-means[pid][0], pid))
    lo = [min(means[p][i] for p in pareto) for i in (0, 1)]
    hi = [max(means[p][i] for p in pareto) for i in (0, 1)]
    span = [max(hi[i] - lo[i], 1e-9) for i in (0, 1)]

    def norm(pid):
        return tuple((means[pid][i] - lo[i]) / span[i] for i in (0, 1))

    chosen = [min(pareto, key=lambda pid: (-means[pid][0], pid))]
    extreme_secondary = min(pareto, key=lambda pid: (-means[pid][1], pid))
    if extreme_secondary != chosen[0]:
        chosen.append(extreme_secondary)
    remaining = [pid for pid in pareto if pid not in chosen]
    while len(chosen) < 5 and remaining:
        best = min(remaining, key=lambda pid: (
            -min(math.dist(norm(pid), norm(c)) for c in chosen), pid))
        chosen.append(best)
        remaining.remove(best)
    return chosen


def reference_efficiency(ids, table):
    metrics = tuple(table[ids[0]])
    score = {pid: float(np.mean([table[pid][m].mean / max(table[pid][m].std_err, 1e-9)
                                 for m in metrics]))
             for pid in ids}
    return sorted(ids, key=lambda pid: (-score[pid], pid))[:5]


@pytest.mark.parametrize("n_metrics", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_ground_truths_match_pre_sweep_algorithm(seed, n_metrics):
    bundle = build_benchmark(BenchmarkConfig(
        seed=seed, n_experiments=4, n_users=600, n_metrics=n_metrics,
        n_actions=3, policy_budget=48))
    checked = set()
    for truth, spec in zip(bundle.ground_truths, bundle.instructions):
        table = bundle.policy_tables[truth.experiment_id]
        ids = sorted(table)
        primary, secondary = spec.primary_metric, spec.secondary_metric
        if spec.kind == "maximize_both":
            expected = reference_maximize_both(ids, table, primary, secondary)
        elif spec.kind == "tradeoff_analysis":
            expected = reference_tradeoff(table, primary, secondary)
        elif spec.kind == "efficiency_optimization":
            expected = reference_efficiency(ids, table)
        else:
            continue
        assert truth.top5 == expected, (spec.kind, truth.experiment_id)
        assert len(expected) == 5
        checked.add(spec.kind)
    assert checked == {"maximize_both", "tradeoff_analysis",
                       "efficiency_optimization"}


# -- selector scoring --------------------------------------------------------------------


def test_oracle_as_selector_scores_one():
    rng = np.random.default_rng(44)
    table = table_from({f"p{i:02d}": [(float(m1), 0.1), (float(m2), 0.1)]
                        for i, (m1, m2) in enumerate(rng.normal(size=(30, 2)))})
    gts, rankings = [], []
    for idx, kind in enumerate(("single_metric", "efficiency_optimization")):
        spec = InstructionSpec(
            kind=kind, primary_metric="m1",
            secondary_metric=None if kind == "single_metric" else "m2",
            experiment_id="e1")
        truth = ground_truth_oracle(spec, table)
        truth.instruction_idx = idx
        gts.append(truth)
        rankings.append(SelectorRanking(selector_name="oracle",
                                        experiment_id="e1",
                                        instruction_idx=idx,
                                        ranked=list(truth.top5)))
    report = evaluate_selector(rankings, gts)
    assert set(report) == {"oracle"}
    for column in REPORT_COLUMNS:
        assert report["oracle"][column] == pytest.approx(1.0)


def test_bogus_selector_scores_zero():
    truth = gt(["a", "b", "c", "d", "e"])
    ranking = SelectorRanking(selector_name="bogus", experiment_id="e1",
                              instruction_idx=0, ranked=["zzz"])
    report = evaluate_selector([ranking], [truth])
    for column in REPORT_COLUMNS:
        assert report["bogus"][column] == 0.0


def test_random_selector_recall_matches_expectation(rng):
    # E[recall@5] = 5/|P| when 5 of |P| policies are relevant and the
    # ranking is a uniform permutation.
    n_policies = 40
    ids = [f"p{i:02d}" for i in range(n_policies)]
    total = 0.0
    trials = 400
    for t in range(trials):
        truth = gt(list(rng.choice(ids, size=5, replace=False)), idx=t)
        ranked = list(rng.permutation(ids))
        ranking = SelectorRanking(selector_name="random", experiment_id="e1",
                                  instruction_idx=t, ranked=ranked)
        total += evaluate_selector([ranking], [truth])["random"]["recall@5"]
    assert total / trials == pytest.approx(5 / n_policies, abs=0.03)


def test_unmatched_ranking_errors():
    ranking = SelectorRanking(selector_name="s", experiment_id="e1",
                              instruction_idx=9, ranked=["a"])
    with pytest.raises(UnmatchedInstructionError):
        evaluate_selector([ranking], [gt(["a"], idx=0)])


def test_selector_order_preserved():
    truth = gt(["a"])
    rankings = [
        SelectorRanking("zeta", "e1", 0, ["a"]),
        SelectorRanking("alpha", "e1", 0, ["a"]),
    ]
    report = evaluate_selector(rankings, [truth])
    assert list(report) == ["zeta", "alpha"]


def test_duplicate_ranking_ids_rejected():
    with pytest.raises(ValueError):
        SelectorRanking("s", "e1", 0, ["a", "a"])


# -- file round trips ------------------------------------------------------------------


def test_instruction_and_gt_round_trip(tmp_path):
    instructions = [
        InstructionSpec(kind="single_metric", primary_metric="m1",
                        experiment_id="e1"),
        InstructionSpec(kind="tradeoff_analysis", primary_metric="m1",
                        secondary_metric="m2", experiment_id="e2"),
    ]
    save_instructions(tmp_path / "instructions.jsonl", instructions)
    loaded = load_instructions(tmp_path / "instructions.jsonl")
    assert [i.kind for i in loaded] == [i.kind for i in instructions]

    gts = [gt(["a", "b"], "e1", 0), gt(["c"], "e2", 1)]
    save_ground_truths(tmp_path / "gt.json", gts)
    loaded_gts = load_ground_truths(tmp_path / "gt.json")
    assert [g.top5 for g in loaded_gts] == [["a", "b"], ["c"]]

    rankings = [SelectorRanking("s", "e1", 0, ["a", "b"])]
    save_rankings(tmp_path / "rankings.jsonl", rankings)
    loaded_rankings = load_rankings(tmp_path / "rankings.jsonl")
    assert loaded_rankings[0].ranked == ["a", "b"]
    assert loaded_rankings[0].selector_name == "s"
