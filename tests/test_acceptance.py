"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import functools
import json
import math
import time

import numpy as np
import pytest

from cohortpolicy.cli import main
from cohortpolicy.evaluation import (REPORT_COLUMNS, GroundTruth,
                                     SelectorRanking, evaluate_selector,
                                     ndcg_at_k, precision_at_k, recall_at_k,
                                     spearman_corr)
from cohortpolicy.frontier import (ToleranceConfig, strict_pareto_oracle,
                                   tolerance_filter)
from cohortpolicy.governance import (SIGNIFICANCE_Z, classify_stability,
                                     pre_search_filter, run_backtest)
from cohortpolicy.search import (collect_candidates, evaluate_policies,
                                 global_policies, sample_weights)
from cohortpolicy.segmentation import binary_split
from cohortpolicy.synth import (BenchmarkConfig, PlantedEffect, ScenarioConfig,
                                build_benchmark, conflict_scenario,
                                generate_daily_slices, generate_experiment,
                                stitch_days)

from conftest import make_policy


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {description}")
                raise
            print(f"[criterion {number}] PASS: {description}")
        return run
    return wrap


def random_policy_instance(rng, max_policies=50, max_metrics=4):
    n = int(rng.integers(2, max_policies + 1))
    k = int(rng.integers(1, max_metrics + 1))
    return [make_policy(f"p{i:02d}", list(rng.normal(size=k)),
                        list(rng.uniform(0.0, 0.5, size=k)))
            for i in range(n)]


@criterion(1, "tolerance filter at tau=0 equals the strict Pareto oracle on "
              "200 random instances in < 5 s")
def test_algorithm_fidelity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        policies = random_policy_instance(rng)
        filtered = set(tolerance_filter(policies,
                                        ToleranceConfig(tau=0.0)).admitted)
        assert filtered == strict_pareto_oracle(policies)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "every rank-1 policy from the weight search is weakly "
              "Pareto-optimal (100 instances, zero violations)")
def test_weight_search_soundness():
    rng = np.random.default_rng(1002)
    violations = 0
    for _ in range(100):
        policies = random_policy_instance(rng, max_policies=30)
        weights = sample_weights(len(policies[0].estimates),
                                 int(rng.integers(5, 40)),
                                 seed=int(rng.integers(0, 2**31)))
        result = collect_candidates(policies, weights,
                                    top_k=int(rng.integers(1, 6)))
        rank_one = {pid for pid, pairs in result.provenance.items()
                    if any(rank == 1 for _, rank in pairs)}
        # brute force, independent of the frontier module
        means = {p.policy_id: tuple(e.mean for e in p.estimates.values())
                 for p in policies}
        for pid in rank_one:
            mine = means[pid]
            for other, theirs in means.items():
                if other != pid and \
                        all(t >= m for t, m in zip(theirs, mine)) and \
                        any(t > m for t, m in zip(theirs, mine)):
                    violations += 1
    assert violations == 0


@criterion(3, "pre-search filter reproduces the stability-benchmark fixture "
              "verdicts under the <=15%/<=45% rule")
def test_governance_thresholds():
    fixtures = [
        ("s", 0.06, 0.02, True),
        ("f2", 0.16, 0.04, True),
        ("f3", 0.30, 0.12, True),   # passes on the binary basis
        ("f4", 0.50, 0.20, False),
        ("f5", None, 0.30, False),
    ]
    verdicts = [classify_stability(name, q, b) for name, q, b, _ in fixtures]
    _, admitted = pre_search_filter(verdicts)
    expected = [name for name, _, _, ok in fixtures if ok]
    assert admitted == expected
    rejected = [name for name, _, _, ok in fixtures if not ok]
    assert [v.feature for v in verdicts if v.status == "unstable"] == rejected


@criterion(4, "ranking metrics match a brute-force oracle on 1000 random "
              "pairs within 1e-9; hand-derived nDCG case = 0.91972")
def test_metric_correctness():
    hand = ndcg_at_k(["A", "B", "C"], {"A", "C"}, 3)
    assert abs(hand - 0.91972) <= 1e-5

    rng = np.random.default_rng(1004)
    ids = [f"p{i:02d}" for i in range(30)]
    for _ in range(1000):
        ranked = list(rng.permutation(ids))[: int(rng.integers(0, 15))]
        gt_list = list(rng.permutation(ids))[: int(rng.integers(0, 8))]
        gt_set = set(gt_list)
        truth = GroundTruth(experiment_id="e", top5=gt_list)
        for k in (1, 3, 5):
            dcg = sum((2 ** (1 if pid in gt_set else 0) - 1)
                      / math.log2(i + 2)
                      for i, pid in enumerate(ranked[:k]))
            idcg = sum(1 / math.log2(i + 2)
                       for i in range(min(k, len(gt_set))))
            expected_ndcg = dcg / idcg if idcg else 0.0
            assert abs(ndcg_at_k(ranked, gt_set, k) - expected_ndcg) <= 1e-9

            hits = len([p for p in ranked[:k] if p in gt_set])
            assert abs(precision_at_k(ranked, gt_set, k) - hits / k) <= 1e-9
            expected_recall = (hits / min(k, len(gt_set))) if gt_set else 0.0
            assert abs(recall_at_k(ranked, gt_set, k) - expected_recall) <= 1e-9

        common = [p for p in ranked if p in gt_set]
        if len(common) < 2:
            expected_rho = 0.0
        else:
            xr = {p: i for i, p in enumerate(common)}
            order = {p: i for i, p in enumerate(gt_list)}
            yr = {p: i for i, p in enumerate(
                sorted(common, key=lambda p: order[p]))}
            n = len(common)
            d2 = sum((xr[p] - yr[p]) ** 2 for p in common)
            expected_rho = 1 - 6 * d2 / (n * (n * n - 1))
        assert abs(spearman_corr(ranked, truth) - expected_rho) <= 1e-9


@criterion(5, "oracle-as-selector scores 1.0 on all twelve report columns "
              "over the default 20x5 benchmark in < 60 s")
def test_benchmark_self_consistency():
    start = time.perf_counter()
    bundle = build_benchmark(BenchmarkConfig())
    assert len(bundle.instructions) == 100
    assert all(len(gt.top5) == 5 for gt in bundle.ground_truths)
    rankings = [
        SelectorRanking(selector_name="oracle",
                        experiment_id=gt.experiment_id,
                        instruction_idx=gt.instruction_idx,
                        ranked=list(gt.top5))
        for gt in bundle.ground_truths
    ]
    report = evaluate_selector(rankings, bundle.ground_truths)
    for column in REPORT_COLUMNS:
        assert report["oracle"][column] == pytest.approx(1.0, abs=1e-12), column
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(6, "planted lifts recovered exactly without noise and within "
              "3 standard errors in >= 99% of 1000 noisy trials")
def test_planted_effect_recovery():
    noiseless = ScenarioConfig(
        seed=77, n_users=400, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=0.0,
        planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),))
    ds, _ = generate_experiment(noiseless)
    _, high = binary_split(ds, "f1", 2, 4)
    from cohortpolicy.experiment import segment_hte
    assert segment_hte(ds, high, "a1", "m1").mean == 2.0

    failures = 0
    for seed in range(1000):
        cfg = ScenarioConfig(
            seed=seed, n_users=250, n_features=1, n_metrics=1, n_actions=1,
            noise_sd=1.0,
            planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 1.0),))
        noisy, _ = generate_experiment(cfg)
        _, seg = binary_split(noisy, "f1", 2, 4)
        est = segment_hte(noisy, seg, "a1", "m1")
        if abs(est.mean - 1.0) > 3 * est.std_err:
            failures += 1
    assert failures <= 10, f"{failures} of 1000 trials outside 3 SE"


def conflict_config_file(tmp_path):
    scenario = conflict_scenario()
    path = tmp_path / "conflict_run.json"
    path.write_text(json.dumps({
        "seed": 7,
        "weight_samples": 300,
        "primary_metric": "m1",
        "scenario": {
            "seed": scenario.seed,
            "n_users": scenario.n_users,
            "n_features": scenario.n_features,
            "n_metrics": scenario.n_metrics,
            "n_actions": scenario.n_actions,
            "noise_sd": scenario.noise_sd,
            "n_days": scenario.n_days,
            "experiment_id": scenario.experiment_id,
            "planted_effects": [vars(e) for e in scenario.planted_effects],
            "drift_specs": [vars(d) for d in scenario.drift_specs],
        },
    }))
    return path


@criterion(7, "the pipeline resolves the two-metric conflict with a cohort "
              "policy (significant primary lift, neutral secondary) where "
              "every global policy fails")
def test_end_to_end_conflict(tmp_path):
    config = conflict_config_file(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0

    rec = json.loads((out / "recommendation.json").read_text())
    policy = rec["policy"]
    assert policy is not None
    m1 = policy["estimates"]["m1"]
    m2 = policy["estimates"]["m2"]
    assert m1["mean"] > 0
    assert m1["mean"] >= SIGNIFICANCE_Z * m1["std_err"]
    assert abs(m2["mean"]) <= SIGNIFICANCE_Z * m2["std_err"]
    assert len(policy["assignment"]) > 1  # a cohort policy, not a global one

    ds, _ = generate_experiment(conflict_scenario())
    for global_policy in evaluate_policies(ds, global_policies(ds)):
        g1 = global_policy.estimates["m1"]
        g2 = global_policy.estimates["m2"]
        ok_primary = g1.mean > 0 and g1.mean >= SIGNIFICANCE_Z * g1.std_err
        ok_neutral = abs(g2.mean) <= SIGNIFICANCE_Z * g2.std_err
        assert not (ok_primary and ok_neutral), global_policy.policy_id


@criterion(8, "same seed, repeated runs: byte-identical run directories")
def test_determinism_across_runs(tmp_path):
    config = conflict_config_file(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["pipeline", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@criterion(9, "backtest passes stationary planted data within the 2-SE "
              "envelope and rejects decaying data")
def test_backtest_behavior():
    cfg = ScenarioConfig(
        seed=909, n_users=400, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=0.5,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 1.5),))
    ds, _ = generate_experiment(cfg)
    policy = evaluate_policies(ds, [global_policies(ds)[1]])[0]

    stationary = generate_daily_slices(cfg, n_days=14)
    series, report = run_backtest(policy, stitch_days(stationary), ["m1"])
    assert not report.rejected
    final = series.cumulative[-1]["m1"]
    ref = policy.estimates["m1"]
    band = 2 * math.sqrt(final.std_err ** 2 + ref.std_err ** 2)
    assert abs(final.mean - ref.mean) <= band

    decaying = generate_daily_slices(cfg, n_days=14,
                                     lift_schedule=[1.0] * 4 + [0.0] * 10)
    _, rejected = run_backtest(policy, stitch_days(decaying), ["m1"])
    assert rejected.rejected