"""Deterministic lifecycle governance.

Feature-stability screening on user-cohort shift ratios, temporal-slice
robustness, and the daily backtest, on synthetic data with one stable and
one drifting feature.
"""

from cohortpolicy import (DriftSpec, PlantedEffect, ScenarioConfig,
                          classify_stability, generate_daily_slices,
                          generate_experiment, generate_snapshots,
                          pre_search_filter, robustness_check, run_backtest,
                          shift_ratio, stitch_days)
from cohortpolicy.search import evaluate_policies, global_policies

print("=" * 70)
print("1. User-cohort shift ratios over a 6-month snapshot pair")
print("=" * 70)

ds, _ = generate_experiment(ScenarioConfig(seed=3, n_users=2000, n_features=2))
drifts = {"f1": DriftSpec("f1", 0.04), "f2": DriftSpec("f2", 0.50)}
verdicts = []
for feature, drift in drifts.items():
    pair = generate_snapshots(ds, drift, seed=11)
    quantile_shift = shift_ratio(pair, "quantile")   # 4 equal buckets
    binary_shift = shift_ratio(pair, "binary")       # p25/p75 thresholds
    verdict = classify_stability(feature, quantile_shift, binary_shift)
    verdicts.append(verdict)
    print(f"{feature}: quantile shift {quantile_shift:5.1%}, "
          f"binary shift {binary_shift:5.1%} -> {verdict.status}")

print()
print("=" * 70)
print("2. Pre-search filter (admit if binary <= 15% or quantile <= 45%)")
print("=" * 70)

report, admitted = pre_search_filter(verdicts)
print(f"verdict: {report.verdict}; admitted features: {admitted}")
print(f"narrative: {report.narrative}")

print()
print("=" * 70)
print("3. Robustness across temporal slices, then the daily backtest")
print("=" * 70)

cfg = ScenarioConfig(
    seed=21, n_users=600, n_features=1, n_metrics=1, n_actions=1,
    noise_sd=0.5,
    planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 1.2),))
ds, _ = generate_experiment(cfg)
policy = evaluate_policies(ds, [global_policies(ds)[1]])[0]
print(f"policy {policy.policy_id}: search-window lift "
      f"{policy.estimates['m1'].mean:+.3f} ± {policy.estimates['m1'].std_err:.3f}")

daily = generate_daily_slices(cfg, n_days=14)
slices = [evaluate_policies(d, [policy])[0].estimates for d in daily[::4]]
rob = robustness_check(policy, slices, ["m1"])
print(f"robustness over {len(slices)} slices: {rob.verdict} ({rob.narrative})")

series, backtest = run_backtest(policy, stitch_days(daily), ["m1"])
print(f"backtest over {len(series.days)} days: {backtest.verdict} "
      f"({backtest.narrative})")
print("cumulative lift by day:",
      " ".join(f"{c['m1'].mean:+.2f}" for c in series.cumulative))

print()
print("the same policy backtested on a window where the effect decayed away:")
decayed = generate_daily_slices(cfg, n_days=14,
                                lift_schedule=[1.0] * 4 + [0.0] * 10)
_, rejected = run_backtest(policy, stitch_days(decayed), ["m1"])
print(f"verdict: {rejected.verdict}, codes {rejected.reason_codes}")
print(f"narrative: {rejected.narrative}")
