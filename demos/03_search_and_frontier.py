"""Policy search and the tolerance-based Pareto frontier.

Enumerates segment->action policies over a conflicted two-metric
experiment, collects candidates by random-weight scalarized Top-K, and
compares strict Pareto filtering (tau=0) with tolerance-based near-frontier
admission (tau>0).
"""

from cohortpolicy import (ToleranceConfig, collect_candidates,
                          conflict_scenario, enumerate_cuts,
                          enumerate_policies, evaluate_policies,
                          generate_experiment, sample_weights,
                          strict_pareto_oracle, tolerance_filter)

ds, _ = generate_experiment(conflict_scenario(n_users=6000))
print(f"conflict experiment: {ds.n_users} users, metrics {ds.metrics}")
print("a1 helps m1 for active users but hurts m2 for inactive users;")
print("a2 is the mirror image, so global treatments are zero-sum.\n")

cuts = enumerate_cuts(ds, {"features": ["f1"], "n_bins": 4})
policies = evaluate_policies(
    ds, enumerate_policies(ds, cuts, budget=128, seed=7))
print(f"{len(policies)} candidate policies over {len(cuts)} cut families")

weights = sample_weights(len(ds.metrics), 500, seed=7)
candidates = collect_candidates(policies, weights, top_k=5,
                                metrics=ds.metrics)
print(f"random-weight search (W=500, K=5) kept "
      f"{len(candidates.policy_ids)} distinct candidates\n")

by_id = {p.policy_id: p for p in policies}
chosen = [by_id[pid] for pid in candidates.policy_ids]

strict = strict_pareto_oracle(chosen, metrics=ds.metrics)
print(f"strict weak-Pareto set (oracle): {len(strict)} policies")

for tau in (0.0, 1.0, 2.0):
    result = tolerance_filter(chosen, ToleranceConfig(tau=tau),
                              metrics=ds.metrics)
    print(f"tolerance filter tau={tau}: {len(result.admitted)} admitted")
print("tau=0 reproduces the strict set exactly; larger tau forgives")
print("deficits within tau*sigma, admitting near-frontier policies that")
print("pure scalarization would discard.\n")

result = tolerance_filter(chosen, ToleranceConfig(tau=1.0), metrics=ds.metrics)
print("admitted frontier at tau=1 (mean m1, mean m2):")
for pid in result.admitted:
    est = by_id[pid].estimates
    print(f"  {pid:28} ({est['m1'].mean:+.3f}, {est['m2'].mean:+.3f})")

rejected = sorted(result.dominated_by.items())[:3]
print("\nfirst rejections (policy -> first dominator in id order):")
for pid, dominator in rejected:
    print(f"  {pid} -> {dominator}")
