"""Quantile-based cohort segmentation.

Shows nearest-rank quantiles, individual (N-bin) and binary splits, tie
handling, and cut-family enumeration.
"""

from cohortpolicy import (ScenarioConfig, binary_split, enumerate_cuts,
                          generate_experiment, individual_split, quantile)

values = [1, 2, 3, 4, 5, 6, 7, 8]
print("values:", values)
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  Q(values, {p:4}) = {quantile(values, p)}")
print("Q(., 0) is the open -inf sentinel; everything else is nearest-rank")
print("(the sorted value at index ceil(p*n)), so results are bit-identical")
print("on every platform.")

print()
ds, _ = generate_experiment(ScenarioConfig(seed=7, n_users=8, n_features=1))

print("individual split, N=4 (intervals are (lower, upper]):")
for i, segment in enumerate(individual_split(ds, "f1", 4), start=1):
    print(f"  slot {i}: {segment.describe():38} {segment.size} users")

print()
print("binary split at i0=1 of N=4 (bottom quartile vs the rest):")
low, high = binary_split(ds, "f1", 1, 4)
print(f"  S1: {low.describe():40} {low.size} users")
print(f"  S2: {high.describe():40} {high.size} users")

print()
print("ties collapse bins but keep slot positions stable:")
from cohortpolicy.experiment import ExperimentDataset
tied = ExperimentDataset(
    experiment_id="tied", user_ids=[f"u{i}" for i in range(6)],
    arm_codes=[0] * 6, feature_matrix=[[5.0] * 6], outcome_matrix=[[0.0] * 6],
    actions=("control",), control_action="control",
    metrics=("m1",), features=("f1",))
print(f"  f1 column: {tied.feature_values('f1').tolist()}")
for i, segment in enumerate(individual_split(tied, "f1", 4), start=1):
    flag = "EMPTY" if segment.is_empty else f"{segment.size} users"
    print(f"  slot {i}: {flag}")

print()
print("enumerate_cuts is the deterministic cut-family catalog:")
ds2, _ = generate_experiment(ScenarioConfig(seed=7, n_users=100, n_features=2))
cuts = enumerate_cuts(ds2, {"features": ["f1", "f2"], "n_bins": 4,
                            "kinds": ["individual", "binary"]})
for cut in cuts:
    print(f"  {cut.describe():20} ({cut.slot_count} slots)")
print(f"total: {len(cuts)} cut families "
      f"(per feature: 1 individual + N-1 binary)")
