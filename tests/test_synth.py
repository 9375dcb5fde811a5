import cProfile
import json
import pstats
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortpolicy.cli import main
from cohortpolicy.errors import ConfigError
from cohortpolicy.experiment import ExperimentDataset, compute_ate, segment_hte
from cohortpolicy.governance import (load_snapshots, save_snapshots, shift_ratio,
                                     stability_verdicts)
from cohortpolicy.segmentation import (CutEnumerationConfig, binary_split,
                                       cut_slot_codes, enumerate_cuts,
                                       individual_split, sort_values,
                                       sorted_boundaries)
from cohortpolicy.synth import (BenchmarkConfig, DriftSpec, PlantedEffect,
                                ScenarioConfig, build_benchmark,
                                conflict_scenario, drift_snapshots,
                                generate_daily_slices, generate_experiment,
                                generate_snapshots, stitch_days)

from conftest import columns_of


def test_same_seed_identical_datasets():
    cfg = ScenarioConfig(seed=17, n_users=100)
    a, truth_a = generate_experiment(cfg)
    b, truth_b = generate_experiment(cfg)
    assert columns_of(a) == columns_of(b)
    assert truth_a == truth_b


def test_different_seed_differs():
    a, _ = generate_experiment(ScenarioConfig(seed=1, n_users=50))
    b, _ = generate_experiment(ScenarioConfig(seed=2, n_users=50))
    assert columns_of(a) != columns_of(b)


def test_noiseless_planting_recovered_exactly():
    cfg = ScenarioConfig(
        seed=5, n_users=200, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=0.0,
        planted_effects=(PlantedEffect("f1", 0.75, 1.0, "a1", "m1", 2.0),))
    ds, truth = generate_experiment(cfg)
    top_quartile = individual_split(ds, "f1", 4)[3]
    est = segment_hte(ds, top_quartile, "a1", "m1")
    assert est.mean == 2.0
    assert truth["effects"][0]["lift"] == 2.0


def test_null_experiment_no_lift():
    cfg = ScenarioConfig(seed=6, n_users=2000, n_metrics=1, n_actions=1,
                         noise_sd=1.0)
    ds, _ = generate_experiment(cfg)
    est = compute_ate(ds, "a1", "m1")
    assert abs(est.mean) <= 3 * est.std_err


def test_every_arm_populated():
    ds, _ = generate_experiment(ScenarioConfig(seed=9, n_users=30, n_actions=4))
    for action in ds.actions:
        assert ds.arm_mask(action).sum() >= 1


def test_contradictory_overlap_rejected():
    with pytest.raises(ConfigError, match="overlap"):
        ScenarioConfig(planted_effects=(
            PlantedEffect("f1", 0.0, 0.6, "a1", "m1", 1.0),
            PlantedEffect("f1", 0.4, 1.0, "a1", "m1", -1.0),
        ))


def test_adjacent_ranges_allowed():
    ScenarioConfig(planted_effects=(
        PlantedEffect("f1", 0.0, 0.5, "a1", "m1", 1.0),
        PlantedEffect("f1", 0.5, 1.0, "a1", "m1", -1.0),
    ))


def test_unknown_references_rejected():
    cfg = ScenarioConfig(
        n_features=1,
        planted_effects=(PlantedEffect("f9", 0.0, 1.0, "a1", "m1", 1.0),))
    with pytest.raises(ConfigError, match="f9"):
        generate_experiment(cfg)


def test_bad_quantile_range_rejected():
    with pytest.raises(ConfigError):
        PlantedEffect("f1", 0.6, 0.4, "a1", "m1", 1.0)


# -- snapshots ---------------------------------------------------------------------


@pytest.mark.parametrize("target,band", [
    (0.0, (0.0, 0.0)),
    (0.02, (0.0, 0.04)),
    (0.50, (0.48, 0.52)),
])
def test_snapshot_targets(target, band):
    ds, _ = generate_experiment(ScenarioConfig(seed=23, n_users=500))
    pair = generate_snapshots(ds, DriftSpec("f1", target), seed=77)
    measured = shift_ratio(pair, "quantile")
    assert band[0] <= measured <= band[1]


def test_snapshot_deterministic():
    ds, _ = generate_experiment(ScenarioConfig(seed=23, n_users=200))
    a = generate_snapshots(ds, DriftSpec("f1", 0.3), seed=5)
    b = generate_snapshots(ds, DriftSpec("f1", 0.3), seed=5)
    assert a.user_ids.tolist() == b.user_ids.tolist()
    assert a.t1.tobytes() == b.t1.tobytes()


def dict_snapshots(ds, drift, seed):
    """Snapshot values per user id, placed user by user into dicts: the
    layout and the per-mover loop generate_snapshots used before it
    returned aligned arrays, fed the same bulk draws."""
    rng = np.random.default_rng(seed)
    values = ds.feature_values(drift.feature)
    user_ids = ds.user_ids.tolist()
    n = len(user_ids)
    cuts = sorted_boundaries(sort_values(values), 4)[:-1]
    buckets = np.searchsorted(cuts, values, side="left")
    n_buckets = len(cuts) + 1
    span = float(values.max() - values.min()) or 1.0
    reachable = [b for b in range(n_buckets)
                 if b == 0 or b == n_buckets - 1 or cuts[b] > cuts[b - 1]]
    t0 = {uid: float(v) for uid, v in zip(user_ids, values)}
    t1 = dict(t0)
    movers = rng.choice(n, size=round(drift.target_shift_ratio * n), replace=False)
    movers = sorted(int(i) for i in movers)
    picks = rng.integers(0, len(reachable) - 1, size=len(movers))
    uniforms = rng.random(len(movers))
    for row, pick, u in zip(movers, picks.tolist(), uniforms.tolist()):
        choices = [b for b in reachable if b != buckets[row]]
        target = int(choices[pick])
        lower = cuts[target - 1] if target > 0 else None
        upper = cuts[target] if target < len(cuts) else None
        if lower is None:
            new_value = upper - span * u
        elif upper is None:
            new_value = lower + span * (u + 1e-9)
        else:
            new_value = lower + (upper - lower) * u
            if new_value <= lower:
                new_value = upper
        t1[user_ids[row]] = float(new_value)
    return t0, t1


def tied_dataset(n=300, seed=3):
    # 70% of users share the value 1.0, which ties all three quartile
    # cutpoints and leaves the two middle buckets unreachable.
    rng = np.random.default_rng(seed)
    f1 = np.where(rng.random(n) < 0.7, 1.0, rng.random(n) * 5)
    return ExperimentDataset(
        experiment_id="tied", user_ids=[f"t{i:03d}" for i in range(n)],
        arm_codes=[0] * n, feature_matrix=[f1], outcome_matrix=[[0.0] * n],
        actions=("control",), control_action="control", metrics=("m1",),
        features=("f1",))


def one_feature_dataset(n_users, data_seed, tied):
    if tied:
        return tied_dataset(n_users, data_seed)
    ds, _ = generate_experiment(ScenarioConfig(
        seed=data_seed, n_users=n_users, n_features=1, n_metrics=1, n_actions=1))
    return ds


def test_tied_dataset_ties_every_quartile_cutpoint():
    values = tied_dataset().feature_values("f1")
    assert len(set(sorted_boundaries(sort_values(values), 4)[:-1])) == 1


# Untied data leaves each mover three other buckets to move to; the tied
# data leaves only the other end bucket (k = 1).
@pytest.mark.parametrize("target", [0.0, 0.05, 0.3, 0.9])
@pytest.mark.parametrize("seed", [0, 5, 77])
@pytest.mark.parametrize("tied", [False, True])
@settings(max_examples=8, deadline=None)
@given(n_users=st.integers(2, 5000), data_seed=st.integers(0, 999))
@example(n_users=400, data_seed=23)
@example(n_users=300, data_seed=3)
@example(n_users=5000, data_seed=23)
def test_snapshots_match_dict_algorithm(target, seed, tied, n_users, data_seed):
    ds = one_feature_dataset(n_users, data_seed, tied)
    drift = DriftSpec("f1", target)
    pair = generate_snapshots(ds, drift, seed=seed)
    t0, t1 = dict_snapshots(ds, drift, seed=seed)
    assert pair.user_ids.tolist() == sorted(t0)
    assert pair.t0.tobytes() == np.array([t0[u] for u in sorted(t0)]).tobytes()
    assert pair.t1.tobytes() == np.array([t1[u] for u in sorted(t1)]).tobytes()


def stable_quartile_buckets(t0, values):
    # Each value's bucket against t0's nearest-rank p25, p50 and p75, read
    # from a stable sort: (-inf, p25], (p25, p50], (p50, p75], (p75, inf).
    ordered = np.sort(t0, kind="stable")
    n = ordered.size
    cuts = [ordered[-((-i * n) // 4) - 1] for i in (1, 2, 3)]
    return np.searchsorted(cuts, values, side="left")


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(2, 3000), tied=st.booleans(),
       target=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       data_seed=st.integers(0, 999))
@example(n_users=300, tied=True, target=0.9, seed=5, data_seed=3)
@example(n_users=2, tied=False, target=1.0, seed=0, data_seed=0)
def test_snapshot_drift_contract(n_users, tied, target, seed, data_seed):
    ds = one_feature_dataset(n_users, data_seed, tied)
    pair = generate_snapshots(ds, DriftSpec("f1", target), seed=seed)
    n_move = round(target * n_users)
    assert shift_ratio(pair, "quantile") == n_move / n_users
    # Non-movers keep their t0 value bit for bit; t0 is the dataset's column.
    assert pair.t0.tobytes() == ds.feature_values("f1").tobytes()
    moved = pair.t0.view(np.uint64) != pair.t1.view(np.uint64)
    assert np.count_nonzero(moved) == n_move
    # Each mover lands in another t0 quartile bucket, which therefore holds
    # t0 values or is an end bucket.
    before = stable_quartile_buckets(pair.t0, pair.t0[moved])
    after = stable_quartile_buckets(pair.t0, pair.t1[moved])
    assert (before != after).all()
    reachable = set(stable_quartile_buckets(pair.t0, pair.t0).tolist()) | {0, 3}
    assert set(after.tolist()) <= reachable
    again = generate_snapshots(ds, DriftSpec("f1", target), seed=seed)
    assert again.user_ids.tobytes() == pair.user_ids.tobytes()
    assert again.t1.tobytes() == pair.t1.tobytes()


def test_drift_snapshots_python_calls_do_not_grow_with_users():
    # The movers are drawn and placed as arrays: 100 times the users may not
    # double the Python calls.
    calls = {}
    for n_users in (400, 40_000):
        cfg = conflict_scenario(seed=3, n_users=n_users)
        ds, _ = generate_experiment(cfg)
        profile = cProfile.Profile()
        profile.runcall(drift_snapshots, cfg, ds)
        calls[n_users] = pstats.Stats(profile).total_calls
    assert calls[40_000] <= 2 * calls[400], calls


def test_synth_snapshots_survive_load_save_round_trip(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 9, "n_users": 300, "n_features": 2, "n_metrics": 2,
        "n_actions": 2, "n_days": 4,
        "drift_specs": [{"feature": "f1", "target_shift_ratio": 0.2},
                        {"feature": "f2", "target_shift_ratio": 0.5}],
    }))
    out = tmp_path / "synth"
    assert main(["synth", "--scenario", str(scenario), "--out", str(out)]) == 0
    save_snapshots(tmp_path / "again.csv", load_snapshots(out / "snapshots.csv"))
    assert (tmp_path / "again.csv").read_bytes() == \
        (out / "snapshots.csv").read_bytes()


# -- user ids and sorts ---------------------------------------------------------


def fstring_ids(n):
    """The per-user f-strings the generator used to build its ids from."""
    width = max(5, len(str(n)))
    return np.array([f"u{i:0{width}d}" for i in range(n)])


@pytest.mark.parametrize("n", [1, 99_999, 100_000, 100_001])
def test_user_ids_match_fstring_ids_at_width_boundaries(n):
    ds, _ = generate_experiment(ScenarioConfig(seed=5, n_users=n, n_features=1,
                                               n_metrics=1, n_actions=1))
    want = fstring_ids(n)
    assert ds.user_ids.dtype == want.dtype == np.dtype(f"<U{max(5, len(str(n))) + 1}")
    assert ds.user_ids.tolist() == want.tolist()


def test_daily_slice_ids_keep_their_day_prefix():
    cfg = ScenarioConfig(seed=34, n_users=12, n_metrics=1, n_actions=1)
    for day, ds in enumerate(generate_daily_slices(cfg, n_days=3)):
        assert ds.user_ids.dtype == np.dtype("<U11")
        assert ds.user_ids.tolist() == [f"d{day:03d}.{uid}" for uid in fstring_ids(12)]


def test_conflict_run_inputs_sort_each_column_once():
    # The effects sort f1 once, the dataset each feature once, and each
    # snapshot pair its t0 once for both cut bases.
    cfg = conflict_scenario(n_users=2000)
    with mock.patch.object(np, "sort", wraps=np.sort) as sort:
        ds, _ = generate_experiment(cfg)
        pairs = drift_snapshots(cfg, ds)
        stability_verdicts(sorted(pairs), pairs)
        for cut in enumerate_cuts(ds, CutEnumerationConfig(features=ds.features)):
            cut_slot_codes(ds, cut)
    assert sort.call_count == 4
    assert all(call.kwargs.get("kind") is None for call in sort.call_args_list)


# -- daily slices ------------------------------------------------------------------


def test_daily_slices_deterministic_and_disjoint():
    cfg = ScenarioConfig(seed=31, n_users=100, n_metrics=1, n_actions=1)
    days = generate_daily_slices(cfg, n_days=5)
    again = generate_daily_slices(cfg, n_days=5)
    assert [columns_of(d) for d in days] == [columns_of(d) for d in again]
    ids = [uid for d in days for uid in d.user_ids.tolist()]
    assert len(ids) == len(set(ids))


def test_lift_schedule_scales_effects():
    cfg = ScenarioConfig(
        seed=32, n_users=400, n_metrics=1, n_actions=1, noise_sd=0.0,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 2.0),))
    days = generate_daily_slices(cfg, n_days=3, lift_schedule=[1.0, 0.5, 0.0])
    lifts = [compute_ate(d, "a1", "m1").mean for d in days]
    assert lifts == [2.0, 1.0, 0.0]


def test_stitch_days_keeps_labels():
    cfg = ScenarioConfig(seed=33, n_users=60, n_metrics=1, n_actions=1)
    days = generate_daily_slices(cfg, n_days=3)
    stitched = stitch_days(days)
    assert stitched.n_users == 180
    assert len(stitched.daily_slices()) == 3


# -- canonical conflict scenario ------------------------------------------------------


def test_conflict_scenario_shape():
    cfg = conflict_scenario()
    ds, _ = generate_experiment(cfg)
    low, high = binary_split(ds, "f1", 2, 4)  # median split

    # Global arms are zero-sum; the cohort assignment is not.
    a1 = {m: compute_ate(ds, "a1", m).mean for m in ds.metrics}
    a2 = {m: compute_ate(ds, "a2", m).mean for m in ds.metrics}
    assert a1["m1"] > 0.5 and a1["m2"] < -0.5
    assert a2["m1"] < -0.5 and a2["m2"] > 0.5

    hte_high_a1 = segment_hte(ds, high, "a1", "m1")
    assert hte_high_a1.mean == pytest.approx(2.0, abs=3 * hte_high_a1.std_err)
    hte_high_m2 = segment_hte(ds, high, "a1", "m2")
    assert abs(hte_high_m2.mean) <= 3 * hte_high_m2.std_err


# -- benchmark ---------------------------------------------------------------------


def test_benchmark_counts_and_closure():
    cfg = BenchmarkConfig(seed=3, n_experiments=3, n_users=300,
                          policy_budget=20)
    bundle = build_benchmark(cfg)
    assert len(bundle.instructions) == 15  # 3 experiments x 5 kinds
    kinds = [i.kind for i in bundle.instructions[:5]]
    assert len(set(kinds)) == 5
    for gt in bundle.ground_truths:
        table = bundle.policy_tables[gt.experiment_id]
        assert all(pid in table for pid in gt.top5)
        assert len(gt.top5) == len(set(gt.top5))


def test_benchmark_deterministic():
    cfg = BenchmarkConfig(seed=4, n_experiments=2, n_users=200,
                          policy_budget=16)
    a = build_benchmark(cfg)
    b = build_benchmark(cfg)
    assert [g.top5 for g in a.ground_truths] == [g.top5 for g in b.ground_truths]


def test_single_experiment_benchmark():
    cfg = BenchmarkConfig(seed=5, n_experiments=1, n_users=200,
                          policy_budget=16)
    bundle = build_benchmark(cfg)
    assert len(bundle.instructions) == 5


def test_planted_recovery_with_noise_coverage():
    # 3-sigma coverage holds in nearly every seeded trial.
    failures = 0
    trials = 300
    for seed in range(trials):
        cfg = ScenarioConfig(
            seed=seed, n_users=300, n_features=1, n_metrics=1, n_actions=1,
            noise_sd=1.0,
            planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 1.0),))
        ds, _ = generate_experiment(cfg)
        _, high = binary_split(ds, "f1", 2, 4)
        est = segment_hte(ds, high, "a1", "m1")
        if abs(est.mean - 1.0) > 3 * est.std_err:
            failures += 1
    assert failures / trials <= 0.01