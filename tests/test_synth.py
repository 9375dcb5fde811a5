import pytest

from cohortpolicy.errors import ConfigError
from cohortpolicy.experiment import compute_ate, segment_hte
from cohortpolicy.governance import shift_ratio
from cohortpolicy.segmentation import binary_split, individual_split
from cohortpolicy.synth import (BenchmarkConfig, DriftSpec, PlantedEffect,
                                ScenarioConfig, build_benchmark,
                                conflict_scenario, generate_daily_slices,
                                generate_experiment, generate_snapshots,
                                stitch_days)

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
    assert a.t1_values == b.t1_values


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