import bisect
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortpolicy.errors import (ConfigError, EstimationError,
                                 InsufficientDataError, IntegrityError,
                                 RowIngestError)
from cohortpolicy.experiment import MetricEstimate
from cohortpolicy.governance import (BINARY_CUT, QUANTILE_CUT,
                                     FeatureSnapshotPair, HookReport,
                                     StabilityThresholds, classify_stability, load_reports,
                                     load_snapshots, pre_search_filter,
                                     robustness_check, run_backtest,
                                     save_reports, save_snapshots,
                                     select_candidate, shift_ratio,
                                     validate_candidate)
from cohortpolicy.search import (build_policy_table, enumerate_policies,
                                 evaluate_policies, evaluate_policy_pinned,
                                 global_policies, moments_cube)
from cohortpolicy.segmentation import CutEnumerationConfig, enumerate_cuts
from cohortpolicy.synth import (DriftSpec, PlantedEffect, ScenarioConfig,
                                conflict_scenario, generate_daily_slices,
                                generate_experiment, generate_snapshots,
                                stitch_days)

from conftest import make_policy


def snapshot_pair(t0, t1=None, feature="f1"):
    t0 = np.asarray(t0, dtype=float)
    return FeatureSnapshotPair(
        feature=feature, user_ids=[f"u{i:04d}" for i in range(t0.size)],
        t0=t0, t1=t0 if t1 is None else np.asarray(t1, dtype=float))


def write_snapshot_csv(path, rows):
    """Write (user_id, feature_id, value, snapshot) rows under a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,feature_id,value,snapshot\n")
        fh.writelines(f"{u},{f},{v},{s}\n" for u, f, v, s in rows)


# -- shift ratio -------------------------------------------------------------------


def test_identical_snapshots_no_shift():
    pair = snapshot_pair(range(20))
    assert shift_ratio(pair, QUANTILE_CUT) == 0.0
    assert shift_ratio(pair, BINARY_CUT) == 0.0


@pytest.mark.parametrize("t0,t1,label", [
    ([0.1, 0.2, 0.3, 0.4], [0.1, np.nan, 0.3, np.inf], "t1"),
    ([0.1, -np.inf, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], "t0"),
])
def test_snapshot_pair_rejects_non_finite_values(t0, t1, label):
    # A NaN t1 once counted as a move into the top bucket and an infinite
    # one as a move to an end bucket: shift_ratio gave 0.25 on both bases.
    with pytest.raises(ValueError, match=f"'f1': {label} values must be finite"):
        snapshot_pair(t0, t1)


def test_one_of_four_crossing_binary():
    # p25/p75 of {1,2,3,4} are 1 and 3: buckets (-inf,1], (1,3], (3,inf)
    t0 = [1, 2, 3, 4]
    t1 = [1, 2, 3.5, 4]  # the third user leaves (1,3] for (3,inf)
    pair = snapshot_pair(t0, t1)
    assert shift_ratio(pair, BINARY_CUT) == 0.25


def test_half_users_crossing_quantile():
    # Feature-4-style profile: ~50% migrate across quartile buckets.
    rng = np.random.default_rng(5)
    t0 = rng.random(200)
    pair = generate_snapshots_like(t0, target=0.5, seed=88)
    measured = shift_ratio(pair, QUANTILE_CUT)
    assert abs(measured - 0.5) <= 0.02


def generate_snapshots_like(t0_values, target, seed, feature="f1"):
    from cohortpolicy.experiment import ExperimentDataset
    n = len(t0_values)
    ds = ExperimentDataset(experiment_id="drift",
                           user_ids=[f"u{i:04d}" for i in range(n)],
                           arm_codes=[0] * n, feature_matrix=[t0_values],
                           outcome_matrix=[[0.0] * n],
                           actions=("control",), control_action="control",
                           metrics=("m1",), features=(feature,))
    return generate_snapshots(ds, DriftSpec(feature, target), seed=seed)


def test_shift_ratio_needs_two_common_users(tmp_path):
    path = tmp_path / "snapshots.csv"
    write_snapshot_csv(path, [("a", "f1", 1.0, "t0"), ("b", "f1", 2.0, "t0"),
                              ("a", "f1", 1.0, "t1"), ("c", "f1", 2.0, "t1")])
    with pytest.raises(InsufficientDataError):
        shift_ratio(load_snapshots(path)["f1"])


def test_shift_only_counts_common_users(tmp_path):
    path = tmp_path / "snapshots.csv"
    write_snapshot_csv(path, [
        ("a", "f1", 1.0, "t0"), ("b", "f1", 2.0, "t0"), ("c", "f1", 3.0, "t0"),
        ("gone", "f1", 4.0, "t0"),
        ("a", "f1", 1.0, "t1"), ("b", "f1", 2.0, "t1"), ("c", "f1", 3.0, "t1"),
        ("new", "f1", 9.0, "t1")])
    pair = load_snapshots(path)["f1"]
    assert pair.user_ids.tolist() == ["a", "b", "c"]
    assert shift_ratio(pair, QUANTILE_CUT) == 0.0


def reference_shift_ratio(t0, t1, cut, n_bins=4):
    """Shift ratio over per-user dicts: nearest-rank t0 cutpoints, and a
    bucket is the number of cutpoints strictly below the value."""
    common = sorted(set(t0) & set(t1))
    ranked = sorted(t0[u] for u in common)
    n = len(ranked)
    if cut == QUANTILE_CUT:
        cuts = [ranked[-(-i * n // n_bins) - 1] for i in range(1, n_bins)]
    else:
        cuts = [ranked[math.ceil(0.25 * n) - 1], ranked[math.ceil(0.75 * n) - 1]]
    moved = sum(bisect.bisect_left(cuts, t0[u]) != bisect.bisect_left(cuts, t1[u])
                for u in common)
    return moved / n


snapshot_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["f1", "f2"]),
              st.sampled_from(["t0", "t1"]),
              st.integers(0, 6).map(lambda v: v / 2)),  # few values: many ties
    min_size=1, max_size=150,
    unique_by=lambda row: row[:3])


@settings(max_examples=60, deadline=None)
@given(rows=snapshot_rows, seed=st.integers(0, 2**32 - 1))
def test_columnar_snapshots_match_dict_reference(tmp_path_factory, rows, seed):
    # Users present in one snapshot only, tied values and any row order.
    rows = [(f"u{u}", f, v, s) for u, f, s, v in rows]
    shuffled = rows[:]
    random.Random(seed).shuffle(shuffled)
    base = tmp_path_factory.mktemp("snapshots")
    write_snapshot_csv(base / "a.csv", rows)
    write_snapshot_csv(base / "b.csv", shuffled)
    loaded, reloaded = load_snapshots(base / "a.csv"), load_snapshots(base / "b.csv")
    assert sorted(loaded) == sorted(reloaded)
    for feature, pair in loaded.items():
        other = reloaded[feature]
        assert pair.user_ids.tolist() == other.user_ids.tolist()
        assert pair.t0.tobytes() == other.t0.tobytes()
        assert pair.t1.tobytes() == other.t1.tobytes()

        t0 = {u: v for u, f, v, s in rows if f == feature and s == "t0"}
        t1 = {u: v for u, f, v, s in rows if f == feature and s == "t1"}
        assert pair.user_ids.tolist() == sorted(set(t0) & set(t1))
        for cut in (QUANTILE_CUT, BINARY_CUT):
            if pair.user_ids.size < 2:
                with pytest.raises(InsufficientDataError):
                    shift_ratio(pair, cut)
            else:
                assert shift_ratio(pair, cut) == reference_shift_ratio(t0, t1, cut)


@pytest.mark.parametrize("bad_row,error,message", [
    (("u2", "f1", "1.5", "t2"), RowIngestError, "row 4"),
    (("u2", "f1", "high", "t0"), RowIngestError, "row 4"),
    (("u1", "f1", "9.0", "t0"), IntegrityError, "'u1'.*'f1'"),
    (("u2", "f1", "nan", "t1"), RowIngestError, "row 4: non-finite value nan"),
    (("u2", "f1", "inf", "t1"), RowIngestError, "row 4: non-finite value inf"),
    (("u2", "f1", "nan", "t0"), RowIngestError, "row 4: non-finite value nan"),
])
def test_load_snapshots_rejects_bad_rows(tmp_path, bad_row, error, message):
    path = tmp_path / "snapshots.csv"
    write_snapshot_csv(path, [("u1", "f1", "1.0", "t0"), ("u1", "f1", "1.0", "t1"),
                              ("u3", "f1", "2.0", "t0"), bad_row,
                              ("u3", "f1", "2.0", "t1")])
    with pytest.raises(error, match=message):
        load_snapshots(path)


# -- stability verdicts (Table-2-style fixtures) --------------------------------------


@pytest.mark.parametrize("quantile,binary,status", [
    (0.06, 0.02, "stable"),   # baseline-set profile
    (0.16, 0.04, "stable"),
    (0.30, 0.12, "stable"),   # passes on the binary basis
    (0.50, 0.20, "unstable"),
    (None, 0.30, "unstable"),
])
def test_classify_stability(quantile, binary, status):
    verdict = classify_stability("f", shift_quantile=quantile,
                                 shift_binary=binary)
    assert verdict.status == status


def test_classify_needs_a_measure():
    with pytest.raises(ValueError):
        classify_stability("f")


# -- pre-search filter -----------------------------------------------------------------


def fixture_verdicts(thresholds=StabilityThresholds()):
    rows = [("s", 0.06, 0.02), ("f2", 0.16, 0.04), ("f3", 0.30, 0.12),
            ("f4", 0.50, 0.20), ("f5", None, 0.30)]
    return [classify_stability(name, q, b, thresholds) for name, q, b in rows]


def test_pre_search_filter_thresholds():
    report, admitted = pre_search_filter(fixture_verdicts())
    assert admitted == ["s", "f2", "f3"]
    assert not report.rejected
    assert report.entities == ["f4", "f5"]
    assert "FEATURE_UNSTABLE" in report.reason_codes


def test_pre_search_filter_empty_input_passes():
    report, admitted = pre_search_filter([])
    assert not report.rejected
    assert admitted == []


def test_pre_search_filter_all_unstable_rejects():
    verdicts = [classify_stability("f4", 0.50, 0.20),
                classify_stability("f5", None, 0.30)]
    report, admitted = pre_search_filter(verdicts)
    assert report.rejected
    assert admitted == []
    assert report.reason_codes == ["FEATURE_UNSTABLE"]
    assert report.entities == ["f4", "f5"]


def test_pre_search_filter_monotone_in_thresholds():
    # The filter admits by verdict status, so relaxing the thresholds means
    # re-classifying.
    _, baseline = pre_search_filter(fixture_verdicts())
    _, relaxed = pre_search_filter(
        fixture_verdicts(StabilityThresholds(binary=0.35, quantile=0.60)))
    assert set(baseline) <= set(relaxed)
    assert relaxed == ["s", "f2", "f3", "f4", "f5"]


@pytest.mark.parametrize("binary,quantile", [(-0.1, 0.45), (0.15, 1.5),
                                             (float("nan"), 0.45)])
def test_stability_thresholds_range_checked(binary, quantile):
    with pytest.raises(ConfigError, match="must be in \\[0, 1\\]"):
        StabilityThresholds(binary=binary, quantile=quantile)


# -- robustness --------------------------------------------------------------------


def estimates(means, std_err=0.1, n=50):
    return [{"m1": MetricEstimate(mean=m, std_err=std_err,
                                  n_treated=n, n_control=n)} for m in means]


def test_robustness_uniform_positive_passes():
    policy = make_policy("p", [1.0], [0.1])
    report = robustness_check(policy, estimates([1.0, 1.0, 1.0, 1.0]), ["m1"])
    assert not report.rejected


def test_robustness_sign_flip_rejected():
    policy = make_policy("p", [0.0], [0.1])
    report = robustness_check(policy, estimates([1.0, -1.0, 1.0, -1.0]), ["m1"])
    assert report.rejected
    assert "SIGN_FLIP" in report.reason_codes
    assert report.entities == ["p"]


def test_robustness_insignificant_rejected():
    policy = make_policy("p", [0.05], [0.2])
    report = robustness_check(policy, estimates([0.05, 0.05, 0.05], std_err=0.2 * 1.7320508),
                              ["m1"])
    # pooled mean 0.05 with pooled std err 0.2: below the 1.96 sigma bar
    assert report.rejected
    assert "NOT_SIGNIFICANT" in report.reason_codes


def test_robustness_needs_three_slices():
    policy = make_policy("p", [1.0], [0.1])
    with pytest.raises(InsufficientDataError):
        robustness_check(policy, estimates([1.0, 1.0]), ["m1"])


def test_robustness_does_not_mutate_estimates():
    policy = make_policy("p", [1.0], [0.1])
    before = dict(policy.estimates)
    robustness_check(policy, estimates([1.0, 1.0, 1.0]), ["m1"])
    assert policy.estimates == before


# -- backtest ----------------------------------------------------------------------


def planted_config(seed=303, lift=1.5, n_users=400):
    return ScenarioConfig(
        seed=seed, n_users=n_users, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=0.5,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", lift),))


def searched_policy(cfg):
    ds, _ = generate_experiment(cfg)
    policy = global_policies(ds)[1]
    return evaluate_policies(ds, [policy])[0]


def test_backtest_stationary_passes():
    cfg = planted_config()
    policy = searched_policy(cfg)
    daily = generate_daily_slices(cfg, n_days=14)
    series, report = run_backtest(policy, stitch_days(daily), ["m1"])
    assert not report.rejected
    final = series.cumulative[-1]["m1"]
    # converges to the planted lift
    assert abs(final.mean - 1.5) <= 3 * final.std_err
    # and stays within 2 SE of the search-window estimate
    ref = policy.estimates["m1"]
    band = 2 * (final.std_err ** 2 + ref.std_err ** 2) ** 0.5
    assert abs(final.mean - ref.mean) <= band


def test_backtest_decaying_lift_rejected():
    cfg = planted_config()
    policy = searched_policy(cfg)
    schedule = [1.0] * 4 + [0.0] * 10  # effect vanishes mid-window
    daily = generate_daily_slices(cfg, n_days=14, lift_schedule=schedule)
    _, report = run_backtest(policy, stitch_days(daily), ["m1"])
    assert report.rejected
    assert "BACKTEST_DIVERGED" in report.reason_codes


def test_backtest_needs_seven_days():
    cfg = planted_config()
    policy = searched_policy(cfg)
    daily = generate_daily_slices(cfg, n_days=6)
    with pytest.raises(InsufficientDataError):
        run_backtest(policy, stitch_days(daily), ["m1"])


def test_backtest_skips_empty_slice_with_warning():
    cfg = planted_config()
    policy = searched_policy(cfg)
    daily = generate_daily_slices(cfg, n_days=8)
    # A ninth day holding only control users: no treated support.
    control = daily[0].arm_mask("a0")
    extra = replace(daily[0].subset(control),
                    user_ids=np.char.add("d008.", daily[0].user_ids[control]),
                    days=np.full(int(control.sum()), 8))
    window = stitch_days([*daily, extra])
    series, report = run_backtest(policy, window, ["m1"])
    assert "EMPTY_SLICE_SKIPPED" in report.reason_codes
    assert not report.rejected
    assert len(series.days) == 8



# -- the post-search stages: selection and validation ------------------------------------


def brute_force_selection(policies, primary, metrics, minimized):
    # The 1.96-sigma rule written out: the primary lift is significant in its
    # better direction, every other metric is within 1.96 SE of zero, and the
    # best lift wins, ties going to the larger id.
    best, best_lift = None, None
    for policy in policies:
        est = policy.estimates[primary]
        lift = -est.mean if minimized else est.mean
        if lift <= 0 or lift < 1.96 * est.std_err:
            continue
        if any(abs(policy.estimates[m].mean) > 1.96 * policy.estimates[m].std_err
               for m in metrics if m != primary):
            continue
        if best is None or (lift, policy.policy_id) > (best_lift, best.policy_id):
            best, best_lift = policy, lift
    return best


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                               st.sampled_from([0.0, 0.25, 1.0]),
                               st.sampled_from([-1.0, 0.0, 0.3, 2.0]),
                               st.sampled_from([0.0, 0.5, 1.0])),
                     max_size=8),
       primary=st.sampled_from(["m1", "m2"]), minimized=st.booleans())
def test_select_candidate_matches_brute_force(rows, primary, minimized):
    policies = [make_policy(f"p{i}", [m1, m2], [s1, s2])
                for i, (m1, s1, m2, s2) in enumerate(rows)]
    metrics = ("m1", "m2")
    chosen, report = select_candidate(policies, primary, metrics,
                                      (primary,) if minimized else ())
    expected = brute_force_selection(policies, primary, metrics, minimized)
    if expected is not None:
        assert report is None and chosen == expected.policy_id
    else:
        assert chosen is None and report.rejected
        assert report.stage == "post_search"
        assert report.reason_codes == ["NO_QUALIFYING_POLICY"]
        assert report.entities == (sorted(p.policy_id for p in policies)
                                   or ["<frontier>"])


def insufficient(policy, stage, narrative):
    return HookReport(stage=stage, verdict="reject",
                      reason_codes=["INSUFFICIENT_DATA"],
                      entities=[policy.policy_id], narrative=narrative)


def hooks_reference(ds, policy, n_days, n_slices):
    """The validation stage from the public hooks: robustness_check over
    slices evaluated one by one with evaluate_policy_pinned, then
    run_backtest on the same window."""
    day, labels = ds.day_codes(n_days)
    bounds = np.linspace(0, len(labels), n_slices + 1).astype(int)
    slices = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            rows = (day >= lo) & (day < hi)
            slices.append(evaluate_policy_pinned(ds, policy, rows).estimates)
        except EstimationError as exc:
            return None, [insufficient(policy, "post_search",
                                       f"robustness slice: {exc}")]
    robustness = robustness_check(policy, slices, ["m1"])
    if robustness.rejected:
        return None, [robustness]
    try:
        series, backtest = run_backtest(policy, ds, ["m1"], n_days)
    except InsufficientDataError as exc:
        return None, [robustness, insufficient(
            policy, "pre_recommendation", f"policy {policy.policy_id!r}: {exc}")]
    return (None if backtest.rejected else series), [robustness, backtest]


def test_validate_candidate_matches_public_hooks():
    # 300-user conflict scenarios with only the m1 effect, as observed and
    # with the effect decaying to zero over 14 days of 300 users each. Seeds 5
    # and 6 hold policies with a robustness slice that lacks arm support.
    outcomes = set()
    for seed in range(5, 8):
        scenario = replace(conflict_scenario(seed=seed, n_users=300),
                           planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1",
                                                          "m1", 2.0),))
        decayed = stitch_days(generate_daily_slices(
            scenario, 14, lift_schedule=np.linspace(1.0, 0.0, 14)))
        for ds in (generate_experiment(scenario)[0], decayed):
            cuts = enumerate_cuts(ds, CutEnumerationConfig(features=ds.features))
            table = build_policy_table(moments_cube(ds, cuts), cuts, seed=seed)
            # The governed run's cube: every grid, over 14 days.
            cube = moments_cube(ds, cuts, ds.day_codes(14))
            policies = evaluate_policies(
                ds, [p for p in enumerate_policies(ds, cuts, seed=seed)
                     if p.policy_id in table])
            for policy in policies[::2]:
                series, reports = validate_candidate(cube, policy, ["m1"], 4)
                expected_series, expected = hooks_reference(ds, policy, 14, 4)
                assert [r.to_json() for r in reports] == \
                    [r.to_json() for r in expected]
                if expected_series is None:
                    assert series is None
                else:
                    assert (series.days, series.daily, series.cumulative) == \
                        (expected_series.days, expected_series.daily,
                         expected_series.cumulative)
                outcomes.add((reports[-1].stage, reports[-1].verdict,
                              *reports[-1].reason_codes))
    assert {("post_search", "reject", "INSUFFICIENT_DATA"),
            ("post_search", "reject", "NOT_SIGNIFICANT"),
            ("pre_recommendation", "reject", "INSUFFICIENT_DATA"),
            ("pre_recommendation", "reject", "BACKTEST_DIVERGED"),
            ("pre_recommendation", "pass")} <= outcomes


# -- report and snapshot round trips ----------------------------------------------------


def test_hook_report_requires_reasons_on_reject():
    with pytest.raises(ValueError):
        HookReport(stage="pre_search", verdict="reject")


def test_reports_round_trip(tmp_path):
    reports = [
        HookReport(stage="pre_search", verdict="pass", narrative="ok"),
        HookReport(stage="post_search", verdict="reject",
                   reason_codes=["SIGN_FLIP"], entities=["p1"],
                   narrative="flipped"),
    ]
    path = tmp_path / "reports.jsonl"
    save_reports(path, reports)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all("format_version" in json.loads(line) for line in lines)
    loaded = load_reports(path)
    assert [r.stage for r in loaded] == ["pre_search", "post_search"]
    assert loaded[1].reason_codes == ["SIGN_FLIP"]


def test_snapshots_round_trip(tmp_path):
    pair = snapshot_pair([1, 2, 3, 4], [1, 2, 3.5, 4])
    path = tmp_path / "snapshots.csv"
    save_snapshots(path, {"f1": pair})
    loaded = load_snapshots(path)
    assert loaded["f1"].user_ids.tolist() == pair.user_ids.tolist()
    assert loaded["f1"].t0.tolist() == pair.t0.tolist()
    assert loaded["f1"].t1.tolist() == pair.t1.tolist()
    assert shift_ratio(loaded["f1"], BINARY_CUT) == 0.25
