import importlib
import json
import weakref
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

import cohortpolicy.cube as cube_module
import cohortpolicy.experiment as experiment
import cohortpolicy.pipeline as pipeline
import cohortpolicy.search as search
from cohortpolicy.config import from_mapping as read_config
from cohortpolicy.errors import ConfigError, RowIngestError
from cohortpolicy.experiment import ExperimentDataset
from cohortpolicy.governance import (CODE_INSUFFICIENT_DATA, SIGNIFICANCE_Z,
                                     StabilityThresholds)
from cohortpolicy.pipeline import (RunConfig, govern_pipeline,
                                   write_run_artifacts)
from cohortpolicy.search import PolicyCandidate, evaluate_policies, global_policies
from cohortpolicy.segmentation import CutEnumerationConfig
from cohortpolicy.synth import (BenchmarkConfig, DriftSpec, ScenarioConfig,
                                conflict_scenario,
                                drifted_scenario, generate_daily_slices,
                                generate_experiment, generate_snapshots,
                                PlantedEffect, stitch_days)
from cohortpolicy.governance import save_snapshots
from cohortpolicy.ingest import IngestSchema, ingest


def small_conflict_config(**overrides):
    scenario = conflict_scenario(n_users=2400)
    defaults = dict(seed=7, weight_samples=200, scenario=scenario,
                    primary_metric="m1")
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_conflict_scenario_recommends_neutral_cohort_policy():
    result = govern_pipeline(small_conflict_config())
    assert result.recommended
    assert result.iterations == 1
    assert [r.stage for r in result.reports] == [
        "pre_search", "post_search", "pre_recommendation"]
    assert all(not r.rejected for r in result.reports)

    policy = result.recommendation
    m1 = policy.estimates["m1"]
    m2 = policy.estimates["m2"]
    assert m1.mean > 0 and m1.mean >= SIGNIFICANCE_Z * m1.std_err
    assert abs(m2.mean) <= SIGNIFICANCE_Z * m2.std_err
    assert policy.cut is not None and policy.cut.feature == "f1"
    assert set(policy.assignment) != {"a0"}


def test_snapshot_pairs_are_released_after_the_stability_filter(monkeypatch):
    # Only the stability filter reads the pairs, so none of them may live
    # on through the search.
    refs, searched = [], []
    stability_verdicts = pipeline.stability_verdicts
    build_policy_table = pipeline.build_policy_table

    def verdicts(features, snapshots, thresholds):
        refs.extend(weakref.ref(pair) for pair in snapshots.values())
        return stability_verdicts(features, snapshots, thresholds)

    def build(*args):
        searched.append([ref() for ref in refs])
        return build_policy_table(*args)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "stability_verdicts", verdicts)
        patch.setattr(pipeline, "build_policy_table", build)
        assert govern_pipeline(small_conflict_config()).recommended
    assert len(refs) == 2
    assert searched == [[None, None]]


def test_conflict_global_policies_fail_joint_condition():
    config = small_conflict_config()
    ds, _ = generate_experiment(config.scenario)
    for policy in evaluate_policies(ds, global_policies(ds)):
        m1 = policy.estimates["m1"]
        m2 = policy.estimates["m2"]
        positive_primary = m1.mean > 0 and m1.mean >= SIGNIFICANCE_Z * m1.std_err
        neutral_secondary = abs(m2.mean) <= SIGNIFICANCE_Z * m2.std_err
        assert not (positive_primary and neutral_secondary)


def test_unstable_feature_filtered_out():
    config = RunConfig(seed=11, weight_samples=150,
                       scenario=drifted_scenario(), primary_metric="m1")
    result = govern_pipeline(config)
    assert result.recommended
    assert result.recommendation.cut.feature == "f1"
    pre = result.reports[0]
    assert pre.entities == ["f2"]  # the drifting decoy is pruned
    assert set(result.policies.feature) <= {"", "f1"}


def test_all_features_unstable_terminal_rejection():
    scenario = ScenarioConfig(
        seed=3, n_users=1200, n_features=2, n_metrics=2, n_actions=1,
        noise_sd=1.0, n_days=14,
        drift_specs=(DriftSpec("f1", 0.5), DriftSpec("f2", 0.6)))
    config = RunConfig(seed=3, weight_samples=50, scenario=scenario)
    result = govern_pipeline(config)
    assert not result.recommended
    assert len(result.reports) == 1
    assert result.reports[0].stage == "pre_search"
    assert result.reports[0].rejected
    assert result.policies is None  # zero search work performed


def test_null_scenario_no_qualifying_policy():
    scenario = ScenarioConfig(
        seed=4, n_users=1500, n_features=1, n_metrics=2, n_actions=1,
        noise_sd=1.0, n_days=14, drift_specs=(DriftSpec("f1", 0.02),))
    config = RunConfig(seed=4, weight_samples=100, scenario=scenario,
                       primary_metric="m1")
    result = govern_pipeline(config)
    assert not result.recommended
    assert result.reports[-1].reason_codes == ["NO_QUALIFYING_POLICY"]


def test_minimized_primary_recommends_significant_decrease():
    # The only planted effect lowers m1; minimizing m1 must find it.
    scenario = ScenarioConfig(
        seed=1, n_users=4000, n_features=2, n_metrics=2, n_actions=2,
        noise_sd=1.0, n_days=14, experiment_id="minimize",
        planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", -2.0),),
        drift_specs=(DriftSpec("f1", 0.04), DriftSpec("f2", 0.03)))
    config = RunConfig(seed=1, weight_samples=200, scenario=scenario,
                       primary_metric="m1", minimize_metrics=("m1",))
    result = govern_pipeline(config)
    assert result.recommended
    m1 = result.recommendation.estimates["m1"]
    m2 = result.recommendation.estimates["m2"]
    assert m1.mean < 0 and -m1.mean >= SIGNIFICANCE_Z * m1.std_err
    assert abs(m2.mean) <= SIGNIFICANCE_Z * m2.std_err


def test_minimized_primary_recommends_largest_decrease():
    # Top-K ranks m1 in its minimized direction, so the frontier reaches
    # the f1 policies that lower m1 by about 1.0 rather than 0.5.
    scenario = ScenarioConfig(
        seed=0, n_users=4000, n_features=2, n_metrics=2, n_actions=2,
        noise_sd=1.0, n_days=14, experiment_id="minimize",
        planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", -2.0),),
        drift_specs=(DriftSpec("f1", 0.04), DriftSpec("f2", 0.03)))
    result = govern_pipeline(RunConfig(
        seed=0, weight_samples=200, scenario=scenario, primary_metric="m1",
        minimize_metrics=("m1",)))
    assert result.recommended
    assert result.recommendation.estimates["m1"].mean < -0.9


def decayed_file_inputs(tmp_path):
    cfg = ScenarioConfig(
        seed=41, n_users=400, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=1.0,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 1.5),))
    days = generate_daily_slices(cfg, n_days=14,
                                 lift_schedule=[1.0] * 4 + [0.0] * 10)
    ds = stitch_days(days, "decayed")
    data = tmp_path / "decayed.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("user_id,arm,f1,m1,day\n")
        for uid, arm, f1, m1, day in zip(ds.user_ids.tolist(), ds.arm_codes.tolist(),
                                         ds.feature_values("f1").tolist(),
                                         ds.outcome_values("m1").tolist(),
                                         ds.days.tolist()):
            fh.write(f"{uid},{ds.actions[arm]},{f1!r},{m1!r},{day}\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "user_id": "user_id", "arm": "arm", "control": "a0",
        "features": ["f1"], "metrics": ["m1"], "day": "day",
        "experiment_id": "decayed"}))
    snapshots = tmp_path / "snapshots.csv"
    save_snapshots(snapshots,
                   {"f1": generate_snapshots(ds, DriftSpec("f1", 0.02), seed=9)})
    return data, schema, snapshots


def test_in_window_decay_exhausts_refinements(tmp_path):
    data, schema, snapshots = decayed_file_inputs(tmp_path)
    config = RunConfig(
        seed=41, weight_samples=50, max_refinements=1, policy_budget=8,
        primary_metric="m1", dataset_path=str(data), schema_path=str(schema),
        snapshots_path=str(snapshots))
    result = govern_pipeline(config)
    assert not result.recommended
    assert result.iterations == 2  # initial pass + one refinement
    policy_rejects = [r for r in result.reports
                      if r.rejected and r.stage != "pre_search"]
    assert len(policy_rejects) >= 2
    rejected_ids = {e for r in policy_rejects for e in r.entities}
    assert len(rejected_ids) == 2  # a different policy each iteration


def test_a_bad_snapshot_file_is_named_before_a_bad_dataset(tmp_path):
    # The snapshot file is read, judged and released before the dataset.
    data, schema, snapshots = decayed_file_inputs(tmp_path)
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("u_bad,a1,oops,1.0,3\n")
    with open(snapshots, "a", encoding="utf-8") as fh:
        fh.write("u_bad,f1,1.0,t9\n")
    with pytest.raises(RowIngestError, match="non-numeric value 'oops'"):
        ingest(data, IngestSchema.from_json(schema))
    config = RunConfig(seed=41, dataset_path=str(data), schema_path=str(schema),
                       snapshots_path=str(snapshots))
    with pytest.raises(RowIngestError, match="snapshot label 't9' is not one of"):
        govern_pipeline(config)


def test_a_primary_metric_missing_from_the_schema_is_rejected_before_any_file(tmp_path):
    _, schema, _ = decayed_file_inputs(tmp_path)
    named = "primary metric 'm9' not in dataset metrics"
    with pytest.raises(ConfigError, match=named):
        govern_pipeline(RunConfig(primary_metric="m9", schema_path=str(schema),
                                  dataset_path=str(tmp_path / "absent.csv"),
                                  snapshots_path=str(tmp_path / "absent.csv")))
    with pytest.raises(ConfigError, match=named):
        govern_pipeline(RunConfig(primary_metric="m9", scenario=one_effect_scenario(8)))


def test_data_without_day_labels_backtest_chunks_not_days(tmp_path):
    # Without day labels the backtest's "days" are chunks of id-sorted
    # users: its rows, its narrative and its file's first column say so,
    # and NO_TIME_AXIS marks the report without rejecting it. Day-labelled
    # data keep their days.
    unlabelled = replace(conflict_scenario(seed=7, n_users=8000), n_days=0)
    for scenario, unit, codes in ((unlabelled, "chunk", ["NO_TIME_AXIS"]),
                                  (conflict_scenario(seed=7, n_users=8000), "day", [])):
        result = govern_pipeline(RunConfig(seed=7, scenario=scenario))
        assert result.recommended
        backtest = result.reports[-1]
        assert backtest.stage == "pre_recommendation" and not backtest.rejected
        assert backtest.reason_codes == codes
        assert backtest.narrative == f"cumulative lift consistent over 14 {unit}s"
        assert result.backtest_series.days == [f"conflict#{unit}{k}" for k in range(14)]
        path = tmp_path / f"{unit}.csv"
        result.backtest_series.save_csv(path, result.metrics)
        assert path.read_text().splitlines()[1].startswith(f"{unit},")


def one_effect_scenario(seed, n_users=300):
    # The conflict scenario with only its m1 effect planted.
    return replace(conflict_scenario(seed=seed, n_users=n_users),
                   planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),))


def test_small_runs_end_in_a_verdict():
    # At 300 users a candidate can lack arm support in a robustness slice or
    # in too many backtest days; that rejects the candidate, not the run.
    shortfalls = 0
    for seed in range(40):
        result = govern_pipeline(RunConfig(scenario=one_effect_scenario(seed),
                                           seed=seed))
        assert result.status in ("recommended", "rejected")
        for report in result.reports:
            if CODE_INSUFFICIENT_DATA in report.reason_codes:
                shortfalls += 1
                assert report.rejected and report.reason_codes == [CODE_INSUFFICIENT_DATA]
                [policy_id] = report.entities
                assert policy_id in report.narrative
                assert (result.recommendation is None
                        or result.recommendation.policy_id != policy_id)
    assert shortfalls > 0


def test_governed_run_builds_a_candidate_only_for_its_pick(monkeypatch):
    # The search, the filter and the selection read one policy table; each
    # iteration builds its pick from its table row, and the validation
    # spans are plain estimates. (One candidate per enumerated policy,
    # evaluated policy and validation span made 464 here.)
    built = []
    original = PolicyCandidate.__post_init__

    def counting(self):
        built.append(self.policy_id)
        original(self)

    monkeypatch.setattr(PolicyCandidate, "__post_init__", counting)
    result = govern_pipeline(RunConfig(
        scenario=conflict_scenario(seed=1, n_users=4000)))
    assert result.recommended
    assert len(built) == result.iterations
    assert built[-1] == result.recommendation.policy_id


@pytest.mark.parametrize("max_refinements,status,iterations", [
    (3, "recommended", 4), (2, "rejected", 3)])
def test_governed_run_makes_one_moments_pass_per_grid(monkeypatch, max_refinements,
                                                       status, iterations):
    # The users are read once, one (day, slot, arm) pass per grid: f1's and
    # f2's 4-bin grids over 14 days. The table and every pick's slices and
    # backtest read that cube, so the count does not grow with the
    # iterations; each pick used to take one more pass of its own.
    shapes = []

    def counting(original):
        def counted(ds, codes, shape):
            shapes.append(shape)
            return original(ds, codes, shape)
        return counted

    monkeypatch.setattr(cube_module, "cell_moments",
                        counting(cube_module.cell_moments))
    monkeypatch.setattr(experiment, "cell_moments", counting(experiment.cell_moments))
    result = govern_pipeline(RunConfig(seed=8, max_refinements=max_refinements,
                                       scenario=one_effect_scenario(8)))
    assert (result.status, result.iterations) == (status, iterations)
    assert shapes == [(14, 4), (14, 4)]


def test_dataset_is_released_once_the_cube_is_built(monkeypatch):
    # Nothing after the moments cube reads the users: the dataset is gone
    # before the table is built, and the result keeps only its metrics.
    refs, searched = [], []
    load_inputs, build_policy_table = pipeline._load_inputs, pipeline.build_policy_table

    def load(config):
        ds, snapshots = load_inputs(config)
        refs.append(weakref.ref(ds))
        return ds, snapshots

    def build(*args):
        searched.append(refs[0]())
        return build_policy_table(*args)

    monkeypatch.setattr(pipeline, "_load_inputs", load)
    monkeypatch.setattr(pipeline, "build_policy_table", build)
    result = govern_pipeline(small_conflict_config())
    assert result.recommended and searched == [None]
    assert result.metrics == ("m1", "m2")
    assert not any(isinstance(value, ExperimentDataset)
                   for value in vars(result).values())


@pytest.mark.parametrize("config", [
    small_conflict_config(),
    RunConfig(seed=7, primary_metric="m1", scenario=conflict_scenario(seed=7)),
    RunConfig(seed=8, scenario=one_effect_scenario(8))])
def test_recommended_row_equals_the_last_cumulative_prefix(config):
    # The table reads every day of the cube and the backtest's last prefix
    # pools every day of the same cube, so the pick's estimates and that
    # prefix agree bit for bit, user counts included.
    result = govern_pipeline(config)
    assert result.recommended
    last = result.backtest_series.cumulative[-1]
    assert last == result.recommendation.estimates
    assert last == result.policies[result.recommendation.policy_id]


def test_whole_population_policy_recommended_without_cuts():
    # With no cut kinds the table holds one global policy per action; the
    # pick's id "global.a1" names no cut.
    scenario = ScenarioConfig(
        seed=2, n_users=3000, n_features=1, n_metrics=2, n_actions=1,
        noise_sd=1.0, n_days=14,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 1.0),),
        drift_specs=(DriftSpec("f1", 0.02),))
    result = govern_pipeline(RunConfig(seed=2, scenario=scenario, cut_kinds=(),
                                       primary_metric="m1"))
    assert result.policies.ids == ["global.a0", "global.a1"]
    assert result.recommended
    policy = result.recommendation
    assert (policy.policy_id, policy.cut, policy.assignment) == \
        ("global.a1", None, ("a1",))
    assert policy.estimates["m1"].n_treated > 0


@pytest.mark.parametrize("field,value,named", [
    ("features", ("f1", "f1", "f2"), "features lists 'f1' more than once"),
    ("cut_kinds", ("binary", "individual", "binary"),
     "cut_kinds lists 'binary' more than once"),
])
def test_repeated_feature_or_cut_kind_rejected(field, value, named):
    # A repeated feature enumerated its cuts twice: 324 policies for 216
    # ids, with repeated (weight, id) pairs taking Top-K slots.
    scenario = conflict_scenario(seed=1, n_users=4000)
    with pytest.raises(ConfigError, match=named):
        RunConfig(scenario=scenario, **{field: value})
    with pytest.raises(ConfigError, match=named):
        RunConfig.from_mapping({"scenario": asdict(scenario), field: list(value)})
    key = "kinds" if field == "cut_kinds" else field
    with pytest.raises(ConfigError, match=named.replace(field, key)):
        CutEnumerationConfig(**{"features": ("f1",), key: value})
    with pytest.raises(ConfigError, match=named.replace(field, key)):
        CutEnumerationConfig.from_mapping({"features": ["f1"], key: list(value)})


def test_rejected_entities_absent_from_recommendation():
    result = govern_pipeline(small_conflict_config())
    rejected = {e for r in result.reports if r.rejected for e in r.entities}
    assert result.recommendation.policy_id not in rejected


def test_governance_does_not_mutate_estimates():
    config = small_conflict_config()
    result = govern_pipeline(config)
    ds, _ = generate_experiment(config.scenario)
    # Read afresh from a cube of the run's days, the pick's estimates are
    # unchanged bit for bit; a one-day evaluation agrees to rounding.
    policy = result.recommendation
    cube = search.moments_cube(ds, [policy.cut], ds.day_codes(config.backtest_days))
    effects = search.cut_effects(cube, [policy.cut])
    assert search.compose_estimates(cube, effects, [policy], np.zeros(1, dtype=int)) \
        == [policy.estimates]
    fresh = evaluate_policies(ds, [policy])[0]
    for metric, est in fresh.estimates.items():
        assert est.mean == pytest.approx(policy.estimates[metric].mean, rel=1e-12)
        assert est.std_err == pytest.approx(policy.estimates[metric].std_err, rel=1e-12)


def test_pipeline_deterministic_across_runs():
    a = govern_pipeline(small_conflict_config())
    b = govern_pipeline(small_conflict_config())
    assert a.recommendation.policy_id == b.recommendation.policy_id
    assert a.recommendation.estimates == b.recommendation.estimates
    assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]
    assert a.policies.ids == b.policies.ids
    assert a.policies.mean.tobytes() == b.policies.mean.tobytes()
    assert a.policies.std_err.tobytes() == b.policies.std_err.tobytes()
    assert a.backtest_series == b.backtest_series


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_twin_policies_tie_after_every_exclusion(tmp_path, monkeypatch):
    # The decay benchmark's input at seed 8108: f2 = f1 ** 2, so every f1
    # policy has an f2 twin with equal means. Four iterations shrink the
    # table from 216 to 213 rows. Scored from column-major means, the last
    # (rows mod 4) rows round apart from the rest, and f2.ind4.a2-a2-a2-a2,
    # the last row, would score 1 ulp above its twin and enter the
    # frontier; the twins must tie, and the id tie-break keeps f1.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workloads.decay_inputs(8108, tmp_path)
    config = RunConfig(**{**json.loads((tmp_path / "run_config.json").read_text()),
                          "max_refinements": 3})
    result = govern_pipeline(config)
    assert result.iterations == 4 and len(result.policies) == 213
    candidates = sorted([*result.frontier.admitted, *result.frontier.dominated_by])
    assert "f1.ind4.a2-a2-a2-a2" in candidates
    assert "f2.ind4.a2-a2-a2-a2" not in candidates
    # The one ranking equals Top-K on the table the last iteration searched.
    weights = search.sample_weights(2, config.weight_samples, config.seed)
    assert candidates == search.collect_candidates(result.policies, weights,
                                                   config.top_k).policy_ids
    assert len(candidates) == 27


def test_run_artifacts_written(tmp_path):
    config = small_conflict_config()
    result = govern_pipeline(config)
    artifacts = write_run_artifacts(result, config, tmp_path)
    for name in ("policy_table", "frontier", "frontier_coords",
                 "hook_reports", "recommendation", "backtest", "manifest"):
        assert name in artifacts
        assert (tmp_path / artifacts[name]).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "recommended"
    assert manifest["config"]["seed"] == 7
    recommendation = json.loads((tmp_path / "recommendation.json").read_text())
    assert recommendation["policy"]["policy_id"] == \
        result.recommendation.policy_id
    frontier = json.loads((tmp_path / "frontier.json").read_text())
    assert result.recommendation.policy_id in frontier["admitted"]


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(seed=1)  # no scenario and no dataset
    with pytest.raises(ConfigError):
        RunConfig(scenario=conflict_scenario(), tau=-1.0)
    with pytest.raises(ConfigError, match="threshold 'binary' must be in"):
        RunConfig(scenario=conflict_scenario(),
                  thresholds=StabilityThresholds(binary=2.0))
    scenario = asdict(conflict_scenario(n_users=100))
    with pytest.raises(ConfigError, match="threshold 'quantile' must be in"):
        RunConfig.from_mapping({"scenario": scenario,
                                "thresholds": {"quantile": -0.5}})
    with pytest.raises(ConfigError, match="unknown key 'thresholds.binery'"):
        RunConfig.from_mapping({"scenario": scenario,
                                "thresholds": {"binery": 0.2}})
    # An absent threshold key takes its default.
    loaded = RunConfig.from_mapping({"scenario": scenario,
                                     "thresholds": {"binary": 0.2}})
    assert loaded.thresholds == StabilityThresholds(binary=0.2, quantile=0.45)


FILES = dict(dataset_path="data.csv", schema_path="schema.json",
             snapshots_path="snapshots.csv")


def test_run_config_takes_exactly_one_input_source():
    # A scenario used to win silently over a dataset path.
    with pytest.raises(ConfigError, match="exactly one of a scenario and a dataset"):
        RunConfig(scenario=conflict_scenario(n_users=100), **FILES)
    assert RunConfig(**FILES).scenario is None


@pytest.mark.parametrize("missing,message", [
    ("schema_path", "needs a schema path"),
    ("snapshots_path", "needs a snapshots path"),
])
def test_run_config_file_input_needs_schema_and_snapshots(missing, message):
    # A missing snapshots path used to surface only after the whole dataset
    # was ingested.
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{**FILES, missing: None})


@pytest.mark.parametrize("name", ["schema_path", "snapshots_path"])
def test_run_config_scenario_takes_no_input_file(name):
    # A scenario used to build with a file path that the run never read.
    with pytest.raises(ConfigError, match=f"^{name} is read only with a dataset path"):
        RunConfig(scenario=conflict_scenario(n_users=100), **{name: FILES[name]})
    with pytest.raises(ConfigError, match=f"^{name} is read only"):
        RunConfig.from_mapping({"scenario": asdict(conflict_scenario(n_users=100)),
                                name: FILES[name]})


@pytest.mark.parametrize("days", [0, -3])
def test_run_config_rejects_fewer_than_one_backtest_day(days):
    # On a dataset without day labels this used to fail only after the
    # whole search, with a bare ValueError from the day split.
    with pytest.raises(ConfigError, match="backtest_days must be >= 1"):
        RunConfig(scenario=conflict_scenario(), backtest_days=days)
    assert RunConfig(scenario=conflict_scenario(), backtest_days=1)


def test_run_config_rejects_fewer_than_three_robustness_slices():
    # The robustness check needs three slices; two used to fail mid-run.
    with pytest.raises(ConfigError, match="robustness_slices must be >= 3, got 2"):
        RunConfig(scenario=conflict_scenario(), robustness_slices=2)
    assert RunConfig(scenario=conflict_scenario(), robustness_slices=3)


def test_run_config_from_mapping_takes_dataclass_defaults():
    scenario = asdict(conflict_scenario(n_users=100))
    loaded = RunConfig.from_mapping({"scenario": scenario})
    default = RunConfig(scenario=ScenarioConfig.from_mapping(scenario))
    for f in fields(RunConfig):
        assert getattr(loaded, f.name) == getattr(default, f.name), f.name


def _away_from_defaults(value):
    for f in fields(value):
        if f.default is not MISSING:
            assert getattr(value, f.name) != f.default, f.name
        elif f.default_factory is not MISSING:
            assert getattr(value, f.name) != f.default_factory(), f.name
    return value


def test_run_config_from_mapping_converts_every_field_type():
    # Every config class survives asdict -> JSON -> from_mapping with every
    # field set away from its default.
    scenario = ScenarioConfig(
        seed=3, n_users=50, n_features=3, n_metrics=3, n_actions=3,
        planted_effects=(PlantedEffect("f2", 0.25, 0.75, "a3", "m3", 1.5),),
        drift_specs=(DriftSpec("f3", 0.2),), noise_sd=0.5, n_days=5,
        experiment_id="x")
    values = [
        scenario,
        BenchmarkConfig(seed=4, n_experiments=2, n_users=300, n_features=4,
                        n_metrics=3, n_actions=3, noise_sd=0.25, n_bins=5,
                        policy_budget=7),
        CutEnumerationConfig(features=("f2", "f1"), n_bins=3, kinds=("binary",)),
        StabilityThresholds(binary=0.1, quantile=0.4),
    ]
    # A run config reads either a scenario or files: one scenario config and
    # one file config set every field away from its default between them.
    run_configs = [
        RunConfig(
            seed=3, weight_samples=17, top_k=2, tau=0.5,
            thresholds=StabilityThresholds(binary=0.1, quantile=0.4),
            max_refinements=1, primary_metric="m2", minimize_metrics=("m1",),
            n_bins=3, cut_kinds=("binary",), policy_budget=9, features=("f2",),
            backtest_days=10, robustness_slices=3, scenario=scenario),
        RunConfig(**FILES),
    ]
    for f in fields(RunConfig):
        assert any(getattr(c, f.name) != f.default for c in run_configs), f.name
    for value in [*map(_away_from_defaults, values), *run_configs]:
        data = json.loads(json.dumps(asdict(value)))
        assert read_config(type(value), data) == value
        # Python tuples are read as JSON lists are.
        assert read_config(type(value), asdict(value)) == value

    @dataclass
    class Flagged:
        on: bool = False

    with pytest.raises(ConfigError, match="on: no JSON conversion for field type"):
        read_config(Flagged, {"on": True})


def test_run_config_round_trip(tmp_path):
    config = small_conflict_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.to_json()))
    loaded = RunConfig.from_json(path)
    assert loaded.seed == config.seed
    assert loaded.scenario == config.scenario
    assert loaded.thresholds == config.thresholds

    # Every field set away from its default survives the JSON round trip,
    # in a scenario config and in a file config.
    full = RunConfig(
        seed=3, weight_samples=17, top_k=2, tau=0.5,
        thresholds=StabilityThresholds(binary=0.1, quantile=0.4),
        max_refinements=1, primary_metric="m2", minimize_metrics=("m1",),
        n_bins=3, cut_kinds=("binary",), policy_budget=9, features=("f2",),
        backtest_days=10, robustness_slices=3,
        scenario=replace(conflict_scenario(n_users=100), noise_sd=0.5, n_days=7))
    for config in (full, replace(full, scenario=None, **FILES)):
        data = config.to_json()
        assert set(data) == {f.name for f in fields(RunConfig)}
        assert data["thresholds"] == {"binary": 0.1, "quantile": 0.4}
        assert RunConfig.from_mapping(json.loads(json.dumps(data))) == config
