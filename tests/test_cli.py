import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortpolicy.cli import main
from cohortpolicy.evaluation import (SelectorRanking, load_ground_truths,
                                     save_rankings)
from cohortpolicy.ingest import IngestSchema, ingest
from cohortpolicy.search import (CandidateSet, load_candidates, load_policy_table,
                               save_candidates)
from cohortpolicy.synth import (BenchmarkConfig, ScenarioConfig, build_benchmark,
                                conflict_scenario, generate_experiment,
                                write_benchmark)

from conftest import columns_of


def conflict_run_config(tmp_path, **overrides):
    scenario = conflict_scenario(n_users=1600)
    data = {
        "seed": 7,
        "weight_samples": 120,
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
    }
    data.update(overrides)
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(data))
    return path


def read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.is_file()}


def test_pipeline_success_exit_zero(tmp_path, capsys):
    config = conflict_run_config(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    for name in ("manifest.json", "policy_table.csv", "frontier.json",
                 "hook_reports.jsonl", "recommendation.json",
                 "frontier_coords.csv", "backtest.csv"):
        assert (out / name).exists(), name
    rec = json.loads((out / "recommendation.json").read_text())
    assert rec["status"] == "recommended"
    assert rec["policy"]["feature"] == "f1"


def test_pipeline_byte_identical_across_runs(tmp_path):
    config = conflict_run_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["pipeline", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(out2)]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_threads_option_rejected(tmp_path):
    config = conflict_run_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--config", str(config), "--threads", "2"])
    assert exc.value.code == 1


SMALL_SCENARIO = {"seed": 1, "n_users": 200,
                  "planted_effects": [{"feature": "f1", "q_lo": 0.5, "q_hi": 1.0,
                                       "action": "a1", "metric": "m1",
                                       "lift": 2.0}]}


# (command, file flag, file contents, key path the error names)
BAD_INPUTS = [
    ("pipeline", "--config", {"scenario": SMALL_SCENARIO, "top_kk": 1}, "'top_kk'"),
    ("pipeline", "--config", {"scenario": SMALL_SCENARIO, "minimize_metrics": "m1"},
     "minimize_metrics: expected a list"),
    ("pipeline", "--config", {"scenario": SMALL_SCENARIO, "seed": 1.9},
     "seed: expected an int"),
    ("pipeline", "--config",
     {"scenario": {**SMALL_SCENARIO, "planted_effects": [
         {**SMALL_SCENARIO["planted_effects"][0], "note": "x"}]}},
     "'scenario.planted_effects[0].note'"),
    ("synth", "--scenario", {"n_user": 600}, "'n_user'"),
    ("synth", "--scenario", {"n_users": "600"}, "n_users: expected an int"),
    ("synth", "--benchmark", {"n_users": "800"}, "n_users: expected an int"),
    ("search", "--cuts", {"n_bins": 2}, "missing required key 'features'"),
]


@pytest.mark.parametrize("command,flag,contents,key", BAD_INPUTS)
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, command, flag,
                                             contents, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(contents))
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "search":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SMALL_SCENARIO))
        argv += ["--scenario", str(scenario)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and key in err
    assert "Traceback" not in err


# Every config file is read with its record type by `ingest.read_json`, so
# an error names the file as well as the key.
CONFIG_FILES = [
    ("synth", "--scenario", {"n_user": 5}, "unknown key 'n_user'"),
    ("synth", "--benchmark", {"n_experiment": 5}, "unknown key 'n_experiment'"),
    ("search", "--cuts", {"n_bins": 2}, "missing required key 'features'"),
    ("search", "--scenario", {"n_user": 5}, "unknown key 'n_user'"),
    ("govern", "--thresholds", {"binary": 1.5},
     "threshold 'binary' must be in [0, 1], got 1.5"),
    ("pipeline", "--config", {"top_kk": 5}, "unknown key 'top_kk'"),
]


@pytest.mark.parametrize("command,flag,contents,message", CONFIG_FILES,
                         ids=[f"{c}{f}" for c, f, *_ in CONFIG_FILES])
def test_config_error_names_its_file(tmp_path, capsys, command, flag, contents,
                                     message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(contents))
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if flag == "--cuts":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SMALL_SCENARIO))
        argv += ["--scenario", str(scenario)]
    if command == "govern":
        snapshots = tmp_path / "snapshots.csv"
        snapshots.write_text("user_id,feature_id,value,snapshot\n" + "".join(
            f"u{i},f1,{i},{label}\n" for i in range(8) for label in ("t0", "t1")))
        argv += ["--snapshots", str(snapshots)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["report", "--run", "r", "--seed", "5"],
    ["eval", "--rankings", "r", "--ground-truth", "g", "--instructions", "i"],
    ["ingest", "--data", "d", "--schema", "s", "--seed", "5"],
    ["govern", "--snapshots", "s", "--config", "c"],
    ["pipeline"],
])
def test_flag_a_command_does_not_read_exits_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_scenario_and_benchmark_together_exit_one(tmp_path, capsys):
    scenario, bench = tmp_path / "scenario.json", tmp_path / "bench.json"
    scenario.write_text(json.dumps(SMALL_SCENARIO))
    bench.write_text(json.dumps({"n_experiments": 1, "n_users": 200}))
    out = tmp_path / "out"
    assert main(["synth", "--scenario", str(scenario), "--benchmark", str(bench),
                 "--out", str(out)]) == 1
    assert "exactly one of --scenario or --benchmark" in capsys.readouterr().err
    assert not out.exists()


def _shuffle_data_rows(path, rnd):
    lines = path.read_text().splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")] + \
        [next(ln for ln in lines if not ln.startswith("#"))]
    rows = lines[len(head):]
    rnd.shuffle(rows)
    path.write_text("".join(head + rows))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_directory_invariant_to_input_row_order(tmp_path_factory, seed):
    work = tmp_path_factory.mktemp("row_order")
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(
        json.loads(conflict_run_config(work).read_text())["scenario"]))
    assert main(["synth", "--scenario", str(scenario), "--out", str(work)]) == 0
    config = work / "file_run.json"
    config.write_text(json.dumps({
        "seed": 7, "weight_samples": 120, "primary_metric": "m1",
        "dataset_path": str(work / "dataset.csv"),
        "schema_path": str(work / "schema.json"),
        "snapshots_path": str(work / "snapshots.csv")}))
    assert main(["pipeline", "--config", str(config),
                 "--out", str(work / "run1")]) == 0
    order = random.Random(seed)
    _shuffle_data_rows(work / "dataset.csv", order)
    _shuffle_data_rows(work / "snapshots.csv", order)
    assert main(["pipeline", "--config", str(config),
                 "--out", str(work / "run2")]) == 0
    assert read_all_bytes(work / "run1") == read_all_bytes(work / "run2")


def test_pipeline_rejection_exit_two(tmp_path):
    config = conflict_run_config(
        tmp_path,
        scenario={
            "seed": 3, "n_users": 900, "n_features": 2, "n_metrics": 2,
            "n_actions": 1, "noise_sd": 1.0, "n_days": 14,
            "experiment_id": "unstable",
            "planted_effects": [],
            "drift_specs": [
                {"feature": "f1", "target_shift_ratio": 0.5},
                {"feature": "f2", "target_shift_ratio": 0.6},
            ],
        })
    out = tmp_path / "rejected_run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    assert (out / "hook_reports.jsonl").exists()
    rec = json.loads((out / "recommendation.json").read_text())
    assert rec["status"] == "rejected" and rec["policy"] is None


def test_pipeline_malformed_config_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "never"
    assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_pipeline_too_few_robustness_slices_exit_one(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scenario": asdict(conflict_scenario(n_users=200)),
                                  "robustness_slices": 2}))
    out = tmp_path / "never"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert "robustness_slices must be >= 3, got 2" in capsys.readouterr().err


def test_synth_writes_dataset_and_snapshots(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 5, "n_users": 120, "n_features": 2, "n_metrics": 2,
        "n_actions": 2, "noise_sd": 1.0, "n_days": 4,
        "drift_specs": [{"feature": "f1", "target_shift_ratio": 0.1}],
    }))
    out = tmp_path / "synth_out"
    assert main(["synth", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "schema.json").exists()
    assert (out / "planted_truth.json").exists()
    assert (out / "snapshots.csv").exists()
    # Ingesting the written file reproduces the generated dataset bit for bit.
    expected, _ = generate_experiment(
        ScenarioConfig.from_mapping(json.loads(scenario.read_text())))
    loaded = ingest(out / "dataset.csv", IngestSchema.from_json(out / "schema.json"))
    assert loaded.actions == expected.actions
    assert columns_of(loaded) == columns_of(expected)


def test_ingest_search_filter_govern_round_trip(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 6, "n_users": 200, "n_features": 1, "n_metrics": 2,
        "n_actions": 2, "noise_sd": 1.0,
        "planted_effects": [{"feature": "f1", "q_lo": 0.5, "q_hi": 1.0,
                             "action": "a1", "metric": "m1", "lift": 2.0}],
        "drift_specs": [{"feature": "f1", "target_shift_ratio": 0.05}],
    }))
    synth_out = tmp_path / "s"
    assert main(["synth", "--scenario", str(scenario), "--out",
                 str(synth_out)]) == 0

    ingest_out = tmp_path / "i"
    assert main(["ingest", "--data", str(synth_out / "dataset.csv"),
                 "--schema", str(synth_out / "schema.json"),
                 "--out", str(ingest_out)]) == 0
    summary = json.loads((ingest_out / "dataset_summary.json").read_text())
    assert summary["n_users"] == 200

    search_out = tmp_path / "se"
    assert main(["search", "--data", str(synth_out / "dataset.csv"),
                 "--schema", str(synth_out / "schema.json"),
                 "--weights", "100", "--out", str(search_out)]) == 0
    assert (search_out / "policy_table.csv").exists()
    assert (search_out / "candidates.json").exists()

    filter_out = tmp_path / "f"
    assert main(["filter", "--policy-table",
                 str(search_out / "policy_table.csv"),
                 "--candidates", str(search_out / "candidates.json"),
                 "--tau", "0.5", "--out", str(filter_out)]) == 0
    frontier = json.loads((filter_out / "frontier.json").read_text())
    assert frontier["tau"] == 0.5
    assert frontier["admitted"]

    govern_out = tmp_path / "g"
    assert main(["govern", "--snapshots", str(synth_out / "snapshots.csv"),
                 "--out", str(govern_out)]) == 0
    verdicts = json.loads((govern_out / "stability_verdicts.json").read_text())
    assert verdicts["admitted"] == ["f1"]


@pytest.mark.parametrize("thresholds,code,message", [
    ({"binery": 0.2, "quantile": 0.4}, 1, "ConfigError: unknown key 'binery'"),
    ({"binary": 1.5}, 1, "ConfigError: threshold 'binary' must be in [0, 1]"),
    ({"binary": "0.2"}, 1, "ConfigError: binary: expected a number"),
    ({"binary": 0.2}, 0, ""),
])
def test_govern_thresholds_file_is_checked(tmp_path, capsys, thresholds, code,
                                           message):
    # A misspelt key used to end in a KeyError traceback.
    snapshots = tmp_path / "snapshots.csv"
    snapshots.write_text("user_id,feature_id,value,snapshot\n" + "".join(
        f"u{i},f1,{i},{label}\n" for i in range(8) for label in ("t0", "t1")))
    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps(thresholds))
    out = tmp_path / "out"
    assert main(["govern", "--snapshots", str(snapshots), "--thresholds",
                 str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    # The error names the thresholds file before its message.
    assert message.replace("ConfigError: ", f"ConfigError: {path}: ") in err
    assert "Traceback" not in err
    if code == 0:
        # An absent key takes its default.
        [verdict] = json.loads((out / "stability_verdicts.json").read_text())["verdicts"]
        assert verdict["threshold_basis"] == {"binary": 0.2, "quantile": 0.45}


def test_search_minimize_ranks_lower_mean_first(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 3, "n_users": 400, "n_features": 1, "n_metrics": 1,
        "n_actions": 2, "noise_sd": 1.0,
        "planted_effects": [{"feature": "f1", "q_lo": 0.5, "q_hi": 1.0,
                             "action": "a1", "metric": "m1", "lift": -2.0}]}))
    top = {}
    for flags in ([], ["--minimize", "m1"]):
        out = tmp_path / f"search{len(flags)}"
        assert main(["search", "--scenario", str(scenario), "--weights", "3",
                     "--top-k", "1", "--out", str(out), *flags]) == 0
        top[bool(flags)] = json.loads(
            (out / "candidates.json").read_text())["policy_ids"]
    table, _ = load_policy_table(out / "policy_table.csv")
    means = {pid: estimates["m1"].mean for pid, estimates in table.items()}
    assert top[True] == [min(means, key=means.get)]
    assert top[False] == [max(means, key=means.get)]
    assert means[top[True][0]] < means[top[False][0]]


def test_minimize_unknown_metric_fails(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        json.loads(conflict_run_config(tmp_path).read_text())["scenario"]))
    search_out = tmp_path / "search"
    assert main(["search", "--scenario", str(scenario), "--weights", "3",
                 "--out", str(search_out), "--minimize", "m9"]) == 1
    assert "'m9'" in capsys.readouterr().err
    assert main(["search", "--scenario", str(scenario), "--weights", "3",
                 "--out", str(search_out)]) == 0
    assert main(["filter", "--policy-table", str(search_out / "policy_table.csv"),
                 "--minimize", "m9", "--out", str(tmp_path / "filter")]) == 1
    assert "'m9'" in capsys.readouterr().err


def test_filter_short_row_exits_one_naming_the_row(tmp_path, capsys):
    table = tmp_path / "pt.csv"
    table.write_text("policy_id,feature,cut,actions,m1_mean,m1_std_err,"
                     "m2_mean,m2_std_err\n"
                     "p1,f1,ind2,a0-a1,0.5,0.1,0.2,0.1\n"
                     "p2,c\n")
    assert main(["filter", "--policy-table", str(table),
                 "--out", str(tmp_path / "filter")]) == 1
    assert capsys.readouterr().err == (
        "error: RowIngestError: row 2: expected 8 fields, got 2\n")


@pytest.mark.parametrize("seed", [0, 39])
def test_small_pipeline_run_writes_verdict(tmp_path, seed):
    # Seed 0's first candidate has too few usable backtest days, seed 39's
    # lacks arm support in a robustness slice: both are rejected and the
    # run goes on to a verdict.
    scenario = json.loads(conflict_run_config(tmp_path).read_text())["scenario"]
    scenario.update(seed=seed, n_users=300,
                    planted_effects=scenario["planted_effects"][:1])
    config = tmp_path / "small_run.json"
    config.write_text(json.dumps({"seed": seed, "scenario": scenario}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) in (0, 2)
    assert (out / "manifest.json").exists()
    assert "INSUFFICIENT_DATA" in (out / "hook_reports.jsonl").read_text()


def test_eval_oracle_row_all_ones(tmp_path, capsys):
    bundle = build_benchmark(BenchmarkConfig(seed=8, n_experiments=2,
                                             n_users=250, policy_budget=16))
    bench_dir = tmp_path / "bench"
    write_benchmark(bundle, bench_dir)
    rankings = [
        SelectorRanking(selector_name="oracle", experiment_id=gt.experiment_id,
                        instruction_idx=gt.instruction_idx,
                        ranked=list(gt.top5))
        for gt in bundle.ground_truths
    ]
    rankings_path = tmp_path / "rankings.jsonl"
    save_rankings(rankings_path, rankings)

    out = tmp_path / "eval_out"
    assert main(["eval", "--rankings", str(rankings_path),
                 "--ground-truth", str(bench_dir / "ground_truth.json"),
                 "--out", str(out)]) == 0
    report_lines = (out / "report.csv").read_text().splitlines()
    assert report_lines[1].startswith("selector,")
    cells = report_lines[2].split(",")
    assert cells[0] == "oracle"
    assert all(float(x) == 1.0 for x in cells[1:])


def test_eval_two_selectors_order_preserved(tmp_path):
    bundle = build_benchmark(BenchmarkConfig(seed=8, n_experiments=1,
                                             n_users=250, policy_budget=16))
    bench_dir = tmp_path / "bench"
    write_benchmark(bundle, bench_dir)
    rankings = []
    for name in ("zeta", "alpha"):
        rankings += [
            SelectorRanking(selector_name=name,
                            experiment_id=gt.experiment_id,
                            instruction_idx=gt.instruction_idx,
                            ranked=list(gt.top5))
            for gt in bundle.ground_truths
        ]
    rankings_path = tmp_path / "rankings.jsonl"
    save_rankings(rankings_path, rankings)
    out = tmp_path / "eval_out"
    assert main(["eval", "--rankings", str(rankings_path),
                 "--ground-truth", str(bench_dir / "ground_truth.json"),
                 "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[2].startswith("zeta,") and lines[3].startswith("alpha,")


def test_eval_empty_rankings_exit_one(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps({"format_version": 1, "ground_truths": []}))
    assert main(["eval", "--rankings", str(empty),
                 "--ground-truth", str(gt_path),
                 "--out", str(tmp_path / "x")]) == 1


def test_eval_unmatched_ranking_exit_one(tmp_path):
    rankings_path = tmp_path / "r.jsonl"
    save_rankings(rankings_path, [SelectorRanking("s", "nope", 0, ["a"])])
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps({"format_version": 1, "ground_truths": []}))
    assert main(["eval", "--rankings", str(rankings_path),
                 "--ground-truth", str(gt_path),
                 "--out", str(tmp_path / "x")]) == 1


def test_synth_benchmark_mode(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"seed": 9, "n_experiments": 1, "n_users": 200,
                               "policy_budget": 16}))
    out = tmp_path / "bench_out"
    assert main(["synth", "--benchmark", str(cfg), "--out", str(out)]) == 0
    assert (out / "instructions.jsonl").exists()
    assert (out / "ground_truth.json").exists()
    assert (out / "policy_tables" / "exp000.csv").exists()
    gts = load_ground_truths(out / "ground_truth.json")
    assert len(gts) == 5


def test_report_summarizes_run(tmp_path, capsys):
    config = conflict_run_config(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    text = capsys.readouterr().out
    assert "run status: recommended" in text
    assert "recommended policy:" in text


def test_report_missing_run_exit_one(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path / "nope")]) == 1


def test_every_output_file_schema_versioned(tmp_path):
    config = conflict_run_config(tmp_path)
    run_out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out",
                 str(run_out)]) == 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 5, "n_users": 80, "n_metrics": 1, "n_actions": 1,
        "n_days": 2,
        "drift_specs": [{"feature": "f1", "target_shift_ratio": 0.1}],
    }))
    synth_out = tmp_path / "synth"
    assert main(["synth", "--scenario", str(scenario), "--out",
                 str(synth_out)]) == 0
    for path in [*run_out.iterdir(), *synth_out.iterdir()]:
        text = path.read_text()
        if path.suffix == ".csv":
            assert text.startswith("# format_version:"), path.name
        elif path.suffix == ".json":
            assert json.loads(text)["format_version"] == 1, path.name
        elif path.suffix == ".jsonl":
            for line in filter(None, text.splitlines()):
                assert json.loads(line)["format_version"] == 1, path.name


def test_missing_required_combo_exit_one(capsys):
    assert main(["synth"]) == 1
    assert main(["search"]) == 1

def test_filter_rejects_an_unknown_candidate(tmp_path, capsys):
    # A candidates file from another search used to filter a silent subset.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SMALL_SCENARIO))
    search = tmp_path / "search"
    assert main(["search", "--scenario", str(scenario), "--weights", "20",
                 "--out", str(search)]) == 0
    known = json.loads((search / "candidates.json").read_text())["policy_ids"][0]
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps({"policy_ids": [known, "no.such.policy",
                                                     "other.policy"]}))
    out = tmp_path / "filter"
    capsys.readouterr()
    assert main(["filter", "--policy-table", str(search / "policy_table.csv"),
                 "--candidates", str(candidates), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and "'no.such.policy'" in err
    assert "other.policy" not in err and not out.exists()


@pytest.mark.parametrize("payload,message", [
    ({"ids": ["x"]}, "unknown key 'ids'"),
    ({}, "missing required key 'policy_ids'"),
    ({"policy_ids": "x"}, "policy_ids: expected a list, got 'x'"),
    ({"policy_ids": ["x"], "provenance": {"x": [[0]]}},
     "provenance.x[0]: expected a list of 2, got [0]"),
    ({"policy_ids": ["a"], "provenance": {"b": [[0, 1]]}},
     "provenance for policy 'b', which policy_ids does not list"),
], ids=["other_key", "no_ids", "ids_not_a_list", "short_provenance_pair",
        "unlisted_provenance"])
def test_filter_bad_candidates_file_exits_one_naming_file_and_key(
        tmp_path, capsys, payload, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SMALL_SCENARIO))
    search = tmp_path / "search"
    assert main(["search", "--scenario", str(scenario), "--weights", "20",
                 "--out", str(search)]) == 0
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["filter", "--policy-table", str(search / "policy_table.csv"),
                 "--candidates", str(candidates),
                 "--out", str(tmp_path / "filter")]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {candidates}: {message}\n"


def test_candidates_file_round_trip(tmp_path):
    candidates = CandidateSet(policy_ids=["a", "b"],
                              provenance={"b": [(0, 1), (2, 0)], "a": [(1, 0)]})
    save_candidates(tmp_path / "c.json", candidates)
    assert load_candidates(tmp_path / "c.json") == candidates


def eval_inputs(tmp_path, ranking, truth):
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text("\n" + json.dumps({"selector_name": "s", "experiment_id": "e",
                                           "instruction_idx": 0, "ranked": ["a"]})
                        + "\n" + json.dumps(ranking) + "\n")
    ground_truth = tmp_path / "ground_truth.json"
    ground_truth.write_text(json.dumps({"ground_truths": [truth]}))
    return ["eval", "--rankings", str(rankings), "--ground-truth", str(ground_truth),
            "--out", str(tmp_path / "out")]


def test_eval_ranking_without_ranked_names_file_line_and_key(tmp_path, capsys):
    argv = eval_inputs(tmp_path, {"selector_name": "s", "experiment_id": "e",
                                  "instruction_idx": 1},
                       {"experiment_id": "e", "instruction_idx": 0, "top5": ["a"]})
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and "Traceback" not in err
    assert f"{tmp_path / 'rankings.jsonl'}, line 3:" in err
    assert "missing required key 'ranked'" in err
    assert not (tmp_path / "out").exists()


def test_eval_ground_truth_top5_must_be_a_list(tmp_path, capsys):
    # A string used to be scored as the ids of its characters.
    argv = eval_inputs(tmp_path, {"selector_name": "s", "experiment_id": "e",
                                  "instruction_idx": 1, "ranked": ["a"]},
                       {"experiment_id": "e", "instruction_idx": 0, "top5": "abc"})
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert "ground_truths[0].top5: expected a list, got 'abc'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--schema", "--scenario", "--config"])
def test_malformed_json_input_names_its_path(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    argv = {"--schema": ["ingest", "--data", str(tmp_path / "d.csv")],
            "--scenario": ["synth"], "--config": ["pipeline"]}[flag]
    assert main([*argv, flag, str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {bad}: malformed JSON: Expecting ")
    assert not (tmp_path / "out").exists()
