"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it, so no check passes vacuously.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cohortpolicy import cli  # noqa: E402

SEED = 5


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "op"
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path: Path, edit) -> None:
    """Apply `edit(rows)` to a CSV that may start with a comment line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(comments)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _nudge(rows, row_match, column, delta):
    header = rows[0]
    col = header.index(column)
    for row in rows[1:]:
        if row_match(row):
            row[col] = repr(float(row[col]) + delta)
            return
    raise AssertionError("no row to corrupt")


def _edit_json(path: Path, edit) -> None:
    data = checks.read_json(path)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


# -- a recommended governed run (conflict scenario at 4 000 users) ----------


@pytest.fixture(scope="module")
def conflict(tmp_path_factory):
    root = tmp_path_factory.mktemp("conflict")
    scenario = dict(workloads.conflict_scenario(SEED), n_users=4000)
    with open(root / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "scenario": scenario}, fh)
    assert _cli("pipeline", "--config", str(root / "config.json"),
                "--out", str(root / "op")) == 0
    return root / "op", ref.synth_users(scenario)


def _conflict_problems(op_dir, users):
    return checks.check_governed_run(op_dir, [0], users,
                                     effects=workloads.CONFLICT_EFFECTS)


def test_conflict_output_passes(conflict):
    assert _conflict_problems(*conflict) == []


def test_regenerated_users_match_the_program(conflict):
    from cohortpolicy.synth import ScenarioConfig, generate_experiment

    _, users = conflict
    scenario = dict(workloads.conflict_scenario(SEED), n_users=4000)
    ds, _ = generate_experiment(ScenarioConfig.from_mapping(scenario))
    for f in ds.features:
        assert np.array_equal(ds.feature_values(f), users.features[f])
    for m in ds.metrics:
        assert np.array_equal(ds.outcome_values(m), users.outcomes[m])
    for i, action in enumerate(ds.actions):
        assert np.array_equal(ds.arm_mask(action), users.arm == i)


@pytest.mark.parametrize("column", ["m1_mean", "m2_std_err"])
def test_nudged_policy_estimate_is_rejected(conflict, tmp_path, column):
    op_dir = _copy(conflict[0], tmp_path)
    _rewrite_csv(op_dir / "policy_table.csv",
                 lambda rows: _nudge(rows, lambda r: r[0] == "f2.ind4.a1-a0-a2-a1",
                                     column, 1e-6))
    problems = _conflict_problems(op_dir, conflict[1])
    assert any("f2.ind4.a1-a0-a2-a1" in p for p in problems)


def test_dominated_id_added_to_admitted_is_rejected(conflict, tmp_path):
    op_dir = _copy(conflict[0], tmp_path)

    def add_dominated(frontier):
        victim = sorted(frontier["dominated_by"])[0]
        del frontier["dominated_by"][victim]
        frontier["admitted"] = sorted(frontier["admitted"] + [victim])
    _edit_json(op_dir / "frontier.json", add_dominated)
    assert any("admitted" in p and "dominated by" in p
               for p in _conflict_problems(op_dir, conflict[1]))


def test_false_dominator_is_rejected(conflict, tmp_path):
    op_dir = _copy(conflict[0], tmp_path)

    def swap(frontier):
        victim = sorted(frontier["dominated_by"])[0]
        frontier["dominated_by"][victim] = victim
    _edit_json(op_dir / "frontier.json", swap)
    assert any("recorded as dominated by" in p
               for p in _conflict_problems(op_dir, conflict[1]))


def test_other_recommendation_is_rejected(conflict, tmp_path):
    op_dir = _copy(conflict[0], tmp_path)
    table, _ = checks.read_policy_table(op_dir / "policy_table.csv")
    chosen = checks.read_json(op_dir / "recommendation.json")["policy"]["policy_id"]
    other = next(pid for pid in checks.read_json(op_dir / "frontier.json")["admitted"]
                 if pid != chosen)

    def replace(rec):
        rec["policy"]["policy_id"] = other
        for m in ("m1", "m2"):
            mean, se = table[other][m]
            rec["policy"]["estimates"][m].update(mean=mean, std_err=se)
    _edit_json(op_dir / "recommendation.json", replace)
    assert any("last backtest ran on" in p
               for p in _conflict_problems(op_dir, conflict[1]))
    path = op_dir / "hook_reports.jsonl"
    reports = checks.read_jsonl(path)
    for report in reports:
        report["entities"] = [other if e == chosen else e for e in report["entities"]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert any("top qualifying admitted policy" in p
               for p in _conflict_problems(op_dir, conflict[1]))


def test_noise_free_lift_rejects_a_policy_that_moves_m2(conflict):
    op_dir, users = conflict
    table, metrics = checks.read_policy_table(op_dir / "policy_table.csv")
    good = checks.read_json(op_dir / "recommendation.json")["policy"]["policy_id"]
    assert checks.check_noise_free_lift(users, workloads.CONFLICT_EFFECTS, table,
                                        good, "m1", metrics) == []
    problems = checks.check_noise_free_lift(users, workloads.CONFLICT_EFFECTS, table,
                                            "f1.bin2of4.a1-a1", "m1", metrics)
    assert any("noise-free m2" in p for p in problems)


def test_exit_code_must_match_the_status(conflict):
    assert any("exit codes" in p
               for p in checks.check_governed_run(conflict[0], [2], conflict[1]))


def test_false_no_qualifying_verdict_is_rejected(conflict, tmp_path):
    op_dir = _copy(conflict[0], tmp_path)
    path = op_dir / "hook_reports.jsonl"
    reports = checks.read_jsonl(path)[:1] + [{
        "entities": ["<frontier>"], "format_version": 1, "narrative": "",
        "reason_codes": ["NO_QUALIFYING_POLICY"], "stage": "post_search",
        "verdict": "reject"}]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    _edit_json(op_dir / "manifest.json", lambda m: m.update(status="rejected"))
    problems = checks.check_governed_run(op_dir, [2], conflict[1])
    assert any("NO_QUALIFYING_POLICY, yet" in p for p in problems)


@pytest.mark.parametrize("row_index", [1, -1])
def test_nudged_backtest_row_is_rejected(conflict, tmp_path, row_index):
    op_dir = _copy(conflict[0], tmp_path)

    def nudge(rows):
        col = rows[0].index("m1_cum_mean")
        rows[row_index][col] = repr(float(rows[row_index][col]) + 1e-6)
    _rewrite_csv(op_dir / "backtest.csv", nudge)
    problems = _conflict_problems(op_dir, conflict[1])
    assert any("m1 cum" in p for p in problems)
    if row_index == -1:
        assert any("last cumulative m1" in p for p in problems)


def test_changed_run_directory_fails_the_operation(conflict, tmp_path):
    first = tmp_path / "a"
    shutil.copytree(conflict[0], first)
    second = tmp_path / "b"
    shutil.copytree(conflict[0], second)
    with open(second / "manifest.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    workload = workloads.Workload("w", 1, None, None,
                                  lambda seed, inputs: lambda op_dir, codes: [], 1)
    ops = [{"dir": str(d), "input": 0, "error": None, "codes": [0]}
           for d in (first, first, second)]
    problems = run.check_ops(workload, SEED, tmp_path, ops)
    assert [op["failed"] for op in ops] == [False, False, True]
    assert len(problems) == 1


# -- a terminally rejected run (decay-ingest-14k inputs) --------------------


@pytest.fixture(scope="module")
def decay(tmp_path_factory):
    root = tmp_path_factory.mktemp("decay")
    inputs = root / "inputs"
    inputs.mkdir()
    workloads.decay_inputs(SEED, inputs)
    assert _cli("pipeline", "--config", str(inputs / "run_config.json"),
                "--out", str(root / "op")) == 2
    return root / "op", workloads.decay_checker(SEED, inputs)


def test_decay_output_passes(decay):
    op_dir, check = decay
    assert check(op_dir, [2]) == []


def test_recommendation_of_a_fading_effect_is_rejected(decay, tmp_path):
    op_dir = _copy(decay[0], tmp_path)
    _edit_json(op_dir / "manifest.json", lambda m: m.update(status="recommended"))
    assert any("fades to zero" in p for p in decay[1](op_dir, [0]))


def test_excluded_policy_that_does_not_diverge_is_rejected(decay, tmp_path):
    op_dir = _copy(decay[0], tmp_path)
    path = op_dir / "hook_reports.jsonl"
    reports = checks.read_jsonl(path)
    first = next(r for r in reports if r["stage"] == "pre_recommendation")
    first["entities"] = ["f1.bin2of4.a0-a0"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert any("does not diverge" in p for p in decay[1](op_dir, [2]))


def test_decay_policy_table_nudge_is_rejected(decay, tmp_path):
    op_dir = _copy(decay[0], tmp_path)
    _rewrite_csv(op_dir / "policy_table.csv",
                 lambda rows: _nudge(rows, lambda r: r[0] == "f2.ind4.a2-a1-a0-a1",
                                     "m2_mean", -1e-6))
    assert any("f2.ind4.a2-a1-a0-a1" in p for p in decay[1](op_dir, [2]))


# -- selector benchmark ------------------------------------------------------


@pytest.fixture(scope="module")
def selector(tmp_path_factory):
    root = tmp_path_factory.mktemp("selector")
    inputs = root / "inputs"
    inputs.mkdir()
    workloads.selector_inputs(SEED, inputs)
    with contextlib.redirect_stdout(io.StringIO()):
        seconds, codes = workloads.selector_op(cli, inputs, root / "op")
    assert codes == [0, 0]
    return root / "op", workloads.selector_checker(SEED, inputs)


def test_selector_output_passes(selector):
    op_dir, check = selector
    assert check(op_dir, [0, 0]) == []


@pytest.mark.parametrize("selector_name,column,value", [
    ("oracle", "prec@5", "0.999999"),
    ("oracle", "rank_corr", "0.999998"),
    ("primary_mean", "ndcg@3", None),
])
def test_corrupted_report_column_is_rejected(selector, tmp_path, selector_name,
                                             column, value):
    op_dir = _copy(selector[0], tmp_path)

    def corrupt(rows):
        col = rows[0].index(column)
        row = next(r for r in rows[1:] if r[0] == selector_name)
        row[col] = value if value is not None else f"{float(row[col]) + 2e-6:.6f}"
    _rewrite_csv(op_dir / "eval" / "report.csv", corrupt)
    assert any(f"{selector_name} {column}" in p for p in selector[1](op_dir, [0, 0]))


def test_swapped_ground_truth_is_rejected(selector, tmp_path):
    op_dir = _copy(selector[0], tmp_path)

    def swap(payload):
        gt = payload["ground_truths"][4]      # exp000's single_metric instruction
        gt["top5"][0], gt["top5"][1] = gt["top5"][1], gt["top5"][0]
    _edit_json(op_dir / "synth" / "ground_truth.json", swap)
    assert any("single_metric" in p for p in selector[1](op_dir, [0, 0]))


def test_selector_policy_table_nudge_is_rejected(selector, tmp_path):
    op_dir = _copy(selector[0], tmp_path)
    path = op_dir / "synth" / "policy_tables" / "exp007.csv"
    _rewrite_csv(path, lambda rows: _nudge(rows, lambda r: r[2] == "ind8",
                                           "m1_mean", 1e-6))
    assert any(p.startswith("exp007") for p in selector[1](op_dir, [0, 0]))


def test_ranking_columns_match_the_program():
    from cohortpolicy.evaluation import GroundTruth, score_ranking

    rng = np.random.default_rng(SEED)
    ids = [f"p{i}" for i in range(12)]
    for _ in range(200):
        top5 = list(rng.choice(ids, size=int(rng.integers(0, 6)), replace=False))
        ranked = list(rng.choice(ids, size=int(rng.integers(1, 9)), replace=False))
        want = score_ranking(ranked, GroundTruth("e", top5))
        got = ref.ranking_columns(ranked, top5)
        for col in ref.REPORT_COLUMNS:
            assert got[col] == pytest.approx(want[col], abs=1e-12), col


# -- tracing ----------------------------------------------------------------


def test_tracer_counts_layers_and_restores_bindings(tmp_path):
    import cohortpolicy.experiment as experiment
    import cohortpolicy.search as search

    original = search.segment_hte
    scenario = dict(workloads.conflict_scenario(SEED), n_users=2000)
    with open(tmp_path / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "scenario": scenario}, fh)
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert search.segment_hte is not original
        code = _cli("pipeline", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "op"))
    finally:
        tracer.uninstall()
    assert code == 0
    assert search.segment_hte is original is experiment.segment_hte
    layers = tracer.layer_metrics(0)
    assert layers["pipeline.iterations"] == 1
    assert layers["experiment.segment_hte_calls"] > 0
    assert layers["governance.shift_ratio_calls"] == 4
    assert layers["ingest.rows"] == 0 and layers["ingest.ingest_s"] == 0
    total = sum(v for k, v in layers.items() if k.endswith("_s"))
    root = next(s for s in tracer.spans if s[0] == "cli.main")
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)
