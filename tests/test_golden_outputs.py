"""Golden outputs: the sha256 of every file that `cohortpolicy pipeline`,
`search`, `filter`, `synth`, `eval`, `govern` and `ingest` write for a
fixed set of inputs.

The digests pin the bytes of the run directories and command outputs, so a
refactor that claims to keep them byte-identical is checked here. A changed
digest means changed output: that is a deliberate format or behaviour
change, which needs its own CHANGES.md entry saying what changed and why,
together with the new digests.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from cohortpolicy import ingest
from cohortpolicy.cli import main
from cohortpolicy.pipeline import RunConfig
from cohortpolicy.synth import (DriftSpec, PlantedEffect, ScenarioConfig,
                                conflict_scenario, drifted_scenario)


def one_effect_scenario(seed, n_users=300):
    # As in test_pipeline: the conflict scenario with only its m1 effect.
    return replace(conflict_scenario(seed=seed, n_users=n_users),
                   planted_effects=(PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),))


RUNS = {
    # Recommended after one iteration.
    "recommended_first": RunConfig(seed=7, primary_metric="m1",
                                   scenario=conflict_scenario(seed=7)),
    # Recommended after three refinements (four iterations).
    "recommended_fourth": RunConfig(seed=8, scenario=one_effect_scenario(8)),
    # Rejected when its refinement budget runs out (three iterations).
    "refinements_exhausted": RunConfig(seed=8, max_refinements=2,
                                       scenario=one_effect_scenario(8)),
    # Ends NO_QUALIFYING_POLICY.
    "no_qualifying_policy": RunConfig(
        seed=4, weight_samples=100, primary_metric="m1",
        scenario=ScenarioConfig(seed=4, n_users=1500, n_features=1, n_metrics=2,
                                n_actions=1, noise_sd=1.0, n_days=14,
                                drift_specs=(DriftSpec("f1", 0.02),))),
    # Every feature unstable: rejected before the search.
    "pre_search_rejection": RunConfig(
        seed=3, weight_samples=50,
        scenario=ScenarioConfig(seed=3, n_users=1200, n_features=2, n_metrics=2,
                                n_actions=1, noise_sd=1.0, n_days=14,
                                drift_specs=(DriftSpec("f1", 0.5),
                                             DriftSpec("f2", 0.6)))),
}

EXPECTED = {
    'no_qualifying_policy': (2, {
        'frontier.json':
            '36918a5067d22f9a7582b4d23e6938e4fc513cb862e90e2ae27936453d12a21c',
        'frontier_coords.csv':
            'd3dbab592db0b6971146366ae7725df5aa302d0f546dea7f027c8fff8a43df78',
        'hook_reports.jsonl':
            '2853a955fcf1cc8bffbd3494f7521dc50850accfdeb607802a382309610b885f',
        'manifest.json':
            'd744281b196ae204cb23c177d7230713feb7bb11c6095b6b73825044e033a0fc',
        'policy_table.csv':
            '9e6862ac81f3918ce575b2bd3e4a2b23c87ff31ac7a76506a855a023f526b782',
        'recommendation.json':
            '3d9a9eb37bbce3da506ddbe83f7400e0e04b382e0c1b5ae0b7a90df039f81039',
    }),
    'pre_search_rejection': (2, {
        'hook_reports.jsonl':
            'b6e9dcd8cb1fb46d3a6217631aa079289555bf71657396ca89d5aedfe1061388',
        'manifest.json':
            '9dc1387ea93e29d16aa0255e9a899d0060456abd869d5482d8950651231de3ee',
        'recommendation.json':
            '3d9a9eb37bbce3da506ddbe83f7400e0e04b382e0c1b5ae0b7a90df039f81039',
    }),
    'recommended_first': (0, {
        'backtest.csv':
            'f1c53c92a9d21d015c486ecb0047e0267bd8e43479d662e1c43b159cb083c707',
        'frontier.json':
            '1ee790bd2af014c18646ff9c09a8139ef7bdcf4f0d2694819bab82e33deeef5d',
        'frontier_coords.csv':
            'cdff42768c998ba42b3d7ce465ae6d0950977d714f300ba4aed97fb82cb2e503',
        'hook_reports.jsonl':
            'c5bb8709ca3d54b274d4f8449960f87f1b17f15c1c307ff2f070d4a3ee86c45c',
        'manifest.json':
            '2f18179bd1cc6586e687b744ada346b770408b01af485a133e6b9c90f76d4100',
        'policy_table.csv':
            'a9ef02d609aba72c5aea99ad6cb8f0a358dec11ac655920a6b2e0ed8910f61d8',
        'recommendation.json':
            '1fa863acf805bffa6afbab127a867527270fcbc66d28deafdc6a529fc4adc7b2',
    }),
    'recommended_fourth': (0, {
        'backtest.csv':
            '0901d80fbfd4e213e1d521771a3a5384b7a30857d6447d90da6f66845da151c1',
        'frontier.json':
            '40bcdb510c8a4e2be728a2f4a33cdb6140ea040bdc4c7ae85c3aa49372f22cfa',
        'frontier_coords.csv':
            '61d9cbe5c79a4b73154676313191d21f223393f536b6ef0afbc74cb83a505c3e',
        'hook_reports.jsonl':
            '1ecf35e1606f68bec724933be352c3315971e081aea48667c33edce219f7e5f5',
        'manifest.json':
            '42b55ece55049deeeaba53d8e93cee1e12b54379df688f5e69388ff1cc12690c',
        'policy_table.csv':
            'e7625d673f4dc8ea9e738f60c3521238718bad98542b3fad25d83b96b854f913',
        'recommendation.json':
            '46d1987ab919eb0c69b778aad4737c24d2a1d165346ac20ad41b895a38c0979f',
    }),
    'refinements_exhausted': (2, {
        'frontier.json':
            '9b07279ba545cb9fcf0262e29309881bb55e04c4f82bb0292d282564557f7731',
        'frontier_coords.csv':
            '058f099d43fe8bd9c90109f11a3a7ea4fcfd0be0beeffc03e86b65f1e65e8e63',
        'hook_reports.jsonl':
            '2cd71b0f7236a85a9e772d4df39aac69ee8115469434255b671c20ddfb6f8029',
        'manifest.json':
            'ed5213f3182866a58ee6db456fd2efeb9f8992129bea72fe8974eab98e1d7a5c',
        'policy_table.csv':
            '42476f6db80c2484ad48708d951c4a41bd67013ffe3368df748cd3f55625a30b',
        'recommendation.json':
            'b17a53f0b2451e61c7e6150ace8572191ad3494d28a311ca001f8eaa959a11ac',
    }),
    # `recommended_fourth` from its synthesized files: every file but the
    # manifest, which names the input files, equals the scenario run's.
    'recommended_fourth_files': (0, {
        'backtest.csv':
            '0901d80fbfd4e213e1d521771a3a5384b7a30857d6447d90da6f66845da151c1',
        'frontier.json':
            '40bcdb510c8a4e2be728a2f4a33cdb6140ea040bdc4c7ae85c3aa49372f22cfa',
        'frontier_coords.csv':
            '61d9cbe5c79a4b73154676313191d21f223393f536b6ef0afbc74cb83a505c3e',
        'hook_reports.jsonl':
            '1ecf35e1606f68bec724933be352c3315971e081aea48667c33edce219f7e5f5',
        'manifest.json':
            '17d514def406da995527ab1bb3177abddc0afbcc83ea0ceec42bc6f5c4313fd7',
        'policy_table.csv':
            'e7625d673f4dc8ea9e738f60c3521238718bad98542b3fad25d83b96b854f913',
        'recommendation.json':
            '46d1987ab919eb0c69b778aad4737c24d2a1d165346ac20ad41b895a38c0979f',
    }),
    'synth_recommended_fourth': {
        'dataset.csv':
            '7453231ae9f9c0c2ba8e412e2f44de59c1b36724b7bde7e581bd1b09f85e398c',
        'planted_truth.json':
            'b0a5a4337e62591a5cfd9a109246dc5763224a0e3d1229487be3175da8721c69',
        'schema.json':
            '35d09c09d14e282d2f1a534238ba40b2ac3ea1abc407e3437f687ae356949dc7',
        'snapshots.csv':
            '60f8e4d242bda94a7be94b47d9cce3ac4e1fa2e057f4513213815379024681ec',
    },
    'search': {
        'candidates.json':
            '8528f4096781b64be88b8be24e4a89a74596d9f022cfdceb35ec787dda9860e7',
        'policy_table.csv':
            'db3c0e04ff00a29fe8bc34cc35ec80daec9406163e41f628cdd5eb7e19cf7d9f',
    },
    'filter_candidates': {
        'frontier.json':
            '3db60b16b881f621b3a6303e09c191ed85a38c84abeed2330a0b00ac5a27d256',
        'frontier_coords.csv':
            '7e8c03a112e3b5bf40ed587e136f26c0db691d79cdee5e763587fc62cb53671e',
    },
    'filter_all': {
        'frontier.json':
            '2205defc2b55747828d0be4cce93c24b80c54fc4a9ea3efc5814defdf7c1e9da',
        'frontier_coords.csv':
            '882bc8c6b6a92e31e8c8a249c8e79c88856424b943acb78d1dd5cb6de8afbcd7',
    },
    'synth_scenario': {
        'dataset.csv':
            'aed7be5550017455551206e7de60cf6fd043a56683a8889173406f4efb0380f7',
        'planted_truth.json':
            'bde26d34c2cbab05ee28772fae73e83e339946202fd9a1317750e713c08e0f85',
        'schema.json':
            '35d09c09d14e282d2f1a534238ba40b2ac3ea1abc407e3437f687ae356949dc7',
        'snapshots.csv':
            'b20dff4654b26445d2c64bbd07498d3cba38425e47beccdf18e32aca0cf5f948',
    },
    'govern': {
        'hook_reports.jsonl':
            '769ca396d036647d7a46e38a00d6bc031c087f83d01a33239abdb477e0647c29',
        'stability_verdicts.json':
            'e3ab17ba8f11d7b1d60a6a644246502cf656d97f8488b3d2835c6747bc121824',
    },
    'synth_drifted': {
        'dataset.csv':
            '7d97776ca179327070b3e79cbec4577b1a04c2a5bf09f1ddd38f6cd11bf4f4fa',
        'planted_truth.json':
            '3a0771946168ea536a3357baec82fceb18be908a12c1a72ebe2e9cf057a6c23f',
        'schema.json':
            '472b3ae0a078dcc571e58c3b9570840db035b0cd27b34fca38de653e01460279',
        'snapshots.csv':
            '54b330c08891f0489b790f9f53c42ba5912f8cd982f7dbd77cb431dd386c8ae2',
    },
    'govern_drifted': {
        'hook_reports.jsonl':
            '369eabc6efd629ad197bd9bfe14b3c1a3742d412c8cb773251cd0cc4f0194073',
        'stability_verdicts.json':
            'b7c16d90375823020a37e85ed8fec8fef638b680ef6efcdf23d8991e18feb4b2',
    },
    'ingest': {
        'dataset_summary.json':
            'c5da575460a4128eda9b51282f71674bc92fb0a89996c2dca7dfac951e713c34',
    },
    'synth_benchmark': {
        'ground_truth.json':
            '88715e5493bd24108888ebfd0f60f4ce664ef58ec992df7d195d0fe609dbad41',
        'instructions.jsonl':
            '9438d11d076323f7499e74d6917441f0258f76e9b078d80f2b6a479c92d65126',
        'policy_tables/exp000.csv':
            'db99a914c5133b97b684808af47ffa7386cf1b9e7f1fe8b429b2160e22e8ea8d',
        'policy_tables/exp001.csv':
            'a912da7898b53bb29f3124b2ffd821864a10d3ebab07a4491800b51696518989',
    },
    'eval': {
        'report.csv':
            '47d22352d1b32093aa9cc717ff0ecf738276aa459366821ad3a7036daabd65b6',
        'report.txt':
            '656ede36cc854be573f524c94a6d663dd63fe1a6006dde3f081338d0dce6ecb7',
    },
}


def digests(directory: Path) -> dict[str, str]:
    """The sha256 of every file under `directory`, keyed by relative path."""
    return {path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_run_directory_is_unchanged(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUNS[name].to_json()))
    out = tmp_path / "run"
    code = main(["pipeline", "--config", str(config), "--out", str(out)])
    assert (code, digests(out)) == EXPECTED[name]


def test_search_and_filter_outputs_are_unchanged(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        RunConfig(scenario=conflict_scenario(seed=5, n_users=1600)).to_json()["scenario"]))
    search = tmp_path / "search"
    assert main(["search", "--scenario", str(scenario), "--seed", "3",
                 "--weights", "200", "--top-k", "4", "--minimize", "m2",
                 "--out", str(search)]) == 0
    assert digests(search) == EXPECTED["search"]
    table = str(search / "policy_table.csv")
    restricted = tmp_path / "filter_candidates"
    assert main(["filter", "--policy-table", table, "--candidates",
                 str(search / "candidates.json"), "--minimize", "m2",
                 "--tau", "0.5", "--out", str(restricted)]) == 0
    assert digests(restricted) == EXPECTED["filter_candidates"]
    whole = tmp_path / "filter_all"
    assert main(["filter", "--policy-table", table, "--out", str(whole)]) == 0
    assert digests(whole) == EXPECTED["filter_all"]


def test_pipeline_on_synthesized_files_is_unchanged(tmp_path, monkeypatch):
    # `recommended_fourth` read back from the files `synth` writes: ingest,
    # load_snapshots and three refinements. Paths are relative, so the
    # manifest does not name the temporary directory.
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(
        RUNS["recommended_fourth"].to_json()["scenario"]))
    assert main(["synth", "--scenario", "scenario.json", "--out", "synth"]) == 0
    assert digests(Path("synth")) == EXPECTED["synth_recommended_fourth"]
    Path("config.json").write_text(json.dumps(RunConfig(
        seed=8, dataset_path="synth/dataset.csv", schema_path="synth/schema.json",
        snapshots_path="synth/snapshots.csv").to_json()))
    code = main(["pipeline", "--config", "config.json", "--out", "run"])
    assert (code, digests(Path("run"))) == EXPECTED["recommended_fourth_files"]


def test_synth_govern_and_ingest_outputs_are_unchanged(tmp_path, monkeypatch):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        RunConfig(scenario=conflict_scenario(seed=7)).to_json()["scenario"]))
    # Written in the default blocks and in blocks of 1000 rows, in which
    # dataset.csv spans several blocks too.
    for write_rows in (ingest._WRITE_ROWS, 1000):
        monkeypatch.setattr(ingest, "_WRITE_ROWS", write_rows)
        synth = tmp_path / f"synth_{write_rows}"
        assert main(["synth", "--scenario", str(scenario), "--out", str(synth)]) == 0
        assert digests(synth) == EXPECTED["synth_scenario"]
        govern = tmp_path / f"govern_{write_rows}"
        assert main(["govern", "--snapshots", str(synth / "snapshots.csv"),
                     "--out", str(govern)]) == 0
        assert digests(govern) == EXPECTED["govern"]
        ingested = tmp_path / f"ingest_{write_rows}"
        assert main(["ingest", "--data", str(synth / "dataset.csv"),
                     "--schema", str(synth / "schema.json"),
                     "--out", str(ingested)]) == 0
        assert digests(ingested) == EXPECTED["ingest"]


def test_drifted_synth_and_govern_outputs_are_unchanged(tmp_path):
    # The one pinned scenario with an unstable feature: f2 drifts by half.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        RunConfig(scenario=drifted_scenario()).to_json()["scenario"]))
    synth = tmp_path / "synth"
    assert main(["synth", "--scenario", str(scenario), "--out", str(synth)]) == 0
    assert digests(synth) == EXPECTED["synth_drifted"]
    govern = tmp_path / "govern"
    assert main(["govern", "--snapshots", str(synth / "snapshots.csv"),
                 "--out", str(govern)]) == 0
    verdicts = json.loads((govern / "stability_verdicts.json").read_text())
    assert [(v["feature"], v["status"], v["shift_quantile"])
            for v in verdicts["verdicts"]] == [("f1", "stable", 0.04),
                                               ("f2", "unstable", 0.5)]
    assert digests(govern) == EXPECTED["govern_drifted"]


def test_benchmark_and_eval_outputs_are_unchanged(tmp_path):
    config = tmp_path / "benchmark.json"
    config.write_text(json.dumps({"seed": 2, "n_experiments": 2, "n_users": 400,
                                  "policy_budget": 30}))
    bench = tmp_path / "bench"
    assert main(["synth", "--benchmark", str(config), "--out", str(bench)]) == 0
    assert digests(bench) == EXPECTED["synth_benchmark"]
    # Two selectors: one that ranks each ground truth as given and one that
    # ranks it reversed behind a policy outside it.
    truths = json.loads((bench / "ground_truth.json").read_text())["ground_truths"]
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text("".join(
        json.dumps({"selector_name": name, "experiment_id": gt["experiment_id"],
                    "instruction_idx": gt["instruction_idx"], "ranked": ranked}) + "\n"
        for name, order in (("as_given", list), ("reversed", lambda ids: ["x", *ids[::-1]]))
        for gt in truths for ranked in [order(gt["top5"])]))
    scored = tmp_path / "eval"
    assert main(["eval", "--rankings", str(rankings), "--ground-truth",
                 str(bench / "ground_truth.json"), "--out", str(scored)]) == 0
    assert digests(scored) == EXPECTED["eval"]
