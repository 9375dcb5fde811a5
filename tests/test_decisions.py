"""The governed run's decisions on 136 fixed conflict runs: status,
iteration count and recommended policy id, as `tests/decisions.json`
records them.

The set is `conflict_scenario` at 4k users with seeds 0-59 and at 40k users
with seeds 0, 5, ..., 35, each with its planted effects and with none
(null), run with `RunConfig(seed=s)`. The table was recorded while the
policy table and each pick's validation made separate passes over the
users. Estimates from one moments cube differ from those passes in the
last digits only, so every decision must stay as recorded.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cohortpolicy.pipeline import RunConfig, govern_pipeline
from cohortpolicy.synth import conflict_scenario

DECISIONS = json.loads((Path(__file__).parent / "decisions.json").read_text())
RUNS = [(kind, n_users, seed) for n_users, seeds in ((4000, range(60)),
                                                      (40000, range(0, 40, 5)))
        for kind in ("planted", "null") for seed in seeds]


def test_the_recorded_set_is_the_named_one():
    assert sorted(DECISIONS) == sorted(f"{kind}/{n}/{seed}" for kind, n, seed in RUNS)
    assert len(DECISIONS) == 136


@pytest.mark.parametrize("n_users", [4000, 40000])
def test_decisions_equal_the_recorded_ones(n_users):
    got, want = {}, {}
    for kind, n, seed in RUNS:
        if n != n_users:
            continue
        scenario = conflict_scenario(seed=seed, n_users=n)
        if kind == "null":
            scenario = replace(scenario, planted_effects=())
        result = govern_pipeline(RunConfig(seed=seed, scenario=scenario))
        key = f"{kind}/{n}/{seed}"
        got[key] = [result.status, result.iterations,
                    result.recommendation.policy_id if result.recommended else None]
        want[key] = DECISIONS[key]
    assert got == want
