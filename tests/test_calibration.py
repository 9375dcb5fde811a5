"""How often the governed run recommends, on named, fixed seed sets.

Each set runs `govern_pipeline` on the 4k-user conflict scenario with
`RunConfig(seed=s)`:

- null: seeds 0-59 with no planted effect, where every recommendation is a
  false discovery;
- planted: seeds 0-59 with the conflict scenario's planted effects;
- win-win: seeds 0-19 where a1 lifts both m1 and m2 by 2.0 for f1 in
  (p50, max], a policy that should be recommended.

The bounds hold today's rates, so a change that makes the statistics worse
fails here. The targets are the rates the statistics should reach; they
are strict xfails, so the change that reaches one sees an XPASS failure and
turns it into a plain test. Seeds and bounds change only with a stated
reason, never so that a bound passes.
"""

from dataclasses import replace
from functools import cache

import pytest

from cohortpolicy.pipeline import RunConfig, govern_pipeline
from cohortpolicy.synth import PlantedEffect, conflict_scenario

WIN_WIN = (PlantedEffect("f1", 0.5, 1.0, "a1", "m1", 2.0),
           PlantedEffect("f1", 0.5, 1.0, "a1", "m2", 2.0))
SEED_SETS = {"null": (range(60), ()), "planted": (range(60), None),
             "win-win": (range(20), WIN_WIN)}


@cache
def recommended(name: str) -> int:
    """How many runs of the named seed set end recommended."""
    seeds, effects = SEED_SETS[name]
    count = 0
    for seed in seeds:
        scenario = conflict_scenario(seed=seed, n_users=4000)
        if effects is not None:
            scenario = replace(scenario, planted_effects=effects)
        count += govern_pipeline(RunConfig(seed=seed, scenario=scenario)).recommended
    return count


def test_null_recommendations_stay_at_most_19_of_60():
    assert recommended("null") <= 19


def test_planted_recommendations_stay_at_least_57_of_60():
    assert recommended("planted") >= 57


@pytest.mark.xfail(strict=True, reason="the governed run recommends on pure "
                   "noise about one time in three (ROADMAP item 2)")
def test_null_recommendations_reach_at_most_6_of_60():
    assert recommended("null") <= 6


@pytest.mark.xfail(strict=True, reason="a policy that lifts both metrics is "
                   "not recommended (ROADMAP item 4)")
def test_win_win_recommendations_reach_at_least_18_of_20():
    assert recommended("win-win") >= 18
