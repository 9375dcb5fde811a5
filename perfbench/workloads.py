"""The benchmark's workloads: seeded inputs, one operation each, and the
checks that judge an operation's output.

An operation goes through the program's public entry point,
`cohortpolicy.cli.main`, in-process. The program sees only the files
written here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

# An output check: (operation directory, exit codes) -> problems found.
Checker = Callable[[Path, list[int]], list[str]]

CONFLICT_EFFECTS = (
    {"feature": "f1", "q_lo": 0.5, "q_hi": 1.0, "action": "a1", "metric": "m1", "lift": 2.0},
    {"feature": "f1", "q_lo": 0.0, "q_hi": 0.5, "action": "a1", "metric": "m2", "lift": -2.0},
    {"feature": "f1", "q_lo": 0.0, "q_hi": 0.5, "action": "a2", "metric": "m1", "lift": -2.0},
    {"feature": "f1", "q_lo": 0.0, "q_hi": 0.5, "action": "a2", "metric": "m2", "lift": 2.0},
)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _timed_cli(cli, argv: list[str]) -> tuple[float, int]:
    start = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - start, code


# -- conflict-40k -------------------------------------------------------------


def conflict_scenario(seed: int) -> dict:
    """The package's two-metric conflict scenario at 40 000 users, 14 days."""
    return {"seed": seed, "n_users": 40_000, "n_features": 2, "n_metrics": 2,
            "n_actions": 2, "noise_sd": 1.0, "n_days": 14,
            "experiment_id": "conflict",
            "planted_effects": [dict(e) for e in CONFLICT_EFFECTS],
            "drift_specs": [{"feature": "f1", "target_shift_ratio": 0.04},
                            {"feature": "f2", "target_shift_ratio": 0.03}]}


def conflict_inputs(seed: int, inputs: Path) -> None:
    _write_json(inputs / "run_config.json",
                {"seed": seed, "scenario": conflict_scenario(seed)})


def pipeline_op(cli, inputs: Path, op_dir: Path) -> tuple[float, list[int]]:
    seconds, code = _timed_cli(cli, ["pipeline", "--config",
                                     str(inputs / "run_config.json"),
                                     "--out", str(op_dir)])
    return seconds, [code]


def conflict_checker(seed: int, inputs: Path) -> Checker:
    users = ref.synth_users(conflict_scenario(seed))
    return lambda op_dir, codes: checks.check_governed_run(op_dir, codes, users,
                                                           effects=CONFLICT_EFFECTS)


# -- decay-ingest-14k ---------------------------------------------------------

DECAY_USERS = 14_000
DECAY_DAYS = 14
SNAPSHOT_MOVERS = 0.03
DECAY_SCHEMA = {"user_id": "user_id", "arm": "arm", "control": "a0",
                "features": ["f1", "f2"], "metrics": ["m1", "m2"],
                "day": "day", "experiment_id": "decay"}


def _fmt(value) -> str:
    return repr(float(value))


def decay_inputs(seed: int, inputs: Path) -> None:
    """A 14-day experiment file whose conflict effects fade linearly to zero.

    f2 = f1**2 orders users exactly as f1 does, so each f1 cohort policy has
    an f2 twin with identical estimates. That gives the refinement loop four
    qualifying candidates, and the backtest must reject all four.
    """
    rng = np.random.default_rng([seed, 14])
    n = DECAY_USERS
    f1 = rng.random(n)
    f2 = f1 ** 2
    arm = (np.arange(n) % 3)[rng.permutation(n)]
    day = (np.arange(n) % DECAY_DAYS)[rng.permutation(n)]
    scale = 1.0 - day / (DECAY_DAYS - 1)
    outcomes = {"m1": np.zeros(n), "m2": np.zeros(n)}
    for effect in CONFLICT_EFFECTS:
        mask = ref.effect_range(f1, effect["q_lo"], effect["q_hi"]) \
            & (arm == int(effect["action"][1:]))
        outcomes[effect["metric"]][mask] += effect["lift"] * scale[mask]
    for m in ("m1", "m2"):
        outcomes[m] += rng.normal(0.0, 1.0, n)
    ids = [f"u{i:05d}" for i in range(n)]
    with open(inputs / "experiment.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id,arm,f1,f2,m1,m2,day\n")
        for i in range(n):
            fh.write(f"{ids[i]},a{arm[i]},{_fmt(f1[i])},{_fmt(f2[i])},"
                     f"{_fmt(outcomes['m1'][i])},{_fmt(outcomes['m2'][i])},{day[i]}\n")
    with open(inputs / "snapshots.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id,feature_id,value,snapshot\n")
        for name, t0 in (("f1", f1), ("f2", f2)):
            t1 = t0.copy()
            movers = rng.choice(n, size=round(SNAPSHOT_MOVERS * n), replace=False)
            t1[movers] = rng.random(movers.size)
            for label, values in (("t0", t0), ("t1", t1)):
                fh.writelines(f"{ids[i]},{name},{_fmt(values[i])},{label}\n"
                              for i in range(n))
    _write_json(inputs / "schema.json", DECAY_SCHEMA)
    _write_json(inputs / "run_config.json", {
        "seed": seed,
        "dataset_path": str(inputs / "experiment.csv"),
        "schema_path": str(inputs / "schema.json"),
        "snapshots_path": str(inputs / "snapshots.csv")})


def decay_checker(seed: int, inputs: Path) -> Checker:
    users = checks.read_users_csv(inputs / "experiment.csv", DECAY_SCHEMA["features"],
                                  DECAY_SCHEMA["metrics"], ("a0", "a1", "a2"))
    return lambda op_dir, codes: checks.check_governed_run(op_dir, codes, users,
                                                           must_reject=True)


# -- selector-bench -----------------------------------------------------------

SELECTOR_SHAPE = {"n_experiments": 20, "n_users": 2000, "n_features": 3,
                  "n_metrics": 2, "n_actions": 3, "noise_sd": 1.0, "n_bins": 8,
                  "policy_budget": 128}


def selector_inputs(seed: int, inputs: Path) -> None:
    _write_json(inputs / "benchmark.json", {"seed": seed, **SELECTOR_SHAPE})


def selector_op(cli, inputs: Path, op_dir: Path) -> tuple[float, list[int]]:
    """Synthesize the benchmark, then score two selectors on it. Building the
    selectors' rankings is the caller's work and stays outside the timing."""
    synth_s, synth_code = _timed_cli(cli, [
        "synth", "--benchmark", str(inputs / "benchmark.json"),
        "--out", str(op_dir / "synth")])
    if synth_code != 0:
        return synth_s, [synth_code]
    with open(op_dir / "rankings.jsonl", "w", encoding="utf-8") as fh:
        for record in checks.selector_rankings(op_dir / "synth"):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    eval_s, eval_code = _timed_cli(cli, [
        "eval", "--rankings", str(op_dir / "rankings.jsonl"),
        "--ground-truth", str(op_dir / "synth" / "ground_truth.json"),
        "--out", str(op_dir / "eval")])
    return synth_s + eval_s, [synth_code, eval_code]


def _random_effects(rng: np.random.Generator, n_features: int, n_actions: int,
                    n_metrics: int) -> list[dict]:
    """The benchmark's per-experiment planted effects: a conflicting pair on
    f1 plus two to four random quartile-range effects, skipping overlaps."""
    actions = [f"a{i + 1}" for i in range(n_actions)]
    effects = [
        {"feature": "f1", "q_lo": 0.5, "q_hi": 1.0, "action": actions[0],
         "metric": "m1", "lift": float(rng.uniform(1.5, 3.0))},
        {"feature": "f1", "q_lo": 0.5, "q_hi": 1.0, "action": actions[0],
         "metric": "m2", "lift": -float(rng.uniform(1.0, 2.0))},
        {"feature": "f1", "q_lo": 0.0, "q_hi": 0.5, "action": actions[-1],
         "metric": "m2", "lift": float(rng.uniform(1.5, 3.0))},
        {"feature": "f1", "q_lo": 0.0, "q_hi": 0.5, "action": actions[-1],
         "metric": "m1", "lift": -float(rng.uniform(1.0, 2.0))},
    ]
    quartiles = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(int(rng.integers(2, 5))):
        feature = f"f{int(rng.integers(1, n_features)) + 1}" if n_features > 1 else "f1"
        lo = int(rng.integers(0, 4))
        hi = int(rng.integers(lo + 1, 5))
        effect = {"feature": feature, "q_lo": quartiles[lo], "q_hi": quartiles[hi],
                  "action": actions[int(rng.integers(0, len(actions)))],
                  "metric": f"m{int(rng.integers(1, n_metrics + 1))}",
                  "lift": float(rng.uniform(-2.5, 2.5))}
        key = lambda e: (e["feature"], e["action"], e["metric"])
        if any(key(e) == key(effect) and e["q_lo"] < effect["q_hi"]
               and effect["q_lo"] < e["q_hi"] for e in effects):
            continue
        effects.append(effect)
    return effects


def selector_experiments(seed: int) -> dict[str, ref.Users]:
    """Regenerate every benchmark experiment's raw users from the seed."""
    shape = SELECTOR_SHAPE
    seeds = np.random.SeedSequence(seed).generate_state(shape["n_experiments"])
    out = {}
    for e in range(shape["n_experiments"]):
        effects = _random_effects(np.random.default_rng([seed, e]),
                                  shape["n_features"], shape["n_actions"],
                                  shape["n_metrics"])
        out[f"exp{e:03d}"] = ref.synth_users({
            "seed": int(seeds[e]), "n_users": shape["n_users"],
            "n_features": shape["n_features"], "n_metrics": shape["n_metrics"],
            "n_actions": shape["n_actions"], "noise_sd": shape["noise_sd"],
            "planted_effects": effects})
    return out


def selector_policies_per_experiment() -> int:
    """Per feature: one N-bin cut sampled at the budget, N-1 binary cuts
    enumerated in full."""
    actions = SELECTOR_SHAPE["n_actions"] + 1
    n_bins, budget = SELECTOR_SHAPE["n_bins"], SELECTOR_SHAPE["policy_budget"]
    per_feature = min(actions ** n_bins, budget) + (n_bins - 1) * min(actions ** 2, budget)
    return SELECTOR_SHAPE["n_features"] * per_feature


def selector_checker(seed: int, inputs: Path) -> Checker:
    experiments = selector_experiments(seed)
    expected = selector_policies_per_experiment()
    return lambda op_dir, codes: checks.check_selector_run(op_dir, codes, experiments,
                                                           expected)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen.

    A round runs one operation on each of `inputs_per_round` inputs. Input
    i of seed s is written from sub-seed s * inputs_per_round + i. The
    governed workloads take three, so that an input on which the run takes
    a shorter path (see README) is a minority of a run's operations and
    moves its median little.
    """

    name: str
    inputs_per_round: int
    write_inputs: Callable[[int, Path], None]
    run_op: Callable                      # (cli, inputs, op_dir) -> (s, codes)
    checker: Callable[[int, Path], Checker]
    users: int                            # users processed by one operation

    def sub_seed(self, seed: int, i: int) -> int:
        return seed * self.inputs_per_round + i


WORKLOADS = {w.name: w for w in (
    Workload("conflict-40k", 3, conflict_inputs, pipeline_op, conflict_checker,
             40_000),
    Workload("decay-ingest-14k", 3, decay_inputs, pipeline_op, decay_checker,
             DECAY_USERS),
    Workload("selector-bench", 1, selector_inputs, selector_op, selector_checker,
             SELECTOR_SHAPE["n_experiments"] * SELECTOR_SHAPE["n_users"]),
)}
