"""Benchmark of cohortpolicy's governed runs and selector evaluation.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Works from any directory. Writes seeded inputs, measures the workload's
operations in a fresh worker process (`worker.py`), checks every operation's
output against an independent recomputation (`checks.py`), and prints one
JSON object as the last line: end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`. Spans and the result stay under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBE = ("import time\n"
                "start = time.perf_counter()\n"
                "import cohortpolicy.cli\n"
                "print(repr(time.perf_counter() - start))\n")


def _env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def measure_setup() -> float:
    """Median time to import cohortpolicy.cli in a fresh process. The median
    drops the one import that may compile bytecode first."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def check_ops(workload, seed: int, inputs: Path, ops: list[dict]) -> list[str]:
    """Mark failed operations in place; return the problems found.

    The first completed operation on each input is checked in full; every
    other one on that input must return the same exit codes and write a
    byte-identical directory, so the same checks hold for it.
    """
    problems = []
    reference: dict[int, tuple] = {}
    for k, op in enumerate(ops):
        op["failed"] = True
        if op["error"] is not None:
            problems.append(f"op{k}: raised\n{op['error']}")
            continue
        i = op["input"]
        outcome = (op["codes"], checks.dir_digest(Path(op["dir"])))
        if i not in reference:
            checker = workload.checker(workload.sub_seed(seed, i), inputs / f"in{i}")
            try:
                found = checker(Path(op["dir"]), op["codes"])
            except Exception:  # a malformed output fails its operation
                found = [f"check raised\n{traceback.format_exc()}"]
            if found:
                problems += [f"op{k}: {p}" for p in found]
                continue
            reference[i] = outcome
        elif outcome != reference[i]:
            problems.append(f"op{k}: exit codes or run directory differ from "
                            f"the first checked operation on input {i}")
            continue
        op["failed"] = False
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    inputs, ops_dir = out / "inputs", out / "ops"
    inputs.mkdir(parents=True)
    ops_dir.mkdir()

    setup_s = None if trace else measure_setup()
    for i in range(workload.inputs_per_round):
        (inputs / f"in{i}").mkdir()
        workload.write_inputs(workload.sub_seed(seed, i),
                              (inputs / f"in{i}").relative_to(ROOT))
    worker_result = out / "worker.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                    "--inputs", str(inputs.relative_to(ROOT)),
                    "--out", str(ops_dir.relative_to(ROOT)),
                    "--spans", str(out / "spans.json"),
                    "--seconds", repr(seconds), "--trace", str(int(trace)),
                    "--result", str(worker_result)],
                   cwd=ROOT, env=_env(), stdout=sys.stderr, check=True,
                   timeout=WORKER_TIMEOUT_S)
    with open(worker_result, encoding="utf-8") as fh:
        measured = json.load(fh)
    ops = measured["ops"]
    problems = check_ops(workload, seed, inputs.relative_to(ROOT), ops)
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)

    ok = [op for op in ops if not op["failed"]]
    untraced = [op["seconds"] for op in ok if not op["traced"]]
    if trace:
        traced = [op for op in ok if op["traced"]]
        values = {}
        if traced and untraced:
            values = {m: statistics.median(op["layers"][m] for op in traced)
                      for m in traced[0]["layers"]}
            values["trace.overhead_s"] = (statistics.median(op["seconds"] for op in traced)
                                          - statistics.median(untraced))
        metrics = {m: {"value": v, "unit": tracing.UNITS[m]} for m, v in values.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"}}
        if untraced:
            metrics["run_s"] = {"value": statistics.median(untraced), "unit": "s"}
    failed = sum(op["failed"] for op in ops)
    result = {"correct": not problems, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    shutil.rmtree(inputs)
    shutil.rmtree(ops_dir)
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "op_seconds": [op.get("seconds") for op in ops],
                   "users_per_op": workload.users, **result}, fh, indent=2)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohortpolicy" / "__init__.py").is_file():
        print(f"error: no cohortpolicy sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 1
    os.chdir(ROOT)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res = results[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
