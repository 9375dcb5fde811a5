"""Size ladder of the governed conflict-scenario run, one process per run.

    python bench/ladder.py --side parent:REV:PATH/src --side change:REV:PATH/src \
        --sizes 4000,40000,400000,1000000,4000000 --runs 2 > BENCH.json

A run is `govern_pipeline` plus `write_run_artifacts` on
`conflict_scenario(seed=1, n_users=n)` with `RunConfig(seed=1)`, in a fresh
interpreter that imports `cohortpolicy` from the side's source directory.
Synthesis is timed by wrapping `pipeline._load_inputs`, and `rest_s` is the
run less synthesis. Peak RSS is `ru_maxrss`, which includes the interpreter
and numpy. Within each size and run, the sides take turns to go first. The
JSON on standard output holds every run and, per side and size, the range
of each figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time


def one_run(src: str, n_users: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np

    from cohortpolicy import pipeline
    from cohortpolicy.synth import conflict_scenario

    load, spent = pipeline._load_inputs, []

    def timed_load(config):
        start = time.perf_counter()
        try:
            return load(config)
        finally:
            spent.append(time.perf_counter() - start)

    pipeline._load_inputs = timed_load
    config = pipeline.RunConfig(seed=1, scenario=conflict_scenario(seed=1, n_users=n_users))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        result = pipeline.govern_pipeline(config)
        pipeline.write_run_artifacts(result, config, out)
        run_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"run_s": run_s, "synth_s": spent[0], "rest_s": run_s - spent[0],
            "peak_rss_mb": peak_mb, "us_per_user": run_s / n_users * 1e6,
            "status": result.status, "numpy": np.__version__}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", default=[],
                        help="NAME:REV:SRC, the source directory holding cohortpolicy")
    parser.add_argument("--sizes", default="4000,40000,400000,1000000,4000000")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--child", nargs=2, metavar=("SRC", "N_USERS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(one_run(args.child[0], int(args.child[1]))))
        return
    if not args.side:
        parser.error("give at least one --side")
    sides = [dict(zip(("name", "rev", "src"), side.split(":", 2))) for side in args.side]
    sizes = [int(size) for size in args.sizes.split(",")]
    runs: dict[str, dict[int, list[dict]]] = {s["name"]: {n: [] for n in sizes} for s in sides}
    numpy_version = None
    for n in sizes:
        for k in range(args.runs):
            for side in sides[k % 2:] + sides[:k % 2]:
                done = subprocess.run([sys.executable, __file__, "--child", side["src"], str(n)],
                                      check=True, capture_output=True, text=True)
                run = json.loads(done.stdout)
                numpy_version = run.pop("numpy")
                runs[side["name"]][n].append(run)
                print(side["name"], n, f"{run['run_s']:.3f} s", file=sys.stderr)
    ranges = {name: {n: {key: [min(r[key] for r in rs), max(r[key] for r in rs)]
                         for key in ("run_s", "synth_s", "rest_s", "peak_rss_mb",
                                     "us_per_user")}
                     for n, rs in by_size.items()}
              for name, by_size in runs.items()}
    json.dump({"run": "govern_pipeline + write_run_artifacts on conflict_scenario(seed=1, "
                      "n_users=n) with RunConfig(seed=1), one process per run",
               "revs": {s["name"]: s["rev"] for s in sides},
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy_version, "runs_per_size": args.runs,
               "ranges": ranges, "runs": runs}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
