"""Command-line surface: ingest, synth, search, filter, govern, pipeline,
eval, report.

Exit codes: 0 success, 2 terminal governance rejection, 1 error (a usage
error included). Each command takes only the flags it reads. All output
files are schema-versioned and timestamp-free, so reruns with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import CohortPolicyError, ConfigError
from .evaluation import (evaluate_selector, load_ground_truths, load_rankings,
                         save_report)
from .frontier import (ToleranceConfig, save_frontier, save_frontier_coords,
                       tolerance_filter)
from .governance import (StabilityThresholds, load_snapshots, pre_search_filter,
                         save_reports, save_snapshots, stability_verdicts)
from .ingest import IngestSchema, ingest, read_json, write_csv, write_json
from .pipeline import RunConfig, govern_pipeline, write_run_artifacts
from .search import (build_policy_table, collect_candidates, load_candidates,
                     load_policy_table, moments_cube, sample_weights,
                     save_candidates, save_policy_table)
from .segmentation import CutEnumerationConfig, enumerate_cuts
from .synth import (BenchmarkConfig, ScenarioConfig, build_benchmark,
                    drift_snapshots, generate_experiment, write_benchmark)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _with_seed(cfg, seed: int | None):
    return cfg if seed is None else replace(cfg, seed=seed)


def _out_dir(args, default_prefix: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        out = Path(f"{default_prefix}-{stamp}")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    schema = IngestSchema.from_json(args.schema)
    ds = ingest(args.data, schema)
    out = _out_dir(args, "ingest")
    summary = {
        "experiment_id": ds.experiment_id,
        "n_users": ds.n_users,
        "actions": list(ds.actions),
        "control_action": ds.control_action,
        "metrics": list(ds.metrics),
        "features": list(ds.features),
        "lift_units": ds.lift_units,
        "arm_sizes": {a: int(ds.arm_mask(a).sum()) for a in ds.actions},
    }
    write_json(out / "dataset_summary.json", summary)
    print(f"ingested {ds.n_users} users into {out / 'dataset_summary.json'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.benchmark:
        cfg = _with_seed(read_json(args.benchmark, BenchmarkConfig), args.seed)
        out = _out_dir(args, "synth")
        bundle = build_benchmark(cfg)
        write_benchmark(bundle, out)
        print(f"benchmark with {len(bundle.instructions)} instructions in {out}")
        return EXIT_OK
    cfg = _with_seed(read_json(args.scenario, ScenarioConfig), args.seed)
    out = _out_dir(args, "synth")
    ds, truth = generate_experiment(cfg)
    header = ["user_id", "arm", *ds.features, *ds.metrics]
    # `.tolist()` gives Python scalars, which are written as plain numbers.
    columns = [ds.user_ids.tolist(), [ds.actions[c] for c in ds.arm_codes.tolist()],
               *ds.feature_matrix.tolist(), *ds.outcome_matrix.tolist()]
    include_day = ds.days is not None
    if include_day:
        header.append("day")
        columns.append(ds.days.tolist())
    write_csv(out / "dataset.csv", header, columns)
    schema = {
        "user_id": "user_id", "arm": "arm", "control": ds.control_action,
        "features": list(ds.features), "metrics": list(ds.metrics),
        "lift_units": ds.lift_units, "experiment_id": ds.experiment_id,
    }
    if include_day:
        schema["day"] = "day"
    write_json(out / "schema.json", schema)
    write_json(out / "planted_truth.json", truth)
    if cfg.drift_specs:
        save_snapshots(out / "snapshots.csv", drift_snapshots(cfg, ds))
    print(f"synthetic experiment {ds.experiment_id!r} in {out}")
    return EXIT_OK


def _load_dataset(args):
    if args.scenario:
        cfg = read_json(args.scenario, ScenarioConfig)
        ds, _ = generate_experiment(_with_seed(cfg, args.seed))
        return ds
    schema = IngestSchema.from_json(args.schema)
    return ingest(args.data, schema)


def cmd_search(args) -> int:
    ds = _load_dataset(args)
    seed = args.seed if args.seed is not None else 0
    cuts_cfg = read_json(args.cuts, CutEnumerationConfig) \
        if args.cuts else CutEnumerationConfig(features=ds.features)
    cuts = enumerate_cuts(ds, cuts_cfg)
    table = build_policy_table(moments_cube(ds, cuts), cuts, args.budget, seed)
    weights = sample_weights(len(ds.metrics), args.weights, seed)
    candidates = collect_candidates(table, weights, args.top_k,
                                    metrics=ds.metrics,
                                    minimize=tuple(args.minimize or ()))
    out = _out_dir(args, "search")
    save_policy_table(out / "policy_table.csv", table)
    save_candidates(out / "candidates.json", candidates)
    print(f"{len(table)} policies evaluated, "
          f"{len(candidates.policy_ids)} candidates in {out}")
    return EXIT_OK


def cmd_filter(args) -> int:
    table, metrics = load_policy_table(args.policy_table)
    if args.candidates:
        keep = load_candidates(args.candidates).policy_ids
        unknown = [pid for pid in keep if pid not in table]
        if unknown:
            raise ConfigError(f"{args.candidates}: policy {unknown[0]!r} is not "
                              f"in {args.policy_table}")
        table = table.take(keep)
    result = tolerance_filter(
        table, ToleranceConfig(tau=args.tau, minimize=tuple(args.minimize or ())),
        metrics=metrics)
    out = _out_dir(args, "filter")
    save_frontier(out / "frontier.json", result)
    if len(metrics) >= 2:
        save_frontier_coords(out / "frontier_coords.csv", table, result,
                             (metrics[0], metrics[1]))
    print(f"{len(result.admitted)} of {len(table)} policies admitted "
          f"at tau={args.tau} in {out}")
    return EXIT_OK


def cmd_govern(args) -> int:
    pairs = load_snapshots(args.snapshots)
    thresholds = (read_json(args.thresholds, StabilityThresholds)
                  if args.thresholds else StabilityThresholds())
    verdicts = stability_verdicts(sorted(pairs), pairs, thresholds)
    report, admitted = pre_search_filter(verdicts)
    out = _out_dir(args, "govern")
    write_json(out / "stability_verdicts.json", {
        "verdicts": [v.to_json() for v in verdicts],
        "admitted": admitted,
    })
    save_reports(out / "hook_reports.jsonl", [report])
    print(f"{len(admitted)} of {len(verdicts)} features admitted; "
          f"reports in {out}")
    return EXIT_OK if not report.rejected else EXIT_REJECTED


def cmd_pipeline(args) -> int:
    config = _with_seed(RunConfig.from_json(args.config), args.seed)
    result = govern_pipeline(config)
    out = _out_dir(args, "run")
    write_run_artifacts(result, config, out)
    if result.recommended:
        print(f"recommended {result.recommendation.policy_id} in {out}")
        return EXIT_OK
    print(f"terminal rejection after {result.iterations} iteration(s); "
          f"reports in {out}", file=sys.stderr)
    return EXIT_REJECTED


def cmd_eval(args) -> int:
    rankings = load_rankings(args.rankings)
    if not rankings:
        return _fail("rankings file is empty")
    gts = load_ground_truths(args.ground_truth)
    report = evaluate_selector(rankings, gts)
    out = _out_dir(args, "eval")
    save_report(out / "report.csv", out / "report.txt", report)
    with open(out / "report.txt", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return EXIT_OK


def cmd_report(args) -> int:
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        return _fail(f"no manifest.json under {run}")
    manifest = read_json(manifest_path)
    print(f"run status: {manifest['status']} "
          f"(iterations: {manifest['iterations']})")
    print(f"seed: {manifest['config'].get('seed')}, "
          f"tau: {manifest['config'].get('tau')}, "
          f"W: {manifest['config'].get('weight_samples')}, "
          f"top-K: {manifest['config'].get('top_k')}")
    for name, filename in sorted(manifest["artifacts"].items()):
        print(f"  {name}: {filename}")
    rec_path = run / "recommendation.json"
    if rec_path.exists():
        rec = read_json(rec_path)
        policy = rec.get("policy")
        if policy:
            print(f"recommended policy: {policy['policy_id']}")
            for metric, est in sorted(policy["estimates"].items()):
                print(f"  {metric}: {est['mean']:+.4f} ± {est['std_err']:.4f}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, so exit 2 means only a
    governance rejection."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohortpolicy",
        description="Cohort-policy discovery, governance, and evaluation for "
                    "randomized experiments.")
    out = _Parser(add_help=False)
    out.add_argument("--out", help="output directory")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the config seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[out],
                       help="validate an experiment file")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[out, seed],
                       help="generate a synthetic experiment or benchmark")
    p.add_argument("--scenario", help="scenario config JSON")
    p.add_argument("--benchmark", help="benchmark config JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", parents=[out, seed],
                       help="enumerate, evaluate, and collect candidates")
    p.add_argument("--data")
    p.add_argument("--schema")
    p.add_argument("--scenario")
    p.add_argument("--cuts", help="cut enumeration config JSON")
    p.add_argument("--weights", type=int, default=1000)
    p.add_argument("--top-k", type=int, default=5, dest="top_k")
    p.add_argument("--budget", type=int, default=128)
    p.add_argument("--minimize", action="append",
                   help="metric to minimize (repeatable)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("filter", parents=[out],
                       help="tolerance-based Pareto filter on a policy table")
    p.add_argument("--policy-table", required=True, dest="policy_table")
    p.add_argument("--candidates", help="candidates.json to restrict to")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--minimize", action="append",
                   help="metric to minimize (repeatable)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("govern", parents=[out],
                       help="feature-stability verdicts and pre-search filter")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--thresholds", help="thresholds JSON override")
    p.set_defaults(func=cmd_govern)

    p = sub.add_parser("pipeline", parents=[out, seed],
                       help="full governed run from a run config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", parents=[out],
                       help="score selector rankings against ground truths")
    p.add_argument("--rankings", required=True)
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and bool(args.scenario) == bool(args.benchmark):
        return _fail("synth needs exactly one of --scenario or --benchmark")
    if args.command == "search" and not (args.scenario or (args.data and args.schema)):
        return _fail("search needs --scenario or --data with --schema")
    try:
        return args.func(args)
    except CohortPolicyError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc}")
    except ValueError as exc:
        return _fail(f"ValueError: {exc}")


if __name__ == "__main__":
    sys.exit(main())
