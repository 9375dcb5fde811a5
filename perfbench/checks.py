"""Output checks: each operation's files against an independent recomputation.

Every check returns a list of problems; an empty list means the output is
correct. The expected values come from `reference.py` and from the raw
inputs, never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref


# -- readers ----------------------------------------------------------------


def _data_lines(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def read_policy_table(path: Path) -> tuple[dict, list[str]]:
    """{policy_id: {"feature", "cut", "actions", metric: (mean, se)}}."""
    reader = csv.reader(_data_lines(path))
    header = next(reader)
    metrics = [h[:-len("_mean")] for h in header if h.endswith("_mean")]
    table = {}
    for row in reader:
        rec = dict(zip(header, row))
        entry = {"feature": rec["feature"], "cut": rec["cut"],
                 "actions": rec["actions"].split("-")}
        for m in metrics:
            entry[m] = (float(rec[f"{m}_mean"]), float(rec[f"{m}_std_err"]))
        table[rec["policy_id"]] = entry
    return table, metrics


def read_ground_truths(synth_dir: Path) -> dict[tuple[str, int], list[str]]:
    """{(experiment id, instruction index): top-5 policy ids}."""
    return {(g["experiment_id"], g["instruction_idx"]): g["top5"]
            for g in read_json(synth_dir / "ground_truth.json")["ground_truths"]}


def read_csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(_data_lines(path)))


def read_users_csv(path: Path, features, metrics, actions) -> ref.Users:
    """Raw users from an experiment CSV (user_id, arm, features, metrics,
    day), in user-id order."""
    rows = sorted(read_csv_rows(path), key=lambda r: r["user_id"])
    col = lambda name: np.array([float(r[name]) for r in rows])
    return ref.Users(
        features={f: col(f) for f in features},
        arm=np.array([actions.index(r["arm"]) for r in rows]),
        outcomes={m: col(m) for m in metrics},
        day=np.array([int(r["day"]) for r in rows]),
        actions=tuple(actions))


def dir_digest(path: Path) -> str:
    """Hash of every file's relative path and bytes under `path`."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode())
        h.update(b"\0")
        h.update(file.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# -- policy table -----------------------------------------------------------


def _assignments(table: dict, pids: list[str], actions) -> np.ndarray:
    return np.array([[actions.index(a) for a in table[pid]["actions"]]
                     for pid in pids])


def recompute_policies(users: ref.Users, table: dict, pids: list[str],
                       metrics) -> dict:
    """Reference estimates for `pids` (all on one cut), keyed by policy id."""
    first = table[pids[0]]
    cut = ref.Cut(first["feature"], first["cut"])
    slot = cut.slot_codes(users, cut.bounds(users))
    est = ref.policy_estimates(users, slot, cut.slots,
                               _assignments(table, pids, users.actions), metrics)
    return {pid: ({m: (float(est[m][0][i]), float(est[m][1][i])) for m in metrics},
                  bool(est["supported"][i]))
            for i, pid in enumerate(pids)}


def check_policy_table(users: ref.Users, table: dict, metrics) -> list[str]:
    """Every row equals the plain-numpy recomputation to 1e-9 relative."""
    problems = []
    by_cut: dict[tuple[str, str], list[str]] = {}
    for pid, row in table.items():
        by_cut.setdefault((row["feature"], row["cut"]), []).append(pid)
    for pids in by_cut.values():
        expected = recompute_policies(users, table, pids, metrics)
        for pid in pids:
            est, supported = expected[pid]
            if not supported:
                problems.append(f"{pid}: listed but a treated slot lacks support")
                continue
            for m in metrics:
                (got_mu, got_se), (mu, se) = table[pid][m], est[m]
                if not (ref.close(got_mu, mu, se) and ref.close(got_se, se, se)):
                    problems.append(f"{pid} {m}: table {got_mu!r} ± {got_se!r}, "
                                    f"recomputed {mu!r} ± {se!r}")
    return problems


# -- frontier and recommendation --------------------------------------------


def check_frontier(frontier: dict, table: dict, metrics, signs) -> list[str]:
    """No admitted policy is dominated, and every recorded dominator really
    dominates and is the first one in ascending id order."""
    problems = []
    tau = float(frontier["tau"])
    admitted = list(frontier["admitted"])
    dominated_by = dict(frontier["dominated_by"])
    pool = sorted(set(admitted) | set(dominated_by))
    missing = [pid for pid in pool if pid not in table]
    if missing:
        return [f"frontier ids missing from the policy table: {missing}"]
    if admitted != sorted(admitted):
        problems.append("admitted ids are not in ascending order")
    for pid in set(admitted) & set(dominated_by):
        problems.append(f"{pid} is both admitted and dominated")
    for p in pool:
        first = next((q for q in pool if q != p and ref.tolerance_dominates(
            table[q], table[p], metrics, tau, signs)), None)
        if p in admitted and first is not None:
            problems.append(f"admitted {p} is dominated by {first}")
        if p in dominated_by and dominated_by[p] != first:
            problems.append(f"{p} recorded as dominated by {dominated_by[p]}, "
                            f"first true dominator is {first}")
    return problems


def check_candidate(candidate: str, frontier: dict, table: dict, primary: str,
                    metrics, signs: dict) -> list[str]:
    """The candidate is the best qualifying admitted policy on the primary
    metric, ties going to the larger id."""
    qualifying = [pid for pid in frontier["admitted"]
                  if ref.qualifies(table[pid], primary, metrics, signs)]
    if not qualifying:
        return [f"no admitted policy qualifies, yet {candidate} was chosen"]
    best = max(qualifying,
               key=lambda pid: (signs[primary] * table[pid][primary][0], pid))
    if best != candidate:
        return [f"candidate {candidate}, but the top qualifying admitted "
                f"policy is {best}"]
    return []


# -- backtest ---------------------------------------------------------------


def backtest_series(users: ref.Users, cut: ref.Cut, assignment: list[str],
                    metrics) -> list[tuple[dict, dict]]:
    """(daily, cumulative) estimates per day, cohorts pinned to the window."""
    slot = cut.slot_codes(users, cut.bounds(users))
    assign = np.array([[users.actions.index(a) for a in assignment]])
    series = []
    for d in np.unique(users.day):
        out = []
        for mask in (users.day == d, users.day <= d):
            est = ref.policy_estimates(users.subset(mask), slot[mask], cut.slots,
                                       assign, metrics)
            out.append({m: (float(est[m][0][0]), float(est[m][1][0]))
                        for m in metrics})
        series.append(tuple(out))
    return series


def first_divergence(series, metric: str) -> int | None:
    """1-based first day from the burn-in on whose cumulative lift leaves the
    2-SE band around the full-window estimate (the last cumulative one), or
    None."""
    mu_ref, se_ref = series[-1][1][metric]
    for idx in range(ref.BACKTEST_BURN_IN_DAYS - 1, len(series)):
        mu, se = series[idx][1][metric]
        if abs(mu - mu_ref) > ref.BACKTEST_ENVELOPE_Z * (se ** 2 + se_ref ** 2) ** 0.5:
            return idx + 1
    return None


def check_backtest_csv(rows: list[dict], series, search_est: dict,
                       metrics) -> list[str]:
    """Every row matches the recomputed series, and the last cumulative row
    equals the search-time estimate."""
    problems = []
    if len(rows) != len(series):
        return [f"backtest has {len(rows)} rows, recomputed {len(series)} days"]
    for row, (daily, cum) in zip(rows, series):
        for m in metrics:
            for kind, est in (("daily", daily), ("cum", cum)):
                got = (float(row[f"{m}_{kind}_mean"]),
                       float(row[f"{m}_{kind}_std_err"]))
                mu, se = est[m]
                if not (ref.close(got[0], mu, se) and ref.close(got[1], se, se)):
                    problems.append(f"backtest {row['day']} {m} {kind}: {got}, "
                                    f"recomputed ({mu!r}, {se!r})")
    last = rows[-1]
    for m in metrics:
        mu, se = search_est[m]
        got = (float(last[f"{m}_cum_mean"]), float(last[f"{m}_cum_std_err"]))
        if not (ref.close(got[0], mu, se) and ref.close(got[1], se, se)):
            problems.append(f"last cumulative {m} {got} differs from the "
                            f"search-time estimate ({mu!r}, {se!r})")
    return problems


# -- governed runs ----------------------------------------------------------


def _run_context(op_dir: Path):
    manifest = read_json(op_dir / "manifest.json")
    table, metrics = read_policy_table(op_dir / "policy_table.csv")
    config = manifest["config"]
    primary = config.get("primary_metric") or metrics[0]
    minimize = set(config.get("minimize_metrics") or ())
    signs = {m: -1.0 if m in minimize else 1.0 for m in metrics}
    return manifest, table, metrics, primary, signs


def check_noise_free_lift(users: ref.Users, effects, table: dict, pid: str,
                          primary: str, metrics) -> list[str]:
    """The policy's lift computed from the planted effects alone is positive
    on the primary metric and zero on every other one."""
    problems = []
    cut = ref.Cut(table[pid]["feature"], table[pid]["cut"])
    slot = cut.slot_codes(users, cut.bounds(users))
    assigned = np.array([users.actions.index(a) for a in table[pid]["actions"]])[slot]
    for m in metrics:
        lift = float(ref.noise_free_effects(users, effects, m)[
            np.arange(users.n), assigned].mean())
        if m == primary and not lift > 0:
            problems.append(f"{pid}: noise-free {m} lift {lift!r} is not positive")
        if m != primary and abs(lift) > 1e-12:
            problems.append(f"{pid}: noise-free {m} lift {lift!r} is not zero")
    return problems


def check_backtest_rejection(users: ref.Users, report: dict, primary: str,
                             metrics) -> list[str]:
    """A backtest rejection names BACKTEST_DIVERGED, and the excluded
    policy's recomputed cumulative lift does leave the band on some day from
    the burn-in on."""
    problems = []
    if "BACKTEST_DIVERGED" not in report["reason_codes"]:
        problems.append(f"{report['entities']} rejected by the backtest without "
                        f"BACKTEST_DIVERGED: {report['reason_codes']}")
    for pid in report["entities"]:
        feature, descriptor, actions = pid.split(".")
        cut, assignment = ref.Cut(feature, descriptor), actions.split("-")
        series = backtest_series(users, cut, assignment, metrics)
        if first_divergence(series, primary) is None:
            problems.append(f"excluded {pid} does not diverge on any day "
                            f">= {ref.BACKTEST_BURN_IN_DAYS}")
    return problems


def check_governed_run(op_dir: Path, exit_codes: list[int], users: ref.Users,
                       effects=None, must_reject: bool = False) -> list[str]:
    """A `cohortpolicy pipeline` run directory, every verdict recomputed.

    The final iteration's policy table and frontier are recomputed; every
    backtest rejection on the trail must diverge when recomputed; the last
    candidate must be the best qualifying admitted policy, and a terminal
    NO_QUALIFYING_POLICY must leave no admitted policy that qualifies. With
    planted stationary `effects`, a recommendation's noise-free lift must
    be positive on the primary metric and zero elsewhere; `must_reject`
    marks inputs whose effects fade, where only a rejection is correct.
    """
    manifest, table, metrics, primary, signs = _run_context(op_dir)
    status = manifest["status"]
    if exit_codes != [0 if status == "recommended" else 2]:
        return [f"exit codes {exit_codes} for status {status!r}"]
    if must_reject and status != "rejected":
        return [f"status {status!r}, every planted effect fades to zero"]
    frontier = read_json(op_dir / "frontier.json")
    problems = check_policy_table(users, table, metrics)
    problems += check_frontier(frontier, table, metrics, signs)
    reports = read_jsonl(op_dir / "hook_reports.jsonl")
    candidate = None
    for report in reports:
        if report["stage"] == "pre_recommendation":
            candidate = report["entities"][0]
        if report["verdict"] != "reject":
            continue
        if report["stage"] == "pre_recommendation":
            problems += check_backtest_rejection(users, report, primary, metrics)
        elif report["reason_codes"] == ["NO_QUALIFYING_POLICY"] and report is reports[-1]:
            candidate = None
            qualifying = [pid for pid in frontier["admitted"]
                          if ref.qualifies(table[pid], primary, metrics, signs)]
            if qualifying:
                problems.append(f"NO_QUALIFYING_POLICY, yet {qualifying} qualify")
        else:
            problems.append(f"{report['stage']} rejection {report['reason_codes']} "
                            f"is not one the benchmark recomputes")
    if candidate is not None:
        problems += check_candidate(candidate, frontier, table, primary, metrics,
                                    signs)
    if status == "recommended":
        rec = read_json(op_dir / "recommendation.json")["policy"]
        pid = rec["policy_id"]
        if pid != candidate:
            problems.append(f"recommended {pid}, but the last backtest ran on "
                            f"{candidate}")
        for m in metrics:
            got = (rec["estimates"][m]["mean"], rec["estimates"][m]["std_err"])
            if got != table[pid][m]:
                problems.append(f"recommendation {m} {got} differs from its "
                                f"policy-table row {table[pid][m]}")
        if effects is not None:
            problems += check_noise_free_lift(users, effects, table, pid, primary,
                                              metrics)
        cut = ref.Cut(table[pid]["feature"], table[pid]["cut"])
        series = backtest_series(users, cut, table[pid]["actions"], metrics)
        problems += check_backtest_csv(read_csv_rows(op_dir / "backtest.csv"),
                                       series, table[pid], metrics)
    return problems


# -- selector benchmark -----------------------------------------------------


def check_selector_run(op_dir: Path, exit_codes: list[int],
                       experiments: dict[str, ref.Users],
                       expected_policies: int) -> list[str]:
    """Policy tables, the simple ground truths, and both selectors' report
    rows."""
    if exit_codes != [0, 0]:
        return [f"exit codes {exit_codes}, expected [0, 0]"]
    synth_dir, eval_dir = op_dir / "synth", op_dir / "eval"
    problems = []
    tables = {}
    for exp_id, users in experiments.items():
        table, metrics = read_policy_table(synth_dir / "policy_tables" / f"{exp_id}.csv")
        tables[exp_id] = table
        if len(table) != expected_policies:
            problems.append(f"{exp_id}: {len(table)} policies, expected "
                            f"{expected_policies}")
        problems += [f"{exp_id} {p}" for p in check_policy_table(users, table, metrics)]
    instructions = read_jsonl(synth_dir / "instructions.jsonl")
    gts = read_ground_truths(synth_dir)
    for ins in instructions:
        key = (ins["experiment_id"], ins["instruction_idx"])
        table, primary = tables[key[0]], ins["primary_metric"]
        top5 = gts[key]
        if len(top5) != 5:
            problems.append(f"instruction {key}: ground truth has {len(top5)} ids")
        if ins["kind"] == "single_metric":
            pool = list(table)
        elif ins["kind"] == "maximize_with_constraint":
            sec = ins["secondary_metric"]
            pool = [pid for pid in table
                    if table[pid][sec][0] + ref.SIGNIFICANCE_Z * table[pid][sec][1] >= 0]
        else:
            continue
        expected = sorted(pool, key=lambda pid: (-table[pid][primary][0], pid))[:5]
        if top5 != expected:
            problems.append(f"instruction {key} ({ins['kind']}): ground truth "
                            f"{top5}, recomputed {expected}")
    report = {r["selector"]: r for r in read_csv_rows(eval_dir / "report.csv")}
    rankings = read_jsonl(op_dir / "rankings.jsonl")
    for name in ("oracle", "primary_mean"):
        rows = [ref.ranking_columns(r["ranked"], gts[(r["experiment_id"],
                                                      r["instruction_idx"])])
                for r in rankings if r["selector_name"] == name]
        if name not in report or not rows:
            problems.append(f"selector {name!r} missing from the report")
            continue
        for col in ref.REPORT_COLUMNS:
            got = float(report[name][col])
            want = 1.0 if name == "oracle" else sum(r[col] for r in rows) / len(rows)
            # report.csv prints six decimals: allow half a unit of the last one.
            tol = 1e-12 if name == "oracle" else 5e-7 + 1e-12
            if abs(got - want) > tol:
                problems.append(f"{name} {col}: report {got!r}, expected {want!r}")
    return problems


def selector_rankings(synth_dir: Path) -> list[dict]:
    """Two selectors' rankings: the ground truth replayed, and the ten highest
    primary means of each instruction's policy table."""
    instructions = read_jsonl(synth_dir / "instructions.jsonl")
    gts = read_ground_truths(synth_dir)
    tables = {}
    out = []
    for ins in instructions:
        key = (ins["experiment_id"], ins["instruction_idx"])
        if key[0] not in tables:
            tables[key[0]] = read_policy_table(
                synth_dir / "policy_tables" / f"{key[0]}.csv")[0]
        for name, ranked in (
                ("oracle", gts[key]),
                ("primary_mean", ref.primary_mean_ranking(
                    tables[key[0]], ins["primary_metric"]))):
            out.append({"selector_name": name, "experiment_id": key[0],
                        "instruction_idx": key[1], "ranked": list(ranked)})
    return out
