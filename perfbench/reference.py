"""Independent reference computations for the benchmark's output checks.

Nothing here imports cohortpolicy. Every expected value is recomputed from
raw per-user arrays with plain numpy, so a check compares the program with a
second implementation of the method, never with a stored copy of earlier
output.

The synthetic experiments are regenerated from their configs by following
the program's documented seeding scheme (uniform features, balanced shuffled
arms, nearest-rank planted effect ranges, Gaussian noise). A mismatch there
shows up as a failed policy-table check, not as a silent pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGNIFICANCE_Z = 1.96
BACKTEST_ENVELOPE_Z = 2.0
BACKTEST_BURN_IN_DAYS = 7
REPORT_COLUMNS = ("ndcg@1", "ndcg@3", "ndcg@5", "prec@1", "prec@3", "prec@5",
                  "rank_corr", "recall@1", "recall@3", "recall@5",
                  "top1_acc", "top1_in_gt")


# -- raw data ---------------------------------------------------------------


@dataclass
class Users:
    """Column arrays of one experiment, one row per user, rows in id order."""

    features: dict[str, np.ndarray]
    arm: np.ndarray            # action index, 0 is the control
    outcomes: dict[str, np.ndarray]
    day: np.ndarray | None
    actions: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.arm.size

    def subset(self, mask: np.ndarray) -> "Users":
        return Users(features={k: v[mask] for k, v in self.features.items()},
                     arm=self.arm[mask],
                     outcomes={k: v[mask] for k, v in self.outcomes.items()},
                     day=None if self.day is None else self.day[mask],
                     actions=self.actions)


def synth_quantile(values: np.ndarray, p: float) -> float:
    """Nearest-rank quantile as the synthesizer uses it for effect ranges."""
    idx = min(math.ceil(p * values.size), values.size)
    return float(np.sort(values, kind="stable")[idx - 1])


def effect_range(values: np.ndarray, q_lo: float, q_hi: float) -> np.ndarray:
    lower = -math.inf if q_lo == 0.0 else synth_quantile(values, q_lo)
    return (values > lower) & (values <= synth_quantile(values, q_hi))


def synth_users(scenario: dict) -> Users:
    """Regenerate a synthetic experiment from its scenario mapping."""
    n = int(scenario["n_users"])
    rng = np.random.default_rng(int(scenario["seed"]))
    names = [f"f{i + 1}" for i in range(int(scenario["n_features"]))]
    metrics = [f"m{i + 1}" for i in range(int(scenario["n_metrics"]))]
    actions = tuple(["a0"] + [f"a{i + 1}" for i in range(int(scenario["n_actions"]))])
    features = {name: rng.random(n) for name in names}
    arm = (np.arange(n) % len(actions))[rng.permutation(n)]
    day = None
    n_days = int(scenario.get("n_days", 0))
    if n_days > 0:
        day = (np.arange(n) % n_days)[rng.permutation(n)]
    outcomes = {m: np.zeros(n) for m in metrics}
    for effect in scenario.get("planted_effects", ()):
        in_range = effect_range(features[effect["feature"]], effect["q_lo"],
                                effect["q_hi"])
        mask = in_range & (arm == actions.index(effect["action"]))
        outcomes[effect["metric"]][mask] += effect["lift"]
    noise_sd = float(scenario.get("noise_sd", 1.0))
    if noise_sd > 0:
        for m in metrics:
            outcomes[m] += rng.normal(0.0, noise_sd, n)
    return Users(features=features, arm=arm, outcomes=outcomes, day=day,
                 actions=actions)


def noise_free_effects(users: Users, effects, metric: str) -> np.ndarray:
    """Per-user planted lift of every action on `metric`: shape (n, actions)."""
    out = np.zeros((users.n, len(users.actions)))
    for effect in effects:
        if effect["metric"] != metric:
            continue
        in_range = effect_range(users.features[effect["feature"]],
                                effect["q_lo"], effect["q_hi"])
        out[in_range, users.actions.index(effect["action"])] += effect["lift"]
    return out


# -- cohorts ----------------------------------------------------------------


def quantile_bounds(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Nearest-rank boundaries Q(i/N), i = 1..N, with exact integer ceil."""
    ordered = np.sort(values, kind="stable")
    n = ordered.size
    return ordered[[-(-i * n // n_bins) - 1 for i in range(1, n_bins + 1)]]


@dataclass(frozen=True)
class Cut:
    """A cut as the policy table names it: feature plus `indN`, `biniofN`
    or `global`."""

    feature: str
    descriptor: str

    @property
    def slots(self) -> int:
        if self.descriptor == "global":
            return 1
        if self.descriptor.startswith("ind"):
            return int(self.descriptor[3:])
        return 2

    def bounds(self, users: Users) -> np.ndarray:
        """Upper bounds of the slots, computed on `users`."""
        if self.descriptor == "global":
            return np.array([math.inf])
        values = users.features[self.feature]
        if self.descriptor.startswith("ind"):
            return quantile_bounds(values, self.slots)
        i0, n_bins = (int(x) for x in self.descriptor[3:].split("of"))
        return np.array([quantile_bounds(values, n_bins)[i0 - 1],
                         float(values.max())])

    def slot_codes(self, users: Users, bounds: np.ndarray) -> np.ndarray:
        """Slot of every user against fixed bounds; the top slot is open."""
        if self.descriptor == "global":
            return np.zeros(users.n, dtype=int)
        values = users.features[self.feature]
        return np.minimum(np.searchsorted(bounds, values, side="left"),
                          bounds.size - 1)


# -- estimates --------------------------------------------------------------


def _cell_stats(y: np.ndarray, slot: np.ndarray, arm: np.ndarray,
                n_slots: int, n_actions: int):
    count = np.zeros((n_slots, n_actions), dtype=int)
    mean = np.zeros((n_slots, n_actions))
    var = np.zeros((n_slots, n_actions))
    for s in range(n_slots):
        in_slot = slot == s
        for a in range(n_actions):
            vals = y[in_slot & (arm == a)]
            count[s, a] = vals.size
            if vals.size:
                mean[s, a] = np.mean(vals)
            if vals.size >= 2:
                var[s, a] = np.var(vals, ddof=1)
    return count, mean, var


def policy_estimates(users: Users, slot: np.ndarray, n_slots: int,
                     assignments: np.ndarray, metrics) -> dict:
    """Size-weighted segment lifts with unpooled two-sample standard errors.

    `assignments` is (policies, slots) of action indices. Returns
    {metric: (means, std_errs)} arrays over policies plus a `supported`
    mask: a policy is unsupported when a non-empty slot it treats lacks
    treated or control users.
    """
    n_actions = len(users.actions)
    out = {}
    supported = np.ones(assignments.shape[0], dtype=bool)
    sizes = np.bincount(slot, minlength=n_slots)
    weight = sizes / users.n
    rows = np.arange(n_slots)[None, :]
    treated = (assignments != 0) & (sizes[None, :] > 0)
    for m in metrics:
        count, mean, var = _cell_stats(users.outcomes[m], slot, users.arm,
                                       n_slots, n_actions)
        n_t = count[rows, assignments]
        n_c = count[rows, np.zeros_like(assignments)]
        supported &= ~np.any(treated & ((n_t == 0) | (n_c == 0)), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = mean[rows, assignments] - mean[rows, 0]
            cell_var = var[rows, assignments] / n_t + var[rows, 0] / n_c
        diff = np.where(treated, diff, 0.0)
        cell_var = np.where(treated, cell_var, 0.0)
        out[m] = ((weight[None, :] * diff).sum(axis=1),
                  np.sqrt(((weight[None, :] ** 2) * cell_var).sum(axis=1)))
    out["supported"] = supported
    return out


def close(got: float, expected: float, scale: float, rel: float = 1e-9) -> bool:
    """Equal to `rel` relative, measured against max(|expected|, scale)."""
    return abs(got - expected) <= rel * max(abs(expected), scale)


# -- frontier and recommendation --------------------------------------------


def tolerance_dominates(q: dict, p: dict, metrics, tau: float,
                        signs: dict) -> bool:
    """q beats p within p's tau*sigma band on every metric and beyond it on
    one. `q`/`p` map metric -> (mean, std_err)."""
    beyond = False
    for m in metrics:
        mu_q = signs[m] * q[m][0]
        mu_p = signs[m] * p[m][0]
        eps = tau * p[m][1]
        if mu_q < mu_p - eps:
            return False
        if mu_q > mu_p + eps:
            beyond = True
    return beyond


def qualifies(est: dict, primary: str, metrics, signs: dict) -> bool:
    """Primary lift in its better direction beyond 1.96 SE, every other
    metric within 1.96 SE of zero."""
    mean, se = est[primary]
    mean *= signs[primary]
    if mean < SIGNIFICANCE_Z * se or mean <= 0:
        return False
    return all(abs(est[m][0]) <= SIGNIFICANCE_Z * est[m][1]
               for m in metrics if m != primary)


# -- ranking metrics --------------------------------------------------------


def ranking_columns(ranked, top5) -> dict[str, float]:
    """The twelve report columns for one ranking, from their definitions."""
    relevant = set(top5)
    row = {}
    for k in (1, 3, 5):
        hits = [1.0 if pid in relevant else 0.0 for pid in ranked[:k]]
        dcg = sum(h / math.log2(i + 2) for i, h in enumerate(hits))
        ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
        row[f"ndcg@{k}"] = dcg / ideal if relevant else 0.0
        row[f"prec@{k}"] = sum(hits) / k
        row[f"recall@{k}"] = sum(hits) / min(k, len(relevant)) if relevant else 0.0
    gt_pos = {pid: i for i, pid in enumerate(top5)}
    common = [gt_pos[pid] for pid in ranked if pid in gt_pos]
    c = len(common)
    if c < 2:
        row["rank_corr"] = 0.0
    else:
        gt_rank = np.argsort(np.argsort(common))
        d2 = float(((np.arange(c) - gt_rank) ** 2).sum())
        row["rank_corr"] = 1.0 - 6.0 * d2 / (c * (c * c - 1))
    first = ranked[0] if ranked else None
    row["top1_acc"] = float(bool(top5) and first == top5[0])
    row["top1_in_gt"] = float(bool(top5) and first in relevant)
    return row


def primary_mean_ranking(table: dict, primary: str, depth: int = 10) -> list[str]:
    """A simple selector: the `depth` highest primary means, ties by id.
    `table` maps policy id -> metric -> (mean, std_err)."""
    return sorted(table, key=lambda pid: (-table[pid][primary][0], pid))[:depth]
