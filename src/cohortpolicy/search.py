"""Candidate policy enumeration, evaluation, and random-weight Top-K search.

A policy maps each segment slot of one cut to an action (control allowed).
Per-metric policy lift is the segment-size-weighted sum of the slot effects
of its treated slots; policy standard errors compose slot standard errors as
independent size-weighted variances (segments are disjoint user sets).
Every estimate is read from a `cube.MomentsCube` by `cube.cut_effects`
and composed by `cube.compose_policies`. `build_policy_table`, the one
table builder, composes every policy of every cut of one cube in a fixed
number of array passes, whatever the number of cuts, and keeps the
composed arrays as one columnar `PolicyTable`. The governed run, the
`search` command and benchmark synthesis search such tables: Top-K, the
tolerance filter and the post-search selection read its id-sorted columns
through `policy_columns`. `evaluate_policies` wraps composed estimates
into `PolicyCandidate`s.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cube import MomentsCube, compose_policies, cut_effects, moments_cube
from .errors import ConfigError, EstimationError, IntegrityError, RowIngestError
from .experiment import ExperimentDataset, MetricEstimate, SlotEffects
from .ingest import FORMAT_VERSION  # noqa: F401 (re-exported)
from .ingest import (_parse_number, csv_blocks, csv_header, csv_rows, read_json,
                     write_csv, write_json)
from .segmentation import CutSpec


@dataclass
class PolicyCandidate:
    """A segment->action assignment over one cut, plus per-metric estimates.

    `cut` is None for the degenerate single-slot (whole population) policy.
    `assignment` is positional: slot index -> action id.
    """

    policy_id: str
    cut: CutSpec | None
    assignment: tuple[str, ...]
    estimates: dict[str, MetricEstimate] = field(default_factory=dict)

    def __post_init__(self):
        slots = self.cut.slot_count if self.cut is not None else 1
        if len(self.assignment) != slots:
            raise ValueError(
                f"policy {self.policy_id!r} assigns {len(self.assignment)} slots, "
                f"cut has {slots}"
            )


@dataclass
class CandidateSet:
    """Union of per-weight Top-K selections, with admission provenance.

    `policy_ids` is sorted ascending; `provenance` maps each admitted id to
    the (weight index, rank) pairs that admitted it (none for a set read
    from a file that lists only ids).
    """

    policy_ids: list[str]
    provenance: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


def make_policy_id(cut: CutSpec | None, assignment: Sequence[str]) -> str:
    if cut is None:
        return f"global.{assignment[0]}"
    return f"{cut.describe()}.{'-'.join(assignment)}"


def global_policies(ds: ExperimentDataset) -> list[PolicyCandidate]:
    """One single-slot whole-population policy per action."""
    return enumerate_policies(ds, [])


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    # The distinct rows in ascending order, as np.unique(rows, axis=0)
    # gives them; not np.unique itself, whose first call imports numpy.ma.
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


def _sample_assignments(n_actions: int, slots: int, budget: int,
                        control_index: int, rng: np.random.Generator) -> np.ndarray:
    # All-control is forced in; the rest are unique uniform draws of one
    # row each, made `need` rows per call: the stream is the same, and the
    # draws stop where one row at a time would, since only the last row of
    # a call can fill the budget.
    rows = np.full((1, slots), control_index, dtype=np.intp)
    while (need := budget - len(rows)) > 0:
        rows = _unique_rows(np.concatenate(
            [rows, rng.integers(0, n_actions, size=(need, slots))]))
    return rows


def _cut_assignments(cuts: Sequence[CutSpec], n_actions: int, budget: int,
                     control_index: int, seed: int
                     ) -> dict[CutSpec | None, np.ndarray]:
    """Each cut with the (policies, slots) matrix of its candidate
    policies' action indices, rows in ascending order: the full action
    cross-product when it fits the per-cut budget, one array that every
    cut with as many slots shares, otherwise a seeded uniform sample
    without replacement that always holds the all-control row. One
    generator, made when a cut first samples, serves every sampled cut, in
    cut order. A cut listed again is listed once, with the rows of each of
    its samples. An empty cut list gives the single-slot global policies.
    """
    if budget < 1:
        raise ConfigError(f"policy budget must be >= 1, got {budget}")
    if n_actions < 1:
        raise ConfigError("no actions to assign")
    if not cuts:
        return {None: np.arange(n_actions, dtype=np.intp)[:, None]}
    products: dict[int, np.ndarray] = {}
    rng = None
    out: dict[CutSpec | None, np.ndarray] = {}
    for cut in cuts:
        slots = cut.slot_count
        if n_actions ** slots <= budget:
            if slots not in products:
                products[slots] = np.indices((n_actions,) * slots).reshape(slots, -1).T
            arms = products[slots]
        else:
            rng = rng or np.random.default_rng(seed)
            arms = _sample_assignments(n_actions, slots, budget, control_index, rng)
        out[cut] = arms if cut not in out else _unique_rows(np.concatenate([out[cut], arms]))
    return out


def enumerate_policies(ds: ExperimentDataset, cuts: Sequence[CutSpec], *,
                       budget: int = 128, seed: int = 0) -> list[PolicyCandidate]:
    """Candidate policies for each cut over the dataset's actions: the full
    action cross-product when it fits the per-cut budget, otherwise a seeded
    uniform sample without replacement with the all-control reference
    always present.

    An empty cut list yields the global single-slot policies, one per action.
    """
    control_index = ds.actions.index(ds.control_action)
    policies: list[PolicyCandidate] = []
    for cut, arms in _cut_assignments(cuts, len(ds.actions), budget,
                                      control_index, seed).items():
        for row in arms.tolist():
            assignment = tuple(ds.actions[i] for i in row)
            policies.append(PolicyCandidate(
                policy_id=make_policy_id(cut, assignment),
                cut=cut, assignment=assignment))
    return policies


# -- evaluation ---------------------------------------------------------------


Estimates = dict[str, MetricEstimate]


def compose_estimates(cube: MomentsCube, effects: SlotEffects,
                      policies: Sequence[PolicyCandidate],
                      rows: np.ndarray | None = None
                      ) -> list[Estimates | EstimationError]:
    """Each policy's estimates on the tables of `effects` (`cut_effects` of
    `cube`), or the EstimationError naming its first unsupported slot: on
    each table in turn, every policy in turn, or, given `rows`, policy p on
    table `rows[p]`."""
    arm_of = {action: k for k, action in enumerate(cube.actions)}
    width = effects.counts.shape[-2]
    try:
        arms = np.array([[arm_of[a] for a in p.assignment]
                         + [cube.control] * (width - len(p.assignment))
                         for p in policies], dtype=np.intp).reshape(-1, width)
    except KeyError as exc:
        raise ValueError(f"unknown action {exc.args[0]!r}") from None
    composed = compose_policies(effects, arms, cube.control, rows)
    n_metrics = len(cube.metrics)
    out: list[Estimates | EstimationError] = []
    for policy, means, errors, n_t, n_c, slot in zip(
            itertools.cycle(policies), composed.mean.reshape(-1, n_metrics).tolist(),
            composed.std_err.reshape(-1, n_metrics).tolist(),
            composed.n_treated.ravel().tolist(), composed.n_control.ravel().tolist(),
            composed.unsupported.ravel().tolist()):
        if slot >= 0:
            out.append(EstimationError(
                f"policy {policy.policy_id!r} slot {slot}: no treated/control "
                f"support for action {policy.assignment[slot]!r}"))
        else:
            out.append({metric: MetricEstimate(mean=mu, std_err=se, n_treated=n_t,
                                               n_control=n_c)
                        for metric, mu, se in zip(cube.metrics, means, errors)})
    return out


def _evaluated(policy: PolicyCandidate, estimates: Estimates | EstimationError
               ) -> PolicyCandidate:
    if isinstance(estimates, EstimationError):
        raise estimates
    return PolicyCandidate(policy_id=policy.policy_id, cut=policy.cut,
                           assignment=policy.assignment, estimates=estimates)


def evaluate_policies(ds: ExperimentDataset, policies: Sequence[PolicyCandidate]
                      ) -> list[PolicyCandidate]:
    """Fill per-metric estimates for each policy (returns new candidates, in
    input order).

    The cuts' slot-effect tables come from one `cut_effects` read of a
    one-day `moments_cube`, and each policy is composed from its cut's
    table. Control-assigned slots contribute zero lift by definition;
    empty slots carry zero weight. A non-empty slot whose assigned action
    lacks treated or control users makes the policy unsupported: the first
    unsupported policy raises EstimationError naming the slot.
    `build_policy_table` keeps only the supported policies instead.
    """
    position = {cut: j for j, cut in enumerate(dict.fromkeys(p.cut for p in policies))}
    cube = moments_cube(ds, list(position))
    results = compose_estimates(cube, cut_effects(cube, list(position)), policies,
                                np.array([position[p.cut] for p in policies],
                                         dtype=np.intp))
    return [_evaluated(policy, result) for policy, result in zip(policies, results)]


def evaluate_policy_pinned(ds: ExperimentDataset, policy: PolicyCandidate,
                           rows: np.ndarray) -> PolicyCandidate:
    """This policy on `rows` of `ds` (a mask or index array), with cohort
    bounds fixed from all of `ds`: a `moments_cube` whose day 1 holds the
    rows and day 0 the other users, read on day 1 alone.

    Slot weights and arm counts come from the selected rows only, so a
    temporal slice or a backtest day is evaluated against the cohorts of
    the window it belongs to rather than re-deriving its own quantiles.
    """
    day = np.zeros(ds.n_users, dtype=np.intp)
    day[rows] = 1
    cube = moments_cube(ds, [policy.cut], (day, [0, 1]))
    [result] = compose_estimates(cube, cut_effects(cube, [policy.cut], [1], [2]),
                                 [policy])
    return _evaluated(policy, result)


def build_policy_table(cube: MomentsCube, cuts: Sequence[CutSpec],
                       budget: int = 128, seed: int = 0) -> PolicyTable:
    """Every supported policy that `enumerate_policies(ds, cuts,
    budget=budget, seed=seed)` gives, with the estimates and user counts
    that `evaluate_policies` would fill, as one columnar table, read from
    every day of `cube` (which holds the grids of `cuts`); a policy without
    arm support in some non-empty slot is left out.

    The table takes a fixed number of array passes, whatever the number of
    cuts: one `cut_effects` read of every cut, and one `compose_policies`
    call in which each policy reads its own cut's table, its arm codes
    padded with the control arm to the tables' slots. Each distinct arm
    matrix's action names are joined once.
    """
    assigned = _cut_assignments(cuts, len(cube.actions), budget, cube.control, seed)
    matrices = list(assigned.values())
    bounds = np.cumsum([0] + [len(arms) for arms in matrices]).tolist()
    effects = cut_effects(cube, list(assigned))
    stacked = np.full((bounds[-1], effects.counts.shape[-2]), cube.control,
                      dtype=np.min_scalar_type(len(cube.actions)))
    for arms, at in zip(matrices, bounds):
        stacked[at:at + len(arms), :arms.shape[1]] = arms
    composed = compose_policies(effects, stacked, cube.control,
                                np.repeat(np.arange(len(matrices)), np.diff(bounds)))
    names = np.array(cube.actions, dtype=object)
    joined = {key: list(map("-".join, names[arms].tolist()))
              for key, arms in {id(arms): arms for arms in matrices}.items()}
    columns: list[list[str]] = [[], [], [], []]
    for cut, arms in assigned.items():
        actions = joined[id(arms)]
        prefix, feature, name = ((f"{cut.describe()}.", cut.feature, cut.short_descriptor)
                                 if cut is not None else ("global.", "", "global"))
        columns[0] += [prefix + action for action in actions]
        columns[1] += [feature] * len(actions)
        columns[2] += [name] * len(actions)
        columns[3] += actions
    numbers = [composed.mean, composed.std_err, composed.n_treated, composed.n_control]
    keep = composed.unsupported < 0
    if not keep.all():
        columns = [list(itertools.compress(column, keep)) for column in columns]
        numbers = [column[keep] for column in numbers]
    return PolicyTable(cube.metrics, *columns, *numbers)


# -- random-weight search ------------------------------------------------------


def sample_weights(n_metrics: int, n_samples: int, seed: int) -> np.ndarray:
    """Uniform simplex samples via normalized unit-rate exponentials, as an
    (n_samples, n_metrics) matrix whose rows are non-negative and sum to 1.

    Identical seed gives an identical matrix.
    """
    if n_metrics < 1:
        raise ValueError(f"n_metrics must be >= 1, got {n_metrics}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    draws = -np.log1p(-rng.random((n_samples, n_metrics)))
    totals = draws.sum(axis=1)
    totals[totals == 0.0] = 1.0
    normalized = draws / totals[:, None]
    # Exact sum-to-1 after float division is not guaranteed; renormalize the
    # largest coordinate to absorb the residual.
    residuals = 1.0 - normalized.sum(axis=1)
    normalized[np.arange(n_samples), normalized.argmax(axis=1)] += residuals
    return normalized


def check_minimize(minimize: Sequence[str], metrics: Sequence[str]) -> None:
    """Raise ValueError unless every metric in `minimize` is one of `metrics`."""
    for metric in minimize:
        if metric not in metrics:
            raise ValueError(f"metric {metric!r} to minimize is not one of "
                             f"the metrics {list(metrics)}")


# Weights are scored this many at a time. A governed run can reach its
# peak RSS in Top-K, where every (weights x policies) temporary adds to it;
# blocks this small keep each one to tens of kilobytes.
_WEIGHT_BLOCK = 16


def _check_weights(weights: np.ndarray, n_metrics: int) -> None:
    if weights.ndim != 2 or weights.shape[1] != n_metrics or not n_metrics:
        raise ValueError(f"weights must be a (samples, {n_metrics}) matrix, one "
                         f"column per metric, got shape {weights.shape}")
    bad = (weights < 0).any(axis=1) | (np.abs(weights.sum(axis=1) - 1.0) > 1e-9)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"weight row {row} must be non-negative and sum to 1, "
                         f"got {weights[row].tolist()}")


@dataclass(frozen=True)
class PolicyRanking:
    """Each weight's best policies, scored once: `rows` is a (weights,
    depth) matrix whose row w lists the table rows (indices into the
    ascending `ids`) of weight w's `depth` best policies in descending
    score, ties by ascending id. Built by `rank_policies`."""

    ids: list[str]
    rows: np.ndarray

    def _admitted(self, top_k: int, excluded: Sequence[str]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (weight, row, 1-based rank) of every admission, by weight and rank.
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        depth = self.rows.shape[1]
        if len(excluded) > depth - top_k and depth < len(self.ids):
            raise ValueError(f"a ranking {depth} deep gives the top {top_k} "
                             f"after at most {depth - top_k} exclusions, not "
                             f"{len(excluded)}")
        kept = np.ones(len(self.ids), dtype=bool)
        kept[[self.ids.index(pid) for pid in excluded]] = False
        if not kept.any():
            raise ValueError("no policies to search")
        kept = kept[self.rows]
        rank = np.cumsum(kept, axis=1)
        weight, position = np.nonzero(kept & (rank <= top_k))
        return weight, self.rows[weight, position], rank[weight, position]

    def top_k_ids(self, top_k: int, excluded: Sequence[str] = ()) -> list[str]:
        """The ascending policy ids of `top_k(top_k, excluded)`."""
        _, row, _ = self._admitted(top_k, excluded)
        # Only the ids, for the governed loop: `top_k`'s provenance is a
        # tuple per admission (5000 at 1000 weights), and reading it instead
        # raised decay-ingest-14k's peak RSS by 0.57 MB in paired runs. Not
        # np.unique: on integers, its first call imports numpy.ma (over 1 MB).
        return [self.ids[r] for r in sorted(set(row.tolist()))]

    def top_k(self, top_k: int, excluded: Sequence[str] = ()) -> CandidateSet:
        """The CandidateSet that `collect_candidates` gives on the ranked
        policies without `excluded`. Removing r policies promotes only
        policies already among each weight's best `top_k + r`, so this is
        exact while `len(excluded) <= depth - top_k`, or when the ranking
        holds every policy."""
        weight, row, rank = self._admitted(top_k, excluded)
        # Provenance by policy, each policy's pairs in weight order and the
        # policies in order of first admission.
        order = np.argsort(row, kind="stable")
        row = row[order]
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        bounds = np.append(starts, row.size).tolist()
        pairs = list(zip(weight[order].tolist(), rank[order].tolist()))
        provenance = {self.ids[row[bounds[g]]]: pairs[bounds[g]:bounds[g + 1]]
                      for g in np.argsort(order[starts], kind="stable").tolist()}
        return CandidateSet(policy_ids=sorted(provenance), provenance=provenance)


def _scores(mu: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # The (weights, policies) scores, each the ordered multiply-add
    # w0*mu0 + w1*mu1 + ... of its own row's means in metric order:
    # elementwise IEEE arithmetic, so a score depends on its weight and its
    # row alone, whatever other rows the table holds.
    scores = weights[:, :1] * mu[:, 0]
    for m in range(1, mu.shape[1]):
        scores += weights[:, m, None] * mu[:, m]
    return scores


def rank_policies(policies: Policies, weights: np.ndarray, depth: int,
                  metrics: Sequence[str] | None = None,
                  minimize: Sequence[str] = ()) -> PolicyRanking:
    """Score every policy against every weight once and keep each weight's
    `depth` best (all of them, if fewer), for `PolicyRanking.top_k`.

    `weights` is a (samples, metrics) matrix, as `sample_weights` gives:
    each row non-negative and summing to 1 within 1e-9. Scores are weighted
    sums of means oriented so that higher is better: the means of metrics
    in `minimize`, each of which must be one of the metrics, enter negated.
    Ties in score break by ascending policy_id, so the ranking is
    independent of input ordering and scheduling. A policy's score is the
    same whatever other rows the table holds (`_scores`).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not policies:
        raise ValueError("no policies to search")
    ids, metric_order, mu, _ = policy_columns(policies, metrics)
    check_minimize(minimize, metric_order)
    w_matrix = np.asarray(weights, dtype=float)
    _check_weights(w_matrix, len(metric_order))
    mu = mu * np.array([-1.0 if metric in minimize else 1.0 for metric in metric_order])
    depth = min(depth, len(ids))

    rows = np.empty((len(w_matrix), depth), dtype=np.intp)
    for start in range(0, len(w_matrix), _WEIGHT_BLOCK):
        block = w_matrix[start:start + _WEIGHT_BLOCK]
        scores = _scores(mu, block)
        # Every score at least each weight's depth-th largest survives, ties
        # included; one sort orders them by weight, descending score and
        # ascending id (rows are in id order).
        kth = np.partition(scores, -depth, axis=1)[:, -depth]
        weight, row = np.nonzero(scores >= kth[:, None])
        order = np.lexsort((row, -scores[weight, row], weight))
        weight, row = weight[order], row[order]
        rank = np.arange(weight.size) - np.searchsorted(weight, weight)
        keep = rank < depth
        rows[start + weight[keep], rank[keep]] = row[keep]
    return PolicyRanking(ids=ids, rows=rows)


def collect_candidates(policies: Policies, weights: np.ndarray, top_k: int,
                       metrics: Sequence[str] | None = None,
                       minimize: Sequence[str] = ()) -> CandidateSet:
    """Union of Top-K policies per weight (Step 1 of frontier search).

    The weights, the scores and the tie rule are `rank_policies`'; this is
    its ranking `top_k` deep, read by `PolicyRanking.top_k`. Provenance
    records every (weight index, 1-based rank) that admitted each policy.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return rank_policies(policies, weights, top_k, metrics, minimize).top_k(top_k)


# -- policy table -------------------------------------------------------------------


class PolicyTable(Mapping):
    """Evaluated policies of one experiment as columns, sorted by policy id.

    `ids`, `feature`, `cut` and `actions` are lists of str with one entry
    per policy: `feature` is "" and `cut` is "global" for a whole-population
    policy, and `actions` joins the per-slot actions with "-". `mean` and
    `std_err` are (policies, metrics) float arrays whose columns follow
    `metrics`, and `n_treated` and `n_control` (policies,) int arrays of
    each policy's treated users and their controls (a scalar fills the
    column; 0, the default, is what a table read from a file holds). The
    constructor takes the columns in any order and sorts them by id; it
    rejects a repeated id, a non-finite mean and a negative or non-finite
    std_err.

    As a read-only Mapping the table is {policy_id: {metric:
    MetricEstimate}}, each row built on access. The id index is built on
    the first lookup: writing a table or ranking its columns needs none.
    """

    def __init__(self, metrics: Sequence[str], ids: Sequence[str],
                 feature: Sequence[str], cut: Sequence[str],
                 actions: Sequence[str], mean, std_err, n_treated=0,
                 n_control=0):
        self.metrics = tuple(metrics)
        shape = (len(ids), len(self.metrics))
        mean = np.asarray(mean, dtype=float).reshape(shape)
        std_err = np.asarray(std_err, dtype=float).reshape(shape)
        repeat = _first_repeat(ids)
        if repeat is not None:
            raise ValueError(f"policy {ids[repeat]!r} is listed more than once")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[i] for i in order]
        self.feature = [feature[i] for i in order]
        self.cut = [cut[i] for i in order]
        self.actions = [actions[i] for i in order]
        # One index array for the four columns, not one list conversion each.
        index = np.array(order, dtype=np.intp)
        self.mean = mean[index]
        self.std_err = std_err[index]
        self.n_treated, self.n_control = (
            np.broadcast_to(np.asarray(n, dtype=np.int64), len(ids))[index]
            for n in (n_treated, n_control))
        bad = ~(np.isfinite(self.mean) & np.isfinite(self.std_err)
                & (self.std_err >= 0.0))
        if bad.any():
            row, col = (int(i) for i in np.argwhere(bad)[0])
            raise ValueError(
                f"policy {self.ids[row]!r} metric {self.metrics[col]!r}: mean "
                f"must be finite and std_err finite and >= 0, got "
                f"{float(self.mean[row, col])!r} and "
                f"{float(self.std_err[row, col])!r}")
        self._row: dict[str, int] | None = None

    def _rows(self) -> dict[str, int]:
        if self._row is None:
            self._row = {pid: row for row, pid in enumerate(self.ids)}
        return self._row

    def row(self, policy_id: str) -> int:
        """The row that holds `policy_id`; KeyError if none does."""
        return self._rows()[policy_id]

    def candidate(self, policy_id: str, cuts: Sequence[CutSpec]) -> PolicyCandidate:
        """The evaluated policy of one row: the cut among `cuts` that the
        row's feature and cut columns name (None for "global"), the row's
        actions split at "-", which no action name holds, and its estimates."""
        row = self.row(policy_id)
        cut_of = {("", "global"): None,
                  **{(cut.feature, cut.short_descriptor): cut for cut in cuts}}
        return PolicyCandidate(policy_id=policy_id,
                               cut=cut_of[self.feature[row], self.cut[row]],
                               assignment=tuple(self.actions[row].split("-")),
                               estimates=self[policy_id])

    def take(self, rows: np.ndarray | Sequence[str]) -> "PolicyTable":
        """The table of the rows that a boolean row mask selects, or of the
        policy ids given."""
        picks = (np.flatnonzero(rows).tolist() if isinstance(rows, np.ndarray)
                 else [self.row(pid) for pid in rows])
        columns = (self.ids, self.feature, self.cut, self.actions)
        return PolicyTable(self.metrics, *([c[i] for i in picks] for c in columns),
                           *(a[picks] for a in (self.mean, self.std_err,
                                                self.n_treated, self.n_control)))

    def __getitem__(self, policy_id: str) -> dict[str, MetricEstimate]:
        row = self.row(policy_id)
        n_t, n_c = int(self.n_treated[row]), int(self.n_control[row])
        return {metric: MetricEstimate(mean=mu, std_err=se, n_treated=n_t,
                                       n_control=n_c)
                for metric, mu, se in zip(self.metrics, self.mean[row].tolist(),
                                          self.std_err[row].tolist())}

    def __contains__(self, policy_id) -> bool:
        return policy_id in self._rows()

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _first_repeat(ids: Sequence[str]) -> int | None:
    # The position of the first id that an earlier one equals, or None.
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    return next(i for i, pid in enumerate(ids) if pid in seen or seen.add(pid))


# What the Top-K search, the tolerance filter and the selection read.
Policies = (PolicyTable | Mapping[str, Mapping[str, MetricEstimate]]
            | Sequence[PolicyCandidate])


def policy_columns(policies: Policies, metrics: Sequence[str] | None = None
                   ) -> tuple[list[str], tuple[str, ...], np.ndarray, np.ndarray]:
    """The ascending policy ids, the metric order, and the (policies,
    metrics) mean and std_err columns (new arrays) of a PolicyTable, a
    {policy_id: {metric: MetricEstimate}} mapping or a list of evaluated
    candidates, which enters as the mapping {policy_id: estimates}.

    `metrics` defaults to a table's metrics, or else to the first policy's
    estimate order. Every policy must carry each metric; the first that
    does not (in the mapping's order) is named in a ValueError.
    """
    if not isinstance(policies, Mapping):
        policies = {p.policy_id: p.estimates for p in policies}
    table = policies if isinstance(policies, PolicyTable) else None
    if metrics is None and table is not None:
        metrics = table.metrics
    metrics = tuple(next(iter(policies.values()), ()) if metrics is None else metrics)
    if table is not None and set(metrics) <= set(table.metrics):
        cols = [table.metrics.index(metric) for metric in metrics]
        return list(table.ids), metrics, table.mean[:, cols], table.std_err[:, cols]
    for metric in metrics:
        lacking = next((pid for pid, estimates in policies.items()
                        if metric not in estimates), None)
        if lacking is not None:
            raise ValueError(f"policy {lacking!r} has no estimate for metric "
                             f"{metric!r}")
    ids = sorted(policies)
    rows = [[policies[pid][metric] for metric in metrics] for pid in ids]
    mean, std_err = (np.array([[getattr(e, part) for e in row] for row in rows],
                              dtype=float).reshape(len(ids), len(metrics))
                     for part in ("mean", "std_err"))
    return ids, metrics, mean, std_err


_KEY_COLUMNS = ("policy_id", "feature", "cut", "actions")


def _value_columns(metrics: Sequence[str]) -> list[str]:
    return [f"{metric}_{part}" for metric in metrics for part in ("mean", "std_err")]


def save_policy_table(path: str | Path, table: PolicyTable) -> None:
    """Write the policy table CSV through `ingest.write_csv`: id, cut
    descriptor, per-slot actions, and per-metric mean/std_err columns, one
    row per policy in id order."""
    numbers = np.stack([table.mean, table.std_err], axis=-1).reshape(
        len(table), 2 * len(table.metrics)).T.tolist()
    write_csv(path, [*_KEY_COLUMNS, *_value_columns(table.metrics)],
              [table.ids, table.feature, table.cut, table.actions, *numbers])


def load_policy_table(path: str | Path) -> tuple[PolicyTable, list[str]]:
    """Read a policy table CSV into a PolicyTable and its metric id list.

    The file streams through `ingest.csv_blocks` (its dialect is described
    there); every metric with a `<metric>_mean` column needs a
    `<metric>_std_err` column. A short row or a missing, non-numeric or
    non-finite number raises RowIngestError naming its 1-based data row,
    and so does a policy id that an earlier row holds.
    """
    metrics = list(dict.fromkeys(name[:-len("_mean")] for name in csv_header(path)
                                 if name.endswith("_mean")))
    values = _value_columns(metrics)
    keys: list[list[np.ndarray]] = []
    numbers = [np.empty((0, len(values)))]
    try:
        for text, block in csv_blocks(path, _KEY_COLUMNS, values):
            if not np.isfinite(block).all():
                raise ValueError("non-finite cell")
            keys.append(text)
            numbers.append(block)
    except ValueError as exc:
        for row, cells, short in csv_rows(path, [*_KEY_COLUMNS, *values]):
            if short is not None:
                raise short
            for column, cell in zip(values, cells[len(_KEY_COLUMNS):]):
                _parse_number(cell, column, row)
        raise IntegrityError(f"{path}: a block failed to parse ({exc}) but "
                             f"no row did") from exc
    number = np.concatenate(numbers)
    ids, *text = ([cell for block in keys for cell in block[j].tolist()]
                  for j in range(len(_KEY_COLUMNS)))
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise RowIngestError(repeat + 1, f"policy {ids[repeat]!r} is listed "
                                         f"more than once")
    return PolicyTable(metrics, ids, *text, number[:, 0::2], number[:, 1::2]), metrics


def save_candidates(path: str | Path, candidates: CandidateSet) -> None:
    """Write a candidates JSON file: `policy_ids` and, by id, the
    [weight index, rank] pairs of `provenance`."""
    write_json(path, asdict(candidates))


def load_candidates(path: str | Path) -> CandidateSet:
    """Read a candidates JSON file, whose `provenance` may be left out. A
    missing `policy_ids`, an unknown key or a wrong type raises ConfigError
    naming the file and the key, and provenance for an id that
    `policy_ids` does not list one naming the file and the id."""
    candidates = read_json(path, CandidateSet)
    listed = set(candidates.policy_ids)
    unlisted = next((pid for pid in candidates.provenance if pid not in listed), None)
    if unlisted is not None:
        raise ConfigError(f"{path}: provenance for policy {unlisted!r}, which "
                          f"policy_ids does not list")
    return candidates
