"""The moments cube: an experiment's users read once, as per-(day, grid,
slot, arm) sums, and the arithmetic that reads policies off it.

`moments_cube` makes one `cell_moments` pass per feature and bin count on
its N-bin grid, into one stacked array; nothing reads the users after it.
`cut_effects` reads the slot effects of any cuts on any ranges of days,
every slot of a cut being a range of its grid's slots, and
`compose_policies` sums each policy's slot effects on its table. The
policy table (`search.build_policy_table`) and the validation hooks read
the users through these alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experiment import (CellMoments, ExperimentDataset, SlotEffects, cell_moments,
                         effects_from_moments, pool_moments)
from .segmentation import BINARY, INDIVIDUAL, CutSpec, cut_slot_codes


def _grid(cut: CutSpec | None) -> CutSpec | None:
    # The grid a cut reads: its feature's N-bin individual cut; None for all.
    return None if cut is None else CutSpec(cut.feature, INDIVIDUAL, cut.n_bins)


def _width(grid: CutSpec | None) -> int:
    return 1 if grid is None else grid.slot_count


def _slot_edges(cut: CutSpec | None) -> list[int]:
    # Slot s of `cut` holds its grid's slots [edges[s], edges[s + 1]).
    if cut is None:
        return [0, 1]
    if cut.kind == BINARY:
        return [0, cut.threshold_index, cut.n_bins]
    return list(range(cut.n_bins + 1))


@dataclass(frozen=True, eq=False)
class MomentsCube:
    """All that the policy table and the validation hooks read of an
    experiment's users: `moments` holds the CellMoments of every (day,
    grid, slot) cell, where `grids` lists the grids in order (a feature's
    N-bin individual cut, or None for the whole population) and slot runs
    over the widest grid's slots, a narrower grid's extra slots empty.
    `days` holds the day labels and `control` indexes the control arm in
    `actions`. `time_axis` is False when the users carry no day labels, so
    that the "days" are chunks of id-sorted users
    (`ExperimentDataset.day_codes`), not time."""

    experiment_id: str
    actions: tuple[str, ...]
    control: int
    metrics: tuple[str, ...]
    days: list[int]
    grids: tuple[CutSpec | None, ...]
    moments: CellMoments
    time_axis: bool


def moments_cube(ds: ExperimentDataset, cuts: Sequence[CutSpec | None],
                 days: tuple[np.ndarray, list[int]] | None = None) -> MomentsCube:
    """One `cell_moments` pass over (day, slot) x arm cells per grid that
    `cuts` read, each written into its grid's row of the stacked (day,
    grid, slot, arm) moments; an empty cut list, whose policies are the
    global ones, reads the whole population. `days` is every user's day
    code and the day labels, as `ds.day_codes` returns them; by default
    all users are on one day, labelled 0.
    """
    day, labels = days or (0, [0])
    grids = tuple(dict.fromkeys(map(_grid, cuts or [None])))
    shape = (len(labels), len(grids), max(map(_width, grids)), len(ds.actions))
    moments = CellMoments(counts=np.zeros(shape, dtype=np.intp),
                          sums=np.zeros((*shape, len(ds.metrics))),
                          m2=np.zeros((*shape, len(ds.metrics))))
    for k, grid in enumerate(grids):
        width = _width(grid)
        # One fresh code array per grid, turned into its cell codes in place.
        codes = cut_slot_codes(ds, grid)
        codes += day * width
        cells = cell_moments(ds, codes, (len(labels), width))
        moments.counts[:, k, :width] = cells.counts
        moments.sums[:, k, :width] = cells.sums
        moments.m2[:, k, :width] = cells.m2
    return MomentsCube(experiment_id=ds.experiment_id, actions=ds.actions,
                       control=ds.actions.index(ds.control_action),
                       metrics=ds.metrics, days=list(labels), grids=grids,
                       moments=moments, time_axis=ds.days is not None)


def cut_effects(cube: MomentsCube, cuts: Sequence[CutSpec | None],
                lo: Sequence[int] | None = None, hi: Sequence[int] | None = None
                ) -> SlotEffects:
    """The slot effects of every cut in `cuts` (None for the whole
    population) on the users of each day range [lo[i], hi[i]) of `cube`
    (by default, of all its days): one SlotEffects of (range, cut, slot,
    arm) cells. The cube holds the grids of `cuts`.

    Every slot of a cut is a range of its grid's slots: an individual
    cut's slot s is [s, s+1), a binary cut's at threshold index i0 are
    [0, i0) and [i0, N), the whole population's is [0, 1), and the slots
    past a cut's own, up to the widest grid that `cuts` read, are empty,
    with zero counts, effects and errors. The read indexes the cube's rows
    of those grids, pools each day range (`pool_moments`), then pools each
    distinct slot range that the cuts use, on every grid at once, and
    gathers each cut's slots. A one-day range reads that day's cells, and
    an individual slot its grid's slot, exactly. The upper slot of a
    binary cut holds the users whose N-bin code is at least i0 (the codes
    `cut_slot_codes` gives it, ties included): its counts are exact, and
    means and standard errors agree with a pass over the cut's own codes
    to rounding. Each step is elementwise, or sums in the order of a read
    of one grid, so a cut's effects are bit-identical to those read alone.
    """
    if lo is None:
        lo, hi = [0], [len(cube.days)]
    cut_grids = list(map(_grid, cuts))
    grids = list(dict.fromkeys(cut_grids))
    width = max(map(_width, grids), default=1)
    rows = np.array([cube.grids.index(grid) for grid in grids], dtype=np.intp)
    fine = pool_moments(CellMoments(*(part[:, rows, :width] for part in (
        cube.moments.counts, cube.moments.sums, cube.moments.m2))), lo, hi)
    # Each distinct range of grid slots, numbered once, the empty range
    # first; slot s of cut c is range `which[c, s]`.
    ranges = {(0, 0): 0}
    which = [[ranges.setdefault(span, len(ranges)) for span in zip(edges, edges[1:])]
             for edges in map(_slot_edges, cuts)]
    which = np.array([row + [0] * (width - len(row)) for row in which],
                     dtype=np.intp).reshape(len(cuts), width)
    pooled = pool_moments(fine, *np.array(list(ranges), dtype=np.intp).T, axis=2)
    at = (slice(None), np.array([grids.index(grid) for grid in cut_grids],
                                dtype=np.intp)[:, None], which)
    return effects_from_moments(CellMoments(pooled.counts[at], pooled.sums[at],
                                            pooled.m2[at]), cube.control)


@dataclass(frozen=True, slots=True)
class Composition:
    """Composed estimates of P policies.

    `mean` and `std_err` are (P, metrics) arrays, `n_treated` and
    `n_control` (P,) arrays counting the users of each policy's treated
    slots and their controls, and `unsupported` holds each policy's first
    unsupported slot, or -1 where every slot is supported.
    """

    mean: np.ndarray
    std_err: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray
    unsupported: np.ndarray


def compose_policies(effects: SlotEffects, arms: np.ndarray, control: int,
                     rows: np.ndarray) -> Composition:
    """The policies whose (P, slots) arm codes, indices into the cube's
    actions with `control` the control arm, are `arms`, where policy p
    reads table `rows[p]` of `effects`: its (range, cut) tables, numbered
    in order.

    A policy's lift is the size-weighted sum, in slot order, of the effects
    of its treated, non-empty slots; its variance is the sum of the squared
    size-weighted standard errors. The arm codes are gathered one slot at a
    time across all P policies. A non-empty slot whose action lacks treated
    or control users makes the policy unsupported.
    """
    counts = effects.counts
    n_slots, n_arms = counts.shape[-2:]
    n_metrics = effects.mean.shape[-1]
    sizes = counts.sum(axis=-1)
    weights = sizes / np.maximum(sizes.sum(axis=-1, keepdims=True), 1)
    # Per (slot, arm) cell, as flat tables: the weighted effect beside its
    # squared weighted error, the users a treated arm adds to n_treated and
    # n_control, and whether it leaves the policy unsupported.
    terms = weights[..., None, None] * np.concatenate([effects.mean, effects.std_err],
                                                      axis=-1)
    np.square(terms[..., n_metrics:], out=terms[..., n_metrics:])
    treated = np.arange(n_arms) != control
    users = np.stack([counts * treated, counts[..., control, None] * treated], axis=-1)
    lacking = (~effects.supported & (sizes[..., None] > 0)).ravel()
    terms, users = terms.reshape(-1, 2 * n_metrics), users.reshape(-1, 2)
    first = rows * (n_slots * n_arms)
    # Sums run in slot order from zero; the control arm's column and every
    # empty slot hold zero effect and zero error.
    total = np.zeros((len(arms), 2 * n_metrics))
    n_users = np.zeros((len(arms), 2), dtype=counts.dtype)
    unsupported = np.full(len(arms), -1)
    for slot in range(arms.shape[1]):
        cell = first + slot * n_arms + arms[:, slot]
        total += terms[cell]
        n_users += users[cell]
        np.putmask(unsupported, lacking[cell] & (unsupported < 0), slot)
    return Composition(mean=total[:, :n_metrics],
                       std_err=np.sqrt(total[:, n_metrics:]),
                       n_treated=n_users[:, 0], n_control=n_users[:, 1],
                       unsupported=unsupported)
