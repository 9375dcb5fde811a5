"""The moments cube: an experiment's users read once, as per-(day, slot,
arm) sums, and the arithmetic that reads policies off it.

`moments_cube` makes one `cell_moments` pass per feature and bin count on
its N-bin grid; nothing reads the users after it. `cut_effects` reads the
slot effects of any cuts on any ranges of days, and `compose_policies`
sums each policy's slot effects. The policy table
(`search.build_policy_table`) and the validation hooks read the users
through these alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experiment import (CellMoments, ExperimentDataset, SlotEffects, cell_moments,
                         effects_from_moments, pool_moments)
from .segmentation import INDIVIDUAL, CutSpec, cut_slot_codes


def _pool_slots(moments: CellMoments, thresholds: Sequence[int]) -> CellMoments:
    # The moments of the binary cuts at `thresholds` on a grid of N slots,
    # the last cell axis of `moments`: a (cut, ..., 2, arm) table whose
    # slots pool the grid's slots [0, i0) and [i0, N).
    n, k = moments.counts.shape[-2], len(thresholds)
    lo = np.array([0] * k + list(thresholds))
    hi = np.array(list(thresholds) + [n] * k)
    pooled = pool_moments(CellMoments(counts=np.moveaxis(moments.counts, -2, 0),
                                      sums=np.moveaxis(moments.sums, -3, 0),
                                      m2=np.moveaxis(moments.m2, -3, 0)), lo, hi)

    def by_cut(a: np.ndarray, slot_axis: int) -> np.ndarray:
        return np.moveaxis(a.reshape(2, k, *a.shape[1:]), 0, slot_axis)

    return CellMoments(counts=by_cut(pooled.counts, -2), sums=by_cut(pooled.sums, -3),
                       m2=by_cut(pooled.m2, -3))


def _grid(cut: CutSpec | None) -> CutSpec | None:
    # The grid a cut reads: its feature's N-bin individual cut; None for all.
    return None if cut is None else CutSpec(cut.feature, INDIVIDUAL, cut.n_bins)


@dataclass(frozen=True, eq=False)
class MomentsCube:
    """All that the policy table and the validation hooks read of an
    experiment's users: `grids` maps each grid (a feature's N-bin
    individual cut, or None for the whole population) to the CellMoments
    of its (day, slot) cells. `days` holds the day labels and `control`
    indexes the control arm in `actions`. `time_axis` is False when the
    users carry no day labels, so that the "days" are chunks of id-sorted
    users (`ExperimentDataset.day_codes`), not time."""

    experiment_id: str
    actions: tuple[str, ...]
    control: int
    metrics: tuple[str, ...]
    days: list[int]
    grids: dict[CutSpec | None, CellMoments]
    time_axis: bool


def moments_cube(ds: ExperimentDataset, cuts: Sequence[CutSpec | None],
                 days: tuple[np.ndarray, list[int]] | None = None) -> MomentsCube:
    """One `cell_moments` pass over (day, slot) x arm cells per grid that
    `cuts` read; an empty cut list, whose policies are the global ones,
    reads the whole population. `days` is every user's day code and the day
    labels, as `ds.day_codes` returns them; by default all users are on
    one day, labelled 0.
    """
    day, labels = days or (0, [0])
    grids: dict[CutSpec | None, CellMoments] = {}
    for grid in dict.fromkeys(map(_grid, cuts or [None])):
        n_slots = grid.slot_count if grid is not None else 1
        # One fresh code array per grid, turned into its cell codes in place.
        codes = cut_slot_codes(ds, grid)
        codes += day * n_slots
        grids[grid] = cell_moments(ds, codes, (len(labels), n_slots))
    return MomentsCube(experiment_id=ds.experiment_id, actions=ds.actions,
                       control=ds.actions.index(ds.control_action),
                       metrics=ds.metrics, days=list(labels), grids=grids,
                       time_axis=ds.days is not None)


def cut_effects(cube: MomentsCube, cuts: Sequence[CutSpec | None],
                lo: Sequence[int] | None = None, hi: Sequence[int] | None = None
                ) -> SlotEffects:
    """The slot effects of every cut in `cuts` (None for the whole
    population) on the users of each day range [lo[i], hi[i]) of `cube`
    (by default, of all its days): one SlotEffects of (range, cut, slot,
    arm) cells. The cube holds the grids of `cuts`.

    The cuts are read in a fixed number of array passes: the cube's grids
    are stacked and pool each range's days at once (`pool_moments`), which
    gives the individual cuts' slots, and one `_pool_slots` pass over them
    gives the binary cuts'. Every cut has the slots of the widest grid;
    slots past its own are empty, with zero counts, effects and errors. A
    one-day range reads that day's cells exactly. A binary cut at
    threshold i0 puts in its upper slot the users whose N-bin code is at
    least i0 (the codes `cut_slot_codes` gives it, ties included), so its
    two slots pool the grid's slots [0, i0) and [i0, N): counts are exact,
    and means and standard errors agree with a pass over the cut's own
    codes to rounding. Each step is elementwise, or sums in the order of a
    read of one grid, so a cut's effects are bit-identical to those read
    alone.
    """
    if lo is None:
        lo, hi = [0], [len(cube.days)]
    cut_grids = list(map(_grid, cuts))
    grids = list(dict.fromkeys(cut_grids))
    shape = (len(cube.days), len(grids),
             max((grid.slot_count if grid is not None else 1 for grid in grids),
                 default=1), len(cube.actions))
    stacked = CellMoments(counts=np.zeros(shape, dtype=np.intp),
                          sums=np.zeros((*shape, len(cube.metrics))),
                          m2=np.zeros((*shape, len(cube.metrics))))
    for k, grid in enumerate(grids):
        cells = cube.grids[grid]
        width = cells.counts.shape[1]
        stacked.counts[:, k, :width] = cells.counts
        stacked.sums[:, k, :width] = cells.sums
        stacked.m2[:, k, :width] = cells.m2
    fine = pool_moments(stacked, lo, hi)
    # Each cut's grid row.
    grid_of = np.array([grids.index(grid) for grid in cut_grids], dtype=np.intp)
    cells = [part[:, grid_of] for part in (fine.counts, fine.sums, fine.m2)]
    # Each cut's threshold index, 0 for a cut that is not binary.
    split = np.array([getattr(cut, "threshold_index", None) or 0 for cut in cuts],
                     dtype=np.intp)
    binary = split > 0
    if binary.any():
        thresholds = sorted(set(split[binary].tolist()))
        halves = _pool_slots(fine, thresholds)
        at = (np.searchsorted(thresholds, split[binary]), slice(None), grid_of[binary])
        for part, half in zip(cells, (halves.counts, halves.sums, halves.m2)):
            part[:, binary] = 0
            part[:, binary, :2] = np.moveaxis(half[at], 0, 1)
    return effects_from_moments(CellMoments(*cells), cube.control)


@dataclass(frozen=True, slots=True)
class Composition:
    """Composed estimates of P policies.

    `mean` and `std_err` are (P, metrics) arrays, `n_treated` and
    `n_control` (P,) arrays counting the users of each policy's treated
    slots and their controls, and `unsupported` holds each policy's first
    unsupported slot, or -1 where every slot is supported. Policies
    composed on every table of the effects put the tables' axes first.
    """

    mean: np.ndarray
    std_err: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray
    unsupported: np.ndarray


def compose_policies(effects: SlotEffects, arms: np.ndarray, control: int,
                     rows: np.ndarray | None = None) -> Composition:
    """The policies whose (P, slots) arm codes, indices into the cube's
    actions with `control` the control arm, are `arms`, on the cuts that
    `effects` describes: each of its tables composes every policy, or,
    given an index array `rows` into its tables, in order, policy p reads
    table `rows[p]`.

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
    if rows is None:
        rows = np.arange(sizes[..., 0].size).reshape(*sizes.shape[:-1], 1)
    first = rows * (n_slots * n_arms)
    shape = np.broadcast_shapes(first.shape, (len(arms),))
    # Sums run in slot order from zero; the control arm's column and every
    # empty slot hold zero effect and zero error.
    total = np.zeros((*shape, 2 * n_metrics))
    n_users = np.zeros((*shape, 2), dtype=counts.dtype)
    unsupported = np.full(shape, -1)
    for slot in range(arms.shape[1]):
        cell = first + slot * n_arms + arms[:, slot]
        total += terms[cell]
        n_users += users[cell]
        np.putmask(unsupported, lacking[cell] & (unsupported < 0), slot)
    return Composition(mean=total[..., :n_metrics],
                       std_err=np.sqrt(total[..., n_metrics:]),
                       n_treated=n_users[..., 0], n_control=n_users[..., 1],
                       unsupported=unsupported)
