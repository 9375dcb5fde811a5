"""The columnar policy table against the per-policy code it replaced.

`reference_save_policy_table` is the csv.writer body that wrote one row per
candidate, with every text cell quoted in a row csv.writer alone would write
unreadably, `reference_ground_truth_oracle` the oracle that ranked a
{policy_id: {metric: MetricEstimate}} dict with Python sorts, and
`reference_sample_assignments` the sampler that drew one row per call. The
columnar writer, oracle and sampler must give the same bytes, rankings and
rows.
"""

import csv
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohortpolicy.cube as cube_module
from cohortpolicy import ingest
from cohortpolicy.errors import EstimationError, RowIngestError
from cohortpolicy.evaluation import (KINDS, SINGLE_METRIC, InstructionSpec,
                                     ground_truth_oracle)
from cohortpolicy.experiment import (ExperimentDataset, MetricEstimate,
                                     cell_moments, effects_from_moments)
from cohortpolicy.frontier import weak_pareto_mask_2d
from cohortpolicy.ingest import write_csv
from cohortpolicy.search import (FORMAT_VERSION, PolicyCandidate, PolicyTable,
                                 _sample_assignments, build_policy_table,
                                 cut_effects, enumerate_policies, evaluate_policies,
                                 evaluate_policy_pinned, load_policy_table,
                                 make_policy_id, moments_cube, save_policy_table)
from cohortpolicy.segmentation import (CutEnumerationConfig, CutSpec, cut_slot_codes,
                                       enumerate_cuts)
from cohortpolicy.synth import conflict_scenario, generate_experiment

from conftest import build_dataset, table_of


# -- references -----------------------------------------------------------------


def _written_unreadably(row):
    # A row that csv.writer writes as a comment line, or that csv.reader
    # does not read back as the one record it was given.
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow(row)
    text = text.getvalue()
    records = list(csv.reader(io.StringIO(text, newline="")))
    return text.startswith("#") or records != [[str(cell) for cell in row]]


def reference_save_policy_table(path, policies, metrics):
    header = ["policy_id", "feature", "cut", "actions"]
    for metric in metrics:
        header += [f"{metric}_mean", f"{metric}_std_err"]
    rows = [header]
    for policy in sorted(policies, key=lambda p: p.policy_id):
        cut = policy.cut
        row = [policy.policy_id,
               cut.feature if cut is not None else "",
               cut.short_descriptor if cut is not None else "global",
               "-".join(policy.assignment)]
        for metric in metrics:
            est = policy.estimates[metric]
            row += [est.mean, est.std_err]
        rows.append(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        for row in rows:
            (quoted if _written_unreadably(row) else writer).writerow(row)


GT_SIZE, SIGMA_FLOOR, CONSTRAINT_Z = 5, 1e-9, 1.96


def _require_metric(table, metric, kind):
    if not metric:
        raise ValueError(f"{kind} requires a metric id")
    for policy_id, estimates in table.items():
        if metric not in estimates:
            raise ValueError(
                f"policy {policy_id!r} has no estimate for metric {metric!r}")
    return metric


def _z(est):
    return est.mean / max(est.std_err, SIGMA_FLOOR)


def _top_by(ids, score, n=GT_SIZE):
    return sorted(ids, key=lambda pid: (-score[pid], pid))[:n]


def _tradeoff_spread(ids, table, primary, secondary):
    x = np.array([table[pid][primary].mean for pid in ids])
    y = np.array([table[pid][secondary].mean for pid in ids])
    pareto = [ids[i] for i in np.flatnonzero(weak_pareto_mask_2d(x, y))]
    means = {pid: (table[pid][primary].mean, table[pid][secondary].mean)
             for pid in pareto}
    if len(pareto) <= GT_SIZE:
        return sorted(pareto, key=lambda pid: (-means[pid][0], pid))
    lo = [min(means[p][i] for p in pareto) for i in (0, 1)]
    hi = [max(means[p][i] for p in pareto) for i in (0, 1)]
    span = [max(hi[i] - lo[i], SIGMA_FLOOR) for i in (0, 1)]

    def norm(pid):
        return tuple((means[pid][i] - lo[i]) / span[i] for i in (0, 1))

    extreme_primary = min(pareto, key=lambda pid: (-means[pid][0], pid))
    extreme_secondary = min(pareto, key=lambda pid: (-means[pid][1], pid))
    chosen = [extreme_primary]
    if extreme_secondary != extreme_primary:
        chosen.append(extreme_secondary)
    remaining = [pid for pid in pareto if pid not in chosen]
    while len(chosen) < GT_SIZE and remaining:
        best = min(remaining, key=lambda pid: (
            -min(math.dist(norm(pid), norm(c)) for c in chosen), pid))
        chosen.append(best)
        remaining.remove(best)
    return chosen


def reference_ground_truth_oracle(instruction, table):
    ids = sorted(table)
    kind = instruction.kind
    if not ids:
        return []
    primary = _require_metric(table, instruction.primary_metric, kind)
    if kind == "single_metric":
        return _top_by(ids, {pid: table[pid][primary].mean for pid in ids})
    secondary = None
    if kind != "efficiency_optimization":
        secondary = _require_metric(table, instruction.secondary_metric, kind)
    if kind == "maximize_with_constraint":
        eligible = [pid for pid in ids
                    if table[pid][secondary].mean
                    + CONSTRAINT_Z * table[pid][secondary].std_err >= 0]
        return _top_by(eligible, {pid: table[pid][primary].mean for pid in eligible})
    if kind == "maximize_both":
        score = {pid: _z(table[pid][primary]) + _z(table[pid][secondary])
                 for pid in ids}
        eligible = [pid for pid in ids
                    if table[pid][primary].mean >= 0 and table[pid][secondary].mean >= 0]
        top = _top_by(eligible, score)
        if len(top) < GT_SIZE:
            rest = [pid for pid in ids if pid not in set(top)]
            top += _top_by(rest, score, GT_SIZE - len(top))
        return top
    if kind == "tradeoff_analysis":
        return _tradeoff_spread(ids, table, primary, secondary)
    metrics = tuple(dict.fromkeys(m for pid in ids for m in table[pid]))
    for metric in metrics:
        _require_metric(table, metric, kind)
    score = {pid: sum(_z(table[pid][m]) for m in metrics) / len(metrics)
             for pid in ids}
    return _top_by(ids, score)


def reference_sample_assignments(n_actions, slots, budget, control_index, rng):
    control = tuple([control_index] * slots)
    chosen = {control}
    while len(chosen) < budget:
        chosen.add(tuple(int(a) for a in rng.integers(0, n_actions, size=slots)))
    return sorted(chosen)


def bits(values):
    """The IEEE bytes of floats, so that 0.0 and -0.0 differ."""
    return struct.pack(f"{len(values)}d", *values)


# -- writer ---------------------------------------------------------------------

# Names are not validated at ingest, so any text reaches the writer.
NAME = st.text(st.sampled_from(['a', 'b', ',', '"', '\n', '\r', ' ', '-', '.',
                                '#', "'", '\t', 'é']), min_size=1, max_size=5)


@st.composite
def candidate_tables(draw, names=NAME):
    metrics = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    actions = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    cuts = [None, *(CutSpec(feature=f, kind="individual", n_bins=2)
                    for f in draw(st.lists(names, min_size=1, max_size=2, unique=True)))]
    value = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300])
    policies = {}
    for cut in cuts:
        slots = cut.slot_count if cut is not None else 1
        for _ in range(draw(st.integers(0, 3))):
            assignment = tuple(draw(st.lists(st.sampled_from(actions),
                                             min_size=slots, max_size=slots)))
            pid = make_policy_id(cut, assignment)
            policies[pid] = PolicyCandidate(pid, cut, assignment, {
                m: MetricEstimate(mean=draw(value), std_err=abs(draw(value)))
                for m in metrics})
    return list(policies.values()), metrics


@settings(max_examples=150, deadline=None)
@given(candidate_tables())
@example(([PolicyCandidate("f,1.ind2. a-\"b\n", CutSpec("f,1", "individual", 2),
                           (' a', '"b\n'), {"m 1": MetricEstimate(-0.0, 0.5)})],
          ["m 1"]))
def test_writer_matches_csv_writer(tmp_path_factory, case):
    policies, metrics = case
    folder = tmp_path_factory.mktemp("writer")
    reference_save_policy_table(folder / "want.csv", policies, metrics)
    save_policy_table(folder / "table.csv", table_of(policies, metrics))
    assert (folder / "table.csv").read_bytes() == (folder / "want.csv").read_bytes()


def reference_write_csv(path, header, columns):
    """The csv.writer body that `write_csv` replaced."""
    def is_text(column):
        return len(column) > 0 and isinstance(column[0], str)

    def unreadable(row):
        bare = [isinstance(cell, str) and not any(c in cell for c in ',"\n')
                for cell in row]
        return (bare[0] and row[0].startswith("#")) or any(
            is_bare and "\r" in cell for is_bare, cell in zip(bare, row))

    first = [header[0], *columns[0]] if is_text(columns[0]) else header[:1]
    suspect = "\n#" in "\n" + "\n".join(first) or any(
        "\r" in "".join(column) for column in (header, *filter(is_text, columns)))
    rows = zip(*columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        if not suspect:
            writer.writerow(header)
            writer.writerows(rows)
            return
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        for row in [header, *rows]:
            (quoted if unreadable(row) else writer).writerow(row)


TEXT = st.text(st.sampled_from(['a', ',', '"', '\n', '\r', ' ', '#', 'é']), max_size=4)
FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 1e-300, 0.1])
INT = st.integers(-10 ** 20, 10 ** 20)
COLUMN_CELLS = {"text": TEXT, "float": FLOAT, "int": INT, "mixed": FLOAT | INT}


@st.composite
def csv_files(draw):
    n_rows = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1,
                          max_size=4))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(COLUMN_CELLS[kind], min_size=n_rows, max_size=n_rows))
               for kind in kinds]
    return header, columns, draw(st.sampled_from([1, 2, 3, 4096]))


# Int, float, mixed and text columns, and names holding '\r' or a leading
# '#', each written in blocks of a few rows as well as in one.
@settings(max_examples=300, deadline=None)
@given(csv_files())
@example((["#a", "b\rc", "n"], [["#x", "y\r", ""], [0.5, -0.0, 1], [1, 2, 3]], 2))
@example(([""], [["", "a", ""]], 4096))
def test_write_csv_matches_csv_writer(tmp_path_factory, case):
    header, columns, block_rows = case
    folder = tmp_path_factory.mktemp("write_csv")
    reference_write_csv(folder / "want.csv", header, columns)
    default, ingest._WRITE_ROWS = ingest._WRITE_ROWS, block_rows
    try:
        write_csv(folder / "got.csv", header, columns)
    finally:
        ingest._WRITE_ROWS = default
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


# Names hold '#' and a lone '\r' too: an id starting with '#' and a cell
# whose only special character is '\r' are quoted by the writer, and a line
# starting with '#' inside a quoted cell is not a comment to the reader.
@settings(max_examples=100, deadline=None)
@given(candidate_tables())
@example(([PolicyCandidate("#a\r", None, ("a\n#b",), {"m\r": MetricEstimate(0.0, 1.0)}),
           PolicyCandidate("\r#c", None, ("a",), {"m\r": MetricEstimate(-0.0, 0.0)})],
          ["m\r"]))
def test_policy_table_round_trip_is_bit_exact(tmp_path_factory, case):
    policies, metrics = case
    table = table_of(policies, metrics)
    path = tmp_path_factory.mktemp("round_trip") / "table.csv"
    save_policy_table(path, table)
    loaded, loaded_metrics = load_policy_table(path)
    assert loaded_metrics == metrics
    for column in ("ids", "feature", "cut", "actions"):
        assert getattr(loaded, column) == getattr(table, column)
    assert bits(loaded.mean.ravel().tolist()) == bits(table.mean.ravel().tolist())
    assert bits(loaded.std_err.ravel().tolist()) == bits(table.std_err.ravel().tolist())
    assert loaded == table


def test_load_names_a_short_row(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("policy_id,feature,cut,actions,m1_mean,m1_std_err\n"
                    "p1,f1,ind2,a0-a1,0.5,0.1\n"
                    "p2,c\n")
    with pytest.raises(RowIngestError, match=r"^row 2: expected 6 fields, got 2$"):
        load_policy_table(path)


@pytest.mark.parametrize("cell,message", [
    ("", "row 1: missing value in column 'm1_std_err'"),
    ("x", "row 1: non-numeric value 'x' in column 'm1_std_err'"),
    ("inf", "row 1: non-finite value 'inf' in column 'm1_std_err'"),
])
def test_load_names_a_bad_number(tmp_path, cell, message):
    path = tmp_path / "table.csv"
    path.write_text("policy_id,feature,cut,actions,m1_mean,m1_std_err\n"
                    f"p1,f1,ind2,a0-a1,0.5,{cell}\n")
    with pytest.raises(RowIngestError, match=f"^{message}$"):
        load_policy_table(path)


def test_load_names_the_row_that_repeats_an_id(tmp_path):
    # This file used to load as one policy at 2.0 +- 0.5, its first row's
    # negative std_err never checked.
    path = tmp_path / "table.csv"
    path.write_text("policy_id,feature,cut,actions,m1_mean,m1_std_err\n"
                    "q,f,c,a,0.0,0.1\np,f,c,a,1.0,-1.0\np,f,c,a,2.0,0.5\n")
    with pytest.raises(RowIngestError,
                       match="^row 3: policy 'p' is listed more than once$"):
        load_policy_table(path)


def test_table_rejects_a_negative_std_err():
    with pytest.raises(ValueError, match="policy 'p1' metric 'm1'"):
        PolicyTable(("m1",), ["p1"], [""], ["global"], ["a1"], [[0.5]], [[-0.1]])


def test_table_sorts_by_id_and_rejects_a_repeated_id():
    table = PolicyTable(("m1",), ["b", "a", "c"], ["", "", ""], ["global"] * 3,
                        ["x", "y", "z"], [[1.0], [2.0], [3.0]], [[0.0]] * 3)
    assert table.ids == ["a", "b", "c"]
    assert table.actions == ["y", "x", "z"]
    assert table["b"] == {"m1": MetricEstimate(mean=1.0, std_err=0.0)}
    assert list(table) == ["a", "b", "c"] and len(table) == 3
    assert "a" in table and "d" not in table
    with pytest.raises(KeyError):
        table["d"]
    # A repeated id is an error, whichever of its rows holds what: the
    # table used to keep the last row and never checked the others.
    with pytest.raises(ValueError, match="policy 'b' is listed more than once"):
        PolicyTable(("m1",), ["b", "a", "b"], ["", "", ""], ["global"] * 3,
                    ["x", "y", "z"], [[1.0], [2.0], [3.0]], [[-1.0], [0.0], [0.0]])


# -- enumeration and composition ---------------------------------------------------


# Wide rows too: 3 actions over 40 slots, or 4 over 33, make more rows than
# int64 counts.
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9) | st.integers(30, 40),
       st.integers(1, 40), st.integers(0, 3), st.integers(0, 2 ** 32))
@example(4, 33, 20, 1, 7)
@example(3, 40, 40, 2, 8)
def test_sampler_draws_the_same_stream(n_actions, slots, budget, control, seed):
    # The block draws give the rows, and leave the generator where, the
    # one-row-per-call loop does.
    budget = min(budget, n_actions ** slots)
    control = min(control, n_actions - 1)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_sample_assignments(n_actions, slots, budget, control, want_rng)
    got = _sample_assignments(n_actions, slots, budget, control, got_rng)
    assert [tuple(row) for row in got.tolist()] == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def small_datasets(draw):
    n = draw(st.integers(2, 30))
    # Few distinct feature values: ties and bins emptied by ties.
    features = [draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
                for _ in range(2)]
    # Arms drawn freely: arms of one user, or of none, leave slots without
    # support.
    arms = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    # Small integer outcomes tie means, and equal means give 0.0 and -0.0.
    outcomes = [draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n)),
                draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=n,
                              max_size=n))]
    ds = ExperimentDataset(experiment_id="e", user_ids=[f"u{i:03d}" for i in range(n)],
                           arm_codes=arms, feature_matrix=features,
                           outcome_matrix=outcomes, actions=("c", "t1", "t2"),
                           control_action="c", metrics=("m1", "m2"),
                           features=("f1", "f2"))
    cuts = []
    for feature in draw(st.lists(st.sampled_from(["f1", "f2"]), max_size=3)):
        n_bins = draw(st.integers(2, 6))
        if draw(st.booleans()):
            cuts.append(CutSpec(feature, "individual", n_bins))
        else:
            cuts.append(CutSpec(feature, "binary", n_bins,
                                draw(st.integers(1, n_bins - 1))))
    return ds, cuts, draw(st.integers(1, 30)), draw(st.integers(0, 99))


@settings(max_examples=120, deadline=None)
@given(small_datasets())
def test_table_composer_is_bit_equal_to_pinned_evaluation(case):
    ds, cuts, budget, seed = case
    table = build_policy_table(moments_cube(ds, cuts), cuts, budget=budget, seed=seed)
    policies = enumerate_policies(ds, cuts, budget=budget, seed=seed)
    everyone = np.ones(ds.n_users, dtype=bool)
    supported = []
    for policy in policies:
        try:
            want = evaluate_policy_pinned(ds, policy, everyone)
        except EstimationError:
            assert policy.policy_id not in table
            continue
        supported.append(want)
        row = table.ids.index(policy.policy_id)
        cut = policy.cut
        assert table.feature[row] == (cut.feature if cut is not None else "")
        assert table.cut[row] == (cut.short_descriptor if cut is not None else "global")
        assert table.actions[row] == "-".join(policy.assignment)
        for m, metric in enumerate(ds.metrics):
            assert bits([table.mean[row, m]]) == bits([want.estimates[metric].mean])
            assert bits([table.std_err[row, m]]) == bits([want.estimates[metric].std_err])
    # A cut listed twice repeats its ids; the table holds each id once.
    assert table.ids == sorted({p.policy_id for p in supported})
    assert table == table_of(supported, ds.metrics)


# -- one moments pass per feature -------------------------------------------------


def direct_effects(ds, cut):
    """The reference: one `cell_moments` pass over the cut's own slot codes."""
    n_slots = cut.slot_count if cut is not None else 1
    return effects_from_moments(cell_moments(ds, cut_slot_codes(ds, cut), (n_slots,)),
                                ds.actions.index(ds.control_action))


@st.composite
def listed_cuts(draw):
    ds, _, _, _ = draw(small_datasets())
    cut = st.builds(lambda feature, n_bins, i0, binary: (
        CutSpec(feature, "binary", n_bins, min(i0, n_bins - 1)) if binary
        else CutSpec(feature, "individual", n_bins)),
        st.sampled_from(["f1", "f2"]), st.integers(2, 6), st.integers(1, 5),
        st.booleans())
    cuts = draw(st.lists(cut | st.none(), min_size=1, max_size=8))
    # Some cuts listed twice.
    return ds, cuts + draw(st.lists(st.sampled_from(cuts), max_size=2))


# Pooled binary-cut means and standard errors agree with the direct pass to
# this bound, relative to the larger of the value and the largest outcome
# magnitude (a lift or error of about zero is compared at the outcome scale).
# The worst seen over 3000 examples is 3.0e-16.
POOLED_REL = 1e-12


@settings(max_examples=200, deadline=None)
@given(listed_cuts())
def test_pooled_binary_cut_effects_match_a_direct_pass(case):
    # Small integer features tie and empty slots, small samples give
    # single-user cells, and some cuts are listed twice.
    ds, cuts = case
    scale = max(float(np.abs(ds.outcome_matrix).max(initial=0.0)), 1e-300)
    effects = cut_effects(moments_cube(ds, cuts), cuts)
    # One range, every day of a one-day cube; every cut has the slots of
    # the widest grid, the slots past its own empty.
    width = max(cut.n_bins if cut is not None else 1 for cut in cuts)
    assert effects.counts.shape == (1, len(cuts), width, len(ds.actions))
    for j, cut in enumerate(cuts):
        want = direct_effects(ds, cut)
        n = len(want.counts)
        assert effects.counts[0, j, n:].tolist() == [[0] * len(ds.actions)] * (width - n)
        assert not effects.mean[0, j, n:].any() and not effects.std_err[0, j, n:].any()
        assert effects.counts[0, j, :n].tolist() == want.counts.tolist()
        assert effects.supported[0, j, :n].tolist() == want.supported.tolist()
        for got, expected in ((effects.mean[0, j, :n], want.mean),
                              (effects.std_err[0, j, :n], want.std_err)):
            if cut is None or cut.kind == "individual":
                assert bits(got.ravel().tolist()) == bits(expected.ravel().tolist())
            else:
                bound = POOLED_REL * np.maximum(np.abs(expected), scale)
                assert (np.abs(got - expected) <= bound).all()


def test_one_moments_pass_per_feature_grid(monkeypatch):
    # Two features' individual and binary cuts at 4 bins, plus f1's binary
    # cuts at 3 bins: three grids, three passes.
    passes = []

    def counted(*args, **kwargs):
        passes.append(args[2])
        return cell_moments(*args, **kwargs)

    rng = np.random.default_rng(3)
    ds = ExperimentDataset(experiment_id="e", user_ids=[f"u{i}" for i in range(60)],
                           arm_codes=rng.integers(0, 3, 60),
                           feature_matrix=rng.integers(0, 9, (2, 60)),
                           outcome_matrix=rng.normal(size=(1, 60)),
                           actions=("c", "t1", "t2"), control_action="c",
                           metrics=("m1",), features=("f1", "f2"))
    cuts = [*enumerate_cuts(ds, {"features": ["f1", "f2"], "n_bins": 4}),
            CutSpec("f1", "binary", 3, 1), CutSpec("f1", "binary", 3, 2)]
    monkeypatch.setattr(cube_module, "cell_moments", counted)
    effects = cut_effects(moments_cube(ds, cuts), cuts)
    assert passes == [(1, 4), (1, 4), (1, 3)]
    assert effects.counts.shape == (1, len(cuts), 4, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
                | st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
       st.integers(2, 9))
def test_binary_codes_are_the_fine_codes_from_the_threshold_up(values, n_bins):
    # Ties included: the users of a binary cut's upper slot are those whose
    # N-bin code is at least its threshold index.
    ds = build_dataset(values, ["c"] * len(values), [0.0] * len(values), control="c")
    fine = cut_slot_codes(ds, CutSpec("f1", "individual", n_bins))
    for i0 in range(1, n_bins):
        binary = cut_slot_codes(ds, CutSpec("f1", "binary", n_bins, i0))
        assert (fine >= i0).astype(binary.dtype).tolist() == binary.tolist()


# -- oracle -----------------------------------------------------------------------


@st.composite
def oracle_cases(draw):
    n_metrics = draw(st.sampled_from([2, 3]))
    metrics = [f"m{i + 1}" for i in range(n_metrics)]
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), max_size=14,
                        unique=True))
    # Few distinct values: tied scores, 0.0 against -0.0, zero errors.
    mean = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -0.25, 1e-10])
    std_err = st.sampled_from([0.0, 1e-12, 0.5, 1.0, 2.0])
    table = PolicyTable(metrics, ids, [""] * len(ids), ["global"] * len(ids),
                        ["a"] * len(ids),
                        [[draw(mean) for _ in metrics] for _ in ids],
                        [[draw(std_err) for _ in metrics] for _ in ids])
    primary, secondary = draw(st.permutations(metrics))[:2]
    return table, primary, secondary


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_oracle_on_table_equals_oracle_on_its_dict(case):
    table, primary, secondary = case
    # Insertion order must not matter to the dict oracle.
    materialized = {pid: dict(table[pid]) for pid in reversed(table.ids)}
    for kind in KINDS:
        spec = InstructionSpec(kind=kind, primary_metric=primary,
                               secondary_metric=None if kind == SINGLE_METRIC
                               else secondary)
        got = ground_truth_oracle(spec, table).top5
        assert got == ground_truth_oracle(spec, materialized).top5, kind
        assert got == reference_ground_truth_oracle(spec, materialized), kind


def test_take_selects_rows_by_mask_or_id():
    table = PolicyTable(("m1", "m2"), ["b", "a", "c"], ["f", "f", ""],
                        ["ind2", "ind2", "global"], ["x-y", "y-x", "x"],
                        [[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]],
                        [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], [10, 20, 30], [1, 2, 3])
    assert [table.row(pid) for pid in ("a", "b", "c")] == [0, 1, 2]
    for sub in (table.take(np.array([True, False, True])), table.take(["c", "a"])):
        assert (sub.metrics, sub.ids, sub.feature, sub.cut, sub.actions) == \
            (("m1", "m2"), ["a", "c"], ["f", ""], ["ind2", "global"], ["y-x", "x"])
        assert sub.mean.tolist() == [[2.0, -2.0], [3.0, -3.0]]
        assert sub.std_err.tolist() == [[0.2, 0.0], [0.3, 0.0]]
        assert (sub.n_treated.tolist(), sub.n_control.tolist()) == ([20, 30], [2, 3])
        assert sub["c"]["m2"] == MetricEstimate(-3.0, 0.0, n_treated=30, n_control=3)
    empty = table.take(np.zeros(3, dtype=bool))
    assert len(empty) == 0 and empty.mean.shape == (0, 2)
    with pytest.raises(KeyError):
        table.take(["d"])


def test_candidate_recovers_cut_and_assignment_from_a_row():
    # The candidate of a row is its evaluated policy. Names holding "."
    # would put an id's split point among the dots; the cut comes from the
    # feature and cut columns instead.
    ds = build_dataset([1, 2, 3, 4, 5, 6, 7, 8], ["x.y", "c.0", "z", "c.0"] * 2,
                       [0.5, 0.1, 0.9, 0.3, 0.2, 0.8, 0.4, 0.6],
                       feature="f.1", control="c.0")
    cuts = [CutSpec("f.1", "individual", 2), CutSpec("f.1", "binary", 4, 1)]
    for listed in (cuts, []):
        table = build_policy_table(moments_cube(ds, listed), listed)
        policies = {p.policy_id: p for p in enumerate_policies(ds, listed)}
        assert table.ids and set(table.ids) <= set(policies)
        for pid in table.ids:
            [want] = evaluate_policies(ds, [policies[pid]])
            assert table.candidate(pid, listed) == want
    # A row's cut must be among the cuts given.
    table = build_policy_table(moments_cube(ds, cuts), cuts)
    with pytest.raises(KeyError):
        table.candidate(table.ids[table.cut.index("ind2")], cuts[1:])


# A 4-bin conflict dataset, whose cuts take every assignment, and an 8-bin
# one, whose individual cuts sample 128 of the 3**8 assignments.
@pytest.mark.parametrize("seed,n_users,n_bins", [(3, 4000, 4), (4, 3000, 8)])
def test_table_rows_equal_evaluated_estimates_bit_for_bit(seed, n_users, n_bins):
    ds, _ = generate_experiment(conflict_scenario(seed=seed, n_users=n_users))
    cuts = enumerate_cuts(ds, CutEnumerationConfig(features=ds.features, n_bins=n_bins))
    table = build_policy_table(moments_cube(ds, cuts), cuts, 128, seed)
    policies = [p for p in enumerate_policies(ds, cuts, budget=128, seed=seed)
                if p.policy_id in table]
    assert len(policies) == len(table) and table.n_treated.any()
    for want in evaluate_policies(ds, policies):
        row = table.row(want.policy_id)
        for m, metric in enumerate(ds.metrics):
            est = want.estimates[metric]
            assert bits([table.mean[row, m], table.std_err[row, m]]) == \
                bits([est.mean, est.std_err])
            assert (table.n_treated[row], table.n_control[row]) == \
                (est.n_treated, est.n_control)
        assert table[want.policy_id] == want.estimates


def test_oracle_names_the_policy_lacking_a_metric():
    table = PolicyTable(("m1",), ["b", "a"], ["", ""], ["global"] * 2, ["x", "y"],
                        [[1.0], [2.0]], [[0.1], [0.1]])
    spec = InstructionSpec(kind="tradeoff_analysis", primary_metric="m1",
                           secondary_metric="m2")
    for source in (table, {pid: table[pid] for pid in ("b", "a")}):
        with pytest.raises(ValueError) as got:
            ground_truth_oracle(spec, source)
        with pytest.raises(ValueError) as want:
            reference_ground_truth_oracle(spec, source)
        assert str(got.value) == str(want.value)
