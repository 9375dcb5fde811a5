"""The block-streamed CSV reader against per-row references.

`reference_ingest` and `reference_load_snapshots` are the per-row loaders
that `csv_blocks` replaced (csv.DictReader and csv.reader over the
comment-filtered lines, one Python parse per cell). A comment is a line
that starts with '#' where csv.reader would start a record, not one inside
a quoted field (`_without_comments`). Two lines differ from them, each
marked: a snapshot header without a column raises SchemaError
(it raised ValueError), and a day label beyond int64 raises RowIngestError
at its row (an OverflowError once every row was read). The block reader
must give bit-identical columns, or raise the same exception type with the
same message, on files that split its blocks inside the data.
"""

import csv
import io
import json
import math
from array import array
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cohortpolicy.errors import IntegrityError, RowIngestError, SchemaError
from cohortpolicy.experiment import ExperimentDataset
from cohortpolicy.governance import (SNAPSHOT_COLUMNS, SNAPSHOT_LABELS,
                                     FeatureSnapshotPair, load_snapshots)
import cohortpolicy.ingest as ingest_module
from cohortpolicy.cli import main
from cohortpolicy.ingest import IngestSchema, csv_blocks, csv_rows, ingest
from cohortpolicy.pipeline import RunConfig, govern_pipeline
from cohortpolicy.search import load_policy_table
from cohortpolicy.synth import (BenchmarkConfig, build_benchmark, conflict_scenario,
                                generate_experiment)

from conftest import traced_peak_mb


SCHEMA = IngestSchema(user_id_column="uid", arm_column="group",
                      feature_columns=("age",), metric_columns=("spend", "clicks"),
                      control_action="control", day_column="day")
HEADER = ["uid", "group", "age", "spend", "clicks", "day", "note"]


# -- per-row references -------------------------------------------------------

def _parse_number(raw, column, row_idx):
    if raw is None or (isinstance(raw, str) and raw.strip() == ""):
        raise RowIngestError(row_idx, f"missing value in column {column!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise RowIngestError(row_idx, f"non-numeric value {raw!r} in column {column!r}")
    if not math.isfinite(value):
        raise RowIngestError(row_idx, f"non-finite value {raw!r} in column {column!r}")
    return value


def _without_comments(fh):
    """The physical lines of `fh` minus its comment lines: those that start
    with '#' where csv.reader would start a record. (The loaders used to drop
    every line starting with '#', inside a quoted field too.)"""
    kept, at_record_start = [], [True]

    def feed():
        for line in fh:
            if at_record_start[0] and line.startswith("#"):
                continue
            at_record_start[0] = False
            kept.append(line)
            yield line

    for _ in csv.reader(feed()):
        at_record_start[0] = True
    return kept


def _iter_rows(path):
    if path.suffix.lower() == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(_without_comments(fh))
            yield reader.fieldnames or [], None
            for row in reader:
                yield None, row
    else:
        with open(path, encoding="utf-8") as fh:
            first = True
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if first:
                    yield list(row.keys()), None
                    first = False
                yield None, row
            if first:
                yield [], None


def reference_ingest(path, schema):
    required = [schema.user_id_column, schema.arm_column,
                *schema.feature_columns, *schema.metric_columns]
    if schema.day_column:
        required.append(schema.day_column)
    rows = _iter_rows(Path(path))
    header, _ = next(rows)
    for column in required:
        if column not in header:
            raise SchemaError(f"input is missing declared column {column!r}")
    arm_of = {}
    features = [[] for _ in schema.feature_columns]
    outcomes = [[] for _ in schema.metric_columns]
    days = [] if schema.day_column else None
    row_idx = 0
    for _, row in rows:
        row_idx += 1
        for column in required:
            if column not in row:
                raise RowIngestError(row_idx, f"missing column {column!r}")
        user_id = str(row[schema.user_id_column])
        arm = str(row[schema.arm_column])
        if user_id in arm_of:
            raise IntegrityError(
                f"user {user_id!r} appears in arms {arm_of[user_id]!r} and {arm!r}")
        arm_of[user_id] = arm
        for values, c in zip(features, schema.feature_columns):
            values.append(_parse_number(row[c], c, row_idx))
        for values, c in zip(outcomes, schema.metric_columns):
            values.append(_parse_number(row[c], c, row_idx))
        if days is not None:
            days.append(int(_parse_number(row[schema.day_column],
                                          schema.day_column, row_idx)))
            if not -2**63 <= days[-1] < 2**63:  # OverflowError at the end before
                raise RowIngestError(row_idx, f"day value {row[schema.day_column]!r} "
                                              f"in column {schema.day_column!r} "
                                              f"does not fit int64")
    treatments = sorted(set(arm_of.values()) - {schema.control_action})
    actions = (schema.control_action, *treatments)
    return ExperimentDataset(
        experiment_id=schema.experiment_id, user_ids=list(arm_of),
        arm_codes=[actions.index(arm) for arm in arm_of.values()],
        feature_matrix=features, outcome_matrix=outcomes, days=days,
        actions=actions, control_action=schema.control_action,
        metrics=schema.metric_columns, features=schema.feature_columns,
        lift_units=schema.lift_units)


def _bad_snapshot_row(row_idx, row, pick, n_columns):
    try:
        _, _, raw, label = pick(row)
    except IndexError:
        return RowIngestError(row_idx, f"expected {n_columns} fields, got {len(row)}")
    try:
        float(raw)
    except ValueError:
        return RowIngestError(row_idx, f"non-numeric value {raw!r}")
    return RowIngestError(row_idx, f"snapshot label {label!r} is not one of "
                                   f"{SNAPSHOT_LABELS}")


def reference_load_snapshots(path):
    label_codes = {label: k for k, label in enumerate(SNAPSHOT_LABELS)}
    user_codes, feature_codes = {}, {}
    users, groups, values = array("q"), array("q"), array("d")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_without_comments(fh))
        header = next(reader, [])
        for column in SNAPSHOT_COLUMNS:
            if column not in header:  # ValueError("snapshot file is ...") before
                raise SchemaError(f"input is missing declared column {column!r}")
        pick = itemgetter(*(header.index(column) for column in SNAPSHOT_COLUMNS))
        last_feature, offset = None, 0
        for row in filter(None, reader):
            try:
                user, feature, raw, label = pick(row)
                value = float(raw)
                snapshot = label_codes[label]
            except (IndexError, ValueError, KeyError):
                raise _bad_snapshot_row(len(values) + 1, row, pick,
                                        len(header)) from None
            if feature != last_feature:
                offset = 2 * feature_codes.setdefault(feature, len(feature_codes))
                last_feature = feature
            groups.append(offset + snapshot)
            values.append(value)
            users.append(user_codes.setdefault(user, len(user_codes)))
    if not values:
        return {}
    non_finite = np.flatnonzero(~np.isfinite(np.frombuffer(values, dtype=float)))
    if non_finite.size:
        row = int(non_finite[0])
        raise RowIngestError(row + 1, f"non-finite value {values[row]}")
    ids = np.array(list(user_codes), dtype=str)
    by_id = np.argsort(ids, kind="stable")
    rank = np.empty(ids.size, dtype=np.int64)
    rank[by_id] = np.arange(ids.size)
    ids = ids[by_id]
    key = np.frombuffer(groups, dtype=np.int64) * ids.size \
        + rank[np.frombuffer(users, dtype=np.int64)]
    order = np.argsort(key)
    key = key[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        group, user = divmod(int(key[repeated[0]]), ids.size)
        raise IntegrityError(
            f"user {str(ids[user])!r} has more than one "
            f"{SNAPSHOT_LABELS[group % 2]} value for feature "
            f"{list(feature_codes)[group // 2]!r}")
    group, user_rank = np.divmod(key, ids.size)
    value = np.frombuffer(values, dtype=float)[order]
    bounds = np.searchsorted(group, np.arange(2 * len(feature_codes) + 1))
    pairs = {}
    for code, feature in enumerate(feature_codes):
        t0 = slice(bounds[2 * code], bounds[2 * code + 1])
        t1 = slice(bounds[2 * code + 1], bounds[2 * code + 2])
        common, i0, i1 = np.intersect1d(user_rank[t0], user_rank[t1],
                                        assume_unique=True, return_indices=True)
        pairs[feature] = FeatureSnapshotPair(
            feature=feature, user_ids=ids[common],
            t0=value[t0][i0], t1=value[t1][i1])
    return pairs


# -- generated files ----------------------------------------------------------

_TEXT = st.text(alphabet=st.sampled_from(list('ab,"\n\r#é \x00\x1c\t')), max_size=5)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 30).map(str),
    st.sampled_from(["nan", "inf", "-Infinity", "1_000", "", " 2.5 ", "١٢",
                     "oops", "-0", "1e400", "0x10", "\x1c1", "1\x00", "\t2"]))


@st.composite
def csv_files(draw, columns, row_values, prose):
    """CSV text whose records come from `row_values`, with comment lines,
    blank lines, short rows and extra fields between and within them."""
    records = []
    for values in draw(st.lists(row_values, max_size=14)):
        if draw(st.integers(0, 11)) == 0:
            records.append(values[:draw(st.integers(0, len(values) - 1))])
        else:
            records.append(values + draw(st.lists(prose, max_size=2)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator=newline)
    for k, fields in enumerate([columns, *records]):
        for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
            out.write(draw(st.sampled_from(
                ["# note\n", "#x,y\r\n", "\n", "\r\n", "   \n"] if k else
                ["# header\n"] * 4 + ["\n"])))
        writer.writerow(fields)
    return out.getvalue()


def _ingest_values():
    return st.tuples(
        st.integers(0, 40).map(lambda u: f"u{u}") | st.sampled_from(['u,1', 'u"2']),
        st.sampled_from(["control", "t1", "t2", "t 3"]),
        _NUMBER, _NUMBER, _NUMBER,
        st.integers(0, 13).map(str) | st.sampled_from(["2.7", "-1.5", "x"]),
        _TEXT).map(list)


def _snapshot_values():
    return st.tuples(
        st.integers(0, 6).map(lambda u: f"u{u}"),
        st.sampled_from(["f1", "f2", "f,3"]),
        _NUMBER.filter(lambda v: v not in ("", "x")),
        st.sampled_from(["t0", "t1"] * 12 + ["t2", " t0"]),
        _TEXT).map(list)


def _outcome(load, path):
    try:
        return "ok", load(path)
    except (SchemaError, RowIngestError, IntegrityError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_dataset(got, want):
    for name in ("actions", "metrics", "features"):
        assert getattr(got, name) == getattr(want, name)
    assert got.user_ids.tolist() == want.user_ids.tolist()
    for name in ("arm_codes", "feature_matrix", "outcome_matrix", "days"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_same_pairs(got, want):
    # The same pair per feature; features come in order of first
    # appearance, so a shuffled file may list them in another order.
    assert got.keys() == want.keys()
    for feature, pair in got.items():
        other = want[feature]
        assert pair.user_ids.tolist() == other.user_ids.tolist()
        assert pair.t0.tobytes() == other.t0.tobytes()
        assert pair.t1.tobytes() == other.t1.tobytes()


_HYPOTHESIS = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


def _small_blocks():
    return mock.patch.object(ingest_module, "_BLOCK_ROWS", 3)


@_HYPOTHESIS
@given(text=csv_files(HEADER, _ingest_values(), _TEXT))
def test_ingest_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with _small_blocks():
        got = _outcome(lambda p: ingest(p, SCHEMA), path)
    want = _outcome(lambda p: reference_ingest(p, SCHEMA), path)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _assert_same_dataset(got[1], want[1])
    else:
        assert got[1] == want[1]


_JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=False), _NUMBER, st.just([1]))


@_HYPOTHESIS
@given(rows=st.lists(st.dictionaries(st.sampled_from(HEADER[:6]), _JSON_VALUE,
                                     min_size=5), min_size=1, max_size=10),
       ids=st.lists(st.integers(0, 12), min_size=10, max_size=10),
       blank=st.integers(0, 10))
@example(rows=[{"uid": 1, "group": [1], "age": 1, "spend": 1, "clicks": 1, "day": 1}],
         ids=[0] * 10, blank=0)
@example(rows=[{"uid": 1, "group": "t1", "age": 1, "spend": 1, "clicks": 1,
                "day": 2.0 ** 63}], ids=[0] * 10, blank=0)
def test_ingest_jsonl_matches_per_row_reference(tmp_path_factory, rows, ids, blank):
    # Missing keys, nulls, bools, numbers as text, and a repeated user.
    rows[0] = {key: rows[0].get(key, 1) for key in HEADER[:6]}
    lines = []
    for row, uid in zip(rows, ids):
        if "uid" in row:
            row["uid"] = f"u{uid}"
        lines.append(json.dumps(row))
    lines.insert(blank % (len(lines) + 1), "   ")
    path = tmp_path_factory.mktemp("ingest") / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with _small_blocks():
        got = _outcome(lambda p: ingest(p, SCHEMA), path)
    want = _outcome(lambda p: reference_ingest(p, SCHEMA), path)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _assert_same_dataset(got[1], want[1])
    else:
        assert got[1] == want[1]


@_HYPOTHESIS
@given(text=csv_files(["note", "snapshot", "value", "user_id", "feature_id"],
                      _snapshot_values().map(lambda v: [v[4], v[3], v[2], v[0], v[1]]),
                      _TEXT))
def test_load_snapshots_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("snapshots") / "snapshots.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with _small_blocks():
        got = _outcome(load_snapshots, path)
    want = _outcome(reference_load_snapshots, path)
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    assert list(got[1]) == list(want[1])
    for feature, pair in got[1].items():
        other = want[1][feature]
        assert pair.user_ids.tolist() == other.user_ids.tolist()
        assert pair.t0.tobytes() == other.t0.tobytes()
        assert pair.t1.tobytes() == other.t1.tobytes()


def test_errors_in_later_blocks_name_the_first_bad_row(tmp_path):
    # A repeated user and a bad label several blocks into the file.
    rows = [f"u{i},control,{i},1.0,2.0,{i % 14},x" for i in range(20)]
    path = tmp_path / "data.csv"
    for tail in (["u3,t1,1,1,1,1,x"], ["u3,t1,1,1,1,1,x", "u30,t1,oops,1,1,1,x"]):
        path.write_text("\n".join([",".join(HEADER), *rows, *tail]) + "\n")
        with _small_blocks():
            with pytest.raises(IntegrityError,
                               match="user 'u3' appears in arms 'control' and 't1'"):
                ingest(path, SCHEMA)
    snapshots = tmp_path / "snapshots.csv"
    snapshots.write_text("\n".join(["user_id,feature_id,value,snapshot",
                                    *(f"u{i},f1,{i},t0" for i in range(10)),
                                    "u1,f1,1,t9", "u2,f1,nan,t1"]) + "\n")
    with _small_blocks():
        with pytest.raises(RowIngestError, match="row 11: snapshot label 't9'"):
            load_snapshots(snapshots)


def test_lines_starting_with_hash_inside_quoted_fields_are_data(tmp_path):
    # They used to be dropped as comments. A quote inside an unquoted field
    # is text and opens nothing, so the comment after it is still one.
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER) + '\n# note\n'
                    '"u\n#1",control,1,2,3,4,"x\r\n#y"\n'
                    'u2,t1,1,2,3,4,a"b\n# comment\n'
                    '"u3",t1,1,2,3,4,"c""\r#d"""\n#\n', newline="")
    ds = ingest(path, SCHEMA)
    assert ds.user_ids.tolist() == ["u\n#1", "u2", "u3"]
    _assert_same_dataset(ds, reference_ingest(path, SCHEMA))


def test_short_row_without_arm_is_rejected(tmp_path):
    # Lacking only a text column, the row used to load with the arm "None".
    path = tmp_path / "data.csv"
    path.write_text("uid,age,spend,clicks,day,group\nu1,1,2,3,4,control\n"
                    "u2,1,2,3,4\n")
    with pytest.raises(RowIngestError, match="row 2: expected 6 fields, got 5"):
        ingest(path, SCHEMA)


def test_ids_equal_as_numpy_strings_are_repeats(tmp_path):
    # numpy strings drop trailing NULs, so "u1" and "u1\x00" are one id in
    # the sorted columns, though Python sees two users.
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER) + "\nu1,control,1,2,3,4,x\n"
                    "u1\x00,t1,1,2,3,4,x\n", encoding="utf-8")
    want = _outcome(lambda p: reference_ingest(p, SCHEMA), path)
    assert want == (IntegrityError, "user 'u1' appears more than once")
    assert _outcome(lambda p: ingest(p, SCHEMA), path) == want
    snapshots = tmp_path / "snapshots.csv"
    snapshots.write_text("user_id,feature_id,value,snapshot\nu1,f1,1,t0\n"
                         "u1\x00,f1,2,t0\nu1,f1,3,t1\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match="user 'u1' has more than one t0 "
                                             "value for feature 'f1'"):
        load_snapshots(snapshots)


def _snapshot_rows(users, feature, label, start):
    return [f"{user},{feature},{start + k}.5,{label}" for k, user in enumerate(users)]


_TEN = [f"u{i}" for i in range(10)]  # in id order

SNAPSHOT_FILES = {
    # Both snapshots hold the same users in id order: paired without a sort.
    "aligned": [*_snapshot_rows(_TEN, "f1", "t0", 0),
                *_snapshot_rows(_TEN, "f1", "t1", 10),
                *_snapshot_rows(_TEN, "f2", "t0", 20),
                *_snapshot_rows(_TEN, "f2", "t1", 30)],
    # Sorted, but u4 has no t1 value, so the users are intersected.
    "missing_at_t1": [*_snapshot_rows(_TEN, "f1", "t0", 0),
                      *_snapshot_rows(_TEN[:4] + _TEN[5:], "f1", "t1", 10),
                      *_snapshot_rows(_TEN, "f2", "t0", 20),
                      *_snapshot_rows(_TEN, "f2", "t1", 30)],
    # In numeric order u10 follows u9; in id order it precedes u2.
    "numeric_order": [*_snapshot_rows([f"u{i}" for i in range(8, 12)], "f1", "t0", 0),
                      *_snapshot_rows([f"u{i}" for i in range(1, 12)], "f1", "t1", 10)],
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_FILES))
def test_snapshot_pairs_do_not_depend_on_row_order(tmp_path, name):
    rows = SNAPSHOT_FILES[name]
    path, shuffled = tmp_path / "snapshots.csv", tmp_path / "shuffled.csv"
    header = "user_id,feature_id,value,snapshot"
    path.write_text("\n".join([header, *rows]) + "\n")
    order = np.random.default_rng(len(rows)).permutation(len(rows))
    shuffled.write_text("\n".join([header, *(rows[k] for k in order)]) + "\n")
    with _small_blocks():
        pairs = load_snapshots(path)
        _assert_same_pairs(load_snapshots(shuffled), pairs)
    want = reference_load_snapshots(path)
    assert list(pairs) == list(want)
    _assert_same_pairs(pairs, want)
    assert all(pair.user_ids.size for pair in pairs.values())


def test_repeat_inside_a_sorted_snapshot_is_rejected(tmp_path):
    # All other neighbours are in increasing order, so only a strict order
    # check sends this snapshot to the repeat search.
    rows = _snapshot_rows(["u0", "u1", "u1", "u2"], "f1", "t0", 0) \
        + _snapshot_rows(["u0", "u1", "u2"], "f1", "t1", 10)
    header = "user_id,feature_id,value,snapshot"
    order = np.random.default_rng(3).permutation(len(rows))
    for text in ([header, *rows], [header, *(rows[k] for k in order)]):
        path = tmp_path / "snapshots.csv"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(IntegrityError, match="user 'u1' has more than one t0 "
                                                 "value for feature 'f1'"):
            load_snapshots(path)


@st.composite
def snapshot_exports(draw):
    """Snapshot rows (user, feature, value, label), one per (user, feature,
    label), laid out as an export writes them or close to it. Each
    feature's t1 users repeat its t0 users in t0's order, apart from a few
    edits: a user dropped or added at t1, or two neighbouring rows swapped.
    The (feature, label) runs of rows follow one another, t0 before t1, or
    are interleaved row by row."""
    runs = []
    for feature in draw(st.lists(st.sampled_from(["f1", "f2", "f3"]), min_size=1,
                                 max_size=3, unique=True)):
        t0 = draw(st.lists(st.integers(0, 12), max_size=12, unique=True))
        if draw(st.booleans()):
            t0.sort()  # numeric order, which is not id order from u10 on
        t1 = list(t0)
        for edit in draw(st.lists(st.sampled_from(["drop", "add", "swap"]), max_size=3)):
            if edit == "drop" and t1:
                del t1[draw(st.integers(0, len(t1) - 1))]
            elif edit == "add":
                user = draw(st.integers(0, 15))
                if user not in t1:
                    t1.insert(draw(st.integers(0, len(t1))), user)
            elif edit == "swap" and len(t1) >= 2:
                k = draw(st.integers(0, len(t1) - 2))
                t1[k], t1[k + 1] = t1[k + 1], t1[k]
        for label, users in (("t0", t0), ("t1", t1)):
            runs.append([(f"u{user}", feature,
                          draw(st.floats(-1e3, 1e3, allow_nan=False)), label)
                         for user in users])
    if draw(st.booleans()):
        return [row for run in runs for row in run]
    order = draw(st.permutations([k for k, run in enumerate(runs) for _ in run]))
    rows = [iter(run) for run in runs]
    return [next(rows[k]) for k in order]


def dict_reference_snapshots(rows):
    # Each (user, feature, label)'s value in a dict; each feature's pair
    # holds the users of both its snapshots, in id order.
    value = {(user, feature, label): v for user, feature, v, label in rows}
    pairs = {}
    for feature in dict.fromkeys(feature for _, feature, _, _ in rows):
        users = [{user for user, f, label in value if (f, label) == (feature, t)}
                 for t in SNAPSHOT_LABELS]
        common = sorted(users[0] & users[1])
        pairs[feature] = FeatureSnapshotPair(
            feature=feature, user_ids=np.array(common, dtype=str),
            t0=[value[user, feature, "t0"] for user in common],
            t1=[value[user, feature, "t1"] for user in common])
    return pairs


@pytest.mark.parametrize("block_rows", [1, 2, None])
@_HYPOTHESIS
@given(rows=snapshot_exports())
def test_snapshot_pairs_equal_a_dict_of_rows(tmp_path_factory, block_rows, rows):
    # A t1 block that repeats its feature's t0 ids at the same row offset
    # shares them; every other block keeps its own, wherever the blocks
    # split the file.
    path = tmp_path_factory.mktemp("snapshots") / "snapshots.csv"
    path.write_text("user_id,feature_id,value,snapshot\n" + "".join(
        f"{user},{feature},{v!r},{label}\n" for user, feature, v, label in rows))
    with mock.patch.object(ingest_module, "_BLOCK_ROWS",
                           block_rows or ingest_module._BLOCK_ROWS):
        pairs = load_snapshots(path)
    want = dict_reference_snapshots(rows)
    assert list(pairs) == list(want)
    _assert_same_pairs(pairs, want)


def test_ingest_drops_a_byte_order_mark(tmp_path):
    # Spreadsheets save CSV as UTF-8 with a byte-order mark, which used to
    # stick to the first column's name.
    text = "\n".join([",".join(HEADER), "u1,control,1,2,3,4,x", "u2,t1,5,6,7,8,y"]) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfuid,")
    _assert_same_dataset(ingest(marked, SCHEMA), ingest(plain, SCHEMA))


def test_load_snapshots_drops_a_byte_order_mark(tmp_path):
    text = "\n".join(["user_id,feature_id,value,snapshot",
                      *_snapshot_rows(_TEN, "f1", "t0", 0),
                      *_snapshot_rows(_TEN, "f1", "t1", 10)]) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfuser_id,")
    _assert_same_pairs(load_snapshots(marked), load_snapshots(plain))


def test_block_failure_without_a_bad_row_is_not_an_input_error(tmp_path):
    # Should the row checks ever miss what failed a block, the loader says
    # so rather than pass on the block's own message.
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER) + "\nu1,control,oops,2,3,4,x\n")
    with mock.patch.object(ingest_module, "_raise_first_bad_row", lambda *args: None):
        with pytest.raises(IntegrityError, match="a block failed to parse .* but "
                                                 "no row did"):
            ingest(path, SCHEMA)


# -- typed blocks -------------------------------------------------------------

KEYS = ["policy_id", "feature", "cut", "actions"]
VALUES = ["m1_mean", "m1_std_err"]
# Text cells: mostly plain, some quoted (a comma, a quote, a newline, a
# `#` line inside quotes), and some that would be cut at a narrow width.
_KEY_TEXT = st.one_of(st.text(alphabet="ab1 é#", max_size=4),
                      st.sampled_from(["a,b", 'x"y', "l\nm", "p\n#q", "",
                                       "w" * 40, "v" * 300]))
# Cells that numpy and float() both parse, and those that only float()
# parses (`1_0`, `١`) or neither does.
_CELL = st.one_of(
    st.floats(allow_nan=False).map(repr), st.integers(-5, 30).map(str),
    st.sampled_from(["1_0", "١", " 1.5 ", "nan", "-inf", "1e400", "0x1", "",
                     "1.5\x1c", "oops", "-0"]))


@st.composite
def policy_table_files(draw):
    """A policy table CSV: comment and blank lines between the rows, LF,
    CRLF or CR line ends, a byte-order mark or not, and now and then a
    short row or an extra field."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(KEYS + VALUES + ["note"])
    for _ in range(draw(st.integers(0, 9))):
        for _ in range(draw(st.integers(0, 1)) if draw(st.integers(0, 4)) == 0 else 0):
            out.write(draw(st.sampled_from(["# note", "", "#x,1"])) + newline)
        row = [*(draw(_KEY_TEXT) for _ in KEYS), draw(_CELL), draw(_CELL)]
        if draw(st.integers(0, 11)) == 0:
            row = row[:draw(st.integers(1, len(row) - 1))]
        writer.writerow(row + draw(st.lists(st.just("x"), max_size=1)))
    return draw(st.booleans()), out.getvalue()


def _object_path(path):
    """The cells of every row as one row-by-row text parse reads them, with
    the numbers through float(), or the first row that is short or holds a
    number float() rejects."""
    rows = []
    for row, cells, short in csv_rows(path, KEYS + VALUES):
        if short is not None:
            return "bad", row
        try:
            rows.append(cells[:len(KEYS)] + [float(cell) for cell in cells[len(KEYS):]])
        except ValueError:
            return "bad", row
    return "ok", rows


def _block_path(path):
    try:
        blocks = list(csv_blocks(path, KEYS, VALUES))
    except ValueError:
        return "bad", None
    return "ok", [[*map(str, cells), *values] for text, numbers in blocks
                  for cells, values in zip(zip(*(c.tolist() for c in text)),
                                           numbers.tolist())]


@_HYPOTHESIS
@given(file=policy_table_files(), block_rows=st.sampled_from([1, 2, None]))
@example(file=(False, "policy_id,feature,cut,actions,m1_mean,m1_std_err,note\n"
                      ",,,,0.0,-1.0\n,,,,0.0,0.0\n"), block_rows=1)
def test_typed_blocks_equal_the_text_parse(tmp_path_factory, file, block_rows):
    # Every chunk boundary at 1 or 2 rows, or the whole file in one chunk.
    bom, text = file
    path = tmp_path_factory.mktemp("typed") / "policy_table.csv"
    path.write_text(text, encoding="utf-8-sig" if bom else "utf-8", newline="")
    rows = block_rows or ingest_module._BLOCK_ROWS
    with mock.patch.object(ingest_module, "_BLOCK_ROWS", rows):
        got = _block_path(path)
    want = _object_path(path)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert [row[:len(KEYS)] for row in got[1]] == [row[:len(KEYS)] for row in want[1]]
        assert np.array([row[len(KEYS):] for row in got[1]]).tobytes() == \
            np.array([row[len(KEYS):] for row in want[1]]).tobytes()
    # The loader names the first row that is short or holds a number that
    # is missing, non-numeric or non-finite.
    first_bad = next((row for row, cells, short in csv_rows(path, KEYS + VALUES)
                      if short is not None or not all(
                          _finite(cell) for cell in cells[len(KEYS):])), None)
    # Then the first row whose policy id an earlier row holds, and then
    # every row's std_err.
    ids = [row[0] for row in want[1]] if first_bad is None else []
    repeat = next((row for row, pid in enumerate(ids, 1) if pid in ids[:row - 1]),
                  None)
    with mock.patch.object(ingest_module, "_BLOCK_ROWS", rows):
        if first_bad is None and repeat is not None:
            with pytest.raises(RowIngestError, match="is listed more than once") as raised:
                load_policy_table(path)
            assert raised.value.row == repeat
        elif first_bad is None and any(row[-1] < 0 for row in want[1]):
            with pytest.raises(ValueError, match="std_err finite and >= 0"):
                load_policy_table(path)
        elif first_bad is None:
            table, _ = load_policy_table(path)
            assert len(table) == len(want[1])
        else:
            with pytest.raises(RowIngestError) as raised:
                load_policy_table(path)
            assert raised.value.row == first_bad


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def test_a_cell_only_float_parses_sends_its_chunk_to_the_text_parse(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER) + "\nu1,control,1_0,2,3,4,x\n"
                    "u2,t1,\u0661,2,3,4,y\nu3,t1, 1.5 ,2,3,4,z\n", encoding="utf-8")
    with _small_blocks():
        ds = ingest(path, SCHEMA)
    assert ds.feature_matrix[0].tolist() == [10.0, 1.0, 1.5]
    _assert_same_dataset(ds, reference_ingest(path, SCHEMA))


def test_a_separator_beside_a_number_is_rejected(tmp_path):
    # numpy's number parser skips \x1c as whitespace; float() rejects it.
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER) + "\nu1,control,1.5\x1c,2,3,4,x\n",
                    encoding="utf-8")
    with pytest.raises(RowIngestError, match=r"row 1: non-numeric value '1\.5\\x1c'"):
        ingest(path, SCHEMA)


def test_long_text_cells_are_not_cut(tmp_path):
    # Longer than the first str width, the chunk is parsed again wider; past
    # the widest str field, it is parsed as text.
    users = [f"u{i}" + "x" * (3 * i) for i in range(12)] + ["u" + "y" * 300]
    path = tmp_path / "data.csv"
    path.write_text("\n".join([",".join(HEADER), *(f"{u},control,{i},2,3,4,"
                                                   for i, u in enumerate(users))]) + "\n")
    with _small_blocks():
        assert sorted(ingest(path, SCHEMA).user_ids.tolist()) == sorted(users)


def test_a_chunk_too_wide_for_typed_text_sends_the_rest_to_the_text_parse(tmp_path):
    # Ids that fill the first str width on lines longer than the widest
    # field: the first chunk's typed parse gives up, and no later chunk
    # tries again.
    users = [f"u{i:039d}" for i in range(12)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join([",".join(HEADER),
                               *(f"{u},control,{i},2,3,4,{'n' * 250}"
                                 for i, u in enumerate(users))]) + "\n")
    typed = mock.Mock(wraps=ingest_module._typed_block)
    with _small_blocks(), mock.patch.object(ingest_module, "_typed_block", typed):
        assert ingest(path, SCHEMA).user_ids.tolist() == users
    assert typed.call_count == 1


def test_a_comment_line_in_an_unquoted_chunk_stays_typed(tmp_path):
    # Every line of a chunk without a quote starts a record, so the chunk
    # drops its comment line and still parses typed, as the chunks after it do.
    rows = [f"u{i},control,{i},2,3,{i % 4},x" for i in range(10)]
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("\n".join([",".join(HEADER), *rows]) + "\n")
    commented.write_text("\n".join([",".join(HEADER), *rows[:5], "# note",
                                    *rows[5:]]) + "\n")
    with _small_blocks():
        want = list(csv_blocks(plain, HEADER[:2], HEADER[2:6]))
        got = list(csv_blocks(commented, HEADER[:2], HEADER[2:6]))
    assert all(column.dtype.kind == "U" for text, _ in got for column in text)
    for j in range(2):
        assert np.concatenate([text[j] for text, _ in got]).tolist() == \
            np.concatenate([text[j] for text, _ in want]).tolist()
    assert np.concatenate([numbers for _, numbers in got]).tobytes() == \
        np.concatenate([numbers for _, numbers in want]).tobytes()


@pytest.mark.parametrize("loader, header, row", [
    (lambda p: ingest(p, SCHEMA), HEADER, "u{},control,1,2,3,4,{}"),
    (load_snapshots, ["user_id", "feature_id", "value", "snapshot", "note"],
     "u{},f1,1,t0,{}"),
    (lambda p: load_policy_table(p), KEYS + VALUES + ["note"], "p{},f,c,a,1,2,{}"),
])
def test_a_cell_over_the_field_size_limit_names_its_row(tmp_path, loader, header, row):
    # csv.reader refuses a cell longer than csv.field_size_limit(), quoted
    # or not, and in a column no loader requests too; the loaders name its
    # data row, and the process-wide limit is left as it is.
    limit = csv.field_size_limit()
    path = tmp_path / "data.csv"
    for long_cell in ["n" * (limit + 1), '"' + "n" * (limit + 1) + '"']:
        path.write_text("\n".join([",".join(header), row.format(1, "x"),
                                   row.format(2, long_cell), row.format(3, "x")]) + "\n")
        with pytest.raises(RowIngestError, match=f"row 2: field larger than field "
                                                 f"limit \\({limit}\\)"):
            loader(path)
        path.write_text(",".join(header) + "," + long_cell + "\n")
        with pytest.raises(SchemaError, match="input header: field larger than field"):
            loader(path)
    assert csv.field_size_limit() == limit


def test_ingest_command_fails_on_a_cell_over_the_field_size_limit(tmp_path, capsys):
    path, schema = tmp_path / "data.csv", tmp_path / "schema.json"
    path.write_text(",".join(HEADER) + "\nu1,control,1,2,3,4,\""
                    + "n" * (csv.field_size_limit() + 1) + "\"\n")
    schema.write_text(json.dumps({"user_id": "uid", "arm": "group",
                                  "features": ["age"], "metrics": ["spend", "clicks"],
                                  "day": "day"}))
    assert main(["ingest", "--data", str(path), "--schema", str(schema),
                 "--out", str(tmp_path / "out")]) == 1
    assert "RowIngestError: row 1: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("loader, header, row", [
    (lambda p: ingest(p, SCHEMA), HEADER + ["age"], "u1,control,1,2,3,4,x,5"),
    (load_snapshots, ["user_id", "feature_id", "value", "snapshot", "value"],
     "u1,f1,1,t0,2"),
    (lambda p: load_policy_table(p), KEYS + VALUES + ["m1_mean"], "p,f,c,a,1,2,3"),
])
def test_a_requested_column_named_twice_is_rejected(tmp_path, loader, header, row):
    # The loaders used to read the first copy and ignore the second.
    path = tmp_path / "data.csv"
    path.write_text(",".join(header) + "\n" + row + "\n")
    repeated = header[-1]
    with pytest.raises(SchemaError, match=f"input names column {repeated!r} more than once"):
        loader(path)


def test_a_repeated_column_no_loader_requests_is_allowed(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(",".join(HEADER + ["note"]) + "\nu1,control,1,2,3,4,x,y\n")
    assert ingest(path, SCHEMA).n_users == 1


# -- memory -------------------------------------------------------------------

STREAM_ROWS = 50_000
# Traced peaks in MB. At 50 000 rows the per-row loaders peaked at 24.7 MB
# (ingest) and 7.3 MB (snapshots); a parse that holds the whole file as
# Python str objects needs well over 20 MB for either file. The ingest
# bound leaves room for the output columns and their sorts, not for the
# file. The snapshot loader holds each column once, split by (feature,
# snapshot) as it streams, and sorts one snapshot at a time: 3.0 MB on
# the feature-ordered file below and 3.2 MB on its row-shuffled copy,
# where a whole-file sort of every row's id and group peaked at 8.6 MB.
# Since a t1 block shares the t0 ids it repeats, the feature-ordered file
# peaks at 1.9 MB.
INGEST_PEAK_MB = 16.0
SNAPSHOT_PEAK_MB = 5.0


def test_loaders_stream_large_files(tmp_path):
    rng = np.random.default_rng(5)
    ids = [f"user{i:06d}" for i in range(STREAM_ROWS)]
    numbers = rng.random((3, STREAM_ROWS)).tolist()
    data = tmp_path / "experiment.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(",".join(HEADER) + "\n")
        for i, uid in enumerate(ids):
            fh.write(f"{uid},{'control' if i % 2 else 't1'},{numbers[0][i]!r},"
                     f"{numbers[1][i]!r},{numbers[2][i]!r},{i % 14},\n")
    values = rng.random(STREAM_ROWS).tolist()
    quarter = STREAM_ROWS // 4
    rows = []
    for k in range(STREAM_ROWS):
        block, i = divmod(k, quarter)
        rows.append(f"{ids[i]},f{block // 2},{values[k]!r},t{block % 2}\n")
    snapshots = tmp_path / "snapshots.csv"
    shuffled = tmp_path / "shuffled.csv"
    for path, order in ((snapshots, range(STREAM_ROWS)),
                        (shuffled, rng.permutation(STREAM_ROWS))):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("user_id,feature_id,value,snapshot\n")
            fh.writelines(rows[k] for k in order)

    assert ingest(data, SCHEMA).n_users == STREAM_ROWS
    assert traced_peak_mb(lambda: ingest(data, SCHEMA)) < INGEST_PEAK_MB
    assert load_snapshots(snapshots)["f1"].user_ids.size == quarter
    assert traced_peak_mb(lambda: load_snapshots(snapshots)) < SNAPSHOT_PEAK_MB
    _assert_same_pairs(load_snapshots(shuffled), load_snapshots(snapshots))
    assert traced_peak_mb(lambda: load_snapshots(shuffled)) < SNAPSHOT_PEAK_MB


# A snapshot file shaped like a 14 000-user governed run's: 2 features, t0
# then t1 in id order, 3% of users redrawn at t1. Its 56 000 rows peaked at
# 7.1 MB when the loader sorted every row's id and group as one array, at
# 2.26 MB once each snapshot is held once and paired without a sort, and
# at 1.56 MB once t1 shares t0's ids.
DECAY_USERS = 14_000
DECAY_PEAK_MB = 1.6


def _write_decay_snapshots(path):
    rng = np.random.default_rng(14)
    ids = [f"u{i:05d}" for i in range(DECAY_USERS)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,feature_id,value,snapshot\n")
        for feature in ("f1", "f2"):
            t0 = rng.random(DECAY_USERS)
            t1 = t0.copy()
            movers = rng.choice(DECAY_USERS, size=420, replace=False)
            t1[movers] = rng.random(movers.size)
            for label, values in (("t0", t0), ("t1", t1)):
                fh.writelines(f"{uid},{feature},{value!r},{label}\n"
                              for uid, value in zip(ids, values.tolist()))


def test_sorted_snapshot_file_loads_under_its_memory_bound(tmp_path):
    path = tmp_path / "snapshots.csv"
    _write_decay_snapshots(path)
    pairs = load_snapshots(path)
    assert [pair.user_ids.size for pair in pairs.values()] == [DECAY_USERS] * 2
    assert traced_peak_mb(lambda: load_snapshots(path)) <= DECAY_PEAK_MB


# A 40 000-user conflict scenario, as conflict-40k synthesizes it. Its
# synthesis peaked at 6.65 MB while the dataset copied every column into id
# order, and at 3.92 MB once id-sorted columns are adopted as they are and
# the features are drawn as one matrix. The governed run peaked at 6.65 MB
# in synthesis, and at 4.91 MB once the snapshot pairs share the dataset's
# t0 rows and the cube builds its cell codes in place; it then peaks in the
# stability filter.
CONFLICT_USERS = 40_000
SYNTH_40K_PEAK_MB = 4.0
GOVERN_40K_PEAK_MB = 5.0


def test_synthesis_stays_under_its_memory_bound():
    scenario = conflict_scenario(seed=1, n_users=CONFLICT_USERS)
    # One untraced run first, so that one-off allocations do not count.
    assert generate_experiment(scenario)[0].n_users == CONFLICT_USERS
    assert traced_peak_mb(lambda: generate_experiment(scenario)) <= SYNTH_40K_PEAK_MB


def test_governed_run_stays_under_its_memory_bound():
    config = RunConfig(scenario=conflict_scenario(seed=1, n_users=CONFLICT_USERS),
                       seed=1)
    assert govern_pipeline(config).iterations >= 1
    assert traced_peak_mb(lambda: govern_pipeline(config)) <= GOVERN_40K_PEAK_MB


# `cohortpolicy synth` of the same scenario, which writes dataset.csv and
# snapshots.csv. It peaked at 33.8 MB while every column was staged as a
# Python list before `write_csv` (21.3 MB in `save_snapshots` alone), and at
# 13.9 MB once the writer takes the arrays and converts one block at a time
# (9.3 MB in `save_snapshots`).
SYNTH_COMMAND_40K_PEAK_MB = 14.0


def test_synth_command_stays_under_its_memory_bound(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(RunConfig(scenario=conflict_scenario(
        seed=1, n_users=CONFLICT_USERS)).to_json()["scenario"]))
    synth = ["synth", "--scenario", str(scenario), "--out", str(tmp_path / "synth")]
    assert main(synth) == 0
    assert (tmp_path / "synth" / "snapshots.csv").exists()
    assert traced_peak_mb(lambda: main(synth)) <= SYNTH_COMMAND_40K_PEAK_MB


# Benchmark synthesis at selector-bench's shape: 20 experiments of 2 000
# users, 3 features, 8 bins and a budget of 128 policies per cut. It
# peaked at 3.32-3.35 MB while a table was composed cut by cut, and at
# 3.31 MB with every cut of a table composed in one pass; 3.0 MB of that is
# the twenty finished tables.
BENCHMARK_PEAK_MB = 3.32


def test_benchmark_synthesis_stays_under_its_memory_bound():
    cfg = BenchmarkConfig(seed=5, n_experiments=20, n_users=2000, n_features=3,
                          n_metrics=2, n_actions=3, noise_sd=1.0, n_bins=8,
                          policy_budget=128)
    assert len(build_benchmark(cfg).policy_tables) == 20
    assert traced_peak_mb(lambda: build_benchmark(cfg)) <= BENCHMARK_PEAK_MB


# An experiment file shaped like decay-ingest-14k's: 14 000 users, 7 columns.
# Its traced peak was 2.53 MB before and after numbers and text parsed typed
# in C, while the dataset copied its id-sorted columns into id order, and
# 2.03 MB once it adopts them; the peak is the columns' concatenation, not
# the blocks.
INGEST_USERS = 14_000
INGEST_14K_PEAK_MB = 2.1
INGEST_14K_SCHEMA = IngestSchema(user_id_column="user_id", arm_column="arm",
                                 feature_columns=("f1", "f2"),
                                 metric_columns=("m1", "m2"),
                                 control_action="a0", day_column="day")


def _write_decay_experiment(path):
    rng = np.random.default_rng(14)
    f1 = rng.random(INGEST_USERS)
    numbers = [f1, f1 ** 2, rng.normal(size=INGEST_USERS), rng.normal(size=INGEST_USERS)]
    arms = rng.integers(0, 3, INGEST_USERS).tolist()
    days = rng.integers(0, 14, INGEST_USERS).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,arm,f1,f2,m1,m2,day\n")
        fh.writelines(f"u{i:05d},a{arm},{a!r},{b!r},{c!r},{d!r},{day}\n"
                      for i, (arm, day, a, b, c, d) in enumerate(
                          zip(arms, days, *(column.tolist() for column in numbers))))


def test_experiment_file_ingests_under_its_memory_bound(tmp_path):
    path = tmp_path / "experiment.csv"
    _write_decay_experiment(path)
    assert ingest(path, INGEST_14K_SCHEMA).n_users == INGEST_USERS
    assert traced_peak_mb(lambda: ingest(path, INGEST_14K_SCHEMA)) <= INGEST_14K_PEAK_MB


# A governed run on both decay-shaped files. It peaked at 3.27 MB while the
# snapshot file was loaded on top of the ingested dataset, and at 2.03 MB
# once the pairs are judged and released before the dataset is read; its
# peak is then `ingest`'s.
GOVERN_FILES_PEAK_MB = 2.1


def test_governed_file_run_stays_under_its_memory_bound(tmp_path):
    data, snapshots = tmp_path / "experiment.csv", tmp_path / "snapshots.csv"
    _write_decay_experiment(data)
    _write_decay_snapshots(snapshots)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"user_id": "user_id", "arm": "arm", "control": "a0",
                                  "features": ["f1", "f2"], "metrics": ["m1", "m2"],
                                  "day": "day"}))
    config = RunConfig(seed=1, dataset_path=str(data), schema_path=str(schema),
                       snapshots_path=str(snapshots))
    assert govern_pipeline(config).reports[0].narrative == "2 features admitted, 0 filtered out"
    assert traced_peak_mb(lambda: govern_pipeline(config)) <= GOVERN_FILES_PEAK_MB
