"""Every CSV artifact reads back cell for cell through `ingest.csv_blocks`.

Text cells come from names the package does not validate (experiment,
feature, metric, selector and user ids), so a writer must quote any cell
that the reader would otherwise split, end early or drop as a comment.
"""

from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortpolicy import cli
from cohortpolicy.evaluation import REPORT_COLUMNS, save_report
from cohortpolicy.experiment import ExperimentDataset, MetricEstimate
from cohortpolicy.frontier import FrontierResult, save_frontier_coords
from cohortpolicy.governance import (BacktestSeries, FeatureSnapshotPair,
                                     save_snapshots)
from cohortpolicy.ingest import csv_blocks, csv_header
from cohortpolicy.search import PolicyTable, save_policy_table

# Characters a CSV writer must take care of, plus plain ones.
TEXT = st.text(st.sampled_from(["a", "b", ",", '"', "\n", "\r", " ", "#", "é"]),
               min_size=1, max_size=4)
NUMBER = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300])


def read_back(path: Path) -> list[list[str]]:
    """The header and every data row of `path`, as `csv_blocks` reads them."""
    header = csv_header(path)
    rows = [list(row) for text, _ in csv_blocks(path, header)
            for row in zip(*(column.tolist() for column in text))]
    return [header, *rows]


def cells(values) -> list[str]:
    return [repr(float(v)) for v in values]


# -- policy table -------------------------------------------------------------


@st.composite
def policy_tables(draw):
    metrics = draw(st.lists(TEXT, min_size=1, max_size=2, unique=True))
    ids = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    n = len(ids)
    text = st.lists(TEXT, min_size=n, max_size=n)
    numbers = st.lists(st.lists(NUMBER, min_size=len(metrics), max_size=len(metrics)),
                       min_size=n, max_size=n)
    return PolicyTable(metrics, ids, draw(text), draw(text), draw(text),
                       draw(numbers), np.abs(draw(numbers)))


@settings(max_examples=60, deadline=None)
@given(policy_tables())
@example(PolicyTable(["m\r"], ["#p", "q\r"], ["#f", ""], ["c,1", "global"],
                     ["a\n#b", "a"], [[0.5], [-0.0]], [[0.1], [0.0]]))
def test_policy_table_reads_back(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("policies") / "policy_table.csv"
    save_policy_table(path, table)
    header = ["policy_id", "feature", "cut", "actions",
              *(f"{m}_{part}" for m in table.metrics for part in ("mean", "std_err"))]
    rows = [[pid, feature, cut, actions,
             *cells(np.stack([mean, std_err], axis=-1).ravel())]
            for pid, feature, cut, actions, mean, std_err in zip(
                table.ids, table.feature, table.cut, table.actions,
                table.mean, table.std_err)]
    assert read_back(path) == [header, *rows]


# -- snapshots ----------------------------------------------------------------


@st.composite
def snapshot_pairs(draw):
    pairs = {}
    for feature in draw(st.lists(TEXT, min_size=1, max_size=2, unique=True)):
        users = np.unique(np.array(draw(st.lists(TEXT, min_size=1, max_size=4)),
                                   dtype=str))
        values = st.lists(NUMBER, min_size=users.size, max_size=users.size)
        pairs[feature] = FeatureSnapshotPair(feature, users, draw(values), draw(values))
    return pairs


@settings(max_examples=60, deadline=None)
@given(snapshot_pairs())
@example({"f1": FeatureSnapshotPair("f1", ["#u1", "u2", "u3"],
                                    [1.0, 2.0, 3.0], [1.0, 2.5, 3.0])})
def test_snapshots_read_back(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("snapshots") / "snapshots.csv"
    save_snapshots(path, pairs)
    rows = [[user, feature, value, label]
            for feature in sorted(pairs)
            for label, values in (("t0", pairs[feature].t0), ("t1", pairs[feature].t1))
            for user, value in zip(pairs[feature].user_ids.tolist(), cells(values))]
    assert read_back(path) == [["user_id", "feature_id", "value", "snapshot"], *rows]


# -- backtest -----------------------------------------------------------------


@st.composite
def backtests(draw):
    metrics = draw(st.lists(TEXT, min_size=1, max_size=2, unique=True))
    days = draw(st.lists(TEXT, min_size=1, max_size=4))
    estimate = st.builds(MetricEstimate, NUMBER, NUMBER.map(abs))
    series = [st.lists(st.fixed_dictionaries({m: estimate for m in metrics}),
                       min_size=len(days), max_size=len(days))] * 2
    return BacktestSeries(days, draw(series[0]), draw(series[1])), metrics


# A conflict run whose experiment id is "" or "#x" names its days "#day<n>"
# and "#x#day<n>".
@settings(max_examples=60, deadline=None)
@given(backtests())
@example((BacktestSeries([f"#day{d}" for d in range(3)],
                         [{"m1": MetricEstimate(0.5, 0.1)}] * 3,
                         [{"m1": MetricEstimate(0.4, 0.1)}] * 3), ["m1"]))
@example((BacktestSeries([f"#x#day{d}" for d in range(3)],
                         [{"m1": MetricEstimate(0.5, 0.1)}] * 3,
                         [{"m1": MetricEstimate(0.4, 0.1)}] * 3), ["m1"]))
def test_backtest_reads_back(tmp_path_factory, case):
    series, metrics = case
    path = tmp_path_factory.mktemp("backtest") / "backtest.csv"
    series.save_csv(path, metrics)
    header = ["day", *(f"{m}_{part}" for m in metrics for part in (
        "daily_mean", "daily_std_err", "cum_mean", "cum_std_err"))]
    rows = [[day, *(cell for m in metrics for cell in cells(
        [daily[m].mean, daily[m].std_err, cum[m].mean, cum[m].std_err]))]
            for day, daily, cum in zip(series.days, series.daily, series.cumulative)]
    assert read_back(path) == [header, *rows]


# -- frontier coordinates -----------------------------------------------------


@st.composite
def frontiers(draw):
    table = draw(policy_tables().filter(lambda t: len(t.metrics) == 2))
    judged = draw(st.lists(st.sampled_from(table.ids), unique=True))
    admitted = sorted(judged[: len(judged) // 2 + 1])
    dominated_by = {pid: admitted[0] for pid in judged if pid not in admitted}
    return table, FrontierResult(admitted, dominated_by, 0.0)


@settings(max_examples=60, deadline=None)
@given(frontiers())
@example((PolicyTable(["m1", "m2"], ["#f.ind2.a0-a1", "f2.ind2.a1-a0"], ["#f", "f2"],
                      ["ind2", "ind2"], ["a0-a1", "a1-a0"], [[1.0, 0.5], [0.5, 1.0]],
                      [[0.1, 0.1], [0.1, 0.1]]),
          FrontierResult(["#f.ind2.a0-a1", "f2.ind2.a1-a0"], {}, 1.0)))
def test_frontier_coords_read_back(tmp_path_factory, case):
    table, result = case
    path = tmp_path_factory.mktemp("frontier") / "frontier_coords.csv"
    metric_pair = (table.metrics[0], table.metrics[1])
    save_frontier_coords(path, table, result, metric_pair)
    judged = set(result.admitted) | set(result.dominated_by)
    rows = [[pid, *cells(mean), str(int(pid in result.admitted))]
            for pid, mean in zip(table.ids, table.mean.tolist()) if pid in judged]
    header = ["policy_id", f"{metric_pair[0]}_mean", f"{metric_pair[1]}_mean", "admitted"]
    assert read_back(path) == [header, *rows]


# -- selector report ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(TEXT, st.fixed_dictionaries(
    {c: st.floats(-1.0, 1.0) for c in REPORT_COLUMNS}), min_size=1, max_size=3))
@example({"#s": dict.fromkeys(REPORT_COLUMNS, 1.0),
          "s": dict.fromkeys(REPORT_COLUMNS, 0.5)})
def test_report_reads_back(tmp_path_factory, report):
    folder = tmp_path_factory.mktemp("report")
    save_report(folder / "report.csv", folder / "report.txt", report)
    rows = [[name, *(f"{row[c]:.6f}" for c in REPORT_COLUMNS)]
            for name, row in report.items()]
    assert read_back(folder / "report.csv") == [["selector", *REPORT_COLUMNS], *rows]


# -- synthetic dataset --------------------------------------------------------

ACTION = st.text(st.sampled_from(["a", ",", '"', "\n", "\r", "#", " "]),
                 min_size=1, max_size=3)


@st.composite
def datasets(draw):
    users = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    actions = draw(st.lists(ACTION, min_size=1, max_size=3, unique=True))
    names = draw(st.lists(TEXT.filter(lambda t: t not in ("user_id", "arm", "day")),
                          min_size=2, max_size=3, unique=True))
    numbers = st.lists(NUMBER, min_size=len(users), max_size=len(users))
    return ExperimentDataset(
        experiment_id="e", user_ids=users,
        arm_codes=draw(st.lists(st.integers(0, len(actions) - 1),
                                min_size=len(users), max_size=len(users))),
        feature_matrix=[draw(numbers)], outcome_matrix=[draw(numbers) for _ in names[1:]],
        days=draw(st.none() | st.lists(st.integers(-5, 5), min_size=len(users),
                                       max_size=len(users))),
        actions=actions, control_action=actions[0],
        metrics=names[1:], features=names[:1])


@settings(max_examples=40, deadline=None)
@given(datasets())
@example(ExperimentDataset(experiment_id="e", user_ids=["#u1", "u,2"], arm_codes=[0, 1],
                           feature_matrix=[[1.0, 2.0]], outcome_matrix=[[0.5, -0.0]],
                           actions=("a0", "#a"), control_action="a0",
                           metrics=("m\r",), features=("f\n1",)))
def test_synth_dataset_reads_back(tmp_path_factory, ds):
    folder = tmp_path_factory.mktemp("synth")
    (folder / "scenario.json").write_text("{}")
    with mock.patch.object(cli, "generate_experiment", return_value=(ds, {})):
        assert cli.main(["synth", "--scenario", str(folder / "scenario.json"),
                         "--out", str(folder / "out")]) == 0
    header = ["user_id", "arm", *ds.features, *ds.metrics]
    columns = [ds.user_ids.tolist(), [ds.actions[c] for c in ds.arm_codes.tolist()],
               *map(cells, ds.feature_matrix), *map(cells, ds.outcome_matrix)]
    if ds.days is not None:
        header.append("day")
        columns.append([str(d) for d in ds.days.tolist()])
    assert read_back(folder / "out" / "dataset.csv") == [header, *map(list, zip(*columns))]
