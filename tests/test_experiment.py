import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortpolicy.errors import EstimationError, IntegrityError
from cohortpolicy.experiment import (ExperimentDataset, MetricEstimate,
                                     compute_ate, segment_hte)
from cohortpolicy.segmentation import Segment, materialize
from cohortpolicy.synth import ScenarioConfig, PlantedEffect, generate_experiment

from conftest import build_dataset, shuffled


def test_metric_estimate_rejects_negative_std_err():
    with pytest.raises(ValueError):
        MetricEstimate(mean=1.0, std_err=-0.1)


def test_metric_estimate_rejects_non_finite():
    with pytest.raises(ValueError):
        MetricEstimate(mean=float("nan"), std_err=0.1)


def _columns(**changes):
    # Three valid users, u2 listed first; `changes` replaces whole columns.
    columns = dict(user_ids=["u2", "u1", "u3"], arm_codes=[0, 1, 0],
                   feature_matrix=[[1.0, 2.0, 3.0]], outcome_matrix=[[0.0, 1.0, 2.0]],
                   days=[1, 0, 2])
    return {**columns, **changes}


def _dataset(**columns):
    return ExperimentDataset(experiment_id="x", actions=("control", "t1"),
                             control_action="control", metrics=("m1",),
                             features=("f1",), **columns)


def test_valid_columns_sorted_by_user_id():
    ds = _dataset(**_columns())
    assert ds.user_ids.tolist() == ["u1", "u2", "u3"]
    assert ds.arm_codes.tolist() == [1, 0, 0]
    assert ds.feature_values("f1").tolist() == [2.0, 1.0, 3.0]
    assert ds.outcome_values("m1").tolist() == [1.0, 0.0, 2.0]
    assert ds.days.tolist() == [0, 1, 2]


@pytest.mark.parametrize("changes, named", [
    ({"user_ids": ["u2", "u1", "u2"]}, "'u2' appears more than once"),
    ({"user_ids": ["u1", "u1", "u2"]}, "'u1' appears more than once"),
    ({"arm_codes": [0, 2, 0]}, "'u1' assigned to unknown arm"),
    ({"feature_matrix": [[1.0, 2.0, float("nan")]]}, "'u3' has non-finite feature 'f1'"),
    ({"outcome_matrix": [[0.0, float("inf"), 2.0]]}, "'u1' has non-finite outcome 'm1'"),
    ({"days": [0, 1]}, "column days"),
], ids=["duplicate-id", "sorted-duplicate-id", "unknown-arm", "non-finite-feature", "non-finite-outcome",
        "wrong-length"])
def test_invalid_columns_rejected(changes, named):
    with pytest.raises(IntegrityError, match=named):
        _dataset(**_columns(**changes))


_COLUMNS = ("user_ids", "arm_codes", "feature_matrix", "outcome_matrix", "days")


@st.composite
def _sorted_columns(draw):
    # Columns of 1-8 users with distinct ids, in id order, as the arrays
    # the constructor holds (intp arms, float matrices, int64 days).
    ids = np.unique(np.array(draw(st.lists(st.text("uv01", min_size=1, max_size=3),
                                           min_size=1, max_size=8, unique=True))))
    n = ids.size
    values = st.floats(-10, 10, allow_nan=False)
    return {"user_ids": ids,
            "arm_codes": np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                                max_size=n)), dtype=np.intp),
            "feature_matrix": np.array([draw(st.lists(values, min_size=n, max_size=n))]),
            "outcome_matrix": np.array([draw(st.lists(values, min_size=n, max_size=n))]),
            "days": np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                             dtype=np.int64)}


@settings(max_examples=60, deadline=None)
@given(_sorted_columns(), st.data())
def test_shuffled_rows_build_the_dataset_of_sorted_rows(columns, data):
    # Id-sorted columns are adopted as read-only views of the caller's
    # arrays; any other row order is sorted into new arrays. Both hold the
    # same columns.
    adopted = _dataset(**columns)
    order = np.array(data.draw(st.permutations(range(columns["user_ids"].size))),
                     dtype=np.intp)
    sorted_copy = _dataset(**{name: column[..., order]
                              for name, column in columns.items()})
    for name in _COLUMNS:
        given_column = columns[name]
        held, other = getattr(adopted, name), getattr(sorted_copy, name)
        assert np.shares_memory(held, given_column)
        assert given_column.flags.writeable
        assert held.dtype == other.dtype and held.shape == other.shape
        assert held.tobytes() == other.tobytes()
        assert not held.flags.writeable and not other.flags.writeable


@settings(max_examples=60, deadline=None)
@given(_sorted_columns(), st.data())
def test_a_repeated_id_is_rejected_in_any_row_order(columns, data):
    n = columns["user_ids"].size
    repeat = data.draw(st.integers(0, n - 1))
    rows = np.sort(np.append(np.arange(n), repeat))
    if data.draw(st.booleans()):
        rows = rows[data.draw(st.permutations(range(n + 1)))]
    with pytest.raises(IntegrityError, match="appears more than once"):
        _dataset(**{name: column[..., rows] for name, column in columns.items()})


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(st.integers(-20, 20), min_size=1, max_size=30),
                 st.lists(st.sampled_from([-7, 0, 3, 40, 41, 1000]), min_size=1,
                          max_size=30),
                 st.lists(_INT64, min_size=1, max_size=30),
                 st.tuples(_INT64, st.lists(st.integers(0, 60), min_size=1,
                                            max_size=30)).map(
                     lambda pair: [min(max(pair[0], -2 ** 63 + 60), 2 ** 63 - 61) + d
                                   for d in pair[1]])))
def test_day_codes_equal_unique(days):
    # Negative, sparse, wide-range and near-int64-limit labels: dense
    # spans are coded from a bincount and wide ones by np.unique, and both
    # give np.unique's labels and inverse.
    n = len(days)
    ds = ExperimentDataset(experiment_id="x", user_ids=[f"u{i:02d}" for i in range(n)],
                           arm_codes=[0] * n, feature_matrix=[[0.0] * n],
                           outcome_matrix=[[0.0] * n], days=days,
                           actions=("control",), control_action="control",
                           metrics=("m1",), features=("f1",))
    codes, labels = ds.day_codes()
    want_labels, want_codes = np.unique(np.array(days, dtype=np.int64),
                                        return_inverse=True)
    assert codes.dtype == want_codes.dtype
    assert codes.tolist() == want_codes.tolist()
    assert labels == want_labels.tolist()
    assert all(type(label) is int for label in labels)


def test_ate_identical_distributions_is_zero():
    ds = build_dataset([1, 2, 3, 4], ["t1", "t1", "control", "control"],
                       [1, 3, 1, 3])
    est = compute_ate(ds, "t1", "m1")
    assert est.mean == 0.0
    assert est.n_treated == 2 and est.n_control == 2


def test_ate_direct_arithmetic():
    # mean({2,4}) - mean({1,3}) = 3 - 2 = 1
    ds = build_dataset([1, 2, 3, 4], ["t1", "t1", "control", "control"],
                       [2, 4, 1, 3])
    est = compute_ate(ds, "t1", "m1")
    assert est.mean == pytest.approx(1.0)
    # unpooled std err with sample variances: var({2,4}) = var({1,3}) = 2
    assert est.std_err == pytest.approx(math.sqrt(2 / 2 + 2 / 2))


def test_ate_recovers_planted_constant_lift():
    cfg = ScenarioConfig(
        seed=99, n_users=1000, n_features=1, n_metrics=1, n_actions=1,
        noise_sd=1.0,
        planted_effects=(PlantedEffect("f1", 0.0, 1.0, "a1", "m1", 0.7),))
    ds, _ = generate_experiment(cfg)
    est = compute_ate(ds, "a1", "m1")
    assert abs(est.mean - 0.7) <= 3 * est.std_err


def test_ate_empty_arm_errors():
    ds = build_dataset([1, 2], ["t1", "t1"], [1, 2])
    with pytest.raises(EstimationError):
        compute_ate(ds, "t1", "m1")


def test_ate_unknown_action_errors():
    ds = build_dataset([1, 2], ["t1", "control"], [1, 2])
    with pytest.raises(ValueError):
        compute_ate(ds, "nope", "m1")


def test_segment_hte_full_population_equals_ate():
    rng = np.random.default_rng(3)
    values = rng.random(40)
    arms = (["t1", "t2", "control", "control"] * 10)
    outcomes = rng.normal(size=40)
    ds = build_dataset(values, arms, outcomes)
    segment = materialize(ds, None)[0]
    for action in ds.treatments:
        ate = compute_ate(ds, action, "m1")
        hte = segment_hte(ds, segment, action, "m1")
        assert hte == ate  # bit-identical, same reduction order


def test_segment_hte_direct_arithmetic():
    # treated in segment {5}, control in segment {2}
    ds = build_dataset([1, 1, 9, 9], ["t1", "control", "t1", "control"],
                       [5, 2, 100, 100])
    segment = Segment(feature="f1", lower=0.0, upper=2.0, size=2)
    est = segment_hte(ds, segment, "t1", "m1")
    assert est.mean == pytest.approx(3.0)


def test_segment_hte_no_control_errors():
    ds = build_dataset([1, 1, 9], ["t1", "t1", "control"], [5, 5, 2])
    segment = Segment(feature="f1", lower=0.0, upper=2.0, size=2)
    with pytest.raises(EstimationError):
        segment_hte(ds, segment, "t1", "m1")
    # A segment holding no users (a bin emptied by ties) has no estimate.
    empty = Segment(feature="f1", lower=2.0, upper=5.0, size=0)
    with pytest.raises(EstimationError, match=r"f1 in \(2.0, 5.0\]"):
        segment_hte(ds, empty, "t1", "m1")


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(11)
    values = rng.random(30)
    arms = ["t1" if i % 3 else "control" for i in range(30)]
    outcomes = rng.normal(size=30)
    ds = build_dataset(values, arms, outcomes)

    permuted = shuffled(ds, rng.permutation(30))
    assert compute_ate(ds, "t1", "m1") == compute_ate(permuted, "t1", "m1")


def test_constant_outcomes_give_zero_mean():
    # Every user's outcome equals the control-arm mean: estimates are ~0.
    ds = build_dataset([1, 2, 3, 4, 5, 6],
                       ["t1", "control"] * 3, [2.5] * 6)
    est = compute_ate(ds, "t1", "m1")
    assert abs(est.mean) < 1e-12
    assert est.std_err == 0.0


def test_daily_slices_from_labels():
    ds = ExperimentDataset(experiment_id="x", user_ids=[f"u{i}" for i in range(9)],
                           arm_codes=[0] * 9, feature_matrix=[list(range(9))],
                           outcome_matrix=[[0.0] * 9], days=[i % 3 for i in range(9)],
                           actions=("control",), control_action="control",
                           metrics=("m1",), features=("f1",))
    slices = ds.daily_slices()
    assert len(slices) == 3
    assert all(s.n_users == 3 for s in slices)
    assert [s.experiment_id for s in slices] == ["x#day0", "x#day1", "x#day2"]


def test_daily_slices_without_labels_chunks():
    # Id-order chunks are named chunks, not days.
    ds = build_dataset(range(10), ["control"] * 10, [0.0] * 10)
    slices = ds.daily_slices(4)
    assert len(slices) == 4
    assert sum(s.n_users for s in slices) == 10
    assert [s.experiment_id for s in slices] == [f"{ds.experiment_id}#chunk{k}"
                                                 for k in range(4)]
    with pytest.raises(ValueError):
        ds.daily_slices()
