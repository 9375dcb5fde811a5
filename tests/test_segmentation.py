import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import numpy as np

from cohortpolicy.experiment import ExperimentDataset
from cohortpolicy.governance import (BINARY_CUT, QUANTILE_CUT, FeatureSnapshotPair,
                                     shift_ratio)
from cohortpolicy.segmentation import (CutSpec, binary_split,
                                       cut_slot_codes, enumerate_cuts,
                                       individual_split, materialize, quantile,
                                       slot_codes, sort_values, sorted_boundaries)

from conftest import build_dataset, shuffled

NEG_INF = float("-inf")


def members(ds, cut):
    """Per slot, the row numbers of the users the cut's slot codes put there."""
    codes = cut_slot_codes(ds, cut)
    return [{int(i) for i in np.flatnonzero(codes == s)}
            for s in range(cut.slot_count)]


def individual(n_bins):
    return CutSpec(feature="f1", kind="individual", n_bins=n_bins)


def binary(i0, n_bins):
    return CutSpec(feature="f1", kind="binary", n_bins=n_bins, threshold_index=i0)


# -- quantile -------------------------------------------------------------------


def test_quantile_p0_is_neg_inf():
    assert quantile([3, 1, 2], 0.0) == NEG_INF


def test_quantile_nearest_rank_median():
    # ceil(0.5 * 8) = 4th sorted value
    assert quantile([1, 2, 3, 4, 5, 6, 7, 8], 0.5) == 4


def test_quantile_p1_is_max():
    assert quantile([1, 2, 3, 4, 5, 6, 7, 8], 1.0) == 8


def test_quantile_empty_errors():
    with pytest.raises(ValueError):
        quantile([], 0.5)


@pytest.mark.parametrize("p", [-0.1, 1.1])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        quantile([1, 2], p)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(0, 1), st.floats(0, 1))
def test_quantile_monotone(values, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert quantile(values, lo) <= quantile(values, hi)


def test_quantile_matches_nearest_rank_oracle(rng):
    values = rng.normal(size=37)
    for p in rng.random(20):
        expected = sorted(values)[math.ceil(p * 37) - 1] if p > 0 else NEG_INF
        assert quantile(values, float(p)) == expected


# -- individual split -------------------------------------------------------------


def test_individual_split_quartiles(eight_user_dataset):
    segments = individual_split(eight_user_dataset, "f1", 4)
    assert members(eight_user_dataset, individual(4)) == [
        {0, 1}, {2, 3}, {4, 5}, {6, 7}]
    assert [s.size for s in segments] == [2, 2, 2, 2]
    assert segments[0].lower == NEG_INF
    assert segments[0].upper == 2
    assert segments[3].upper == 8


def test_individual_split_single_bin(eight_user_dataset):
    segments = individual_split(eight_user_dataset, "f1", 1)
    assert len(segments) == 1
    assert segments[0].size == 8
    assert members(eight_user_dataset, individual(1)) == [set(range(8))]


def test_individual_split_all_ties():
    ds = build_dataset([5.0] * 8, ["t1", "control"] * 4, [0.0] * 8)
    segments = individual_split(ds, "f1", 4)
    assert len(segments) == 4
    assert segments[0].size == 8
    assert all(s.is_empty for s in segments[1:])
    assert members(ds, individual(4)) == [set(range(8)), set(), set(), set()]


def test_individual_split_unknown_feature(eight_user_dataset):
    with pytest.raises(ValueError):
        individual_split(eight_user_dataset, "nope", 4)


# -- binary split ------------------------------------------------------------------


def test_binary_split_first_quartile(eight_user_dataset):
    low, high = binary_split(eight_user_dataset, "f1", 1, 4)
    assert (low.size, high.size) == (2, 6)
    assert members(eight_user_dataset, binary(1, 4)) == [
        {0, 1}, {2, 3, 4, 5, 6, 7}]


def test_binary_split_top_index(eight_user_dataset):
    low, high = binary_split(eight_user_dataset, "f1", 3, 4)
    assert high.size == 2
    assert members(eight_user_dataset, binary(3, 4))[1] == {6, 7}


@pytest.mark.parametrize("i0", [0, 4, 5])
def test_binary_split_bad_index(eight_user_dataset, i0):
    with pytest.raises(ValueError):
        binary_split(eight_user_dataset, "f1", i0, 4)


def test_binary_matches_individual_union(rng):
    values = rng.normal(size=23)
    ds = build_dataset(values, ["t1", "control"] * 11 + ["t1"], [0.0] * 23)
    n = 4
    segments = individual_split(ds, "f1", n)
    slots = members(ds, individual(n))
    for i0 in range(1, n):
        low, high = binary_split(ds, "f1", i0, n)
        assert members(ds, binary(i0, n)) == [set().union(*slots[:i0]),
                                              set().union(*slots[i0:])]
        assert low.size == sum(s.size for s in segments[:i0])
        assert high.size == sum(s.size for s in segments[i0:])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
       st.integers(1, 6))
def test_partition_property(values, n):
    ds = build_dataset(values, ["t1", "control"] * (len(values) // 2 + 1),
                       [0.0] * len(values))
    segments = individual_split(ds, "f1", n)
    slots = members(ds, individual(n))
    all_members = [row for slot in slots for row in slot]
    assert len(all_members) == len(set(all_members)) == ds.n_users
    assert [s.size for s in segments] == [len(slot) for slot in slots]
    # The codes put each user in the segment whose interval holds its value.
    values = ds.feature_values("f1")
    for segment, slot in zip(segments, slots):
        inside = (values > segment.lower) & (values <= segment.upper)
        assert set(np.flatnonzero(inside)) == slot


# -- enumeration and serialization ---------------------------------------------------


def test_enumerate_cuts_counts_and_order(eight_user_dataset):
    cuts = enumerate_cuts(eight_user_dataset,
                          {"features": ["f1"], "n_bins": 4,
                           "kinds": ["individual", "binary"]})
    assert len(cuts) == 1 + 3
    assert cuts[0].kind == "individual"
    assert [c.threshold_index for c in cuts[1:]] == [1, 2, 3]


def test_enumerate_cuts_empty_features(eight_user_dataset):
    assert enumerate_cuts(eight_user_dataset, {"features": []}) == []


def test_enumerate_cuts_binary_only_two_features():
    from cohortpolicy.synth import ScenarioConfig, generate_experiment
    ds, _ = generate_experiment(ScenarioConfig(seed=1, n_users=8, n_features=2))
    cuts = enumerate_cuts(ds, {"features": ["f1", "f2"], "n_bins": 2,
                               "kinds": ["binary"]})
    assert len(cuts) == 2  # (N-1) per feature
    assert [c.feature for c in cuts] == ["f1", "f2"]


def test_cutspec_validation():
    with pytest.raises(ValueError):
        CutSpec(feature="f1", kind="binary", n_bins=4, threshold_index=4)
    with pytest.raises(ValueError):
        CutSpec(feature="f1", kind="weird", n_bins=4)


def test_bucket_index_fixed_cuts():
    cuts = [1.0, 2.0, 3.0]
    # ties go low, (lower, upper]; values beyond either end stay in range
    assert slot_codes([0.5, 1.0, 1.5, 99.0, -99.0], cuts).tolist() == [0, 0, 1, 3, 0]
    assert slot_codes([1.0, 1.5], [1.0, 1.0]).tolist() == [0, 2]  # tied cuts
    # NaN lands in the last slot; no cutpoints give one slot
    assert slot_codes([math.nan, -math.inf, math.inf, -0.0], [-0.0, 0.0, 1.0]
                      ).tolist() == [3, 0, 3, 0]
    assert slot_codes([math.nan, 5.0], []).tolist() == [0, 0]


# Values may be anything a float column holds; cutpoints are ascending and
# drawn from a few values so that ties are common.
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 1e-300])
ANY_FLOAT = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
CUT_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, 2.0]),
                      st.floats(allow_nan=False, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(ANY_FLOAT, max_size=40),
       cuts=st.lists(CUT_FLOAT, max_size=8).map(sorted),
       as_list=st.booleans())
def test_slot_codes_match_searchsorted(values, cuts, as_list):
    want = np.searchsorted(np.asarray(cuts, dtype=float),
                           np.asarray(values, dtype=float), side="left")
    got = slot_codes(values if as_list else np.array(values, dtype=float),
                     cuts if as_list else np.array(cuts, dtype=float))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def interior_cutpoints(values, n_bins):
    # The N-1 interior quantile boundaries Q(i/N), i = 1..N-1.
    return sorted_boundaries(sort_values(values), n_bins)[:-1]


def test_interior_cutpoints(eight_user_dataset):
    values = eight_user_dataset.feature_values("f1")
    assert interior_cutpoints(values, 4) == [2, 4, 6]


# -- the sort helper ------------------------------------------------------------
# Every float-column sort goes through `sort_values`, numpy's default sort
# made bit-equal to kind="stable". The references below sort with
# kind="stable", as the code did before; bits are compared, so -0.0 and 0.0
# differ.

# Few distinct values, so ties are common and -0.0 sits beside 0.0.
VALUE = st.sampled_from([-1.0, -0.0, 0.0, 0.0, -0.0, 0.5, 1.0, 2.5])
COLUMN = hnp.arrays(np.float64, st.integers(1, 2000), elements=VALUE)


def bits_of(values):
    return np.asarray(values, dtype=float).tobytes()


def stable_sorted(values):
    return np.sort(np.asarray(values, dtype=float), kind="stable")


def stable_cutpoints(values, n_bins):
    ordered = stable_sorted(values)
    n = ordered.size
    return [float(ordered[-((-i * n) // n_bins) - 1]) for i in range(1, n_bins)]


@settings(max_examples=200, deadline=None)
@given(COLUMN)
def test_sort_values_equals_the_stable_sort_bit_for_bit(column):
    assert bits_of(sort_values(column)) == bits_of(stable_sorted(column))
    matrix = np.stack([column, column[::-1]])
    assert bits_of(sort_values(matrix)) == bits_of(
        np.sort(matrix, axis=1, kind="stable"))


def test_default_sort_alone_changes_signed_zeros_and_nans():
    # The case the helper exists for: numpy's default sort may return -0.0
    # and 0.0 as zeros of one sign. It also returns NaNs with one bit
    # pattern, which no caller meets: every caller passes finite values.
    column = np.random.default_rng(3).choice([-1.0, -0.0, 0.0, 1.0], 2000)
    nans = np.array([np.nan, 1.0, -np.nan, 0.5] * 10)
    for values in (column, nans):
        assert bits_of(np.sort(values)) != bits_of(stable_sorted(values))
    assert bits_of(sort_values(column)) == bits_of(stable_sorted(column))


@settings(max_examples=200, deadline=None)
@given(COLUMN, st.floats(0.0, 1.0), st.integers(1, 9))
def test_quantile_and_cutpoints_equal_the_stable_sort(column, p, n_bins):
    want = NEG_INF if p == 0.0 else float(
        stable_sorted(column)[min(math.ceil(p * column.size), column.size) - 1])
    assert bits_of([quantile(column, p)]) == bits_of([want])
    assert bits_of(interior_cutpoints(column, n_bins)) == bits_of(
        stable_cutpoints(column, n_bins))


@settings(max_examples=100, deadline=None)
@given(st.data(), COLUMN)
def test_cutpoints_do_not_depend_on_row_order(data, column):
    order = data.draw(st.permutations(range(column.size)))
    n_bins = data.draw(st.integers(1, 9))
    # As values: the stable sort keeps zeros in input order, so a zero
    # cutpoint's sign may follow the row order.
    assert interior_cutpoints(column[order], n_bins) == interior_cutpoints(column, n_bins)
    # A dataset sorts its rows by user id first, so its cuts agree bit for bit.
    ds = ExperimentDataset(
        experiment_id="x", user_ids=[f"u{i:04d}" for i in range(column.size)],
        arm_codes=np.zeros(column.size, dtype=int), feature_matrix=[column],
        outcome_matrix=[np.zeros(column.size)], actions=("a0",),
        control_action="a0", metrics=("m1",), features=("f1",))
    cut = CutSpec(feature="f1", kind="individual", n_bins=n_bins)
    assert [bits_of([s.upper]) for s in materialize(ds, cut)] == \
        [bits_of([s.upper]) for s in materialize(shuffled(ds, order), cut)]


@settings(max_examples=100, deadline=None)
@given(COLUMN, COLUMN)
def test_sorted_feature_values_and_shift_ratio_equal_the_stable_sort(f1, f2):
    n = min(f1.size, f2.size)
    matrix = np.stack([f1[:n], f2[:n]])
    ds = ExperimentDataset(
        experiment_id="x", user_ids=[f"u{i:04d}" for i in range(n)],
        arm_codes=np.zeros(n, dtype=int), feature_matrix=matrix,
        outcome_matrix=[np.zeros(n)], actions=("a0",), control_action="a0",
        metrics=("m1",), features=("f1", "f2"))
    for row, feature in enumerate(ds.features):
        assert bits_of(ds.sorted_feature_values(feature)) == bits_of(
            stable_sorted(matrix[row]))
    if n < 2:
        return
    pair = FeatureSnapshotPair(feature="f1", user_ids=ds.user_ids,
                               t0=matrix[0], t1=matrix[1])
    want = {}
    for cut, cuts in ((QUANTILE_CUT, stable_cutpoints(matrix[0], 4)),
                      (BINARY_CUT, stable_cutpoints(matrix[0], 4)[::2])):
        moved = slot_codes(matrix[0], cuts) != slot_codes(matrix[1], cuts)
        want[cut] = np.count_nonzero(moved) / n
    with mock.patch.object(np, "sort", wraps=np.sort) as sort:
        assert {cut: shift_ratio(pair, cut) for cut in want} == want
    assert sort.call_count == 1  # t0 is sorted once, for both cut bases
