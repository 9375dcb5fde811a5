import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cohortpolicy.segmentation import (CutSpec, binary_split,
                                       cut_slot_codes, enumerate_cuts,
                                       individual_split, interior_cutpoints,
                                       quantile, slot_codes)

from conftest import build_dataset

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


def test_interior_cutpoints(eight_user_dataset):
    values = eight_user_dataset.feature_values("f1")
    assert interior_cutpoints(values, 4) == [2, 4, 6]
