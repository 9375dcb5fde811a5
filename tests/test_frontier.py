import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortpolicy import frontier
from cohortpolicy.frontier import (ToleranceConfig, save_frontier,
                                   save_frontier_coords, strict_pareto_oracle,
                                   tolerance_dominates, tolerance_filter,
                                   weak_pareto_ids, weak_pareto_mask_2d)

from cohortpolicy.search import PolicyTable

from conftest import make_policy


def brute_force_weak_pareto(policies):
    # Independent of the frontier module: plain dominance double loop.
    out = set()
    for p in policies:
        mine = [p.estimates[m].mean for m in p.estimates]
        dominated = False
        for q in policies:
            if q.policy_id == p.policy_id:
                continue
            theirs = [q.estimates[m].mean for m in q.estimates]
            if all(t >= m for t, m in zip(theirs, mine)) and theirs != mine:
                dominated = True
                break
        if not dominated:
            out.add(p.policy_id)
    return out


# -- tolerance dominance -----------------------------------------------------------


def test_self_dominance_false():
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    for tau in (0.0, 0.5, 2.0):
        assert not tolerance_dominates(p, p, ToleranceConfig(tau=tau))


def test_dominates_within_band_and_beyond():
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    q = make_policy("q", [1.05, 1.2], [0.1, 0.1])
    # metric 1: 1.05 >= 1 - 0.1; metric 2: 1.2 > 1 + 0.1
    assert tolerance_dominates(q, p, ToleranceConfig(tau=1.0))


def test_deficit_beyond_band_blocks_dominance():
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    q = make_policy("q", [0.85, 1.3], [0.1, 0.1])
    # 0.85 < 1 - 0.1 violates the first clause
    assert not tolerance_dominates(q, p, ToleranceConfig(tau=1.0))


def test_band_uses_dominated_policy_sigma():
    # Asymmetric on purpose: epsilon comes from p's sigma, not q's.
    p = make_policy("p", [1.0], [0.0])
    q = make_policy("q", [1.05], [10.0])
    assert tolerance_dominates(q, p, ToleranceConfig(tau=1.0))
    assert not tolerance_dominates(p, q, ToleranceConfig(tau=1.0))


def test_missing_estimate_errors():
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    q = make_policy("q", [1.0], [0.1])
    with pytest.raises(ValueError):
        tolerance_dominates(q, p, ToleranceConfig(tau=1.0), metrics=["m1", "m2"])


def test_minimize_direction_flips_sign():
    cfg = ToleranceConfig(tau=0.0, minimize=("m2",))
    better = make_policy("better", [1.0, 0.5], [0.0, 0.0])
    worse = make_policy("worse", [1.0, 2.0], [0.0, 0.0])
    assert tolerance_dominates(better, worse, cfg)
    assert not tolerance_dominates(worse, better, cfg)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(tau=-0.5)
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError, match="'m3' to minimize is not one of"):
        tolerance_filter([p], ToleranceConfig(tau=1.0, minimize=("m3",)),
                         metrics=["m1", "m2"])
    with pytest.raises(ValueError, match="'m3' to minimize is not one of"):
        tolerance_filter([p], ToleranceConfig(tau=1.0, minimize=("m3",)))


# -- tolerance filter ---------------------------------------------------------------


def test_singleton_admitted():
    p = make_policy("only", [1.0], [0.1])
    result = tolerance_filter([p], ToleranceConfig(tau=1.0))
    assert result.admitted == ["only"]
    assert result.dominated_by == {}


def test_zero_tau_matches_brute_force():
    rng = np.random.default_rng(31)
    policies = [make_policy(f"p{i:02d}", list(rng.normal(size=2)),
                            list(rng.uniform(0.01, 0.2, size=2)))
                for i in range(30)]
    result = tolerance_filter(policies, ToleranceConfig(tau=0.0))
    assert set(result.admitted) == brute_force_weak_pareto(policies)


def test_three_policy_example():
    # Only p carries uncertainty; the band is computed from the dominated
    # policy's sigma, so q tolerance-dominates p but neither dominates r.
    p = make_policy("p", [1.0, 1.0], [0.1, 0.1])
    q = make_policy("q", [1.05, 1.2], [0.0, 0.0])
    r = make_policy("r", [0.85, 1.3], [0.0, 0.0])
    result = tolerance_filter([p, q, r], ToleranceConfig(tau=1.0))
    assert "p" not in result.admitted
    assert result.dominated_by["p"] == "q"
    assert "r" in result.admitted and "q" in result.admitted


def test_empty_input_empty_result():
    result = tolerance_filter([], ToleranceConfig(tau=0.0))
    assert result.admitted == [] and result.dominated_by == {}


def test_empty_input_checks_minimize_only_against_known_metrics():
    # No candidates name no metrics, so a metric to minimize is not checked;
    # metrics given are.
    cfg = ToleranceConfig(tau=1.0, minimize=("m1",))
    result = tolerance_filter([], cfg)
    assert (result.admitted, result.dominated_by, result.tau_used) == ([], {}, 1.0)
    assert tolerance_filter([], cfg, metrics=("m1", "m2")).admitted == []
    with pytest.raises(ValueError, match="m1"):
        tolerance_filter([], cfg, metrics=("m2",))


def test_first_dominator_in_id_order():
    p = make_policy("p", [0.0, 0.0])
    d1 = make_policy("a_dominator", [1.0, 1.0])
    d2 = make_policy("z_dominator", [2.0, 2.0])
    result = tolerance_filter([p, d2, d1], ToleranceConfig(tau=0.0))
    assert result.dominated_by["p"] == "a_dominator"


def test_no_self_domination_recorded():
    policies = [make_policy(f"p{i}", [float(i % 3)]) for i in range(9)]
    result = tolerance_filter(policies, ToleranceConfig(tau=0.0))
    for rejected, dominator in result.dominated_by.items():
        assert rejected != dominator


def test_scale_covariance():
    rng = np.random.default_rng(17)
    mus = rng.normal(size=(12, 2))
    sigmas = rng.uniform(0.05, 0.3, size=(12, 2))
    base = [make_policy(f"p{i:02d}", list(mus[i]), list(sigmas[i]))
            for i in range(12)]
    scaled = [make_policy(f"p{i:02d}", [mus[i][0] * 7.5, mus[i][1]],
                          [sigmas[i][0] * 7.5, sigmas[i][1]])
              for i in range(12)]
    cfg = ToleranceConfig(tau=1.0)
    assert tolerance_filter(base, cfg).admitted == \
        tolerance_filter(scaled, cfg).admitted


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 25), st.integers(1, 4))
def test_zero_tau_equivalence_property(seed, n, k):
    rng = np.random.default_rng(seed)
    policies = [make_policy(f"p{i:02d}", list(rng.normal(size=k)),
                            list(rng.uniform(0, 0.5, size=k)))
                for i in range(n)]
    result = tolerance_filter(policies, ToleranceConfig(tau=0.0))
    assert set(result.admitted) == strict_pareto_oracle(policies)


def pairwise_filter(policies, cfg, metrics):
    """The filter one pair at a time, as it once ran: each candidate in id
    order against every other in id order, with `tolerance_dominates`."""
    ordered = sorted(policies, key=lambda p: p.policy_id)
    admitted, dominated_by = [], {}
    for p in ordered:
        q = next((q for q in ordered if q.policy_id != p.policy_id
                  and tolerance_dominates(q, p, cfg, metrics)), None)
        if q is None:
            admitted.append(p.policy_id)
        else:
            dominated_by[p.policy_id] = q.policy_id
    return admitted, dominated_by


@st.composite
def filter_cases(draw):
    metrics = tuple(f"m{i + 1}" for i in range(draw(st.integers(1, 3))))
    # Integer means and errors put values exactly on a band's edge.
    mean = st.one_of(st.integers(-2, 2).map(float), st.just(-0.0),
                     st.floats(-5, 5, allow_nan=False))
    error = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 2))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), max_size=12,
                        unique=True))
    policies = [make_policy(pid, draw(st.lists(mean, min_size=len(metrics),
                                               max_size=len(metrics))),
                            draw(st.lists(error, min_size=len(metrics),
                                          max_size=len(metrics))))
                for pid in ids]
    cfg = ToleranceConfig(tau=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                          minimize=tuple(draw(st.lists(st.sampled_from(metrics),
                                                       unique=True))))
    return policies, cfg, metrics, draw(st.sampled_from([1, 3, 256]))


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_filter_matches_pairwise_predicate(case):
    # Every block size gives the pairwise result, from a candidate list and
    # from a policy table alike.
    policies, cfg, metrics, block = case
    table = PolicyTable(metrics, [p.policy_id for p in policies],
                        [""] * len(policies), ["global"] * len(policies),
                        ["a0"] * len(policies),
                        [[p.estimates[m].mean for m in metrics] for p in policies],
                        [[p.estimates[m].std_err for m in metrics] for p in policies])
    want = pairwise_filter(policies, cfg, metrics)
    with mock.patch.object(frontier, "_JUDGED_BLOCK", block):
        for source in (policies, table):
            got = tolerance_filter(source, cfg, metrics=metrics)
            assert (got.admitted, got.dominated_by) == want


def test_near_frontier_admission():
    # Within tau*sigma of the best on every metric, and not exceeded by more
    # than tau*sigma on any: must be admitted.
    best = make_policy("best", [1.0, 1.0], [0.1, 0.1])
    near = make_policy("near", [0.95, 0.95], [0.1, 0.1])
    result = tolerance_filter([best, near], ToleranceConfig(tau=1.0))
    assert "near" in result.admitted


# -- strict oracle -----------------------------------------------------------------


def test_oracle_identical_all_admitted():
    policies = [make_policy(f"p{i}", [0.5, 0.5]) for i in range(4)]
    assert strict_pareto_oracle(policies) == {p.policy_id for p in policies}


def test_oracle_no_pairwise_dominance():
    policies = [make_policy("a", [1.0, 0.0]), make_policy("b", [0.0, 1.0]),
                make_policy("c", [0.4, 0.4])]
    assert strict_pareto_oracle(policies) == {"a", "b", "c"}


def test_oracle_full_dominance():
    policies = [make_policy("a", [1.0, 1.0]), make_policy("b", [0.5, 0.5])]
    assert strict_pareto_oracle(policies) == {"a"}


def test_weak_pareto_ids_mapping_interface():
    means = {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (-1.0, -1.0)}
    assert weak_pareto_ids(means) == {"a", "b"}


# -- 2-D sort-and-sweep ------------------------------------------------------------

# Small integers give tied coordinates and duplicate vectors; the zeros give
# -0.0 beside 0.0; arbitrary floats (infinities included) give the rest.
coordinate = st.one_of(st.integers(-3, 3).map(float),
                       st.sampled_from([0.0, -0.0]),
                       st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), max_size=40))
@example([(1.5, -2.0)])
@example([(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)])
@example([(-0.0, 0.0), (0.0, -0.0), (0.0, -1.0), (-1.0, 0.0)])
def test_sweep_mask_matches_brute_force(points):
    ids = [f"p{i:02d}" for i in range(len(points))]
    mask = weak_pareto_mask_2d(np.array([x for x, _ in points]),
                               np.array([y for _, y in points]))
    assert mask.dtype == bool and mask.shape == (len(points),)
    assert {pid for pid, keep in zip(ids, mask) if keep} == \
        weak_pareto_ids(dict(zip(ids, points)))


def test_sweep_mask_cases():
    # ties on x: only the larger y survives; equal vectors both survive
    x = np.array([1.0, 1.0, 0.0, 2.0, 2.0])
    y = np.array([0.0, 1.0, 5.0, 0.0, 0.0])
    assert weak_pareto_mask_2d(x, y).tolist() == [False, True, True, True, True]
    assert weak_pareto_mask_2d(np.array([3.0]), np.array([-1.0])).tolist() == [True]
    assert weak_pareto_mask_2d(np.array([]), np.array([])).tolist() == []


# -- serialization -----------------------------------------------------------------


def test_frontier_serialization(tmp_path):
    policies = [make_policy("a", [1.0, 1.0], [0.1, 0.1]),
                make_policy("b", [0.5, 0.5], [0.1, 0.1])]
    result = tolerance_filter(policies, ToleranceConfig(tau=0.0))
    save_frontier(tmp_path / "frontier.json", result)
    data = json.loads((tmp_path / "frontier.json").read_text())
    assert data["tau"] == 0.0
    assert data["admitted"] == ["a"]
    assert data["dominated_by"] == {"b": "a"}
    assert "format_version" in data

    # A policy the filter never judged gets no row.
    unjudged = make_policy("c", [9.0, 9.0], [0.1, 0.1])
    save_frontier_coords(tmp_path / "coords.csv", [unjudged, *policies], result,
                         ("m1", "m2"))
    lines = (tmp_path / "coords.csv").read_text().splitlines()
    assert lines[0].startswith("# format_version")
    assert lines[1] == "policy_id,m1_mean,m2_mean,admitted"
    assert lines[2:] == ["a,1.0,1.0,1", "b,0.5,0.5,0"]
