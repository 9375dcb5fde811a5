import itertools
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortpolicy.errors import ConfigError, EstimationError
from cohortpolicy.experiment import ExperimentDataset, compute_ate
from cohortpolicy.search import (PolicyCandidate, _scores, build_policy_table,
                                 collect_candidates, compose_estimates, cut_effects,
                                 enumerate_policies, evaluate_policies,
                                 evaluate_policy_pinned, global_policies,
                                 load_policy_table, make_policy_id, moments_cube,
                                 policy_columns, rank_policies,
                                 sample_weights, save_policy_table)
from cohortpolicy.segmentation import CutSpec, enumerate_cuts

from conftest import build_dataset, make_policy, shuffled, table_of


def two_arm_dataset(n=16, outcome=None):
    values = list(range(1, n + 1))
    arms = ["a1", "a0"] * (n // 2)
    outcomes = outcome if outcome is not None else [0.0] * n
    return build_dataset(values, arms, outcomes, control="a0")


# -- enumeration -------------------------------------------------------------------


def test_binary_cut_full_cross_product():
    ds = two_arm_dataset()
    cut = CutSpec(feature="f1", kind="binary", n_bins=4, threshold_index=2)
    policies = enumerate_policies(ds, [cut], budget=64, seed=0)
    assert len(policies) == 4  # 2 slots x 2 actions
    assignments = {p.assignment for p in policies}
    assert assignments == set(itertools.product(("a0", "a1"), repeat=2))


def test_budget_sampling_keeps_all_control():
    ds = two_arm_dataset()
    cut = CutSpec(feature="f1", kind="individual", n_bins=4)
    policies = enumerate_policies(ds, [cut], budget=10, seed=5)
    assert len(policies) == 10  # clamped; 2^4 = 16 > 10
    assert ("a0", "a0", "a0", "a0") in {p.assignment for p in policies}


def test_empty_cuts_give_global_policies():
    ds = two_arm_dataset()
    policies = enumerate_policies(ds, [], budget=10)
    assert [p.policy_id for p in policies] == ["global.a0", "global.a1"]


def test_budget_below_one_errors():
    ds = two_arm_dataset()
    with pytest.raises(ConfigError):
        enumerate_policies(ds, [], budget=0)


def test_enumeration_deterministic():
    ds = two_arm_dataset()
    cuts = enumerate_cuts(ds, {"features": ["f1"], "n_bins": 4})
    a = enumerate_policies(ds, cuts, budget=10, seed=42)
    b = enumerate_policies(ds, cuts, budget=10, seed=42)
    assert [p.policy_id for p in a] == [p.policy_id for p in b]


# -- evaluation --------------------------------------------------------------------


def test_all_control_policy_zero_lift():
    ds = two_arm_dataset(outcome=list(range(16)))
    cut = CutSpec(feature="f1", kind="binary", n_bins=4, threshold_index=2)
    policy = next(p for p in enumerate_policies(ds, [cut], budget=64)
                  if p.assignment == ("a0", "a0"))
    result = evaluate_policies(ds, [policy])[0]
    assert result.estimates["m1"].mean == 0.0
    assert result.estimates["m1"].std_err == 0.0


def test_single_segment_policy_equals_ate(rng):
    outcomes = rng.normal(size=16)
    ds = two_arm_dataset(outcome=list(outcomes))
    policy = global_policies(ds)[1]
    assert policy.assignment == ("a1",)
    result = evaluate_policies(ds, [policy])[0]
    assert result.estimates["m1"] == compute_ate(ds, "a1", "m1")


def test_equal_halves_cancel():
    # low half: HTE +2, high half: HTE -2, equal sizes -> policy mean 0
    outcomes = []
    for i in range(16):
        treated = i % 2 == 0
        low = i < 8
        outcomes.append((2.0 if low else -2.0) if treated else 0.0)
    ds = two_arm_dataset(outcome=outcomes)
    cut = CutSpec(feature="f1", kind="binary", n_bins=2, threshold_index=1)
    policy = next(p for p in enumerate_policies(ds, [cut], budget=64)
                  if p.assignment == ("a1", "a1"))
    result = evaluate_policies(ds, [policy])[0]
    assert result.estimates["m1"].mean == pytest.approx(0.0, abs=1e-12)


def test_policy_std_err_composes_segment_variances(rng):
    outcomes = rng.normal(size=16)
    ds = two_arm_dataset(outcome=list(outcomes))
    cut = CutSpec(feature="f1", kind="binary", n_bins=2, threshold_index=1)
    policy = next(p for p in enumerate_policies(ds, [cut], budget=64)
                  if p.assignment == ("a1", "a1"))
    result = evaluate_policies(ds, [policy])[0]

    from cohortpolicy.experiment import segment_hte
    from cohortpolicy.segmentation import binary_split
    low, high = binary_split(ds, "f1", 1, 2)
    se_low = segment_hte(ds, low, "a1", "m1").std_err
    se_high = segment_hte(ds, high, "a1", "m1").std_err
    expected = ((0.5 * se_low) ** 2 + (0.5 * se_high) ** 2) ** 0.5
    assert result.estimates["m1"].std_err == pytest.approx(expected, abs=1e-12)


def test_unsupported_segment_errors():
    # all treated users in the low half: the high slot has no treated members
    values = list(range(1, 9))
    arms = ["a1", "a1", "a0", "a0", "a0", "a0", "a0", "a0"]
    ds = build_dataset(values, arms, [0.0] * 8, control="a0")
    cut = CutSpec(feature="f1", kind="binary", n_bins=2, threshold_index=1)
    policy = next(p for p in enumerate_policies(ds, [cut], budget=64)
                  if p.assignment == ("a0", "a1"))
    with pytest.raises(EstimationError, match="slot 1"):
        evaluate_policies(ds, [policy])[0]


def test_evaluate_policies_batch_matches_single(rng):
    outcomes = rng.normal(size=16)
    ds = two_arm_dataset(outcome=list(outcomes))
    cuts = enumerate_cuts(ds, {"features": ["f1"], "n_bins": 4})
    policies = enumerate_policies(ds, cuts, budget=16, seed=1)
    batch = evaluate_policies(ds, policies)
    for policy, from_batch in zip(policies, batch):
        assert evaluate_policies(ds, [policy])[0].estimates == from_batch.estimates
    assert evaluate_policies(ds, []) == []


def test_evaluate_policies_invariant_to_row_order(rng):
    outcomes = rng.normal(size=16)
    ds = two_arm_dataset(outcome=list(outcomes))
    permuted = shuffled(ds, rng.permutation(ds.n_users))
    cuts = enumerate_cuts(ds, {"features": ["f1"], "n_bins": 4})
    policies = enumerate_policies(ds, cuts, budget=16, seed=1)
    first = [p.estimates for p in evaluate_policies(ds, policies)]
    assert first == [p.estimates for p in evaluate_policies(ds, policies)]
    assert first == [p.estimates for p in evaluate_policies(permuted, policies)]


def test_evaluate_policies_keeps_input_order_and_skips_unsupported(rng):
    # a1 users sit at values 1 and 3 only: the binary high slot and the
    # individual slots 2 and 3 have no a1 support.
    arms = ["a1", "a0", "a1", "a0", "a0", "a0", "a0", "a0"]
    ds = build_dataset(list(range(1, 9)), arms, list(rng.normal(size=8)),
                       control="a0")
    binary = CutSpec(feature="f1", kind="binary", n_bins=2, threshold_index=1)
    individual = CutSpec(feature="f1", kind="individual", n_bins=4)
    policies = [PolicyCandidate(policy_id=make_policy_id(cut, assignment),
                                cut=cut, assignment=assignment)
                for cut, assignment in [
                    (binary, ("a1", "a0")),
                    (individual, ("a0", "a0", "a1", "a0")),   # slot 2
                    (binary, ("a1", "a1")),                   # slot 1
                    (individual, ("a1", "a1", "a0", "a0")),
                    (None, ("a1",)),
                    (individual, ("a1", "a0", "a0", "a1")),   # slot 3
                    (binary, ("a0", "a0"))]]
    for i, slot in ((1, 2), (2, 1), (5, 3)):
        with pytest.raises(EstimationError, match=f"slot {slot}: no treated"):
            evaluate_policies(ds, [policies[i]])
    supported = [policies[i] for i in (0, 3, 4, 6)]
    for policy, evaluated in zip(supported, evaluate_policies(ds, supported)):
        assert evaluated.estimates == evaluate_policies(ds, [policy])[0].estimates
    with pytest.raises(EstimationError,
                       match=r"f1\.ind4\.a0-a0-a1-a0' slot 2: no treated/control "
                             r"support for action 'a1'"):
        evaluate_policies(ds, policies)


# -- estimator oracle ----------------------------------------------------------------


def _oracle_slot(value, bounds, kind):
    # Independent cohort rule: (lower, upper] intervals, open top slot.
    if kind == "global":
        return 0
    for slot, upper in enumerate(bounds[:-1]):
        if value <= upper:
            return slot
    return len(bounds) - 1


def _oracle_bounds(values, cut):
    ordered = sorted(values)
    n = len(ordered)
    if cut is None:
        return "global", [math.inf]
    q = [ordered[math.ceil(i * n / cut.n_bins) - 1] for i in range(1, cut.n_bins + 1)]
    if cut.kind == "individual":
        return "individual", q
    return "binary", [q[cut.threshold_index - 1], ordered[-1]]


def oracle_policy(ds, policy, rows):
    """Per-user loop: size-weighted difference of means with unpooled ddof=1
    standard errors, cohorts fixed from all of `ds`. Returns metric ->
    (mean, std_err), or the first treated non-empty slot lacking support."""
    feature = policy.cut.feature if policy.cut is not None else None
    values = ds.feature_values(feature).tolist() if feature else [0.0] * ds.n_users
    arms = [ds.actions[code] for code in ds.arm_codes.tolist()]
    kind, bounds = _oracle_bounds(values if feature else [0.0], policy.cut)
    selected = [i for i, keep in enumerate(rows) if keep]
    slot_of = [_oracle_slot(values[i], bounds, kind) for i in selected]
    out = {}
    for metric in ds.metrics:
        y = ds.outcome_values(metric).tolist()
        mean = 0.0
        var = 0.0
        for slot, action in enumerate(policy.assignment):
            members = [i for i, s in zip(selected, slot_of) if s == slot]
            if not members or action == ds.control_action:
                continue
            t = [y[i] for i in members if arms[i] == action]
            c = [y[i] for i in members if arms[i] == ds.control_action]
            if not t or not c:
                return slot
            weight = len(members) / len(selected)
            mean += weight * (statistics.fmean(t) - statistics.fmean(c))
            var += weight ** 2 * sum(statistics.variance(v) / len(v)
                                     for v in (t, c) if len(v) > 1)
        out[metric] = (mean, math.sqrt(var))
    return out


def _assert_matches(got, want):
    for metric, (mean, std_err) in want.items():
        est = got.estimates[metric]
        assert est.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert est.std_err == pytest.approx(std_err, rel=1e-9, abs=1e-9)


@st.composite
def small_experiments(draw):
    n = draw(st.integers(2, 32))
    # Few distinct feature values: ties and bins emptied by ties.
    values = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    # Three arms drawn freely: arms of one user, or of none, occur.
    arms = draw(st.lists(st.sampled_from(["c", "t1", "t2"]), min_size=n, max_size=n))
    outcomes = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=n,
                             max_size=n))
    second = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    actions = ("c", "t1", "t2")
    ds = ExperimentDataset(experiment_id="oracle",
                           user_ids=[f"u{i:03d}" for i in range(n)],
                           arm_codes=[actions.index(a) for a in arms],
                           feature_matrix=[values], outcome_matrix=[outcomes, second],
                           actions=actions, control_action="c",
                           metrics=("m1", "m2"), features=("f1",))
    # Up to 8 bins: 3^8 assignments exceed the budget of 81, so the sampled
    # enumeration path meets the oracle too.
    n_bins = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["global", "individual", "binary"]
                                if n_bins > 1 else ["global", "individual"]))
    if kind == "global":
        cut = None
    elif kind == "individual":
        cut = CutSpec(feature="f1", kind="individual", n_bins=n_bins)
    else:
        cut = CutSpec(feature="f1", kind="binary", n_bins=n_bins,
                      threshold_index=draw(st.integers(1, n_bins - 1)))
    rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return ds, cut, rows


@settings(max_examples=80, deadline=None)
@given(small_experiments())
def test_estimators_match_per_user_loop(case):
    ds, cut, rows = case
    policies = enumerate_policies(ds, [cut] if cut is not None else [], budget=81)
    everyone = np.ones(ds.n_users, dtype=bool)
    want = {p.policy_id: oracle_policy(ds, p, everyone) for p in policies}
    cuts = [cut] if cut is not None else []
    table = build_policy_table(moments_cube(ds, cuts), cuts, budget=81)
    batch = {p.policy_id: p for p in
             evaluate_policies(ds, [p for p in policies if p.policy_id in table])}
    assert set(batch) == {pid for pid, w in want.items() if isinstance(w, dict)}
    for policy in policies:
        expected = want[policy.policy_id]
        if isinstance(expected, int):
            with pytest.raises(EstimationError, match=f"slot {expected}:"):
                evaluate_policies(ds, [policy])
        else:
            _assert_matches(batch[policy.policy_id], expected)
            _assert_matches(evaluate_policies(ds, [policy])[0], expected)
            assert (evaluate_policy_pinned(ds, policy, everyone).estimates
                    == batch[policy.policy_id].estimates)
        pinned = oracle_policy(ds, policy, rows)
        if isinstance(pinned, int):
            with pytest.raises(EstimationError, match=f"slot {pinned}:"):
                evaluate_policy_pinned(ds, policy, rows)
        else:
            _assert_matches(evaluate_policy_pinned(ds, policy, rows), pinned)


@st.composite
def day_ranges(draw):
    ds, cut, _ = draw(small_experiments())
    n_days = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # Day labels with gaps; `day_codes` numbers the labels in use.
        labels = draw(st.lists(st.integers(0, 2 * n_days), min_size=ds.n_users,
                               max_size=ds.n_users))
        ds = replace(ds, days=np.array(labels))
    # Without labels, `n_days` chunks of users: more days than users leaves
    # some empty.
    day, labels = ds.day_codes(n_days)
    n_days = len(labels)
    k = np.arange(n_days)
    extra = draw(st.lists(st.tuples(st.integers(0, n_days), st.integers(0, n_days)),
                          max_size=4))
    lo = np.array([*k, *np.zeros_like(k), *(min(a, b) for a, b in extra)], dtype=int)
    hi = np.array([*(k + 1), *(k + 1), *(max(a, b) for a, b in extra)], dtype=int)
    return ds, cut, day, labels, lo, hi


@settings(max_examples=60, deadline=None)
@given(day_ranges())
def test_day_ranges_match_pinned_evaluation(case):
    # Day ranges read from one (day, slot, arm) cube equal, per range, the
    # pinned evaluation of the range's users: exactly for one day, and to
    # rounding, relative to the estimate's size or to the outcome scale
    # where the estimate is about zero, for pooled days.
    ds, cut, day, labels, lo, hi = case
    scale = max(float(np.abs(ds.outcome_matrix).max(initial=0.0)), 1e-300)
    cuts = [cut] if cut is not None else []
    cube = moments_cube(ds, cuts, (day, labels))
    for policy in enumerate_policies(ds, cuts, budget=12):
        got = compose_estimates(cube, cut_effects(cube, [policy.cut], lo, hi),
                                [policy] * len(lo), np.arange(len(lo)))
        assert len(got) == len(lo)
        for result, a, b in zip(got, lo.tolist(), hi.tolist()):
            try:
                want = evaluate_policy_pinned(ds, policy, (day >= a) & (day < b))
            except EstimationError as exc:
                assert isinstance(result, EstimationError)
                assert str(result) == str(exc)
                continue
            assert isinstance(result, dict)
            if b - a == 1:
                assert result == want.estimates
                continue
            for metric, est in want.estimates.items():
                other = result[metric]
                assert (other.n_treated, other.n_control) == (est.n_treated,
                                                              est.n_control)
                tol = 1e-12 * max(abs(est.mean), est.std_err, scale)
                assert abs(other.mean - est.mean) <= tol
                assert abs(other.std_err - est.std_err) <= tol


# -- weights -----------------------------------------------------------------------


def test_weights_single_metric():
    assert sample_weights(1, 5, seed=3).tolist() == [[1.0]] * 5


def test_weights_deterministic():
    assert sample_weights(3, 100, seed=7).tobytes() == \
        sample_weights(3, 100, seed=7).tobytes()


def row_loop_weights(n_metrics, n_samples, seed):
    """The weights renormalized one row at a time, as sample_weights did
    before it worked on the whole matrix."""
    if n_metrics == 1:
        return [(1.0,)] * n_samples
    rng = np.random.default_rng(seed)
    draws = -np.log1p(-rng.random((n_samples, n_metrics)))
    totals = draws.sum(axis=1)
    totals[totals == 0.0] = 1.0
    out = []
    for row in draws / totals[:, None]:
        residual = 1.0 - row.sum()
        row = row.copy()
        row[int(np.argmax(row))] += residual
        out.append(tuple(float(w) for w in row))
    return out


# n_metrics 9 and up cross numpy's 8-lane pairwise row sum.
@pytest.mark.parametrize("n_metrics", range(1, 13))
@pytest.mark.parametrize("n_samples", [1, 2, 9, 1000, 1499])
def test_weights_match_row_loop_bit_for_bit(n_metrics, n_samples):
    seed = 100 * n_metrics + n_samples
    got = sample_weights(n_metrics, n_samples, seed)
    want = row_loop_weights(n_metrics, n_samples, seed)
    assert got.shape == (n_samples, n_metrics) and got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()


def test_weights_uniform_on_simplex():
    weights = sample_weights(2, 10000, seed=13)
    assert abs(weights[:, 0].mean() - 0.5) < 0.02


def test_weights_validate():
    weights = sample_weights(4, 50, seed=1)
    for w in weights.tolist():
        assert all(x >= 0 for x in w)
        assert abs(sum(w) - 1.0) <= 1e-9
    # collect_candidates checks the matrix it is given.
    policies = [make_policy("a", [1.0, 0.0])]
    for bad, message in (([[0.5, 0.6]], "row 0 must be non-negative and sum to 1"),
                         ([[-0.1, 1.1]], "row 0 must be non-negative"),
                         ([[1.0, 0.0], [0.5, 0.5 + 2e-9]], "row 1 must"),
                         ([[1.0]], "one column per metric"),
                         ([1.0, 0.0], "one column per metric"),
                         (np.ones((1, 0)), "one column per metric")):
        with pytest.raises(ValueError, match=message):
            collect_candidates(policies, bad, top_k=1)
    with pytest.raises(ValueError, match="one column per metric"):
        collect_candidates([make_policy("a", [])], np.ones((1, 0)), top_k=1)


# -- scalarized score ---------------------------------------------------------------


def score_of(policy, weights, metrics=None):
    """One policy's score as `rank_policies` computes it: `_scores` on the
    policy's row of `policy_columns`, weights aligned with `metrics`
    (default: the policy's estimate order)."""
    _, _, mu, _ = policy_columns([policy], metrics)
    return float(_scores(mu, np.array([weights], dtype=float))[0, 0])


def test_score_one_hot_projection():
    policy = make_policy("p", [1.0, 2.0])
    assert score_of(policy, (0.0, 1.0)) == 2.0


def test_score_even_mix():
    policy = make_policy("p", [1.0, 2.0])
    assert score_of(policy, (0.5, 0.5)) == 1.5


def test_score_zero_everywhere():
    policy = make_policy("p", [0.0, 0.0, 0.0])
    for w in sample_weights(3, 10, seed=2):
        assert score_of(policy, w) == 0.0


def test_score_missing_estimate_errors():
    policy = make_policy("p", [1.0])
    with pytest.raises(ValueError):
        score_of(policy, (0.5, 0.5), metrics=["m1", "m2"])


@settings(max_examples=40)
@given(st.floats(0, 1))
def test_score_linear_in_weights(alpha):
    policy = make_policy("p", [0.3, -1.7])
    w1, w2 = (1.0, 0.0), (0.0, 1.0)
    mixed = (alpha, 1.0 - alpha)
    expected = (alpha * score_of(policy, w1)
                + (1 - alpha) * score_of(policy, w2))
    assert score_of(policy, mixed) == pytest.approx(expected, abs=1e-12)


# -- candidate collection -------------------------------------------------------------


def test_top_k_saturates():
    policies = [make_policy(f"p{i}", [float(i), float(-i)]) for i in range(5)]
    weights = sample_weights(2, 20, seed=4)
    result = collect_candidates(policies, weights, top_k=10)
    assert result.policy_ids == sorted(p.policy_id for p in policies)


def test_dominant_policy_always_wins():
    rng = np.random.default_rng(8)
    policies = [make_policy(f"p{i:02d}", list(rng.uniform(-1, 0, size=3)))
                for i in range(20)]
    policies.append(make_policy("winner", [1.0, 1.0, 1.0]))
    weights = sample_weights(3, 50, seed=9)
    result = collect_candidates(policies, weights, top_k=1)
    assert result.policy_ids == ["winner"]
    # brute force: the dominant policy maximizes every scalarization

    def scalarized_score(policy, weights):
        # The weighted sum of the policy's means, in estimate order.
        return sum(float(w) * estimate.mean
                   for w, estimate in zip(weights, policy.estimates.values()))

    for w in weights:
        scores = {p.policy_id: scalarized_score(p, w) for p in policies}
        assert max(scores, key=scores.get) == "winner"


def test_tie_broken_by_ascending_id():
    policies = [make_policy("b", [1.0, 1.0]), make_policy("a", [1.0, 1.0])]
    weights = sample_weights(2, 5, seed=10)
    result = collect_candidates(policies, weights, top_k=1)
    assert result.policy_ids == ["a"]


def test_collection_invariant_to_input_order():
    rng = np.random.default_rng(12)
    policies = [make_policy(f"p{i:02d}", list(rng.normal(size=2)))
                for i in range(30)]
    weights = sample_weights(2, 25, seed=12)
    forward = collect_candidates(policies, weights, top_k=3)
    backward = collect_candidates(policies[::-1], weights, top_k=3)
    assert forward.policy_ids == backward.policy_ids
    assert forward.provenance == backward.provenance


def test_minimized_metric_ranks_lower_mean_first():
    policies = [make_policy("a", [-1.0, 0.0]), make_policy("b", [-0.5, 0.0]),
                make_policy("c", [0.5, 0.0])]
    weights = np.array([[1.0, 0.0]])
    result = collect_candidates(policies, weights, top_k=2, minimize=("m1",))
    assert result.provenance == {"a": [(0, 1)], "b": [(0, 2)]}
    assert collect_candidates(policies, weights, top_k=1).policy_ids == ["c"]


def test_provenance_records_ranks():
    policies = [make_policy("a", [2.0]), make_policy("b", [1.0]),
                make_policy("c", [0.0])]
    weights = np.array([[1.0]])
    result = collect_candidates(policies, weights, top_k=2)
    assert result.provenance == {"a": [(0, 1)], "b": [(0, 2)]}


def test_rank_one_policies_weakly_pareto_optimal():
    from cohortpolicy.frontier import strict_pareto_oracle
    rng = np.random.default_rng(21)
    policies = [make_policy(f"p{i:02d}", list(rng.normal(size=3)))
                for i in range(40)]
    weights = sample_weights(3, 60, seed=22)
    result = collect_candidates(policies, weights, top_k=4)
    pareto = strict_pareto_oracle(policies)
    rank_one = {pid for pid, pairs in result.provenance.items()
                if any(rank == 1 for _, rank in pairs)}
    assert rank_one <= pareto


def test_unknown_minimized_metric_rejected():
    policies = [make_policy("a", [1.0, 0.0])]
    with pytest.raises(ValueError, match="'m9'"):
        collect_candidates(policies, np.array([[0.5, 0.5]]), top_k=1,
                           minimize=("m9",))


def per_weight_candidates(policies, weights, top_k, metrics, minimize):
    """Top-K one weight at a time, as collect_candidates once did: sort by
    id, then stably by descending score. A score is the ordered
    multiply-add w0*mu0 + w1*mu1 + ... of the policy's means."""
    mu = np.array([[p.estimates[m].mean for m in metrics] for p in policies])
    mu[:, [metric in minimize for metric in metrics]] *= -1.0
    ids = [p.policy_id for p in policies]
    id_order = np.argsort(np.array(ids, dtype=object), kind="stable")
    provenance = {}
    for w_idx, w in enumerate(weights):
        scores = w[0] * mu[:, 0]
        for weight, column in zip(w[1:], mu.T[1:]):
            scores = scores + weight * column
        ranked = id_order[np.argsort(-scores[id_order], kind="stable")]
        for rank, row in enumerate(ranked[:top_k], start=1):
            provenance.setdefault(ids[row], []).append((w_idx, rank))
    return sorted(provenance), provenance


@st.composite
def top_k_cases(draw):
    n_metrics = draw(st.integers(1, 3))
    metrics = tuple(f"m{i + 1}" for i in range(n_metrics))
    # Integer means tie often, and -0.0 sits beside 0.0.
    value = st.one_of(st.integers(-2, 2).map(float), st.just(-0.0),
                      st.floats(-5, 5, allow_nan=False))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1,
                        max_size=20, unique=True))
    policies = [make_policy(pid, draw(st.lists(value, min_size=n_metrics,
                                               max_size=n_metrics)))
                for pid in ids]
    # Up to 40 weights: blocks of 16 leave a partial last block.
    n_weights = draw(st.integers(1, 40))
    if draw(st.booleans()):
        weights = sample_weights(n_metrics, n_weights, draw(st.integers(0, 999)))
    else:
        # Weights on a grid tie distinct integer policies exactly.
        grid = st.lists(st.integers(0, 3), min_size=n_metrics,
                        max_size=n_metrics).filter(any)
        weights = np.array([[x / sum(row) for x in row]
                            for row in draw(st.lists(grid, min_size=n_weights,
                                                     max_size=n_weights))])
    top_k = draw(st.integers(1, len(ids) + 2))
    minimize = tuple(draw(st.lists(st.sampled_from(metrics), unique=True)))
    return policies, weights, top_k, metrics, minimize


@settings(max_examples=300, deadline=None)
@given(top_k_cases())
def test_collect_candidates_matches_per_weight_loop(case):
    policies, weights, top_k, metrics, minimize = case
    got = collect_candidates(policies, weights, top_k, metrics=metrics,
                             minimize=minimize)
    ids, provenance = per_weight_candidates(policies, weights, top_k, metrics,
                                            minimize)
    assert got.policy_ids == ids
    assert got.provenance == provenance
    assert list(got.provenance) == list(provenance)


def _twin_table_case():
    # Twin policies with equal means, as f1 and a monotone copy of it give,
    # in a table of 6 rows: a column-major matrix-vector product rounds the
    # last (rows mod 4) rows apart from the rest, and each exclusion moves
    # that remainder.
    means = np.random.default_rng(0).normal(size=(3, 2))
    policies = [make_policy(f"{twin}{k:02d}", means[k]) for twin in "ab" for k in range(3)]
    return policies, sample_weights(2, 64, 0), 5, ("m1", "m2"), (), [(True, 0)] * 4, True


@st.composite
def refinement_cases(draw):
    # Up to four exclusions, each a candidate of the previous Top-K as a
    # refinement's rejected pick is, or any remaining policy; the table may
    # hold fewer policies than top_k plus the exclusions. The policies come
    # as a list or, as the governed run holds them, a PolicyTable.
    policies, weights, top_k, metrics, minimize = draw(top_k_cases())
    picks = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99)), max_size=4))
    return policies, weights, top_k, metrics, minimize, picks, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(refinement_cases())
@example(case=_twin_table_case())
def test_one_ranking_equals_top_k_on_the_shrunken_table(case):
    policies, weights, top_k, metrics, minimize, picks, as_table = case
    table = table_of(policies, metrics) if as_table else policies
    ranking = rank_policies(table, weights, top_k + len(picks), metrics=metrics,
                            minimize=minimize)
    excluded = []
    for from_candidates, index in [(True, 0), *picks]:
        want = collect_candidates(table, weights, top_k, metrics=metrics,
                                  minimize=minimize)
        got = ranking.top_k(top_k, excluded)
        assert got.policy_ids == want.policy_ids
        assert got.provenance == want.provenance
        assert list(got.provenance) == list(want.provenance)
        assert ranking.top_k_ids(top_k, excluded) == want.policy_ids
        pool = want.policy_ids if from_candidates else [p.policy_id for p in policies
                                                        if p.policy_id not in excluded]
        excluded.append(pool[index % len(pool)])
        if len(excluded) == len(policies):
            with pytest.raises(ValueError, match="no policies to search"):
                ranking.top_k(top_k, excluded)
            return
        table = ([p for p in table if p.policy_id != excluded[-1]] if not as_table
                 else table.take(np.arange(len(table)) != table.row(excluded[-1])))


def test_ranking_refuses_more_exclusions_than_its_depth():
    policies = [make_policy(pid, [float(k)]) for k, pid in enumerate("abcdef")]
    ranking = rank_policies(policies, np.ones((3, 1)), depth=3)
    assert ranking.rows.shape == (3, 3)
    assert ranking.top_k_ids(2, ["f"]) == ["d", "e"]
    with pytest.raises(ValueError, match="after at most 1 exclusions, not 2"):
        ranking.top_k(2, ["f", "e"])
    # A ranking that holds every policy takes any number.
    full = rank_policies(policies, np.ones((3, 1)), depth=10)
    assert full.top_k_ids(2, ["f", "e", "d", "c"]) == ["a", "b"]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 60), n_metrics=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_score_does_not_depend_on_the_rows_beside_it(n, n_metrics, seed, data):
    # Scores of the rows a shrunken table keeps, one row included, equal
    # their scores in the full table, bit for bit, so one ranking serves
    # every refinement.
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(n, n_metrics)) * 10.0 ** rng.integers(-3, 4, size=n_metrics)
    weights = sample_weights(n_metrics, 40, seed)
    keep = np.sort(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                      unique=True)))
    full = _scores(mu, weights)
    # Column-major means, as a table's columns are read, score as row-major.
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert _scores(layout(mu[keep]), weights).tobytes() == full[:, keep].tobytes()
    # Each score is the ordered multiply-add w0*mu0 + w1*mu1 + ... of its
    # row, in Python floats.
    for w, row in zip(weights[:3].tolist(), full[:3].tolist()):
        for means, score in zip(mu.tolist(), row):
            want = w[0] * means[0]
            for weight, mean in zip(w[1:], means[1:]):
                want += weight * mean
            assert score.hex() == want.hex()


# -- table persistence ----------------------------------------------------------------


def test_policy_table_round_trip(tmp_path, rng):
    outcomes = rng.normal(size=16)
    ds = two_arm_dataset(outcome=list(outcomes))
    cuts = enumerate_cuts(ds, {"features": ["f1"], "n_bins": 4})
    policies = evaluate_policies(ds, enumerate_policies(ds, cuts, budget=16))
    path = tmp_path / "table.csv"
    save_policy_table(path, build_policy_table(moments_cube(ds, cuts), cuts, budget=16))
    table, metrics = load_policy_table(path)
    assert metrics == list(ds.metrics)
    assert set(table) == {p.policy_id for p in policies}
    for policy in policies:
        for metric in metrics:
            loaded = table[policy.policy_id][metric]
            assert loaded.mean == policy.estimates[metric].mean
            assert loaded.std_err == policy.estimates[metric].std_err
