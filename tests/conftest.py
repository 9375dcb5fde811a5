import tracemalloc

import numpy as np
import pytest

from cohortpolicy.experiment import ExperimentDataset, MetricEstimate
from cohortpolicy.search import PolicyCandidate, PolicyTable


def build_dataset(feature_values, arms, outcomes, *, feature="f1", metric="m1",
                  control="control", experiment_id="test", extra_metrics=None):
    """Tiny dataset factory: parallel lists of feature value, arm, outcome."""
    actions = (control, *sorted(set(arms) - {control}))
    extra_metrics = extra_metrics or {}
    n = min(len(feature_values), len(arms), len(outcomes))  # as zip would
    return ExperimentDataset(
        experiment_id=experiment_id,
        user_ids=[f"u{i:03d}" for i in range(n)],
        arm_codes=[actions.index(arm) for arm in arms[:n]],
        feature_matrix=[feature_values[:n]],
        outcome_matrix=[outcomes[:n], *(s[:n] for s in extra_metrics.values())],
        actions=actions,
        control_action=control,
        metrics=(metric, *extra_metrics),
        features=(feature,),
    )


def shuffled(ds, order):
    """`ds` rebuilt from its columns taken in row order `order`."""
    return ExperimentDataset(
        experiment_id=ds.experiment_id, user_ids=ds.user_ids[order],
        arm_codes=ds.arm_codes[order], feature_matrix=ds.feature_matrix[:, order],
        outcome_matrix=ds.outcome_matrix[:, order],
        days=None if ds.days is None else ds.days[order],
        actions=ds.actions, control_action=ds.control_action,
        metrics=ds.metrics, features=ds.features, lift_units=ds.lift_units)


def columns_of(ds):
    """Every per-user column of `ds` as plain lists, for equality checks."""
    return (ds.user_ids.tolist(), ds.arm_codes.tolist(), ds.feature_matrix.tolist(),
            ds.outcome_matrix.tolist(), None if ds.days is None else ds.days.tolist())


def traced_peak_mb(load) -> float:
    """The traced peak of Python and numpy allocations, in MB, while
    `load()` runs."""
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def make_policy(policy_id, means, std_errs=None, metrics=None):
    """Evaluated stand-in policy for frontier and search tests."""
    metrics = metrics or [f"m{i + 1}" for i in range(len(means))]
    std_errs = std_errs if std_errs is not None else [0.0] * len(means)
    estimates = {
        m: MetricEstimate(mean=float(mu), std_err=float(se), n_treated=1, n_control=1)
        for m, mu, se in zip(metrics, means, std_errs)
    }
    return PolicyCandidate(policy_id=policy_id, cut=None,
                           assignment=("a0",), estimates=estimates)


def table_of(policies, metrics):
    """The PolicyTable of evaluated candidates' `metrics` estimates, with
    the user counts of the first metric's."""
    return PolicyTable(metrics, [p.policy_id for p in policies],
                       [p.cut.feature if p.cut is not None else "" for p in policies],
                       [p.cut.short_descriptor if p.cut is not None else "global"
                        for p in policies],
                       ["-".join(p.assignment) for p in policies],
                       [[p.estimates[m].mean for m in metrics] for p in policies],
                       [[p.estimates[m].std_err for m in metrics] for p in policies],
                       [p.estimates[metrics[0]].n_treated for p in policies],
                       [p.estimates[metrics[0]].n_control for p in policies])


@pytest.fixture
def eight_user_dataset():
    """Feature values 1..8, alternating treatment/control arms."""
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    arms = ["t1", "control"] * 4
    outcomes = [0.0] * 8
    return build_dataset(values, arms, outcomes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
