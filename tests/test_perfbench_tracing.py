"""perfbench's tracer names the program's functions by module and attribute,
and reads the arguments of some of them by parameter name. These tests load
`perfbench/tracing.py` as it is and check that every name it patches still
resolves, so a rename shows here instead of in a failed traced benchmark
run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,attr,span", tracing.FUNCTIONS)
def test_traced_function_resolves(module, attr, span):
    target = getattr(importlib.import_module(f"cohortpolicy.{module}"), attr, None)
    assert callable(target), f"{span}: cohortpolicy.{module}.{attr} is gone"


@pytest.mark.parametrize("module,cls,attr,span", tracing.METHODS)
def test_traced_method_resolves(module, cls, attr, span):
    owner = getattr(importlib.import_module(f"cohortpolicy.{module}"), cls, None)
    assert owner is not None and callable(owner.__dict__.get(attr)), \
        f"{span}: cohortpolicy.{module}.{cls}.{attr} is gone"


def test_work_counters_bind_their_parameters():
    # The tracer binds each counted call's arguments by name; the policy
    # count and distinct-evaluation ratio read `policies` and `ds`.
    targets = {span: (module, attr) for module, attr, span in tracing.FUNCTIONS}
    assert set(tracing.WORK) <= set(targets)
    module, attr = targets["search.evaluate_policies"]
    fn = getattr(importlib.import_module(f"cohortpolicy.{module}"), attr)
    assert {"ds", "policies"} <= set(inspect.signature(fn).parameters)
