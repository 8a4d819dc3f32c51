"""What the benchmark assumes of the package, checked without running
it.  The tracer wraps named entry points at every module attribute
that binds them, so a rename or rebinding must fail here, and not only
in the tracer's slow self-test.  The fixed 2D workload must stay a run
of plain dt steps."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from sevolab.config import DEFAULTS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while building a class
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _entry_points():
    return _load("tracing").ENTRY_POINTS


@pytest.mark.parametrize(
    "home,attr,callers",
    [pytest.param(home, attr, callers, id=name)
     for name, home, attr, callers in _entry_points()],
)
def test_callers_bind_the_entry_point(home, attr, callers):
    orig = getattr(importlib.import_module(home), attr, None)
    assert orig is not None, f"{home}.{attr} is missing"
    for mod in callers:
        assert getattr(importlib.import_module(mod), attr, None) is orig, (
            f"{mod}.{attr} no longer binds {home}.{attr}")


def test_fixed_2d_workload_ends_on_its_dt_grid():
    # a fixed run whose t_end lies on the dt grid takes plain dt steps
    # only; a t_end or dt default that breaks this brings back a clipped
    # step and a one-off propagator table
    workloads = _load("workloads")
    argv = workloads.WORKLOADS["simulate-2d"].argv
    sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
    assert "options.dt_policy=fixed" in sets
    assert not any(s.startswith("options.dt=") for s in sets)
    ratio = workloads.SIM2D_T_END / DEFAULTS["blowup"]["options"]["dt"]
    assert round(ratio) > 0
    assert math.isclose(ratio, round(ratio), rel_tol=1e-12)
