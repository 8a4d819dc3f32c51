"""What the benchmark assumes of the package.  The tracer wraps named
entry points at every module attribute that binds them, so a rename or
rebinding must fail here, and not only in the tracer's slow self-test.
The fixed 2D workload must stay a run of plain dt steps.  And the
workloads' runs call no LAPACK routine, whose first call in a process
raises a 1D run's peak resident memory by more than a megabyte."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sevolab.cli import PASS, VERDICT_FAILED, cli_main
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


@pytest.mark.parametrize("name", ["decay-1d", "lifespan-1d", "simulate-2d"])
def test_smoke_runs_call_no_lapack(name, tmp_path, monkeypatch):
    # gamma has a closed form and every fit is a straight line, so no
    # run needs a linear solve or a least-squares routine
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called on the run path")

    for module, attr in ((np.linalg, "solve"), (np.linalg, "lstsq"),
                         (np, "polyfit")):
        monkeypatch.setattr(module, attr, refuse)
    argv = list(_load("workloads").SMOKE[name])
    # the smoke sweep is too short for A8's slope, so a verdict may fail
    assert cli_main(argv + ["--out", str(tmp_path / "out")]) in (
        PASS, VERDICT_FAILED)
