"""The benchmark's tracer wraps named entry points at every module
attribute that binds them.  A rename or rebinding in the package must
fail here, without installing the tracer, and not only in the tracer's
slow self-test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


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
