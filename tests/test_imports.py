"""What importing the package, its exponent calculus and its command
line loads, each checked in a fresh interpreter: the package root loads
no submodule, the closed-form exponent calculus needs neither numpy nor
the solver, and the command line leaves out hashlib, whose OpenSSL
backend maps libcrypto into every run."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def loaded(module: str) -> set:
    """Names in sys.modules, after `import module` in a fresh
    interpreter, that the import added."""
    code = (f"import json, sys; before = set(sys.modules); import {module}; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_the_package_root_loads_no_submodule():
    assert {m for m in loaded("sevolab") if m.startswith("sevolab")} == \
        {"sevolab"}


def test_the_exponent_calculus_loads_neither_numpy_nor_the_solver():
    new = loaded("sevolab.exponents")
    assert {m for m in new if m.startswith("sevolab")} == \
        {"sevolab", "sevolab.errors", "sevolab.exponents"}
    assert not {m for m in new if m.split(".")[0] == "numpy"}


def test_the_command_line_loads_no_hashlib():
    assert not loaded("sevolab.cli") & {"hashlib", "_hashlib"}
