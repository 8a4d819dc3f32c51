"""Check that two source trees give byte-identical command-line runs.

Usage, from the root of a checkout:

    python3 tools/same_outputs.py PARENT_SRC [CHANGE_SRC]

PARENT_SRC and CHANGE_SRC are sevolab `src/` directories; CHANGE_SRC
defaults to this checkout's `src/`.  The argvs are README's `sevolab`
command lines (the ones CI runs), the benchmark's simulate-2d workload
(fixed dt), that workload under the adaptive policy, a fixed-dt
blow-up that ends on the threshold path, an adaptive blow-up whose
second component is zero, so that its steps depend on the error
estimate's scale floor, and two `exponents` runs with k >= 3, whose
chain condition is not vacuous: the first sits on its boundary.

Each argv runs as `python -m sevolab.cli ARGV` under each tree, with
`SEVOLAB_OUT` unset, so that its outputs land in its working
directory.  Both trees are copied to the same temporary path and run
from the same working directory there, one after the other: the
numbers of a run can move with the length of the paths it is run
from.  Stdout, stderr, the exit code and every file the run leaves in
its working directory are compared byte for byte.  One line is printed
per argv; the exit code is 1 if any argv differs, else 0.  A differing
JSON or CSV file whose two versions parse to the same shape (the same
text and structure, numbers aside) is named with the largest relative
difference among its numbers, so that a roundoff move reads as one.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def argvs() -> list:
    """The argvs in the order of the module docstring.  The first
    blow-up stops on the threshold, with blowup_error dt / 2, since its
    decades hold too few steps of dt = 0.05 for a fit; the second is
    simulate's system with u0 = 0 and u1 = (1e8 g, 0) on a small box."""
    readme = (ROOT / "README.md").read_text().splitlines()
    out = [shlex.split(line)[1:] for line in readme
           if line.startswith("sevolab ")]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while building a class
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    fixed = list(workloads.WORKLOADS["simulate-2d"].argv_for(0))
    i = fixed.index("options.dt_policy=fixed")
    zero = ["grid.N=64", "grid.L=10", "data.epsilon=1",
            "data.components.0.amp0=0", "data.components.0.amp1=1e8",
            "data.components.1.amp0=0", "data.components.1.amp1=0",
            "options.t_end=1"]
    out += [fixed, fixed[: i - 1] + fixed[i + 1:],
            ["simulate", "--set", "options.dt_policy=fixed"],
            ["simulate"] + [x for s in zero for x in ("--set", s)],
            ["exponents", "--p", "3.5,2,2"],
            ["exponents", "--p", "2.5,2.2,2.1,2"]]
    return out


def outcome(src: Path, argv: list, tmp: Path) -> tuple:
    """(exit code, stdout, stderr, {path: bytes} of the files written)
    of one run of argv under the tree src."""
    tree, cwd = tmp / "src", tmp / "run"
    for path in (tree, cwd):
        shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "SEVOLAB_OUT"}
    env.update(PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "sevolab.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def _shape(value, numbers: list):
    """value with each number replaced by None, the numbers appended to
    numbers in document order."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
        return None
    if isinstance(value, list):
        return [_shape(v, numbers) for v in value]
    if isinstance(value, dict):
        return {k: _shape(v, numbers) for k, v in value.items()}
    return value


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(suffix: str, data: bytes):
    """A JSON document, or a CSV file as rows of cells, each cell a
    float where it reads as one."""
    if suffix == ".json":
        return json.loads(data)
    return [[_cell(c) for c in row]
            for row in csv.reader(data.decode().splitlines())]


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b))
    return d if math.isfinite(d) else math.inf


def largest_relative_difference(name: str, a: bytes, b: bytes):
    """The largest relative difference between the numbers of two
    versions of a JSON or CSV file, or None when the file is neither,
    one version is missing (None) or they do not parse to the same
    shape."""
    suffix = Path(name).suffix
    if suffix not in (".json", ".csv") or a is None or b is None:
        return None
    try:
        doc_a, doc_b = _parse(suffix, a), _parse(suffix, b)
    except ValueError:
        return None
    na, nb = [], []
    if _shape(doc_a, na) != _shape(doc_b, nb):
        return None
    return max(map(_relative, na, nb), default=0.0)


def main(args: list) -> int:
    if len(args) not in (1, 2):
        print("usage: python3 tools/same_outputs.py PARENT_SRC [CHANGE_SRC]",
              file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    change = Path(args[1]).resolve() if len(args) == 2 else ROOT / "src"
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs():
            a = outcome(parent, argv, Path(tmp))
            b = outcome(change, argv, Path(tmp))
            parts = [name for name, x, y in zip(
                ("exit code", "stdout", "stderr"), a, b) if x != y]
            for name in sorted(a[3].keys() | b[3].keys()):
                x, y = a[3].get(name), b[3].get(name)
                if x != y:
                    d = largest_relative_difference(name, x, y)
                    parts.append(name if d is None else f"{name} (largest "
                                 f"relative difference {d:.2g})")
            differs += bool(parts)
            verdict = "DIFFERS in " + ", ".join(parts) if parts else "same"
            print(f"{verdict}: exit {a[0]}, {len(a[3])} files: "
                  f"sevolab {shlex.join(argv)}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
