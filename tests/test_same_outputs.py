"""The byte-identical run check of tools/same_outputs.py: its argvs, and
one run compared under the same tree and under a changed one."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_argvs_are_readme_the_2d_threshold_zero_component_and_chain_runs():
    readme = [line.split()[1:] for line in
              (ROOT / "README.md").read_text().splitlines()
              if line.startswith("sevolab ")]
    argvs = same_outputs.argvs()
    assert len(readme) == 7 and argvs[:7] == readme
    fixed, adaptive, threshold, zero, boundary, chain = argvs[7:]
    assert fixed[:2] == ["simulate", "--n"]
    assert fixed[-2:] == ["--set", "options.dt_policy=fixed"]
    assert adaptive == fixed[:-2]
    assert threshold == ["simulate", "--set", "options.dt_policy=fixed"]
    assert zero[0] == "simulate" and zero[1::2] == ["--set"] * 8
    assert "data.components.1.amp1=0" in zero
    assert "options.dt_policy=fixed" not in zero
    assert boundary == ["exponents", "--p", "3.5,2,2"]
    assert chain == ["exponents", "--p", "2.5,2.2,2.1,2"]


def test_a_run_compares_equal_only_under_the_same_code(tmp_path):
    argv = ["exponents", "--p", "2,2", "--out", "exp"]
    src = ROOT / "src"
    first = same_outputs.outcome(src, argv, tmp_path / "work")
    assert first[0] == 0 and b"gamma" in first[1]
    assert set(first[3]) == {"exp/config.json", "exp/exponents.json"}
    assert same_outputs.outcome(src, argv, tmp_path / "work") == first
    changed = tmp_path / "changed"
    shutil.copytree(src, changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "sevolab" / "__init__.py", "a") as fh:
        fh.write("print('changed')\n")
    other = same_outputs.outcome(changed, argv, tmp_path / "work")
    assert other[1] != first[1] and other[3] == first[3]


def test_numbers_of_a_same_shaped_file_give_the_largest_difference():
    diff = same_outputs.largest_relative_difference
    old = b'{"T": [54.1, 174.6], "blown_up": true, "note": "ok", "n": 4}'
    new = b'{"T": [54.1, 174.60000000000002], "blown_up": true, ' \
          b'"note": "ok", "n": 4}'
    assert diff("run/lifespan.json", old, new) == \
        abs(174.60000000000002 - 174.6) / 174.60000000000002
    assert diff("run/lifespan.json", old, old.replace(b"4}", b"4.0}")) == 0.0
    assert diff("norms.csv", b"t,l2_1\n0,1.5\n1,0.5\n",
                b"t,l2_1\n0,1.5\n1,0.75\n") == 0.25 / 0.75
    # other text, structure or rows, a missing file or another format
    # is no shape the numbers can be compared in
    assert diff("run/lifespan.json", old, old.replace(b"ok", b"no")) is None
    assert diff("run/lifespan.json", old, b'{"T": [54.1]}') is None
    assert diff("norms.csv", b"t\n0\n", b"t\n0\n1\n") is None
    assert diff("norms.csv", b"t\n0\n", None) is None
    assert diff("lifespan.svg", b"<svg>1</svg>", b"<svg>2</svg>") is None
