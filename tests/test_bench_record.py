"""The BENCH_<pr>.json recorder on synthetic perfbench records, and its
source hash against perfbench's own."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_record = _load(ROOT / "tools" / "bench_record.py", "bench_record")

PARENT, CHANGE, OTHER = "a" * 64, "b" * 64, "c" * 64


def record(workload, sha, trace, values=None, layers=None, seed=0,
           check=None, failed=0):
    """One results.jsonl line as perfbench/run.py writes it."""
    if trace:
        metrics = {name: {"value": v, "unit": "count"}
                   for name, v in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": "s"}
                   for name, v in zip(bench_record.END_TO_END, values)}
    return {"correct": not failed, "attempted": 2, "failed": failed,
            "metrics": metrics,
            "samples": [{"wall_s": 0.1, "check": check}] * 2,
            "workload": workload, "seed": seed, "trace": int(trace),
            "environment": {"host": "h", "source_sha256": sha}}


@pytest.fixture
def results(tmp_path):
    slopes = {"l2_slope": -0.25}
    lines = [
        record("decay-1d", PARENT, False, (0.10, 0.20, 38.0), check=slopes),
        record("decay-1d", CHANGE, False, (0.05, 0.21, 37.0), check=slopes),
        record("decay-1d", PARENT, False, (0.12, 0.20, 38.0), check=slopes),
        record("decay-1d", CHANGE, False, (0.06, 0.19, 38.5), check=slopes),
        record("decay-1d", PARENT, False, (0.08, 0.20, 38.0), check=slopes),
        record("decay-1d", CHANGE, False, (0.09, 0.20, 38.0), check=slopes),
        record("decay-1d", PARENT, True, layers={"fft.calls": 240}),
        record("decay-1d", CHANGE, True, layers={"fft.calls": 99}),
        record("decay-1d", CHANGE, True, layers={"fft.calls": 55}),
        # another tree, another seed: neither is picked
        record("decay-1d", OTHER, False, (9.0, 9.0, 9.0)),
        record("decay-1d", CHANGE, False, (9.0, 9.0, 9.0), seed=1),
        record("simulate-2d", CHANGE, False, (1.9, 0.2, 52.0),
               check={"steps": 400}, failed=1),
    ]
    first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    first.write_text("".join(json.dumps(r) + "\n" for r in lines[:5]))
    second.write_text("".join(json.dumps(r) + "\n" for r in lines[5:]))
    return [first, second]


def test_picks_each_tree_and_reduces_its_samples(results):
    doc = bench_record.bench_record(bench_record.read_records(results), 16,
                                    PARENT, CHANGE)
    assert doc["source_sha256"] == {"parent": PARENT, "change": CHANGE}
    decay = doc["workloads"]["decay-1d"]
    assert decay["parent"]["records"] == 4
    assert decay["change"]["records"] == 5
    wall = decay["parent"]["end_to_end"]["wall_s"]
    assert wall["samples"] == [0.10, 0.12, 0.08]
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx(
        (0.09, 0.10, 0.11))
    assert decay["change"]["end_to_end"]["wall_s"]["samples"] == [
        0.05, 0.06, 0.09]
    # the last traced record; identical checks are kept once
    assert decay["parent"]["per_layer"] == {"fft.calls": 240}
    assert decay["change"]["per_layer"] == {"fft.calls": 55}
    assert decay["change"]["check"] == [{"l2_slope": -0.25}]
    assert decay["change"]["environment"]["source_sha256"] == CHANGE
    # the k-th parent record against the k-th change record
    assert decay["pairs"]["wall_s"] == {
        "pairs": 3, "change_wins": 2,
        "median_ratio": pytest.approx(0.6),
        "resolved": False, "within_bound": True}
    assert decay["pairs"]["peak_rss_mb"]["change_wins"] == 1
    # a workload one tree lacks has no pairs
    sim = doc["workloads"]["simulate-2d"]
    assert "parent" not in sim and "pairs" not in sim
    assert sim["change"]["failed_samples"] == 1
    assert sim["change"]["per_layer"] == {}


def test_cli_writes_the_file(results, tmp_path, capsys):
    out = tmp_path / "BENCH_16.json"
    assert bench_record.main([*map(str, results), "--pr", "16",
                              "--parent", PARENT, "--change", CHANGE,
                              "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == 16 and set(doc["workloads"]) == {"decay-1d",
                                                         "simulate-2d"}
    printed = capsys.readouterr().out
    assert ("change wins 2 of 3, median ratio 0.600, resolved False, "
            "within bound True") in printed
    assert bench_record.main([*map(str, results), "--pr", "16",
                              "--parent", OTHER, "--change", OTHER,
                              "--seed", "5", "--out", str(out)]) == 1


def test_hash_is_perfbench_source_hash():
    perfbench_run = ROOT / "perfbench" / "run.py"
    sys.path.insert(0, str(perfbench_run.parent))
    try:
        run = _load(perfbench_run, "perfbench_run_for_hash")
    finally:
        sys.path.remove(str(perfbench_run.parent))
    want = run._source_sha256()
    assert bench_record.source_sha256(ROOT / "src") == want
    assert bench_record.tree_hash(str(ROOT / "src")) == want
    assert bench_record.tree_hash(want) == want


BOUNDS = {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


def paired(before, after, rss=(38.0, 38.0)):
    """The pairs of alternating records with these wall_s samples and
    peak_rss_mb values, setup_s equal on both sides."""
    lines = []
    for b, a in zip(before, after):
        lines += [record("lifespan-1d", PARENT, False, (b, 0.2, rss[0])),
                  record("lifespan-1d", CHANGE, False, (a, 0.2, rss[1]))]
    doc = bench_record.bench_record(lines, 25, PARENT, CHANGE,
                                    bounds=BOUNDS)
    return doc["workloads"]["lifespan-1d"]["pairs"]


PARENT_WALL = [1.00 + 0.01 * i for i in range(10)]  # quartiles 1.0225-1.0675


@pytest.mark.parametrize("after, resolved", [
    # 9 of 10 won, medians 0.104 apart against a 0.045 spread
    ([0.9 * b for b in PARENT_WALL[:9]] + [1.2], True),
    # 8 of 10 won
    ([0.9 * b for b in PARENT_WALL[:8]] + [1.2, 1.2], False),
    # 10 of 10 won, by 0.04 in the medians, inside the spread
    ([b - 0.04 for b in PARENT_WALL], False),
])
def test_resolved_needs_nine_in_ten_and_the_spread(after, resolved):
    wall = paired(PARENT_WALL, after)["wall_s"]
    assert wall["resolved"] is resolved
    assert wall["within_bound"] is True


@pytest.mark.parametrize("rss, within", [((38.0, 41.7), True),
                                         ((38.0, 42.0), False),
                                         ((38.0, 30.0), True)])
def test_within_bound_reads_the_metric_bound(rss, within):
    got = paired(PARENT_WALL, PARENT_WALL, rss)
    assert got["peak_rss_mb"]["within_bound"] is within
    # an unchanged metric is within its bound and resolves nothing
    assert got["setup_s"]["within_bound"] is True
    assert got["setup_s"]["resolved"] is False
    assert got["setup_s"]["change_wins"] == 0


def test_bounds_come_from_the_benchmark_file():
    assert set(bench_record.read_bounds()) == set(bench_record.END_TO_END)
