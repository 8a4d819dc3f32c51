"""Write BENCH_<pr>.json: a change's benchmark records beside its parent's.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr 16 --parent PARENT \\
        [--change CHANGE] [--seed 0] [--out FILE] RESULTS.jsonl ...

Every `perfbench/run.py` call appends one record to its checkout's
`.perfbench_out/results.jsonl`, tagged with `environment.source_sha256`,
a hash of the `src/**/*.py` tree it measured.  PARENT and CHANGE name a
tree either by that hash or by a `src/` directory, which is hashed the
way perfbench hashes it; CHANGE defaults to this checkout's `src/`.
The records of both trees at the given seed are picked from the listed
files, in file order, and written per workload:

- `end_to_end`: the `wall_s`, `setup_s` and `peak_rss_mb` of each
  untraced record (perfbench's median over that record's samples),
  with their median and quartiles;
- `per_layer`: the metrics of the last traced record;
- `check`: the distinct verdict numbers of every sample;
- `environment`: that of the last record;

and, where both trees have untraced records, `pairs`: the k-th parent
record against the k-th change record, as taken when the two are run
alternately, with the number of pairs the change wins, the ratio of
the medians and two verdicts per metric:

- `resolved`: the change wins at least 9 of 10 pairs, and its median
  is below the parent's by more than the parent's quartile spread;
- `within_bound`: the change's median is at most the parent's median
  times 1 + the metric's bound in `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")  # all lower is better


def read_bounds(path=ROOT / "BENCHMARK.json") -> dict:
    """The bound of each end-to-end metric, by name."""
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def source_sha256(src: Path) -> str:
    """The hash perfbench records as environment.source_sha256."""
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_hash(spec: str) -> str:
    """spec as a source hash, or the hash of the src/ directory it names."""
    if re.fullmatch(r"[0-9a-f]{64}", spec):
        return spec
    src = Path(spec)
    if not src.is_dir():
        raise SystemExit(f"error: {spec} is neither a source hash nor a "
                         f"directory")
    return source_sha256(src)


def read_records(paths) -> list:
    records = []
    for path in paths:
        with open(path) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return records


def spread(values: list) -> dict:
    """The samples with their median and quartiles."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"samples": values, "median": median, "q1": q1, "q3": q3}


def side(records: list) -> dict:
    """What one tree's records of one workload show."""
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    checks = []
    for r in records:
        for s in r["samples"]:
            if s.get("check") is not None and s["check"] not in checks:
                checks.append(s["check"])
    return {
        "records": len(records),
        "failed_samples": sum(r["failed"] for r in records),
        "end_to_end": {
            name: spread([r["metrics"][name]["value"] for r in untraced])
            for name in END_TO_END} if untraced else {},
        "per_layer": ({name: m["value"]
                       for name, m in traced[-1]["metrics"].items()}
                      if traced else {}),
        "check": checks,
        "environment": records[-1]["environment"],
    }


def pairs(parent: dict, change: dict, bounds: dict) -> dict:
    out = {}
    for name in END_TO_END:
        before, after = parent["end_to_end"][name], change["end_to_end"][name]
        n = min(len(before["samples"]), len(after["samples"]))
        wins = sum(a < b for a, b in zip(after["samples"],
                                         before["samples"]))
        out[name] = {
            "pairs": n,
            "change_wins": wins,
            "median_ratio": after["median"] / before["median"],
            "resolved": (10 * wins >= 9 * n
                         and before["median"] - after["median"]
                         > before["q3"] - before["q1"]),
            "within_bound": (after["median"]
                             <= before["median"] * (1.0 + bounds[name])),
        }
    return out


def bench_record(records: list, pr: int, parent: str, change: str,
                 seed: int = 0, bounds: dict | None = None) -> dict:
    """The BENCH_<pr>.json document for the trees hashed parent and
    change; bounds defaults to those of BENCHMARK.json."""
    if bounds is None:
        bounds = read_bounds()
    doc = {"pr": pr, "seed": seed,
           "source_sha256": {"parent": parent, "change": change},
           "workloads": {}}
    picked = [r for r in records if r.get("seed") == seed]
    for name in dict.fromkeys(r["workload"] for r in picked):
        entry = {}
        for label, sha in (("parent", parent), ("change", change)):
            mine = [r for r in picked if r["workload"] == name
                    and r["environment"].get("source_sha256") == sha]
            if mine:
                entry[label] = side(mine)
        if not entry:
            continue
        if all(entry.get(label, {}).get("end_to_end")
               for label in ("parent", "change")):
            entry["pairs"] = pairs(entry["parent"], entry["change"],
                                   bounds)
        doc["workloads"][name] = entry
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", help="results.jsonl files")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True,
                        help="source hash or src/ directory of the parent")
    parser.add_argument("--change", default=str(ROOT / "src"),
                        help="source hash or src/ directory of the change")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    doc = bench_record(read_records(args.results), args.pr,
                       tree_hash(args.parent), tree_hash(args.change),
                       args.seed)
    if not doc["workloads"]:
        print("error: no record matches either tree", file=sys.stderr)
        return 1
    out = Path(args.out or ROOT / f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, entry in doc["workloads"].items():
        counts = ", ".join(f"{label} {entry[label]['records']}"
                           for label in ("parent", "change")
                           if label in entry)
        print(f"{name}: records {counts}")
        for metric, p in entry.get("pairs", {}).items():
            print(f"  {metric:<12} change wins {p['change_wins']} of "
                  f"{p['pairs']}, median ratio {p['median_ratio']:.3f}, "
                  f"resolved {p['resolved']}, "
                  f"within bound {p['within_bound']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
