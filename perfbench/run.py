"""sevolab benchmark: time to a written verdict on three CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Every sample is one `sevolab.cli.cli_main(argv)` call in a fresh
interpreter (perfbench/worker.py) with one BLAS/OpenMP thread, writing
to a throwaway output directory that is checked and then deleted.
Samples run one at a time; the parent moves each worker round the
usable CPUs twice a second (see Sampler._wait_moving).

--trace 0 spawns one warm-up and five set-up-only interpreters, then
runs the workload twice, and again while another repeat still fits in
S seconds.  It reports the medians of wall_s, setup_s (over every
interpreter) and peak_rss_mb.

--trace 1 runs the workload once untraced and once traced and reports
the per-layer metrics of the traced call; trace.overhead_s is the
traced wall time minus the untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A sample fails when the CLI
exits non-zero or its verdict check fails; failed samples are counted,
never dropped.  Every result, with its argv and host details, is also
appended to .perfbench_out/results.jsonl, and the spans of the last
traced call of each workload and seed go to .perfbench_out/.

--self-test runs tiny versions of the workloads and checks that every
metric of BENCHMARK.json is reported with its unit, that
predictions.json covers every per-layer metric, and that every wrapped
entry point was called at least once.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import CLI_SPAN, ENTRY_POINTS, FFT_SPAN
from workloads import SMOKE, WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_RUNS = 2  # so one slow sample cannot decide a median alone
DEADLINE_S = 170.0  # a run must end within 180 s
MOVE_EVERY_S = 0.5  # a running worker changes CPU this often

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.step.calls": "count",
    "solver.step.raised": "count",
    "solver.step.self_s": "s",
    "solver.step.median_ms": "ms",
    "solver.norms.calls": "count",
    "solver.norms.self_s": "s",
    "solver.run.self_s": "s",
    "solver.tables.builds": "count",
    "solver.tables.lookups": "count",
    "solver.tables.hit_ratio": "ratio",
    "kernels.propagator_arrays.total_s": "s",
    "kernels.propagator_arrays.points": "count",
    "fft.calls": "count",
    "fft.per_step": "1/step",
    "fft.total_s": "s",
    "fft.bytes_computed": "B",
    "harness.self_s": "s",
    "harness.fit_power_law.calls": "count",
    "outputs.total_s": "s",
    "outputs.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A sample could not be taken, so no result can be reported."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Sampler:
    """Spawns worker interpreters one at a time inside a deadline."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def sample(self, argv, mode: str, check=None, spans=None) -> dict:
        """One worker call.  Raises BenchError when the worker itself
        failed; a CLI exit code or verdict that is wrong only marks the
        sample as failed."""
        self.count += 1
        tag = f"s{self.count}"
        out = self.tmp / f"{tag}-out"
        argv = list(argv) + ["--out", str(out)]
        request = self.tmp / f"{tag}-request.json"
        result = self.tmp / f"{tag}-result.json"
        stderr = self.tmp / f"{tag}-stderr.txt"
        if self.deadline - time.monotonic() <= 1.0:
            raise BenchError("out of time before the sample could start")
        spawn = time.monotonic()
        request.write_text(json.dumps({
            "argv": argv, "mode": mode, "spawn": spawn, "out": str(out),
            "result": str(result), "spans": spans and str(spans)}))
        with stderr.open("w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(request)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                returncode = self._wait_moving(proc, self.deadline)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if returncode is None:
            raise BenchError(f"{mode} sample passed the deadline")
        elapsed = time.monotonic() - spawn
        if returncode != 0 or not result.exists():
            tail = stderr.read_text()[-2000:]
            raise BenchError(f"worker exited {returncode}:\n{tail}")
        res = json.loads(result.read_text())
        res["elapsed_s"] = elapsed
        if mode != "setup":
            res["failure"] = _verdict(res, out, check)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _wait_moving(self, proc, deadline: float):
        """Wait for the worker, moving it to the next usable CPU every
        MOVE_EVERY_S seconds; the return code, or None at the deadline.

        The host slows each vCPU by up to 1.7x, independently and for
        stretches of seconds to minutes.  A worker left on one vCPU
        takes that vCPU's state for its whole run; moved round all of
        them, each sample averages their states.  Successive samples
        start on successive CPUs, so the short set-up-only ones spread
        over them too."""
        turn = self.count
        while True:
            if len(self.cpus) > 1:
                try:
                    os.sched_setaffinity(
                        proc.pid, {self.cpus[turn % len(self.cpus)]})
                except ProcessLookupError:
                    pass  # the worker has just exited
                turn += 1
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            try:
                return proc.wait(timeout=min(MOVE_EVERY_S, left))
            except subprocess.TimeoutExpired:
                continue


def _verdict(res: dict, out: Path, check):
    """None when the sample passed, else why it failed."""
    if res["rc"] != 0:
        return f"exit code {res['rc']}"
    try:
        if check is not None:
            res["check"] = check(out)
        run_json = out / "run.json"
        if "layers" in res and run_json.exists():
            # without a blow-up, no failed step or bisection probe
            doc = json.loads(run_json.read_text())
            steps = doc["steps"]
            calls = res["layers"]["solver.step.calls"]
            if not doc["blown_up"] and calls != steps:
                raise CheckFailed(
                    f"traced solver.step.calls {calls} != run.json steps "
                    f"{steps}")
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        return f"check: {exc}"
    return None


def measure(argv, check, seconds: float, trace: bool, deadline: float,
            spans: Path | None = None) -> dict:
    """Samples of one workload; returns the result record."""
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        sampler = Sampler(Path(tmp), deadline)
        runs = []
        if trace:
            runs.append(sampler.sample(argv, "run", check))
            traced = sampler.sample(argv, "trace", check, spans)
            runs.append(traced)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = (traced["wall_s"]
                                           - runs[0]["wall_s"])
            units = PER_LAYER
            setups = []
        else:
            end = time.monotonic() + seconds
            sampler.sample(argv, "setup")  # warm-up: byte code, page cache
            setups = [sampler.sample(argv, "setup")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            while True:
                runs.append(sampler.sample(argv, "run", check))
                per_run = statistics.median(r["elapsed_s"] for r in runs)
                due = time.monotonic() + per_run
                if due > deadline - 5.0 or (len(runs) >= MIN_RUNS
                                             and due > end):
                    break
            setups += [r["setup_s"] for r in runs]
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(
                    r["maxrss_kb"] * 1024 / 1e6 for r in runs),
            }
            units = END_TO_END
    failed = sum(1 for r in runs if r["failure"] is not None)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "samples": [
            {k: r.get(k) for k in ("wall_s", "setup_s", "maxrss_kb", "rc",
                                   "failure", "check", "elapsed_s")}
            for r in runs],
        "setup_samples": setups,
        "calls": next((r["calls"] for r in runs if "calls" in r), None),
    }


def _report(record: dict):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    print("argv: sevolab " + " ".join(record["argv"]))
    env = record["environment"]
    print("host {host} nproc {nproc} python {python} numpy {numpy} "
          "scipy {scipy} git {git_sha}".format(**env))
    for i, s in enumerate(record["samples"]):
        print(f"  sample {i + 1}: wall {s['wall_s']:.4f} s "
              f"setup {s['setup_s']:.4f} s rc {s['rc']} "
              + ("ok" if s["failure"] is None else f"FAILED ({s['failure']})"))
    n_runs, n_setup = len(record["samples"]), len(record["setup_samples"])
    for name, m in record["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {n_setup})"
        elif name in ("wall_s", "peak_rss_mb"):
            note = f"  (median of {n_runs})"
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}{note}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    argv = workload.argv_for(seed)
    spans = SCRATCH / f"spans-{name}-seed{seed}.csv.gz" if trace else None
    deadline = time.monotonic() + DEADLINE_S
    try:
        record = measure(argv, workload.check, seconds, trace, deadline,
                         spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), argv=argv, environment=environment())
    with (SCRATCH / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    _report(record)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def self_test() -> int:
    """Smoke run on tiny inputs; returns the number of problems."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print(f"FAIL {message}")

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == END_TO_END, f"end_to_end in BENCHMARK.json: {e2e}")
    expect(per_layer == PER_LAYER, f"per_layer in BENCHMARK.json: "
           f"{sorted(set(per_layer) ^ set(PER_LAYER))}")
    expect(set(predictions) == set(PER_LAYER),
           f"predictions.json vs per-layer metrics: "
           f"{sorted(set(predictions) ^ set(PER_LAYER))}")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workloads in BENCHMARK.json")

    calls = {}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for name, argv in SMOKE.items():
            for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
                if name not in WORKLOADS and not trace:
                    continue
                deadline = time.monotonic() + DEADLINE_S
                try:
                    rec = measure(argv, None, 1, trace, deadline,
                                  Path(tmp) / "spans.csv.gz")
                except BenchError as exc:
                    expect(False, f"{name} trace={int(trace)}: {exc}")
                    continue
                got = {k: v["unit"] for k, v in rec["metrics"].items()}
                expect(got == units, f"{name} trace={int(trace)} metrics")
                expect(all(isinstance(v["value"], (int, float))
                           for v in rec["metrics"].values()),
                       f"{name} trace={int(trace)} values")
                # tiny inputs may fail a verdict (exit 2), never error out
                expect(all(s["rc"] in (0, 2) for s in rec["samples"]),
                       f"{name} trace={int(trace)}: "
                       f"{[s['failure'] for s in rec['samples']]}")
                for key, n in (rec["calls"] or {}).items():
                    calls[key] = calls.get(key, 0) + n
                print(f"ok {name} trace={int(trace)}: "
                      + ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                  for k, v in rec["metrics"].items()))
    required = [f"{span}@{site}" for span, _, _, sites in ENTRY_POINTS
                for site in sites]
    for key in required + [f"{CLI_SPAN}@perfbench"]:
        expect(calls.get(key, 0) > 0, f"no call through {key}")
    expect(sum(n for k, n in calls.items()
               if k.startswith(FFT_SPAN + "@")) > 0, "no transform call")
    print(f"self-test: {len(problems)} problem(s)")
    return len(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "sevolab" / "cli.py").is_file():
        print(f"error: no sevolab source under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    if args.self_test:
        return 1 if self_test() else 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
