"""The benchmark's workloads: CLI argv, seeded inputs and verdict checks.

Each workload is one sevolab subcommand run the way a user runs it.
Seed 0 is exactly the listed argv.  Any other seed redistributes each
component's data between u0 and u1 -- amp0 is scaled by a factor f
drawn from [0.9, 1.1] and amp1 by 2 - f -- and shifts the component's
centre by at most one width on every axis, all through `--set`.  The
split keeps amp0 + amp1 fixed: the mean of u0 + u1 sets the blow-up
time, and so the step count, of the lifespan sweep, so seeds change
the inputs without changing how much work a run does.

The gate values are those of the acceptance criteria A6 and A8 and of
the seed's 2D run; they are written out here, not imported from the
tests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """The workload's verdict is not the expected one."""


def _check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_decay(out: Path) -> dict:
    """A6: component-2 L2 slope in [-0.35, -0.15], Hsigma slope in
    [-0.85, -0.65]."""
    doc = _read_json(out, "decay.json")
    l2, hs = doc["l2"][1]["slope"], doc["hsigma"][1]["slope"]
    _check(-0.35 <= l2 <= -0.15, f"component-2 L2 slope {l2:.4f}")
    _check(-0.85 <= hs <= -0.65, f"component-2 Hsigma slope {hs:.4f}")
    return {"l2_slope": l2, "hsigma_slope": hs}


def check_lifespan(out: Path) -> dict:
    """A8: monotone lifespans and |slope + 2| <= 0.3."""
    doc = _read_json(out, "lifespan.json")
    slope = doc["fit"]["slope"]
    _check(doc["monotone"] is True, "lifespans are not monotone")
    _check(abs(slope + 2.0) <= 0.3, f"lifespan slope {slope:.4f}")
    return {"slope": slope, "lifespans": doc["lifespans"]}


# Final sup of each component in the seed's fixed-dt 2D run.  The
# seed's adaptive run differs by 1e-8 relative; seeds 1-9 move it by at
# most 7e-4 (the data split differently between u0 and u1, the shifted
# profile sampled at other points), so 5e-3 sits far above both.
SIM2D_FINAL_SUP = (2.615376e-3, 2.605934e-3)
SIM2D_SUP_RTOL = 5e-3
SIM2D_T_END = 20.0


def check_simulate_2d(out: Path) -> dict:
    doc = _read_json(out, "run.json")
    _check(doc["blown_up"] is False, "the 2D run blew up")
    _check(math.isclose(doc["t_final"], SIM2D_T_END, rel_tol=1e-12),
           f"t_final {doc['t_final']!r}")
    lines = (out / "norms.csv").read_text().split()
    header, last = lines[0].split(","), lines[-1].split(",")
    sups = [float(last[header.index(f"sup_{ell + 1}")])
            for ell in range(len(SIM2D_FINAL_SUP))]
    for ell, (got, want) in enumerate(zip(sups, SIM2D_FINAL_SUP)):
        _check(abs(got - want) <= SIM2D_SUP_RTOL * want,
               f"component {ell + 1} final sup {got:.7e}, "
               f"expected {want:.7e} within {SIM2D_SUP_RTOL:g}")
    return {"steps": doc["steps"], "final_sup": sups}


@dataclass(frozen=True)
class Workload:
    argv: tuple
    dim: int
    amps: tuple          # CLI default (amp0, amp1) of each component
    check: Callable[[Path], dict]

    def argv_for(self, seed: int) -> list:
        argv = list(self.argv)
        if seed == 0:
            return argv
        rng = random.Random(seed)
        for ell, (amp0, amp1) in enumerate(self.amps):
            f = rng.uniform(0.9, 1.1)
            center = [rng.uniform(-1.0, 1.0) for _ in range(self.dim)]
            key = f"data.components.{ell}"
            argv += ["--set", f"{key}.amp0={amp0 * f!r}",
                     "--set", f"{key}.amp1={amp1 * (2.0 - f)!r}",
                     "--set", f"{key}.center={json.dumps(center)}"]
        return argv


WORKLOADS = {
    # A6: many cheap adaptive 1D steps with norms() on every step; the
    # only workload whose fits and outputs do real work.
    "decay-1d": Workload(("decay",), 1, ((1.0, 0.0), (1.0, 0.0)),
                         check_decay),
    # A8: four runs end in BlowUpDetected and a bisection, on a 4x
    # larger 1D grid; the only workload with failed steps.
    "lifespan-1d": Workload(("lifespan",), 1, ((0.25, 0.25), (0.25, 0.25)),
                            check_lifespan),
    # Few expensive fixed-dt 2D steps, bound by transforms and table
    # builds; a step-size controller must leave its step count alone.
    "simulate-2d": Workload(
        ("simulate", "--n", "2", "--p", "3,4", "--set", "grid.N=256",
         "--set", "grid.L=40", "--set", "data.epsilon=0.1",
         "--set", f"options.t_end={SIM2D_T_END:g}",
         "--set", "options.dt_policy=fixed"),
        2, ((1.0, 1.0), (1.0, 1.0)), check_simulate_2d),
}

# Tiny versions of the workloads plus one convergence study, so that
# the self-test reaches every wrapped entry point in a few seconds.
SMOKE = {
    "decay-1d": ("decay", "--set", "grid.N=64", "--set", "options.t_end=400",
                 "--set", "options.outputs=60"),
    "lifespan-1d": ("lifespan", "--set", "grid.N=256", "--set", "grid.L=40",
                    "--set", "options.epsilons=[0.5,1,2,4]"),
    "simulate-2d": ("simulate", "--n", "2", "--p", "3,4",
                    "--set", "grid.N=32", "--set", "grid.L=20",
                    "--set", "data.epsilon=0.1", "--set", "options.t_end=1"),
    "convergence": ("convergence", "--set", "grid.N=64",
                    "--set", "options.dt_ladder=[0.1,0.05,0.025]",
                    "--set", "options.dt_reference=0.0125",
                    "--set", "options.n_ladder=[32,64,128]"),
}
