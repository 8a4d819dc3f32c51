"""Acceptance suite: twelve numbered criteria, one verdict line each.

Each test prints `criterion NN PASS/FAIL: ...` and asserts the verdict,
with the runtime budget checked alongside the numerical gates.  Run
with -s to watch the lines stream; on failure the line is in the
assertion message.
"""

import time

import numpy as np
import pytest

from sevolab.errors import ConditionViolated
from sevolab.exponents import (
    SystemParams,
    gamma_max_closed_form,
    gn_theta,
)
from sevolab.harness import (
    convergence_study,
    decay_experiment,
    fit_power_law,
    lifespan_sweep,
)
from sevolab.kernels import BRANCH_DELTA, decay_profile, ode_residual, propagator_arrays
from sevolab.solver import (
    ComponentData,
    GridSpec,
    InitialData,
    make_initial_data,
    run,
)
from sevolab.testfunc import (
    check_scaling,
    check_weight_decay,
    frac_laplacian_grid,
    verify_eta_condition,
    weight_decay_exponent,
)

P34 = SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0))
P22 = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 2.0))


def _verdict(num, desc, ok, budget, elapsed, detail=""):
    tail = f" [{elapsed:.2f}s < {budget:.0f}s]"
    if detail:
        tail = f" ({detail})" + tail
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{tail}"
    print(line)
    assert ok and elapsed < budget, line


def test_01_gamma_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        p = tuple(rng.uniform(1.1, 5.0, size=k))
        params = SystemParams(n=1, sigma=1.0, k=k, p=p)
        # P holds p_1 in the top-right corner and p_l on the subdiagonal
        P = np.diag(p[1:], -1)
        P[0, -1] = p[0]
        solved = np.linalg.solve(P - np.eye(k), np.ones(k))[-1]
        closed = gamma_max_closed_form(params)
        worst = max(worst, abs(solved - closed) / abs(solved))
    _verdict(1, "closed-form gamma_k equals dense solve on 1000 systems",
             worst <= 1e-10, 1.0, time.time() - t0,
             f"worst rel err {worst:.2e}")


def test_02_kernel_ode_residual_and_seam():
    t0 = time.time()
    t = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 40)])
    a = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 41),
                        [1.0 - 1e-6, 1.0, 1.0 + 1e-6]])
    res = float(np.max(ode_residual(t[:, None], a[None, :])))
    # continuity across the internal branch switch at |a-1| = delta
    mism = 0.0
    tg = np.linspace(0.0, 50.0, 101)
    for side in (-1.0, 1.0):
        inner = 1.0 + side * BRANCH_DELTA * (1.0 - 1e-9)
        outer = 1.0 + side * BRANCH_DELTA * (1.0 + 1e-9)
        ki = propagator_arrays(tg, np.full_like(tg, inner))
        ko = propagator_arrays(tg, np.full_like(tg, outer))
        for i in (0, 1):
            mism = max(mism, float(np.max(np.abs(ki[i] - ko[i]))))
    ok = res <= 1e-6 and mism <= 1e-6
    _verdict(2, "K0/K1 ODE residual and branch continuity at the a=1 seam",
             ok, 1.0, time.time() - t0,
             f"residual {res:.2e}, seam mismatch {mism:.2e}")


def test_03_multiplier_decay_slopes():
    t0 = time.time()
    worst = 0.0
    for n, sigma in ((1, 1.0), (2, 1.0), (1, 1.5)):
        for s, regime in ((sigma, "L2L2"), (2.0 * sigma, "L2L2"),
                          (0.0, "L1L2")):
            prof = decay_profile(s, regime, n, sigma)
            worst = max(worst, abs(prof.slope - prof.expected))
    _verdict(3, "multiplier decay slopes match -s/2sigma and -n/4sigma",
             worst <= 0.05, 10.0, time.time() - t0,
             f"worst slope gap {worst:.4f}")


def test_04_linear_exactness():
    t0 = time.time()
    grid = GridSpec(n=1, N=256, L=30.0)
    data = InitialData(epsilon=1.0, components=(
        ComponentData(amp0=1.3, amp1=-0.4, width=2.0, center=(3.0,)),
        ComponentData(amp0=-0.7, amp1=0.9, width=0.8, center=(-5.0,)),
    ))
    state0, _ = make_initial_data(grid, data, P34.sigma)
    T = 7.0
    a = grid.symbol(P34.sigma)
    k0, k1, *_ = propagator_arrays(T, a)
    expected = k0[None] * state0.u_hat + k1[None] * state0.v_hat
    finals = []
    for dt in (0.1, 0.025):
        res = run(P34, grid, data, t_end=T, dt=dt, dt_policy="fixed",
                  outputs=2, linear_only=True)
        got = np.fft.fftn(res.u_final, axes=grid.spatial_axes)
        finals.append(got)
    ref_norm = np.linalg.norm(expected)
    errs = [np.linalg.norm(f - expected) / ref_norm for f in finals]
    dt_gap = np.linalg.norm(finals[0] - finals[1]) / ref_norm
    ok = max(errs) <= 1e-10 and dt_gap <= 1e-10
    _verdict(4, "linear flow equals multiplier propagation, dt-independent",
             ok, 5.0, time.time() - t0,
             f"rel errs {errs[0]:.2e}/{errs[1]:.2e}, dt gap {dt_gap:.2e}")


def test_05_temporal_order():
    t0 = time.time()
    grid = GridSpec(n=1, N=256, L=20.0)
    data = InitialData(epsilon=0.5, components=(
        ComponentData(amp0=1.0, amp1=0.5),
        ComponentData(amp0=0.8, amp1=-0.3),
    ))
    rep = convergence_study(P34, grid, data)
    ok = all(3.0 <= r <= 5.0 for r in rep.ratios)
    _verdict(5, "nonlinear self-convergence ratio 4 +- 1 under dt halving",
             ok, 60.0, time.time() - t0,
             "ratios " + "/".join(f"{r:.2f}" for r in rep.ratios))


def test_06_supercritical_decay():
    t0 = time.time()
    grid = GridSpec(n=1, N=512, L=40.0)
    data = InitialData(epsilon=1e-3, components=(
        ComponentData(amp0=1.0), ComponentData(amp0=1.0)))
    rep = decay_experiment(P34, grid, data, t_end=1e4)
    l2 = rep.l2[1].slope
    hs = rep.hsigma[1].slope
    ok = (-0.35 <= l2 <= -0.15 and -0.85 <= hs <= -0.65
          and rep.xnorm_passed and max(rep.xnorm_ratios) < 10.0)
    _verdict(6, "p=(3,4) decay to t=1e4: component-2 slopes and xnorm bound",
             ok, 600.0, time.time() - t0,
             f"l2 {l2:.4f}, hs {hs:.4f}, "
             f"xnorm max ratio {max(rep.xnorm_ratios):.2f} "
             f"on window [{rep.window[0]:.0f}, {rep.window[1]:.0f}]")


def test_07_subcritical_blowup():
    t0 = time.time()
    cap = 1000.0
    grid = GridSpec(n=1, N=1024, L=80.0)
    data = InitialData(epsilon=0.3, components=(
        ComponentData(amp0=0.25, amp1=0.25),
        ComponentData(amp0=0.25, amp1=0.25)))
    _, report = make_initial_data(grid, data, P22.sigma)
    assert min(report["means_u0"]) > 0 and min(report["means_u1"]) > 0
    res = run(P22, grid, data, t_end=cap, dt=0.05)
    ok = res.blown_up and res.blowup_time is not None \
        and res.blowup_time < cap
    _verdict(7, "p=(2,2) positive-mean data at eps=0.3 blows up before cap",
             ok, 300.0, time.time() - t0,
             f"T = {res.blowup_time:.2f}" if res.blown_up else "no blow-up")


def test_08_lifespan_scaling():
    t0 = time.time()
    grid = GridSpec(n=1, N=2048, L=160.0)
    comps = (ComponentData(amp0=0.25, amp1=0.25),
             ComponentData(amp0=0.25, amp1=0.25))
    sweep = lifespan_sweep(P22, grid, comps, (0.05, 0.1, 0.2, 0.4))
    ok = bool(sweep.fit.passed) and sweep.monotone \
        and abs(sweep.fit.slope + 2.0) <= 0.3
    _verdict(8, "lifespan sweep slope within -2 +- 0.3, monotone T",
             ok, 1800.0, time.time() - t0,
             f"slope {sweep.fit.slope:.4f}, r2 {sweep.fit.r_squared:.4f}, "
             "T = " + "/".join(f"{t:.0f}" for t in sweep.lifespans))


def test_09_scaling_identity():
    t0 = time.time()
    worst = 0.0
    for nu in (0.5, 1.0, 1.5):
        for R in (2, 4, 8):
            worst = max(worst, check_scaling(nu, R))
    refinement_ok = True
    details = []
    for nu in (0.5, 1.0, 1.5):
        base = check_scaling(nu, 2)
        fine = check_scaling(nu, 2, grid=GridSpec(n=1, N=8192, L=256.0))
        refinement_ok &= fine < base
        details.append(f"nu={nu:g}: {base:.1e}->{fine:.1e}")
    ok = worst < 1e-3 and refinement_ok
    _verdict(9, "dilation identity of the space weight under R-scaling",
             ok, 30.0, time.time() - t0,
             f"worst {worst:.2e}; refinement " + ", ".join(details))


def test_10_weight_decay_finiteness():
    t0 = time.time()
    ok = True
    details = []
    for sigma in (1.0, 1.5):
        q = weight_decay_exponent(sigma, 1)
        coarse = check_weight_decay(GridSpec(n=1, N=2048, L=64.0), sigma, q)
        fine = check_weight_decay(GridSpec(n=1, N=4096, L=64.0), sigma, q)
        drift = abs(fine - coarse) / max(fine, coarse)
        ok &= drift <= 0.10
        details.append(f"nu={sigma:g} q={q:g}: sup {fine:.4f} "
                       f"drift {drift:.2%}")
    _verdict(10, "weighted fractional-Laplacian sup stable under N doubling",
             ok, 30.0, time.time() - t0, "; ".join(details))


def test_11_eta_condition():
    t0 = time.time()
    sup = verify_eta_condition(2.0, mu=16)
    finite_ok = np.isfinite(sup) and sup > 0
    try:
        verify_eta_condition(2.0, mu=2)
        flagged = False
    except ConditionViolated:
        flagged = True
    _verdict(11, "eta condition finite at mu=16, violation flagged at mu=2",
             finite_ok and flagged, 1.0, time.time() - t0,
             f"sup {sup:.4g}")


def test_12_gagliardo_nirenberg_theta():
    t0 = time.time()
    # hand values for p=(3,4), sigma=1, n=1: theta_1l at q=p_{l+1},
    # theta_2l at q=2 p_{l+1}, cyclic wrap to p_1 for l=k
    hand = (
        (4.0, 0.25), (8.0, 0.375),   # l=1 pair (p_2 = 4)
        (3.0, 1.0 / 6.0), (6.0, 1.0 / 3.0),  # l=k pair (p_1 = 3)
    )
    exact_ok = True
    for q, want in hand:
        theta, valid = gn_theta(q=q, q1=2.0, q2=2.0, a=0.0, s=1.0, n=1)
        exact_ok &= valid and abs(theta - want) <= 1e-12

    # Gaussian dilation: u_lam(x) = u(x/lam); both sides of the
    # interpolation inequality must scale with the same power of lam
    grid = GridSpec(n=1, N=1024, L=40.0)
    x = grid.axes()[0]
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    dilation_ok = True
    details = []
    for q, theta in hand:
        lhs, rhs = [], []
        for lam in lams:
            u = np.exp(-0.5 * (x / lam) ** 2)
            lhs.append((np.sum(np.abs(u) ** q) * grid.cell_volume)
                       ** (1.0 / q))
            l2 = np.sqrt(np.sum(u ** 2) * grid.cell_volume)
            du = frac_laplacian_grid(grid, u, 0.5)  # |D|^1 u
            hs = np.sqrt(np.sum(du ** 2) * grid.cell_volume)
            rhs.append(l2 ** (1.0 - theta) * hs ** theta)
        sl = fit_power_law(lams, np.array(lhs), min_points=4).slope
        sr = fit_power_law(lams, np.array(rhs), min_points=4).slope
        want = 1.0 / q  # = n/2 - theta sigma when theta is the GN value
        dilation_ok &= abs(sl - want) <= 0.01 * max(1.0, abs(want))
        dilation_ok &= abs(sl - sr) <= 0.01 * max(abs(sl), abs(sr))
        details.append(f"q={q:g}: {sl:+.4f} vs {sr:+.4f}")
    _verdict(12, "GN theta hand values exact; dilation powers agree to 1%",
             exact_ok and dilation_ok, 10.0, time.time() - t0,
             "; ".join(details))
