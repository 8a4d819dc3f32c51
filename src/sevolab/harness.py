"""Experiment drivers that turn runs into verdicts.

Decay experiments fit norm slopes on a reported window and compare
against the predicted exponents; lifespan sweeps regress the blow-up
time against the data size; convergence studies certify the stepper's
temporal order and the grid's spectral resolution.  Every fit carries
its window, expectation and tolerance so the verdict is reproducible
from the stored numbers alone.

The decay window needs care on a periodic box: the mean mode does not
decay, so the free-space rates are emulated only transiently.  Fits
start at t = 20 (past the oscillatory transient) and stop when the
mean mode accounts for 90% of the L2 norm, i.e. when everything that
can decay has decayed into the torus floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpDuringDecayExperiment,
    EmptyWindow,
    NoBlowUpAtCap,
    NonPositiveValues,
)
from .exponents import (
    AUX_EPS,
    SystemParams,
    decay_slack,
    lifespan_exponent,
    loss_of_decay_sequence,
    predicted_decay,
)
from .kernels import loglog_fit
from .solver import GridSpec, InitialData, RunResult, make_initial_data, run
from .solver import _half

R2_GATE = 0.98
WINDOW_START = 20.0
FLOOR_FRACTION = 0.9


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law with its acceptance verdict.

    passed is None when no expected slope was supplied; otherwise
    passed <=> |slope - expected| <= tolerance and r_squared >= 0.98.
    """

    slope: float
    intercept: float
    r_squared: float
    window: tuple
    expected: float | None
    tolerance: float
    passed: bool | None


@dataclass(frozen=True)
class LifespanSweep:
    """Blow-up times against data size, with the scaling fit.

    lifespans holds None where the run hit its cap (capped flags the
    same positions); the fit uses the remaining points.
    lifespan_errors holds each time's RunResult.blowup_error, None where
    capped.
    """

    epsilons: tuple
    lifespans: tuple
    capped: tuple
    fit: FitResult
    monotone: bool
    lifespan_errors: tuple = ()


@dataclass(frozen=True)
class DecayReport:
    window: tuple
    l2: tuple
    hsigma: tuple
    xnorm_ratios: tuple
    xnorm_passed: bool
    run: RunResult


@dataclass(frozen=True)
class ConvergenceReport:
    dt_ladder: tuple
    errors: tuple
    ratios: tuple
    n_ladder: tuple
    tails: tuple


def fit_power_law(t, y, window=None, *, expected: float | None = None,
                  tolerance: float = 0.1, min_points: int = 8) -> FitResult:
    """kernels.loglog_fit of the samples inside the window, with the
    verdict against expected."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if window is None:
        window = (float(np.min(t)), float(np.max(t)))
    w0, w1 = float(window[0]), float(window[1])
    sel = (t >= w0) & (t <= w1)
    count = int(np.sum(sel))
    if count < min_points:
        raise EmptyWindow(
            f"{count} sample(s) in [{w0:.6g}, {w1:.6g}]; need {min_points}"
        )
    ts, ys = t[sel], y[sel]
    if np.any(ys <= 0.0):
        raise NonPositiveValues("series must be positive for a log-log fit")
    slope, intercept, r2 = loglog_fit(ts, ys)
    passed = None
    if expected is not None:
        passed = abs(slope - expected) <= tolerance and r2 >= R2_GATE
    return FitResult(
        slope=slope, intercept=intercept, r_squared=r2,
        window=(w0, w1), expected=expected, tolerance=tolerance,
        passed=passed,
    )


def mean_mode_cutoff(grid: GridSpec, result: RunResult) -> float:
    """First time the constant mode carries FLOOR_FRACTION of some
    component's L2 norm; end of history when it never does."""
    const_norm = (2.0 * grid.L) ** (grid.n / 2.0) * np.abs(result.mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(result.l2 > 0.0, const_norm / result.l2, 0.0)
    cut = float(result.times[-1])
    for ell in range(frac.shape[0]):
        hits = np.nonzero(frac[ell] >= FLOOR_FRACTION)[0]
        if hits.size:
            cut = min(cut, float(result.times[hits[0]]))
    return cut


def xnorm_diagnostic(result: RunResult, params: SystemParams,
                     window=None) -> dict:
    """Weighted-norm series (1+t)^(n/4s-e_l) |u_l|_L2 +
    (1+t)^(n/4s+1/2-e_l) ||D|^s u_l|_L2, with e_l the loss-of-decay
    sequence at AUX_EPS, and their max/min ratios.

    Bounded ratios certify the a-priori bound behind the decay
    statement; for subcritical data the series grows without bound,
    which is reported, not judged.  Computed from the raw exponent
    recursion, so it stays available outside the decay regime.
    """
    seq = loss_of_decay_sequence(params, AUX_EPS)
    base = params.n / (4.0 * params.sigma)
    w = 1.0 + result.times
    series = np.array([
        w ** (base - seq[ell]) * result.l2[ell]
        + w ** (base + 0.5 - seq[ell]) * result.hsigma[ell]
        for ell in range(params.k)
    ])
    if window is None:
        window = (float(result.times[0]), float(result.times[-1]))
    sel = (result.times >= window[0]) & (result.times <= window[1])
    ratios = []
    for ell in range(params.k):
        vals = series[ell][sel]
        hi = float(np.max(vals)) if vals.size else 0.0
        lo = float(np.min(vals)) if vals.size else 0.0
        if hi == 0.0:
            ratios.append(1.0)  # identically zero is trivially bounded
        elif lo == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(hi / lo)
    passed = all(r < 10.0 for r in ratios)
    return {
        "ratios": tuple(ratios),
        "passed": passed,
        "window": (float(window[0]), float(window[1])),
    }


def decay_experiment(params: SystemParams, grid: GridSpec,
                     data: InitialData, *, t_end: float = 1e4,
                     dt: float = 0.05, dt_policy: str = "adaptive",
                     window=None, fit_tolerance: float = 0.1,
                     outputs: int = 200,
                     linear_only: bool = False) -> DecayReport:
    """Run to t_end and fit every component's L2 and |D|^sigma decay.

    Expected slopes: the theory pins component k at -n/4 sigma exactly
    and leaves components l < k inside [-n/4s, -n/4s + e_l]; the fit
    targets the interval midpoint with the tolerance widened by half
    the slack, so a pass means the slope is in the interval up to the
    fit tolerance.
    """
    predicted_decay(params)  # ConditionsUnmet outside the regime
    result = run(params, grid, data, t_end, dt, dt_policy=dt_policy,
                 outputs=outputs, linear_only=linear_only)
    if result.blown_up:
        raise BlowUpDuringDecayExperiment(
            f"blow-up at t = {result.blowup_time:.6g}; epsilon too large "
            f"for a decay experiment or the system is misclassified"
        )
    if window is None:
        window = (WINDOW_START, mean_mode_cutoff(grid, result))
    slack = decay_slack(params)
    base = -params.n / (4.0 * params.sigma)
    fits_l2, fits_hs = [], []
    for ell in range(params.k):
        s = slack[ell]
        tol = fit_tolerance + 0.5 * s
        fits_l2.append(fit_power_law(
            result.times, result.l2[ell], window,
            expected=base + 0.5 * s, tolerance=tol,
        ))
        fits_hs.append(fit_power_law(
            result.times, result.hsigma[ell], window,
            expected=base - 0.5 + 0.5 * s, tolerance=tol,
        ))
    xd = xnorm_diagnostic(result, params, window)
    return DecayReport(
        window=(float(window[0]), float(window[1])),
        l2=tuple(fits_l2),
        hsigma=tuple(fits_hs),
        xnorm_ratios=xd["ratios"],
        xnorm_passed=xd["passed"],
        run=result,
    )


def lifespan_sweep(params: SystemParams, grid: GridSpec, components,
                   epsilons, *, dt: float = 0.05,
                   dt_policy: str = "adaptive", first_cap: float = 1e4,
                   cap_factor: float = 100.0,
                   fit_tolerance: float = 0.3) -> LifespanSweep:
    """Blow-up time against epsilon, fitted against the predicted
    lifespan exponent.

    The largest epsilon runs first under first_cap; its lifespan
    anchors the caps of the smaller ones through the predicted scaling
    (cap_factor times the prediction).  Runs that reach their cap are
    flagged and skipped by the fit; fewer than 4 surviving points is a
    NoBlowUpAtCap error.
    """
    for name, value in (("first_cap", first_cap), ("cap_factor", cap_factor)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value}")
    # NotSubcritical before any epsilon is checked
    expected = lifespan_exponent(params)
    # before set() and sorted(), which NaN breaks
    if not all(0 < e < math.inf for e in epsilons):
        raise ValueError(
            f"epsilons must be positive and finite, got {epsilons}")
    eps_desc = tuple(sorted(set(float(e) for e in epsilons), reverse=True))
    if len(eps_desc) < 4:
        raise ValueError(
            f"need at least 4 epsilons, got {len(eps_desc)} distinct")

    _, report = make_initial_data(
        grid, InitialData(epsilon=eps_desc[0], components=tuple(components)),
        params.sigma,
    )
    if (min(report["means_u0"]) <= 0.0 or min(report["means_u1"]) <= 0.0):
        raise NonPositiveValues(
            "lifespan sweep requires strictly positive component means "
            "in both data layers"
        )

    def detect(eps: float, cap: float):
        res = run(params, grid,
                  InitialData(epsilon=eps, components=tuple(components)),
                  t_end=cap, dt=dt, dt_policy=dt_policy, outputs=0)
        return res.blowup_time, res.blowup_error  # None, None at the cap

    lifespans, errors = {}, {}
    anchor, errors[eps_desc[0]] = detect(eps_desc[0], first_cap)
    lifespans[eps_desc[0]] = anchor

    def cap_for(eps: float) -> float:
        if anchor is None:
            return first_cap * (eps / eps_desc[0]) ** expected
        return cap_factor * anchor * (eps / eps_desc[0]) ** expected

    for e in eps_desc[1:]:
        lifespans[e], errors[e] = detect(e, cap_for(e))

    eps_ok = [e for e in eps_desc if lifespans[e] is not None]
    if len(eps_ok) < 4:
        raise NoBlowUpAtCap(
            f"only {len(eps_ok)} of {len(eps_desc)} runs blew up before "
            f"their caps; need 4 points for the scaling fit"
        )
    ts = [lifespans[e] for e in eps_ok]
    fit = fit_power_law(np.array(eps_ok), np.array(ts), expected=expected,
                        tolerance=fit_tolerance, min_points=4)
    monotone = all(a <= b * (1.0 + 1e-9) for a, b in zip(ts, ts[1:]))
    return LifespanSweep(
        epsilons=eps_desc,
        lifespans=tuple(lifespans[e] for e in eps_desc),
        capped=tuple(lifespans[e] is None for e in eps_desc),
        fit=fit,
        monotone=monotone,
        lifespan_errors=tuple(errors[e] for e in eps_desc),
    )


def convergence_study(params: SystemParams, grid: GridSpec,
                      data: InitialData, *, t_end: float = 1.0,
                      dt_ladder=(1e-2, 5e-3, 2.5e-3),
                      dt_reference: float = 3.125e-4,
                      n_ladder=(128, 256, 512),
                      linear_only: bool = False) -> ConvergenceReport:
    """Temporal self-convergence ratios and spatial spectral tails.

    Successive dt halvings should show error ratios near 4 (order 2);
    the spectral tail beyond the dealias cut should fall with N and
    vanish at the resolved end of the ladder.  The temporal leg runs
    grid at dt_reference and at each dt of dt_ladder, the spatial leg
    each N of n_ladder at dt_ladder[-1]; a ladder N equal to grid.N
    reads the temporal leg's last run, so no (grid, dt) runs twice.
    """
    if len(dt_ladder) < 3 or len(n_ladder) < 3:
        raise ValueError("need at least 3 resolutions in each ladder")

    def final_u(g: GridSpec, dt_val: float) -> np.ndarray:
        res = run(params, g, data, t_end, dt_val, outputs=0,
                  linear_only=linear_only)
        if res.blown_up:
            raise ValueError(
                "convergence run blew up; shrink the data size"
            )
        return res.u_final

    ref = final_u(grid, dt_reference)
    errors = []
    for d in dt_ladder:
        u_last = final_u(grid, d)
        errors.append(float(np.max(np.abs(u_last - ref))))
    ratios = tuple(
        errors[i] / errors[i + 1] if errors[i + 1] > 0.0 else math.inf
        for i in range(len(errors) - 1)
    )
    tails = []
    for N in n_ladder:
        g = GridSpec(n=grid.n, N=int(N), L=grid.L)
        # on grid itself this is the temporal leg's last run
        u = u_last if g == grid else final_u(g, dt_ladder[-1])
        hat = np.fft.rfftn(u, axes=g.spatial_axes)
        top = float(np.max(np.abs(hat[:, ~_half(g.dealias_mask)])))
        full = float(np.max(np.abs(hat)))
        tails.append(top / full if full > 0.0 else 0.0)
    return ConvergenceReport(
        dt_ladder=tuple(float(d) for d in dt_ladder),
        errors=tuple(errors),
        ratios=ratios,
        n_ladder=tuple(int(N) for N in n_ladder),
        tails=tuple(tails),
    )
