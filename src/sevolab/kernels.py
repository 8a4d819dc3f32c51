"""Closed-form Fourier multipliers of the linear damped equation.

Per mode the linear equation is the scalar ODE

    u'' + (1 + a) u' + a u = 0,      a = |xi|^(2 sigma) >= 0,

whose characteristic polynomial factors as (lambda + 1)(lambda + a), so
the propagator is built from e^{-t} and e^{-at} alone.  k0/k1 are the
fundamental solutions (data (1,0) and (0,1)), dk0/dk1 their time
derivatives, and i1/j1 the zeroth and first moments of k1 that the
Duhamel stepper uses as quadrature weights.

The generic formulas divide by (1 - a) and cancel catastrophically near
the double root a = 1; every quantity here is rearranged through
expm1-based primitives so the seam is machine accurate instead of the
naive 4-term Taylor patch (same intent, strictly smaller mismatch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitUnstable

# Half-width of the double-root neighbourhood |a - 1| < BRANCH_DELTA
# whose edges the seam checks probe for continuity.  propagator_arrays
# does not branch on it: its switches are |(a - 1) t| = 0.5 and a = 0.5.
BRANCH_DELTA = 1e-4
# Times are capped here; exponentials underflow to zero long before.
T_CAP = 1e6


def _phi1(x):
    """(1 - e^{-x}) / x, the entire function with phi1(0) = 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    xs = np.where(small, 1.0, x)
    out = -np.expm1(-xs) / xs
    return np.where(small, 1.0 - x / 2.0, out)


def _psi2(x):
    """(1 - (1 + x) e^{-x}) / x^2, entire with psi2(0) = 1/2.

    Series branch below |x| = 0.15; the direct form loses ~x^2 digits
    to cancellation, which is harmless above that cut.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.15
    xs = np.where(small, 1.0, x)
    direct = (-np.expm1(-xs) - xs * np.exp(-xs)) / (xs * xs)
    # coefficients (m+1)/(m+2)! of (-x)^m
    series = np.zeros_like(x)
    for m in range(8, -1, -1):
        c = (m + 1) / float(math.factorial(m + 2))
        series = series * (-x) + c
    return np.where(small, series, direct)


def propagator_arrays(t, a):
    """Vectorized propagator: returns (k0, k1, dk0, dk1, i1, j1).

    t and a broadcast; everything nonnegative and finite on t, a >= 0.
    t is capped at T_CAP (the exponentials have long underflowed by
    then, which is accepted behavior).  Slightly negative t is allowed:
    the closed forms continue analytically, which the residual checker
    exploits; only the roundoff clamps on the moments assume t >= 0.
    """
    t = np.minimum(np.asarray(t, dtype=float), T_CAP)
    a = np.asarray(a, dtype=float)
    t, a = np.broadcast_arrays(t, a)

    et = np.exp(-t)
    x = (a - 1.0) * t
    # Seam-safe form k1 = e^{-t} t phi1((a-1) t); outside the strip the
    # direct difference quotient is cheaper and safe.
    seam = np.abs(x) < 0.5
    one_minus_a = np.where(seam, 1.0, 1.0 - a)
    k1_direct = (np.exp(-a * t) - et) / one_minus_a
    # where() evaluates both branches, so keep phi1's argument in range
    k1 = np.where(seam, et * t * _phi1(np.where(seam, x, 0.0)), k1_direct)

    k0 = k1 + et
    dk0 = -a * k1
    dk1 = et - a * k1

    # i1 = int_0^t k1: two algebraically exact forms, split at a = 1/2
    # so neither divides by a small number.
    lo = a < 0.5
    a_lo = np.where(lo, a, 0.0)
    a_hi = np.where(lo, 1.0, a)
    i1_lo = (t * _phi1(a_lo * t) + np.expm1(-t)) / (1.0 - a_lo)
    i1_hi = (-np.expm1(-t) - k1) / a_hi
    i1 = np.where(lo, i1_lo, i1_hi)

    # j1 = int_0^t s k1(s) ds, same splitting.
    j1_lo = t * t * (_psi2(a_lo * t) - _psi2(t)) / (1.0 - a_lo)
    j1_hi = (k1 - t * dk1 + (1.0 + a) * (i1 - t * k1)) / a_hi
    j1 = np.where(lo, j1_lo, j1_hi)
    # k1 and its moments are integrals of nonnegative quantities; shave
    # off the negative roundoff residue so the invariants hold exactly.
    i1 = np.maximum(i1, 0.0)
    j1 = np.maximum(j1, 0.0)
    return k0, k1, dk0, dk1, i1, j1


def ode_residual(t, a, h: float = 1e-4):
    """Finite-difference residual |u'' + (1+a) u' + a u| of k0 and k1.

    Fourth-order centered stencils throughout.  The closed forms extend
    analytically to negative time, so the t = 0 endpoint needs no
    one-sided stencil; a one-sided formula's larger constant would
    drown the target tolerance in truncation error for stiff modes
    (the residual scales like h^2 a^3 there versus h^4 a^6 / (a - 1)
    here).  Returns the elementwise max over the two fundamental
    solutions; scalar in, scalar out.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    t, a = np.broadcast_arrays(t, a)

    def samples(tt):
        vals = propagator_arrays(tt, a)
        return vals[0], vals[1]

    u0 = samples(t)
    dd = [-30.0 * u for u in u0]
    d = [np.zeros_like(u) for u in u0]
    for off, cdd, cd in zip((-2.0, -1.0, 1.0, 2.0),
                            (-1.0, 16.0, 16.0, -1.0),
                            (1.0, -8.0, 8.0, -1.0)):
        us = samples(t + off * h)
        for i in (0, 1):
            dd[i] = dd[i] + cdd * us[i]
            d[i] = d[i] + cd * us[i]
    res = [np.abs(dd[i] / (12.0 * h * h) + (1.0 + a) * d[i] / (12.0 * h)
                  + a * u0[i]) for i in (0, 1)]
    out = np.maximum(res[0], res[1])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProfileFit:
    """Log-log slope of a multiplier decay profile."""

    slope: float
    r_squared: float
    expected: float
    t: tuple
    values: tuple


def loglog_fit(t, y) -> tuple:
    """(slope, intercept, R^2) of the least-squares line through
    (log t, log y), for positive y.

    A series whose log varies by less than 1e-3 (a constant one
    included) has no decay content; the near-zero slope explains it to
    within that band, so its R^2 is 1.  No decay, lifespan or scaling
    fit of the experiments is that flat.
    """
    lt, ly = np.log(t), np.log(y)
    slope, intercept = map(float, np.polyfit(lt, ly, 1))
    if float(np.ptp(ly)) < 1e-3:
        return slope, intercept, 1.0
    fitted = slope * lt + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot


def decay_profile(s: float, regime: str, n: int, sigma: float,
                  t_grid=None) -> ProfileFit:
    """Fit the time decay of the k1 multiplier at derivative weight s.

    regime "L2L2": sup over a >= 0 of a^{s/(2 sigma)} |k1(t, a)| on a
    log-spaced a grid; the expected slope is -s/(2 sigma) (bounded-data
    estimate, no low-frequency gain).

    regime "L1L2": low-frequency L2 mass (integral of |k1|^2 over
    |xi| <= 1)^(1/2) by radial log-uniform quadrature; expected slope
    -n/(4 sigma) (integrable-data estimate).

    The fit must explain the profile (R^2 >= 0.99) or FitUnstable.
    """
    if t_grid is None:
        t_grid = np.geomspace(10.0, 1000.0, 41)
    t_grid = np.asarray(t_grid, dtype=float)
    if regime == "L2L2":
        agrid = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 600)])
        _, k1, *_ = propagator_arrays(t_grid[:, None], agrid[None, :])
        weight = np.where(agrid > 0, agrid, 1.0) ** (s / (2.0 * sigma))
        if s > 0:
            weight[0] = 0.0
        vals = np.max(weight[None, :] * np.abs(k1), axis=1)
        expected = -s / (2.0 * sigma)
    elif regime == "L1L2":
        rho = np.geomspace(1e-6, 1.0, 2048)
        _, k1, *_ = propagator_arrays(t_grid[:, None],
                                      rho[None, :] ** (2.0 * sigma))
        omega = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)  # |S^(n-1)|
        # integrate f rho^{n-1} d rho = f rho^n d(log rho)
        integrand = np.abs(k1) ** 2 * rho[None, :] ** n
        vals = np.sqrt(omega * np.trapezoid(integrand, np.log(rho),
                                            axis=1))
        expected = -n / (4.0 * sigma)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    slope, _, r2 = loglog_fit(t_grid, vals)
    if r2 < 0.99:
        raise FitUnstable(
            f"decay profile fit untrusted: R^2 = {r2:.4f} < 0.99"
        )
    return ProfileFit(slope=slope, r_squared=r2, expected=expected,
                      t=tuple(t_grid), values=tuple(vals))
