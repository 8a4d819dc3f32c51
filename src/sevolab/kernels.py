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

propagator_arrays evaluates each form only where it is kept, as is
usual for the phi-functions of exponential integrators: the factors in
t alone (e^{-t}, expm1(-t), psi2(t)) at t's own shape, the direct forms
on the whole broadcast grid, and the special forms (the seam form of
k1, the a < 1/2 forms of i1 and j1, the psi2 series) on the entries
that take them, gathered by boolean masks and scattered back.  Each
entry gets the same arithmetic, in the same order, as when every form
ran on the whole grid and np.where kept one; tests/test_kernels.py
keeps that builder and checks the tables against it bit for bit.
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


# Taylor coefficients (m + 1) / (m + 2)! of (-x)^m in psi2, for
# m = 8, ..., 0 in Horner order
_PSI2_SERIES = tuple((m + 1) / float(math.factorial(m + 2))
                     for m in range(8, -1, -1))


def _psi2(x):
    """(1 - (1 + x) e^{-x}) / x^2, entire with psi2(0) = 1/2.

    Series below |x| = 0.15, evaluated on those entries alone; the
    direct form loses ~x^2 digits to cancellation, which is harmless
    above that cut.  Returns an array, 0-d for a scalar x.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.15
    xs = np.where(small, 1.0, x)
    out = np.empty(x.shape)
    np.divide(-np.expm1(-xs) - xs * np.exp(-xs), xs * xs, out=out)
    neg = -x[small]
    series = _PSI2_SERIES[0]
    for c in _PSI2_SERIES[1:]:
        series = series * neg + c
    out[small] = series
    return out


def _grid(v, shape):
    """v broadcast to shape, as a read-only view unless it has it."""
    return v if v.shape == shape else np.broadcast_to(v, shape)


def _at(v, mask):
    """The entries of v, broadcast to mask's shape, where mask holds.

    A 0-d v against an n-d mask is returned as it is: it broadcasts
    against the other operands, which are gathered entries.
    """
    if np.ndim(v) == 0 and mask.ndim > 0:
        return v
    return _grid(v, mask.shape)[mask]


def propagator_arrays(t, a):
    """Vectorized propagator: returns (k0, k1, dk0, dk1, i1, j1).

    t and a broadcast; everything nonnegative and finite on t, a >= 0.
    t is capped at T_CAP (the exponentials have long underflowed by
    then, which is accepted behavior).  Slightly negative t is allowed:
    the closed forms continue analytically, which the residual checker
    exploits; only the roundoff clamps on the moments assume t >= 0.

    A step table (scalar t) or a record batch (t of shape (m, 1, ...))
    costs what its entries need: see the module docstring.
    """
    t = np.minimum(np.asarray(t, dtype=float), T_CAP)
    a = np.asarray(a, dtype=float)
    et = np.exp(-t)
    em1 = np.expm1(-t)

    x = (a - 1.0) * t
    shape = x.shape
    # Seam-safe form k1 = e^{-t} t phi1((a-1) t); outside the strip the
    # direct difference quotient is cheaper and safe.  The seam entries
    # divide by 1 and are then overwritten.
    seam = np.abs(x) < 0.5
    k1 = np.subtract(np.exp(-a * t), et, out=np.empty(shape))
    k1 /= np.where(seam, 1.0, 1.0 - a)
    k1[seam] = _at(et, seam) * _at(t, seam) * _phi1(x[seam])

    k0 = k1 + et
    dk0 = -a * k1
    dk1 = et - a * k1

    # i1 = int_0^t k1 and j1 = int_0^t s k1(s) ds: two algebraically
    # exact forms each, split at a = 1/2 so neither divides by a small
    # number.  The a >= 1/2 forms run on the whole grid, with a_hi = 1
    # on the other entries to keep them in range, and those entries are
    # then overwritten with the a < 1/2 forms.
    lo_a = a < 0.5
    a_hi = np.where(lo_a, 1.0, a)
    i1 = np.divide(-em1 - k1, a_hi, out=np.empty(shape))
    j1 = np.divide(k1 - t * dk1 + (1.0 + a) * (i1 - t * k1), a_hi,
                   out=np.empty(shape))
    lo = _grid(lo_a, shape)
    t_lo, a_lo = _at(t, lo), _at(a, lo)
    at_lo = a_lo * t_lo
    i1[lo] = (t_lo * _phi1(at_lo) + _at(em1, lo)) / (1.0 - a_lo)
    # one psi2 call on the a t of these entries followed by t alone
    psi = _psi2(np.concatenate([at_lo, np.ravel(t)]))
    psi_t = psi[at_lo.size:].reshape(np.shape(t))
    j1[lo] = (t_lo * t_lo * (psi[: at_lo.size] - _at(psi_t, lo))
              / (1.0 - a_lo))
    # k1 and its moments are integrals of nonnegative quantities; shave
    # off the negative roundoff residue so the invariants hold exactly.
    # In place; [()] hands a 0-d result back as a scalar.
    i1 = np.maximum(i1, 0.0, out=i1)[()]
    j1 = np.maximum(j1, 0.0, out=j1)[()]
    return k0, k1, dk0, dk1, i1, j1


def ode_residual(t, a):
    """Finite-difference residual |u'' + (1+a) u' + a u| of k0 and k1.

    Fourth-order centered stencils throughout.  The closed forms extend
    analytically to negative time, so the t = 0 endpoint needs no
    one-sided stencil; a one-sided formula's larger constant would
    drown the target tolerance in truncation error for stiff modes
    (the residual scales like h^2 a^3 there versus h^4 a^6 / (a - 1)
    here).  Returns the elementwise max over the two fundamental
    solutions; scalar in, scalar out.
    """
    h = 1e-4  # stencil spacing
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


def line_fit(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through the points
    of the float arrays x and y, from the sums of the centred samples,
    with no linear-algebra library call."""
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    slope = float(np.sum(dx * (y - ym)) / np.sum(dx * dx))
    return slope, float(ym - slope * xm)


def loglog_fit(t, y) -> tuple:
    """(slope, intercept, R^2) of the least-squares line (`line_fit`)
    through (log t, log y), for positive y.

    A series whose log varies by less than 1e-3 (a constant one
    included) has no decay content; the near-zero slope explains it to
    within that band, so its R^2 is 1.  No decay, lifespan or scaling
    fit of the experiments is that flat.
    """
    lt, ly = np.log(t), np.log(y)
    slope, intercept = line_fit(lt, ly)
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
