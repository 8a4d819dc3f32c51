"""Weighted test functions for the blow-up machinery.

A polynomially decaying radial space weight and a C^2 compactly
supported time cutoff.  The fractional Laplacian is realized spectrally
on the periodic grid, which makes two facts checkable numerically: the
dilation covariance of the weight under the operator, and the decay
order of the operator applied to the weight.  Both are certified by
grid sup-ratios rather than symbolics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditionViolated, DataLeakage, DomainError
from .solver import GridSpec, _edge_ratio, _half_symbol

INTEGER_TOL = 1e-12
CONDITION_CAP = 1e6


def _fractional_part(value: float) -> tuple:
    """(is_integer, frac) with the integer test at INTEGER_TOL."""
    frac = value - math.floor(value)
    if frac <= INTEGER_TOL or frac >= 1.0 - INTEGER_TOL:
        return True, 0.0
    return False, frac


def _check_nu(nu: float):
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")


def weight_decay_exponent(nu: float, n: int) -> float:
    """Decay order of (-Delta)^nu applied to an admissible weight.

    n + 2 nu for integer nu, else n + 2 frac(nu).  The jump at integer
    nu mirrors the dichotomy of the underlying bound; no interpolation
    is attempted.
    """
    _check_nu(nu)
    is_int, frac = _fractional_part(nu)
    return n + 2.0 * round(nu) if is_int else n + 2.0 * frac


def space_weight(radius_sq, q: float):
    """Radial weight (1 + |x|^2)^(-q/2), taking |x|^2."""
    return (1.0 + np.asarray(radius_sq, dtype=float)) ** (-0.5 * q)


def time_cutoff_derivatives(t, mu: int = 16) -> tuple:
    """(eta, eta', eta'') of the cutoff: 1 on [0, 1/2], h(2t - 1) on
    [1/2, 1] with h(s) = (1 - s^3)^mu, 0 beyond.

    h'(0) = h''(0) = 0, so the gluing at t = 1/2 is C^2; at t = 1 the
    smoothness is governed by mu (C^2 needs mu >= 3).
    """
    t = np.asarray(t, dtype=float)
    s = np.clip(2.0 * t - 1.0, 0.0, 1.0)
    core = 1.0 - s ** 3
    mid = (t > 0.5) & (t < 1.0)
    pow0 = core ** mu
    pow1 = core ** (mu - 1)
    pow2 = core ** (mu - 2) if mu >= 2 else np.zeros_like(core)
    h0 = pow0
    h1 = -3.0 * mu * s ** 2 * pow1
    h2 = (-6.0 * mu * s * pow1
          + 9.0 * mu * (mu - 1) * s ** 4 * pow2)
    eta = np.where(t <= 0.5, 1.0, np.where(mid, h0, 0.0))
    d1 = np.where(mid, 2.0 * h1, 0.0)
    d2 = np.where(mid, 4.0 * h2, 0.0)
    if eta.ndim == 0:
        return float(eta), float(d1), float(d2)
    return eta, d1, d2


def frac_laplacian_grid(grid: GridSpec, field: np.ndarray, nu: float,
                        tail_tol: float | None = 1e-10) -> np.ndarray:
    """Spectral (-Delta)^nu: multiplier |xi|^(2 nu); exact on
    band-limited fields.

    tail_tol guards against wrap-around: DataLeakage when the edge
    value exceeds tail_tol of the peak.  Pass None for weights with
    polynomial tails, where the caller controls the bias by interior
    scoring and refinement instead.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape:
        raise ValueError(
            f"field shape {field.shape} does not match grid {grid.shape}"
        )
    if tail_tol is not None:
        ratio = _edge_ratio(grid, field)
        if ratio > tail_tol:
            raise DataLeakage(
                f"field edge value is {ratio:.2e} of peak; "
                f"enlarge the box or pass tail_tol=None"
            )
    hat = np.fft.rfftn(field)
    return np.fft.irfftn(_half_symbol(grid, nu) * hat, s=grid.shape,
                         axes=range(grid.n))


def check_weight_decay(grid: GridSpec, nu: float, q: float) -> float:
    """Sup over the box interior of |(-Delta)^nu (1+|x|^2)^(-q/2)|
    weighted by (1+|x|^2)^(d/2), d the claimed decay order.

    Finiteness plus stability under grid refinement is the pass
    criterion; only |x| <= L/4 is scored because the polynomial tail
    wraps around the box.
    """
    if not q > grid.n:
        raise ValueError(f"q must exceed the dimension, got q={q}, "
                         f"n={grid.n}")
    r2 = grid.radius_sq()
    g = frac_laplacian_grid(grid, space_weight(r2, q), nu, tail_tol=None)
    d = weight_decay_exponent(nu, grid.n)
    interior = r2 <= (grid.L / 4.0) ** 2
    ratio = np.abs(g) * (1.0 + r2) ** (0.5 * d)
    return float(np.max(ratio[interior]))


def check_scaling(nu: float, R: int, grid: GridSpec | None = None) -> float:
    """Relative defect of the dilation identity
    (-Delta)^nu (psi(./R)) = R^(-2 nu) ((-Delta)^nu psi)(./R).

    Both sides are separate spectral evaluations on one grid; they are
    compared at the nodes x with x/R again a node, inside |x| <= L/4.
    R must be a power of two with 2R dividing N so that such nodes
    exist; the default grid is L = 64 R, N = 1024 R.
    """
    _check_nu(nu)
    if abs(R - round(R)) > INTEGER_TOL or round(R) < 1:
        raise ValueError(f"R must be a positive integer, got {R}")
    R = int(round(R))
    # every N is a power of two, so 2R | N needs a power-of-two R
    if R & (R - 1):
        raise ValueError(f"need a power-of-two R for node alignment, got {R}")
    if grid is None:
        grid = GridSpec(n=1, N=1024 * R, L=64.0 * R)
    if grid.N % (2 * R):
        raise ValueError(f"need 2R | N for node alignment, got N={grid.N}, "
                         f"R={R}")
    is_int, frac = _fractional_part(nu)
    q = grid.n + 2.0 * (1.0 if is_int else frac)
    r2 = grid.radius_sq()
    lhs = frac_laplacian_grid(grid, space_weight(r2 / R ** 2, q), nu,
                              tail_tol=None)
    rhs = frac_laplacian_grid(grid, space_weight(r2, q), nu, tail_tol=None)

    idx = np.arange(grid.N)
    shift = grid.N * (R - 1) // 2
    aligned = (idx + shift) % R == 0
    x = grid.axes()[0]
    scored = aligned & (np.abs(x) <= grid.L / 4.0)
    src = idx[scored]
    dst = (src + shift) // R
    a = lhs[np.ix_(*[src] * grid.n)]
    b = R ** (-2.0 * nu) * rhs[np.ix_(*[dst] * grid.n)]
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b))) / scale


def verify_eta_condition(lam: float, mu: int = 16) -> float:
    """Sup over [1/2, 1) of eta^(-lam'/lam) (|eta'|^lam' + |eta''|^lam'),
    lam' the conjugate exponent.

    A finite sup certifies the cutoff admissibility condition for this
    lam.  The scan grid accumulates toward the zero of eta, where the
    quantity behaves like (1-t)^(mu - 2 lam'); ConditionViolated names
    that exponent when the sup runs past 1e6, so mu can be raised.
    """
    if not 1.0 < lam < math.inf:
        raise DomainError(f"lam must lie in (1, inf), got {lam}")
    lam_conj = lam / (lam - 1.0)
    gap = np.geomspace(1e-8, 0.5, 4001)
    t = np.concatenate([np.array([0.0, 0.25, 0.5]), 1.0 - gap[::-1]])
    eta, d1, d2 = time_cutoff_derivatives(t, mu)
    live = eta > 0.0
    quantity = np.zeros_like(t)
    quantity[live] = eta[live] ** (-lam_conj / lam) * (
        np.abs(d1[live]) ** lam_conj + np.abs(d2[live]) ** lam_conj
    )
    sup = float(np.max(quantity))
    if not math.isfinite(sup) or sup > CONDITION_CAP:
        raise ConditionViolated(
            f"cutoff condition fails for lam={lam} (lam'={lam_conj:.3g}): "
            f"sup {sup:.3e} with growth exponent mu - 2 lam' = "
            f"{mu - 2.0 * lam_conj:.3g}; raise mu"
        )
    return sup
