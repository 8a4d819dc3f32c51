"""Pseudo-spectral exponential integrator for the coupled system.

The linear flow is applied exactly mode by mode with the closed-form
propagator from kernels; the nonlinearity |u_{l-1}|^{p_l} (component 1
is forced by component k) is evaluated pointwise in physical space
and injected through the Duhamel moment weights with one
predictor-corrector sweep, so the stepper is second order in dt while
remaining exact on linear problems.  The forcing spectrum holds only
the kept block of the 2/3 rule (|m| <= N/3 on every axis), so the
forcing is dealiased by construction: its forward transform computes
only that block, and its weights and products live on it.  The gap
between the predictor and the corrector is the local error estimate
by which adaptive runs accept, reject and size their steps.

The fields are real, so a state holds rfftn half spectra (the m >= 0
half of the last axis) and the solver uses real transforms only: the
propagator tables and the Parseval sums of norms() live on that half,
the Duhamel weights and the forcing on its kept block, and the inverse
transforms are irfftn, which returns real fields by construction.  The
full fftn layout is built only when a caller reads FieldState.u_hat or
v_hat.

A stepped state carries the spectrum of the forcing its step evaluated
at the predictor, which the next step uses in place of the forcing at
the corrected field ("first same as last", Dormand & Prince 1980): the
local error stays O(dt^3).  A nonlinear step thus costs 1 irfftn (the
predictor) + 1 forward transform of its forcing, pruned to the block.
The corrector stays a spectrum; it is transformed at most once, the
first time norms() reads its FieldState.u, and the step's error
estimate and run()'s blow-up check read the predictor and the spectral
predictor-corrector gap instead.
The records strictly inside one step are read off its interpolant as
one batch, a FieldState stacked over their times: one propagator
table build, one irfftn and one norms() call serve them all.

The box [-L, L]^n is periodic.  Free-space decay experiments are
meaningful only while the solution mass stays away from its periodic
images; drivers pick L accordingly and fit on intermediate windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataLeakage
from .exponents import SystemParams, compute_gamma
from .kernels import propagator_arrays

BLOWUP_THRESHOLD = 1e8
# adaptive runs accept a step when, in every component, the l1 bound on
# max|u_corr - u_pred| is at most STEP_TOL times max|u_pred|
STEP_TOL = 1e-4
# physical magnitudes below this are flushed to zero before |u|^p
TINY = 1e-300
# a sup decade needs this many points for a fit of the blow-up time
FIT_POINTS = 8
# the records inside one step are interpolated in batches whose four
# float64 tables (k0, k1, i1, w_new_u) take at most this many bytes,
# or one record at a time where a single record's take more
INTERP_BATCH_BYTES = 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L]^n sampled on N points per axis (N a power
    of two).  Wavevectors are xi = (pi / L) m with integer m in
    [-N/2, N/2)."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not float(self.N).is_integer():
            raise ValueError(f"N must be a whole number, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", float(self.L))
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def spatial_axes(self) -> tuple:
        return tuple(range(1, self.n + 1))

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.n

    def axes(self) -> tuple:
        x = -self.L + self.dx * np.arange(self.N)
        return (x,) * self.n

    def radius_sq(self, center: tuple = ()) -> np.ndarray:
        """|x - center|^2 at the grid nodes; () is the origin."""
        center = center or (0.0,) * self.n
        if len(center) != self.n:
            raise ValueError(f"center needs {self.n} coordinates, "
                             f"got {center}")
        r2 = np.zeros(self.shape)
        for i, x in enumerate(self.axes()):
            shape = [1] * self.n
            shape[i] = self.N
            r2 = r2 + ((x - center[i]) ** 2).reshape(shape)
        return r2

    @cached_property
    def xi_squared(self) -> np.ndarray:
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        xi = (math.pi / self.L) * m
        out = xi ** 2
        if self.n == 2:
            out = out[:, None] + out[None, :]
        return out

    def symbol(self, sigma: float) -> np.ndarray:
        """Multiplier a(xi) = |xi|^(2 sigma); a(0) = 0."""
        return self.xi_squared ** sigma

    @property
    def dealias_cut(self) -> int:
        """Largest |m| the 2/3 rule keeps on each axis: |m| <= N/3."""
        return self.N // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        m = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        keep = m <= self.dealias_cut
        if self.n == 2:
            keep = keep[:, None] & keep[None, :]
        return keep

    @cached_property
    def block_shape(self) -> tuple:
        """Shape of the kept block of the 2/3 rule on the half spectrum:
        c = dealias_cut + 1 columns m = 0..c - 1 and, in 2D, 2c - 1
        rows m = 0..c - 1, -(c - 1)..-1.  The mask is a tensor product,
        so the block is exactly its support."""
        c = self.dealias_cut + 1
        return (2 * c - 1,) * (self.n - 1) + (c,)

    @cached_property
    def block_pieces(self) -> tuple:
        """(half-spectrum index, block index) pairs that place the block
        in the rfftn half layout: one piece in 1D, and in 2D the rows
        m >= 0 and m < 0, which sit at the two ends of that layout."""
        c = self.dealias_cut + 1
        if self.n == 1:
            return ((np.s_[..., :c], np.s_[...]),)
        return ((np.s_[..., :c, :c], np.s_[..., :c, :]),
                (np.s_[..., 1 - c:, :c], np.s_[..., c:, :]))

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Last-axis weights that turn sums over an rfftn half spectrum
        into sums over the full one: 1 on the self-mirrored m = 0 and
        m = N/2 columns, 2 on the others, which stand for two."""
        return np.r_[1.0, np.full(self.N // 2 - 1, 2.0), 1.0]


@dataclass(frozen=True, eq=False)
class FieldState:
    """rfftn half spectra (u_half, v_half) of the real fields u and u_t
    of all k components at one time, complex of shape (k,) +
    grid.shape[:-1] + (N/2 + 1,).  u_hat and v_hat build the full fftn
    layout on each read, for callers; the solver never reads them.

    The records that run() reads off one step's interpolant between
    step ends (_interpolate) come as one batch: t holds their m times,
    shape (m,), u_half is stacked to shape (m, k) + grid.shape[:-1] +
    (N/2 + 1,), and v_half is None.  The other fields are set when the
    state came out of step(), else None.  nl_half is the spectrum of the
    forcing |u_{l-1}|^{p_l} at the step's predictor u_pred on the kept
    block of the 2/3 rule only, shape (k,) + grid.block_shape (see
    _nonlinearity_hat; None after a linear_only step), which the next
    step reuses.
    pred_sup holds max |u_pred_l| per component, the numbers run()'s
    blow-up check reads (for linear_only, whose steps are exact, the
    sup of the field itself).  err is the local error estimate of the
    step, the largest over components l of the l1 bound sum |g_l| / N^n
    on max |u_corr_l - u_pred_l|, with g the spectral gap between the
    corrector u_corr and u_pred, over max(pred_sup_l, TINY), so a
    component far smaller than the others still has its relative error
    bounded (0.0 for linear_only), when step() was asked for it.
    """

    t: float
    u_half: np.ndarray
    v_half: np.ndarray | None
    nl_half: np.ndarray | None = None
    pred_sup: np.ndarray | None = None
    err: float | None = None

    u_hat = property(lambda self: _full(self.u_half))
    v_hat = property(lambda self: _full(self.v_half))

    @cached_property
    def u(self) -> np.ndarray:
        """The physical field, irfftn of u_half over the axes after t's
        and the component axis, on N = 2 (h - 1) points per axis for h
        last-axis columns: one transform for a whole batch.  Computed
        on first read and kept, so u_half must not be changed after
        that; run() reads it through norms() at each record and returns
        the last record's as RunResult.u_final."""
        h, ndim = self.u_half.shape[-1], self.u_half.ndim
        first = np.ndim(self.t) + 1
        return np.fft.irfftn(self.u_half, s=(2 * (h - 1),) * (ndim - first),
                             axes=tuple(range(first, ndim)))


@dataclass(frozen=True)
class ComponentData:
    """Gaussian data bump of one component: u0 = eps amp0 g, u1 = eps
    amp1 g with g(x) = exp(-|x - center|^2 / width^2)."""

    amp0: float
    amp1: float = 0.0
    width: float = 1.0
    center: tuple = ()

    def __post_init__(self):
        for name in ("amp0", "amp1", "width"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "center",
                           tuple(float(x) for x in self.center))
        for name in ("amp0", "amp1", "width", "center"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class InitialData:
    """Per-component Gaussian bumps with a common size scale epsilon."""

    epsilon: float
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "components", tuple(self.components))
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if not self.components:
            raise ValueError("need at least one component")


def make_initial_data(grid: GridSpec, data: InitialData,
                      sigma: float) -> tuple:
    """Build the spectral state at t = 0 plus a data report.

    Returns (state, report); report carries the discrete means of u0
    and u1 per component.  sigma is not read; it stays in the signature
    for the callers that pass it.  Raises DataLeakage when a Gaussian
    tail at the box edge exceeds 1e-8 of its peak (the bump would see
    its periodic images).
    """
    k = len(data.components)
    u0 = np.zeros((k,) + grid.shape)
    u1 = np.zeros((k,) + grid.shape)
    for ell, comp in enumerate(data.components):
        g = np.exp(-grid.radius_sq(comp.center) / comp.width ** 2)
        u0[ell] = data.epsilon * comp.amp0 * g
        u1[ell] = data.epsilon * comp.amp1 * g
        # u0 and u1 are multiples of g, so g's ratio is both of theirs;
        # zero data has no tail to leak
        if data.epsilon and (comp.amp0 or comp.amp1):
            ratio = _edge_ratio(grid, g)
            if ratio > 1e-8:
                raise DataLeakage(
                    f"component {ell + 1} tail at the box edge is "
                    f"{ratio:.2e} of peak; enlarge L or shrink width"
                )
    axes = grid.spatial_axes
    state = FieldState(0.0, np.fft.rfftn(u0, axes=axes),
                       np.fft.rfftn(u1, axes=axes))
    report = {
        "means_u0": tuple(float(np.mean(u0[ell])) for ell in range(k)),
        "means_u1": tuple(float(np.mean(u1[ell])) for ell in range(k)),
    }
    return state, report


def _edge_ratio(grid: GridSpec, f: np.ndarray) -> float:
    """Largest |f| on the faces of the box over the largest |f| anywhere
    (0.0 for f = 0): how strongly a field of shape grid.shape would see
    its periodic images."""
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        return 0.0
    edge = max(float(np.max(np.abs(np.take(f, idx, axis=ax))))
               for ax in range(grid.n) for idx in (0, grid.N - 1))
    return edge / peak


def _half(arr: np.ndarray) -> np.ndarray:
    """The rfftn half (m >= 0 on the last axis) of a full-layout array.

    On grid.symbol and grid.dealias_mask this is exactly their rfftn
    layout, since both are even in m.
    """
    return arr[..., : arr.shape[-1] // 2 + 1]


def _full(half: np.ndarray) -> np.ndarray:
    """Full fftn layout of half spectra of real fields (N = 2 (h - 1) for
    h last-axis columns): the missing m < 0 columns are conj(u_hat(-m)),
    mirrored on the last axis and flipped and rolled on the others."""
    h = half.shape[-1]
    full = np.empty(half.shape[:-1] + (2 * (h - 1),), dtype=half.dtype)
    full[..., :h] = half
    tail = half[..., h - 2 : 0 : -1]
    for ax in range(1, half.ndim - 1):
        tail = np.roll(np.flip(tail, axis=ax), 1, axis=ax)
    np.conjugate(tail, out=full[..., h:])
    return full


def _block(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The kept block (grid.block_shape on the last n axes) of an array
    in the rfftn half layout, or in that layout cut to the block's
    columns, as a new array."""
    out = np.empty(half.shape[:-grid.n] + grid.block_shape, half.dtype)
    for at_half, at_block in grid.block_pieces:
        out[at_block] = half[at_half]
    return out


def _add_block(half: np.ndarray, block: np.ndarray, grid: GridSpec):
    """half += block on the block's modes, in place through views."""
    for at_half, at_block in grid.block_pieces:
        half[at_half] += block[at_block]


# step tables only: a fixed-dt run needs its dt table plus at most one
# for a last step clipped to an off-grid t_end, and an adaptive run one
# per ladder size it steps with; the interpolants of records inside a
# step build their own tables outside the cache (see _interpolate).  An
# entry holds 4 float64 half-spectrum tables and 4 on the kept block
# (1.53 MB on a 2D grid of N = 256, 55 KB on a 1D grid of N = 2048)
@lru_cache(maxsize=4)
def _tables(grid: GridSpec, sigma: float, dt: float) -> tuple:
    """Propagator tables k0, k1, dk0, dk1 on the half spectrum and
    Duhamel weights i1, w_new_u, w_old_v, w_new_v on its kept block
    (see _block).  The weights multiply a forcing spectrum, which holds
    only that block; the propagator tables act on the state.  u's
    old-forcing weight j1 / dt is i1 - w_new_u, which step() uses in
    that form."""
    a = _half(grid.symbol(sigma))
    k0, k1, dk0, dk1, i1, j1 = propagator_arrays(dt, a)
    # one block per kind of table: four tables are the size of a
    # two-component state spectrum, so on a 2D grid the blocks come from
    # the heap like the step's arrays.  One 8-row block is mmapped
    # instead, and on the simulate-2d workload it left the heap tight
    # enough to be trimmed and refaulted every other step.
    prop = np.stack((k0, k1, dk0, dk1))
    # Duhamel weights of the linear-in-time nonlinearity model, in the
    # rows i1, w_new_u = i1 - j1 / dt, w_old_v = k1 - w_new_v and
    # w_new_v = i1 / dt
    i1, j1, k1 = (_block(x, grid) for x in (i1, j1, k1))
    w = np.empty((4,) + grid.block_shape)
    w[0] = i1
    np.subtract(i1, j1 / dt, out=w[1])
    np.divide(i1, dt, out=w[3])
    np.subtract(k1, w[3], out=w[2])
    return (*prop, *w)


def _power(u: np.ndarray, p: float) -> np.ndarray:
    """|u|^p for p > 1, magnitudes <= TINY flushed to 0.  Integer p by
    repeated multiplication, which costs a fraction of a pow call."""
    au = np.abs(u)
    au = np.where(au > TINY, au, 0.0)
    if not float(p).is_integer():
        return au ** p
    out = au * au
    for _ in range(int(p) - 2):
        out *= au
    return out


def _nonlinearity_hat(u_phys, params, grid):
    """The spectrum of the forcing |u_{l-1}|^{p_l} on the kept block of
    the 2/3 rule only, bit for bit the block of its rfftn: rfft on the
    last axis keeps the block's columns, and in 2D the fft along the
    rows runs on those columns only before the block's rows are kept."""
    k = u_phys.shape[0]
    N = np.empty_like(u_phys)
    for ell in range(k):
        N[ell] = _power(u_phys[(ell - 1) % k], params.p[ell])
    Nh = np.fft.rfft(N)[..., : grid.block_shape[-1]]
    if grid.n == 2:
        Nh = np.fft.fft(Nh, axis=-2)
    return _block(Nh, grid)


def step(state: FieldState, dt: float, params: SystemParams,
         grid: GridSpec, *, linear_only: bool = False,
         estimate: bool = False) -> FieldState:
    """Advance one step of size dt.

    Linear part exact per mode; nonlinearity handled by an exponential
    predictor-corrector (second order).  The old forcing is the
    state's nl_half when set, else it is evaluated at the state's field
    (one more irfftn and forward transform).  The forcing terms are
    formed on the kept block and added into the spectra there.  With
    w_old_u + w_new_u = i1 the corrector is the predictor's spectrum
    plus the gap w_new_u (N_new - N_old), so the corrected field is
    never transformed here.  The new state carries the new forcing, the
    predictor's sup per component and, with estimate=True, the estimate
    err, which costs no transform.  Pure numerics: a step that
    overflows returns non-finite spectra or sups, and judging blow-up is
    left to run().
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k0, k1, dk0, dk1, i1, w_nu, w_ov, w_nv = _tables(grid, params.sigma, dt)
    axes = grid.spatial_axes
    uh, vh = state.u_half, state.v_half
    u_half = k0 * uh + k1 * vh
    v_half = dk0 * uh + dk1 * vh
    if not linear_only:
        Nh_old = state.nl_half
        if Nh_old is None:
            Nh_old = _nonlinearity_hat(state.u, params, grid)
        _add_block(u_half, i1 * Nh_old, grid)
    # the predictor, or for linear_only the exact new field
    u_pred = np.fft.irfftn(u_half, s=grid.shape, axes=axes)
    sup = np.max(np.abs(u_pred), axis=axes)
    if linear_only:
        return FieldState(state.t + dt, u_half, v_half, pred_sup=sup,
                          err=0.0 if estimate else None)
    Nh_new = _nonlinearity_hat(u_pred, params, grid)
    gap = w_nu * (Nh_new - Nh_old)
    _add_block(u_half, gap, grid)
    _add_block(v_half, w_ov * Nh_old, grid)
    _add_block(v_half, w_nv * Nh_new, grid)
    err = None
    if estimate:
        weights = grid.parseval_weights[: grid.block_shape[-1]]
        bound = np.sum(weights * np.abs(gap), axis=axes)
        err = float(np.max(bound / grid.N ** grid.n / np.maximum(sup, TINY)))
    return FieldState(state.t + dt, u_half, v_half, nl_half=Nh_new,
                      pred_sup=sup, err=err)


def _interpolate(old: FieldState, new: FieldState, h: float, ts,
                 params: SystemParams, grid: GridSpec) -> FieldState:
    """The batch of states at the m times ts in (old.t, old.t + h] on
    the Duhamel interpolant of the step of size h from old to new.

    With tau = t - old.t, u(t) = k0 u + k1 v + i1 N_old + (tau / h)
    w_new_u (N_new - N_old), with w_new_u = i1 - j1 / tau and the
    forcing terms on the kept block as in _tables: the exact flow of
    the forcing that is linear in time from N_old, the forcing step()
    started from, to N_new, the one at the predictor that new carries.
    At tau = h it is step()'s corrector, and it is second order like
    the step.  One propagator_arrays call on tau of shape (m, 1, ...)
    builds the tables for all m times, outside the _tables cache.  N_old is
    old.nl_half, or evaluated at old.u when unset, as step() does; a
    linear_only step (new.nl_half None) has no forcing.  The batch has
    t = ts as an array and carries u_half only.
    """
    ts = np.asarray(ts, dtype=float)
    a = _half(grid.symbol(params.sigma))
    tau = (ts - old.t).reshape((-1,) + (1,) * (a.ndim + 1))
    k0, k1, _, _, i1, j1 = propagator_arrays(tau, a)
    u_half = k0 * old.u_half + k1 * old.v_half
    if new.nl_half is not None:
        Nh_old = old.nl_half
        if Nh_old is None:
            Nh_old = _nonlinearity_hat(old.u, params, grid)
        i1, j1 = _block(i1, grid), _block(j1, grid)
        _add_block(u_half, i1 * Nh_old, grid)
        _add_block(u_half, (tau / h) * (i1 - j1 / tau)
                   * (new.nl_half - Nh_old), grid)
    return FieldState(ts, u_half, None)


def norms(grid: GridSpec, state: FieldState, sigma: float) -> dict:
    """Per-component L2, homogeneous H^sigma, sup and mean.

    L2 and |D|^sigma L2 by Parseval on the half spectrum, mean from its
    zero mode, sup in physical space from the state's field u, so it is
    the corrected field's sup.  Each reduces over the last n axes, so a
    batch (see FieldState) gets one value per record and component:
    tuples of k floats for one state, of m lists of k for a batch.
    """
    a = _half(grid.symbol(sigma))
    vol_factor = (2.0 * grid.L) ** grid.n / grid.N ** (2 * grid.n)
    sq = grid.parseval_weights * np.abs(state.u_half) ** 2
    sum_axes = tuple(range(-grid.n, 0))
    l2 = np.sqrt(vol_factor * np.sum(sq, axis=sum_axes))
    hs = np.sqrt(vol_factor * np.sum(a * sq, axis=sum_axes))
    sup = np.max(np.abs(state.u), axis=sum_axes)
    mean = state.u_half[(...,) + (0,) * grid.n].real / grid.N ** grid.n
    return {key: tuple(x.tolist()) for key, x in
            (("l2", l2), ("hsigma", hs), ("sup", sup), ("mean", mean))}


@dataclass(frozen=True)
class RunResult:
    """Norm history of one integration plus the blow-up verdict.

    Series arrays have shape (k, len(times)).  u_final is the physical
    field FieldState.u of the last record, at t_end or, after blow-up,
    at the last good state; blown_up says whether blowup_time is set.
    steps counts the accepted steps and rejected_steps the ones the
    adaptive policy retried; floor_steps counts the accepted steps
    whose estimate exceeded STEP_TOL, which the adaptive policy takes
    at its floor dt / 1024 without control; dt_min and dt_max span the
    accepted step sizes (None without any).  blowup_error is the error
    bar of blowup_time (None without blow-up): half the crossing step,
    or the distance of the last decade fit from the extrapolated time
    (see run()).  It covers that bracket or extrapolation only, not
    the error of the steps, which STEP_TOL controls and which can be
    larger.
    """

    times: np.ndarray
    l2: np.ndarray
    hsigma: np.ndarray
    sup: np.ndarray
    mean: np.ndarray
    blowup_time: float | None
    u_final: np.ndarray
    steps: int
    rejected_steps: int = 0
    floor_steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    blowup_error: float | None = None

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None


def _ladder(x: float, dt: float) -> float:
    """Largest dt * 2^(j/4), j integer, not above x (up to roundoff)."""
    return dt * 2.0 ** (math.floor(4.0 * math.log2(x / dt) + 1e-9) / 4)


def _extrapolate_blowup(history, s0: float, alpha: float, d: int):
    """Blow-up time from the self-similar rate sup ~ (T - t)^(-alpha).

    history holds the (t, sup) pairs of one component.  For each decade
    j = d - 2, d - 1, d the points with sup in [10^(j-1), 10^j] s0 fit
    the line sup^(-1/alpha) = a + b t by least squares, whose root
    -a/b is T_j.  The fits contract when D1 = T_(d-1) - T_(d-2) and
    D2 = T_d - T_(d-1) share a sign and |D2| < |D1|; Aitken's Delta^2
    process then gives T = T_d - D2^2 / (D2 - D1), with error
    |T_d - T|.  Fits with |D2| <= 1e-12 |T_d| have converged: T = T_d,
    with error max(|D1|, |D2|).  Returns (T, error), or None when a
    window holds fewer than FIT_POINTS points, the fits neither
    contract nor agree, or T is not past the last time in history.
    """
    t, sup = np.asarray(history, dtype=float).T
    roots = []
    for j in (d - 2, d - 1, d):
        sel = (sup >= 10.0 ** (j - 1) * s0) & (sup <= 10.0 ** j * s0)
        if np.count_nonzero(sel) < FIT_POINTS:
            return None
        b, a = np.polyfit(t[sel], sup[sel] ** (-1.0 / alpha), 1)
        roots.append(-a / b)
    d1, d2 = roots[1] - roots[0], roots[2] - roots[1]
    if abs(d2) <= 1e-12 * abs(roots[2]):
        # the fits agree to roundoff, as on an exact power law, where
        # the differences have no sign to read
        T, err = roots[2], max(abs(d1), abs(d2))
    elif d1 * d2 > 0 and abs(d2) < abs(d1):
        T = roots[2] - d2 * d2 / (d2 - d1)
        err = abs(roots[2] - T)
    else:
        return None
    if not T > t[-1]:
        return None
    return float(T), float(err)


def run(params: SystemParams, grid: GridSpec, data: InitialData,
        t_end: float, dt: float, *, dt_policy: str = "fixed",
        outputs: int = 64, linear_only: bool = False) -> RunResult:
    """Integrate to t_end or blow-up, recording norms on a logarithmic
    output schedule (plus t = 0 and t_end themselves), and keep the
    physical field of the last record as u_final.

    Steps are sized by dt_policy alone and end at t_end; the output
    times size none of them.  "fixed" steps with dt.
    "adaptive" controls the local error: every step carries the
    estimate err of step(), a step with err > STEP_TOL is rejected and
    retried from the same state, and the next step is h * clip(0.9
    (STEP_TOL / err)^(1/2), 1/4, 2), rounded down to the ladder dt *
    2^(j/4) (integer j) so that the propagator tables are reused, and
    never below dt / 1024, where steps are accepted whatever their
    estimate.  There is no upper bound.  So dt also sets the floor: an
    adaptive run with a large dt accepts uncontrolled steps there, and
    floor_steps counts those.  Only a step that would pass t_end is
    shortened to end there; one that reaches t_end up to roundoff keeps
    its size, so no table is built for a size that differs in its last
    bits.  steps counts accepted steps, rejected_steps the rejected
    ones, floor_steps the accepted ones over STEP_TOL, and
    dt_min/dt_max span the accepted step sizes.

    Schedule times within 1e-9 relative of 0 or t_end count as those
    records.  An accepted step records the times strictly inside it
    from its Duhamel interpolant (_interpolate), all at once in batches
    whose tables take at most INTERP_BATCH_BYTES, so the schedule does
    not change the trajectory; a step without such times builds no
    interpolant.  A step that ends at a time up to roundoff records its
    end state with that time exactly.  The fixed policy rounds each
    log-schedule time other than t_end to the nearest multiple of dt,
    dropping duplicates and times that round to 0 or past t_end, so
    that all its records fall on step ends and none is interpolated.

    Blow-up is a verdict in the result, not an exception, reached in one
    of two ways.  Near blow-up the sup of the leading component (the
    argmax of compute_gamma) follows the self-similar rate
    (T - t)^(-alpha) with alpha = 2 gamma_lead.  Let s0 be the largest peak
    |epsilon amp0| or |epsilon amp1| of the data: the linear flow
    carries u1 into u at times of order one, so data with u0 << u1 first
    grow to the scale of u1, a growth that is not the blow-up's.  Once
    the largest sup reaches 10 s0, lead and alpha are read off
    compute_gamma's cached solve (a run that never grows never solves
    for gamma), and every accepted step adds (t, sup_lead) of its
    predictor to a history; each time sup_lead first reaches 10^d s0
    for d >= 4, _extrapolate_blowup fits T on the decades d - 2, d - 1
    and d of that history and extrapolates the three fits by Aitken's
    Delta^2.  When that gives a time past the
    state's, the run stops there: blowup_time is the extrapolated T,
    blowup_error the distance of the last decade fit from it, and the
    last accepted state is the final record.  A decade with fewer than
    FIT_POINTS points gives no fit, so zero data and coarse fixed-dt
    runs (the tests' blow-up run at dt = 0.05 or 0.025, not at 0.0125)
    end on the threshold alone.

    That threshold is the safety net: the run stops at the first step
    h from a state at time t whose predictor (the one physical field a
    step holds) has a sup that is not at most BLOWUP_THRESHOLD (NaN
    and inf included), or whose corrector or carried forcing spectrum
    is not finite, as when a finite predictor's |u|^p overflows.  That
    check comes before the step's accept/reject, and numpy's overflow
    and invalid-value warnings are silenced while step() runs, since
    the check judges what they report.  blowup_time is then t + h/2,
    the midpoint of the bracket [t, t + h], with blowup_error h/2, and
    the last good state at t is the final record.
    """
    if dt_policy not in ("fixed", "adaptive"):
        raise ValueError(f"unknown dt policy {dt_policy!r}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if outputs < 0:
        raise ValueError(f"outputs must be nonnegative, got {outputs}")
    k = params.k
    if len(data.components) != k:
        raise ValueError(
            f"data has {len(data.components)} components, system has {k}"
        )
    state, _ = make_initial_data(grid, data, params.sigma)

    def near(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

    adaptive = dt_policy == "adaptive"
    start = min(max(dt, t_end * 1e-4), t_end)
    # t_end leaves the schedule before rounding, which could move it
    # onto the dt grid short of t_end
    sched = [float(x) for x in np.geomspace(start, t_end, outputs)
             if x < t_end]
    if not adaptive:
        sched = [dt * round(x / dt) for x in sched]
    events = sorted({x for x in sched if x < t_end and not near(x, t_end)
                     and not near(x, 0.0)}) + [float(t_end)]

    times, rows = [], []
    # records per interpolant batch; 32 bytes per half-spectrum point
    # hold its four float64 tables
    per_batch = max(1, INTERP_BATCH_BYTES
                    // (32 * grid.N ** (grid.n - 1) * (grid.N // 2 + 1)))

    def record(st: FieldState):
        # one state, or a batch whose t is an array of times
        times.extend(np.atleast_1d(st.t).tolist())
        rows.append(norms(grid, st, params.sigma))

    record(state)

    s0 = abs(data.epsilon) * max(max(abs(c.amp0), abs(c.amp1))
                                 for c in data.components)
    history, decade = [], 4

    dt_now = float(dt)
    dt_floor = dt / 1024.0
    t_blow = t_err = None
    steps = rejected = floor = 0
    h_min, h_max = math.inf, 0.0
    ev_idx = 0
    while state.t < t_end and not near(state.t, t_end):
        h = min(dt_now, t_end - state.t)
        if near(h, dt_now):
            h = dt_now
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(state, h, params, grid, linear_only=linear_only,
                       estimate=adaptive)
        peak = float(np.max(new.pred_sup))
        # NaN and inf fail the comparison too
        if not (peak <= BLOWUP_THRESHOLD
                and np.isfinite(new.u_half).all()
                and (linear_only or np.isfinite(new.nl_half).all())):
            t_blow, t_err = state.t + 0.5 * h, 0.5 * h
            break
        if adaptive:
            fac = (min(2.0, max(0.25, 0.9 * math.sqrt(STEP_TOL / new.err)))
                   if new.err else 2.0)
            dt_now = max(dt_floor, _ladder(h * fac, dt))
            if new.err > STEP_TOL:
                if h > dt_floor:
                    rejected += 1
                    continue
                floor += 1
        steps += 1
        h_min, h_max = min(h_min, h), max(h_max, h)
        end = ev_idx
        while events[end] < new.t and not near(events[end], new.t):
            end += 1
        # the batches live only inside record(), so they are gone
        # before the next step
        for i in range(ev_idx, end, per_batch):
            record(_interpolate(state, new, h,
                                events[i:min(end, i + per_batch)],
                                params, grid))
        ev_idx = end
        # the step-end record comes after the old state is dropped, so
        # that its field is not transformed while that state is alive
        state = new
        if near(events[ev_idx], state.t):
            state = replace(state, t=events[ev_idx])
            record(state)
            ev_idx += 1
        if s0 > 0 and peak >= 10.0 * s0:
            # solved here, not up front, so that runs which never grow
            # skip numpy's first linear solve (about 0.5 MB of RSS)
            gamma = compute_gamma(params)
            lead, alpha = gamma.argmax_index - 1, 2.0 * gamma.max
            sup = float(state.pred_sup[lead])
            history.append((state.t, sup))
            fit = None
            while fit is None and sup >= 10.0 ** decade * s0:
                fit = _extrapolate_blowup(history, s0, alpha, decade)
                decade += 1
            if fit is not None:
                t_blow, t_err = fit
                break
    # after blow-up, the last good state
    if times[-1] != state.t:
        record(state)

    return RunResult(
        times=np.array(times),
        **{key: np.vstack([r[key] for r in rows]).T for key in rows[0]},
        blowup_time=t_blow,
        u_final=state.u,
        steps=steps,
        rejected_steps=rejected,
        floor_steps=floor,
        dt_min=h_min if steps else None,
        dt_max=h_max if steps else None,
        blowup_error=t_err,
    )
