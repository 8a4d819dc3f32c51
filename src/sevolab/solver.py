"""Pseudo-spectral exponential integrator for the coupled system.

The linear flow is applied exactly per mode on u and z = u_t + a u,
a = |xi|^(2 sigma), as u' = -a u + z and z' = -z + f, whose weights in
z are scalars; the nonlinearity f = |u_{l-1}|^{p_l} (component 1
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
transforms are irfftn (in step(), its ifft and irfft per pass), which
returns real fields by construction.  The full fftn layout is
built only when a caller reads FieldState.u_hat or v_hat.

A stepped state carries the spectrum of the forcing its step evaluated
at the predictor, which the next step uses in place of the forcing at
the corrected field ("first same as last", Dormand & Prince 1980): the
local error stays O(dt^3).  A nonlinear step thus costs one inverse
transform (the predictors) and one forward transform of the forcing
they drive, pruned to the block, per pass of its components through a
scratch workspace that every step on the grid reuses (_workspace), so
a step allocates little beyond the state it returns.  A pass takes all
k components of a 1D grid where their buffers fit BATCH_BYTES, else
one, and makes one numpy call per operation for them.
The corrector stays a spectrum, and no state keeps a physical field:
the step's error estimate and run()'s blow-up check read the predictor
and the spectral predictor-corrector gap, a record's sup is read off
its field in the same workspace passes, and so is the forcing at the
initial data, which no step has evaluated.  Only FieldState.u, which
run() reads once for u_final, allocates a field.

The box [-L, L]^n is periodic.  Free-space decay experiments are
meaningful only while the solution mass stays away from its periodic
images; drivers pick L accordingly and fit on intermediate windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .errors import DataLeakage
from .exponents import SystemParams, compute_gamma
from .kernels import line_fit, propagator_arrays

BLOWUP_THRESHOLD = 1e8
# adaptive runs accept a step when, in every component, the l1 bound on
# max|u_corr - u_pred| is at most STEP_TOL times its scale (_relative_max)
STEP_TOL = 1e-4
# scales are max|u_pred| floored at SCALE_FLOOR times the largest, so a
# vanishing component's estimate stays finite (default runs never reach it)
SCALE_FLOOR = 1e-8
# physical magnitudes up to this are flushed to zero before |u|^p for a
# non-integer p, whose power of them can be subnormal; integer powers of
# them underflow to +0.0 unflushed (see _power); the estimate's least scale
TINY = 1e-300
# a sup decade needs this many points for a fit of the blow-up time
FIT_POINTS = 8
# the bytes batched scratch may take, past which it goes one item at a
# time: a step's pass of all components (_workspace) and a batch of the
# records inside one step (four float64 tables ea, k1, i1, w_new_u each)
BATCH_BYTES = 2 ** 20
# the bytes of the step tables one grid keeps (see _workspace)
TABLE_BYTES = 2 ** 23


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

    @cached_property
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

    @property
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
    """rfftn half spectra (u_half, z_half) of the real fields u and
    z = u_t + a u of all k components at one time, complex of shape
    (k,) + grid.shape[:-1] + (N/2 + 1,), and a_half, the half symbol a.
    u_hat and v_hat build the full fftn layout of u and u_t = z - a u
    on each read, for callers; the solver never reads them.

    The records that run() reads off one step's interpolant between
    step ends (_interpolate) come as one batch: t holds their m times,
    shape (m,), u_half is stacked to shape (m, k) + grid.shape[:-1] +
    (N/2 + 1,), and z_half is None.  The other fields are set when the
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
    corrector u_corr and u_pred, over its scale (_relative_max): 0.0 for
    linear_only and zero data, NaN when any component's bound or sup is.
    """

    t: float
    u_half: np.ndarray
    z_half: np.ndarray | None
    a_half: np.ndarray
    nl_half: np.ndarray | None = None
    pred_sup: np.ndarray | None = None
    err: float | None = None

    u_hat = property(lambda s: _full(s.u_half))
    v_hat = property(lambda s: _full(s.z_half - s.a_half * s.u_half))

    @property
    def u(self) -> np.ndarray:
        """The physical field, irfftn of u_half over the axes after t's
        and the component axis, on N = 2 (h - 1) points per axis for h
        last-axis columns: one transform for a whole batch.  A new array
        on each read; nothing is kept."""
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
    and u1 per component; the state's z is u1 + a u0 for a of sigma.
    Raises DataLeakage when a Gaussian tail at the box edge exceeds
    1e-8 of its peak (the bump would see its periodic images).
    """
    k = len(data.components)
    u0, u1 = fields = np.zeros((2, k) + grid.shape)
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
    u_half, z_half = np.fft.rfftn(fields, axes=tuple(range(2, grid.n + 2)))
    a = _half_symbol(grid, sigma)
    z_half += a * u_half
    state = FieldState(0.0, u_half, z_half, a)
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


@lru_cache(maxsize=4)
def _half_symbol(grid: GridSpec, sigma: float) -> np.ndarray:
    """_half(grid.symbol(sigma)), contiguous and read-only, computed once
    per grid and sigma."""
    a = np.ascontiguousarray(_half(grid.symbol(sigma)))
    a.flags.writeable = False
    return a


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


def _block(half: np.ndarray, grid: GridSpec, out=None) -> np.ndarray:
    """The kept block (grid.block_shape on the last n axes) of an array
    in the rfftn half layout, or in that layout cut to the block's
    columns, into out (a new array when None)."""
    if out is None:
        out = np.empty(half.shape[:-grid.n] + grid.block_shape, half.dtype)
    for at_half, at_block in grid.block_pieces:
        out[at_block] = half[at_half]
    return out


def _add_block(half: np.ndarray, block: np.ndarray, grid: GridSpec):
    """half += block on the block's modes, in place through views."""
    for at_half, at_block in grid.block_pieces:
        half[at_half] += block[at_block]


def _flow(t, a) -> tuple:
    """e^(-a t), k1, i1 and j1 of u's flow over the times t (kernels)."""
    _, k1, _, _, i1, j1 = propagator_arrays(t, a)
    return np.exp(-a * t), k1, i1, j1


def _tables(grid: GridSpec, sigma: float, dt: float) -> tuple:
    """Propagator tables ea = e^(-a dt) and k1 on the half spectrum,
    Duhamel weights i1 and w_new_u = i1 - j1 / dt on its kept block
    (see _block), which a forcing spectrum holds, and z's scalars
    e^(-dt), c_old = (1 - e^(-dt)) - c_new and c_new = 1 - phi1(dt),
    phi1(x) = (1 - e^(-x)) / x.  u's old-forcing weight j1 / dt is
    i1 - w_new_u, which step() uses in that form."""
    ea, k1, i1, j1 = _flow(dt, _half_symbol(grid, sigma))
    i1, j1 = _block(i1, grid), _block(j1, grid)
    prop = np.stack((ea, k1), dtype=complex)
    w = np.stack((i1, i1 - j1 / dt), dtype=complex)
    em1 = -math.expm1(-dt)
    c_new = 1.0 - em1 / dt
    return (*prop, *w, math.exp(-dt), em1 - c_new, c_new)


# one grid's buffers, which every step, forcing evaluation and record's
# sup on it reuses, so that the 2D step loop frees and refaults no
# scratch memory (164 KB for k = 2 on a 1D grid of N = 2048, 2.40 MB on a 2D grid of
# N = 256).  2D grids go one component at a time: numpy buffers a block
# add through 2D strided views, the pass's block size per operand, past
# one field for two components.  maxsize=1: a command that steps on
# several grids holds only the last one's buffers and step tables.  No
# buffer leaves step() or norms()
@lru_cache(maxsize=1)
def _workspace(grid: GridSpec, k: int) -> SimpleNamespace:
    """Buffers of (g,) physical fields, magnitudes, half spectra, their
    kept columns and kept blocks, and the estimate's |gap| and Parseval
    weights on the block, for passes of g = k components on a 1D grid
    where they fit BATCH_BYTES, else of g = 1; the passes' (sources,
    targets) slices, where component l forces l + 1 mod k, so that the
    targets are the sources shifted by one, for g = k rolled (see
    _forcing); and tables(sigma, dt), the grid's step tables (_tables)."""
    lead = grid.shape[:-1]
    shapes = dict(field=(grid.shape, float), mag=(grid.shape, float),
                  half=(lead + (grid.N // 2 + 1,), complex),
                  cols=(lead + grid.block_shape[-1:], complex),
                  block=(grid.block_shape, complex),
                  l1=(grid.block_shape, float),
                  weights=(grid.block_shape, float))
    size = sum(math.prod(s) * np.dtype(t).itemsize
               for s, t in shapes.values())
    g = k if grid.n == 1 and k * size <= BATCH_BYTES else 1
    ws = SimpleNamespace(**{name: np.empty((g,) + s, t)
                            for name, (s, t) in shapes.items()})
    # at the pass's shape: numpy buffers a broadcast operand
    ws.weights[...] = grid.parseval_weights[: grid.block_shape[-1]]
    ws.passes = tuple((slice(i, i + g), slice((i + g) % k, (i + g) % k + g))
                      for i in range(0, k, g))
    # step tables only: a fixed-dt run needs its dt table plus at most
    # one for a last step clipped to an off-grid t_end, and an adaptive
    # run one per ladder size it steps with (records inside a step build
    # theirs outside the cache, see _interpolate).  An entry holds 2
    # half-spectrum tables and 2 on the kept block, real but held as
    # complex128, to which numpy would cast float64 tables in each
    # product with a spectrum; as many entries as fit TABLE_BYTES, at
    # least 1 (306 of 27 KB on 1D N = 1024, 5 of 1.53 MB on 2D N = 256)
    entry = 2 * (ws.half[0].nbytes + ws.block[0].nbytes)
    ws.tables = lru_cache(max(1, TABLE_BYTES // entry))(
        partial(_tables, grid))
    return ws


def _power(mag: np.ndarray, p: float, out=None) -> np.ndarray:
    """mag^p for magnitudes mag = |u| and p > 1, into out (a new array
    when None).  Integer p by repeated multiplication, which costs a
    fraction of a pow call; every such product of magnitudes <= TINY
    underflows to +0.0 by itself.  For other p, magnitudes <= TINY (and
    NaN) are first flushed to 0 in mag, in place."""
    if not float(p).is_integer():
        np.copyto(mag, 0.0, where=~(mag > TINY))
        return np.power(mag, p, out=out)
    out = np.multiply(mag, mag, out=out)
    for _ in range(int(p) - 2):
        out *= mag
    return out


def _irfftn(half: np.ndarray, grid: GridSpec,
            ws: SimpleNamespace) -> np.ndarray:
    """A pass's fields from their half spectra, into ws.field: the ifft
    along the rows (2D) into ws.half, then irfft, as irfftn does."""
    if grid.n == 2:
        half = np.fft.ifft(half, axis=-2, out=ws.half)
    return np.fft.irfft(half, n=grid.N, out=ws.field)


def _forcing(mag: np.ndarray, p: tuple, out: np.ndarray, grid: GridSpec,
             ws: SimpleNamespace):
    """A pass's forcing spectra on the kept block of the 2/3 rule into
    out, its targets' rows (_passes), bit for bit the block of their
    rfftn: target r's mag[r - 1]^p[r] goes into ws.field[r], rfft on the
    last axis into ws.half, and in 2D the fft along the rows runs on the
    block's columns only, into ws.cols."""
    for r in range(len(mag)):
        _power(mag[r - 1], p[r], out=ws.field[r])
    spec = np.fft.rfft(ws.field, out=ws.half)
    if grid.n == 2:
        spec = np.fft.fft(spec[..., : grid.block_shape[-1]], axis=-2,
                          out=ws.cols)
    _block(spec, grid, out=out)


def _nonlinearity_hat(u_half, params, grid):
    """The forcing spectrum |u_{l-1}|^{p_l} of the fields of the half
    spectra u_half, shape (k,) + grid.block_shape, in passes through the
    workspace: their fields (_irfftn), magnitudes and forcing
    (_forcing); u_half is only read."""
    k = len(u_half)
    ws = _workspace(grid, k)
    out = np.empty((k,) + grid.block_shape, complex)
    for src, dst in ws.passes:
        mag = np.abs(_irfftn(u_half[src], grid, ws), out=ws.mag)
        _forcing(mag, params.p[dst], out[dst], grid, ws)
    return out


def _field_sup(u_half, grid):
    """max |u_l| per component of the fields of the half spectra u_half,
    shape (k,), in passes through the workspace (_irfftn)."""
    ws = _workspace(grid, len(u_half))
    sup = np.empty(len(u_half))
    for src, _ in ws.passes:
        mag = np.abs(_irfftn(u_half[src], grid, ws), out=ws.mag)
        np.maximum.reduce(mag, axis=grid.spatial_axes, out=sup[src])
    return sup


def step(state: FieldState, dt: float, params: SystemParams,
         grid: GridSpec, *, linear_only: bool = False) -> FieldState:
    """Advance one step of size dt.

    Linear part exact per mode; nonlinearity handled by an exponential
    predictor-corrector (second order): u_new = ea u + k1 z and z_new =
    e^(-dt) z plus forcing terms (_tables).  The old forcing is the
    state's nl_half when set, else it is evaluated from the state's
    spectra (_nonlinearity_hat: one more inverse and forward transform
    per pass).  The forcing terms are formed on the kept block and added
    into the spectra there.  With w_old_u + w_new_u = i1 the corrector
    is the predictor's spectrum plus the gap w_new_u (N_new - N_old), so
    the corrected field is never transformed here.  The components go
    through the grid's workspace in passes (_workspace), each making one
    numpy call per operation: the predictors' fields, their sups and the
    forcing they drive (component l forces l + 1).  The new state
    carries the new forcing, the predictor's sup per component and the
    estimate err (0.0 for linear_only), whose l1 sums of the gap cost
    three block-sized calls per pass and no transform.  Pure numerics: a
    step that overflows returns non-finite spectra, sups or err, and
    judging blow-up is left to run().
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    uh, zh = state.u_half, state.z_half
    k = len(uh)
    ws = _workspace(grid, k)
    ea, k1, i1, w_nu, e, c_old, c_new = ws.tables(params.sigma, dt)
    # u, z and forcing of the new state in one allocation: on a 2D grid
    # the largest a run frees, which keeps a record's spectra on the heap
    buf = np.empty(2 * uh.size + k * math.prod(grid.block_shape), complex)
    u_half, z_half = buf[: 2 * uh.size].reshape((2,) + uh.shape)
    np.multiply(zh, e, out=z_half)
    if not linear_only:
        Nh_old = state.nl_half
        if Nh_old is None:
            Nh_old = _nonlinearity_hat(uh, params, grid)
        Nh_new = buf[2 * uh.size:].reshape(Nh_old.shape)
    sup = np.empty(k)
    for src, dst in ws.passes:
        u = u_half[src]
        np.multiply(ea, uh[src], out=u)
        u += np.multiply(k1, zh[src], out=ws.half)
        if not linear_only:
            _add_block(u, np.multiply(i1, Nh_old[src], out=ws.block), grid)
        # the predictors, or for linear_only the exact new fields
        mag = np.abs(_irfftn(u, grid, ws), out=ws.mag)
        np.maximum.reduce(mag, axis=grid.spatial_axes, out=sup[src])
        if not linear_only:
            _forcing(mag, params.p[dst], Nh_new[dst], grid, ws)
    if linear_only:
        return FieldState(state.t + dt, u_half, z_half, state.a_half,
                          pred_sup=sup, err=0.0)
    bounds = np.empty(k)
    for src, _ in ws.passes:
        u, z, new, old = u_half[src], z_half[src], Nh_new[src], Nh_old[src]
        gap = np.subtract(new, old, out=ws.block)
        np.multiply(w_nu, gap, out=gap)
        _add_block(u, gap, grid)
        l1 = np.multiply(ws.weights, np.abs(gap, out=ws.l1), out=ws.l1)
        np.add.reduce(l1, axis=grid.spatial_axes, out=bounds[src])
        _add_block(z, np.multiply(old, c_old, out=ws.block), grid)
        _add_block(z, np.multiply(new, c_new, out=ws.block), grid)
    return FieldState(state.t + dt, u_half, z_half, state.a_half,
                      nl_half=Nh_new, pred_sup=sup, err=_relative_max(
                          bounds.tolist(), sup.tolist(), grid.N ** grid.n))


def _relative_max(bounds: list, sups: list, scale: int) -> float:
    """The mixed-scale estimate (Atol + Rtol |y|; Hairer, Norsett & Wanner,
    II.4) float(np.max(bounds / scale / np.maximum(sups, floor))) bit for
    bit, or NaN with it, in a fraction of its time for a few floats."""
    # TINY first, as max keeps its first argument against a NaN
    floor = max(TINY, SCALE_FLOOR * max(sups))
    ratios = [b / scale / max(s, floor) for b, s in zip(bounds, sups)]
    return math.nan if math.isnan(sum(ratios)) else max(ratios)


def _interpolate(old: FieldState, new: FieldState, h: float, ts,
                 params: SystemParams, grid: GridSpec) -> FieldState:
    """The batch of states at the m times ts in (old.t, old.t + h] on
    the Duhamel interpolant of the step of size h from old to new.

    With tau = t - old.t, u(t) = ea u + k1 z + i1 N_old + (tau / h)
    w_new_u (N_new - N_old), with w_new_u = i1 - j1 / tau and the
    forcing terms on the kept block as in _tables: the exact flow of
    the forcing that is linear in time from N_old, the forcing step()
    started from, to N_new, the one at the predictor that new carries.
    At tau = h it is step()'s corrector, and it is second order like
    the step.  One _flow call on tau of shape (m, 1, ...) builds the
    tables for all m times, outside the _tables cache.  N_old is
    old.nl_half, or evaluated from old.u_half when unset, as step()
    does; a linear_only step (new.nl_half None) has no forcing.  The
    batch has t = ts as an array and carries u_half only.
    """
    ts = np.asarray(ts, dtype=float)
    a = _half_symbol(grid, params.sigma)
    tau = (ts - old.t).reshape((-1,) + (1,) * (a.ndim + 1))
    ea, k1, i1, j1 = _flow(tau, a)
    u_half = ea * old.u_half + k1 * old.z_half
    if new.nl_half is not None:
        Nh_old = old.nl_half
        if Nh_old is None:
            Nh_old = _nonlinearity_hat(old.u_half, params, grid)
        i1, j1 = _block(i1, grid), _block(j1, grid)
        _add_block(u_half, i1 * Nh_old, grid)
        _add_block(u_half, (tau / h) * (i1 - j1 / tau)
                   * (new.nl_half - Nh_old), grid)
    return FieldState(ts, u_half, None, a)


def norms(grid: GridSpec, state: FieldState, sigma: float) -> dict:
    """Per-component L2, homogeneous H^sigma, sup and mean.

    L2 and |D|^sigma L2 by Parseval on the half spectrum, mean from its
    zero mode, sup in physical space from the state's field, so it is
    the corrected field's sup.  Each reduces over the last n axes, so a
    batch (see FieldState) gets one value per record and component:
    tuples of k floats for one state, of m lists of k for a batch.  The
    field of one record goes through the workspace passes (_field_sup)
    and is not kept; a batch of several takes one irfftn (FieldState.u)
    for all of them, whose magnitudes are taken in place.
    """
    a, uh = _half_symbol(grid, sigma), state.u_half
    vol_factor = (2.0 * grid.L) ** grid.n / grid.N ** (2 * grid.n)
    sq = grid.parseval_weights * np.abs(uh) ** 2
    sum_axes = tuple(range(-grid.n, 0))
    l2 = np.sqrt(vol_factor * np.sum(sq, axis=sum_axes))
    hs = np.sqrt(vol_factor * np.sum(a * sq, axis=sum_axes))
    if uh.ndim == grid.n + 1 or len(uh) == 1:
        sup = _field_sup(uh.reshape(uh.shape[-grid.n - 1:]), grid)
        sup = sup.reshape(uh.shape[: -grid.n])
    else:
        u = state.u
        sup = np.max(np.abs(u, out=u), axis=sum_axes)
    mean = uh[(...,) + (0,) * grid.n].real / grid.N ** grid.n
    return {key: tuple(x.tolist()) for key, x in
            (("l2", l2), ("hsigma", hs), ("sup", sup), ("mean", mean))}


@dataclass(frozen=True)
class RunResult:
    """Norm history of one integration plus the blow-up verdict.

    Series arrays have shape (k, len(times)).  u_final is the physical
    field FieldState.u of the last record, at t_end or, after blow-up,
    at the last good state, transformed once when the run ends;
    blown_up says whether blowup_time is set.  steps counts the
    accepted steps and rejected_steps the ones the adaptive policy
    retried; floor_steps counts the accepted steps whose estimate
    exceeded STEP_TOL, which the adaptive policy takes at its floor
    dt / 1024 without control; dt_min and dt_max span the accepted step
    sizes (None without any).  blowup_error is the error
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


def _near(x: float, y: float) -> bool:
    """Whether x and y agree to 1e-9 relative, or absolute below 1."""
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def _next_h(h: float, err: float, dt: float) -> float:
    """The adaptive policy's step after one of size h with estimate err:
    h * clip(0.9 (STEP_TOL / err)^(1/2), 1/4, 2), or 2h for err = 0,
    rounded down to the ladder dt * 2^(j/4) (integer j) so that the
    propagator tables are reused; no upper bound, and no lower than the
    floor dt / 1024 (see RunResult.floor_steps)."""
    fac = (min(2.0, max(0.25, 0.9 * math.sqrt(STEP_TOL / err)))
           if err else 2.0)
    j = math.floor(4.0 * math.log2(h * fac / dt) + 1e-9)
    return max(dt / 1024.0, dt * 2.0 ** (j / 4))


def _record_times(t_end: float, dt: float, outputs: int,
                  adaptive: bool) -> list:
    """run()'s record times after t = 0, ascending and ending at t_end:
    outputs times spaced logarithmically from max(dt, t_end / 10^4), at
    most t_end, to t_end.  Times within 1e-9 relative (_near) of 0 or
    t_end count as those records.  The fixed policy rounds each time
    other than t_end to the nearest multiple of dt, dropping duplicates
    and times that round to 0 or past t_end, so that all its records
    fall on step ends and none is interpolated."""
    start = min(max(dt, t_end * 1e-4), t_end)
    # t_end leaves the schedule before rounding, which could move it
    # onto the dt grid short of t_end
    sched = [float(x) for x in np.geomspace(start, t_end, outputs)
             if x < t_end]
    if not adaptive:
        sched = [dt * round(x / dt) for x in sched]
    return sorted({x for x in sched if x < t_end and not _near(x, t_end)
                   and not _near(x, 0.0)}) + [float(t_end)]


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
        b, a = line_fit(t[sel], sup[sel] ** (-1.0 / alpha))
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


def _blowup_watch(params: SystemParams, data: InitialData):
    """One run's decade fits: watch(t, peak, pred_sup), given an accepted
    step's end time and its predictor's sups, returns (T, error) once
    they place blow-up past t, else None.

    Near blow-up the sup of the leading component (the argmax of
    compute_gamma) follows the self-similar rate (T - t)^(-alpha) with
    alpha = 2 gamma_lead.  Let s0 be the largest peak |epsilon amp0| or
    |epsilon amp1| of the data: the linear flow carries u1 into u at
    times of order one, so data with u0 << u1 first grow to the scale of
    u1, a growth that is not the blow-up's.  Once peak reaches 10 s0,
    every step adds (t, sup_lead) to a history, and each time sup_lead
    first reaches 10^d s0 for d >= 4, _extrapolate_blowup tries T on the
    decades up to d.  So zero data, and coarse fixed-dt runs whose
    decades hold too few points (the tests' blow-up run at dt = 0.05 or
    0.025, not at 0.0125), end on run()'s threshold alone.
    """
    s0 = abs(data.epsilon) * max(max(abs(c.amp0), abs(c.amp1))
                                 for c in data.components)
    gamma = compute_gamma(params)
    lead, alpha = gamma.argmax_index - 1, 2.0 * gamma.max
    history, decade = [], 4

    def watch(t: float, peak: float, pred_sup: np.ndarray):
        nonlocal decade
        if not (s0 > 0 and peak >= 10.0 * s0):
            return None
        sup = float(pred_sup[lead])
        history.append((t, sup))
        fit = None
        while fit is None and sup >= 10.0 ** decade * s0:
            fit = _extrapolate_blowup(history, s0, alpha, decade)
            decade += 1
        return fit

    return watch


def run(params: SystemParams, grid: GridSpec, data: InitialData,
        t_end: float, dt: float, *, dt_policy: str = "fixed",
        outputs: int = 64, linear_only: bool = False) -> RunResult:
    """Integrate to t_end or blow-up, recording norms at t = 0 and at
    _record_times, and keep the physical field of the last record as
    u_final.

    Steps are sized by dt_policy alone and end at t_end; the record
    times size none of them.  "fixed" steps with dt.  "adaptive" starts
    at dt, sizes each next step by _next_h, and retries from the same
    state a step whose estimate exceeds STEP_TOL, unless _next_h gives
    no smaller one.  Only a step that would pass t_end is shortened to
    end there; one that reaches t_end up to roundoff keeps its size, so
    no table is built for a size that differs in its last bits.

    An accepted step records the times strictly inside it from its
    Duhamel interpolant (_interpolate), all at once in batches whose
    tables take at most BATCH_BYTES, so the schedule does not change
    the trajectory; a step without such times builds no interpolant.  A
    step that ends at a record time up to roundoff records its end state
    with that time exactly.

    Blow-up is a verdict in the result, not an exception.  The run stops
    after the step whose _blowup_watch fit gives T or, the safety net,
    at the first step h from a state at time t whose predictor (the one
    physical field a step holds) has a sup that is not at most
    BLOWUP_THRESHOLD (NaN and inf included), or whose estimate err is
    not finite, as when a finite predictor's |u|^p overflows (err sums
    the gap over nonzero scales, so it is finite where the spectra are).
    The check comes before the step's accept/reject, and numpy's
    overflow and invalid-value warnings are silenced over the stepping
    loop, entered once per run, since the check judges what they
    report.  blowup_time is then t + h/2, the midpoint of [t, t + h].
    """
    if dt_policy not in ("fixed", "adaptive"):
        raise ValueError(f"unknown dt policy {dt_policy!r}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if outputs < 0:
        raise ValueError(f"outputs must be nonnegative, got {outputs}")
    if len(data.components) != params.k:
        raise ValueError(f"data has {len(data.components)} components, "
                         f"system has {params.k}")
    state, _ = make_initial_data(grid, data, params.sigma)
    adaptive = dt_policy == "adaptive"
    events = _record_times(t_end, dt, outputs, adaptive)

    times, rows = [], []
    # records per interpolant batch: 32 bytes per half-spectrum point
    per_batch = max(1, BATCH_BYTES
                    // (32 * grid.N ** (grid.n - 1) * (grid.N // 2 + 1)))

    def record(st: FieldState):
        # one state, or a batch whose t is an array of times
        times.extend(np.atleast_1d(st.t).tolist())
        rows.append(norms(grid, st, params.sigma))

    record(state)
    watch = _blowup_watch(params, data)

    dt_now = float(dt)
    t_blow = t_err = None
    hs, rejected, floor, ev_idx = [], 0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while state.t < t_end and not _near(state.t, t_end):
            h = min(dt_now, t_end - state.t)
            if _near(h, dt_now):
                h = dt_now
            new = step(state, h, params, grid, linear_only=linear_only)
            peak = new.pred_sup.max()
            # NaN and inf fail the comparison too
            if not (peak <= BLOWUP_THRESHOLD and math.isfinite(new.err)):
                t_blow, t_err = state.t + 0.5 * h, 0.5 * h
                break
            if adaptive:
                dt_now = _next_h(h, new.err, dt)
                if new.err > STEP_TOL:
                    # _next_h shrinks every such step above its floor
                    if dt_now < h:
                        rejected += 1
                        continue
                    floor += 1
            hs.append(h)
            end = ev_idx
            while events[end] < new.t and not _near(events[end], new.t):
                end += 1
            # the batches live only inside record(), so they are gone
            # before the next step
            for i in range(ev_idx, end, per_batch):
                record(_interpolate(state, new, h,
                                    events[i:min(end, i + per_batch)],
                                    params, grid))
            ev_idx = end
            # the step-end record comes after the old state is dropped, so
            # that norms()' temporaries are not allocated while it is alive
            state = new
            if _near(events[ev_idx], state.t):
                state = replace(state, t=events[ev_idx])
                record(state)
                ev_idx += 1
            fit = watch(state.t, peak, state.pred_sup)
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
        steps=len(hs),
        rejected_steps=rejected,
        floor_steps=floor,
        dt_min=min(hs, default=None),
        dt_max=max(hs, default=None),
        blowup_error=t_err,
    )
