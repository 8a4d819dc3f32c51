"""Pseudo-spectral exponential integrator for the coupled system.

The linear flow is applied exactly mode by mode with the closed-form
propagator from kernels; the nonlinearity |u_{l-1}|^{p_l} (component 1
is forced by component k) is evaluated pointwise in physical space
and injected through the Duhamel moment weights with one
predictor-corrector sweep, so the stepper is second order in dt while
remaining exact on linear problems.  The weights carry the 2/3-rule
dealias mask, so the forcing is dealiased as it enters, at no extra
pass over the spectrum.  The gap between the predictor and the
corrector is the local error estimate by which adaptive runs accept,
reject and size their steps.

The fields are real, so a state holds rfftn half spectra (the m >= 0
half of the last axis) and the solver uses real transforms only: the
propagator tables, the masked Duhamel weights, the nonlinearity and
the Parseval sums of norms() live on that half, and the inverse
transforms are irfftn, which returns real fields by construction.  The
full fftn layout is built only when a caller reads FieldState.u_hat or
v_hat.  The physical field step() computes rides along in the state,
so neither run()'s blow-up check nor norms() nor the next step
transforms it again: a stepped state costs 2 rfftn + 2 irfftn per
nonlinear step.

The box [-L, L]^n is periodic.  Free-space decay experiments are
meaningful only while the solution mass stays away from its periodic
images; drivers pick L accordingly and fit on intermediate windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataLeakage
from .exponents import SystemParams
from .kernels import propagator_arrays

BLOWUP_THRESHOLD = 1e8
# adaptive runs accept a step when, in every component, max|u_corr - u_pred|
# is at most STEP_TOL times that component's sup
STEP_TOL = 1e-4
# physical magnitudes below this are flushed to zero before |u|^p
TINY = 1e-300


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
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

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

    @property
    def resolution_bound(self) -> float:
        """Largest resolved |xi| component."""
        return math.pi / self.L * (self.N / 2.0)

    def axes(self) -> tuple:
        x = -self.L + self.dx * np.arange(self.N)
        return (x,) * self.n

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

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        m = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        keep = m <= self.N / 3.0
        if self.n == 2:
            keep = keep[:, None] & keep[None, :]
        return keep

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
    layout on each read, for callers; the solver never reads them.  u
    is the real physical field of shape (k,) + grid.shape when the
    state came out of step(), so that run()'s blow-up check, norms()
    and the next step read it without another transform; else None.
    err is the local error estimate of the step that made the state,
    the largest over components l of max |u_corr_l - u_pred_l| /
    max(max |u_corr_l|, TINY) with u_pred the exponential-Euler
    predictor and u_corr the second-order corrector, so a component far
    smaller than the others still has its relative error bounded (0.0
    for linear_only, whose steps are exact), when step() was asked for
    it; else None.
    """

    t: float
    u_half: np.ndarray
    v_half: np.ndarray
    u: np.ndarray | None = None
    err: float | None = None

    u_hat = property(lambda self: _full(self.u_half))
    v_hat = property(lambda self: _full(self.v_half))


@dataclass(frozen=True)
class ComponentData:
    """Gaussian data bump of one component: u0 = eps amp0 g, u1 = eps
    amp1 g with g(x) = exp(-|x - center|^2 / width^2)."""

    amp0: float
    amp1: float = 0.0
    width: float = 1.0
    center: tuple = ()

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class InitialData:
    """Per-component Gaussian bumps with a common size scale epsilon."""

    epsilon: float
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("need at least one component")


def _profile(grid: GridSpec, comp: ComponentData) -> np.ndarray:
    center = comp.center or (0.0,) * grid.n
    if len(center) != grid.n:
        raise ValueError(f"center needs {grid.n} coordinates, got {center}")
    axes = grid.axes()
    r2 = np.zeros(grid.shape)
    for i in range(grid.n):
        shape = [1] * grid.n
        shape[i] = grid.N
        r2 = r2 + ((axes[i] - center[i]) ** 2).reshape(shape)
    return np.exp(-r2 / comp.width ** 2)


def make_initial_data(grid: GridSpec, data: InitialData,
                      sigma: float) -> tuple:
    """Build the spectral state at t = 0 plus a data report.

    Returns (state, report); report carries the discrete means of u0
    and u1 per component and the data norm
    sum_l (|u0|_L1 + |u0|_{H^sigma} + |u1|_L1 + |u1|_L2).
    Raises DataLeakage when a Gaussian tail at the box edge exceeds
    1e-8 of its peak (the bump would see its periodic images).
    """
    k = len(data.components)
    u0 = np.zeros((k,) + grid.shape)
    u1 = np.zeros((k,) + grid.shape)
    for ell, comp in enumerate(data.components):
        g = _profile(grid, comp)
        u0[ell] = data.epsilon * comp.amp0 * g
        u1[ell] = data.epsilon * comp.amp1 * g
    for ell in range(k):
        for f in (u0[ell], u1[ell]):
            ratio = _edge_ratio(grid, f)
            if ratio > 1e-8:
                raise DataLeakage(
                    f"component {ell + 1} tail at the box edge is "
                    f"{ratio:.2e} of peak; enlarge L or shrink width"
                )
    axes = grid.spatial_axes
    state = FieldState(0.0, np.fft.rfftn(u0, axes=axes),
                       np.fft.rfftn(u1, axes=axes))
    # u0 stands in for the inverse transform norms() would take for sup
    u0_norms = norms(grid, replace(state, u=u0), sigma)
    dv = grid.cell_volume
    norm_parts = []
    total = 0.0
    for ell in range(k):
        l1_0 = float(np.sum(np.abs(u0[ell]))) * dv
        l1_1 = float(np.sum(np.abs(u1[ell]))) * dv
        hs_0 = math.hypot(u0_norms["l2"][ell], u0_norms["hsigma"][ell])
        l2_1 = math.sqrt(float(np.sum(u1[ell] ** 2)) * dv)
        norm_parts.append(
            {"l1_u0": l1_0, "hsigma_u0": hs_0, "l1_u1": l1_1, "l2_u1": l2_1}
        )
        total += l1_0 + hs_0 + l1_1 + l2_1
    report = {
        "means_u0": tuple(float(np.mean(u0[ell])) for ell in range(k)),
        "means_u1": tuple(float(np.mean(u1[ell])) for ell in range(k)),
        "data_norm": total,
        "parts": tuple(norm_parts),
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


def _physical(state: FieldState, grid: GridSpec) -> np.ndarray:
    if state.u is not None:
        return state.u
    return np.fft.irfftn(state.u_half, s=grid.shape, axes=grid.spatial_axes)


# a fixed-dt run needs its own dt plus the one-off dt of a step clipped
# to an output time; an entry holds 9 float64 half-spectrum tables
# (2.4 MB on a 2D grid of N = 256, 74 KB on a 1D grid of N = 2048)
@lru_cache(maxsize=4)
def _tables(grid: GridSpec, sigma: float, dt: float) -> tuple:
    """Propagator tables k0, k1, dk0, dk1 and Duhamel weights i1,
    w_old_u, w_new_u, w_old_v, w_new_v on the half spectrum.  The
    2/3-rule dealias mask lives only here, folded into the five weights
    that multiply a nonlinearity spectrum; the propagator tables, which
    act on the state, stay unmasked."""
    a = _half(grid.symbol(sigma))
    k0, k1, dk0, dk1, i1, j1 = propagator_arrays(dt, a)
    # Duhamel weights of the linear-in-time nonlinearity model
    w_old_u = j1 / dt
    w_new_u = i1 - w_old_u
    w_new_v = i1 / dt
    w_old_v = k1 - w_new_v
    mask = _half(grid.dealias_mask)
    return (k0, k1, dk0, dk1) + tuple(
        w * mask for w in (i1, w_old_u, w_new_u, w_old_v, w_new_v)
    )


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


def _nonlinearity_hat(u_phys, params, axes):
    """rfftn of the forcing |u_{l-1}|^{p_l}, undealiased: the weights of
    _tables carry the mask."""
    k = u_phys.shape[0]
    N = np.empty_like(u_phys)
    for ell in range(k):
        N[ell] = _power(u_phys[(ell - 1) % k], params.p[ell])
    return np.fft.rfftn(N, axes=axes)


def step(state: FieldState, dt: float, params: SystemParams,
         grid: GridSpec, *, linear_only: bool = False,
         estimate: bool = False) -> FieldState:
    """Advance one step of size dt.

    Linear part exact per mode; nonlinearity handled by an exponential
    predictor-corrector (second order).  The new state carries its
    physical field, and with estimate=True its local error
    estimate err (one more pass over the field); state.u, when set,
    stands in for the inverse transform of state.u_half.  Pure
    numerics: a step that overflows returns non-finite fields, and
    judging blow-up is left to run().
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k0, k1, dk0, dk1, i1, w_ou, w_nu, w_ov, w_nv = _tables(
        grid, params.sigma, dt
    )
    axes = grid.spatial_axes
    uh, vh = state.u_half, state.v_half
    u_half = k0 * uh + k1 * vh
    v_half = dk0 * uh + dk1 * vh
    if not linear_only:
        Nh_old = _nonlinearity_hat(_physical(state, grid), params, axes)
        u_pred = np.fft.irfftn(u_half + i1 * Nh_old, s=grid.shape, axes=axes)
        Nh_new = _nonlinearity_hat(u_pred, params, axes)
        u_half = u_half + w_ou * Nh_old + w_nu * Nh_new
        v_half = v_half + w_ov * Nh_old + w_nv * Nh_new
    u = np.fft.irfftn(u_half, s=grid.shape, axes=axes)
    err = None
    if estimate and linear_only:
        err = 0.0
    elif estimate:
        gap = np.max(np.abs(u - u_pred), axis=axes)
        size = np.maximum(np.max(np.abs(u), axis=axes), TINY)
        err = float(np.max(gap / size))
    return FieldState(state.t + dt, u_half, v_half, u=u, err=err)


def norms(grid: GridSpec, state: FieldState, sigma: float) -> dict:
    """Per-component L2, homogeneous H^sigma, sup and mean.

    L2 and |D|^sigma L2 by Parseval on the half spectrum, mean from its
    zero mode, sup in physical space from the field step() carried, if
    any, so it is the sup that step() measured.
    """
    a = _half(grid.symbol(sigma))
    vol_factor = (2.0 * grid.L) ** grid.n / grid.N ** (2 * grid.n)
    u_phys = _physical(state, grid)
    sq = grid.parseval_weights * np.abs(state.u_half) ** 2
    sum_axes = grid.spatial_axes
    l2 = np.sqrt(vol_factor * np.sum(sq, axis=sum_axes))
    hs = np.sqrt(vol_factor * np.sum(a * sq, axis=sum_axes))
    sup = np.max(np.abs(u_phys), axis=sum_axes)
    zero = (slice(None),) + (0,) * grid.n
    mean = state.u_half[zero].real / grid.N ** grid.n
    return {
        "l2": tuple(float(x) for x in l2),
        "hsigma": tuple(float(x) for x in hs),
        "sup": tuple(float(x) for x in sup),
        "mean": tuple(float(x) for x in mean),
    }


@dataclass(frozen=True)
class RunResult:
    """Norm history of one integration plus the blow-up verdict.

    Series arrays have shape (k, len(times)).  snapshots are
    (t, u_physical) pairs at the requested times.  steps counts the
    accepted steps and rejected_steps the ones the adaptive policy
    retried; dt_min and dt_max span the accepted step sizes (None
    without any).
    """

    params: SystemParams
    times: np.ndarray
    l2: np.ndarray
    hsigma: np.ndarray
    sup: np.ndarray
    mean: np.ndarray
    blown_up: bool
    blowup_time: float | None
    snapshots: tuple
    steps: int
    data_report: dict = field(default_factory=dict)
    rejected_steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None


def _ladder(x: float, dt: float) -> float:
    """Largest dt * 2^(j/4), j integer, not above x (up to roundoff)."""
    return dt * 2.0 ** (math.floor(4.0 * math.log2(x / dt) + 1e-9) / 4)


def run(params: SystemParams, grid: GridSpec, data: InitialData,
        t_end: float, dt: float, *, dt_policy: str = "fixed",
        outputs: int = 64, snapshot_times: tuple = (),
        linear_only: bool = False) -> RunResult:
    """Integrate to t_end or blow-up, recording norms on a logarithmic
    output schedule (plus t = 0 and t_end themselves).

    dt_policy "fixed" steps with dt.  "adaptive" controls the local
    error: every step carries the estimate err of step(), a step with
    err > STEP_TOL is rejected and retried from the same state, and
    the next step is h * clip(0.9 (STEP_TOL / err)^(1/2), 1/4, 2),
    rounded down to the ladder dt * 2^(j/4) (integer j) so that the
    propagator tables are reused, and never below dt / 1024, where
    steps are accepted whatever their estimate.  There is no upper
    bound.  Steps are clipped so output and snapshot times are hit
    exactly; a clipped step does not shrink the next one unless its
    estimate asks for it.  steps counts accepted steps, rejected_steps
    the rejected ones, and dt_min/dt_max span the accepted step sizes.

    Blow-up is a verdict in the result, not an exception.  The run
    stops at the first step h from a state at time t whose field has
    a sup that is not at most BLOWUP_THRESHOLD (NaN and inf included);
    that check comes before the step's accept/reject.  blowup_time is
    then t + h/2, the midpoint of the bracket [t, t + h], and the last
    good state at t is the final record, so times[-1] is the bracket's
    lower end and blowup_time - times[-1] its half-width.
    """
    if dt_policy not in ("fixed", "adaptive"):
        raise ValueError(f"unknown dt policy {dt_policy!r}")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    k = params.k
    if len(data.components) != k:
        raise ValueError(
            f"data has {len(data.components)} components, system has {k}"
        )
    state, report = make_initial_data(grid, data, params.sigma)

    start = min(max(dt, t_end * 1e-4), t_end)
    sched = np.geomspace(start, t_end, outputs)
    events = sorted(set(float(x) for x in sched)
                    | set(float(x) for x in snapshot_times if x > 0)
                    | {float(t_end)})
    snap_wanted = sorted(set(float(x) for x in snapshot_times))

    times, rows = [], []
    snapshots = []

    def near(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

    def record(st: FieldState):
        times.append(st.t)
        rows.append(norms(grid, st, params.sigma))

    def snap(st: FieldState):
        snapshots.append((st.t, _physical(st, grid)))

    record(state)
    if snap_wanted and near(snap_wanted[0], 0.0):
        snap(state)
        snap_wanted.pop(0)

    adaptive = dt_policy == "adaptive"
    dt_now = float(dt)
    dt_floor = dt / 1024.0
    blown, t_blow = False, None
    steps = rejected = 0
    h_min, h_max = math.inf, 0.0
    ev_idx = 0
    while state.t < t_end and not near(state.t, t_end):
        while ev_idx < len(events) and (events[ev_idx] <= state.t
                                        or near(events[ev_idx], state.t)):
            ev_idx += 1
        next_event = events[ev_idx] if ev_idx < len(events) else t_end
        h = min(dt_now, next_event - state.t)
        new = step(state, h, params, grid, linear_only=linear_only,
                   estimate=adaptive)
        # NaN and inf fail the comparison too
        if not float(np.max(np.abs(new.u))) <= BLOWUP_THRESHOLD:
            blown, t_blow = True, state.t + 0.5 * h
            if times[-1] != state.t:
                record(state)
            break
        if adaptive:
            fac = (min(2.0, max(0.25, 0.9 * math.sqrt(STEP_TOL / new.err)))
                   if new.err else 2.0)
            proposal = max(dt_floor, _ladder(h * fac, dt))
            # a step clipped to an output time shrinks the next one
            # only when its estimate asks for it
            if h < dt_now and fac >= 1.0:
                proposal = max(dt_now, proposal)
            dt_now = proposal
            if new.err > STEP_TOL and h > dt_floor:
                rejected += 1
                continue
        steps += 1
        h_min, h_max = min(h_min, h), max(h_max, h)
        state = new
        if near(state.t, next_event):
            record(state)
            if snap_wanted and near(state.t, snap_wanted[0]):
                snap(state)
                snap_wanted.pop(0)

    tarr = np.array(times)
    get = lambda key: np.array([[r[key][ell] for r in rows]
                                for ell in range(k)])
    return RunResult(
        params=params,
        times=tarr,
        l2=get("l2"),
        hsigma=get("hsigma"),
        sup=get("sup"),
        mean=get("mean"),
        blown_up=blown,
        blowup_time=t_blow,
        snapshots=tuple(snapshots),
        steps=steps,
        data_report=report,
        rejected_steps=rejected,
        dt_min=h_min if steps else None,
        dt_max=h_max if steps else None,
    )
