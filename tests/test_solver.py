"""Spectral stepper against closed-form and ODE oracles.

Linear runs must reproduce the multiplier propagator to roundoff, the
zero mode must follow its damped scalar ODE, and the nonlinear stepper
must self-converge at second order.  Constant fields reduce the PDE to
a k-dimensional ODE system, which an independent RK4 loop integrates as
the nonlinear oracle.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sevolab import solver
from sevolab.errors import DataLeakage
from sevolab.kernels import propagator_arrays
from sevolab.solver import (
    TINY,
    ComponentData,
    FieldState,
    GridSpec,
    InitialData,
    RunResult,
    _power,
    make_initial_data,
    norms,
    run,
    step,
)
from sevolab.exponents import SystemParams

PARAMS_34 = SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0))
PARAMS_22 = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 2.0))


def gaussian_data(eps, amps=((1.0, 0.0), (1.0, 0.0)), width=1.0):
    return InitialData(
        epsilon=eps,
        components=tuple(
            ComponentData(amp0=a0, amp1=a1, width=width) for a0, a1 in amps
        ),
    )


def random_state(grid, k, seed, modes=20):
    """Real band-limited random fields with nonzero velocity part."""
    rng = np.random.default_rng(seed)
    shape = (k,) + grid.shape
    u = np.zeros(shape)
    v = np.zeros(shape)
    x = grid.axes()[0]
    for ell in range(k):
        for m in range(1, modes + 1):
            cu, su = rng.normal(size=2) / m ** 2
            cv, sv = rng.normal(size=2) / m ** 2
            phase = math.pi * m / grid.L * x
            u[ell] += cu * np.cos(phase) + su * np.sin(phase)
            v[ell] += cv * np.cos(phase) + sv * np.sin(phase)
        u[ell] += rng.normal() * 0.1
    axes = grid.spatial_axes
    return FieldState(
        t=0.0, u_half=np.fft.rfftn(u, axes=axes),
        v_half=np.fft.rfftn(v, axes=axes)
    )


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            GridSpec(n=3, N=64, L=1.0)
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n=1, N=100, L=1.0)
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n=1, N=4, L=1.0)
        with pytest.raises(ValueError, match="L must be"):
            GridSpec(n=1, N=64, L=0.0)

    def test_geometry(self):
        g = GridSpec(n=1, N=64, L=4.0)
        assert g.dx == pytest.approx(0.125)
        assert g.cell_volume == pytest.approx(0.125)
        assert g.resolution_bound == pytest.approx(math.pi / 4.0 * 32)
        x = g.axes()[0]
        assert x[0] == pytest.approx(-4.0)
        assert x[-1] == pytest.approx(4.0 - g.dx)

    def test_symbol_is_wavenumber_power(self):
        g = GridSpec(n=1, N=16, L=2.0)
        a = g.symbol(1.5)
        assert a[0] == 0.0
        assert a[1] == pytest.approx((math.pi / 2.0) ** 3)
        assert a[8] == pytest.approx((math.pi / 2.0 * 8) ** 3)

    def test_2d_symbol(self):
        g = GridSpec(n=2, N=16, L=2.0)
        a = g.symbol(1.0)
        assert a[1, 2] == pytest.approx((math.pi / 2.0) ** 2 * 5)


class TestInitialData:
    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            ComponentData(amp0=1.0, width=0.0)
        with pytest.raises(ValueError, match="component"):
            InitialData(epsilon=0.1, components=())

    def test_gaussian_l2_analytic(self):
        # |eps A exp(-x^2/w^2)|_L2 = eps A (pi/2)^(1/4) sqrt(w) on the line;
        # the box tail is e^(-(L/w)^2) and invisible at double precision.
        grid = GridSpec(n=1, N=256, L=20.0)
        eps, amp, w = 0.05, 1.3, 2.0
        data = InitialData(
            epsilon=eps,
            components=(ComponentData(amp0=amp, width=w),
                        ComponentData(amp0=0.7, width=1.0)),
        )
        state, _ = make_initial_data(grid, data, sigma=1.0)
        got = norms(grid, state, 1.0)["l2"][0]
        exact = eps * amp * (math.pi / 2.0) ** 0.25 * math.sqrt(w)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_mean_analytic(self):
        grid = GridSpec(n=1, N=256, L=20.0)
        eps, amp, w = 0.1, 1.0, 1.5
        data = InitialData(
            epsilon=eps,
            components=(ComponentData(amp0=amp, width=w),
                        ComponentData(amp0=amp, width=w)),
        )
        state, report = make_initial_data(grid, data, sigma=1.0)
        exact = eps * amp * math.sqrt(math.pi) * w / (2.0 * grid.L)
        assert norms(grid, state, 1.0)["mean"][0] == pytest.approx(
            exact, rel=1e-12
        )
        assert report["means_u0"][0] == pytest.approx(exact, rel=1e-12)

    def test_data_norm_linear_in_epsilon(self):
        grid = GridSpec(n=1, N=128, L=15.0)
        _, r1 = make_initial_data(
            grid, gaussian_data(0.1, ((1.0, 0.5), (0.3, 0.0))), sigma=1.0
        )
        _, r2 = make_initial_data(
            grid, gaussian_data(0.2, ((1.0, 0.5), (0.3, 0.0))), sigma=1.0
        )
        assert r2["data_norm"] == pytest.approx(2.0 * r1["data_norm"],
                                                rel=1e-14)

    def test_leakage_wide_bump(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        with pytest.raises(DataLeakage, match="edge"):
            make_initial_data(grid, gaussian_data(0.1, width=15.0), sigma=1.0)

    def test_leakage_off_center_bump(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        data = InitialData(
            epsilon=0.1,
            components=(
                ComponentData(amp0=1.0, width=4.0, center=(30.0,)),
                ComponentData(amp0=1.0, width=1.0),
            ),
        )
        with pytest.raises(DataLeakage):
            make_initial_data(grid, data, sigma=1.0)

    def test_zero_data(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        state, report = make_initial_data(
            grid, gaussian_data(0.0), sigma=1.0
        )
        assert report["data_norm"] == 0.0
        assert max(norms(grid, state, 1.0)["sup"]) == 0.0


class TestLinearExactness:
    def test_multiplier_propagation(self):
        # One macro step, many micro steps and the bare multiplier state
        # all agree to roundoff: the linear flow is exact per mode.
        grid = GridSpec(n=1, N=256, L=10.0)
        state = random_state(grid, k=2, seed=3)
        T = 2.0
        a = grid.symbol(1.0)
        k0, k1, _, _, _, _ = propagator_arrays(T, a)
        exact_u = k0 * state.u_hat + k1 * state.v_hat

        one = step(state, T, PARAMS_34, grid, linear_only=True)
        many = state
        for _ in range(1000):
            many = step(many, T / 1000.0, PARAMS_34, grid, linear_only=True)

        ref = math.sqrt(float(np.sum(np.abs(exact_u) ** 2)))
        for got in (one.u_hat, many.u_hat):
            err = math.sqrt(float(np.sum(np.abs(got - exact_u) ** 2))) / ref
            assert err <= 1e-10

    def test_sigma_fractional(self):
        grid = GridSpec(n=1, N=128, L=5.0)
        params = SystemParams(n=1, sigma=1.5, k=2, p=(2.0, 2.0))
        state = random_state(grid, k=2, seed=11)
        a = grid.symbol(1.5)
        k0, k1, _, _, _, _ = propagator_arrays(0.7, a)
        exact_u = k0 * state.u_hat + k1 * state.v_hat
        got = step(state, 0.7, params, grid, linear_only=True).u_hat
        num = math.sqrt(float(np.sum(np.abs(got - exact_u) ** 2)))
        den = math.sqrt(float(np.sum(np.abs(exact_u) ** 2)))
        assert num / den <= 1e-12

    def test_mass_mode_ode(self):
        # At xi = 0 the linear equation is u'' + u' = 0, so the mean
        # follows m(t) = m0 + (1 - e^(-t)) m1.
        grid = GridSpec(n=1, N=64, L=3.0)
        m0, m1 = 0.4, -0.7
        u = np.full((2,) + grid.shape, m0)
        v = np.full((2,) + grid.shape, m1)
        state = FieldState(t=0.0, u_half=np.fft.rfftn(u, axes=(1,)),
                           v_half=np.fft.rfftn(v, axes=(1,)))
        for t in (0.3, 1.0, 4.0):
            new = step(state, t, PARAMS_34, grid, linear_only=True)
            got = norms(grid, new, 1.0)["mean"][0]
            assert got == pytest.approx(m0 + (1 - math.exp(-t)) * m1,
                                        abs=1e-14)


class TestNonlinearStep:
    def test_constant_field_rk4_oracle(self):
        # Constant fields collapse the PDE to u_l'' + u_l' = |u_{l-1}|^p_l.
        grid = GridSpec(n=1, N=8, L=1.0)
        params = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 3.0))
        u0 = np.array([0.3, 0.2])
        v0 = np.array([0.1, -0.05])
        ones = np.ones(grid.shape)
        state = FieldState(
            t=0.0,
            u_half=np.fft.rfftn(u0[:, None] * ones, axes=(1,)),
            v_half=np.fft.rfftn(v0[:, None] * ones, axes=(1,)),
        )
        T, nsteps = 1.0, 200
        for _ in range(nsteps):
            state = step(state, T / nsteps, params, grid)

        def rhs(y):
            u, v = y[:2], y[2:]
            force = np.array(
                [abs(u[(l - 1) % 2]) ** params.p[l] for l in range(2)]
            )
            return np.concatenate([v, -v + force])

        y = np.concatenate([u0, v0])
        h = T / 20000
        for _ in range(20000):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        got = norms(grid, state, 1.0)["mean"]
        assert got[0] == pytest.approx(y[0], abs=2e-7)
        assert got[1] == pytest.approx(y[1], abs=2e-7)

    def test_second_order_self_convergence(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.5, ((1.0, 0.3), (0.8, 0.0)))
        state0, _ = make_initial_data(grid, data, PARAMS_34.sigma)
        T = 1.0

        def final_u(dt):
            st = state0
            while st.t < T - 1e-12:
                st = step(st, min(dt, T - st.t), PARAMS_34, grid)
            return np.fft.ifftn(st.u_hat, axes=grid.spatial_axes).real

        ref = final_u(T / 512)
        errs = [
            float(np.max(np.abs(final_u(T / m) - ref)))
            for m in (16, 32, 64)
        ]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.0 <= r1 <= 5.0
        assert 3.0 <= r2 <= 5.0

    def test_realness_and_symmetry_preserved(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.4, ((1.0, 0.2), (0.6, -0.1)))
        state, _ = make_initial_data(grid, data, PARAMS_34.sigma)
        for _ in range(50):
            state = step(state, 0.05, PARAMS_34, grid)
        u = np.fft.ifftn(state.u_hat, axes=grid.spatial_axes)
        rel = float(np.max(np.abs(u.imag))) / float(np.max(np.abs(u.real)))
        assert rel < 1e-12

    def test_dealias_kills_high_products(self):
        # A pure mode at m0 > N/6 squares to 2 m0 > N/3, which the mask
        # must remove before it aliases.
        grid = GridSpec(n=1, N=64, L=math.pi)
        params = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 2.0))
        m0 = 14
        x = grid.axes()[0]
        u = np.zeros((2,) + grid.shape)
        u[0] = 1e-3 * np.cos(m0 * math.pi / grid.L * x)
        u[1] = 1e-3 * np.cos(m0 * math.pi / grid.L * x)
        axes = grid.spatial_axes
        state = FieldState(
            t=0.0,
            u_half=np.fft.rfftn(u, axes=axes),
            v_half=np.zeros_like(np.fft.rfftn(u, axes=axes)),
        )
        new = step(state, 0.1, params, grid)
        spec = np.abs(new.u_hat[0])
        # an unmasked |u|^2 product would deposit ~1e-9 here; all that
        # remains is FFT roundoff of the initial transform
        assert spec[2 * m0] <= 1e-14
        assert spec[grid.N - 2 * m0] <= 1e-14

    def test_step_guards(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        state, _ = make_initial_data(grid, gaussian_data(0.1),
                                     PARAMS_34.sigma)
        with pytest.raises(ValueError, match="dt"):
            step(state, 0.0, PARAMS_34, grid)

    def test_threshold_triggers(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOWUP_THRESHOLD", 1e-6)
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.5), t_end=1.0, dt=0.1)
        assert res.blown_up
        assert res.blowup_time == 0.05
        assert list(res.times) == [0.0]


def reference_step(state, dt, params, grid):
    """The full-spectrum predictor-corrector: complex fftn/ifftn on the
    whole m range, a .real projection after every inverse transform,
    tables on the full symbol and |u|^p by pow.  Returns the corrected
    (u_hat, v_hat) and the physical predictor."""
    axes = grid.spatial_axes
    k0, k1, dk0, dk1, i1, j1 = propagator_arrays(dt, grid.symbol(params.sigma))
    w_ou = j1 / dt
    w_nu = i1 - w_ou
    w_nv = i1 / dt
    w_ov = k1 - w_nv

    def nonlinearity_hat(u):
        au = np.abs(u)
        au = np.where(au > TINY, au, 0.0)
        force = np.stack([au[(ell - 1) % params.k] ** params.p[ell]
                          for ell in range(params.k)])
        return np.fft.fftn(force, axes=axes) * grid.dealias_mask

    uh, vh = state.u_hat, state.v_hat
    lin_u = k0 * uh + k1 * vh
    lin_v = dk0 * uh + dk1 * vh
    nh_old = nonlinearity_hat(np.fft.ifftn(uh, axes=axes).real)
    u_pred = np.fft.ifftn(lin_u + i1 * nh_old, axes=axes).real
    nh_new = nonlinearity_hat(u_pred)
    return (lin_u + w_ou * nh_old + w_nu * nh_new,
            lin_v + w_ov * nh_old + w_nv * nh_new, u_pred)


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("p", [(3.0, 4.0), (2.5, 2.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_full_spectrum_oracle(self, n, p):
        # a first step (no carried field) and a step from a stepped
        # state (carried field); the 2D case pins the flip-and-roll of
        # the Hermitian extension, the two p both _power branches
        params = SystemParams(n=n, sigma=1.0, k=2, p=p)
        grid = GridSpec(n=n, N=32, L=10.0)
        data = gaussian_data(0.8, ((1.0, 0.5), (0.8, -0.3)))
        state, _ = make_initial_data(grid, data, params.sigma)
        for _ in range(2):
            want_u, want_v, _ = reference_step(state, 0.1, params, grid)
            state = step(state, 0.1, params, grid)
            assert rel_err(state.u_hat, want_u) <= 1e-13
            assert rel_err(state.v_hat, want_v) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_by_construction(self, n):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        data = gaussian_data(0.4, ((1.0, 0.2), (0.6, -0.1)))
        state, _ = make_initial_data(grid, data, params.sigma)
        for _ in range(50):
            state = step(state, 0.05, params, grid)
        again = np.fft.irfftn(state.u_hat[..., : grid.N // 2 + 1],
                              s=grid.shape, axes=grid.spatial_axes)
        assert np.array_equal(state.u, again)


class TestPower:
    def test_odd_power_of_negative_is_absolute(self):
        u = np.array([-2.0, -0.5, 3.0])
        assert np.array_equal(_power(u, 3.0), np.array([8.0, 0.125, 27.0]))
        assert np.array_equal(_power(u, 2.5), np.abs(u) ** 2.5)

    @pytest.mark.parametrize("p", [1.01, 2.0, 3.0, 4.0])
    def test_tiny_flushed_to_zero(self, p):
        # 1e-300 ** 1.01 is a subnormal, not 0: only the flush zeroes it
        u = np.array([TINY, -TINY, 0.5 * TINY, 0.0, -0.0])
        assert np.array_equal(_power(u, p), np.zeros(5))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_integer_branch_within_four_ulp_of_pow(self, p):
        rng = np.random.default_rng(17)
        u = rng.choice([-1.0, 1.0], 4096) * 10.0 ** rng.uniform(-60, 60,
                                                                4096)
        want = np.abs(u) ** p
        got = _power(u, p)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
             "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls through numpy.fft by name."""
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft,
                                                                 name)))
    return calls


class TestTransformBudget:
    @pytest.mark.parametrize("n", [1, 2])
    def test_stepped_state_nonlinear_step(self, n, fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        state = step(state, 0.1, params, grid)
        fft_calls.clear()
        step(state, 0.1, params, grid)
        assert fft_calls == {"rfftn": 2, "irfftn": 2}

    @pytest.mark.parametrize("n", [1, 2])
    def test_linear_only_step(self, n, fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        fft_calls.clear()
        step(state, 0.1, params, grid, linear_only=True)
        assert fft_calls == {"irfftn": 1}

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_estimate_costs_no_transform(self, linear_only, fft_calls):
        grid = GridSpec(n=1, N=32, L=10.0)
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        state = step(state, 0.1, PARAMS_34, grid)
        counts = []
        for estimate in (False, True):
            fft_calls.clear()
            step(state, 0.1, PARAMS_34, grid, linear_only=linear_only,
                 estimate=estimate)
            counts.append(dict(fft_calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_step_from_initial_data(self, n, fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        fft_calls.clear()
        step(state, 0.1, params, grid)
        assert fft_calls == {"rfftn": 2, "irfftn": 3}


class TestNorms:
    def test_parseval_l2(self):
        grid = GridSpec(n=1, N=128, L=7.0)
        state = random_state(grid, k=2, seed=5)
        u = np.fft.ifftn(state.u_hat, axes=grid.spatial_axes).real
        direct = math.sqrt(float(np.sum(u[0] ** 2)) * grid.cell_volume)
        assert norms(grid, state, 1.0)["l2"][0] == pytest.approx(
            direct, rel=1e-12
        )

    def test_hsigma_single_mode(self):
        grid = GridSpec(n=1, N=64, L=4.0)
        m = 3
        xi0 = math.pi / grid.L * m
        x = grid.axes()[0]
        u = np.zeros((1,) + grid.shape)
        u[0] = np.cos(xi0 * x)
        state = FieldState(
            t=0.0,
            u_half=np.fft.rfftn(u, axes=(1,)),
            v_half=np.zeros_like(np.fft.rfftn(u, axes=(1,))),
        )
        out = norms(grid, state, 1.5)
        assert out["hsigma"][0] == pytest.approx(
            xi0 ** 1.5 * out["l2"][0], rel=1e-12
        )
        assert out["l2"][0] == pytest.approx(math.sqrt(grid.L), rel=1e-12)

    def test_2d_parseval(self):
        grid = GridSpec(n=2, N=32, L=3.0)
        rng = np.random.default_rng(9)
        u = rng.normal(size=(1,) + grid.shape)
        state = FieldState(
            t=0.0,
            u_half=np.fft.rfftn(u, axes=(1, 2)),
            v_half=np.zeros_like(np.fft.rfftn(u, axes=(1, 2))),
        )
        direct = math.sqrt(float(np.sum(u ** 2)) * grid.cell_volume)
        assert norms(grid, state, 1.0)["l2"][0] == pytest.approx(
            direct, rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_half_spectrum_parseval_white_noise(self, n):
        # white noise fills every column, the self-mirrored m = 0 and
        # m = N/2 ones included, so a wrong weight on any of them shows
        grid = GridSpec(n=n, N=32, L=3.0)
        rng = np.random.default_rng(21 + n)
        half = np.fft.rfftn(rng.normal(size=(2,) + grid.shape),
                            axes=grid.spatial_axes)
        state = FieldState(t=0.0, u_half=half, v_half=np.zeros_like(half))
        assert np.min(np.abs(state.u_half[..., -1])) > 0.0
        vol = (2.0 * grid.L) ** n / grid.N ** (2 * n)
        sq = np.abs(state.u_hat) ** 2
        out = norms(grid, state, 0.75)
        for ell in range(2):
            l2 = math.sqrt(vol * float(np.sum(sq[ell])))
            hs = math.sqrt(vol * float(np.sum(grid.symbol(0.75) * sq[ell])))
            assert out["l2"][ell] == pytest.approx(l2, rel=1e-13, abs=0.0)
            assert out["hsigma"][ell] == pytest.approx(hs, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,linear_only",
                             [(1, False), (2, False), (1, True)])
    def test_step_sup_is_the_norms_sup(self, n, linear_only):
        # norms() reads the sup off the physical field step() carries,
        # bit for bit, per component
        grid = GridSpec(n=n, N=32, L=10.0)
        data = gaussian_data(0.5, ((1.0, 0.5), (0.8, -0.3)))
        state, _ = make_initial_data(grid, data, 1.0)
        new = step(state, 0.1, PARAMS_34, grid, linear_only=linear_only)
        want = np.max(np.abs(new.u), axis=grid.spatial_axes)
        assert norms(grid, new, 1.0)["sup"] == tuple(float(x) for x in want)
        assert np.all(want > 0.0)


class TestRun:
    def test_schedule_and_snapshots(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.01), t_end=2.0, dt=0.05,
                  outputs=12, snapshot_times=(0.0, 1.0, 2.0))
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(res.times) > 0)
        assert res.l2.shape == (2, len(res.times))
        assert len(res.snapshots) == 3
        assert [round(t, 9) for t, _ in res.snapshots] == [0.0, 1.0, 2.0]
        assert res.snapshots[0][1].shape == (2,) + grid.shape
        assert not res.blown_up
        assert res.blowup_time is None

    def test_deterministic(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        r1 = run(PARAMS_34, grid, gaussian_data(0.3), t_end=1.0, dt=0.02)
        r2 = run(PARAMS_34, grid, gaussian_data(0.3), t_end=1.0, dt=0.02)
        assert np.array_equal(r1.l2, r2.l2)
        assert np.array_equal(r1.hsigma, r2.hsigma)

    def test_blowup_verdict_and_time(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        data = gaussian_data(0.3, ((1.0, 1.0), (1.0, 1.0)))
        res = run(PARAMS_22, grid, data, t_end=100.0, dt=0.05)
        assert res.blown_up
        assert res.blowup_time is not None
        assert 5.0 < res.blowup_time < 25.0
        # history stops before the cap
        assert res.times[-1] < 100.0

    def test_blowup_time_stable_under_dt(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        data = gaussian_data(0.3, ((1.0, 1.0), (1.0, 1.0)))
        coarse = run(PARAMS_22, grid, data, t_end=100.0, dt=0.1)
        fine = run(PARAMS_22, grid, data, t_end=100.0, dt=0.025)
        assert coarse.blowup_time == pytest.approx(fine.blowup_time,
                                                   rel=0.02)

    def test_blowup_time_is_midpoint_of_crossing_step(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        good, h, crossed = calls[-1]
        assert res.blown_up and res.steps == len(calls) - 1
        assert (np.max(np.abs(good.u)) <= solver.BLOWUP_THRESHOLD
                < np.max(np.abs(crossed.u)))
        assert res.blowup_time == good.t + 0.5 * h

    def test_blowup_run_records_last_good_state(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        good, h, _ = calls[-1]
        assert res.times[-1] == good.t
        assert np.count_nonzero(res.times == good.t) == 1
        assert tuple(res.sup[:, -1]) == norms(BLOWUP_GRID, good, 1.0)["sup"]
        assert res.blowup_time - res.times[-1] == pytest.approx(0.5 * h)

    def test_non_finite_field_is_blow_up(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        params = SystemParams(n=1, sigma=1.0, k=2, p=(70.0, 70.0))
        grid = GridSpec(n=1, N=64, L=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(params, grid, gaussian_data(1e5), t_end=1.0, dt=0.1)
        assert not np.all(np.isfinite(calls[-1][2].u))
        assert res.blown_up and res.blowup_time == 0.05
        assert list(res.times) == [0.0]

    def test_adaptive_matches_fixed(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        data = gaussian_data(0.3, ((1.0, 1.0), (1.0, 1.0)))
        adaptive = run(PARAMS_22, grid, data, t_end=100.0, dt=0.05,
                       dt_policy="adaptive")
        fixed = run(PARAMS_22, grid, data, t_end=100.0, dt=0.025)
        assert adaptive.blown_up
        assert adaptive.blowup_time == pytest.approx(fixed.blowup_time,
                                                     rel=0.05)

    def test_zero_data_stays_zero(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.0), t_end=1.0, dt=0.1)
        assert not res.blown_up
        assert float(np.max(res.sup)) == 0.0

    def test_argument_guards(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        with pytest.raises(ValueError, match="policy"):
            run(PARAMS_34, grid, gaussian_data(0.1), t_end=1.0, dt=0.1,
                dt_policy="frozen")
        with pytest.raises(ValueError, match="t_end"):
            run(PARAMS_34, grid, gaussian_data(0.1), t_end=0.0, dt=0.1)
        bad = InitialData(epsilon=0.1,
                          components=(ComponentData(amp0=1.0),))
        with pytest.raises(ValueError, match="components"):
            run(PARAMS_34, grid, bad, t_end=1.0, dt=0.1)

    def test_result_is_runresult(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.01), t_end=0.5, dt=0.1)
        assert isinstance(res, RunResult)
        assert res.steps > 0
        assert res.data_report["data_norm"] > 0


def recording_every_step(monkeypatch):
    """Patch solver.step to record (state, dt, new state) of every call;
    returns the list it appends to."""
    calls = []
    real_step = solver.step

    def recorded(state, dt, *args, **kwargs):
        new = real_step(state, dt, *args, **kwargs)
        calls.append((state, dt, new))
        return new

    monkeypatch.setattr(solver, "step", recorded)
    return calls


BLOWUP_GRID = GridSpec(n=1, N=256, L=40.0)
BLOWUP_DATA = gaussian_data(0.3, ((1.0, 1.0), (1.0, 1.0)))


def adaptive_blowup_run():
    """The adaptive case of TestRun.test_adaptive_matches_fixed."""
    return run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05,
               dt_policy="adaptive")


def recording_step(monkeypatch, calls, edit=None):
    """Patch solver.step to record (state, dt, new state) of every step
    the run loop asks an estimate of, optionally editing the result."""
    real_step = solver.step

    def recorded(state, dt, *args, **kwargs):
        new = real_step(state, dt, *args, **kwargs)
        if kwargs.get("estimate"):
            if edit is not None:
                new = edit(len(calls), new)
            calls.append((state, dt, new))
        return new

    monkeypatch.setattr(solver, "step", recorded)


def on_ladder(h, dt):
    j = 4.0 * math.log2(h / dt)
    return abs(j - round(j)) <= 1e-9


class TestStepControl:
    def test_estimate_attached_only_on_request(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        assert step(state, 0.1, PARAMS_34, grid).err is None
        assert step(state, 0.1, PARAMS_34, grid, linear_only=True,
                    estimate=True).err == 0.0
        assert step(state, 0.1, PARAMS_34, grid, estimate=True).err > 0.0

    # amp2 = 1e-4: component 2's gap is small against sup|u_1| but not
    # against its own sup, which is what err must measure it by
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("amp2", [1.0, 1e-4])
    def test_estimate_is_the_relative_predictor_gap(self, n, amp2):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(
            grid, gaussian_data(0.5, ((1.0, 1.0), (amp2, amp2))), 1.0)
        new = step(state, 0.1, params, grid, estimate=True)
        want_u, _, u_pred = reference_step(state, 0.1, params, grid)
        u = np.fft.ifftn(want_u, axes=grid.spatial_axes).real
        axes = grid.spatial_axes
        want = np.max(np.max(np.abs(u - u_pred), axis=axes)
                      / np.max(np.abs(u), axis=axes))
        assert new.err == pytest.approx(want, rel=1e-8)

    def test_small_component_error_controlled(self):
        # by t = 1 component 2 is about 1/8 of component 1; an estimate
        # taken against sup|u_1| leaves its error at about 2e-3
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.5, ((1.0, 1.0), (1e-6, 1e-6)))
        ref = run(PARAMS_22, grid, data, t_end=1.0, dt=1.0 / 4096,
                  outputs=4)
        res = run(PARAMS_22, grid, data, t_end=1.0, dt=0.05,
                  dt_policy="adaptive", outputs=4)
        assert ref.sup[1, -1] < 0.2 * ref.sup[0, -1]
        assert np.all(np.abs(res.sup[:, -1] / ref.sup[:, -1] - 1.0) < 5e-4)
        assert np.all(np.abs(res.l2[:, -1] / ref.l2[:, -1] - 1.0) < 5e-4)

    def test_estimate_shrinks_like_a_power_of_dt(self):
        # u_corr - u_pred = w_new_u (N_new - N_old): O(dt^3) as dt -> 0,
        # closer to O(dt^2) at the steps adaptive runs take
        grid = GridSpec(n=1, N=64, L=10.0)
        state, _ = make_initial_data(
            grid, gaussian_data(0.5, ((1.0, 1.0), (1.0, 1.0))), 1.0)
        state = step(state, 0.05, PARAMS_22, grid)
        errs = [step(state, h, PARAMS_22, grid, estimate=True).err
                for h in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 < coarse / fine < 8.5

    def test_blowup_time_stable_under_halved_tolerance(self, monkeypatch):
        base = adaptive_blowup_run()
        monkeypatch.setattr(solver, "STEP_TOL", 0.5 * solver.STEP_TOL)
        tight = adaptive_blowup_run()
        assert base.blown_up and tight.blown_up
        assert tight.steps > base.steps
        assert tight.blowup_time == pytest.approx(base.blowup_time,
                                                  rel=1e-3)

    def test_rejected_step_neither_advances_nor_counts(self, monkeypatch):
        calls = []
        forced = 5

        def reject_one(i, new):
            return replace(new, err=10.0 * solver.STEP_TOL) \
                if i == forced else new

        recording_step(monkeypatch, calls, reject_one)
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.1), t_end=50.0, dt=0.05,
                  dt_policy="adaptive", outputs=4)
        assert not res.blown_up
        assert res.rejected_steps == 1
        assert res.steps == len(calls) - 1
        (s_rej, h_rej, _), (s_retry, h_retry, _) = calls[forced:forced + 2]
        assert s_retry is s_rej
        assert h_retry <= 0.9 * math.sqrt(0.1) * h_rej
        # each call starts where the last accepted one ended
        t = 0.0
        for i, (st, _, new) in enumerate(calls):
            assert st.t == t
            if i != forced:
                t = new.t
        assert res.dt_min == min(h for i, (_, h, _) in enumerate(calls)
                                 if i != forced)

    def test_unclipped_accepted_steps_on_ladder(self, monkeypatch):
        calls = []
        recording_step(monkeypatch, calls)
        res = adaptive_blowup_run()
        assert res.blown_up and res.rejected_steps > 0
        # the last call crossed the threshold: returned, never accepted
        *calls, (_, _, crossed) = calls
        assert np.max(np.abs(crossed.u)) > solver.BLOWUP_THRESHOLD
        floor = 0.05 / 1024
        accepted = [(st, h) for st, h, new in calls
                    if new.err <= solver.STEP_TOL or h <= floor]
        assert len(accepted) == res.steps
        assert res.dt_min == min(h for _, h in accepted)
        assert res.dt_max == max(h for _, h in accepted)
        rungs = set()
        for st, h in accepted:
            if on_ladder(h, 0.05):
                rungs.add(round(4.0 * math.log2(h / 0.05)))
            else:  # clipped: the step ends on a recorded output time
                assert np.min(np.abs(res.times - (st.t + h))) <= 1e-9 * (
                    st.t + h)
        assert len(rungs) > 10
        assert min(rungs) >= -40

    def test_linear_only_rejects_nothing(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        kw = dict(t_end=100.0, dt=0.05, dt_policy="adaptive", outputs=16,
                  linear_only=True)
        small = run(PARAMS_34, grid, gaussian_data(1e-3), **kw)
        large = run(PARAMS_34, grid,
                    gaussian_data(3.0, ((0.5, 2.0), (1.0, -1.0)),
                                  width=1.5), **kw)
        assert small.rejected_steps == large.rejected_steps == 0
        # exact steps: the count depends on the schedule, not the data
        assert small.steps == large.steps
        assert small.steps <= 16 + math.ceil(math.log2(100.0 / 0.05))

    def test_fixed_policy_is_a_plain_step_loop(self, monkeypatch):
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.5)
        estimated = []
        recording_step(monkeypatch, estimated)
        res = run(PARAMS_34, grid, data, t_end=2.0, dt=0.125, outputs=2,
                  snapshot_times=(2.0,))
        monkeypatch.undo()
        assert estimated == []  # no estimate pass on the fixed path
        state, _ = make_initial_data(grid, data, PARAMS_34.sigma)
        for _ in range(16):
            state = step(state, 0.125, PARAMS_34, grid)
        assert state.t == 2.0 and res.times[-1] == 2.0
        assert (res.steps, res.rejected_steps) == (16, 0)
        assert res.dt_min == res.dt_max == 0.125
        assert np.array_equal(res.snapshots[-1][1], state.u)
        assert tuple(res.sup[:, -1]) == norms(grid, state, 1.0)["sup"]
        assert tuple(res.l2[:, -1]) == norms(grid, state, 1.0)["l2"]


class TestHalfLayoutOnly:
    """Runs keep the half spectra only: the full fftn layout is built
    for callers that read u_hat or v_hat, never by the solver."""

    @pytest.fixture(autouse=True)
    def refuse_full_layout(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the solver built the full fftn layout")
        monkeypatch.setattr(solver, "_full", refuse)

    @pytest.mark.parametrize("dt_policy", ["fixed", "adaptive"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_run_to_completion(self, n, dt_policy):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        data = gaussian_data(0.5, ((1.0, 0.5), (0.8, -0.3)))
        res = run(params, grid, data, t_end=2.0, dt=0.1,
                  dt_policy=dt_policy, outputs=4, snapshot_times=(1.0,))
        assert not res.blown_up and res.steps >= 4
        assert res.times[-1] == pytest.approx(2.0)
        assert len(res.snapshots) == 1

    def test_blowup_run(self):
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        assert res.blown_up and 5.0 < res.blowup_time < 25.0


def counting_builds(monkeypatch):
    builds = []
    real = solver.propagator_arrays

    def counting(dt, a):
        builds.append(dt)
        return real(dt, a)

    monkeypatch.setattr(solver, "propagator_arrays", counting)
    return builds


class TestMaskedWeights:
    @pytest.mark.parametrize("n", [1, 2])
    def test_mask_is_folded_into_the_nonlinearity_weights(self, n):
        grid = GridSpec(n=n, N=32, L=10.0)
        dt = 0.1
        mask = solver._half(grid.dealias_mask)
        assert mask.any() and not mask.all()
        k0, k1, dk0, dk1, i1, j1 = propagator_arrays(
            dt, solver._half(grid.symbol(1.0)))
        tables = solver._tables(grid, 1.0, dt)
        # the propagator tables act on the state and stay unmasked
        for got, want in zip(tables[:4], (k0, k1, dk0, dk1)):
            assert np.array_equal(got, want)
        # i1, w_old_u, w_new_u, w_old_v, w_new_v multiply a nonlinearity
        # spectrum and carry the 2/3-rule mask
        weights = (i1, j1 / dt, i1 - j1 / dt, k1 - i1 / dt, i1 / dt)
        assert len(tables) == 4 + len(weights)
        for got, want in zip(tables[4:], weights):
            assert np.all(got[~mask] == 0.0)
            assert np.array_equal(got[mask], want[mask])
            assert np.all(want[~mask] != 0.0)


class TestTableCache:
    def test_fixed_run_builds_its_dt_once(self, monkeypatch):
        solver._tables.cache_clear()
        builds = counting_builds(monkeypatch)
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.1), t_end=20.0, dt=0.3,
                  outputs=8)
        assert res.steps > 60
        assert builds.count(0.3) == 1
        # the others are one-off steps clipped to output times
        assert 1 < len(builds) == len(set(builds)) <= 8
        assert solver._tables.cache_info().currsize <= 4
