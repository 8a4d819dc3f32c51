"""Spectral stepper against closed-form and ODE oracles.

Linear runs must reproduce the multiplier propagator to roundoff, the
zero mode must follow its damped scalar ODE, and the nonlinear stepper
must self-converge at second order.  Constant fields reduce the PDE to
a k-dimensional ODE system, which an independent RK4 loop integrates as
the nonlinear oracle.
"""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sevolab import harness, solver
from sevolab.config import DEFAULTS, config_from_dict
from sevolab.errors import DataLeakage
from sevolab.kernels import propagator_arrays
from sevolab.outputs import read_norms_csv, write_norms_csv
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


def uv_state(grid, u_half, v_half, sigma=1.0, t=0.0):
    """The FieldState of the half spectra of u and u_t: z = u_t + a u."""
    a = solver._half_symbol(grid, sigma)
    return FieldState(t, u_half, v_half + a * u_half, a)


def random_state(grid, k, seed, modes=20, sigma=1.0):
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
    return uv_state(grid, np.fft.rfftn(u, axes=axes),
                    np.fft.rfftn(v, axes=axes), sigma)


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
        x = g.axes()[0]
        assert x[0] == pytest.approx(-4.0)
        assert x[-1] == pytest.approx(4.0 - g.dx)

    def test_radius_sq(self):
        g = GridSpec(n=2, N=16, L=2.0)
        x = g.axes()[0]
        assert np.array_equal(g.radius_sq(),
                              x[:, None] ** 2 + x[None, :] ** 2)
        r2 = g.radius_sq((0.5, -1.0))
        assert r2[0, 3] == (x[0] - 0.5) ** 2 + (x[3] + 1.0) ** 2
        with pytest.raises(ValueError, match="center needs 2"):
            g.radius_sq((0.5,))

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
        assert report == {"means_u0": (0.0, 0.0), "means_u1": (0.0, 0.0)}
        assert max(norms(grid, state, 1.0)["sup"]) == 0.0

    def test_one_edge_ratio_per_nonzero_component(self, monkeypatch):
        ratios = []
        real = solver._edge_ratio

        def counted(grid, f):
            ratios.append(f)
            return real(grid, f)

        monkeypatch.setattr(solver, "_edge_ratio", counted)
        make_initial_data(GridSpec(n=1, N=256, L=40.0),
                          gaussian_data(0.1, ((1.0, 2.0), (0.0, 0.0),
                                              (0.0, 1.0))), sigma=1.0)
        assert len(ratios) == 2

    @pytest.mark.parametrize("amp0,amp1", [(1.0, 0.0), (0.0, 1.0)],
                             ids=["u0", "u1"])
    def test_leakage_names_the_component(self, amp0, amp1):
        grid = GridSpec(n=1, N=256, L=40.0)
        wide = InitialData(epsilon=0.1, components=(
            ComponentData(amp0=1.0),
            ComponentData(amp0=amp0, amp1=amp1, width=15.0)))
        with pytest.raises(DataLeakage, match="component 2 tail"):
            make_initial_data(grid, wide, sigma=1.0)

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_u_hat_and_v_hat_are_the_data_spectra(self, n, sigma):
        # the state holds z = u1 + a u0; v_hat = z - a u recovers u1 up
        # to roundoff of the a u0 term, so the tolerance is 1e-14 of
        # max|fftn(u1)| + max(a) max|fftn(u0)|
        grid = GridSpec(n=n, N=64, L=20.0)
        data = gaussian_data(0.3, ((1.0, 0.5), (0.7, -0.2)), width=2.0)
        state, _ = make_initial_data(grid, data, sigma)
        u0 = np.zeros((2,) + grid.shape)
        u1 = np.zeros((2,) + grid.shape)
        for ell, comp in enumerate(data.components):
            g = np.exp(-grid.radius_sq() / comp.width ** 2)
            u0[ell], u1[ell] = 0.3 * comp.amp0 * g, 0.3 * comp.amp1 * g
        want_u = np.fft.fftn(u0, axes=grid.spatial_axes)
        want_v = np.fft.fftn(u1, axes=grid.spatial_axes)
        tol = 1e-14 * (np.abs(want_v).max()
                       + grid.symbol(sigma).max() * np.abs(want_u).max())
        assert np.abs(state.u_hat - want_u).max() <= 1e-14 * np.abs(
            want_u).max()
        assert np.abs(state.v_hat - want_v).max() <= tol

    def test_zero_data_of_a_leaking_width(self):
        grid = GridSpec(n=1, N=256, L=40.0)
        for data in (gaussian_data(0.0, width=15.0),
                     gaussian_data(0.1, ((0.0, 0.0), (0.0, 0.0)),
                                   width=15.0)):
            state, _ = make_initial_data(grid, data, sigma=1.0)
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
        state = random_state(grid, k=2, seed=11, sigma=1.5)
        a = grid.symbol(1.5)
        k0, k1, _, _, _, _ = propagator_arrays(0.7, a)
        exact_u = k0 * state.u_hat + k1 * state.v_hat
        got = step(state, 0.7, params, grid, linear_only=True).u_hat
        num = math.sqrt(float(np.sum(np.abs(got - exact_u) ** 2)))
        den = math.sqrt(float(np.sum(np.abs(exact_u) ** 2)))
        assert num / den <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_linear_only_z_decays_by_exp_of_minus_h(self, n):
        # z' = -z without forcing, so z_new = e^(-h) z bit for bit
        grid = GridSpec(n=n, N=32, L=10.0)
        data = gaussian_data(0.3, ((1.0, 0.5), (0.8, -0.3)))
        state, _ = make_initial_data(grid, data, 1.0)
        for h in (0.1, 0.7):
            new = step(state, h, PARAMS_34, grid, linear_only=True)
            assert new.z_half.tobytes() == (
                math.exp(-h) * state.z_half).tobytes()

    def test_mass_mode_ode(self):
        # At xi = 0 the linear equation is u'' + u' = 0, so the mean
        # follows m(t) = m0 + (1 - e^(-t)) m1.
        grid = GridSpec(n=1, N=64, L=3.0)
        m0, m1 = 0.4, -0.7
        u = np.full((2,) + grid.shape, m0)
        v = np.full((2,) + grid.shape, m1)
        state = uv_state(grid, np.fft.rfftn(u, axes=(1,)),
                         np.fft.rfftn(v, axes=(1,)))
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
        state = uv_state(grid, np.fft.rfftn(u0[:, None] * ones, axes=(1,)),
                         np.fft.rfftn(v0[:, None] * ones, axes=(1,)))
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
        state = uv_state(grid, np.fft.rfftn(u, axes=axes),
                         np.zeros_like(np.fft.rfftn(u, axes=axes)))
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


def reference_step(state, dt, params, grid, nh_old=None):
    """The full-spectrum predictor-corrector: complex fftn/ifftn on the
    whole m range, a .real projection after every inverse transform,
    tables on the full symbol, |u|^p by pow and the dealias mask
    applied to the weighted sums.  The old forcing spectrum is nh_old
    when given (the carried one), else that of the state's field.
    Returns the corrected (u_hat, v_hat), the physical predictor and
    the undealiased forcing spectrum at the predictor, for the next
    step to carry."""
    axes = grid.spatial_axes
    k0, k1, dk0, dk1, i1, j1 = propagator_arrays(dt, grid.symbol(params.sigma))
    w_ou = j1 / dt
    w_nu = i1 - w_ou
    w_nv = i1 / dt
    w_ov = k1 - w_nv
    mask = grid.dealias_mask

    def nonlinearity_hat(u):
        au = np.abs(u)
        au = np.where(au > TINY, au, 0.0)
        force = np.stack([au[(ell - 1) % params.k] ** params.p[ell]
                          for ell in range(params.k)])
        return np.fft.fftn(force, axes=axes)

    uh, vh = state.u_hat, state.v_hat
    lin_u = k0 * uh + k1 * vh
    lin_v = dk0 * uh + dk1 * vh
    if nh_old is None:
        nh_old = nonlinearity_hat(np.fft.ifftn(uh, axes=axes).real)
    u_pred = np.fft.ifftn(lin_u + mask * i1 * nh_old, axes=axes).real
    nh_new = nonlinearity_hat(u_pred)
    return (lin_u + mask * (w_ou * nh_old + w_nu * nh_new),
            lin_v + mask * (w_ov * nh_old + w_nv * nh_new), u_pred, nh_new)


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("p", [(3.0, 4.0), (2.5, 2.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_full_spectrum_oracle(self, n, p):
        # a first step (forcing from the state's field) and a step that
        # carries the forcing at the last predictor; the 2D case pins
        # the flip-and-roll of the Hermitian extension, the two p both
        # _power branches
        params = SystemParams(n=n, sigma=1.0, k=2, p=p)
        grid = GridSpec(n=n, N=32, L=10.0)
        data = gaussian_data(0.8, ((1.0, 0.5), (0.8, -0.3)))
        state, _ = make_initial_data(grid, data, params.sigma)
        nh = None
        for _ in range(2):
            want_u, want_v, _, nh = reference_step(state, 0.1, params, grid,
                                                   nh)
            state = step(state, 0.1, params, grid)
            assert rel_err(state.u_hat, want_u) <= 1e-13
            assert rel_err(state.v_hat, want_v) <= 1e-13
            # the carried forcing holds the reference's kept block, in
            # the order of the half layout's rows
            kept = solver._half(nh)[:, solver._half(grid.dealias_mask)]
            assert rel_err(state.nl_half.reshape(kept.shape), kept) <= 1e-13

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
        # _power takes magnitudes; the forcing takes them off the field
        u = np.array([-2.0, -0.5, 3.0])
        assert np.array_equal(_power(np.abs(u), 3.0),
                              np.array([8.0, 0.125, 27.0]))
        assert np.array_equal(_power(np.abs(u), 2.5), np.abs(u) ** 2.5)
        grid = GridSpec(n=1, N=32, L=10.0)
        field = np.random.default_rng(3).normal(size=(2,) + grid.shape)
        half = np.fft.rfftn(field, axes=grid.spatial_axes)
        for p in ((3.0, 5.0), (2.5, 3.5)):
            params = SystemParams(n=1, sigma=1.0, k=2, p=p)
            assert np.array_equal(
                forcing_of_fields(field, params, grid),
                forcing_of_fields(np.abs(field), params, grid))
            # -half's field is the field of half negated, exactly
            assert np.array_equal(
                solver._nonlinearity_hat(half, params, grid),
                solver._nonlinearity_hat(-half, params, grid))

    @pytest.mark.parametrize("p", [1.01, 2.0, 3.0, 4.0])
    def test_tiny_flushed_to_zero(self, p):
        # 1e-300 ** 1.01 is a subnormal, not 0: only the flush zeroes it
        u = np.array([TINY, -TINY, 0.5 * TINY, 0.0, -0.0])
        assert np.array_equal(_power(np.abs(u), p), np.zeros(5))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_integer_branch_within_four_ulp_of_pow(self, p):
        rng = np.random.default_rng(17)
        u = rng.choice([-1.0, 1.0], 4096) * 10.0 ** rng.uniform(-60, 60,
                                                                4096)
        want = np.abs(u) ** p
        got = _power(np.abs(u), p)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("p", [(2.0, 3.0), (4.0, 5.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_integer_powers_need_no_flush(self, n, p, monkeypatch):
        # every product of magnitudes <= TINY underflows to +0.0, so
        # the forcing is the flushed one bit for bit
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=p)
        rng = np.random.default_rng(11)
        u = rng.normal(size=(2,) + grid.shape)
        small = rng.random(u.shape) < 0.3
        u[small] = rng.choice([TINY, -TINY, 0.5 * TINY, -1e-310, 5e-324,
                               0.0, -0.0], np.count_nonzero(small))
        got = forcing_of_fields(u, params, grid)
        monkeypatch.setattr(solver, "_power", flushing_power(_power))
        want = forcing_of_fields(u, params, grid)
        assert got.tobytes() == want.tobytes()

    def test_nan_predictor_gets_the_flushed_verdict(self, monkeypatch):
        # without the flush a NaN predictor entry makes the forcing NaN
        # too; its sup is NaN either way, and run() stops on that
        grid = GridSpec(n=1, N=64, L=10.0)
        real_irfftn = solver._irfftn
        results = []
        for power in (_power, flushing_power(_power)):
            calls = []

            def poisoned(*args):
                out = real_irfftn(*args)
                calls.append(None)
                # step 4's pass, which holds both components: before
                # it come the t = 0 record, step 1's old forcing, the
                # predictors of steps 1-3 and the records after them
                if len(calls) == 9:
                    out[0, 5] = np.nan  # component 1
                return out

            monkeypatch.setattr(solver, "_irfftn", poisoned)
            monkeypatch.setattr(solver, "_power", power)
            results.append(run(PARAMS_34, grid, gaussian_data(0.3),
                               t_end=1.0, dt=0.1, outputs=8))
        got, want = results
        assert got.blown_up and got.blowup_time == pytest.approx(0.35)
        for key in ("times", "l2", "hsigma", "sup", "mean", "u_final"):
            assert np.array_equal(getattr(got, key), getattr(want, key))
        assert ((got.blowup_time, got.blowup_error, got.steps)
                == (want.blowup_time, want.blowup_error, want.steps))


def forcing_of_fields(u, params, grid):
    """The forcing spectrum of the physical fields u (not of a state's
    spectra, as _nonlinearity_hat takes them), in its passes through the
    workspace (_forcing)."""
    ws = solver._workspace(grid, len(u))
    out = np.empty((len(u),) + grid.block_shape, complex)
    for src, dst in ws.passes:
        solver._forcing(np.abs(u[src], out=ws.mag), params.p[dst],
                        out[dst], grid, ws)
    return out


def flushing_power(power):
    """power with magnitudes <= TINY (and NaN) flushed to 0 for every p,
    as it once was for integer p too."""
    def flushed(mag, p, out=None):
        np.copyto(mag, 0.0, where=~(mag > TINY))
        return power(mag, p, out)
    return flushed


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


def nonzero(**counts):
    """The counts that are not 0, as fft_calls holds them."""
    return {name: c for name, c in counts.items() if c}


def per_pass(n, passes, inverse=0, forward=0):
    """fft_calls of `inverse` inverse and `forward` forward transforms
    in each of `passes` passes on an n-dimensional grid, one numpy call
    each for all of a pass's components: irfft, after an ifft along the
    rows in 2D (as irfftn does), and rfft, then fft on the kept columns
    in 2D."""
    return nonzero(ifft=passes * inverse * (n - 1), irfft=passes * inverse,
                   rfft=passes * forward, fft=passes * forward * (n - 1))


@pytest.fixture
def batch_bytes(monkeypatch):
    """set_to(value) patches solver.BATCH_BYTES, None restoring it; the
    workspace cache is cleared on each change and at teardown, so that
    no step runs through a workspace sized under another budget."""
    default = solver.BATCH_BYTES

    def set_to(value):
        monkeypatch.setattr(solver, "BATCH_BYTES",
                            default if value is None else value)
        solver._workspace.cache_clear()

    solver._workspace.cache_clear()
    yield set_to
    solver._workspace.cache_clear()


def passes_of(grid, k):
    """The number of passes a step on grid makes for k components."""
    return k // len(solver._workspace(grid, k).field)


def inverse_after_each(monkeypatch, fft_calls, name):
    """Patch solver.<name> to log the (irfftn, irfft) counts after each
    call: whole-state and per-component inverse transforms; returns the
    log."""
    log = []
    real = getattr(solver, name)

    def logged(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append(np.array([fft_calls.get("irfftn", 0),
                             fft_calls.get("irfft", 0)]))
        return out

    monkeypatch.setattr(solver, name, logged)
    return log


class TestTransformBudget:
    @pytest.mark.parametrize("n", [1, 2])
    def test_stepped_state_nonlinear_step(self, n, fft_calls, batch_bytes):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        start, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        for budget, passes in ((0, 2), (None, n)):
            batch_bytes(budget)
            assert passes_of(grid, 2) == passes
            state = step(start, 0.1, params, grid)
            fft_calls.clear()
            step(state, 0.1, params, grid)
            # the predictors' inverse and the forcing's pruned forward
            # transform, one of each per pass
            assert fft_calls == per_pass(n, passes, inverse=1, forward=1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_linear_only_step(self, n, fft_calls, batch_bytes):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        for budget, passes in ((0, 2), (None, n)):
            batch_bytes(budget)
            assert passes_of(grid, 2) == passes
            fft_calls.clear()
            step(state, 0.1, params, grid, linear_only=True)
            assert fft_calls == per_pass(n, passes, inverse=1)

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_estimate_costs_no_transform(self, linear_only, fft_calls):
        # every step carries its estimate, and makes only the transforms
        # of its predictors and the forcing they drive
        grid = GridSpec(n=1, N=32, L=10.0)
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        state = step(state, 0.1, PARAMS_34, grid)
        fft_calls.clear()
        new = step(state, 0.1, PARAMS_34, grid, linear_only=linear_only)
        assert new.err is not None
        assert fft_calls == per_pass(1, passes_of(grid, 2), inverse=1,
                                     forward=int(not linear_only))

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_step_from_initial_data(self, n, fft_calls, batch_bytes):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        for budget, passes in ((0, 2), (None, n)):
            batch_bytes(budget)
            assert passes_of(grid, 2) == passes
            state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
            fft_calls.clear()
            step(state, 0.1, params, grid)
            # the state's fields and the old forcing they drive, then the
            # predictors and the new forcing: two inverse and two forward
            # transforms per pass, and no field is kept
            assert fft_calls == per_pass(n, passes, inverse=2, forward=2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_recorded_output_transforms_the_corrector(self, n, fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        state = step(state, 0.1, params, grid)
        fft_calls.clear()
        norms(grid, state, 1.0)
        # one inverse transform per pass of the workspace
        assert fft_calls == per_pass(n, passes_of(grid, 2), inverse=1)

    def test_fixed_2d_run_budget(self, fft_calls):
        # the count perfbench reports as fft.per_step, exactly: a step
        # that went back to transforming its corrector shows here
        grid = GridSpec(n=2, N=32, L=10.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        res = run(params, grid, gaussian_data(0.3), t_end=2.0, dt=0.1,
                  outputs=8)
        assert res.steps >= 20 and not res.blown_up
        records = len(res.times)
        # setup: one rfftn of u0 and u1; in each of the two passes, one
        # component each, the first step evaluates its old forcing (one
        # inverse (ifft, irfft) and one pruned forward (rfft, fft)
        # transform), each step makes one inverse and one forward
        # transform and each record one inverse transform; u_final is
        # one irfftn
        assert passes_of(grid, 2) == 2
        forward = 2 * (1 + res.steps)
        inverse = 2 * (1 + res.steps + records)
        assert fft_calls == {"rfftn": 1, "rfft": forward, "fft": forward,
                             "ifft": inverse, "irfft": inverse,
                             "irfftn": 1}

    @pytest.mark.parametrize("n", [1, 2])
    def test_field_is_transformed_once_per_read(self, n, fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        rng = np.random.default_rng(23)
        half = np.fft.rfftn(rng.normal(size=(2,) + grid.shape),
                            axes=grid.spatial_axes)
        state = uv_state(grid, half, np.zeros_like(half))
        fft_calls.clear()
        first = state.u
        norms(grid, state, 1.0)
        second = state.u
        # an irfftn per read of state.u, and norms() transforms in the
        # workspace passes
        assert fft_calls == {"irfftn": 2, **per_pass(n, passes_of(grid, 2),
                                                     inverse=1)}
        assert np.array_equal(first, np.fft.irfftn(half, s=grid.shape,
                                                   axes=grid.spatial_axes))
        assert second.tobytes() == first.tobytes()

    def test_three_transforms_from_initial_data_to_the_first_predictor(
            self, monkeypatch, fft_calls):
        after_init = inverse_after_each(monkeypatch, fft_calls,
                                        "make_initial_data")
        after_step = inverse_after_each(monkeypatch, fft_calls, "step")
        run(PARAMS_34, GridSpec(n=1, N=64, L=10.0), gaussian_data(0.3),
            t_end=1.0, dt=0.1)
        # up to the end of the first step, one irfft each for the t = 0
        # record, the step's old forcing and its predictors, each of
        # them one pass of both components
        assert list(after_step[0] - after_init[0]) == [0, 3]

    @pytest.mark.parametrize("n", [1, 2])
    def test_snapshot_record_transforms_once(self, n, monkeypatch,
                                             fft_calls):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        after_step = inverse_after_each(monkeypatch, fft_calls, "step")
        res = run(params, grid, gaussian_data(0.3), t_end=1.0, dt=0.125,
                  outputs=2)
        assert res.times[-1] == 1.0
        assert np.array_equal(np.abs(res.u_final).max(axis=grid.spatial_axes),
                              res.sup[:, -1])
        # the t_end record's norms() transforms once per pass, and
        # u_final is one irfftn
        assert list(np.array([fft_calls["irfftn"], fft_calls["irfft"]])
                    - after_step[-1]) == [1, passes_of(grid, 2)]


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
        state = uv_state(grid, np.fft.rfftn(u, axes=(1,)),
                         np.zeros_like(np.fft.rfftn(u, axes=(1,))))
        out = norms(grid, state, 1.5)
        assert out["hsigma"][0] == pytest.approx(
            xi0 ** 1.5 * out["l2"][0], rel=1e-12
        )
        assert out["l2"][0] == pytest.approx(math.sqrt(grid.L), rel=1e-12)

    def test_2d_parseval(self):
        grid = GridSpec(n=2, N=32, L=3.0)
        rng = np.random.default_rng(9)
        u = rng.normal(size=(1,) + grid.shape)
        state = uv_state(grid, np.fft.rfftn(u, axes=(1, 2)),
                         np.zeros_like(np.fft.rfftn(u, axes=(1, 2))))
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
        state = uv_state(grid, half, np.zeros_like(half))
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
        # norms() records the corrected field's sup, bit for bit, per
        # component, not the predictor's sup that the blow-up check
        # reads; only an exact linear step has the two the same
        grid = GridSpec(n=n, N=32, L=10.0)
        data = gaussian_data(0.5, ((1.0, 0.5), (0.8, -0.3)))
        state, _ = make_initial_data(grid, data, 1.0)
        new = step(state, 0.1, PARAMS_34, grid, linear_only=linear_only)
        u = np.fft.irfftn(new.u_half, s=grid.shape, axes=grid.spatial_axes)
        want = np.max(np.abs(u), axis=grid.spatial_axes)
        assert norms(grid, new, 1.0)["sup"] == tuple(float(x) for x in want)
        assert np.all(want > 0.0)
        if linear_only:
            assert np.array_equal(new.pred_sup, want)
        else:
            assert np.all(new.pred_sup != want)


# component 2 starts at zero, and its predictor on the first step is zero
ZERO_PREDICTOR_DATA = gaussian_data(1.0, ((0.0, 1e8), (0.0, 0.0)))
ZERO_GRID = GridSpec(n=1, N=64, L=10.0)


class TestRun:
    def test_schedule_and_snapshots(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.01), t_end=2.0, dt=0.05,
                  outputs=12)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(res.times) > 0)
        assert res.l2.shape == (2, len(res.times))
        assert res.u_final.shape == (2,) + grid.shape
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
        # the check reads the predictor's sup, the field a step holds
        assert (np.max(good.pred_sup) <= solver.BLOWUP_THRESHOLD
                < np.max(crossed.pred_sup))
        assert res.blowup_time == good.t + 0.5 * h

    def test_blowup_run_records_last_good_state(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        good, h, _ = calls[-1]
        assert res.times[-1] == good.t
        assert np.count_nonzero(res.times == good.t) == 1
        assert tuple(res.sup[:, -1]) == norms(BLOWUP_GRID, good, 1.0)["sup"]
        assert res.blowup_time - res.times[-1] == pytest.approx(0.5 * h)
        assert np.array_equal(res.u_final, good.u)
        assert np.array_equal(np.abs(res.u_final).max(axis=1),
                              res.sup[:, -1])

    def test_non_finite_field_is_blow_up(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        params = SystemParams(n=1, sigma=1.0, k=2, p=(70.0, 70.0))
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(params, grid, gaussian_data(1e5), t_end=1.0, dt=0.1)
        assert not np.all(np.isfinite(calls[-1][2].u))
        assert res.blown_up and res.blowup_time == 0.05
        assert list(res.times) == [0.0]

    @pytest.mark.parametrize("dt_policy", ["fixed", "adaptive"])
    def test_non_finite_corrector_is_blow_up_on_its_step(
            self, monkeypatch, tmp_path, dt_policy):
        # a finite predictor below the threshold whose |u|^70 overflows:
        # u0 = 0.1 g keeps the old forcing finite, u1 = 1e6 g lifts the
        # predictor to ~9e4, and 9e4^70 is past the float range
        calls = recording_every_step(monkeypatch)
        params = SystemParams(n=1, sigma=1.0, k=2, p=(70.0, 70.0))
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(1.0, ((0.1, 1e6), (0.1, 1e6)))
        res = run(params, grid, data, t_end=1.0, dt=0.1, dt_policy=dt_policy)
        good, h, crossed = calls[-1]
        assert len(calls) == 1
        assert np.max(crossed.pred_sup) <= solver.BLOWUP_THRESHOLD
        assert not np.all(np.isfinite(crossed.nl_half))
        assert not np.all(np.isfinite(crossed.u_half))
        assert res.blown_up and res.blowup_time == good.t + 0.5 * h == 0.05
        assert list(res.times) == [0.0]
        table = read_norms_csv(write_norms_csv(tmp_path / "norms.csv", res))
        assert all(np.all(np.isfinite(col)) for col in table.values())

    def test_zero_component_estimate_is_finite(self, monkeypatch):
        # component 2's predictor is zero, so its scale is SCALE_FLOOR
        # times component 1's sup and the estimate stays finite; at this
        # dt the floor dt / 1024 is too coarse for a blow-up at T ~ 0.0081,
        # so the run still ends in floor steps
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, ZERO_GRID, ZERO_PREDICTOR_DATA, t_end=1.0,
                  dt=0.05, dt_policy="adaptive")
        _, _, first = calls[0]
        assert first.pred_sup[1] == 0.0 and first.pred_sup[0] > 0.0
        assert solver.STEP_TOL < first.err < math.inf
        assert res.blown_up
        assert res.blowup_time == 0.008141251178062803
        assert (res.steps, res.rejected_steps, res.floor_steps) == (136, 6,
                                                                    62)

    def test_zero_component_is_stepped_under_control(self):
        # with a floor below the steps the blow-up needs, no step is taken
        # uncontrolled; the purely relative scale, whose estimate was inf
        # while component 2 was zero, took (504, 16, 36) here
        res = run(PARAMS_22, ZERO_GRID, ZERO_PREDICTOR_DATA, t_end=1.0,
                  dt=0.05 / 4096, dt_policy="adaptive")
        assert res.blown_up
        assert (res.steps, res.rejected_steps, res.floor_steps) == (381, 7,
                                                                    0)
        # fixed dt = 0.05 / 2^14 ... 2^16 extrapolate to T = 0.0081237793
        assert res.blowup_time == pytest.approx(0.0081237793,
                                                abs=res.blowup_error)

    def test_run_never_scans_a_spectrum(self, monkeypatch):
        # blow-up is judged by the peak and the estimate alone: no run
        # passes a complex spectrum to np.isfinite, whether its estimate
        # stays small, starts far above STEP_TOL against a zero component
        # or overflows with a finite predictor's |u|^70
        scanned = []
        real = np.isfinite

        def counting(x, *args, **kwargs):
            if np.iscomplexobj(x):
                scanned.append(np.shape(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        grid = GridSpec(n=1, N=64, L=10.0)
        p70 = SystemParams(n=1, sigma=1.0, k=2, p=(70.0, 70.0))
        runs = [
            run(PARAMS_34, grid, gaussian_data(0.3), t_end=2.0, dt=0.05,
                dt_policy="adaptive", outputs=4),
            run(PARAMS_22, grid, ZERO_PREDICTOR_DATA, t_end=1.0, dt=0.05,
                dt_policy="adaptive", outputs=0),
            run(p70, grid, gaussian_data(1.0, ((0.1, 1e6), (0.1, 1e6))),
                t_end=1.0, dt=0.1, dt_policy="adaptive"),
        ]
        assert runs[0].steps > 10
        assert [r.blown_up for r in runs] == [False, True, True]
        assert runs[2].blowup_time == 0.05
        assert scanned == []

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
        with pytest.raises(ValueError, match="outputs must be"):
            run(PARAMS_34, grid, gaussian_data(0.1), t_end=1.0, dt=0.1,
                outputs=-1)
        bad = InitialData(epsilon=0.1,
                          components=(ComponentData(amp0=1.0),))
        with pytest.raises(ValueError, match="components"):
            run(PARAMS_34, grid, bad, t_end=1.0, dt=0.1)

    def test_result_is_runresult(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.01), t_end=0.5, dt=0.1)
        assert isinstance(res, RunResult)
        assert res.steps > 0


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
    """Patch solver.step to record (state, dt, new state) of every
    nonlinear step, optionally editing the result."""
    real_step = solver.step

    def recorded(state, dt, *args, **kwargs):
        new = real_step(state, dt, *args, **kwargs)
        if not kwargs.get("linear_only"):
            if edit is not None:
                new = edit(len(calls), new)
            calls.append((state, dt, new))
        return new

    monkeypatch.setattr(solver, "step", recorded)


def on_ladder(h, dt):
    j = 4.0 * math.log2(h / dt)
    return abs(j - round(j)) <= 1e-9


class TestNextH:
    """The adaptive controller on its own: dt = 0.05, h on the ladder,
    between its rungs, and below the floor dt / 1024, as a last step
    clipped to t_end can be."""

    DT = 0.05
    FLOOR = DT / 1024
    HS = ((DT * 2.0 ** (np.arange(-40, 41, 3) / 4)).tolist()
          + [0.0123, 0.3, 7.1, 1.5 * FLOOR, 1e-7])
    ERRS = (0.0, 1e-12, 0.25 * solver.STEP_TOL, solver.STEP_TOL,
            10.0 * solver.STEP_TOL, 1e3, math.inf)

    def below(self, x):
        """The largest rung dt * 2^(j/4) not above x, up to roundoff."""
        return max(self.DT * 2.0 ** (j / 4) for j in range(-120, 60)
                   if self.DT * 2.0 ** (j / 4) <= x * (1.0 + 1e-12))

    def test_zero_estimate_gives_the_rung_at_or_below_2h(self):
        for h in self.HS:
            want = max(self.FLOOR, self.below(2.0 * h))
            assert solver._next_h(h, 0.0, self.DT) == want

    def test_infinite_estimate_gives_the_rung_at_or_below_h_over_4(self):
        for h in self.HS:
            want = max(self.FLOOR, self.below(0.25 * h))
            assert solver._next_h(h, math.inf, self.DT) == want

    def test_estimate_over_tolerance_shrinks_every_step_above_the_floor(self):
        # run() rejects such a step exactly when it is shrunk
        for h in self.HS + [self.FLOOR]:
            for err in (1.0001 * solver.STEP_TOL, 1e3, math.inf):
                shrunk = solver._next_h(h, err, self.DT) < h
                assert shrunk == (h > self.FLOOR)

    def test_never_below_the_floor(self):
        for h in self.HS:
            for err in self.ERRS:
                assert solver._next_h(h, err, self.DT) >= self.FLOOR
        assert solver._next_h(self.FLOOR, math.inf, self.DT) == self.FLOOR

    def test_every_size_is_a_rung_bit_for_bit(self):
        for h in self.HS:
            for err in self.ERRS:
                got = solver._next_h(h, err, self.DT)
                j = round(4.0 * math.log2(got / self.DT))
                assert got == self.DT * 2.0 ** (j / 4)


class TestStepControl:
    def test_every_step_carries_its_estimate(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        for _ in range(2):  # a first step, then one carrying its forcing
            linear = step(state, 0.1, PARAMS_34, grid, linear_only=True)
            state = step(state, 0.1, PARAMS_34, grid)
            assert type(linear.err) is float and linear.err == 0.0
            assert type(state.err) is float and state.err > 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_scalar_estimate_is_the_numpy_reduction(self, k):
        # bit for bit the mixed-scale float(np.max(bounds / scale /
        # np.maximum(sups, floor))), floor = max(SCALE_FLOOR max(sups),
        # TINY), and NaN wherever that is, with zero, TINY and subnormal
        # sups, ratios overflowing to inf and NaN anywhere; "floored"
        # rows are those where the floor moves the purely relative ratio
        bounds = (0.0, 3e-7, 0.25, 1e300, math.inf, math.nan)
        sups = (0.0, TINY, 1e-310, 0.5, 1e8, math.inf, math.nan)
        pairs = [(b, s) for b in bounds for s in sups]
        rng = np.random.default_rng(3)
        picks = rng.integers(len(pairs), size=(2000, k))
        picks[: len(pairs) ** 2, :2] = np.indices(
            (len(pairs),) * 2).reshape(2, -1).T
        seen = set()
        for scale in (64, 256 ** 2):
            for row in picks:
                b, s = (list(x) for x in zip(*(pairs[i] for i in row)))
                with np.errstate(over="ignore", invalid="ignore"):
                    floor = np.maximum(solver.SCALE_FLOOR * np.max(s), TINY)
                    want = float(np.max(np.array(b) / scale
                                        / np.maximum(s, floor)))
                    relative = float(np.max(np.array(b) / scale
                                            / np.maximum(s, TINY)))
                got = solver._relative_max(b, s, scale)
                assert type(got) is float
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert np.array(got).tobytes() == \
                        np.array(want).tobytes()
                seen.add("nan" if math.isnan(want) else
                         "inf" if want == math.inf else
                         "floored" if want != relative else "finite")
        assert seen == {"nan", "inf", "floored", "finite"}
        assert solver._relative_max([0.0] * k, [0.0] * k, 64) == 0.0

    # amp2 = 1e-4: component 2's gap is small against sup|u_1| but not
    # against its own sup, which is what err must measure it by
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("amp2", [1.0, 1e-4])
    def test_estimate_is_the_relative_predictor_gap(self, n, amp2):
        # err is the l1 sum of the corrector-predictor gap spectrum over
        # N^n, relative to the predictor's sup, on a first step and on
        # one that carries its forcing; it bounds the sup of the gap
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(
            grid, gaussian_data(0.5, ((1.0, 1.0), (amp2, amp2))), 1.0)
        axes = grid.spatial_axes
        nh = None
        for _ in range(2):
            want_u, _, u_pred, nh = reference_step(state, 0.1, params, grid,
                                                   nh)
            state = step(state, 0.1, params, grid)
            size = np.max(np.abs(u_pred), axis=axes)
            gap_hat = want_u - np.fft.fftn(u_pred, axes=axes)
            bound = np.sum(np.abs(gap_hat), axis=axes) / grid.N ** n
            assert state.err == pytest.approx(np.max(bound / size), rel=1e-8)
            u = np.fft.ifftn(want_u, axes=axes).real
            true = np.max(np.max(np.abs(u - u_pred), axis=axes) / size)
            # a gap peaked on a grid point with aligned phases, as from
            # these centred bumps, meets the bound; the two sides differ
            # then by the roundoff of the fields, relative to their sup
            assert state.err >= true - 1e-13 and true > 0.0

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
        errs = [step(state, h, PARAMS_22, grid).err
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
        # the run stopped on its decade fits: the last call was accepted
        # and recorded, below the threshold, short of the blow-up time
        _, _, last = calls[-1]
        assert last.err <= solver.STEP_TOL
        assert np.max(last.pred_sup) < solver.BLOWUP_THRESHOLD
        assert res.times[-1] == last.t < res.blowup_time
        floor = 0.05 / 1024
        accepted = [(st, h) for st, h, new in calls
                    if new.err <= solver.STEP_TOL or h <= floor]
        assert len(accepted) == res.steps
        assert res.dt_min == min(h for _, h in accepted)
        assert res.dt_max == max(h for _, h in accepted)
        rungs = set()
        for st, h in accepted:
            # the controller alone sizes a step; only one that ends at
            # t_end may be off the ladder
            if not on_ladder(h, 0.05):
                assert st.t + h == pytest.approx(100.0, rel=1e-9)
                continue
            rungs.add(round(4.0 * math.log2(h / 0.05)))
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

    def test_floor_steps_count_the_uncontrolled_steps(self, monkeypatch):
        kw = dict(t_end=100.0, dt_policy="adaptive", outputs=0)
        assert run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, dt=0.05,
                   **kw).floor_steps == 0
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, dt=50.0, **kw)
        # the last step crossed the blow-up threshold and was not taken
        assert res.blown_up
        assert np.max(calls[-1][2].pred_sup) > solver.BLOWUP_THRESHOLD
        # steps over the tolerance above the floor were retried
        over = [h for _, h, new in calls[:-1]
                if new.err > solver.STEP_TOL and h <= 50.0 / 1024]
        assert res.floor_steps == len(over) > 10
        assert res.floor_steps <= res.steps

    def test_fixed_policy_is_a_plain_step_loop(self, monkeypatch):
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.5)
        calls = []
        recording_step(monkeypatch, calls)
        res = run(PARAMS_34, grid, data, t_end=2.0, dt=0.125, outputs=2)
        monkeypatch.undo()
        assert [h for _, h, _ in calls] == [0.125] * 16
        state, _ = make_initial_data(grid, data, PARAMS_34.sigma)
        for _ in range(16):
            state = step(state, 0.125, PARAMS_34, grid)
        assert state.t == 2.0 and res.times[-1] == 2.0
        assert (res.steps, res.rejected_steps) == (16, 0)
        assert res.dt_min == res.dt_max == 0.125
        assert np.array_equal(res.u_final, state.u)
        assert tuple(res.sup[:, -1]) == norms(grid, state, 1.0)["sup"]
        assert tuple(res.l2[:, -1]) == norms(grid, state, 1.0)["l2"]


def power_law_history(T, alpha, C=1.0, c=0.0, taus=None):
    """(t, sup) pairs of sup = C (T - t)^(-alpha) (1 + c (T - t)) on a
    geometric approach to T, kept from 10 times the t = 0 sup on, and
    that t = 0 sup."""
    def sup(tau):
        return C * tau ** -alpha * (1.0 + c * tau)

    s0 = sup(T)
    if taus is None:
        taus = T * np.geomspace(1.0, 1e-3, 400)
    return [(T - tau, sup(tau)) for tau in taus if sup(tau) >= 10 * s0], s0


def decade_counts(history, s0, decades):
    sups = np.array([s for _, s in history])
    return [int(np.count_nonzero((sups >= 10.0 ** (j - 1) * s0)
                                 & (sups <= 10.0 ** j * s0)))
            for j in decades]


class TestBlowupFit:
    """The self-similar endgame: three decade fits of T, extrapolated
    by Aitken's Delta^2, end a blow-up run before the threshold."""

    @pytest.mark.parametrize("T, alpha", [(54.1, 2.0), (7.0, 1.6),
                                          (2466.26, 2.0), (1.0, 3.0)])
    def test_pure_power_law_gives_its_time(self, T, alpha):
        history, s0 = power_law_history(T, alpha, C=0.3)
        got, err = solver._extrapolate_blowup(history, s0, alpha, 4)
        assert got == pytest.approx(T, rel=1e-9)
        assert err <= 1e-9 * T

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("T, alpha, c", [(54.1, 2.0, 0.01),
                                             (7.0, 1.6, 0.07),
                                             (1.0, 3.0, 0.5)])
    def test_perturbed_law_within_its_error_bar(self, T, alpha, c, d):
        history, s0 = power_law_history(T, alpha, c=c)
        got, err = solver._extrapolate_blowup(history, s0, alpha, d)
        assert 0.0 < abs(got - T) <= err < 1e-2 * T

    def test_seven_points_in_a_decade_give_no_fit(self):
        alpha = 2.0
        dense, s0 = power_law_history(10.0, alpha, c=0.1,
                                      taus=10.0 * np.geomspace(1.0, 1e-3,
                                                               2000))
        below = [(t, s) for t, s in dense if s < 1e3 * s0]
        last = [(t, s) for t, s in dense if 1e3 * s0 <= s <= 1e4 * s0]
        for count, fits in ((7, False), (8, True)):
            pick = np.linspace(0, len(last) - 1, count).astype(int)
            history = below + [last[i] for i in pick]
            n2, n3, n4 = decade_counts(history, s0, (2, 3, 4))
            assert min(n2, n3) > 100 and n4 == count
            fit = solver._extrapolate_blowup(history, s0, alpha, 4)
            assert (fit is not None) == fits

    @pytest.mark.parametrize("times", [(10.0, 10.1, 10.3),
                                       (10.0, 10.1, 10.05),
                                       (10.0, 10.0, 10.1)])
    def test_non_contracting_fits_give_no_stop(self, times):
        # decade j of the history follows a power law that blows up at
        # times[j - 2]: the decade fits land on those times
        alpha, s0 = 2.0, 10.0 ** -2
        history = []
        for j, T in zip((2, 3, 4), times):
            sups = np.geomspace(10.0 ** (j - 1), 10.0 ** j, 30)[:-1] * s0
            history += [(T - s ** (-1.0 / alpha), s) for s in sups]
        history.sort()
        assert solver._extrapolate_blowup(history, s0, alpha, 4) is None

    def test_adaptive_run_stops_on_the_fit(self, monkeypatch):
        calls = []
        recording_step(monkeypatch, calls)
        res = adaptive_blowup_run()
        _, _, last = calls[-1]
        assert res.blown_up
        assert last.err <= solver.STEP_TOL
        assert np.max(last.pred_sup) < solver.BLOWUP_THRESHOLD
        assert 0.0 < res.blowup_error < 1e-4 * res.blowup_time
        # the last accepted state is the last record and the final field
        assert res.times[-1] == last.t < res.blowup_time
        assert np.array_equal(res.u_final, last.u)
        assert np.array_equal(np.abs(res.u_final).max(axis=1),
                              res.sup[:, -1])
        monkeypatch.undo()
        monkeypatch.setattr(solver, "_extrapolate_blowup",
                            lambda *args: None)
        threshold_calls = []
        recording_step(monkeypatch, threshold_calls)
        crossed = adaptive_blowup_run()
        assert crossed.blown_up
        assert np.max(threshold_calls[-1][2].pred_sup) > \
            solver.BLOWUP_THRESHOLD
        assert res.blowup_time == pytest.approx(crossed.blowup_time,
                                                rel=1e-4)
        assert len(calls) < len(threshold_calls)
        assert res.steps < crossed.steps

    @pytest.mark.parametrize("amp0", [1e-6, 0.0])
    def test_decades_count_from_the_larger_data_layer(self, monkeypatch,
                                                      amp0):
        # u1 = g lifts a tiny or zero u0 by the linear flow before the
        # blow-up: decades counted from |u0| alone would fit that growth
        # (1.4e-3 relative off, outside the bar) or never start
        data = gaussian_data(0.3, ((amp0, 1.0), (amp0, 1.0)))
        kw = dict(t_end=100.0, dt=0.05, dt_policy="adaptive")
        res = run(PARAMS_22, BLOWUP_GRID, data, **kw)
        monkeypatch.setattr(solver, "_extrapolate_blowup",
                            lambda *args: None)
        crossed = run(PARAMS_22, BLOWUP_GRID, data, **kw)
        assert res.steps < crossed.steps
        assert abs(res.blowup_time - crossed.blowup_time) \
            <= res.blowup_error < 1e-4 * res.blowup_time

    def test_threshold_path_error_is_half_the_crossing_step(
            self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        good, h, _ = calls[-1]
        assert res.blowup_error == 0.5 * h
        assert res.blowup_time - good.t == pytest.approx(0.5 * h)

    def test_no_blowup_has_no_error(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.1), t_end=1.0, dt=0.1,
                  dt_policy="adaptive")
        assert not res.blown_up and res.blowup_error is None

    def test_lifespan_run_pin(self):
        # criterion 08's (A8) run at eps = 0.4 on its N = 2048 grid,
        # capped at t_end = 1e4 as the sweep runs it and at 1e5: the
        # same T to the last bit, since the cap moves only the output
        # times; within 1e-4 of the 54.10185151 the threshold path gave
        # at 1e5, and its error bar covers 54.1021933, the limit the
        # threshold path reaches there at a threshold of 1e12
        grid = GridSpec(n=1, N=2048, L=160.0)
        data = gaussian_data(0.4, ((0.25, 0.25), (0.25, 0.25)))
        capped, res = (run(PARAMS_22, grid, data, t_end=t_end, dt=0.05,
                           dt_policy="adaptive", outputs=16)
                       for t_end in (1e4, 1e5))
        assert capped.blown_up and res.blown_up
        assert (capped.blowup_time, capped.blowup_error) == (
            res.blowup_time, res.blowup_error)
        assert res.blowup_time == pytest.approx(54.10185151, rel=1e-4)
        assert abs(res.blowup_time - 54.1021933) <= res.blowup_error


def per_time_interpolant(old, new, h, t, params, grid):
    """One record's u_half on the interpolant, evaluated on the cached
    step tables _tables(grid, sigma, tau) of that record alone."""
    tau = t - old.t
    ea, k1, i1, w_nu = solver._tables(grid, params.sigma, tau)[:4]
    u_half = ea * old.u_half + k1 * old.z_half
    if new.nl_half is not None:
        Nh_old = old.nl_half
        if Nh_old is None:
            Nh_old = solver._nonlinearity_hat(old.u_half, params, grid)
        solver._add_block(u_half, i1 * Nh_old, grid)
        solver._add_block(u_half, (tau / h) * w_nu * (new.nl_half - Nh_old),
                          grid)
    return u_half


def two_steps(n, linear_only=False, h=0.3):
    """(grid, params, [(old, new)]) for a first step, whose old forcing
    is evaluated from the state's spectra, and one that carries it."""
    grid = GridSpec(n=n, N=32, L=10.0)
    params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
    data = gaussian_data(0.8, ((1.0, 0.5), (0.8, -0.3)))
    state, _ = make_initial_data(grid, data, params.sigma)
    pairs = []
    for _ in range(2):
        new = step(state, h, params, grid, linear_only=linear_only)
        pairs.append((state, new))
        state = new
    return grid, params, pairs


def interpolating(monkeypatch):
    """Patch solver._interpolate to log (old.t, new.t, ts) of each call
    and refuse a call without record times; returns the log."""
    log = []
    real = solver._interpolate

    def logged(old, new, h, ts, *args):
        if not len(ts):
            raise AssertionError("a step without records interpolated")
        log.append((old.t, new.t, list(ts)))
        return real(old, new, h, ts, *args)

    monkeypatch.setattr(solver, "_interpolate", logged)
    return log


class TestDenseOutput:
    """Steps are sized by t_end and the controller or dt alone; a
    record between step ends is read off its step's Duhamel
    interpolant."""

    def test_trajectory_ignores_the_record_schedule(self):
        # the default simulate config
        kw = dict(t_end=200.0, dt=0.05, dt_policy="adaptive")
        sparse = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, outputs=2, **kw)
        dense = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, outputs=64, **kw)
        assert sparse.blown_up and len(dense.times) > len(sparse.times) + 20
        for res in (sparse, dense):
            assert res.times[-1] < res.blowup_time
        assert np.array_equal(sparse.u_final, dense.u_final)
        for key in ("steps", "rejected_steps", "dt_min", "dt_max",
                    "blowup_time", "blowup_error"):
            assert getattr(sparse, key) == getattr(dense, key), key

    def test_linear_records_follow_the_duhamel_formula(self, monkeypatch):
        calls = recording_every_step(monkeypatch)
        grid = GridSpec(n=1, N=64, L=10.0)
        data = gaussian_data(0.5, ((1.0, 0.5), (0.8, -0.3)))
        res = run(PARAMS_34, grid, data, t_end=100.0, dt=0.05,
                  dt_policy="adaptive", outputs=16, linear_only=True)
        ends = {new.t for _, _, new in calls}
        inside = [t for t in res.times[1:-1]
                  if min(abs(t - e) for e in ends) > 1e-9 * t]
        assert len(inside) > 8
        start, _ = make_initial_data(grid, data, 1.0)
        a = solver._half(grid.symbol(1.0))
        v_half = start.z_half - a * start.u_half
        for i, t in enumerate(res.times):
            k0, k1 = propagator_arrays(t, a)[:2] if t else (1.0, 0.0)
            want = norms(grid, FieldState(
                t, k0 * start.u_half + k1 * v_half, None, a), 1.0)
            for key in ("l2", "sup"):
                got = getattr(res, key)[:, i]
                np.testing.assert_allclose(got, want[key], rtol=1e-12,
                                           atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("linear_only", [False, True])
    def test_interpolant_at_step_end_is_the_step(self, n, linear_only):
        grid, params, pairs = two_steps(n, linear_only, h=0.1)
        for state, new in pairs:
            got = solver._interpolate(state, new, 0.1, [new.t], params,
                                      grid)
            assert got.t.tolist() == [new.t] and got.z_half is None
            assert got.u_half.shape == (1,) + new.u_half.shape
            assert rel_err(got.u_half[0], new.u_half) <= 1e-14


class TestInterpolantBatch:
    """All records inside one step come off its interpolant as one
    batch: one table build outside the step-table cache, one irfftn and
    one norms() call."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("linear_only", [False, True])
    def test_batch_is_the_per_time_formula_bit_for_bit(self, n,
                                                       linear_only):
        h = 0.3
        grid, params, pairs = two_steps(n, linear_only, h)
        assert pairs[0][0].nl_half is None
        for old, new in pairs:
            ts = [old.t + f * h for f in (0.05, 0.3, 0.5, 0.77, 1.0)]
            batch = solver._interpolate(old, new, h, ts, params, grid)
            assert batch.t.tolist() == ts and batch.z_half is None
            assert batch.u_half.shape == (len(ts),) + new.u_half.shape
            for got, t in zip(batch.u_half, ts):
                want = per_time_interpolant(old, new, h, t, params, grid)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_build_outside_the_table_cache(self, n, monkeypatch):
        grid, params, pairs = two_steps(n)
        old, new = pairs[1]
        builds = counting_builds(monkeypatch)
        before = table_cache(grid)
        ts = [old.t + 0.1, old.t + 0.2, old.t + 0.25]
        solver._interpolate(old, new, 0.3, ts, params, grid)
        assert len(builds) == 1
        assert np.shape(builds[0]) == (3, 1) + (1,) * n
        assert table_cache(grid) == before

    @pytest.mark.parametrize("n", [1, 2])
    def test_norms_of_a_batch_are_the_per_record_norms(self, n,
                                                       fft_calls):
        grid, params, pairs = two_steps(n)
        old, new = pairs[1]
        ts = [old.t + 0.1, old.t + 0.2, old.t + 0.25, new.t]
        batch = solver._interpolate(old, new, 0.3, ts, params, grid)
        fft_calls.clear()
        got = norms(grid, batch, 1.5)
        # one irfftn for the batch, and one inverse transform per pass
        # for one record, alone or a batch of one
        assert fft_calls == {"irfftn": 1}
        one_record = per_pass(n, passes_of(grid, 2), inverse=1)
        for j, t in enumerate(ts):
            fft_calls.clear()
            want = norms(grid, FieldState(t, batch.u_half[j].copy(), None,
                                          batch.a_half), 1.5)
            alone = norms(grid, FieldState(batch.t[j:j + 1],
                                           batch.u_half[j:j + 1], None,
                                           batch.a_half), 1.5)
            assert fft_calls == {name: 2 * c
                                 for name, c in one_record.items()}
            for key in want:
                assert tuple(got[key][j]) == want[key], key
                assert alone[key] == (list(want[key]),), key

    def test_each_step_with_records_builds_once(self, monkeypatch):
        log = interpolating(monkeypatch)
        cache = []
        real = solver._interpolate

        def cache_checked(*args):
            before = table_cache(args[-1])
            out = real(*args)
            cache.append(table_cache(args[-1]) == before)
            return out

        monkeypatch.setattr(solver, "_interpolate", cache_checked)
        builds = counting_builds(monkeypatch)
        res = run(PARAMS_34, GridSpec(n=1, N=64, L=10.0), gaussian_data(0.3),
                  t_end=100.0, dt=0.05, dt_policy="adaptive", outputs=40)
        # one call per step with records inside, each one table build
        assert len({old_t for old_t, _, _ in log}) == len(log) > 1
        assert max(len(ts) for _, _, ts in log) > 1
        assert sum(np.ndim(b) > 0 for b in builds) == len(log)
        assert all(cache)
        for old_t, new_t, ts in log:
            assert all(old_t < t < new_t for t in ts)
        # and no call for the steps without one
        assert len(log) < res.steps
        inside = {t for _, _, ts in log for t in ts}
        assert inside < set(res.times.tolist())

    def test_byte_bound_splits_without_changing_records(self,
                                                        monkeypatch,
                                                        batch_bytes):
        kw = dict(t_end=100.0, dt=0.05, dt_policy="adaptive", outputs=40)
        grid, data = GridSpec(n=1, N=64, L=10.0), gaussian_data(0.3)
        log = interpolating(monkeypatch)
        whole = run(PARAMS_34, grid, data, **kw)
        longest = max(len(ts) for _, _, ts in log)
        assert longest > 2
        # 32 bytes per half-spectrum point: four float64 tables; a
        # budget this small also steps one component at a time
        for per_batch in (1, 2):
            batch_bytes(per_batch * 32 * (grid.N // 2 + 1))
            log.clear()
            split = run(PARAMS_34, grid, data, **kw)
            assert max(len(ts) for _, _, ts in log) == per_batch
            for key in ("times", "l2", "hsigma", "sup", "mean", "u_final"):
                assert np.array_equal(getattr(split, key),
                                      getattr(whole, key)), key


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
                  dt_policy=dt_policy, outputs=4)
        assert not res.blown_up and res.steps >= 4
        assert res.times[-1] == pytest.approx(2.0)
        assert res.u_final.shape == (2,) + grid.shape

    def test_blowup_run(self):
        res = run(PARAMS_22, BLOWUP_GRID, BLOWUP_DATA, t_end=100.0, dt=0.05)
        assert res.blown_up and 5.0 < res.blowup_time < 25.0


def table_cache(grid, k=2):
    """The cache_info of the step tables a step on grid reads."""
    return solver._workspace(grid, k).tables.cache_info()


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
        a = solver._half(grid.symbol(1.0))
        _, k1, _, _, i1, j1 = propagator_arrays(dt, a)
        tables = solver._tables(grid, 1.0, dt)
        # the propagator tables act on the state and stay full and
        # unmasked
        for got, want in zip(tables[:2], (np.exp(-a * dt), k1)):
            assert got.shape == mask.shape
            assert np.array_equal(got, want)
        # i1 and w_new_u multiply a forcing spectrum and live on the
        # mask's support only, where they are the unmasked formulas
        weights = (i1, i1 - j1 / dt)
        for got, want in zip(tables[2:4], weights):
            assert got.shape == grid.block_shape
            assert np.array_equal(got.ravel(), want[mask])
            assert np.all(want[~mask] != 0.0)
        # z's propagator and forcing weights are scalars: e^(-dt),
        # c_old = (1 - e^(-dt)) - c_new and c_new = 1 - phi1(dt)
        c_new = 1.0 - (1.0 - math.exp(-dt)) / dt
        assert len(tables) == 7
        assert tables[4] == math.exp(-dt)
        assert tables[5] == pytest.approx(1.0 - math.exp(-dt) - c_new,
                                          rel=1e-12)
        assert tables[6] == pytest.approx(c_new, rel=1e-12)


class TestKeptBlock:
    """The forcing spectrum holds only the modes the 2/3 rule keeps:
    c = N//3 + 1 half-spectrum columns and, in 2D, 2c - 1 rows."""

    @pytest.mark.parametrize("N", [8, 32, 256, 2048])
    @pytest.mark.parametrize("n", [1, 2])
    def test_block_is_the_mask_support(self, n, N):
        grid = GridSpec(n=n, N=N, L=10.0)
        c = N // 3 + 1
        assert grid.block_shape == (2 * c - 1,) * (n - 1) + (c,)
        mask = solver._half(grid.dealias_mask)
        # the block reads the kept modes in the order of the half layout
        index = np.arange(mask.size).reshape(mask.shape)
        assert np.array_equal(solver._block(index, grid).ravel(),
                              index[mask])
        # and adding it back covers each kept mode once, nothing else
        placed = np.zeros(mask.shape, dtype=int)
        solver._add_block(placed, np.ones(grid.block_shape, dtype=int),
                          grid)
        assert np.array_equal(placed, mask.astype(int))

    @pytest.mark.parametrize("n", [1, 2])
    def test_nl_half_shape(self, n):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        for _ in range(2):
            state = step(state, 0.1, params, grid)
            assert state.nl_half.shape == ((2, 11) if n == 1
                                           else (2, 21, 11))

    @pytest.mark.parametrize("p", [(3.0, 4.0), (2.5, 2.0)])
    @pytest.mark.parametrize("n, N", [(1, 32), (1, 2048), (2, 32),
                                      (2, 256)])
    def test_pruned_transform_is_the_rfftn_block_bit_for_bit(self, n, N,
                                                             p):
        grid = GridSpec(n=n, N=N, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=p)
        half = np.fft.rfftn(np.random.default_rng(5).normal(
            size=(2,) + grid.shape), axes=grid.spatial_axes)
        u = np.fft.irfftn(half, s=grid.shape, axes=grid.spatial_axes)
        force = np.stack([_power(np.abs(u[1]), p[0]),
                          _power(np.abs(u[0]), p[1])])
        full = np.fft.rfftn(force, axes=grid.spatial_axes)
        want = full[:, solver._half(grid.dealias_mask)]
        got = solver._nonlinearity_hat(half, params, grid)
        assert got.shape == (2,) + grid.block_shape
        assert np.array_equal(got.reshape(want.shape), want)

    def test_second_pass_covers_the_block_columns(self, monkeypatch):
        grid = GridSpec(n=2, N=256, L=10.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        shapes = []
        real = np.fft.fft

        def logged(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", logged)
        solver._nonlinearity_hat(np.ones((2, 256, 129), complex), params,
                                 grid)
        # one component at a time, the layout of this grid
        assert shapes == [(1, 256, 86)] * 2

    def test_table_entry_bytes(self):
        # 2 propagator tables on 256 x 129 points and 2 weights on the
        # 171 x 86 block, real values held as complex128, then 3 scalars
        grid = GridSpec(n=2, N=256, L=10.0)
        tables = solver._tables(grid, 1.0, 0.1)[:4]
        assert sum(t.nbytes for t in tables) == 1_527_360
        assert all(t.dtype == complex and not t.imag.any() for t in tables)


def warm_step_transient(grid, params):
    """Bytes a warm step's tracemalloc peak holds beyond the arrays of
    the state it returns."""
    state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
    state = step(state, 0.1, params, grid)
    step(state, 0.1, params, grid)  # warm caches
    tracemalloc.start()
    try:
        new = step(state, 0.1, params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(x.nbytes for x in (new.u_half, new.z_half,
                                         new.nl_half, new.pred_sup))


class TestWorkspace:
    """step() and the forcing run their components in passes through
    one cached workspace per grid, which no returned array shares."""

    @staticmethod
    def buffers(grid, k=2):
        return [x for x in vars(solver._workspace(grid, k)).values()
                if isinstance(x, np.ndarray)]

    def test_warm_step_allocates_little_beyond_its_state(self):
        grid = GridSpec(n=2, N=64, L=10.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        assert passes_of(grid, 2) == 2
        assert (warm_step_transient(grid, params)
                < np.empty(grid.shape).nbytes)

    def test_warm_pass_of_all_components_allocates_below_its_workspace(
            self):
        # 1D: numpy's buffers for the table products, which broadcast
        # over the pass, grow with the pass, not with the state
        grid = GridSpec(n=1, N=2048, L=10.0)
        assert passes_of(grid, 2) == 1
        workspace = sum(b.nbytes for b in self.buffers(grid))
        assert warm_step_transient(grid, PARAMS_34) < workspace

    def test_simulate_2d_grid_steps_one_component_at_a_time(self,
                                                            fft_calls):
        # the simulate-2d workload's grid: its fft calls per step are
        # those of the per-component step
        grid = GridSpec(n=2, N=256, L=40.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        state, _ = make_initial_data(grid, gaussian_data(0.1), 1.0)
        state = step(state, 0.05, params, grid)
        assert [b.shape[0] for b in self.buffers(grid)] == [1] * 7
        fft_calls.clear()
        step(state, 0.05, params, grid)
        assert fft_calls == {"ifft": 2, "irfft": 2, "rfft": 2, "fft": 2}

    def test_lifespan_grid_steps_in_one_pass(self, fft_calls):
        # criterion 08's grid: both components fit 164 KB
        grid = GridSpec(n=1, N=2048, L=160.0)
        data = gaussian_data(0.4, ((0.25, 0.25), (0.25, 0.25)))
        state, _ = make_initial_data(grid, data, 1.0)
        state = step(state, 0.05, PARAMS_22, grid)
        assert sum(b.nbytes for b in self.buffers(grid)) == 163_904
        assert [b.shape[0] for b in self.buffers(grid)] == [2] * 7
        fft_calls.clear()
        step(state, 0.05, PARAMS_22, grid)
        assert fft_calls == {"irfft": 1, "rfft": 1}

    @pytest.mark.parametrize("linear_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_steps_from_one_state_are_independent(self, n, linear_only):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 2.5))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        state = step(state, 0.1, params, grid)
        fields = ("u_half", "z_half", "pred_sup") + (
            () if linear_only else ("nl_half",))
        first = step(state, 0.1, params, grid, linear_only=linear_only)
        kept = {f: getattr(first, f).copy() for f in fields}
        second = step(state, 0.1, params, grid, linear_only=linear_only)
        assert first.err == second.err
        for f in fields:
            assert getattr(first, f).tobytes() == kept[f].tobytes()
            assert getattr(second, f).tobytes() == kept[f].tobytes()
        arrays = [getattr(st, f) for st in (first, second) for f in fields]
        arrays += [state.u, first.u]
        for buf in self.buffers(grid):
            assert not any(np.shares_memory(buf, x) for x in arrays)

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_step_leaves_the_state_field(self, n):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=2, p=(3.0, 2.5))
        state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
        spectra = state.u_half.copy(), state.z_half.copy()
        field = state.u
        new = step(state, 0.1, params, grid)
        assert state.nl_half is None and new.nl_half is not None
        # the old forcing comes from the spectra, which stay as they were
        assert state.u_half.tobytes() == spectra[0].tobytes()
        assert state.z_half.tobytes() == spectra[1].tobytes()
        assert state.u.tobytes() == field.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_field_is_a_new_array_on_each_read(self, n):
        grid, params, pairs = two_steps(n)
        old, new = pairs[1]
        batch = solver._interpolate(old, new, 0.3, [old.t + 0.1, new.t],
                                    params, grid)
        for state in (new, batch):
            first, second = state.u, state.u
            assert first.tobytes() == second.tobytes()
            assert not np.shares_memory(first, second)
            # norms() takes its magnitudes in place only on a field of
            # its own
            spectra = [(x, x.copy()) for x in (state.u_half, state.z_half)
                       if x is not None]
            norms(grid, state, 1.0)
            for x, before in spectra:
                assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("N", [64, 128])
    def test_cold_2d_run_peaks_below_four_states(self, N):
        # no state keeps a physical field: a step holds its old and new
        # states, the workspace, one step-table entry and the half symbol
        grid = GridSpec(n=2, N=N, L=10.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        one_state = 16 * (2 * 2 * N * (N // 2 + 1)
                          + 2 * math.prod(grid.block_shape))
        np.fft.irfft  # numpy imports np.fft on first use, not the run
        solver._workspace.cache_clear()
        solver._half_symbol.cache_clear()
        tracemalloc.start()
        try:
            res = run(params, grid, gaussian_data(0.3), t_end=2.0, dt=0.1,
                      outputs=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.steps == 20 and not res.blown_up
        assert peak <= 4.0 * one_state

    def test_one_grid_held(self):
        solver._workspace.cache_clear()
        params = SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0))
        for N in (32, 64):
            grid = GridSpec(n=1, N=N, L=10.0)
            state, _ = make_initial_data(grid, gaussian_data(0.3), 1.0)
            step(state, 0.1, params, grid)
        info = solver._workspace.cache_info()
        assert info.currsize == 1 and info.misses == 2
        assert [b.shape for b in self.buffers(grid)] == [
            (2, 64), (2, 64), (2, 33), (2, 22), (2, 22), (2, 22), (2, 22)]


def one_component_buffers(grid):
    """The buffers of one component that per_component_step reuses."""
    lead = grid.shape[:-1]
    return SimpleNamespace(
        field=np.empty(grid.shape), mag=np.empty(grid.shape),
        half=np.empty(lead + (grid.N // 2 + 1,), complex),
        cols=np.empty(lead + grid.block_shape[-1:], complex),
        block=np.empty(grid.block_shape, complex))


def irfftn_one(half, grid, ws):
    if grid.n == 2:
        half = np.fft.ifft(half, axis=0, out=ws.half)
    return np.fft.irfft(half, n=grid.N, out=ws.field)


def forcing_one(mag, p, row, grid, ws):
    spec = np.fft.rfft(_power(mag, p, out=ws.field), out=ws.half)
    if grid.n == 2:
        spec = np.fft.fft(spec[:, : grid.block_shape[-1]], axis=0,
                          out=ws.cols)
    solver._block(spec, grid, out=row)


def per_component_nonlinearity_hat(u_half, params, grid):
    ws = one_component_buffers(grid)
    k = len(u_half)
    out = np.empty((k,) + grid.block_shape, complex)
    for ell in range(k):
        nxt = (ell + 1) % k
        mag = np.abs(irfftn_one(u_half[ell], grid, ws), out=ws.mag)
        forcing_one(mag, params.p[nxt], out[nxt], grid, ws)
    return out


def per_component_step(state, dt, params, grid, *, linear_only=False):
    """Reference: step() as it ran one component at a time, every
    operation one numpy call per component, into the row of component
    l + 1 for the forcing that component l drives."""
    ea, k1, i1, w_nu, e, c_old, c_new = solver._tables(
        grid, params.sigma, dt)
    ws = one_component_buffers(grid)
    uh, zh = state.u_half, state.z_half
    k = len(uh)
    u_half, z_half = np.empty_like(uh), np.empty_like(zh)
    for u, z, a, b in zip(u_half, z_half, uh, zh):
        np.multiply(ea, a, out=u)
        u += np.multiply(k1, b, out=ws.half)
        np.multiply(b, e, out=z)
    if not linear_only:
        Nh_old = state.nl_half
        if Nh_old is None:
            Nh_old = per_component_nonlinearity_hat(state.u_half, params,
                                                    grid)
        Nh_new = np.empty_like(Nh_old)
    sup = np.empty(k)
    for ell, u in enumerate(u_half):
        if not linear_only:
            solver._add_block(u, np.multiply(i1, Nh_old[ell], out=ws.block),
                              grid)
        mag = np.abs(irfftn_one(u, grid, ws), out=ws.mag)
        sup[ell] = mag.max()
        if not linear_only:
            nxt = (ell + 1) % k
            forcing_one(mag, params.p[nxt], Nh_new[nxt], grid, ws)
    if linear_only:
        return FieldState(state.t + dt, u_half, z_half, state.a_half,
                          pred_sup=sup, err=0.0)
    bounds = []
    weights = grid.parseval_weights[: grid.block_shape[-1]]
    for u, z, new, old in zip(u_half, z_half, Nh_new, Nh_old):
        gap = np.subtract(new, old, out=ws.block)
        np.multiply(w_nu, gap, out=gap)
        solver._add_block(u, gap, grid)
        bounds.append((weights * np.abs(gap)).sum())
        solver._add_block(z, np.multiply(old, c_old, out=ws.block), grid)
        solver._add_block(z, np.multiply(new, c_new, out=ws.block), grid)
    bound = np.array(bounds) / grid.N ** grid.n
    err = float(np.max(bound / np.maximum(sup, TINY)))
    return FieldState(state.t + dt, u_half, z_half, state.a_half,
                      nl_half=Nh_new, pred_sup=sup, err=err)


def assert_same_state(got, want):
    for name in ("u_half", "z_half", "nl_half", "pred_sup"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.err == want.err


class TestPasses:
    """step() runs its components in passes of g = k (1D) or 1 through
    the workspace, one numpy call per operation and pass, and is the step
    made one component at a time (per_component_step) bit for bit."""

    @pytest.mark.parametrize("p", [(2.0, 3.0, 4.0), (2.5, 1.5, 3.5)])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_passes_are_the_per_component_step_bit_for_bit(
            self, n, k, p, batch_bytes, monkeypatch):
        grid = GridSpec(n=n, N=32, L=10.0)
        params = SystemParams(n=n, sigma=1.0, k=k, p=p[:k])
        rng = np.random.default_rng(29)
        u, v = 0.5 * rng.normal(size=(2, k) + grid.shape)
        axes = grid.spatial_axes
        start = uv_state(grid, np.fft.rfftn(u, axes=axes),
                         np.fft.rfftn(v, axes=axes))
        h, ts = 0.1, [0.02, 0.05, 0.1]
        real_nonlinearity_hat = solver._nonlinearity_hat
        # 2D grids step one component at a time under any budget
        for budget, g in ((0, 1), (None, k if n == 1 else 1)):
            batch_bytes(budget)
            assert len(solver._workspace(grid, k).field) == g
            for linear_only in (False, True):
                kw = dict(linear_only=linear_only)
                # the first step evaluates its old forcing from the
                # state's spectra, the second carries it
                first = step(start, h, params, grid, **kw)
                assert_same_state(
                    first, per_component_step(start, h, params, grid, **kw))
                assert_same_state(
                    step(first, h, params, grid, **kw),
                    per_component_step(first, h, params, grid, **kw))
            # a record batch on a first step's interpolant, whose old
            # forcing comes from _nonlinearity_hat
            first = step(start, h, params, grid)
            got = solver._interpolate(start, first, h, ts, params, grid)
            monkeypatch.setattr(solver, "_nonlinearity_hat",
                                per_component_nonlinearity_hat)
            want = solver._interpolate(start, first, h, ts, params, grid)
            monkeypatch.setattr(solver, "_nonlinearity_hat",
                                real_nonlinearity_hat)
            assert got.u_half.tobytes() == want.u_half.tobytes()


class TestTableCache:
    def test_fixed_run_builds_its_dt_once(self, monkeypatch):
        solver._workspace.cache_clear()
        builds = counting_builds(monkeypatch)
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.1), t_end=20.0, dt=0.3,
                  outputs=8)
        assert res.steps == 67
        # the outputs lie on the dt grid; only the last step, clipped to
        # t_end = 20 off the grid, needs a table of its own
        assert builds == [0.3, pytest.approx(0.2)]
        assert table_cache(grid).currsize == 2

    @pytest.mark.parametrize("n, N, entries", [(1, 1024, 306),
                                               (1, 2048, 153), (2, 256, 5),
                                               (2, 512, 1)])
    def test_entries_are_bounded_by_bytes(self, n, N, entries):
        # max(1, TABLE_BYTES // entry) for an entry of 2 tables on the
        # half spectrum and 2 weights on the kept block
        grid = GridSpec(n=n, N=N, L=40.0)
        half = (N,) * (n - 1) + (N // 2 + 1,)
        entry = 2 * 16 * (math.prod(half) + math.prod(grid.block_shape))
        assert max(1, solver.TABLE_BYTES // entry) == entries
        assert table_cache(grid).maxsize == entries
        solver._workspace.cache_clear()

    def test_adaptive_run_holds_at_most_its_entries(self, monkeypatch):
        # with room for one entry, a ladder size that comes back after
        # another is built again
        monkeypatch.setattr(solver, "TABLE_BYTES", 1)
        solver._workspace.cache_clear()
        builds = counting_builds(monkeypatch)
        adaptive_blowup_run()
        info = table_cache(BLOWUP_GRID)
        assert (info.maxsize, info.currsize) == (1, 1)
        # record batches build outside the cache
        sizes = [b for b in builds if np.ndim(b) == 0]
        assert info.misses == len(sizes) > len(set(sizes))
        solver._workspace.cache_clear()


    def test_default_sweep_builds_each_step_size_once(self, monkeypatch):
        # the default lifespan sweep's four runs revisit ladder sizes
        # across runs; the cache holds them all on its grid
        cfg = config_from_dict(dict(DEFAULTS["lifespan"],
                                    kind="lifespan"))
        opts = dict(cfg.options)
        results = []
        real_run = harness.run

        def kept_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "run", kept_run)
        solver._workspace.cache_clear()
        builds = counting_builds(monkeypatch)
        harness.lifespan_sweep(cfg.params, cfg.grid, cfg.data.components,
                               opts.pop("epsilons"), **opts)
        sizes = [b for b in builds if np.ndim(b) == 0]
        assert len(sizes) == len(set(sizes)) == 52
        assert [r.steps for r in results] == [310, 397, 527, 691]
        solver._workspace.cache_clear()

    def test_half_symbol_is_computed_once_per_grid_and_sigma(
            self, monkeypatch):
        solver._workspace.cache_clear()
        solver._half_symbol.cache_clear()
        sigmas = []
        real = GridSpec.symbol

        def counting(grid, sigma):
            sigmas.append(sigma)
            return real(grid, sigma)

        monkeypatch.setattr(GridSpec, "symbol", counting)
        builds = counting_builds(monkeypatch)
        grid = GridSpec(n=2, N=32, L=10.0)
        params = SystemParams(n=2, sigma=1.5, k=2, p=(3.0, 4.0))
        run(params, grid, gaussian_data(0.3), t_end=2.0, dt=0.05,
            dt_policy="adaptive", outputs=8)
        # step tables of several sizes, record batches and norms
        assert sum(np.ndim(b) == 0 for b in builds) > 3
        assert sum(np.ndim(b) > 0 for b in builds) > 0
        assert sigmas == [1.5]
        monkeypatch.undo()
        a = solver._half_symbol(grid, 1.5)
        assert not a.flags.writeable
        assert a.tobytes() == solver._half(grid.symbol(1.5)).tobytes()


class TestFixedSchedule:
    """A fixed-dt run records at the log schedule rounded to multiples
    of dt, so its steps are plain dt steps, t_end is hit exactly and no
    record is interpolated."""

    @pytest.fixture
    def refuse_interpolation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run interpolated a record")
        monkeypatch.setattr(solver, "_interpolate", refuse)

    @pytest.mark.usefixtures("refuse_interpolation")
    def test_2d_run_steps_on_its_dt_grid(self, monkeypatch):
        solver._workspace.cache_clear()
        builds = counting_builds(monkeypatch)
        grid = GridSpec(n=2, N=32, L=10.0)
        params = SystemParams(n=2, sigma=1.0, k=2, p=(3.0, 4.0))
        data = gaussian_data(0.1, ((1.0, 1.0), (1.0, 1.0)))
        res = run(params, grid, data, t_end=20.0, dt=0.05, outputs=64)
        assert (res.steps, res.rejected_steps) == (400, 0)
        assert builds == [0.05]
        assert res.dt_min == res.dt_max == 0.05
        rounded = 0.05 * np.round(np.geomspace(0.05, 20.0, 64)[:-1] / 0.05)
        want = np.concatenate(([0.0], np.unique(rounded), [20.0]))
        assert len(res.times) == len(want) == 50
        assert np.array_equal(res.times, want)
        assert res.times[-1] == 20.0

    @pytest.mark.usefixtures("refuse_interpolation")
    def test_off_grid_t_end_is_hit(self, monkeypatch):
        solver._workspace.cache_clear()
        builds = counting_builds(monkeypatch)
        calls = recording_every_step(monkeypatch)
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.3), t_end=2.03, dt=0.1,
                  outputs=16)
        # the schedule's own t_end leaves before rounding, so no record
        # lands at 2.0, the grid point next to it
        grid_points = [0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 17]
        assert list(res.times) == [0.1 * j for j in grid_points] + [2.03]
        assert res.dt_max == 0.1
        # every step is dt but the last, from 2.0 to t_end
        assert [h for _, h, _ in calls[:-1]] == [0.1] * 20
        assert calls[-1][1] == pytest.approx(0.03)
        assert builds == [0.1, pytest.approx(0.03)]

    def test_adaptive_run_records_the_unrounded_schedule(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.3), t_end=2.0, dt=0.05,
                  dt_policy="adaptive", outputs=12)
        sched = np.geomspace(0.05, 2.0, 12)
        assert not np.all(np.isclose(sched, 0.05 * np.round(sched / 0.05)))
        assert np.array_equal(res.times, np.concatenate(([0.0], sched)))

    @pytest.mark.usefixtures("refuse_interpolation")
    @pytest.mark.parametrize("dt_policy", ["fixed", "adaptive"])
    def test_no_outputs_records_t_0_and_t_end(self, dt_policy):
        grid = GridSpec(n=1, N=64, L=10.0)
        res = run(PARAMS_34, grid, gaussian_data(0.3), t_end=1.0, dt=0.1,
                  dt_policy=dt_policy, outputs=0)
        assert list(res.times) == [0.0, 1.0]
