"""Propagator kernels against finite-difference and quadrature oracles.

The ODE residual oracle never trusts the closed forms: it sticks the
claimed k0/k1 back into u'' + (1+a) u' + a u with centered stencils.
The moment weights i1/j1 are checked against dense trapezoid quadrature
of k1 itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sevolab.errors import FitUnstable
from sevolab.kernels import (
    T_CAP,
    _phi1,
    decay_profile,
    line_fit,
    ode_residual,
    propagator_arrays,
)
from sevolab.solver import GridSpec

E1, E2 = math.exp(-1.0), math.exp(-2.0)


class TestClosedFormValues:
    def test_double_root(self):
        k0, k1, dk0, dk1, i1, j1 = propagator_arrays(2.0, 1.0)
        assert k1 == pytest.approx(2 * E2, abs=1e-15)
        assert k0 == pytest.approx(3 * E2, abs=1e-15)
        assert dk0 == pytest.approx(-2 * E2, abs=1e-15)
        assert dk1 == pytest.approx(-E2, abs=1e-15)
        assert i1 == pytest.approx(1 - 3 * E2, abs=1e-15)
        assert j1 == pytest.approx(2 - 10 * E2, abs=1e-14)

    def test_zero_frequency(self):
        k0, k1, dk0, dk1, i1, j1 = propagator_arrays(1.0, 0.0)
        assert k0 == 1.0
        assert k1 == pytest.approx(1 - E1, abs=1e-16)
        assert dk0 == 0.0
        assert dk1 == pytest.approx(E1, abs=1e-16)
        assert i1 == pytest.approx(E1, abs=1e-15)
        assert j1 == pytest.approx(2 * E1 - 0.5, abs=1e-15)

    def test_generic_mode(self):
        _, k1, _, _, i1, j1 = propagator_arrays(1.0, 2.0)
        assert k1 == pytest.approx(E1 - E2, abs=1e-15)
        assert i1 == pytest.approx((1 - E1 - (E1 - E2)) / 2, abs=1e-15)
        assert j1 == pytest.approx(
            (1 - 2 * E1) - (1 - 3 * E2) / 4, abs=1e-14
        )

    def test_initial_values(self):
        for a in (0.0, 0.3, 1.0, 1.0 + 1e-7, 40.0):
            k0, k1, dk0, dk1, i1, j1 = propagator_arrays(0.0, a)
            assert (k0, k1, dk0, dk1) == (1.0, 0.0, 0.0, 1.0)
            assert i1 == 0.0 and j1 == 0.0

    def test_time_cap(self):
        assert np.array_equal(propagator_arrays(2e6, 0.5),
                              propagator_arrays(T_CAP, 0.5))


class TestOdeResidual:
    def test_full_grid(self):
        # Endpoint t = 0 included: the centered stencil reaches into
        # negative time, where the closed forms stay exact solutions.
        t = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 40)])
        a = np.concatenate(
            [[0.0], np.geomspace(1e-2, 1e2, 41), [1 - 1e-6, 1.0, 1 + 1e-6]]
        )
        r = ode_residual(t[:, None], a[None, :])
        assert float(np.max(r)) <= 1e-6

    def test_stiff_endpoint(self):
        r = ode_residual(0.0, np.array([0.0, 1.0, 10.0, 100.0]))
        assert float(np.max(r)) <= 1e-6

    def test_scalar_in_scalar_out(self):
        assert isinstance(ode_residual(1.0, 2.0), float)


class TestBranches:
    def test_continuity_across_seams(self):
        for t in (1e-3, 0.1, 1.0, 7.0, 40.0):
            for a0 in (1.0, 0.5):
                lo = np.array(propagator_arrays(t, a0 - 1e-9))
                hi = np.array(propagator_arrays(t, a0 + 1e-9))
                assert float(np.max(np.abs(lo - hi))) < 1e-6

    # The switches propagator_arrays really has: the seam form of k1
    # for |(a - 1) t| < 0.5 and the low-a forms of i1/j1 for a < 0.5.
    @pytest.mark.parametrize("t,a", [
        *[(t, 1.0 + side * 0.5 / t) for t in (0.6, 2.0, 10.0, 50.0)
          for side in (-1.0, 1.0)],
        *[(t, 0.5) for t in (0.1, 1.0, 5.0, 50.0)],
    ])
    def test_relative_jump_at_branch_switch(self, t, a):
        below, above = a * (1.0 - 1e-12), a * (1.0 + 1e-12)
        sides = [(abs((b - 1.0) * t) < 0.5, b < 0.5) for b in (below, above)]
        assert sides[0] != sides[1]  # the pair straddles a switch
        lo = np.array(propagator_arrays(t, below))
        hi = np.array(propagator_arrays(t, above))
        rel = np.abs(hi - lo) / np.maximum(np.abs(lo), np.abs(hi))
        assert float(np.max(rel)) <= 1e-8

    def test_dk1_analytic_off_seam(self):
        rng = np.random.default_rng(7)
        a = np.concatenate(
            [rng.uniform(0.0, 0.9, 200), rng.uniform(1.1, 80.0, 200)]
        )
        t = rng.uniform(1e-3, 30.0, 400)
        _, _, _, dk1, _, _ = propagator_arrays(t, a)
        analytic = (-a * np.exp(-a * t) + np.exp(-t)) / (1.0 - a)
        assert float(np.max(np.abs(dk1 - analytic))) <= 1e-12

    def test_first_derivative_identities(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 50.0, 500)
        a = rng.uniform(0.0, 200.0, 500)
        k0, k1, dk0, dk1, _, _ = propagator_arrays(t, a)
        assert np.array_equal(dk0, -a * k1)
        assert float(np.max(np.abs(k0 - (k1 + np.exp(-t))))) <= 1e-15

    def test_semigroup_composition(self):
        rng = np.random.default_rng(3)
        cases = [(0.3, 0.9, 2.7), (2.0, 5.0, 0.03), (1.0, 1.0, 1.0)]
        cases += [
            tuple(x)
            for x in np.column_stack(
                [rng.uniform(0.1, 5, 20), rng.uniform(0.1, 5, 20),
                 rng.uniform(0, 10, 20)]
            )
        ]
        for t1, t2, a in cases:
            def mat(t):
                k0, k1, dk0, dk1, _, _ = propagator_arrays(t, a)
                return np.array([[k0, k1], [dk0, dk1]], dtype=float)

            err = np.max(np.abs(mat(t1 + t2) - mat(t2) @ mat(t1)))
            assert err <= 1e-10, (t1, t2, a, err)


class TestMomentWeights:
    @pytest.mark.parametrize(
        "a", [0.0, 0.3, 0.5, 0.9999, 1.0, 3.0, 50.0]
    )
    def test_quadrature_oracle(self, a):
        t = 2.5
        s = np.linspace(0.0, t, 200001)
        _, k1s, *_ = propagator_arrays(s, a)
        *_, i1, j1 = propagator_arrays(t, a)
        assert i1 == pytest.approx(float(np.trapezoid(k1s, s)), abs=1e-8)
        assert j1 == pytest.approx(
            float(np.trapezoid(s * k1s, s)), abs=1e-8
        )

    def test_i1_monotone_in_time(self):
        t = np.linspace(0.0, 20.0, 400)
        for a in (0.0, 0.5, 1.0, 10.0):
            *_, i1, _ = propagator_arrays(t, a)
            assert np.all(np.diff(i1) >= -1e-15)


class TestPositivityAndRange:
    @given(
        t=st.floats(0.0, 1e6),
        a=st.floats(0.0, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_bounds(self, t, a):
        k0, k1, dk0, dk1, i1, j1 = propagator_arrays(t, a)
        for v in (k0, k1, dk0, dk1, i1, j1):
            assert np.isfinite(v)
        assert k1 >= 0.0
        # k0 > 0 in exact arithmetic; underflow to +0.0 is accepted
        assert 0.0 <= k0 <= 1.0
        assert i1 >= 0.0 and j1 >= 0.0

    def test_decay_at_infinity(self):
        k0, k1, *_ = propagator_arrays(1e5, 0.37)
        assert abs(k0) < 1e-300 and abs(k1) < 1e-300


class TestDecayProfile:
    @pytest.mark.parametrize(
        "s,regime,n,sigma",
        [
            (0.0, "L2L2", 1, 1.0),
            (1.0, "L2L2", 1, 1.0),
            (1.5, "L2L2", 1, 1.5),
            (0.0, "L1L2", 1, 1.0),
            (0.0, "L1L2", 2, 1.0),
            (0.0, "L1L2", 3, 1.5),
            (0.0, "L1L2", 4, 2.0),
        ],
    )
    def test_slope_matches_prediction(self, s, regime, n, sigma):
        pf = decay_profile(s, regime, n, sigma)
        assert pf.slope == pytest.approx(pf.expected, abs=0.02)
        assert pf.r_squared >= 0.99

    def test_expected_values(self):
        assert decay_profile(1.0, "L2L2", 1, 1.0).expected == -0.5
        assert decay_profile(0.0, "L1L2", 1, 1.5).expected == pytest.approx(
            -1 / 6
        )

    def test_knee_grid_is_rejected(self):
        with pytest.raises(FitUnstable):
            decay_profile(
                0.0, "L1L2", 1, 1.0, t_grid=np.geomspace(0.01, 1e4, 41)
            )

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            decay_profile(0.0, "L2Linf", 1, 1.0)


class TestLineFit:
    def test_exact_on_a_line(self):
        # dyadic samples of a dyadic line: every sum is exact
        x = np.arange(-8.0, 9.0) / 4 + 3.0
        assert line_fit(x, 0.75 * x - 2.5) == (0.75, -2.5)

    # a decay window in log t and the lifespan sweep's log epsilons
    @pytest.mark.parametrize("x", [np.log(np.geomspace(20.0, 3000.0, 40)),
                                   np.log([0.05, 0.1, 0.2, 0.4])])
    def test_polyfit_on_noisy_data(self, x):
        rng = np.random.default_rng(35)
        for _ in range(100):
            y = -0.7 * x + 3.0 + rng.normal(0.0, 0.05, x.size)
            want = np.polyfit(x, y, 1)  # the oracle, not the program's path
            assert np.allclose(line_fit(x, y), want, rtol=1e-12, atol=0.0)

    def test_exact_slope_on_a_blowup_window(self):
        # a decade fit's times sit far from t = 0, where the slope of
        # the centred sums stays within roundoff of the exact one
        x = np.linspace(2400.0, 2466.0, 30)
        y = -0.7 * x + 3.0 + np.random.default_rng(35).normal(0.0, 0.05, 30)
        xf, yf = [Fraction(v) for v in x], [Fraction(v) for v in y]
        xm, ym = sum(xf) / 30, sum(yf) / 30
        slope = (sum((a - xm) * (b - ym) for a, b in zip(xf, yf))
                 / sum((a - xm) ** 2 for a in xf))
        assert abs(Fraction(line_fit(x, y)[0]) - slope) <= 1e-14 * abs(slope)


def _psi2_where(x):
    """psi2 with both branches on every entry, kept by np.where."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.15
    xs = np.where(small, 1.0, x)
    direct = (-np.expm1(-xs) - xs * np.exp(-xs)) / (xs * xs)
    series = np.zeros_like(x)
    for m in range(8, -1, -1):
        c = (m + 1) / float(math.factorial(m + 2))
        series = series * (-x) + c
    return np.where(small, series, direct)


def propagator_arrays_where(t, a):
    """Reference builder: every form of k1, i1 and j1 on the whole
    broadcast grid, one kept per entry by np.where."""
    t = np.minimum(np.asarray(t, dtype=float), T_CAP)
    a = np.asarray(a, dtype=float)
    t, a = np.broadcast_arrays(t, a)

    et = np.exp(-t)
    x = (a - 1.0) * t
    seam = np.abs(x) < 0.5
    one_minus_a = np.where(seam, 1.0, 1.0 - a)
    k1_direct = (np.exp(-a * t) - et) / one_minus_a
    k1 = np.where(seam, et * t * _phi1(np.where(seam, x, 0.0)), k1_direct)

    k0 = k1 + et
    dk0 = -a * k1
    dk1 = et - a * k1

    lo = a < 0.5
    a_lo = np.where(lo, a, 0.0)
    a_hi = np.where(lo, 1.0, a)
    i1_lo = (t * _phi1(a_lo * t) + np.expm1(-t)) / (1.0 - a_lo)
    i1_hi = (-np.expm1(-t) - k1) / a_hi
    i1 = np.where(lo, i1_lo, i1_hi)

    j1_lo = t * t * (_psi2_where(a_lo * t) - _psi2_where(t)) / (1.0 - a_lo)
    j1_hi = (k1 - t * dk1 + (1.0 + a) * (i1 - t * k1)) / a_hi
    j1 = np.where(lo, j1_lo, j1_hi)
    i1 = np.maximum(i1, 0.0)
    j1 = np.maximum(j1, 0.0)
    return k0, k1, dk0, dk1, i1, j1


def _half_symbol(n, N, L, sigma):
    a = GridSpec(n=n, N=N, L=L).symbol(sigma)
    return a[..., : a.shape[-1] // 2 + 1]


_ULP_HALF = (np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0))
_SCALAR_A = (0.0, 5e-324, 1e-300, 0.3, *_ULP_HALF, 1.0 - 1e-9, 1.0,
             1.0 + 1e-7, 40.0, 1e6)


class TestBranchesOnTheirEntries:
    """propagator_arrays evaluates each form only where it is kept; every
    table stays bit-identical to the np.where reference."""

    @staticmethod
    def assert_same(t, a):
        got, want = propagator_arrays(t, a), propagator_arrays_where(t, a)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n,N,L", [(1, 512, 40.0), (1, 64, 10.0),
                                       (2, 64, 20.0), (2, 32, 10.0)])
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
    def test_symbol_grids(self, n, N, L, sigma):
        a = _half_symbol(n, N, L, sigma)
        # step sizes from 0.05 to 1e3, with seam strips of every width
        for t in (0.0, 0.05, 0.3, 2.0, 50.0, 1e3, 2e6):
            self.assert_same(t, a)
        # record batches: tau of shape (m, 1, ...)
        for m in (1, 16):
            tau = np.linspace(0.01, 3.0, m).reshape((m,) + (1,) * n)
            self.assert_same(tau, a)

    def test_batch_of_shape_m_1_1(self):
        a = _half_symbol(1, 64, 10.0, 1.0).reshape(1, 33)
        self.assert_same(np.geomspace(1e-4, 5.0, 7).reshape(7, 1, 1), a)

    @pytest.mark.parametrize("a", _SCALAR_A)
    def test_scalars(self, a):
        for t in (0.0, 1e-3, 0.5, 1.0, 2.0, 40.0, 1e5):
            self.assert_same(t, a)

    def test_seam_edges(self):
        # both sides of |(a - 1) t| = 1/2, in one array and as scalars
        t = np.array([0.6, 2.0, 10.0, 50.0])[:, None]
        edge = 1.0 + np.array([-1.0, 1.0]) * 0.5 / t
        a = edge * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])[:, None, None]
        self.assert_same(t, a)
        for tt, aa in zip(np.broadcast_to(t, a.shape).ravel(), a.ravel()):
            self.assert_same(tt, aa)

    def test_negative_time_of_the_residual_stencil(self):
        a = np.array([0.0, 0.3, 0.5, 1.0, 10.0, 100.0])
        for t in (-2e-4, -1e-4, 1e-4, 2e-4):
            self.assert_same(t, a)
        self.assert_same(np.array([-2e-4, -1e-4, 0.0])[:, None], a[None, :])

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        self.assert_same(rng.uniform(0.0, 50.0, 500),
                         rng.uniform(0.0, 200.0, 500))

    def test_decay_profile_grid(self):
        t = np.geomspace(10.0, 1000.0, 41)[:, None]
        a = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 600)])[None, :]
        self.assert_same(t, a)

    def test_subnormal_symbol(self):
        # a discarded a >= 1/2 entry must not overflow (warnings are
        # errors in this suite) for a = 5e-324
        for t in (1e-3, 1.0, 1e3):
            self.assert_same(t, np.array([0.0, 5e-324, 1e-310, 2.0]))
