"""Test-function machinery against closed-form oracles.

The weight-decay ratios have exact pencil values: for the weight
(1+x^2)^(-3/2) and nu = 1 the weighted sup is 3 (attained at x = 0),
and for (1+x^2)^(-1) and nu = 3/2 it is 6, from the Fourier pair
(1+x^2)^(-1) <-> pi e^(-|xi|) in one dimension.  The scaling check and
the cutoff condition are verified against their analytic exponent
counts.
"""

import math

import numpy as np
import pytest

from sevolab.errors import ConditionViolated, DataLeakage, DomainError
from sevolab.solver import GridSpec
from sevolab.testfunc import (
    check_scaling,
    check_weight_decay,
    frac_laplacian_grid,
    space_weight,
    time_cutoff_derivatives,
    verify_eta_condition,
    weight_decay_exponent,
)


class TestWeightDecayExponent:
    def test_integer_orders(self):
        assert weight_decay_exponent(1.0, 1) == 3.0
        assert weight_decay_exponent(2.0, 1) == 5.0
        assert weight_decay_exponent(1.0 + 1e-13, 1) == 3.0

    def test_fractional_orders(self):
        assert weight_decay_exponent(1.5, 1) == 2.0
        # the order drops back at the next fractional band; the jump at
        # integers is deliberate and not interpolated
        assert weight_decay_exponent(2.5, 1) == 2.0

    def test_domain(self):
        with pytest.raises(ValueError, match="nu"):
            weight_decay_exponent(0.0, 1)


class TestSpaceWeight:
    def test_center_value(self):
        assert space_weight(0.0, 3.0) == 1.0

    def test_unit_radius(self):
        # n = 1, integer sigma: q = 3 and the value at |x| = 1 is 2^(-3/2)
        assert space_weight(1.0, 3.0) == pytest.approx(2.0 ** -1.5,
                                                       abs=1e-15)

    def test_monotone(self):
        r2 = np.linspace(0.0, 50.0, 200)
        w = space_weight(r2, 2.5)
        assert np.all(np.diff(w) < 0)


class TestTimeCutoff:
    def test_plateau_and_support(self):
        assert time_cutoff_derivatives(0.0)[0] == 1.0
        assert time_cutoff_derivatives(0.3)[0] == 1.0
        assert time_cutoff_derivatives(0.5)[0] == 1.0
        assert time_cutoff_derivatives(1.0)[0] == 0.0
        assert time_cutoff_derivatives(1.2)[0] == 0.0

    def test_monotone_nonincreasing(self):
        t = np.linspace(0.0, 1.1, 500)
        eta = time_cutoff_derivatives(t)[0]
        assert np.all(np.diff(eta) <= 1e-15)

    def test_c2_gluing_at_half(self):
        eta_l, d1_l, d2_l = time_cutoff_derivatives(0.5 - 1e-12)
        eta_r, d1_r, d2_r = time_cutoff_derivatives(0.5 + 1e-12)
        assert eta_l == 1.0 and d1_l == 0.0 and d2_l == 0.0
        assert abs(eta_r - 1.0) <= 1e-10
        assert abs(d1_r) <= 1e-8
        assert abs(d2_r) <= 1e-8

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for t0 in (0.6, 0.75, 0.9):
            eta, d1, d2 = time_cutoff_derivatives(t0)
            em = time_cutoff_derivatives(t0 - h)[0]
            ep = time_cutoff_derivatives(t0 + h)[0]
            assert d1 == pytest.approx((ep - em) / (2 * h), abs=1e-5)
            assert d2 == pytest.approx((ep - 2 * eta + em) / h ** 2,
                                       abs=1e-3)

    def test_scalar_and_array_forms(self):
        out = time_cutoff_derivatives(0.7)
        assert all(isinstance(v, float) for v in out)
        arr = time_cutoff_derivatives(np.array([0.2, 0.7, 1.5]))[0]
        assert arr.shape == (3,)
        assert arr[0] == 1.0 and arr[2] == 0.0


class TestFracLaplacianGrid:
    def test_gaussian_oracle(self):
        # -(e^(-x^2))'' = (2 - 4 x^2) e^(-x^2)
        grid = GridSpec(n=1, N=512, L=20.0)
        x = grid.axes()[0]
        f = np.exp(-x ** 2)
        got = frac_laplacian_grid(grid, f, 1.0)
        exact = (2.0 - 4.0 * x ** 2) * np.exp(-x ** 2)
        assert float(np.max(np.abs(got - exact))) <= 1e-8

    def test_constant_field(self):
        grid = GridSpec(n=1, N=64, L=5.0)
        out = frac_laplacian_grid(grid, np.ones(grid.shape), 0.7,
                                  tail_tol=None)
        assert float(np.max(np.abs(out))) <= 1e-12

    def test_single_mode_scaling(self):
        grid = GridSpec(n=1, N=128, L=4.0)
        x = grid.axes()[0]
        xi0 = math.pi / grid.L * 5
        f = np.cos(xi0 * x)
        got = frac_laplacian_grid(grid, f, 1.25, tail_tol=None)
        exact = xi0 ** 2.5 * f
        rel = float(np.max(np.abs(got - exact))) / xi0 ** 2.5
        assert rel <= 1e-12

    def test_leakage_guard(self):
        grid = GridSpec(n=1, N=128, L=20.0)
        x = grid.axes()[0]
        with pytest.raises(DataLeakage, match="edge"):
            frac_laplacian_grid(grid, np.exp(-(x / 10.0) ** 2), 1.0)

    def test_shape_guard(self):
        grid = GridSpec(n=1, N=64, L=5.0)
        with pytest.raises(ValueError, match="shape"):
            frac_laplacian_grid(grid, np.ones(32), 1.0)


class TestWeightDecayCheck:
    def test_integer_case_exact_value(self):
        # sup of |( -Delta ) <x>^-3| <x>^3 is 3, at the origin
        grid = GridSpec(n=1, N=2048, L=64.0)
        got = check_weight_decay(grid, nu=1.0, q=3.0)
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_fractional_case_exact_value(self):
        grid = GridSpec(n=1, N=2048, L=64.0)
        got = check_weight_decay(grid, nu=1.5, q=2.0)
        assert got == pytest.approx(6.0, abs=1e-4)

    def test_grid_stability(self):
        a = check_weight_decay(GridSpec(n=1, N=1024, L=64.0), 0.5, 2.0)
        b = check_weight_decay(GridSpec(n=1, N=2048, L=64.0), 0.5, 2.0)
        assert abs(a - b) <= 0.1 * abs(b)

    def test_q_guard(self):
        grid = GridSpec(n=1, N=64, L=8.0)
        with pytest.raises(ValueError, match="q"):
            check_weight_decay(grid, 1.0, 0.5)


class TestScalingCheck:
    def test_identity_at_r1(self):
        assert check_scaling(1.0, 1, grid=GridSpec(n=1, N=512, L=64.0)) == 0.0

    def test_small_defect(self):
        assert check_scaling(1.0, 2) < 1e-3
        assert check_scaling(0.5, 2) < 1e-3

    def test_refinement_reduces_defect(self):
        # nu = 1/2 is the stiffest case: the defect is dominated by the
        # mode spacing, so the refined grid doubles the box as well.
        base = check_scaling(0.5, 2)
        fine = check_scaling(0.5, 2, grid=GridSpec(n=1, N=8192, L=256.0))
        assert fine < base

    def test_r_validation(self):
        with pytest.raises(ValueError, match="integer"):
            check_scaling(1.0, 2.7)
        with pytest.raises(ValueError, match="alignment"):
            check_scaling(1.0, 3, grid=GridSpec(n=1, N=1024, L=192.0))
        # refused before the default grid of N = 1024 R is built
        with pytest.raises(ValueError, match="alignment"):
            check_scaling(1.0, 3)


class TestEtaCondition:
    def test_admissible(self):
        sup = verify_eta_condition(2.0, mu=16)
        assert 0.0 < sup <= 1e6

    def test_violation_flagged(self):
        with pytest.raises(ConditionViolated, match="raise mu"):
            verify_eta_condition(2.0, mu=2)

    def test_other_exponents(self):
        # lam' = 4/3, exponent count mu - 2 lam' = 13.3: safely finite
        assert verify_eta_condition(4.0, mu=16) < 1e6

    def test_lam_domain(self):
        with pytest.raises(DomainError, match="lam"):
            verify_eta_condition(1.0)
