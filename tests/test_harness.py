"""Experiment-driver tests.

Synthetic series pin the fitter exactly; short real runs exercise the
decay, lifespan and convergence pipelines against values measured once
and frozen here.  The expensive full-length configurations live in the
acceptance suite, not here.
"""

import math

import numpy as np
import pytest

from sevolab import harness, solver
from sevolab.errors import (
    BlowUpDuringDecayExperiment,
    ConditionsUnmet,
    EmptyWindow,
    NoBlowUpAtCap,
    NonPositiveValues,
    NotSubcritical,
)
from sevolab.exponents import SystemParams, lifespan_exponent
from sevolab.harness import (
    ConvergenceReport,
    DecayReport,
    FitResult,
    LifespanSweep,
    convergence_study,
    decay_experiment,
    fit_power_law,
    lifespan_sweep,
    mean_mode_cutoff,
    xnorm_diagnostic,
)
from sevolab.kernels import decay_profile
from sevolab.solver import ComponentData, GridSpec, InitialData, RunResult, run

P34 = SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0))
P22 = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 2.0))


def gaussian_data(eps, amps=((1.0, 0.0), (1.0, 0.0))):
    return InitialData(epsilon=eps, components=tuple(
        ComponentData(amp0=a0, amp1=a1) for a0, a1 in amps))


class TestFitPowerLaw:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 2000.0, 200)
        fit = fit_power_law(t, 3.0 * t ** -2.0, (10.0, 1000.0))
        assert abs(fit.slope + 2.0) < 1e-12
        assert abs(fit.intercept - math.log(3.0)) < 1e-12
        assert fit.r_squared == 1.0

    def test_shifted_power_law(self):
        # (1+t)^-1/2 against log t: small positive bias, inside 0.01
        t = np.geomspace(1.0, 2000.0, 200)
        fit = fit_power_law(t, (1.0 + t) ** -0.5, (10.0, 1000.0))
        assert abs(fit.slope + 0.5) < 0.01
        assert fit.r_squared > 0.999

    def test_multiplicative_noise(self):
        rng = np.random.default_rng(7)
        t = np.geomspace(1.0, 2000.0, 200)
        y = 3.0 * t ** -2.0 * (1.0 + 0.01 * rng.standard_normal(t.size))
        fit = fit_power_law(t, y, (10.0, 1000.0))
        assert abs(fit.slope + 2.0) < 0.03

    def test_window_defaults_to_full_range(self):
        t = np.geomspace(1.0, 100.0, 50)
        fit = fit_power_law(t, t ** -1.0)
        assert fit.window == (1.0, 100.0)
        assert abs(fit.slope + 1.0) < 1e-12

    def test_empty_window(self):
        t = np.geomspace(1.0, 100.0, 50)
        with pytest.raises(EmptyWindow):
            fit_power_law(t, t ** -1.0, (5000.0, 6000.0))

    def test_too_few_points(self):
        t = np.geomspace(1.0, 100.0, 7)
        with pytest.raises(EmptyWindow, match="need 8"):
            fit_power_law(t, t ** -1.0)
        fit = fit_power_law(t, t ** -1.0, min_points=4)
        assert abs(fit.slope + 1.0) < 1e-12

    def test_nonpositive_values(self):
        t = np.geomspace(1.0, 100.0, 50)
        y = t ** -1.0
        y[10] = 0.0
        with pytest.raises(NonPositiveValues):
            fit_power_law(t, y)

    def test_verdict_requires_expectation(self):
        t = np.geomspace(1.0, 100.0, 50)
        assert fit_power_law(t, t ** -1.0).passed is None
        good = fit_power_law(t, t ** -1.0, expected=-1.0, tolerance=0.1)
        assert good.passed is True
        bad = fit_power_law(t, t ** -1.0, expected=-2.0, tolerance=0.1)
        assert bad.passed is False

    def test_verdict_needs_good_r_squared(self):
        # slope matches but the series is nowhere near a power law
        t = np.geomspace(1.0, 1000.0, 300)
        y = t ** -1.0 * np.exp(0.8 * np.sin(3.0 * np.log(t)))
        fit = fit_power_law(t, y, expected=fit_power_law(t, y).slope,
                            tolerance=0.5)
        assert fit.r_squared < 0.98
        assert fit.passed is False

    def test_constant_series(self):
        t = np.geomspace(1.0, 100.0, 20)
        fit = fit_power_law(t, np.full_like(t, 2.0))
        assert abs(fit.slope) < 1e-12
        assert fit.r_squared == 1.0

    def test_flat_series_has_r_squared_one(self):
        # a log varying by under 1e-3 carries no decay to explain
        t = np.geomspace(1.0, 100.0, 20)
        fit = fit_power_law(t, 2.0 * np.exp(1e-4 * np.sin(t)))
        assert fit.r_squared == 1.0

    @pytest.mark.parametrize("s", [0.0, 1.0], ids=["flat", "decaying"])
    def test_one_fit_with_the_multiplier_profiles(self, s):
        # the s = 0 profile 1 - e^(-t) varies by 5e-5 in log on [10, 1000]
        prof = decay_profile(s, "L2L2", 1, 1.0)
        fit = fit_power_law(prof.t, prof.values)
        assert fit.slope == prof.slope
        assert fit.r_squared == prof.r_squared
        assert (prof.r_squared == 1.0) == (s == 0.0)


class TestMeanModeCutoff:
    def test_no_mean_runs_to_the_end(self):
        times = np.linspace(0.0, 10.0, 11)
        zeros = np.zeros((2, 11))
        res = RunResult(times=times, l2=np.ones((2, 11)),
                        hsigma=zeros, sup=zeros, mean=zeros, blowup_time=None,
                        u_final=None, steps=0)
        assert mean_mode_cutoff(GridSpec(n=1, N=64, L=10.0), res) == 10.0

    def test_crossing_detected(self):
        grid = GridSpec(n=1, N=64, L=10.0)
        times = np.linspace(0.0, 10.0, 11)
        l2 = np.ones((2, 11))
        mean = np.zeros((2, 11))
        # component 1 floor fraction crosses 0.9 at t = 6
        mean[0, 6:] = 0.95 / (2.0 * grid.L) ** 0.5
        res = RunResult(times=times, l2=l2, hsigma=l2 * 0,
                        sup=l2 * 0, mean=mean, blowup_time=None,
                        u_final=None, steps=0)
        assert mean_mode_cutoff(grid, res) == 6.0


class TestDecayExperiment:
    GRID = GridSpec(n=1, N=512, L=40.0)

    def test_conditions_gate(self):
        with pytest.raises(ConditionsUnmet, match="gamma_supercritical"):
            decay_experiment(P22, self.GRID, gaussian_data(1e-3),
                             t_end=10.0)

    def test_short_run_fits_and_window(self):
        rep = decay_experiment(P34, self.GRID, gaussian_data(1e-3),
                               t_end=400.0)
        assert rep.window[0] == 20.0
        assert 100.0 < rep.window[1] < 300.0
        for ell in range(2):
            # measured once: l2 -0.2513, hsigma -0.7844 on this window
            assert rep.l2[ell].expected == -0.25
            assert rep.hsigma[ell].expected == -0.75
            assert rep.l2[ell].passed is True
            assert rep.hsigma[ell].passed is True
            assert abs(rep.l2[ell].slope + 0.2513) < 0.02
            assert abs(rep.hsigma[ell].slope + 0.7844) < 0.02
        assert rep.xnorm_passed
        assert max(rep.xnorm_ratios) < 1.5

    def test_window_override(self):
        rep = decay_experiment(P34, self.GRID, gaussian_data(1e-3),
                               t_end=100.0, window=(10.0, 50.0))
        assert rep.window == (10.0, 50.0)

    def test_linear_only_matches_kernel_profile(self):
        # pure second-data channel so the run is exactly the K1 flow
        data = gaussian_data(1e-3, amps=((0.0, 1.0), (0.0, 1.0)))
        rep = decay_experiment(P34, self.GRID, data, t_end=400.0,
                               linear_only=True)
        grid_t = np.geomspace(rep.window[0], rep.window[1], 41)
        prof = decay_profile(1.0, "L1L2", 1, 1.0, t_grid=grid_t)
        for ell in range(2):
            assert abs(rep.l2[ell].slope - prof.slope) < 0.02

    def test_determinism(self):
        a = decay_experiment(P34, self.GRID, gaussian_data(1e-3),
                             t_end=100.0)
        b = decay_experiment(P34, self.GRID, gaussian_data(1e-3),
                             t_end=100.0)
        assert a.l2[0].slope == b.l2[0].slope
        assert np.array_equal(a.run.l2, b.run.l2)

    def test_blowup_raises(self):
        grid = GridSpec(n=1, N=256, L=20.0)
        data = gaussian_data(5.0, amps=((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(BlowUpDuringDecayExperiment):
            decay_experiment(P34, grid, data, t_end=50.0, dt=0.02)


class TestXnormDiagnostic:
    def test_zero_run_is_trivially_bounded(self):
        times = np.linspace(0.0, 5.0, 6)
        zeros = np.zeros((2, 6))
        res = RunResult(times=times, l2=zeros, hsigma=zeros,
                        sup=zeros, mean=zeros, blowup_time=None,
                        u_final=None, steps=0)
        xd = xnorm_diagnostic(res, P34)
        assert xd["ratios"] == (1.0, 1.0)
        assert xd["passed"] is True

    def test_window_restriction(self):
        times = np.linspace(0.0, 10.0, 101)
        # series matching each component's weight exponent exactly:
        # at the default eps = 0.01 these are (1+t)^-0.24, (1+t)^-0.25
        l2 = np.array([np.exp(-0.24 * np.log1p(times)),
                       np.exp(-0.25 * np.log1p(times))])
        zeros = np.zeros((2, 101))
        res = RunResult(times=times, l2=l2, hsigma=zeros,
                        sup=zeros, mean=zeros, blowup_time=None,
                        u_final=None, steps=0)
        xd = xnorm_diagnostic(res, P34, window=(2.0, 8.0))
        assert xd["window"] == (2.0, 8.0)
        assert max(xd["ratios"]) < 1.0 + 1e-9

    def test_subcritical_growth_is_reported_not_asserted(self):
        # (2,2) data below its blow-up horizon: the weighted series
        # grows; the diagnostic must report that instead of failing
        grid = GridSpec(n=1, N=512, L=40.0)
        data = gaussian_data(0.02, amps=((0.25, 0.25), (0.25, 0.25)))
        res = run(P22, grid, data, t_end=100.0, dt=0.05)
        assert not res.blown_up
        xd = xnorm_diagnostic(res, P22)
        assert all(math.isfinite(r) for r in xd["ratios"])
        assert xd["ratios"][0] > 10.0
        assert xd["passed"] is False


class TestLifespanSweep:
    COMPS = (ComponentData(amp0=0.25, amp1=0.25),
             ComponentData(amp0=0.25, amp1=0.25))
    GRID = GridSpec(n=1, N=1024, L=80.0)

    def test_not_subcritical_guard_runs_nothing(self):
        with pytest.raises(NotSubcritical):
            lifespan_sweep(P34, self.GRID, self.COMPS,
                           (0.3, 0.4, 0.5, 0.6))

    def test_positive_mean_guard(self):
        comps = (ComponentData(amp0=-0.25), ComponentData(amp0=0.25))
        with pytest.raises(NonPositiveValues):
            lifespan_sweep(P22, self.GRID, comps, (0.3, 0.4, 0.5, 0.6))

    @pytest.mark.parametrize("key", ["first_cap", "cap_factor"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_caps_must_be_positive_and_finite(self, key, value,
                                              monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep with a bad cap ran")

        monkeypatch.setattr(harness, "run", no_run)
        with pytest.raises(ValueError,
                           match=f"{key} must be positive and finite"):
            lifespan_sweep(P22, self.GRID, self.COMPS, (0.3, 0.4, 0.5, 0.6),
                           **{key: value})

    def test_needs_four_epsilons(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep with bad epsilons ran")

        # each of these fails before the first run
        monkeypatch.setattr(harness, "run", no_run)
        with pytest.raises(ValueError, match="4 epsilons"):
            lifespan_sweep(P22, self.GRID, self.COMPS, (0.3, 0.6))
        # duplicates count once
        with pytest.raises(ValueError, match="4 epsilons"):
            lifespan_sweep(P22, self.GRID, self.COMPS, (1, 1, 2, 4))
        with pytest.raises(ValueError, match="positive"):
            lifespan_sweep(P22, self.GRID, self.COMPS,
                           (0.1, 0.2, 0.3, -0.4))

    def test_cheap_sweep(self):
        # measured once on this grid: T = 86.14, 54.08, 38.63, 29.85
        sw = lifespan_sweep(P22, self.GRID, self.COMPS,
                            (0.3, 0.4, 0.5, 0.6))
        assert sw.epsilons == (0.6, 0.5, 0.4, 0.3)
        frozen = (29.854, 38.627, 54.079, 86.142)
        for got, want in zip(sw.lifespans, frozen):
            assert abs(got - want) < 0.02 * want
        assert sw.monotone
        assert not any(sw.capped)
        # this epsilon range is not yet asymptotic: slope near -1.53,
        # outside the +-0.3 gate around -2 (the acceptance sweep uses
        # smaller epsilon where the fit passes)
        assert abs(sw.fit.slope + 1.531) < 0.1
        assert sw.fit.expected == lifespan_exponent(P22)
        assert sw.fit.passed is False

    def test_each_run_records_t_0_and_its_end_only(self, monkeypatch):
        # the sweep reads T and its bar alone, so a run records nothing
        # between its data and its last state
        runs, records = [], []
        real_run, real_norms = harness.run, solver.norms

        def counted_run(*args, **kwargs):
            runs.append(len(records))
            return real_run(*args, **kwargs)

        def counted_norms(*args):
            records.append(args[1].t)
            return real_norms(*args)

        monkeypatch.setattr(harness, "run", counted_run)
        monkeypatch.setattr(solver, "norms", counted_norms)
        sw = lifespan_sweep(P22, self.GRID, self.COMPS, (0.3, 0.4, 0.5, 0.6))
        assert not any(sw.capped)
        assert runs == [0, 2, 4, 6] and len(records) == 8
        assert records[::2] == [0.0] * 4

    def test_default_sweep_pin(self, monkeypatch):
        # criterion 08's sweep on its N = 2048 grid, pinned so that a
        # change to the step shows in its times and step counts
        results = []
        real_run = harness.run

        def kept_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "run", kept_run)
        sw = lifespan_sweep(P22, GridSpec(n=1, N=2048, L=160.0), self.COMPS,
                            (0.05, 0.1, 0.2, 0.4))
        assert sw.epsilons == (0.4, 0.2, 0.1, 0.05)
        frozen = (54.10241339556467, 174.59952061925947, 638.2338663605764,
                  2466.2566694839898)
        for got, want in zip(sw.lifespans, frozen, strict=True):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        assert [r.steps for r in results] == [310, 397, 527, 691]
        assert [r.rejected_steps for r in results] == [6, 4, 5, 2]

    def test_no_blowup_at_cap(self):
        with pytest.raises(NoBlowUpAtCap):
            lifespan_sweep(P22, self.GRID, self.COMPS,
                           (0.3, 0.4, 0.5, 0.6), first_cap=1.0)

    def test_synthetic_scaling_fit_is_exact(self):
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        fit = fit_power_law(eps, 7.3 * eps ** -2.0, expected=-2.0,
                            tolerance=0.3, min_points=4)
        assert abs(fit.slope + 2.0) < 1e-12
        assert abs(fit.intercept - math.log(7.3)) < 1e-12
        assert fit.passed is True


class TestConvergenceStudy:
    GRID = GridSpec(n=1, N=256, L=20.0)
    DATA = InitialData(epsilon=0.5, components=(
        ComponentData(amp0=1.0, amp1=0.5),
        ComponentData(amp0=0.8, amp1=-0.3),
    ))

    def test_ladder_guard(self):
        with pytest.raises(ValueError, match="3 resolutions"):
            convergence_study(P34, self.GRID, self.DATA,
                              dt_ladder=(1e-2, 5e-3))

    def test_second_order_and_spectral_tail(self):
        rep = convergence_study(P34, self.GRID, self.DATA)
        assert rep.errors[0] > rep.errors[1] > rep.errors[2] > 0.0
        for r in rep.ratios:
            assert 3.0 < r < 5.0
        assert rep.tails[0] > rep.tails[-1]
        assert rep.tails[-1] < 1e-10

    def test_each_grid_and_dt_runs_once(self, monkeypatch):
        # grid.N is on n_ladder, so the spatial leg reads the temporal
        # leg's run at dt_ladder[-1] there instead of repeating it
        runs = []
        real_run = harness.run

        def counted_run(params, grid, data, t_end, dt, **kwargs):
            runs.append((grid.N, dt))
            return real_run(params, grid, data, t_end, dt, **kwargs)

        monkeypatch.setattr(harness, "run", counted_run)
        grid = GridSpec(n=1, N=64, L=20.0)
        dts, ns = (0.1, 0.05, 0.025), (32, 64, 128)
        rep = convergence_study(P34, grid, self.DATA, dt_ladder=dts,
                                dt_reference=0.0125, n_ladder=ns)
        assert len(runs) == 1 + len(dts) + len(ns) - 1
        assert len(set(runs)) == len(runs)
        assert rep.tails[0] > rep.tails[1] > rep.tails[2]

    def test_linear_only_is_exact(self):
        rep = convergence_study(P34, self.GRID, self.DATA,
                                linear_only=True)
        for err in rep.errors:
            assert err < 1e-12
