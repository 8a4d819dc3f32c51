"""Exponent calculus against an exact rational-arithmetic oracle.

The oracle solves (P - I) gamma = 1 in Fraction arithmetic, so every
frozen value below is exact, not a regression snapshot.
"""

from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sevolab import (
    SystemParams,
    check_global_conditions,
    classify,
    compute_gamma,
    gamma_max_closed_form,
    gn_theta,
    lifespan_exponent,
    loss_of_decay_sequence,
    predicted_decay,
    report,
)
from sevolab.errors import (
    ConditionsUnmet,
    DomainError,
    NotSubcritical,
    SingularSystem,
)
from sevolab.exponents import (
    AUX_EPS,
    CRITICAL,
    CRITICAL_TOL,
    SUBCRITICAL,
    SUPERCRITICAL,
    decay_slack,
)
from sevolab.harness import lifespan_sweep
from sevolab.solver import ComponentData, GridSpec, InitialData, run


def gamma_exact(p):
    """Solve (P - I) gamma = 1 exactly, p given as Fractions."""
    k = len(p)
    A = [[Fraction(0)] * k for _ in range(k)]
    A[0][k - 1] = Fraction(p[0])
    for ell in range(1, k):
        A[ell][ell - 1] = Fraction(p[ell])
    for ell in range(k):
        A[ell][ell] -= 1
    b = [Fraction(1)] * k
    # Gaussian elimination with exact pivoting on the first nonzero.
    for col in range(k):
        piv = next(r for r in range(col, k) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(k):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                b[r] -= f * b[col]
                for c in range(k):
                    A[r][c] -= f * A[col][c]
    return [b[r] / A[r][r] for r in range(k)]


def sys_(n, sigma, p):
    return SystemParams(n=n, sigma=sigma, k=len(p), p=tuple(p))


ULP = 2.0 ** -52


def sequence_exact(n, sigma, p, eps):
    """The loss-of-decay entries l < k by their closed form
    S_l - r (Q_l - 1) + R_l eps, r = n/(2 sigma), in exact arithmetic,
    each paired with the largest of the terms that cancel in it,
    max(S_l, r Q_l, R_l eps)."""
    r = Fraction(n) / (2 * Fraction(sigma))
    eps = Fraction(eps)
    p = [Fraction(x) for x in p]
    S, Q, R = Fraction(1), p[0], Fraction(1)
    out = []
    for ell in range(len(p) - 1):
        if ell:
            S, Q, R = 1 + p[ell] * S, Q * p[ell], R * p[ell]
        out.append((S - r * (Q - 1) + R * eps, max(S, r * Q, R * eps)))
    return out


def ulps_of_terms(got, exact):
    """Largest error of the float entries against the exact ones, in
    ulps of the terms that cancel in each."""
    return max(float(abs(Fraction(a) - v) / terms) / ULP
               for a, (v, terms) in zip(got, exact))


def recursion_bound(k):
    """Error bound of the recursion in ulps of the terms.  Each of its
    k - 1 steps rounds six times, each by half an ulp of a number at
    most three times the terms, and carries the earlier error scaled by
    p_l, as the terms are; so 6 ulps per step bound it.  Random systems
    with k <= 7 stay within 2.3."""
    return 6.0 * (k - 1)


# A valid system whose terms reach 5.7e3 against entries below 0.73.
SEVEN_COMPONENTS = (2, 2.797593651072492,
                    (4.485382925887668, 2.0681185844721064,
                     5.519067938946438, 4.463737070884823,
                     8.336778171722319, 8.394226269946335,
                     4.717215590912812))


class TestGamma:
    def test_frozen_two_component(self):
        g = compute_gamma(sys_(1, 1.0, (3, 4)))
        assert g.gamma == pytest.approx((4 / 11, 5 / 11), abs=1e-14)
        assert g.argmax_index == 2
        assert g.rotation == 0
        assert g.residual <= 1e-12
        assert g.max == pytest.approx(5 / 11, abs=1e-14)

    def test_frozen_more_chains(self):
        assert compute_gamma(sys_(1, 1.0, (2, 3))).gamma == pytest.approx(
            (3 / 5, 4 / 5), abs=1e-14
        )
        g = compute_gamma(sys_(1, 1.0, (2, 3, 4)))
        assert g.gamma == pytest.approx(
            (11 / 23, 10 / 23, 17 / 23), abs=1e-14
        )
        assert g.argmax_index == 3 and g.rotation == 0

    def test_symmetric_tie_rotation(self):
        # All entries equal: smallest index wins, relabeling shifts by 1.
        g = compute_gamma(sys_(1, 1.0, (2, 2, 2)))
        assert g.gamma == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)
        assert g.argmax_index == 1
        assert g.rotation == 1

    def test_closed_form_matches_exact(self):
        params = sys_(1, 1.0, (3, 4))
        assert gamma_max_closed_form(params) == pytest.approx(
            5 / 11, abs=1e-15
        )

    def test_oracle_thousand_random_systems(self):
        rng = np.random.default_rng(20260816)
        # a thousand short chains, then two long ones
        short = (int(rng.integers(2, 7)) for _ in range(1000))
        for k in chain(short, (12, 64)):
            pf = [Fraction(int(rng.integers(106, 800)), 100)
                  for _ in range(k)]
            params = sys_(1, 1.0, tuple(float(x) for x in pf))
            got = compute_gamma(params).gamma
            want = gamma_exact(pf)
            err = max(abs(a - float(b)) for a, b in zip(got, want))
            assert err <= 1e-10, (pf, err)
            # closed form agrees with the exact last component
            assert abs(gamma_max_closed_form(params) - float(want[-1])) \
                <= 1e-10 * max(1.0, abs(float(want[-1])))

    def test_singular_product_one_rejected(self):
        with pytest.raises(SingularSystem):
            SystemParams(n=1, sigma=1.0, k=2, p=(1.0, 2.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SystemParams(n=0, sigma=1.0, k=2, p=(2, 2))
        with pytest.raises(ValueError):
            SystemParams(n=1, sigma=0.5, k=2, p=(2, 2))
        with pytest.raises(ValueError):
            SystemParams(n=1, sigma=1.0, k=3, p=(2, 2))
        assert sys_(3, 1.5, (2, 2)).fujita_ratio == 1.0


class TestClassification:
    def test_frozen_verdicts(self):
        assert classify(sys_(1, 1.0, (3, 4))) == SUPERCRITICAL
        assert classify(sys_(2, 1.0, (2, 2))) == CRITICAL
        assert classify(sys_(1, 1.0, (2, 2))) == SUBCRITICAL

    def test_condition_flags_frozen(self):
        flags = check_global_conditions(sys_(1, 1.0, (3, 4)))
        assert flags == {
            "fujita_p1": True,
            "chain_products": True,
            "low_dim": True,
            "p_min_two": True,
            "gamma_supercritical": True,
            "gamma_subcritical": False,
            "lifespan_lower_scope": True,
        }

    def test_chain_bound_non_strict_boundary(self):
        # l = 2 bound (p1 p2 - 1)/(1 + p2) <= 2 sigma / n; p = (3.5, 2, .)
        # sits exactly on the boundary for n = 1, sigma = 1.
        assert check_global_conditions(
            sys_(1, 1.0, (3.5, 2, 2))
        )["chain_products"] is True
        assert check_global_conditions(
            sys_(1, 1.0, (3.55, 2, 2))
        )["chain_products"] is False
        # l = 2: (21 - 1)/8 = 2.5 = 2 sigma / n for n = 1, sigma = 1.25,
        # where n / (2 sigma) = 0.4 rounds
        assert check_global_conditions(
            sys_(1, 1.25, (3, 7, 6))
        )["chain_products"] is True
        # l = 2: (13.6 - 1)/5.25 = 2.4 = 2 sigma / n for n = 1,
        # sigma = 1.2, which the float ratio misses by 4.4e-16; an
        # entry 8.1e-12 above the bound, outside CRITICAL_TOL, fails
        assert check_global_conditions(
            sys_(1, 1.2, (3.2, 4.25, 2))
        )["chain_products"] is True
        assert check_global_conditions(
            sys_(1, 1.2, (3.20000000001, 4.25, 2))
        )["chain_products"] is False

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p=st.lists(st.floats(1.05, 8.0), min_size=3, max_size=6),
    )
    @example(n=1, sigma=1.0, p=[3.5, 2.0, 2.0])
    @example(n=1, sigma=1.0, p=[3.55, 2.0, 2.0])
    @settings(max_examples=150, deadline=None)
    def test_chain_flag_is_the_ratio_form(self, n, sigma, p):
        # (Q_l - 1)/S_l <= 2 sigma/n + CRITICAL_TOL for l = 2..k-1, with
        # the running S_l = 1 + p_l S_{l-1} and Q_l = p_l Q_{l-1}
        flag = check_global_conditions(sys_(n, sigma, p))["chain_products"]
        s, q, ratio_form = 1.0, p[0], True
        for x in p[1:-1]:
            s, q = 1.0 + x * s, q * x
            ratio_form = ratio_form and \
                (q - 1.0) / s <= 2.0 * sigma / n + CRITICAL_TOL
        assert flag == ratio_form

    def test_fujita_flag_boundary(self):
        assert check_global_conditions(sys_(1, 1.0, (3, 4)))["fujita_p1"]
        assert not check_global_conditions(
            sys_(1, 1.0, (3.01, 4))
        )["fujita_p1"]


def critical_p1(n, sigma, p2):
    """p_1 that puts gamma_2 = (1 + p_2)/(p_1 p_2 - 1) of a k = 2
    system on n/(2 sigma); gamma_2 is the max when p_1 <= p_2."""
    r = n / (2.0 * sigma)
    return ((1.0 + p2) / r + 1.0) / p2


# Critical systems whose computed max gamma misses n/(2 sigma) by an
# ulp: the first falls 5.6e-17 below it, the second 2.2e-16 above.
CRITICAL_SYSTEMS = [(1, 1.25, (3.0833333333333335, 6.0)),
                    (2, 1.0, (1.3333333333333333, 6.0))]


class TestCriticalBorderline:
    """Critical systems get no verdict: no regime flag, no predicted
    decay, no lifespan."""

    @pytest.mark.parametrize("n,sigma,p", CRITICAL_SYSTEMS)
    def test_no_verdict(self, n, sigma, p):
        assert critical_p1(n, sigma, p[1]) == p[0]
        params = sys_(n, sigma, p)
        assert classify(params) == CRITICAL
        flags = check_global_conditions(params)
        assert flags["gamma_supercritical"] is False
        assert flags["gamma_subcritical"] is False
        with pytest.raises(ConditionsUnmet, match="gamma_supercritical"):
            predicted_decay(params)
        with pytest.raises(NotSubcritical):
            lifespan_exponent(params)
        assert report(params).decay_L2 == ()

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p2=st.floats(1.05, 8.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_family_is_critical(self, n, sigma, p2):
        p1 = critical_p1(n, sigma, p2)
        assume(1.05 < p1 <= p2)
        params = sys_(n, sigma, (p1, p2))
        assert classify(params) == CRITICAL
        flags = check_global_conditions(params)
        assert not flags["gamma_supercritical"]
        assert not flags["gamma_subcritical"]

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p=st.lists(st.floats(1.05, 8.0), min_size=2, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_flags_follow_classify(self, n, sigma, p):
        params = sys_(n, sigma, p)
        cls = classify(params)
        flags = check_global_conditions(params)
        assert flags["gamma_supercritical"] == (cls == SUPERCRITICAL)
        assert flags["gamma_subcritical"] == (cls == SUBCRITICAL)


class TestChainSums:
    def test_slack_frozen(self):
        assert decay_slack(sys_(1, 1.0, (3, 4))) == (0.0, 0.0)

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p=st.lists(st.floats(1.05, 8.0), min_size=2, max_size=5),
    )
    # entries of 0.23 and below, from terms up to 3.3e2
    @example(n=1, sigma=2.94140625,
             p=[6.8203125, 7.3458824991264455, 6.8203125,
                5.750022012031441, 2.0])
    @settings(max_examples=150, deadline=None)
    def test_slack_is_the_eps_free_limit(self, n, sigma, p):
        params = sys_(n, sigma, p)
        slack = decay_slack(params)
        assert len(slack) == params.k
        assert min(slack) >= 0.0
        assert slack[-1] == 0.0
        # clipping at zero moves no entry further from the exact one
        exact = [(max(v, Fraction(0)), terms)
                 for v, terms in sequence_exact(n, sigma, p, 0)]
        assert ulps_of_terms(slack, exact) <= recursion_bound(params.k)


class TestLossOfDecay:
    def test_frozen_values(self):
        assert loss_of_decay_sequence(
            sys_(1, 1.0, (3, 4)), eps=0.01
        ) == pytest.approx((0.01, 0.0), abs=1e-15)
        # hand-expanded k = 3 chain
        assert loss_of_decay_sequence(
            sys_(1, 1.0, (3, 2, 2)), eps=0.01
        ) == pytest.approx((0.01, 0.52, 0.0), abs=1e-14)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            loss_of_decay_sequence(sys_(1, 1.0, (3, 4)), eps=0.0)

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p=st.lists(st.floats(1.05, 8.0), min_size=2, max_size=5),
        eps=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_recursion_oracle(self, n, sigma, p, eps):
        seq = loss_of_decay_sequence(sys_(n, sigma, p), eps)
        assert len(seq) == len(p) and seq[-1] == 0.0
        assert ulps_of_terms(seq, sequence_exact(n, sigma, p, eps)) \
            <= recursion_bound(len(p))

    def test_seven_components(self):
        n, sigma, p = SEVEN_COMPONENTS
        params = sys_(n, sigma, p)
        seq = loss_of_decay_sequence(params, AUX_EPS)
        assert ulps_of_terms(seq, sequence_exact(n, sigma, p, AUX_EPS)) \
            <= recursion_bound(len(p))
        rep = report(params)
        assert rep.epsilon_seq == seq
        assert rep.classification == SUBCRITICAL


class TestAlphaBeta:
    """Sign law of the lifespan exponent: it exists, and is negative,
    exactly on the subcritical side."""

    @given(
        n=st.integers(1, 4),
        sigma=st.floats(1.0, 3.0),
        p=st.lists(st.floats(1.05, 8.0), min_size=2, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_sign_law(self, n, sigma, p):
        params = sys_(n, sigma, p)
        gap = compute_gamma(params).max - params.fujita_ratio
        if abs(gap) <= 1e-9:
            return  # too close to the borderline to assert either way
        if classify(params) == SUBCRITICAL:
            assert lifespan_exponent(params) < 0
        else:
            with pytest.raises(NotSubcritical):
                lifespan_exponent(params)


class TestPredictions:
    def test_predicted_decay_frozen(self):
        l2, hs = predicted_decay(sys_(1, 1.0, (3, 4)))
        assert l2 == pytest.approx((-0.24, -0.25), abs=1e-14)
        assert hs == pytest.approx((-0.74, -0.75), abs=1e-14)

    def test_predicted_decay_requires_hypotheses(self):
        with pytest.raises(ConditionsUnmet, match="gamma_supercritical"):
            predicted_decay(sys_(1, 1.0, (2, 2)))

    def test_lifespan_frozen(self):
        assert lifespan_exponent(sys_(1, 1.0, (2, 2))) == pytest.approx(
            -2.0, abs=1e-13
        )
        assert lifespan_exponent(sys_(1, 1.0, (2, 3))) == pytest.approx(
            -10 / 3, abs=1e-13
        )

    @given(
        n=st.integers(1, 3),
        sigma=st.floats(1.0, 2.5),
        p=st.lists(st.floats(1.05, 8.0), min_size=2, max_size=4),
        c=st.integers(2, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance(self, n, sigma, p, c):
        # (n, sigma) -> (c n, c sigma) leaves every prediction invariant.
        a = sys_(n, sigma, p)
        b = sys_(c * n, c * sigma, p)
        if abs(compute_gamma(a).max - a.fujita_ratio) <= 1e-9:
            return  # classification not stable under rounding here
        assert classify(a) == classify(b)
        sa = loss_of_decay_sequence(a, 0.01)
        sb = loss_of_decay_sequence(b, 0.01)
        assert max(abs(x - y) for x, y in zip(sa, sb)) <= 1e-11
        if classify(a) == SUBCRITICAL:
            la, lb = lifespan_exponent(a), lifespan_exponent(b)
            assert abs(la - lb) <= 1e-9 * max(1.0, abs(la))


class TestGNTheta:
    def test_frozen_values(self):
        theta, valid = gn_theta(q=2, q1=2, q2=2, a=0.5, s=1.0, n=1)
        assert theta == pytest.approx(0.5, abs=1e-15) and valid
        theta, valid = gn_theta(q=4, q1=2, q2=2, a=0.0, s=1.0, n=1)
        assert theta == pytest.approx(0.25, abs=1e-15) and valid

    def test_endpoint_identity(self):
        theta, valid = gn_theta(q=3, q1=3, q2=2, a=0.0, s=1.5, n=2)
        assert theta == 0.0 and valid

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gn_theta(q=1.0, q1=2, q2=2, a=0.0, s=1.0, n=1)
        with pytest.raises(DomainError):
            gn_theta(q=2, q1=2, q2=2, a=0.0, s=0.0, n=1)
        with pytest.raises(DomainError):
            gn_theta(q=2, q1=2, q2=2, a=2.0, s=1.0, n=1)

    @given(
        q_lo=st.floats(1.1, 20.0),
        bump=st.floats(0.0, 20.0),
        q1=st.floats(1.1, 20.0),
        q2=st.floats(1.1, 20.0),
        s=st.floats(0.5, 3.0),
        n=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_target_norm(self, q_lo, bump, q1, q2, s, n):
        # Raising q (weakening the target norm) moves theta with the
        # sign of the interpolation denominator.
        denom = 1.0 / q1 - 1.0 / q2 + s / n
        if abs(denom) < 1e-9:
            return
        t_lo, _ = gn_theta(q=q_lo, q1=q1, q2=q2, a=0.0, s=s, n=n)
        t_hi, _ = gn_theta(q=q_lo + bump, q1=q1, q2=q2, a=0.0, s=s, n=n)
        if denom > 0:
            assert t_hi >= t_lo - 1e-12
        else:
            assert t_hi <= t_lo + 1e-12


class TestReport:
    def test_supercritical_report(self):
        rep = report(sys_(1, 1.0, (3, 4)))
        assert rep.classification == SUPERCRITICAL
        assert rep.lifespan_exponent is None
        assert rep.decay_L2 == pytest.approx((-0.24, -0.25), abs=1e-14)
        assert rep.notes == ()

    def test_subcritical_report(self):
        rep = report(sys_(1, 1.0, (2, 3)))
        assert rep.classification == SUBCRITICAL
        assert rep.decay_L2 == ()
        assert rep.lifespan_exponent == pytest.approx(-10 / 3, abs=1e-13)

    def test_critical_report_carries_note(self):
        rep = report(sys_(2, 1.0, (2, 2)))
        assert rep.classification == CRITICAL
        assert any("open" in note for note in rep.notes)

    def test_rotation_note(self):
        rep = report(sys_(1, 1.0, (2, 2, 2)))
        assert any("relabeling" in note for note in rep.notes)

    def test_nonnegative_exponent_note_states_the_fixed_eps(self):
        # eps is the constant AUX_EPS, which no command or config key
        # reaches, so the note states the fact and advises nothing
        rep = report(sys_(2, 1.5, (2.395, 2.220, 5.678)))
        assert rep.notes == (
            "a predicted L2 exponent is nonnegative at the auxiliary "
            f"eps = {AUX_EPS:g}",)


class TestGammaSolvedOnce:
    @pytest.fixture
    def evaluations(self):
        """Counts compute_gamma's cache misses, its evaluations of gamma,
        starting from an empty cache."""
        compute_gamma.cache_clear()
        yield lambda: compute_gamma.cache_info().misses
        compute_gamma.cache_clear()

    def test_report(self, evaluations):
        report(sys_(1, 1.0, (2, 3)))
        assert evaluations() == 1

    def test_lifespan_sweep(self, evaluations):
        # classify, the exponent, the caps and each run's blow-up rate
        # all read the same evaluation
        comps = (ComponentData(amp0=0.25, amp1=0.25),) * 2
        sweep = lifespan_sweep(sys_(1, 1.0, (2, 2)),
                               GridSpec(n=1, N=256, L=40.0), comps,
                               (0.5, 1.0, 2.0, 4.0))
        assert not any(sweep.capped)
        assert evaluations() == 1

    @staticmethod
    def simulate(p, epsilon, amp1):
        comps = (ComponentData(amp0=1.0, amp1=amp1),) * 2
        return run(sys_(1, 1.0, p), GridSpec(n=1, N=256, L=40.0),
                   InitialData(epsilon, comps), t_end=100.0, dt=0.05,
                   dt_policy="adaptive")

    def test_run_that_never_grows(self, evaluations):
        # gamma is evaluated at most once per system, also by a run whose
        # predictor's sup decays from s0 = 0.1 and never feeds a fit
        res = self.simulate((3, 4), 0.1, 0.0)
        assert not res.blown_up and res.steps > 10
        assert res.sup.max() <= 0.1
        assert evaluations() <= 1

    def test_blowup_run(self, evaluations):
        # one evaluation serves every decade fit of the run
        res = self.simulate((2, 2), 0.3, 1.0)
        assert res.blown_up and res.blowup_error < 0.01
        assert evaluations() == 1
