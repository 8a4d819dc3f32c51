"""Exponent calculus for the coupled damped sigma-evolution system.

Everything here is closed-form arithmetic on the chain of power
nonlinearities p = (p_1, ..., p_k): the vector gamma of the cyclic
coupling, the classification of the system against the
threshold n/(2*sigma), the loss-of-decay sequence, and the
Gagliardo-Nirenberg interpolation exponent.  No grids and no
transforms; this module is the ground truth that every experiment in
the harness is fitted against.

Component ell is forced by |u_{ell-1}|^{p_ell}, component 1 by
|u_k|^{p_1}, so the coupling matrix P has p_1 in the top-right corner
and p_ell on the subdiagonal.  gamma solves (P - I) gamma = (1, ..., 1),
which has a closed form (`compute_gamma`), so no matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConditionsUnmet, DomainError, NotSubcritical, SingularSystem

# |max gamma - n/(2 sigma)| below this is treated as critical (open regime).
CRITICAL_TOL = 1e-12
# the auxiliary epsilon > 0 of the loss-of-decay sequence behind the
# predicted decay rates and the weighted-norm diagnostic
AUX_EPS = 0.01

SUPERCRITICAL = "Supercritical"
CRITICAL = "Critical"
SUBCRITICAL = "Subcritical"


@dataclass(frozen=True)
class SystemParams:
    """Dimension, fractional order, component count and exponent chain."""

    n: int          # space dimension >= 1
    sigma: float    # fractional order of (-Laplace)^sigma, >= 1
    k: int          # number of components, >= 2
    p: tuple        # exponents (p_1, ..., p_k), each > 1

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        if not float(self.n).is_integer() or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not 1 <= self.sigma < math.inf:
            raise ValueError(
                f"sigma must be finite and >= 1, got {self.sigma}")
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k}")
        if len(self.p) != self.k:
            raise ValueError(f"need {self.k} exponents, got {len(self.p)}")
        if not all(math.isfinite(x) for x in self.p):
            raise ValueError(f"every exponent must be finite, got p={self.p}")
        if any(x <= 1 for x in self.p):
            raise SingularSystem(
                f"every exponent must exceed 1, got p={self.p}"
            )

    @property
    def fujita_ratio(self) -> float:
        """The threshold n/(2*sigma) all exponent tests compare against."""
        return self.n / (2.0 * self.sigma)


@dataclass(frozen=True)
class GammaVector:
    """Solution of (P - I) gamma = 1 plus argmax bookkeeping.

    argmax_index is 1-based (component number).  When the maximal entry
    is not the last one, `rotation` gives the cyclic relabeling (new
    component ell = old component ell + rotation, indices mod k) that
    would move the argmax to position k.  rotation == 0 means no
    relabeling needed.
    """

    gamma: tuple
    argmax_index: int
    residual: float
    rotation: int

    @property
    def max(self) -> float:
        return self.gamma[self.argmax_index - 1]


def _gamma_last(p: tuple) -> float:
    """The gamma entry of the chain's last exponent, from
    gamma_l = p_l gamma_(l-1) - 1 run once round the cycle:

        S_k / (Q_k - 1) = (1/Q_1 + ... + 1/Q_k) / (1 - 1/Q_k)

    with S_k = 1 + p_k + p_{k-1} p_k + ... + p_2...p_k and
    Q_l = p_1...p_l.  The second form, S_k and Q_k divided through by
    Q_k, stays finite where Q_k overflows.
    """
    r, q = 0.0, 1.0
    for x in p:
        q *= x
        r += 1.0 / q
    if 1.0 - 1.0 / q < 1e-14:
        raise SingularSystem("product of exponents equals 1; P - I singular")
    return r / (1.0 - 1.0 / q)


@lru_cache(maxsize=64)
def compute_gamma(params: SystemParams) -> GammaVector:
    """Solve (P - I) gamma = (1, ..., 1) in closed form.

    gamma_l is S/(Q - 1) of p rotated so that p_l comes last
    (`_gamma_last`).  The residual of the rows p_l gamma_(l-1) - gamma_l
    = 1, relative to max(1, max |gamma|), is checked against 1e-12 and
    reported.  Cached per SystemParams (frozen and hashable), so every
    caller of one system shares one evaluation.
    """
    k, p = params.k, params.p
    if k > 64:
        raise ValueError("component counts above 64 are not supported")
    gamma = [_gamma_last(p[ell + 1:] + p[:ell + 1]) for ell in range(k)]
    residual = (max(abs(p[ell] * gamma[ell - 1] - gamma[ell] - 1.0)
                    for ell in range(k))
                / max(1.0, max(abs(g) for g in gamma)))
    if not residual <= 1e-12:
        raise SingularSystem(f"gamma residual {residual:.3e} too large")
    # Ties broken by the smallest index; argmax reported 1-based.
    imax = max(range(k), key=gamma.__getitem__)
    return GammaVector(
        gamma=tuple(gamma),
        argmax_index=imax + 1,
        residual=residual,
        rotation=(imax + 1) % k,
    )


def gamma_max_closed_form(params: SystemParams) -> float:
    """Closed form for the last gamma component, S_k / (Q_k - 1):

        (1 + p_k + p_{k-1} p_k + ... + p_2 p_3 ... p_k) / (p_1 ... p_k - 1)

    Equals max(gamma) whenever component k attains the max.
    """
    return _gamma_last(params.p)


def classify(params: SystemParams) -> str:
    """Compare max(gamma) against n/(2*sigma), with a gap of at most
    CRITICAL_TOL read as equality.

    Below the threshold the system is supercritical (small data exist
    globally), above it subcritical (blow-up), equal is the critical
    borderline, which is open territory: the report carries a note and
    nothing downstream will claim a verdict there.
    """
    gap = compute_gamma(params).max - params.fujita_ratio
    if abs(gap) <= CRITICAL_TOL:
        return CRITICAL
    return SUBCRITICAL if gap > 0 else SUPERCRITICAL


def check_global_conditions(params: SystemParams) -> dict:
    """Independently report each hypothesis of the small-data global
    existence result, plus the blow-up threshold and the regime flag of
    the lifespan lower bound.

    Keys:
      fujita_p1          p_1 <= 1 + 2 sigma / n
      chain_products     (p_1...p_l - 1)/(1 + p_l + ... + p_2...p_l) <= 2 sigma / n
                         for l = 2..k-1 (vacuous for k = 2): eps-free
                         loss-of-decay entry l is >= 0, in a form whose
                         2 sigma / n is exact when sigma is and n is 1, 2, 4;
                         the bound is non-strict, so an entry within
                         CRITICAL_TOL above it reads as held
      low_dim            n <= 2 sigma
      p_min_two          every p_l >= 2
      gamma_supercritical  classify(params) == SUPERCRITICAL
      gamma_subcritical    classify(params) == SUBCRITICAL (blow-up side)
      lifespan_lower_scope p_min_two and low_dim (regime of the lower
                           lifespan bound that the experiments cover)

    On the critical borderline both gamma flags are False.
    """
    p = params.p
    ratio = 2.0 * params.sigma / params.n  # = 1 / fujita_ratio
    cls = classify(params)
    flags = {}
    flags["fujita_p1"] = p[0] <= 1.0 + ratio
    # S_l = 1 + p_l S_(l-1) and Q_l = p_l Q_(l-1) from S_1 = 1, Q_1 = p_1
    s, q, chain = 1.0, p[0], True
    for x in p[1:-1]:
        s, q = 1.0 + x * s, q * x
        chain = chain and (q - 1.0) / s <= ratio + CRITICAL_TOL
    flags["chain_products"] = chain
    flags["low_dim"] = params.n <= 2.0 * params.sigma
    flags["p_min_two"] = min(p) >= 2.0
    flags["gamma_supercritical"] = cls == SUPERCRITICAL
    flags["gamma_subcritical"] = cls == SUBCRITICAL
    flags["lifespan_lower_scope"] = flags["p_min_two"] and flags["low_dim"]
    return flags


def _sequence(params: SystemParams, eps: float) -> tuple:
    """The paper's recursion for eps >= 0, the one evaluation of the
    loss-of-decay sequence:

        eps_1 = 1 - (n/2sigma)(p_1 - 1) + eps
        eps_l = 1 - (n/2sigma)(p_l - 1) + p_l eps_{l-1},  l = 2..k-1
        eps_k = 0
    """
    p = params.p
    r = params.fujita_ratio
    seq = [1.0 - r * (p[0] - 1.0) + eps]
    for x in p[1:-1]:
        seq.append(1.0 - r * (x - 1.0) + x * seq[-1])
    return tuple(seq) + (0.0,)


def loss_of_decay_sequence(params: SystemParams, eps: float) -> tuple:
    """Loss-of-decay sequence (eps_1, ..., eps_k) of an auxiliary
    eps > 0, by the recursion of `_sequence`.

    Unrolled, eps_l = S_l - (n/2sigma)(Q_l - 1) + R_l * eps with the
    chain sum S_l = 1 + p_l + ... + p_2...p_l and the products
    Q_l = p_1...p_l, R_l = p_2...p_l; its eps-free part is `decay_slack`.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _sequence(params, eps)


def decay_slack(params: SystemParams) -> tuple:
    """The loss-of-decay sequence as eps -> 0, clipped at zero:
    max(0, S_l - (n/2sigma)(Q_l - 1)) for l < k, and 0 for l = k.
    The sequence is affine in eps, so this is `_sequence` at eps = 0.

    This is the width of the interval [-n/4s, -n/4s + slack_l] the
    theory leaves a component's L2 decay exponent in.
    """
    return tuple(max(0.0, x) for x in _sequence(params, 0.0))


def predicted_decay(params: SystemParams) -> tuple:
    """Predicted decay exponents (L2 list, homogeneous-Sobolev list).

    Component ell of the L2 norm is predicted to decay like
    t^(-n/4sigma + eps_l) and the |D|^sigma norm like
    t^(-n/4sigma - 1/2 + eps_l), with eps_k = 0 and the sequence taken
    at AUX_EPS.  Only meaningful when the global existence hypotheses
    hold; otherwise ConditionsUnmet names the failing flags.
    """
    flags = check_global_conditions(params)
    needed = ("fujita_p1", "chain_products", "low_dim", "p_min_two",
              "gamma_supercritical")
    failed = [name for name in needed if not flags[name]]
    if failed:
        raise ConditionsUnmet(
            "global existence hypotheses fail: " + ", ".join(failed)
        )
    eps_seq = loss_of_decay_sequence(params, AUX_EPS)
    base = -params.n / (4.0 * params.sigma)
    decay_l2 = tuple(base + e for e in eps_seq)
    decay_hs = tuple(base - 0.5 + e for e in eps_seq)
    return decay_l2, decay_hs


def lifespan_exponent(params: SystemParams) -> float:
    """Predicted exponent of the lifespan scaling T_eps ~ eps^exponent,

        exponent = -1 / (max gamma - n/(2 sigma)),

    defined only on the subcritical side."""
    cls = classify(params)
    if cls != SUBCRITICAL:
        raise NotSubcritical(
            f"lifespan scaling needs a subcritical system, got {cls}"
        )
    return -1.0 / (compute_gamma(params).max - params.fujita_ratio)


def gn_theta(q: float, q1: float, q2: float, a: float, s: float,
             n: int) -> tuple:
    """Gagliardo-Nirenberg interpolation exponent and its validity flag.

        theta = (1/q1 - 1/q + a/n) / (1/q1 - 1/q2 + s/n)

    interpolates the |D|^a L^q norm between L^q1 and the |D|^s L^q2
    norm; the inequality is usable iff a/s <= theta <= 1.
    """
    for name, val in (("q", q), ("q1", q1), ("q2", q2)):
        if not (1.0 < val < math.inf):
            raise DomainError(f"{name} must lie in (1, inf), got {val}")
    if not s > 0:
        raise DomainError(f"s must be positive, got {s}")
    if not 0 <= a < s:
        raise DomainError(f"need 0 <= a < s, got a={a}, s={s}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    denom = 1.0 / q1 - 1.0 / q2 + s / n
    if denom == 0:
        raise DomainError("degenerate interpolation: denominator vanishes")
    theta = (1.0 / q1 - 1.0 / q + a / n) / denom
    valid = (a / s) <= theta <= 1.0
    return theta, valid


@dataclass(frozen=True)
class ExponentReport:
    """Everything the experiments need to know about one parameter set."""

    params: SystemParams
    gamma: GammaVector
    classification: str
    epsilon_seq: tuple
    decay_L2: tuple          # empty when hypotheses fail
    decay_Hsigma: tuple
    lifespan_exponent: float | None
    condition_flags: dict
    eps: float
    notes: tuple = field(default=())


def report(params: SystemParams) -> ExponentReport:
    """Assemble the full exponent report for one parameter set, with
    the loss-of-decay sequence at AUX_EPS."""
    gamma = compute_gamma(params)
    cls = classify(params)
    eps_seq = loss_of_decay_sequence(params, AUX_EPS)
    flags = check_global_conditions(params)
    notes = []
    if cls == CRITICAL:
        notes.append(
            "critical borderline max gamma = n/(2 sigma): behavior open, "
            "no verdict claimed"
        )
    if gamma.rotation != 0:
        notes.append(
            f"max gamma sits at component {gamma.argmax_index}; cyclic "
            f"relabeling by {gamma.rotation} puts it last (assumed harmless)"
        )
    try:
        decay_l2, decay_hs = predicted_decay(params)
        if any(d >= 0 for d in decay_l2):
            notes.append(
                f"a predicted L2 exponent is nonnegative at the "
                f"auxiliary eps = {AUX_EPS:g}"
            )
        if any(e <= 0 for e in eps_seq[: params.k - 1]):
            notes.append(
                f"a loss-of-decay entry is nonpositive at the auxiliary "
                f"eps = {AUX_EPS:g} despite the hypotheses"
            )
    except ConditionsUnmet:
        decay_l2, decay_hs = (), ()
    try:
        life = lifespan_exponent(params)
    except NotSubcritical:
        life = None
    return ExponentReport(
        params=params,
        gamma=gamma,
        classification=cls,
        epsilon_seq=eps_seq,
        decay_L2=decay_l2,
        decay_Hsigma=decay_hs,
        lifespan_exponent=life,
        condition_flags=flags,
        eps=AUX_EPS,
        notes=tuple(notes),
    )
