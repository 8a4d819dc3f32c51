"""Shared error taxonomy.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError.  Blow-up is no error here:
it is a verdict, which run() reports in its RunResult.
"""


class SevolabError(Exception):
    """Base class for all package-specific errors."""


class SingularSystem(SevolabError):
    """Coupling matrix P - I is singular (some exponent p <= 1)."""


class ConditionsUnmet(SevolabError):
    """A predicted-rate query was made while its hypotheses fail."""


class NotSubcritical(SevolabError):
    """Lifespan scaling requested outside the subcritical regime."""


class DomainError(SevolabError):
    """Interpolation-inequality parameters outside their valid ranges."""


class FitUnstable(SevolabError):
    """A power-law fit came back with R^2 below the trust threshold."""


class DataLeakage(SevolabError):
    """Field does not decay at the box edge; periodic wraparound unsafe."""


class InsufficientSnapshots(SevolabError):
    """Too few time-quadrature nodes to evaluate a spacetime functional."""


class ConditionViolated(SevolabError):
    """Cutoff regularity condition fails for the requested conjugate exponent."""


class EmptyWindow(SevolabError):
    """Fewer than the minimum number of fit points inside the window."""


class NonPositiveValues(SevolabError):
    """Log-log fit fed values that are zero or negative."""


class NoBlowUpAtCap(SevolabError):
    """A sweep run hit its time cap without a blow-up verdict."""


class BlowUpDuringDecayExperiment(SevolabError):
    """A run meant to stay global blew up; data too large or misclassified."""
