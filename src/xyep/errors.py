"""Exception and warning types shared across the package."""


class XYEPError(Exception):
    """Base class for all errors raised by this package."""


class LambdaSingular(XYEPError):
    """The anisotropy sits on a pole of the boundary-parameter map (gamma = +-1)."""


class EpsilonZero(XYEPError):
    """A quasi-energy of exactly zero was requested where the construction divides by it."""


class TrigSingular(XYEPError):
    """A trigonometric expression is evaluated too close to a zero of its denominator."""


class NonConvergence(XYEPError):
    """An iterative solver exhausted its iteration budget before meeting tolerance."""


class DegenerateInput(XYEPError):
    """Input is structurally unusable (zero polynomial, vanishing leading block, ...)."""


class DefectiveBasis(XYEPError):
    """An assembled eigenbasis, Jordan chain or Jordan basis failed its residual check."""


class SizeLimit(XYEPError):
    """Requested system size exceeds what the dense construction supports."""


class ClusterAmbiguity(XYEPError):
    """Eigenvalue clustering could not separate clusters cleanly at the given tolerance."""


class VacuumNotFound(XYEPError):
    """No joint null vector exists for the requested annihilation conditions."""


class CardinalityMismatch(XYEPError):
    """Two spectra to be matched have different lengths."""


class AmbiguousContinuation(XYEPError):
    """Eigenvalue tracking could not disambiguate branches within the refinement budget."""


class ZeroVector(XYEPError):
    """An operation that needs a nonzero vector received (numerically) zero."""


class LimitRequired(XYEPError):
    """A closed-form expression degenerates at this parameter; take the limit instead."""


class XYEPWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class NearEPWarning(XYEPWarning):
    """Two roots of a boundary polynomial are close enough to suggest a nearby degeneracy."""


class ModeCoincidenceWarning(XYEPWarning):
    """The two boundary conditions coincide (gamma = 0), so mode labels are conventional."""
