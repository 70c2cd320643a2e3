"""Exception and warning types shared across the package.

One class per failure kind that some caller tells apart; the README's
exit-code table gives the CLI exit code of each.  The benchmark harness
classifies known refusals by the names :class:`DefectiveBasis`,
:class:`EpsilonZero` and :class:`NonConvergence`.  :func:`as_int` is
the one rule for integer arguments and :func:`as_number` the one rule
for real and complex ones.
"""

import numbers
import operator


class XYEPError(Exception):
    """Base class for all errors raised by this package."""


class LambdaSingular(XYEPError):
    """The anisotropy sits on a pole of the boundary-parameter map (gamma = +-1)."""


class EpsilonZero(XYEPError):
    """A quasi-energy of exactly zero was requested where the construction divides by it."""


class NonConvergence(XYEPError):
    """An iterative solver exhausted its iteration budget before meeting tolerance."""


class DegenerateInput(XYEPError):
    """Input is unusable: invalid, degenerate at this parameter, or without a result.

    Covers malformed arguments, closed forms that degenerate at the given
    parameter, zero vectors, mismatched sizes, clusters that cannot be
    separated and annihilation conditions that admit no state.
    """


class DefectiveBasis(XYEPError):
    """A bilinearly null or overflowing mode vector, or a basis or Jordan chain failing its check."""


class SizeLimit(XYEPError):
    """Requested system size exceeds what the dense construction supports."""


class AmbiguousContinuation(XYEPError):
    """Eigenvalue tracking could not disambiguate branches within the refinement budget."""


class XYEPWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class NearEPWarning(XYEPWarning):
    """Two roots of a boundary polynomial are close enough to suggest a nearby degeneracy."""


class ModeCoincidenceWarning(XYEPWarning):
    """The two boundary conditions coincide (gamma = 0), so mode labels are conventional."""


def as_int(value, what: str) -> int:
    """``value`` as an int; :class:`DegenerateInput` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DegenerateInput(
            f"{what} must be an integer, got {value!r}") from None


def as_number(value, what: str, real: bool = False):
    """``value`` unchanged if it is a number (a real one if ``real``).

    Numpy scalars count; strings, arrays and ``None`` raise
    :class:`DegenerateInput`, as :func:`as_int` refuses ``"4"``.
    """
    if not isinstance(value, numbers.Real if real else numbers.Number):
        kind = "a real number" if real else "a number"
        raise DegenerateInput(f"{what} must be {kind}, got {value!r}")
    return value
