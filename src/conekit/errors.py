"""Exception types raised across conekit.

Everything derives from :class:`ConekitError` so callers can catch the
package's failures with a single except clause.  Errors that signal bad
*inputs* also derive from ``ValueError`` so they behave well in generic
validation code.
"""


class ConekitError(Exception):
    """Base class for all conekit errors."""


class DomainError(ConekitError, ValueError):
    """An argument is outside the mathematical domain of the operation.

    Examples: non-positive radius, lambda <= 0, evaluation on the
    diagonal z == z'.
    """


class PositivityError(DomainError):
    """The shifted cross-section operator fails to be strictly positive.

    Raised when a requested coupling c violates c > -((d-2)/2)**2, i.e. the
    quadratic-form positivity that the whole construction rests on.
    """


class InsufficientSpectrumError(ConekitError):
    """A computation needs more eigendata than the spectrum carries.

    Typical trigger: asking for the second distinct eigenvalue mu_1 of a
    spectrum whose table holds a single mode.
    """


class NormsOnlyError(ConekitError):
    """A pointwise pair function was requested from a norms-only spectrum.

    Spectrum files may omit addition coefficients; such spectra support
    norm/threshold computations but not pointwise kernel evaluation.
    """


class SpectrumFormatError(ConekitError, ValueError):
    """A spectrum file is malformed or violates the documented schema."""


class UnsupportedError(ConekitError):
    """The operation is not defined for this spectrum or configuration."""
