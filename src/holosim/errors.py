"""Typed error hierarchy.

Every guard in the library raises a subclass of HolosimError so callers
(and the CLI, which maps config problems to exit code 2) can distinguish
bad inputs from genuine bugs.
"""


class HolosimError(Exception):
    """Base class for all errors raised by holosim."""


class CutoffTooSmall(HolosimError):
    """Truncated construction would discard more norm than tail_tol allows."""


class AmplitudeTooLarge(HolosimError):
    """An amplitude beyond its bound: a coherent |mu| > 1000 or a deformation
    |epsilon| > 0.2."""


class InvalidModeIndex(HolosimError):
    """Mode index out of range or repeated where distinct modes are required."""


class DegreeTooHigh(HolosimError):
    """Operator monomial exceeds the supported total degree."""


class UnsupportedPhase(HolosimError):
    """An interferometer or beam-splitter phase is not finite."""


class NegativeParameter(HolosimError):
    """A rate, occupation or time that must be >= 0 was negative."""


class ParameterOutOfRange(HolosimError):
    """A parameter is not finite, or too large for its closed form to stay finite."""


class DegenerateDenominator(HolosimError):
    """Correlation-estimate denominator below the degeneracy floor."""


class ZeroAmplitude(HolosimError):
    """Classical baseline needs a nonzero coherent amplitude."""


class WorkerFailed(HolosimError):
    """A forked Monte-Carlo worker died or sent short data."""


class ConfigError(HolosimError):
    """Run-configuration file failed validation; message carries the line number."""
