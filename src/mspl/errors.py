"""Exception hierarchy for the lab.

Every failure mode that a caller can provoke through bad inputs gets its
own class so tests and the CLI can react precisely.  Solver outcomes that
are *expected* in normal operation (iteration budget exhausted, line
search stall) are reported as result flags, not exceptions.  Counts given
by a caller are refused by one check, `check_integer`, and real parameters
by another, `check_real`.
"""

import numbers


class LabError(Exception):
    """Base class for all errors raised by this package."""


class DivergentIntegral(LabError):
    """The requested weighted integral is infinite (singular weight not
    integrable against the given profile near t = 0)."""


class InvalidProfile(LabError):
    """Sawtooth jump list violates ordering / interior constraints."""


class UnclampedProfile(LabError):
    """Profile does not return to zero at t = 1 where the operation
    requires an admissible (clamped) profile."""


class InvalidConfig(LabError):
    """Configuration value out of range or inconsistent."""


def check_integer(name: str, value) -> None:
    """Refuse a count -- a jump count, a step budget, a number of mesh
    cells -- that is not an integer with InvalidConfig: a float, even a
    whole one, and a bool are refused; numpy integers are integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Refuse a real parameter -- an eps, a weight exponent, a mesh
    grading -- that is not a real number with InvalidConfig: a bool and a
    string are refused; numpy floats and integers are real numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")


class InvalidField(LabError):
    """Nodal field does not match its mesh or violates the zero
    boundary conditions."""


class InvalidSample(LabError):
    """Requested sample location(s) outside the open unit interval, not
    sorted, or repeated."""


class InvalidMu(LabError):
    """Non-positive transition half-width."""


class MuTooLarge(LabError):
    """Transition half-width so large that neighbouring caps would
    overlap or spill over the domain boundary."""


class InvalidPeriod(LabError):
    """Non-positive corner spacing passed to `cell.cell_density`."""


class TooFewOscillations(LabError):
    """Fewer than four slope reversals within 1.25 predicted periods of
    the sample point; no meaningful period statistic exists."""


class InsufficientData(LabError):
    """Fewer data points, or distinct abscissae, than the fit requires."""


class NonPositiveValue(LabError):
    """Log-log fit fed non-positive or non-finite abscissae or ordinates."""


class UnknownPreset(LabError):
    """Preset name not recognised."""


class TooManyJumps(LabError):
    """The sharp solver would have to score a jump count above
    `sharp.MAX_JUMPS`, which bounds the time of a solve."""
