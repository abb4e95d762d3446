"""Exception hierarchy for the simulator, and the value rules of its inputs.

Everything raised on purpose derives from SimulationError so callers can
catch one base class. The CLI maps subclasses to exit codes.
"""

import math
import numbers


class SimulationError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ValidationError(SimulationError):
    """Bad user input: parameter out of range, malformed scenario file, etc."""


class CutoffError(SimulationError):
    """A requested operation needs a larger Fock cutoff than the mode has."""


class TruncationError(SimulationError):
    """Probability mass above the truncation tolerance was lost at a cutoff."""


class HeraldImpossibleError(SimulationError):
    """The requested herald pattern has (numerically) zero probability."""


def real(name: str, value):
    """`value` as given if it is a finite real number other than a bool (an
    int, so True would pass every range check as 1); np.bool_ is none."""
    # float and int first: a check against the abstract class alone is slow
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int too large for a float
            pass
    raise ValidationError(f"{name} must be a number (a finite real), got {value!r}")


def integer(name: str, value):
    """`value` as given if it is an integral number, but not a bool."""
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{name} must be a number (an integer), got {value!r}")


def nonnegative(name: str, value, rule=real):
    """`value` as given if it passes `rule` (`real`, or `integer` for a
    count) and is >= 0: the rule of every amplitude, squeezing, probability,
    photon number and cutoff argument."""
    if rule(name, value) < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def choice(name: str, value, choices):
    """`value` as given if it is one of the text `choices`."""
    if isinstance(value, str) and value in choices:
        return value
    raise ValidationError(f"unknown {name} {value!r}; choose one of {choices}")
