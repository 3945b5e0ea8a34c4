"""Exception types shared across the package, and the checks that a
number given to a constructor or read from a configuration is finite,
and that a count is whole and at most MAX_COUNT."""

import math

# the largest count of steps or output samples a run takes
# (billiard.iterate's n, vortex.integrate's n_eval, the CLI's counts)
MAX_COUNT = 1_000_000


class PensiveError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(PensiveError):
    """A constructor or operation received an out-of-domain parameter."""


class InvalidAngle(PensiveError):
    """Incidence angle outside the open interval (0, pi) or too close to tangency."""


class InvalidPoint(PensiveError):
    """A point does not lie where the operation requires it."""


class OutOfRange(PensiveError):
    """Argument outside the admissible numeric range."""


class CornerUndefined(PensiveError):
    """Tangent/curvature requested at a polygon vertex."""


class CornerHit(PensiveError):
    """A chord or slide landed on a polygon vertex (within tolerance)."""


class Unsupported(PensiveError):
    """Operation not defined for this curve or domain kind."""


class NotTransitive(PensiveError):
    """No momentum solves the transit equation for the given endpoints."""


class NotFound(PensiveError):
    """Search finished without locating the requested object."""


class HypothesisFailed(PensiveError):
    """Inputs violate a theorem hypothesis, so no certificate can be issued."""


class BoundarySingularity(PensiveError):
    """Vortex state too close to the domain boundary to evaluate."""


class DiagonalSingularity(PensiveError):
    """Two vortices coincide (or nearly so); the interaction diverges."""


class EventStop(PensiveError):
    """Integration halted by an event (boundary approach or near-collision).

    Carries the time and state at the stop so callers can inspect them.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class AmbiguousEvent(PensiveError):
    """Three or more boundary vortices meet within resolution; model undefined."""


class NotExterior(PensiveError):
    """Outer-billiard point lies on or inside the table."""


class EmptyPlot(PensiveError):
    """Nothing to draw."""


class ReportIncomplete(PensiveError):
    """A report was requested with pieces missing."""


class ConfigError(PensiveError):
    """Malformed or inconsistent run configuration."""


def finite_float(value, name):
    """float(value) of the parameter or configuration key `name`;
    InvalidParameter, naming it, unless it is a finite number."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise InvalidParameter("%s: expected a finite number, got %r"
                               % (name, value))
    return x


def whole_count(value, name, least=0):
    """int(value) of the count `name`; InvalidParameter, naming it, unless
    it is a whole number from `least` to MAX_COUNT."""
    x = finite_float(value, name)
    if x < least or x != int(x):
        raise InvalidParameter("%s must be a whole number, %d or more, "
                               "got %r" % (name, least, value))
    if x > MAX_COUNT:
        raise InvalidParameter("%s = %d is over the cap MAX_COUNT = %d"
                               % (name, x, MAX_COUNT))
    return int(x)
