"""Shared exception types."""


class SqrectError(Exception):
    """Base class for all domain errors."""


class ParseError(ValueError):
    """Malformed input text: a usage error, not a domain error."""


class MixedSurdFields(SqrectError):
    """Arithmetic between surds over different square-free radicands."""


class OnDiscontinuity(SqrectError):
    """A point landed on the discontinuity set.

    The optional ``step`` attribute records at which iterate the orbit
    hit the boundary.
    """

    def __init__(self, msg="point on discontinuity", step=None):
        super().__init__(msg)
        self.step = step


class OutOfDomain(SqrectError):
    """Point outside the square-union-rectangle domain."""


class Terminal(SqrectError):
    """The renormalization map is undefined (parameter reached 0)."""


class Degenerate(SqrectError):
    """A construction degenerates for this parameter (e.g. f(theta)=0)."""


class NotInZone(SqrectError):
    """Point outside the induction zone."""


class NotTerminated(SqrectError):
    """An enumeration exceeded its iteration cap, or an input its memory
    budget."""


class WindowTooShort(SqrectError):
    """Word too short for a stable factor count."""


class PrefixTooShort(SqrectError):
    """Generated prefix decomposes into too few blocks."""


class DepthMismatch(SqrectError):
    """Cover depth and tower-measure depth disagree."""


class DegenerateFit(SqrectError):
    """Least-squares fit quality below the acceptance threshold."""
