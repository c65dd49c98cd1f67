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


class NotTerminated(SqrectError):
    """An enumeration exceeded its iteration cap, or an input its memory
    budget."""


def check_budget(count: int, budget: int, unit: str) -> None:
    """Raise NotTerminated when count passes budget, naming the unit and the
    budget. The count is shown below 10**20 and by its bit length above, so
    the message stays short (and an int past the 4,300 digits that int -> str
    allows is never formatted)."""
    if count > budget:
        shown = count if count < 10**20 else f"a {count.bit_length()}-bit number of"
        raise NotTerminated(f"{shown} {unit}, above the budget of {budget}")


class WindowTooShort(SqrectError):
    """Word too short for a stable factor count."""


class PrefixTooShort(SqrectError):
    """Generated prefix decomposes into too few blocks."""

