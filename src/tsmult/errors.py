"""Exception hierarchy for tsmult.

Every error raised deliberately by this package derives from TsmultError,
so callers can catch one type at the CLI boundary.
"""

from __future__ import annotations


class TsmultError(Exception):
    """Base class for all tsmult errors."""


class DimensionMismatch(TsmultError):
    """Two objects living in different ambient variable counts were combined."""


class WindowExceeded(TsmultError):
    """A query point lies outside the window a chain was computed on."""


class GermUnsupported(TsmultError):
    """The germ is outside the diagonal family this package handles."""


class NotReduced(TsmultError):
    """An operation requires a reduced germ: for sums of powers, at least 2 variables."""


class ChainKindError(TsmultError):
    """A chain of the wrong side (V vs J) was supplied."""


class OracleMismatch(TsmultError):
    """Two independent computation routes disagreed on a value."""


class ResourceLimit(TsmultError):
    """An input would need a table too large to allocate; refused up front."""


class GermParseError(TsmultError):
    """The germ expression could not be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos

    def __str__(self) -> str:
        base = super().__str__()
        return base if self.pos is None else f"{base} (at position {self.pos})"
