"""Exact monomial-ideal arithmetic.

Ideals in k[[z_1..z_d]] generated by monomials are represented by the
minimal antichain of generator exponents, and quotient bases by their
exponents: each as the rows of one read-only int64 array, lex-sorted, so
that equal sets compare equal structurally.  All rational numbers in the
package are `fractions.Fraction`; floats are rejected at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

Rat = Fraction
Exponent = tuple[int, ...]


def as_fraction(x: object) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; refuse floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational number")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def minimal_antichain(points: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Reduce a set of exponents to its minimal elements, lex-sorted."""
    kept: list[Exponent] = []
    for p in sorted(set(points)):
        # a point lex-precedes every other point it divides, so only kept
        # points can divide p
        if not any(all(a <= b for a, b in zip(k, p)) for k in kept):
            kept.append(p)
    return tuple(kept)


class _Frozen:
    """Base of the exact values: construction and pickle or copy set each field
    once, arrays read-only, through __setstate__; equal values have one type
    and every slot equal."""

    __slots__ = ()

    def __setstate__(self, state: tuple[None, dict]) -> None:
        for name, value in state[1].items():
            if type(value) is np.ndarray:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            _equal(getattr(self, name), getattr(other, name))
            for cls in type(self).__mro__ for name in getattr(cls, "__slots__", ()))


def _equal(a: object, b: object) -> bool:
    """Fields equal: np.array_equal for arrays only, since on a scalar it
    wraps each side in a 0-d array, as slow as comparing a table."""
    return np.array_equal(a, b) if type(a) is np.ndarray else a == b


class _Rows(_Frozen):
    """A set of exponents as rows, one read-only int64 array of shape (n, d)
    whose rows are distinct and lex-sorted, so equal sets hold equal arrays."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.__setstate__((None, {"rows": rows}))

    @classmethod
    def _of(cls, rows: np.ndarray):
        """The set of rows, canonical and read-only already; runs no constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    def _tuples(self) -> tuple[Exponent, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __hash__(self) -> int:
        return hash((self.rows.shape, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows.tolist()}, shape={self.rows.shape})"


class MonomialIdeal(_Rows):
    """A monomial ideal, canonically represented.

    rows are its minimal generator exponents; the zero ideal has none, the
    unit ideal the single row 0.  gens reads them as tuples.
    """

    __slots__ = ()

    gens = property(_Rows._tuples)

    def __init__(self, dim: int, gens: Iterable[Sequence[int]]):
        if dim < 1:
            raise ValueError("ideal needs at least one variable")
        cleaned: list[Exponent] = []
        for g in gens:
            t = tuple(g)
            if len(t) != dim:
                raise DimensionMismatch(f"generator {t} has {len(t)} coords, expected {dim}")
            if any(not isinstance(v, (int, np.integer)) or isinstance(v, bool)
                   or not 0 <= v < 1 << 63 for v in t):
                raise ValueError(f"generator {t} must have nonnegative int64 coords")
            cleaned.append(tuple(int(v) for v in t))
        super().__init__(np.array(minimal_antichain(cleaned), dtype=np.int64).reshape(-1, dim))

    @classmethod
    def unit(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [(0,) * dim])

    @classmethod
    def zero(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [])

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def is_unit(self) -> bool:
        return len(self.rows) == 1 and not self.rows.any()

    @property
    def is_zero(self) -> bool:
        return not len(self.rows)

    def contains(self, exponent: Sequence[int]) -> bool:
        """Monomial membership: z^exponent lies in the ideal."""
        e = tuple(exponent)
        if len(e) != self.dim:
            raise DimensionMismatch(f"exponent {e} has {len(e)} coords, expected {self.dim}")
        return bool((self.rows <= e).all(axis=1).any())

    def contained_in(self, other: "MonomialIdeal") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("ideals live in different variable counts")
        return all(other.contains(g) for g in self.rows)

    def to_json(self) -> dict:
        return {"dim": self.dim, "gens": self.rows.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "MonomialIdeal":
        return cls(int(obj["dim"]), obj["gens"])  # the constructor checks every coordinate


def ideal_sum(*ideals: MonomialIdeal) -> MonomialIdeal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    dim = ideals[0].dim
    if any(ideal.dim != dim for ideal in ideals):
        raise DimensionMismatch("ideals live in different variable counts")
    return MonomialIdeal(dim, np.concatenate([ideal.rows for ideal in ideals]).tolist())


def external_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by g*h over the disjoint union of the variables.

    The products of two antichains form an antichain, and taken with g
    outer and h inner they come out lex-sorted, as each factor's rows are.
    """
    rows = np.concatenate((left.rows.repeat(len(right.rows), axis=0),
                           np.tile(right.rows, (len(left.rows), 1))), axis=1)
    rows.flags.writeable = False
    return MonomialIdeal._of(rows)


class QuotientBasis(_Rows):
    """Monomial basis of a finite-dimensional quotient: rows are the basis
    exponents, and exponents reads them as tuples."""

    __slots__ = ()

    exponents = property(_Rows._tuples)

    @property
    def dim(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ScaledIdeal:
    """An ideal times the `power`-th power of the ambient germ."""

    power: int
    ideal: MonomialIdeal

    def to_json(self) -> dict:
        return {"power": self.power, "ideal": self.ideal.to_json()}
