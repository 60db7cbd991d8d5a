"""Exact monomial-ideal arithmetic.

Ideals in k[[z_1..z_d]] generated by monomials are represented by the
minimal antichain of generator exponents, stored lex-sorted so that equal
ideals compare equal structurally.  All rational numbers in the package
are `fractions.Fraction`; floats are rejected at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _dominates(p: Exponent, q: Exponent) -> bool:
    """True when q >= p componentwise, i.e. monomial q lies in (z^p)."""
    return all(a <= b for a, b in zip(p, q))


def minimal_antichain(points: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Reduce a set of exponents to its minimal elements, lex-sorted."""
    pts = sorted(set(points), key=lambda t: (sum(t), t))
    kept: list[Exponent] = []
    for p in pts:
        # sorted by total degree, so only earlier points can dominate p
        if not any(_dominates(k, p) for k in kept):
            kept.append(p)
    return tuple(sorted(kept))


class MonomialIdeal:
    """A monomial ideal, canonically represented.

    gens is the lex-sorted tuple of minimal generator exponents; the zero
    ideal has no generators, the unit ideal has the single generator 0.
    """

    __slots__ = ("dim", "gens")

    dim: int
    gens: tuple[Exponent, ...]

    def __init__(self, dim: int, gens: Iterable[Sequence[int]], *, _trusted: bool = False):
        if dim < 1:
            raise ValueError("ideal needs at least one variable")
        object.__setattr__(self, "dim", dim)
        if _trusted:
            object.__setattr__(self, "gens", tuple(gens))  # type: ignore[arg-type]
            return
        cleaned: list[Exponent] = []
        for g in gens:
            t = tuple(g)
            if len(t) != dim:
                raise DimensionMismatch(f"generator {t} has {len(t)} coords, expected {dim}")
            if any((not isinstance(v, (int, np.integer))) or isinstance(v, bool) or v < 0 for v in t):
                raise ValueError(f"generator {t} must have nonnegative integer coords")
            cleaned.append(tuple(int(v) for v in t))
        object.__setattr__(self, "gens", minimal_antichain(cleaned))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MonomialIdeal is immutable")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, not the slots,
        # which __setattr__ refuses; the gens are canonical already
        return partial(MonomialIdeal, _trusted=True), (self.dim, self.gens)

    @classmethod
    def unit(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [(0,) * dim], _trusted=True)

    @classmethod
    def zero(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [], _trusted=True)

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, exponent: Sequence[int]) -> bool:
        """Monomial membership: z^exponent lies in the ideal."""
        e = tuple(exponent)
        if len(e) != self.dim:
            raise DimensionMismatch(f"exponent {e} has {len(e)} coords, expected {self.dim}")
        return any(_dominates(g, e) for g in self.gens)

    def contained_in(self, other: "MonomialIdeal") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("ideals live in different variable counts")
        return all(other.contains(g) for g in self.gens)

    def to_json(self) -> dict:
        return {"dim": self.dim, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, obj: dict) -> "MonomialIdeal":
        return cls(int(obj["dim"]), [tuple(int(v) for v in g) for g in obj["gens"]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.dim, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(dim={self.dim}, gens={list(self.gens)})"


def ideal_sum(*ideals: MonomialIdeal) -> MonomialIdeal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    dim = ideals[0].dim
    gens: list[Exponent] = []
    for ideal in ideals:
        if ideal.dim != dim:
            raise DimensionMismatch("ideals live in different variable counts")
        gens.extend(ideal.gens)
    return MonomialIdeal(dim, gens)


def external_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by g*h over the disjoint union of the variables."""
    dim = left.dim + right.dim
    gens = [g + h for g in left.gens for h in right.gens]
    # pairs of antichain elements already form an antichain
    return MonomialIdeal(dim, sorted(gens), _trusted=True)


@dataclass(frozen=True, eq=False)
class QuotientBasis:
    """Monomial basis of a finite-dimensional quotient: rows, a read-only int64
    array of shape (n, d), holds the exponents, distinct and lex-sorted."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows.flags.writeable = False

    def __reduce__(self) -> tuple:
        return QuotientBasis, (self.rows,)  # so a copy's rows are read-only too

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuotientBasis) and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash(self.rows.tobytes())


@dataclass(frozen=True)
class ScaledIdeal:
    """An ideal times the `power`-th power of the ambient germ."""

    power: int
    ideal: MonomialIdeal

    def to_json(self) -> dict:
        return {"power": self.power, "ideal": self.ideal.to_json()}
