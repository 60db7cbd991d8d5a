"""Vanishing-cycle eigenvalue tables and Hodge spectra of diagonal germs.

An EigenTable records eigenvalue multiplicities indexed by rational
logarithms in (-1, 0]; the eigenvalue itself is exp(-2*pi*i*alpha).
A Spectrum is the finer multiset of rational exponents in (0, d); its
mod-1 fold reproduces the eigentable.  Under sums in disjoint variables
spectra convolve additively while eigentables convolve with a fold back
into (-1, 0].

All three convolutions run on one exact integer engine: a table is a pair
of int64 arrays, distinct keys (numerators over a common denominator) and
their counts, and the sum of two tables pairs every key with every key.
Fractions are made only at the edge, once per output entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm

import numpy as np

from .errors import ResourceLimit
from .germs import Germ, alpha_tilde, milnor_number
from .monomial import Rat
from .oracles import enumerated_spectrum
from .weights import _admit


def _fits_int64(what: str, key_bound: int, count_bound: int) -> None:
    """Refuse keys below key_bound or counts up to count_bound that int64 cannot hold."""
    if key_bound >= 1 << 63 or count_bound >= 1 << 63:
        raise ResourceLimit(f"{what}: keys below {key_bound} with counts up to "
                            f"{count_bound} overflow 64-bit integers")


def _pair_sum(keys_a: np.ndarray, counts_a: np.ndarray, keys_b: np.ndarray,
              counts_b: np.ndarray, what: str, modulus: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sparse additive convolution of two (key, count) tables.

    Each pair's key is the sum of its two keys (reduced mod modulus when
    given) and its count the product of its two counts; pairs with equal
    keys merge.  One stable argsort groups equal keys into runs, and
    np.add.reduceat sums each run.  Returns the distinct keys ascending
    with their counts.  The keys, counts and sort index of all pairs, 24
    bytes a pair, are admitted before they are allocated.
    """
    n = len(keys_a) * len(keys_b)
    _admit(24 * n, f"{what}: {len(keys_a)} x {len(keys_b)} = {n} term pairs")
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    keys = np.add.outer(keys_a, keys_b).ravel()
    if modulus:
        keys %= modulus
    counts = np.multiply.outer(counts_a, counts_b).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def _table(entries: tuple[tuple[Rat, int], ...], denom: int, sign: int = 1
           ) -> tuple[np.ndarray, np.ndarray]:
    """Keys sign·k·denom (integers when denom is a multiple of every key's
    denominator) and counts of a Fraction-keyed table, as int64 arrays."""
    keys = [sign * k.numerator * (denom // k.denominator) for k, _ in entries]
    return (np.array(keys, dtype=np.int64),
            np.array([m for _, m in entries], dtype=np.int64))


def _admit_entries(n: int, what: str) -> None:
    """Refuse a table of n (Fraction, int) entries before it is built.

    An entry's tuple, Fraction and ints hold about 200 bytes of Python
    objects, against 16 bytes for the two int64s it is made from.
    """
    _admit(200 * n, f"{what}: {n} distinct values as Fractions")


def _entries(keys: np.ndarray, counts: np.ndarray, denom: int, what: str
             ) -> tuple[tuple[Fraction, int], ...]:
    """(key / denom, count) entries, one Fraction each, in the arrays' order."""
    _admit_entries(len(keys), what)
    return tuple(zip(map(Fraction, keys.tolist(), repeat(denom)), counts.tolist()))


def _common_denom(*tables) -> int:
    return lcm(*(k.denominator for t in tables for k, _ in t.entries))


@dataclass(frozen=True)
class EigenTable:
    """Finite multiplicity table with keys in (-1, 0]."""

    entries: tuple[tuple[Rat, int], ...]

    def __post_init__(self):
        for key, mult in self.entries:
            if not -1 < key <= 0:
                raise ValueError(f"eigentable key {key} outside (-1, 0]")
            if mult < 1:
                raise ValueError(f"multiplicity at {key} must be positive")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def as_dict(self) -> dict[Rat, int]:
        return dict(self.entries)

    def to_json(self) -> dict:
        return {"entries": [{"alpha": str(k), "mult": m} for k, m in self.entries]}


@dataclass(frozen=True)
class Spectrum:
    """Multiset of rational exponents in the open interval (0, dim)."""

    dim: int
    entries: tuple[tuple[Rat, int], ...]

    def __post_init__(self):
        for key, mult in self.entries:
            if not 0 < key < self.dim:
                raise ValueError(f"spectrum entry {key} outside (0, {self.dim})")
            if mult < 1:
                raise ValueError(f"multiplicity at {key} must be positive")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def as_dict(self) -> dict[Rat, int]:
        return dict(self.entries)

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "entries": [{"value": str(k), "mult": m} for k, m in self.entries]}


def one_var_eigentable(m: int) -> EigenTable:
    """Nontrivial m-th roots of unity, one dimension each."""
    if m < 2:
        raise ValueError("need an exponent >= 2")
    _admit_entries(m - 1, f"eigentable of z^{m}")
    return EigenTable(tuple((Fraction(-i, m), 1) for i in range(m - 1, 0, -1)))


def phi_convolve(t1: EigenTable, t2: EigenTable) -> EigenTable:
    """Convolve eigenvalue tables, folding key sums back into (-1, 0].

    A key sum lies in (-2, 0]; sums at or below -1 are shifted up by one,
    which is the second branch of the convolution identity.  Over one
    common denominator L a key a is the integer -a·L in [0, L), and the
    fold is the sum of those integers mod L.
    """
    denom = _common_denom(t1, t2)
    what = f"eigentable convolution over denominator {denom}"
    _fits_int64(what, 2 * denom, t1.total * t2.total)
    keys, counts = _pair_sum(*_table(t1.entries, denom, -1), *_table(t2.entries, denom, -1),
                             what, modulus=denom)
    # ascending keys -k/denom are the integers k in descending order
    return EigenTable(_entries(-keys[::-1], counts[::-1], denom, what))


def spectrum_of(germ: Germ) -> Spectrum:
    """Hodge spectrum of a diagonal germ from its one-variable spectra.

    With D = lcm(m_j) the spectrum is the integer polynomial
    Sp(t) = ∏_j Σ_{i=1}^{m_j-1} t^{i·D/m_j}: exponent e with coefficient c
    is the spectral number e/D with multiplicity c.  The product is folded
    variable by variable with the sparse pair sum, exactly in int64: keys
    stay below d·D and counts at most μ, and either reaching 2^63 is
    refused with ResourceLimit.
    """
    ms = germ.exponents
    denom = lcm(*ms)
    what = f"spectrum of {ms}"
    _fits_int64(what, germ.dim * denom, milnor_number(germ))
    keys = counts = None
    for m in ms:
        _admit(16 * (m - 1), f"{what}: one-variable table of {m - 1} terms")
        k = np.arange(1, m, dtype=np.int64) * (denom // m)
        c = np.ones(m - 1, dtype=np.int64)
        keys, counts = (k, c) if keys is None else _pair_sum(keys, counts, k, c, what)
    return Spectrum(germ.dim, _entries(keys, counts, denom, what))


def spectrum_convolve(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Additive convolution without folding; dimensions add."""
    denom = _common_denom(s1, s2)
    dim = s1.dim + s2.dim
    what = f"spectrum convolution over denominator {denom}"
    _fits_int64(what, dim * denom, s1.total * s2.total)
    keys, counts = _pair_sum(*_table(s1.entries, denom), *_table(s2.entries, denom), what)
    return Spectrum(dim, _entries(keys, counts, denom, what))


def fold_spectrum(spectrum: Spectrum) -> EigenTable:
    """Fold exponents mod 1 into (-1, 0]: s maps to -(s mod 1), integers to 0.

    The fold of p/q in lowest terms is -(p mod q)/q, so the counts gather
    on the integer pairs (p mod q, q) and each key becomes a Fraction once.
    """
    acc: dict[tuple[int, int], int] = {}
    for s, m in spectrum.entries:
        q = s.denominator
        key = (s.numerator % q, q)
        acc[key] = acc.get(key, 0) + m
    # keys -r/q ascending are the integers r·(L/q) descending, L = lcm(q)
    denom = lcm(*(q for _, q in acc))
    order = sorted(acc, key=lambda rq: -rq[0] * (denom // rq[1]))
    return EigenTable(tuple((Fraction(-r, q), acc[r, q]) for r, q in order))


@dataclass(frozen=True)
class SpectralReport:
    exponents: tuple[int, ...]
    enumeration_match: bool
    folded_table: EigenTable
    convolved_table: EigenTable
    tables_match: bool
    total: int
    milnor: int
    total_ok: bool
    symmetric: bool
    min_value: Rat
    alpha_tilde: Rat
    min_ok: bool

    @property
    def ok(self) -> bool:
        return (self.enumeration_match and self.tables_match and self.total_ok
                and self.symmetric and self.min_ok)

    def to_json(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "enumeration_match": self.enumeration_match,
            "folded_table": self.folded_table.to_json(),
            "convolved_table": self.convolved_table.to_json(),
            "tables_match": self.tables_match,
            "total": self.total,
            "milnor": self.milnor,
            "total_ok": self.total_ok,
            "symmetric": self.symmetric,
            "min_value": str(self.min_value),
            "alpha_tilde": str(self.alpha_tilde),
            "min_ok": self.min_ok,
            "ok": self.ok,
        }


def consistency_check(germ: Germ) -> SpectralReport:
    """Cross-check the spectral routes on one germ.

    Compares the spectrum against oracles.enumerated_spectrum, which sums
    every interior tuple independently of the pair-sum engine; the fold of
    the spectrum against the convolution of one-variable tables; the
    totals against the Milnor number; the symmetry about dim/2; and the
    minimum against the minimal level.
    """
    spectrum = spectrum_of(germ)
    folded = fold_spectrum(spectrum)
    conv = one_var_eigentable(germ.exponents[0])
    for m in germ.exponents[1:]:
        conv = phi_convolve(conv, one_var_eigentable(m))
    entries = spectrum.as_dict()
    symmetric = all(entries.get(germ.dim - s) == mult for s, mult in entries.items())
    min_value = min(entries)
    a_tilde = alpha_tilde(germ)
    mu = milnor_number(germ)
    return SpectralReport(
        exponents=germ.exponents,
        enumeration_match=(entries == enumerated_spectrum(germ.exponents)),
        folded_table=folded,
        convolved_table=conv,
        tables_match=(folded == conv),
        total=spectrum.total,
        milnor=mu,
        total_ok=(spectrum.total == mu and folded.total == mu),
        symmetric=symmetric,
        min_value=min_value,
        alpha_tilde=a_tilde,
        min_ok=(min_value == a_tilde),
    )
