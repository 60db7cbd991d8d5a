"""Vanishing-cycle eigenvalue tables and Hodge spectra of diagonal germs.

An EigenTable records eigenvalue multiplicities indexed by rational
logarithms in (-1, 0]; the eigenvalue itself is exp(-2*pi*i*alpha).
A Spectrum is the finer multiset of rational exponents in (0, d); its
mod-1 fold reproduces the eigentable.  Under sums in disjoint variables
spectra convolve additively while eigentables convolve with a fold back
into (-1, 0].

Both are int64 numerators over a denominator with int64 counts; the
convolutions are one exact pair sum on those arrays and the fold is a
remainder and a merge.  Fractions are made only when entries are read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .germs import Germ, alpha_tilde, milnor_number
from .monomial import Rat, as_fraction
from .weights import _admit, _admit_int64, _runs, _Table


def _merge(keys: np.ndarray, counts: np.ndarray, modulus: int = 0
           ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys ascending with summed counts: keys are reduced mod
    modulus in place when given, one stable argsort groups equal keys into
    runs, and np.add.reduceat sums each run.

    Each array is dropped as soon as the next one is made from it, so when
    the caller keeps no reference to keys and counts, at most four arrays
    of their length are alive at once.
    """
    if modulus:
        keys %= modulus
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    starts = _runs(keys)
    counts = np.add.reduceat(counts, starts)
    return keys[starts], counts


def _pair_sum(keys_a: np.ndarray, counts_a: np.ndarray, keys_b: np.ndarray,
              counts_b: np.ndarray, what: str, *args, modulus: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sparse additive convolution of two (key, count) tables.

    Each pair's key is the sum of its two keys (reduced mod modulus when
    given) and its count the product of its two counts; pairs with equal
    keys merge; what.format(*args) names the sum on refusal.  The pair
    arrays go to _merge with no other reference, so the measured peak when
    no sums coincide, 32 bytes a pair and about 2 kB more, is admitted at
    33 bytes a pair before anything is allocated.
    """
    n = len(keys_a) * len(keys_b)
    _admit(33 * n, what + ": {} x {} = {} term pairs", *args, len(keys_a), len(keys_b), n)
    return _merge(np.add.outer(keys_a, keys_b).ravel(),
                  np.multiply.outer(counts_a, counts_b).ravel(), modulus)


def _parse(entries: Iterable[tuple[Rat, int]], what: str, span: int
           ) -> tuple[int, np.ndarray, np.ndarray]:
    """Denominator, keys and counts of (value, multiplicity) entries with
    |value| < span, in any order; a repeated value's multiplicities add."""
    entries = [(as_fraction(v), m) for v, m in entries]
    for v, m in entries:
        if m < 1:
            raise ValueError(f"multiplicity at {v} must be positive")
    denom = lcm(*(v.denominator for v, _ in entries))
    keys = [v.numerator * (denom // v.denominator) for v, _ in entries]
    mults = [m for _, m in entries]
    _admit_int64(max(span * denom, sum(mults)), what)
    return denom, *_merge(np.array(keys, dtype=np.int64), np.array(mults, dtype=np.int64))


class _Multiset(_Table):
    """A _Table whose value keys[i] / denom has the positive multiplicity counts[i]."""

    __slots__ = ("counts",)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def entries(self) -> tuple[tuple[Rat, int], ...]:
        return tuple(zip(self._fractions(), self.counts.tolist()))

    def as_dict(self) -> dict[Rat, int]:
        return dict(self.entries)

    def to_json(self) -> dict:
        return {"entries": [{self._name: v, "mult": m}
                            for v, m in zip(self.value_strings(), self.counts.tolist())]}


class EigenTable(_Multiset):
    """Finite multiplicity table with keys in (-1, 0]."""

    __slots__ = ()
    _name = "alpha"

    def __init__(self, entries: Iterable[tuple[Rat, int]] = (), *,
                 _table: tuple[int, np.ndarray, np.ndarray] | None = None):
        denom, keys, counts = _table or _parse(entries, "eigentable", 1)
        self._set(denom, keys, -denom, 1, "eigentable key {} outside (-1, 0]", counts=counts)


class Spectrum(_Multiset):
    """Multiset of rational exponents in the open interval (0, dim)."""

    __slots__ = ("dim",)
    _name = "value"

    def __init__(self, dim: int, entries: Iterable[tuple[Rat, int]] = (), *,
                 _table: tuple[int, np.ndarray, np.ndarray] | None = None):
        denom, keys, counts = _table or _parse(entries, "spectrum", dim)
        self._set(denom, keys, 0, dim * denom, f"spectrum entry {{}} outside (0, {dim})",
                  counts=counts, dim=dim)

    def to_json(self) -> dict:
        return {"dim": self.dim, **super().to_json()}


def one_var_eigentable(m: int) -> EigenTable:
    """Nontrivial m-th roots of unity, one dimension each."""
    if m < 2:
        raise ValueError("need an exponent >= 2")
    _admit(16 * (m - 1), "eigentable of z^{}: {} terms", m, m - 1)
    return EigenTable(_table=(m, np.arange(1 - m, 0, dtype=np.int64),
                              np.ones(m - 1, dtype=np.int64)))


def phi_convolve(t1: EigenTable, t2: EigenTable) -> EigenTable:
    """Convolve eigenvalue tables, folding key sums back into (-1, 0].

    A key sum lies in (-2, 0]; sums at or below -1 are shifted up by one,
    which is the second branch of the convolution identity.  Over one
    common denominator L a key a is the integer -a·L in [0, L), and the
    fold is the sum of those integers mod L.
    """
    denom = lcm(t1.denom, t2.denom)
    what = "eigentable convolution over denominator {}"
    _admit_int64(max(2 * denom, t1.total * t2.total), what, denom)
    keys, counts = _pair_sum(t1.keys * -(denom // t1.denom), t1.counts,
                             t2.keys * -(denom // t2.denom), t2.counts, what, denom,
                             modulus=denom)
    # ascending keys -k/denom are the integers k in descending order
    return EigenTable(_table=(denom, -keys[::-1], counts[::-1]))


def _eigentable_of(ms: Sequence[int]) -> EigenTable:
    """Eigenvalue table of z1^m1 + ... + zd^md: its one-variable tables' phi product."""
    return functools.reduce(phi_convolve, [one_var_eigentable(m) for m in ms])


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
    what = "spectrum of {}"
    _admit_int64(max(germ.dim * denom, milnor_number(germ)), what, ms)
    keys = counts = None
    for m in ms:
        _admit(16 * (m - 1), what + ": one-variable table of {} terms", ms, m - 1)
        k = np.arange(1, m, dtype=np.int64) * (denom // m)
        c = np.ones(m - 1, dtype=np.int64)
        keys, counts = (k, c) if keys is None else _pair_sum(keys, counts, k, c, what, ms)
    return Spectrum(germ.dim, _table=(denom, keys, counts))


def spectrum_convolve(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Additive convolution without folding; dimensions add."""
    denom = lcm(s1.denom, s2.denom)
    dim = s1.dim + s2.dim
    what = "spectrum convolution over denominator {}"
    _admit_int64(max(dim * denom, s1.total * s2.total), what, denom)
    keys, counts = _pair_sum(s1.keys * (denom // s1.denom), s1.counts,
                             s2.keys * (denom // s2.denom), s2.counts, what, denom)
    return Spectrum(dim, _table=(denom, keys, counts))


def fold_spectrum(spectrum: Spectrum) -> EigenTable:
    """Fold exponents mod 1 into (-1, 0]: s maps to -(s mod 1), integers to 0.

    Over the spectrum's denominator D the key k folds to -(k mod D).
    """
    keys, counts = _merge(-(spectrum.keys % spectrum.denom), spectrum.counts)
    return EigenTable(_table=(spectrum.denom, keys, counts))


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
    minimum against the minimal level.  All of it compares int64 numerators;
    the minimum is the one Fraction made.
    """
    from .oracles import enumerated_spectrum  # the oracles stay off the spectral path
    ms = germ.exponents
    spectrum = spectrum_of(germ)
    folded = fold_spectrum(spectrum)
    conv = _eigentable_of(ms)
    keys, counts, denom = spectrum.keys, spectrum.counts, spectrum.denom
    scale, rest = divmod(lcm(*ms), denom)
    enumeration_match = not rest and (
        dict(zip((keys * scale).tolist(), counts.tolist())) == enumerated_spectrum(ms))
    symmetric = (np.array_equal(spectrum.dim * denom - keys[::-1], keys)
                 and np.array_equal(counts[::-1], counts))
    min_value = Fraction(int(keys[0]), denom)
    a_tilde = alpha_tilde(germ)
    mu = milnor_number(germ)
    return SpectralReport(
        exponents=ms,
        enumeration_match=enumeration_match,
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
