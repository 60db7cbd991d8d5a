"""Integer-scaled weight models for monomial filtrations.

A decreasing ideal-valued filtration V^a = span{z^g : w(g) >= a} with a
monotone weight w is described exactly, up to a completeness bound `cap`,
by its atoms: exponents g together with w(g) and the largest weight of a
single-step decrement of g.  Minimal generators of V^a are then the atoms
with drop < a <= weight, every achieved level is an atom weight, and the
filtration of a sum of germs in disjoint variables is computed by pairing
atoms and adding weights.  A diagonal germ is such a sum of one-variable
germs, so its model is the iterated pairing of one-variable models, and
_pair is the one routine that pairs.

Weights are stored as int64 numerators over a common denominator so that
numpy does all comparisons exactly; models compare with ==.  _Table, a
monomial._Frozen value as monomial sets are, is the read-only form of a
set of such values, shared by jump sets, spectra and eigentables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import factorial, gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimit, WindowExceeded
from .monomial import MonomialIdeal, _Frozen

# drop value of the zero exponent, which has no decrements; below every
# finite drop, and never shifted by a weight (see _pair)
NO_DROP = -(1 << 60)

# largest table, in bytes, a model build may allocate; larger inputs are
# refused with ResourceLimit before anything is allocated
MAX_TABLE_BYTES = 1 << 30


@dataclass
class WeightModel:
    """Atom table of a monomial filtration, complete below `cap`.

    exps rows are lex-sorted; weight and drop are numerators over denom.
    The atom set contains every exponent of weight < cap plus the zero
    exponent, which is enough to answer generator, graded and level
    queries for thresholds up to cap - 1.
    """

    dim: int
    denom: int
    cap: Fraction
    exps: np.ndarray
    weight: np.ndarray
    drop: np.ndarray

    def __eq__(self, other: object) -> bool:
        """Equal atom tables over one denominator, so equal derived queries."""
        if not isinstance(other, WeightModel):
            return NotImplemented
        if (self.dim, self.cap) != (other.dim, other.cap):
            return False
        denom = lcm(self.denom, other.denom)
        a, b = rescaled(self, denom), rescaled(other, denom)
        return all(map(np.array_equal, (a.exps, a.weight, a.drop), (b.exps, b.weight, b.drop)))


def _admit(nbytes: int, what: str, *args) -> None:
    """Refuse a table of nbytes before it is allocated, named by what.format(*args)."""
    if nbytes > MAX_TABLE_BYTES:
        raise ResourceLimit(f"{what.format(*args)}: {nbytes} bytes (~{nbytes / (1 << 30):.1f} "
                            f"GiB) is above the {MAX_TABLE_BYTES}-byte table limit")


def _admit_int64(top: int, what: str, *args) -> None:
    """Refuse a table whose int64 values would reach top, named as by _admit."""
    if top >= 1 << 63:
        raise ResourceLimit(f"{what.format(*args)}: values up to {top} "
                            "overflow 64-bit integers")


def _cut(cap: Fraction, denom: int, strict: bool = False) -> int:
    """Integer c with w < c exactly when w / denom < cap (<= cap when
    strict), for integers w."""
    if strict:
        return cap.numerator * denom // cap.denominator + 1
    return -((-cap.numerator * denom) // cap.denominator)


def _least_cap(alpha: Fraction, denom: int, strict: bool) -> Fraction:
    """Least model cap at which generators_at answers alpha over denom:
    v + 1, v the least level over denom that {w >= alpha} (or {w > alpha})
    keeps.  A minimal generator but 1 has a decrement lighter than v, and
    a step adds at most 1 (1/m or 2/m, m >= 2), so it is an atom there."""
    return Fraction(_cut(alpha, denom, strict) + denom, denom)


def _top(model: WeightModel) -> int:
    """Bound on the model's weight numerators, read without a pass over them:
    every atom but the zero exponent, row 0, weighs less than the cap."""
    return max(int(model.weight[0]), _cut(model.cap, model.denom) - 1)


def _one_var_scaled(m: int, cap: Fraction, denom: int, usual: bool, held: int = 0,
                    others: int = 0) -> np.ndarray:
    """Weight numerators over denom for z^k, k = 0.. while weight plus
    others / denom, the other variables' z^0 weight, is < cap.

    The numerators over m, k + 1 (usual) or k + 1 + k // (m - 1)
    (microlocal), increase strictly, so those below the cut B over m are
    a prefix: 1 .. B - 1 (usual), or the positive integers below B not
    divisible by m (microlocal).  Their count is known before the table
    is made, which is built in place: at most two int64 arrays of that
    length are alive, 16 bytes an entry, admitted plus held, the bytes the
    caller holds.  z^0 is kept even when its own weight reaches the cut.
    """
    bound = -((others - _cut(cap, denom)) // (denom // m)) - 1
    n = max(bound if usual else bound - bound // m, 1)
    _admit(16 * n + held, "weight table of z^{} below {} has {} entries", m, cap, n)
    nums = np.arange(n, dtype=np.int64)
    if not usual:
        nums += nums // (m - 1)
    nums += 1
    nums *= denom // m
    return nums


def _atoms_at_least(ms: tuple[int, ...], cap: Fraction) -> int:
    """L = ⌊(cap − α̃)^d · μ / d!⌋, a lower bound on the atom count of
    diagonal_model(ms, cap) for either weight, where α̃ = Σ 1/m_j and
    μ = ∏ (m_j − 1); 0 when cap <= α̃.

    Proof: both one-variable weights satisfy w(m, k) <= (k + 1 − 1/m) /
    (m − 1): (k + 1) / m is at most that for k >= 0, and the microlocal
    (k + 1 + ⌊k / (m − 1)⌋) / m is at most (k + 1 + k / (m − 1)) / m,
    which equals it.  That bound increases with k, so the integer part ⌊x⌋
    of every point x >= 0 of the open region R = {Σ_j (x_j + 1 − 1/m_j) /
    (m_j − 1) < cap} has weight below cap and is an atom.  The unit cubes
    g + [0, 1)^d of the atoms g therefore cover R, so the atom count is at
    least vol(R); with y_j = x_j / (m_j − 1), R is the simplex {y >= 0 :
    Σ y_j < cap − α̃} stretched by μ, of volume (cap − α̃)^d · μ / d!.
    In integers over D = lcm(ms), with cap = p / q, cap − α̃ = room / (q·D).
    """
    denom, d = lcm(*ms), len(ms)
    room = max(cap.numerator * denom - cap.denominator * sum(denom // m for m in ms), 0)
    return room ** d * prod(m - 1 for m in ms) // ((cap.denominator * denom) ** d * factorial(d))


def _prefixes(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n pairs (i, k) with k < counts[i], in order of i and then k."""
    return (np.repeat(np.arange(len(counts)), counts),
            np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts))


def diagonal_model(ms: Sequence[int], cap: Fraction, usual: bool = False) -> WeightModel:
    """Model of the weight g ↦ Σ_j w(m_j, g_j) on the exponents where it is < cap.

    z1^m1 + ... + zd^md is an iterated Thom–Sebastiani sum, so its model
    is the convolution of the one-variable models, folded left, each
    table made as its variable is folded in.  Pairing with variable j
    keeps the prefixes whose weight plus rest, the z^0 weight of the later
    variables, is below the cap: each kept prefix extends by zeros to a
    distinct final atom, so no intermediate model is larger than the
    result.  A prefix weighs at least the earlier variables' z^0 weight,
    so variable j's table stops below the cap less the others' z^0
    weight.  A model whose cut, cap * lcm(m), or whose zero exponent's
    weight does not fit in int64 is refused with ResourceLimit: every
    other weight and drop is below the cut.  So, before any table is
    made, is a model of two or more variables whose atom lower bound
    (_atoms_at_least) its final pairing, which charges at least
    8 · (dim + 4) bytes an atom, would refuse; one variable is one table,
    charged per entry, with no pairing.
    """
    ms = tuple(int(m) for m in ms)
    if not ms or any(m < 2 for m in ms):
        raise ValueError("diagonal model needs one or more exponents, all >= 2")
    denom = lcm(*ms)
    zero = sum(denom // m for m in ms)  # the z^0 weight, over denom
    what = "weight model of {} below {}"
    _admit_int64(max(_cut(cap, denom), zero), what, ms, cap)
    if len(ms) > 1:
        least = _atoms_at_least(ms, cap)
        _admit(8 * (len(ms) + 4) * least, what + " has at least {} atoms", ms, cap, least)
    # bytes held beside a table: the model folded so far, 8 · (dim + 2) an atom
    model, rest, held = None, zero, 0
    for m in ms:
        rest -= denom // m
        table = _one_var_scaled(m, cap, denom, usual, held, zero - denom // m)
        n = len(table)
        _admit(24 * n + held, what + " has {} atoms", ms, cap, n)
        # weight and drop read one buffer at two offsets: z^k drops to the
        # weight of z^(k-1), z^0 to NO_DROP.  The table is freed once copied
        both = np.concatenate(([NO_DROP], table))
        del table
        f = WeightModel(1, denom, cap, np.arange(n, dtype=np.int64)[:, None], both[1:], both[:-1])
        if model is not None:
            f = _pair(model, f, cap - Fraction(rest, denom), what, ms, cap)
        model = f
        held = 8 * (model.dim + 2) * len(model.weight)
    return model


def rescaled(model: WeightModel, new_denom: int) -> WeightModel:
    if new_denom == model.denom:
        return model
    if new_denom % model.denom:
        raise ValueError("new denominator must be a multiple of the old one")
    r = new_denom // model.denom
    _admit_int64(_top(model) * r, "weight model rescaled to denominator {}", new_denom)
    drop = np.where(model.drop == NO_DROP, NO_DROP, model.drop * r)
    return WeightModel(model.dim, new_denom, model.cap, model.exps,
                       model.weight * r, drop)


def convolve(a: WeightModel, b: WeightModel, cap: Fraction | None = None) -> WeightModel:
    """Model of the sum filtration on disjoint variables, complete below
    min(cap, a.cap, b.cap): the factors over one denominator, paired."""
    cap_out = min(a.cap, b.cap) if cap is None else min(cap, a.cap, b.cap)
    denom = lcm(a.denom, b.denom)
    a = rescaled(a, denom)
    b = rescaled(b, denom)
    return _pair(a, b, cap_out, "convolution of {} x {} atoms below {}",
                 len(a.weight), len(b.weight), cap_out)


def _pair(a: WeightModel, b: WeightModel, cap: Fraction, what: str, *args) -> WeightModel:
    """The pairs of atoms of a and b, two models over one denominator, that
    are lighter than cap, as a lex-sorted model; what.format(*args) names
    it on refusal.

    Pair weights add; a pair's drop is the best single decrement taken in
    either factor.  Row i of a pairs with the atoms of b lighter than
    cut - w_a(i): a prefix of b in weight order, whose length is one
    searchsorted, so the work is O(|a| log |b| + output) and the output
    is known, and admitted, before it is allocated.  The pairs come out
    grouped by row of a.  A one-variable b is in weight order already, so
    they are lex order too; otherwise one sort of the integer key
    i·|b| + j restores it.  The zero pair (0, 0) is always kept: row 0 of
    b is the lightest.  Each array is released once the next is made from
    it, so beside the exponents at most three pair-sized int64 arrays and
    a mask are alive: 8 · (dim + 3) + 1 bytes a pair, admitted at
    8 · (dim + 4) for each pair and each row read, since a fold holds a.
    The rows' share is admitted first: it covers the counts, made before
    the pairs are.
    """
    denom = a.denom
    na, nb = len(a.weight), len(b.weight)
    _admit_int64(_top(a) + _top(b), "pair weights of {} x {} atoms", na, nb)
    dim = a.dim + b.dim
    reads = 8 * (dim + 4) * (na + nb)
    _admit(reads, what + " pairs {} x {} atoms", *args, na, nb)
    by_weight = None if b.dim == 1 else np.argsort(b.weight)
    sorted_b = b.weight if by_weight is None else b.weight[by_weight]
    counts = np.searchsorted(sorted_b, _cut(cap, denom) - a.weight)
    counts[0] = max(counts[0], 1)  # the zero exponent, first in lex order
    n = int(counts.sum())
    _admit(8 * (dim + 4) * n + reads, what + " has {} atoms", *args, n)
    ia, ib = _prefixes(counts, n)
    if by_weight is not None:
        ib = ia * nb + by_weight[ib]
        ib.sort()  # within each row of a only: ia is nondecreasing
        ib -= ia * nb
    del ia
    # a column at a time: numpy copies a narrow 2-D block row by row, ~5x slower
    exps = np.empty((n, dim), dtype=np.int64)
    for j in range(a.dim):
        exps[:, j] = a.exps[:, j].repeat(counts)
    for j in range(b.dim):
        exps[:, a.dim + j] = b.exps[:, j].take(ib)
    weight, drop = b.weight.take(ib), b.drop.take(ib)
    del ib
    wa, none = a.weight.repeat(counts), drop == NO_DROP
    drop += wa
    drop[none] = NO_DROP
    weight += wa
    del wa, none
    # a's drop shifted by w_b is (drop_a - w_a) + weight, except on row 0,
    # the zero exponent and a's only NO_DROP: its pairs come first and are
    # overwritten, so its difference may wrap
    other = (a.drop - a.weight).repeat(counts)
    other += weight
    other[:counts[0]] = NO_DROP
    np.maximum(drop, other, out=drop)
    return WeightModel(dim, denom, cap, exps, weight, drop)


def generators_at(model: WeightModel, alpha: Fraction, strict: bool) -> MonomialIdeal:
    """Minimal generators of {w >= alpha} (or {w > alpha} when strict)."""
    t = _cut(alpha, model.denom, strict)
    # cap < _least_cap(alpha, denom, strict), compared in integers
    if t + model.denom >= _cut(model.cap, model.denom, strict=True):
        raise WindowExceeded(f"threshold {alpha} is too close to the model cap {model.cap}")
    rows = model.exps[(model.weight >= t) & (model.drop < t)]
    rows.flags.writeable = False
    return MonomialIdeal._of(rows)


def _strict_steps(model: WeightModel, hi: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step table of the chain of {w > v} for the achieved levels v in (0, hi).

    Three integer arrays: keys, the levels' numerators over model.denom,
    ascending; offsets, one per level plus one; and gens, one per (level,
    generator) pair, grouped by level, the generator's row of model.exps.
    The minimal generators of {w > keys[i] / denom} are the rows
    model.exps[gens[offsets[i]:offsets[i + 1]]], in lex order.

    Invariant: an atom g is a minimal generator of {w > v} exactly when
    drop(g) <= v < w(g).  Proof: w is monotone, so {w > v} is an upward
    closed set of exponents and g is one of its minimal elements iff
    w(g) > v and no g' < g has w(g') > v.  Any g' < g lies below some
    single-step decrement g - e_j, and w(g - e_j) >= w(g'), so it is
    enough to ask that every decrement has weight <= v, i.e. that their
    largest weight drop(g) is <= v (NO_DROP for g = 0, which has none).
    The table holds every generator needed: w(g) is drop(g) plus one
    increment of at most 1, so w(g) <= v + 1 < cap for every level v
    below a window that filtration.JumpChain admits for the model.

    Each atom is therefore a generator on a contiguous run of level
    indices, [searchsorted(drop), searchsorted(weight)), and the pairs
    are those runs regrouped by level.  The work is O(atoms log levels +
    total generators), and no Python object is made per level.

    The pair count is the sum of the runs, known before any pair array is
    made, and admitted with what the steps will hold (tracemalloc): at
    most 8 (dim + 2) bytes a pair, the pair keys here and the generator
    rows filtration makes from them, ~500 bytes a level for its step
    objects, and the model, which stays held.
    """
    keys = _levels_below(model, hi)
    first = np.searchsorted(keys, model.drop, side="left")
    runs = np.maximum(np.searchsorted(keys, model.weight, side="left") - first, 0)
    pairs, held = int(runs.sum()), model.exps.nbytes + model.weight.nbytes + model.drop.nbytes
    _admit(8 * (model.dim + 2) * pairs + 500 * len(keys) + held,
           "steps of {} atoms below {}: {} levels, {} (level, generator) pairs",
           len(model.weight), hi, len(keys), pairs)
    used = np.flatnonzero(runs)
    runs = runs[used]
    # one int64 key per (level, atom) pair, level * n + the atom's index into
    # used, below levels * atoms < 2^63; an atom's level is its first level
    # plus its offset within its run.  Sorting the keys groups the pairs by
    # level, with the atoms in lex order inside each
    n = len(used)
    starts = np.cumsum(runs) - runs
    pair = np.repeat((first[used] - starts) * n + np.arange(n), runs)
    pair += n * np.arange(pairs, dtype=np.int64)
    pair.sort()
    offsets = np.searchsorted(pair, np.arange(len(keys) + 1) * n)
    return keys, offsets, used[pair % n]


def graded_exponents(model: WeightModel, alpha: Fraction) -> np.ndarray:
    """Lex-sorted rows of weight exactly alpha: a basis of the graded piece."""
    if alpha >= model.cap:
        raise WindowExceeded(f"level {alpha} is not below the model cap {model.cap}")
    num = alpha.numerator * model.denom
    if num % alpha.denominator:
        return model.exps[:0]
    t = num // alpha.denominator
    return model.exps[model.weight == t]


def _light_rows(model: WeightModel, alpha: Fraction,
                denom: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of weight below alpha, in weight order and lex order within a
    weight: their weights as numerators over denom, a multiple of
    model.denom, and their row indices."""
    rows = np.flatnonzero(model.weight < _cut(alpha, model.denom))
    rows = rows[np.argsort(model.weight[rows], kind="stable")]
    return model.weight[rows] * (denom // model.denom), rows


def quotient_exponents(model: WeightModel, alpha: Fraction, strict: bool) -> np.ndarray:
    """Lex-sorted rows outside {w >= alpha} (or {w > alpha} when strict).

    They are a basis of O / V^alpha (or O / V^{>alpha}); the model holds
    every exponent of weight below the cap, so all of them are atoms.
    """
    if alpha >= model.cap:
        raise WindowExceeded(f"level {alpha} is not below the model cap {model.cap}")
    t = _cut(alpha, model.denom, strict)
    return model.exps[model.weight < t]


def _levels_below(model: WeightModel, hi: Fraction) -> np.ndarray:
    """Sorted distinct scaled weights in (0, hi)."""
    weight = model.weight
    vals = np.sort(weight[(weight > 0) & (weight < _cut(hi, model.denom))])
    return vals[_runs(vals)]


def _runs(keys: np.ndarray) -> np.ndarray:
    """Index of the first of each run of equal sorted keys, from one comparison
    of each key with the one before it: with the sort, far faster than
    numpy 2.4's hashing np.unique."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.flatnonzero(starts)


class _Table(_Frozen):
    """Exact rationals keys[i] / denom, made Fractions only when read.

    keys are distinct int64 numerators in ascending order and denom is the
    values' least common denominator, so equal tables hold equal arrays.
    Subclasses store the fields they add to __slots__ with _set.
    """

    __slots__ = ("denom", "keys")

    def _set(self, denom: int, keys: np.ndarray, low: int, high: int, outside: str,
             **fields: object) -> None:
        """Store the table, and the fields a subclass adds, after checking
        low < key < high for every key."""
        if len(keys) and not (low < keys[0] and keys[-1] < high):
            bad = keys[0] if keys[0] <= low else keys[-1]
            raise ValueError(outside.format(Fraction(int(bad), denom)))
        g = gcd(denom, int(np.gcd.reduce(keys)))
        self.__setstate__((None, {"denom": denom // g, "keys": keys // g if g > 1 else keys,
                                  **fields}))

    def _admit_read(self) -> None:
        """Refuse to make the values Python objects, about 200 bytes each (a
        Fraction or string, its ints and a tuple), where the int64s take 16."""
        n = len(self.keys)
        _admit(200 * n, "{} of {} distinct values as Python objects",
               type(self).__name__.lower(), n)

    def _fractions(self) -> Iterator[Fraction]:
        self._admit_read()
        return map(Fraction, self.keys.tolist(), repeat(self.denom))

    def value_strings(self) -> list[str]:
        """Each value as str(Fraction) prints it, made from the keys reduced
        by their gcd with the denominator rather than from Fractions."""
        self._admit_read()
        g = np.gcd(self.keys, self.denom)
        return [f"{p}/{q}" if q != 1 else str(p)
                for p, q in zip((self.keys // g).tolist(), (self.denom // g).tolist())]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json()})"

