"""Integer-scaled weight models for monomial filtrations.

A decreasing ideal-valued filtration V^a = span{z^g : w(g) >= a} with a
monotone weight w is described exactly, up to a completeness bound `cap`,
by its atoms: exponents g together with w(g) and the largest weight of a
single-step decrement of g.  Minimal generators of V^a are then the atoms
with drop < a <= weight, every achieved level is an atom weight, and the
filtration of a sum of germs in disjoint variables is computed by pairing
atoms and adding weights.

Weights are stored as int64 numerators over a common denominator so that
numpy does all comparisons exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, WindowExceeded
from .monomial import MonomialIdeal

# drop value of the zero exponent, which has no decrements; kept far below
# any rescaled finite value but safely away from int64 overflow
NO_DROP = -(1 << 60)
_SENTINEL_CUT = -(1 << 59)


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

    def level_of(self, row: int) -> Fraction:
        return Fraction(int(self.weight[row]), self.denom)


def _canonical(dim: int, denom: int, cap: Fraction, exps: np.ndarray,
               weight: np.ndarray, drop: np.ndarray) -> WeightModel:
    order = np.lexsort(np.flipud(exps.T))
    return WeightModel(dim, denom, cap, np.ascontiguousarray(exps[order]),
                       weight[order], drop[order])


def _one_var_scaled(m: int, cap: Fraction, denom: int, usual: bool) -> np.ndarray:
    """Weight numerators over denom for z^k, k = 0.. while weight < cap."""
    scale = denom // m
    out = []
    k = 0
    while True:
        i = k + 1 if usual else k + 1 + k // (m - 1)
        if Fraction(i, m) >= cap and k > 0:
            break
        out.append(i * scale)
        if Fraction(i, m) >= cap:
            break
        k += 1
    return np.array(out, dtype=np.int64)


def diagonal_model(ms: Sequence[int], cap: Fraction, usual: bool = False) -> WeightModel:
    """Model of the weight g ↦ Σ_j w(m_j, g_j) on the box where it is < cap."""
    ms = tuple(int(m) for m in ms)
    if any(m < 2 for m in ms):
        raise ValueError("diagonal model needs all exponents >= 2")
    dim = len(ms)
    denom = lcm(*ms)
    tables = [_one_var_scaled(m, cap, denom, usual) for m in ms]
    shape = tuple(len(t) for t in tables)
    grid = np.indices(shape, dtype=np.int64).reshape(dim, -1).T
    weight = np.zeros(grid.shape[0], dtype=np.int64)
    min_inc = np.full(grid.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    for j, table in enumerate(tables):
        col = grid[:, j]
        weight += table[col]
        if len(table) > 1:
            incs = np.diff(table)
            has = col > 0
            inc_here = np.where(has, incs[np.maximum(col, 1) - 1], np.iinfo(np.int64).max)
            min_inc = np.minimum(min_inc, inc_here)
    at_zero = (grid == 0).all(axis=1)
    drop = np.where(at_zero, NO_DROP, weight - min_inc)
    keep = weight * cap.denominator < cap.numerator * denom
    keep |= at_zero
    return _canonical(dim, denom, cap, grid[keep], weight[keep], drop[keep])


def rescaled(model: WeightModel, new_denom: int) -> WeightModel:
    if new_denom == model.denom:
        return model
    if new_denom % model.denom:
        raise ValueError("new denominator must be a multiple of the old one")
    r = new_denom // model.denom
    drop = np.where(model.drop == NO_DROP, NO_DROP, model.drop * r)
    return WeightModel(model.dim, new_denom, model.cap, model.exps,
                       model.weight * r, drop)


def convolve(a: WeightModel, b: WeightModel, cap: Fraction | None = None) -> WeightModel:
    """Model of the sum filtration on disjoint variables.

    Pair weights add; a pair's drop is the best single decrement taken in
    either factor.  The result is complete below min(cap, a.cap, b.cap).
    """
    cap_out = min(a.cap, b.cap) if cap is None else min(cap, a.cap, b.cap)
    denom = lcm(a.denom, b.denom)
    a = rescaled(a, denom)
    b = rescaled(b, denom)
    total = a.weight[:, None] + b.weight[None, :]
    mask = total * cap_out.denominator < cap_out.numerator * denom
    ia0 = int(np.nonzero((a.exps == 0).all(axis=1))[0][0])
    ib0 = int(np.nonzero((b.exps == 0).all(axis=1))[0][0])
    mask[ia0, ib0] = True
    ia, ib = np.nonzero(mask)
    exps = np.hstack([a.exps[ia], b.exps[ib]])
    weight = a.weight[ia] + b.weight[ib]
    drop = np.maximum(a.drop[ia] + b.weight[ib], a.weight[ia] + b.drop[ib])
    drop = np.where(drop < _SENTINEL_CUT, NO_DROP, drop)
    return _canonical(a.dim + b.dim, denom, cap_out, exps, weight, drop)


def _scaled_threshold(model: WeightModel, alpha: Fraction, strict: bool) -> int:
    """Smallest integer t with s >= t ⟺ s/denom >= alpha (or > alpha)."""
    num = alpha.numerator * model.denom
    den = alpha.denominator
    if strict:
        return num // den + 1
    return -((-num) // den)


def _near_cap(model: WeightModel, t: int | np.ndarray) -> bool | np.ndarray:
    """Scaled thresholds t within 1 of the cap, where generators may be missing."""
    return (t + model.denom) * model.cap.denominator > model.cap.numerator * model.denom


def generators_at(model: WeightModel, alpha: Fraction, strict: bool) -> MonomialIdeal:
    """Minimal generators of {w >= alpha} (or {w > alpha} when strict)."""
    t = _scaled_threshold(model, alpha, strict)
    if _near_cap(model, t):
        raise WindowExceeded(f"threshold {alpha} is too close to the model cap {model.cap}")
    rows = model.exps[(model.weight >= t) & (model.drop < t)]
    return MonomialIdeal(model.dim, list(map(tuple, rows.tolist())), _trusted=True)


def _strict_steps(model: WeightModel, hi: Fraction
                 ) -> tuple[tuple[Fraction, MonomialIdeal], ...]:
    """Every achieved level v in (0, hi) with the minimal generators of {w > v}.

    Equal, level by level, to pairing achieved_levels(model, hi) with
    generators_at(model, v, strict=True), but computed in one pass.

    Invariant: an atom g is a minimal generator of {w > v} exactly when
    drop(g) <= v < w(g).  Proof: w is monotone, so {w > v} is an upward
    closed set of exponents and g is one of its minimal elements iff
    w(g) > v and no g' < g has w(g') > v.  Any g' < g lies below some
    single-step decrement g - e_j, and w(g - e_j) >= w(g'), so it is
    enough to ask that every decrement has weight <= v, i.e. that their
    largest weight drop(g) is <= v (NO_DROP for g = 0, which has none).
    The table holds every generator needed: w(g) is drop(g) plus one
    increment of at most 1, so w(g) <= v + 1 < cap by the guard below.

    Each atom is therefore a generator on a contiguous run of level
    indices, [searchsorted(drop), searchsorted(weight)), and the steps
    are the (level, atom) pairs of those runs, grouped by level.  The
    work is O(atoms log levels + total generators); only atoms that are
    ever a generator become tuples, each once, shared across steps.
    """
    levels = _levels_below(model, hi)
    if not len(levels):
        return ()
    near = levels[_near_cap(model, levels + 1)]
    if len(near):
        raise WindowExceeded(f"threshold {Fraction(int(near[0]), model.denom)} "
                             f"is too close to the model cap {model.cap}")
    first = np.searchsorted(levels, model.drop, side="left")
    runs = np.maximum(np.searchsorted(levels, model.weight, side="left") - first, 0)
    used = np.flatnonzero(runs)
    runs = runs[used]
    # level index of each (level, atom) pair: the atom's first level plus
    # its offset within the run; atoms are in lex order, and the stable
    # sort keeps that order inside each level, as MonomialIdeal needs
    starts = np.cumsum(runs) - runs
    pair_level = (np.repeat(first[used] - starts, runs)
                  + np.arange(int(runs.sum()), dtype=np.int64))
    order = np.argsort(pair_level, kind="stable")
    pair_atom = np.repeat(np.arange(len(used)), runs)[order]
    bounds = np.searchsorted(pair_level[order], np.arange(len(levels) + 1)).tolist()
    gens = np.fromiter(map(tuple, model.exps[used].tolist()), dtype=object, count=len(used))
    pair_gens = gens[pair_atom].tolist()
    return tuple(
        (Fraction(v, model.denom),
         MonomialIdeal(model.dim, tuple(pair_gens[bounds[i]:bounds[i + 1]]), _trusted=True))
        for i, v in enumerate(levels.tolist()))


def graded_exponents(model: WeightModel, alpha: Fraction) -> tuple[tuple[int, ...], ...]:
    """Exponents of weight exactly alpha: a basis of the graded piece."""
    if alpha >= model.cap:
        raise WindowExceeded(f"level {alpha} is not below the model cap {model.cap}")
    num = alpha.numerator * model.denom
    if num % alpha.denominator:
        return ()
    t = num // alpha.denominator
    return tuple(map(tuple, model.exps[model.weight == t].tolist()))


def achieved_levels(model: WeightModel, hi: Fraction) -> tuple[Fraction, ...]:
    """Distinct weight values in (0, hi), sorted increasingly."""
    return tuple(Fraction(v, model.denom) for v in _levels_below(model, hi).tolist())


def _levels_below(model: WeightModel, hi: Fraction) -> np.ndarray:
    """Sorted distinct scaled weights in (0, hi)."""
    if hi > model.cap:
        raise WindowExceeded(f"window {hi} exceeds the model cap {model.cap}")
    vals = np.unique(model.weight)
    return vals[(vals > 0) & (vals * hi.denominator < hi.numerator * model.denom)]


def models_equal(a: WeightModel, b: WeightModel) -> bool:
    """Equality of atom tables; implies equality of all derived queries."""
    if a.dim != b.dim or a.cap != b.cap:
        return False
    denom = lcm(a.denom, b.denom)
    a = rescaled(a, denom)
    b = rescaled(b, denom)
    return (a.exps.shape == b.exps.shape
            and np.array_equal(a.exps, b.exps)
            and np.array_equal(a.weight, b.weight)
            and np.array_equal(a.drop, b.drop))


def permuted_model(model: WeightModel, perm: Sequence[int]) -> WeightModel:
    """Relabel variables: new coordinate i is old coordinate perm[i]."""
    if sorted(perm) != list(range(model.dim)):
        raise DimensionMismatch(f"{perm} is not a permutation of 0..{model.dim - 1}")
    exps = model.exps[:, list(perm)]
    return _canonical(model.dim, model.denom, model.cap, exps,
                      model.weight.copy(), model.drop.copy())
