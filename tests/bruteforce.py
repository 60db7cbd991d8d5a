"""Independent slow-path helpers the tests compare the package against.

Everything here is written from first principles with plain Python data
structures: divisibility scans instead of antichain bookkeeping, weight
recursions instead of closed forms, and exhaustive box enumeration
instead of vectorized tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def bf_usual_weight(m: int, k: int) -> Fraction:
    return Fraction(k + 1, m)


def bf_micro_weight(m: int, k: int) -> Fraction:
    # below the first period the two weights agree; each further block of
    # m - 1 exponents adds exactly 1
    q, r = divmod(k, m - 1)
    return q + Fraction(r + 1, m)


def bf_minimal(points: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    pts = sorted({tuple(p) for p in points})
    out = []
    for p in pts:
        dominated = any(q != p and all(qi <= pi for qi, pi in zip(q, p))
                        for q in pts)
        if not dominated:
            out.append(p)
    return out


def bf_member(gens: Iterable[Sequence[int]], nu: Sequence[int]) -> bool:
    return any(all(gi <= ni for gi, ni in zip(g, nu)) for g in gens)


def bf_diagonal_gens(ms: Sequence[int], alpha: Fraction, *, strict: bool,
                     usual: bool = False) -> list[tuple[int, ...]]:
    """Minimal monomials of {weight-sum >= alpha} (or > alpha) by brute box scan."""
    weight = bf_usual_weight if usual else bf_micro_weight
    alpha = Fraction(alpha)
    # If nu is minimal and nu_j > 0, lowering nu_j by one leaves the set,
    # so weight(m_j, nu_j - 1) plus the least weights of the other
    # coordinates is at most alpha; the box is down-closed, so minimal
    # points of the box's members are minimal in the whole set.
    least = [weight(m, 0) for m in ms]
    bounds = []
    for j, m in enumerate(ms):
        room = alpha - (sum(least) - least[j])
        k = 0
        while weight(m, k) <= room:
            k += 1
        bounds.append(k)
    # weights scaled by lcm(ms) are integers, so the scan adds ints
    scale = lcm(*ms)
    tables = [[int(weight(m, k) * scale) for k in range(b + 1)]
              for m, b in zip(ms, bounds)]
    cut = alpha * scale
    members = []
    for nu in itertools.product(*(range(b + 1) for b in bounds)):
        w = sum(t[k] for t, k in zip(tables, nu))
        if (w > cut) if strict else (w >= cut):
            members.append(nu)
    return bf_minimal(members)


def bf_weight_levels(ms: Sequence[int], hi: Fraction,
                     usual: bool = False) -> list[Fraction]:
    """Distinct achieved weight sums in (0, hi), by brute box scan."""
    weight = bf_usual_weight if usual else bf_micro_weight
    hi = Fraction(hi)
    per_var = []
    for m in ms:
        vals, k = [], 0
        while True:
            w = weight(m, k)
            if w >= hi:
                break
            vals.append(w)
            k += 1
        per_var.append(vals)
    sums = {sum(combo) for combo in itertools.product(*per_var)}
    return sorted(s for s in sums if 0 < s < hi)


def bf_pair_sum_v(ms1: Sequence[int], ms2: Sequence[int],
                  alpha: Fraction) -> list[tuple[int, ...]]:
    """{weight >= alpha} of the joined germ via the split-level formula.

    V-side values are constant on left-closed level intervals, so the
    continuum of splits alpha = a1 + a2 is covered by evaluating at the
    finitely many levels either factor achieves (plus both endpoints).
    """
    alpha = Fraction(alpha)
    cands = {Fraction(0), alpha}
    cands.update(v for v in bf_weight_levels(ms1, alpha + 1) if v <= alpha)
    cands.update(alpha - v for v in bf_weight_levels(ms2, alpha + 1)
                 if alpha - v >= 0)
    members = set()
    for a1 in cands:
        g1 = bf_diagonal_gens(ms1, a1, strict=False)
        g2 = bf_diagonal_gens(ms2, alpha - a1, strict=False)
        for p in g1:
            for q in g2:
                members.add(p + q)
    return bf_minimal(members)


def bf_spectrum(ms: Sequence[int]) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    for combo in itertools.product(*(range(1, m) for m in ms)):
        s = sum(Fraction(i, m) for i, m in zip(combo, ms))
        out[s] = out.get(s, 0) + 1
    return out
