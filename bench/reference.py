"""Brute-force references the benchmark computes itself.

Every function here works from the closed-form one-variable weights of a
diagonal germ z_1^m_1 + ... + z_d^m_d and enumerates lattice points with
numpy.  None of it calls tsmult, so a check against these values does not
share a code path with the computation it checks.

  usual weight of z^k:       (k + 1) / m
  microlocal weight of z^k:  (k + 1 + floor(k / (m - 1))) / m
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def weight(m: int, k: int, usual: bool) -> Fraction:
    if usual:
        return Fraction(k + 1, m)
    return Fraction(k + 1 + k // (m - 1), m)


def table_length(m: int, cap: Fraction, usual: bool) -> int:
    """Number of k with weight(m, k) < cap, at least 1 (the engine keeps z^0)."""
    k = 0
    while weight(m, k, usual) < cap:
        k += 1
    return max(k, 1)


def box_rows(ms: Sequence[int], cap: Fraction, usual: bool) -> int:
    """Rows of the exponent box a full enumeration below cap has to scan."""
    return math.prod(table_length(m, Fraction(cap), usual) for m in ms)


def _scaled(ms: Sequence[int], length: Sequence[int], usual: bool):
    denom = math.lcm(*ms)
    return denom, [np.array([weight(m, k, usual) * denom for k in range(n)], dtype=np.int64)
                   for m, n in zip(ms, length)]


def _grid(shape: Sequence[int]) -> np.ndarray:
    return np.indices(tuple(shape), dtype=np.int64).reshape(len(shape), -1).T


def generators(ms: Sequence[int], alpha: Fraction, strict: bool,
               usual: bool) -> tuple[tuple[int, ...], ...]:
    """Minimal exponents nu with weight(nu) > alpha (strict) or >= alpha."""
    alpha = Fraction(alpha)

    def inside(total_scaled, denom):
        lhs = total_scaled * alpha.denominator
        rhs = alpha.numerator * denom
        return lhs > rhs if strict else lhs >= rhs

    # a minimal generator has nu_j <= the first k whose own weight already
    # qualifies, because every other coordinate adds a positive weight
    length = []
    for m in ms:
        k = 0
        while not (weight(m, k, usual) > alpha if strict else weight(m, k, usual) >= alpha):
            k += 1
        length.append(k + 1)
    denom, tables = _scaled(ms, length, usual)
    grid = _grid(length)
    parts = [t[grid[:, j]] for j, t in enumerate(tables)]
    total = sum(parts)
    minimal = inside(total, denom)
    for j, t in enumerate(tables):
        col = grid[:, j]
        lowered = total - parts[j] + t[np.maximum(col - 1, 0)]
        minimal &= (col == 0) | ~inside(lowered, denom)
    return tuple(sorted(tuple(int(v) for v in row) for row in grid[minimal]))


def level_set(ms: Sequence[int], alpha: Fraction) -> tuple[tuple[int, ...], ...]:
    """Exponents of microlocal weight exactly alpha, sorted."""
    alpha = Fraction(alpha)
    floor = sum(weight(m, 0, False) for m in ms)
    length = []
    for m in ms:
        k = 0
        while weight(m, k + 1, False) - weight(m, 0, False) + floor <= alpha:
            k += 1
        length.append(k + 1)
    denom, tables = _scaled(ms, length, False)
    grid = _grid(length)
    total = sum(t[grid[:, j]] for j, t in enumerate(tables))
    hit = total * alpha.denominator == alpha.numerator * denom
    return tuple(sorted(tuple(int(v) for v in row) for row in grid[hit]))


def irrationality_count(ms: Sequence[int]) -> int:
    """#{nu : sum (nu_j + 1) / m_j <= 1}, the dimension of the irrationality module."""
    denom = math.lcm(*ms)
    steps = [denom // m for m in ms]

    def count(j: int, budget: int) -> int:
        # exponents u_i = nu_i + 1 >= 1 for i >= j with sum u_i * steps_i <= budget
        if j == len(ms) - 1:
            return budget // steps[j]
        return sum(count(j + 1, budget - u * steps[j])
                   for u in range(1, budget // steps[j] + 1))

    return count(0, denom)


def half_ideal_line(m: int) -> str:
    """CLI text line of the multiplier ideal of x^m + y^m at alpha = 1/2."""
    # (i + 1)/m + (j + 1)/m > 1/2  <=>  2(i + j) + 4 > m
    s = max(0, (m - 4) // 2 + 1)
    gens = [[s - j, j] for j in range(s + 1)]
    return "gens " + str(gens).replace(" ", "")
