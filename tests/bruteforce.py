"""Independent slow-path helpers the tests compare the package against.

Everything here is written from first principles with plain Python data
structures: divisibility scans instead of antichain bookkeeping, weight
recursions instead of closed forms, and exhaustive box enumeration
instead of vectorized tables.  The two oracle kernels at the end are the
earlier forms of the package's own: Fraction elimination for the LP, which
the faster form must match verdict for verdict, and the complex formula for
Monte Carlo, which the real-arithmetic form must match verdict for verdict
and, on the same draws, to rounding.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from tsmult import weights
from tsmult.convolution import GradedSummand
from tsmult.monomial import QuotientBasis
from tsmult.oracles import Constraint, _case_key


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


def bf_sumset(s1, s2, window: Fraction) -> tuple[Fraction, ...]:
    """Distinct sums below the window of the levels of two jump sets, as
    Fractions."""
    return tuple(sorted({a + b for a in s1.values for b in s2.values if a + b < window}))


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


def bf_ts_graded(c1, c2, alpha: Fraction) -> list[GradedSummand]:
    """Blocks of the graded piece of a sum at alpha, one level of c1 at a
    time: each level a Fraction, each graded piece a pass over its table."""
    alpha = Fraction(alpha)
    out = []
    for lv in c1.levels:
        if not 0 < alpha - lv:
            continue
        e1 = weights.graded_exponents(c1.model, lv)
        e2 = weights.graded_exponents(c2.model, alpha - lv)
        if len(e1) and len(e2):
            out.append(GradedSummand(lv, alpha - lv, QuotientBasis(e1), QuotientBasis(e2)))
    return out


def bf_irrationality_basis(ms: Sequence[int]) -> list[tuple[int, ...]]:
    """Exponents of microlocal weight sum <= 1, lex-sorted, by box scan.

    A coordinate nu_j >= m_j - 1 alone has weight above 1, so the box
    prod range(m_j) holds every such exponent.
    """
    return [nu for nu in itertools.product(*(range(m) for m in ms))
            if sum(bf_micro_weight(m, k) for m, k in zip(ms, nu)) <= 1]


def bf_graded_basis(ms: Sequence[int], alpha: Fraction) -> list[tuple[int, ...]]:
    """Exponents of microlocal weight sum exactly alpha, lex-sorted, by box scan.

    Every other coordinate weighs at least 1/m_i, so coordinate j of such
    an exponent has weight at most alpha minus their sum.
    """
    alpha = Fraction(alpha)
    bounds = []
    for j, m in enumerate(ms):
        room = alpha - sum(Fraction(1, mi) for i, mi in enumerate(ms) if i != j)
        k = 0
        while bf_micro_weight(m, k) <= room:
            k += 1
        bounds.append(k)
    return [nu for nu in itertools.product(*(range(b) for b in bounds))
            if sum(bf_micro_weight(m, k) for m, k in zip(ms, nu)) == alpha]


def bf_check_basis(basis: QuotientBasis, dim: int) -> None:
    """Assert the row invariant of a basis: read-only int64 rows of shape
    (n, dim), strictly increasing in lex order, read back as the same
    tuples, and equal bases hashing equal."""
    rows = basis.rows
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.ndim == 2 and rows.shape[1] == dim and basis.dim == len(rows)
    tuples = [tuple(r) for r in rows.tolist()]
    assert all(a < b for a, b in zip(tuples, tuples[1:]))
    assert basis.exponents == tuple(tuples)
    twin = QuotientBasis(rows.copy())
    assert twin == basis and hash(twin) == hash(basis)


def bf_spectral_poly(ms: Sequence[int]) -> tuple[int, dict[int, int]]:
    """Sp(t) = prod_j sum_{i=1}^{m_j - 1} t^(i D / m_j), D = lcm(ms), as
    (D, {exponent: multiplicity}): the spectral numbers e / D, multiplied
    out one variable at a time in plain dicts, with no enumeration of the
    Milnor box."""
    denom = lcm(*ms)
    poly = {0: 1}
    for m in ms:
        step = denom // m
        product: dict[int, int] = {}
        for e, c in poly.items():
            for i in range(1, m):
                product[e + i * step] = product.get(e + i * step, 0) + c
        poly = product
    return denom, poly


def bf_spectral_graded_dim(ms: Sequence[int], alpha: Fraction) -> int:
    """Number of exponents of microlocal weight exactly alpha, from the spectrum.

    Writing k = (m - 1) q + r with 0 <= r <= m - 2, z^k weighs q + (r + 1)/m,
    so an exponent of weight alpha is a Milnor-box exponent of spectral
    number s times a q in N^d with |q| = alpha - s: the weights' generating
    function is Sp(t) / (1 - t)^d, the Poincaré series of the Milnor
    algebra (Milnor–Orlik 1970; Steenbrink 1977).  Hence
    dim Gr^alpha = sum mult(s) C(alpha - s + d - 1, d - 1) over s with
    alpha - s in N.
    """
    d = len(ms)
    denom, poly = bf_spectral_poly(ms)
    top = Fraction(alpha) * denom
    if top.denominator != 1:
        return 0
    top = int(top)
    return sum(c * math.comb((top - e) // denom + d - 1, d - 1)
               for e, c in poly.items() if e <= top and (top - e) % denom == 0)


def bf_spectral_count(ms: Sequence[int], alpha: Fraction, inclusive: bool) -> int:
    """Number of exponents of microlocal weight < alpha (<= alpha when
    inclusive), from the spectrum: sum mult(s) C(n + d, d), with n the
    largest whole number such that s + n < alpha (<= alpha), over the s
    for which one exists."""
    d = len(ms)
    denom, poly = bf_spectral_poly(ms)
    alpha = Fraction(alpha)
    below = alpha.denominator * denom
    total = 0
    for e, c in poly.items():
        # alpha - e / denom is room / below, and n is its floor, or the
        # least integer below it when not inclusive
        room = alpha.numerator * denom - e * alpha.denominator
        n = room // below if inclusive else -(-room // below) - 1
        if n >= 0:
            total += c * math.comb(n + d, d)
    return total


def bf_spectrum(ms: Sequence[int]) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    for combo in itertools.product(*(range(1, m) for m in ms)):
        s = sum(Fraction(i, m) for i, m in zip(combo, ms))
        out[s] = out.get(s, 0) + 1
    return out


def bf_fold(spectrum: dict[Fraction, int]) -> dict[Fraction, int]:
    """Eigentable of a spectrum: each value s moves to -(s - floor(s)) in (-1, 0]."""
    out: dict[Fraction, int] = {}
    for s, mult in spectrum.items():
        key = -(s - math.floor(s))
        out[key] = out.get(key, 0) + mult
    return out


def bf_permuted(gens: Iterable[Sequence[int]], perm: Sequence[int]) -> list[tuple[int, ...]]:
    """Relabel variables: new coordinate i is old coordinate perm[i]."""
    return [tuple(g[p] for p in perm) for g in gens]


def bf_permuted_atoms(model, perm: Sequence[int]) -> list[tuple]:
    """A weight model's atoms as sorted (exponent, weight, drop) rows, variables relabelled."""
    exps = bf_permuted(model.exps.tolist(), perm)
    return sorted(zip(exps, model.weight.tolist(), model.drop.tolist()))


def bf_fm_feasible(constraints, nvars: int) -> bool:
    """Fourier–Motzkin elimination on Fraction rows, with no integer scaling."""
    work = [Constraint(tuple(c.coeffs), Fraction(c.rhs), c.strict) for c in constraints]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for c in work:
            a = c.coeffs[var]
            if a > 0:
                pos.append(c)
            elif a < 0:
                neg.append(c)
            else:
                rest.append(c)
        combined = []
        for p in pos:
            a = p.coeffs[var]
            for n in neg:
                b = -n.coeffs[var]
                coeffs = tuple(b * pc + a * nc for pc, nc in zip(p.coeffs, n.coeffs))
                combined.append(Constraint(coeffs, b * p.rhs + a * n.rhs,
                                           p.strict or n.strict))
        work = rest + combined
        pruned = []
        for c in work:
            if any(c.coeffs):
                pruned.append(c)
            elif c.rhs < 0 or (c.strict and c.rhs == 0):
                return False
        work = pruned
    return all(c.rhs > 0 or (c.rhs == 0 and not c.strict) for c in work)


def bf_mc_estimates(germ, nu: Sequence[int], alpha: Fraction,
                    config) -> tuple[list[float], float]:
    """Per-shell estimates and fitted ratio of the Monte Carlo oracle from the
    complex formula z = r exp(2 pi i theta), |sum c_j z_j^m_j| on the same
    draws, with numpy's reductions over axis 1: the package's earlier
    kernel, kept as the independent reference for the real-arithmetic one."""
    alpha = Fraction(alpha)
    nu = tuple(int(v) for v in nu)
    d = germ.dim
    ms = np.array(germ.exponents, dtype=np.float64)
    coeffs = np.array([float(c) for c in germ.coefficients], dtype=np.float64)
    two_nu = 2.0 * np.array(nu, dtype=np.float64)
    two_alpha = 2.0 * float(alpha)
    key = _case_key(germ.exponents, nu, alpha)
    estimates = []
    for k in range(1, config.shells + 1):
        rng = np.random.default_rng([config.seed, key, k])
        radius = 2.0 ** (-k)
        radii = radius * np.sqrt(rng.random((config.samples, d)))
        theta = rng.random((config.samples, d))
        z = radii * np.exp(2j * np.pi * theta)
        in_shell = radii.max(axis=1) > radius / 2.0
        f_abs = np.abs((coeffs * z ** ms).sum(axis=1))
        np.maximum(f_abs, 1e-300, out=f_abs)
        integrand = np.prod(radii ** two_nu, axis=1) / f_abs ** two_alpha
        volume = (np.pi * radius * radius) ** d
        estimates.append(volume * float(np.mean(integrand * in_shell)))
    ks = np.arange(1, config.shells + 1, dtype=np.float64)
    logs = np.log2(np.maximum(estimates, 1e-300))
    slope = float(np.polyfit(ks, logs, 1)[0])
    return estimates, 2.0 ** slope
