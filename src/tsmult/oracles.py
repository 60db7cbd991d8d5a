"""Independent verification routes for the symbolic engine.

Five exact oracles (one-variable integrability, rational-LP membership
in scaled Newton polyhedra, a two-path summation-formula evaluation, the
weight model by enumeration of the whole exponent box, and the spectrum
by enumeration of every interior tuple, as integer numerators) plus one
statistical oracle (Monte Carlo estimation of the defining
integral over dyadic shells).  The statistical oracle is advisory: it
never gates a symbolic result, only its own agreement test.  It works in
the log domain on real draws: log u once per variable, each term's
modulus and the integrand by exp, and |f|^2 from the moduli and the
phases relative to the first term, in closed form with one cosine for
two variables.  Its shells are independent draws, so they run
concurrently on helper threads, with the same bits as one after another.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .errors import OracleMismatch
from .germs import Germ, diagonal_microlocal_chain, one_var_weight, one_var_usual_chain
from .filtration import j_lookup, jumpset_of, usual_jumpset
from .monomial import MonomialIdeal, Rat, external_product, ideal_sum
from .weights import NO_DROP, WeightModel


def one_var_integrable(g: int, m: int, alpha: Rat) -> bool:
    """Integrability of |z^g|^2 / |z^m|^(2*alpha) near 0.

    In polar coordinates the radial integrand is r^(2g + 1 - 2*alpha*m),
    integrable at 0 exactly when the exponent exceeds -1.
    """
    if g < 0 or m < 2:
        raise ValueError("need g >= 0 and m >= 2")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return g + 1 > alpha * m


class Constraint(NamedTuple):
    """Linear constraint sum(coeffs * x) <= rhs, strict when flagged."""

    coeffs: tuple[int | Fraction, ...]
    rhs: int | Fraction
    strict: bool


def fm_feasible(constraints: Sequence[Constraint], nvars: int) -> bool:
    """Exact feasibility of a rational linear system by variable elimination.

    Each row is scaled to integers by the lcm of its denominators, and each
    combined row is divided by the gcd of its entries; a positive factor
    keeps both <= and <, so the elimination runs on Python ints throughout.
    Every row needs exactly nvars coefficients; the rows left when no
    variable remains are constants, 0 <= rhs or 0 < rhs, checked at the end.
    """
    if any(len(c.coeffs) != nvars for c in constraints):
        raise ValueError(f"every constraint needs {nvars} coefficients")
    work = []
    for c in constraints:
        row = (*c.coeffs, c.rhs)
        scale = math.lcm(*(v.denominator for v in row))
        work.append(([v.numerator * (scale // v.denominator) for v in row], c.strict))
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for c in work:
            a = c[0][var]
            if a > 0:
                pos.append(c)
            elif a < 0:
                neg.append(c)
            else:
                rest.append(c)
        combined = []
        for p, p_strict in pos:
            a = p[var]
            for n, n_strict in neg:
                b = -n[var]
                row = [b * pc + a * nc for pc, nc in zip(p, n)]
                g = math.gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
                combined.append((row, p_strict or n_strict))
        work = rest + combined
        pruned = []
        for row, strict in work:
            if any(row[:-1]):
                pruned.append((row, strict))
            elif row[-1] < 0 or (strict and row[-1] == 0):
                return False
        work = pruned
    return all(rhs > 0 or (rhs == 0 and not strict) for (*_, rhs), strict in work)


def _canonical(dim: int, denom: int, cap: Fraction, exps: np.ndarray,
               weight: np.ndarray, drop: np.ndarray) -> WeightModel:
    order = np.lexsort(np.flipud(exps.T))
    return WeightModel(dim, denom, cap, np.ascontiguousarray(exps[order]),
                       weight[order], drop[order])


def box_model(ms: Sequence[int], cap: Fraction, usual: bool = False) -> WeightModel:
    """weights.diagonal_model by enumerating the whole box ∏ len(table_j).

    Its one-variable tables come from germs.one_var_weight, not from the
    closed-form tables diagonal_model folds.  O(box) time and memory; kept
    as the independent route the iterated convolution of one-variable
    models is checked against, never on the hot path.
    """
    ms = tuple(int(m) for m in ms)
    if any(m < 2 for m in ms):
        raise ValueError("diagonal model needs all exponents >= 2")
    dim = len(ms)
    denom = math.lcm(*ms)
    tables = []
    for m in ms:  # the weights of z^0, z^1, .. below cap; z^0 is always kept
        table = [one_var_weight(m, 0, usual)]
        while (w := one_var_weight(m, len(table), usual)) < cap:
            table.append(w)
        tables.append(np.array([int(w * denom) for w in table], dtype=np.int64))
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


def enumerated_spectrum(ms: Sequence[int]) -> Counter[int]:
    """Hodge spectrum of the diagonal germ with exponents ms, tuple by tuple.

    Counts the sums i_1/m_1 + ... + i_d/m_d, as integer numerators over
    lcm(ms), over every interior tuple 1 <= i_j < m_j.  O(μ) time; kept as
    the independent route spectral.spectrum_of is checked against, never on
    the hot path.  A Counter of ints, so this module needs nothing of spectral.
    """
    denom = math.lcm(*ms)
    steps = [range(denom // m, denom, denom // m) for m in ms]
    return Counter(map(sum, product(*steps)))


def newton_membership(a: MonomialIdeal, nu: Sequence[int], alpha: Rat) -> bool:
    """Whether nu + 1 lies in the interior of alpha times the staircase hull.

    The hull is conv(generators) + the positive orthant, so interiority is
    equivalent to dominating a convex combination of generators with a
    uniform positive slack in every coordinate.  With alpha = p/q the rows
    are integers: p·(sum of lambda_i g_i + slack) <= q·(nu + 1), lambda >= 0,
    slack > 0, and the last lambda is 1 minus the others.
    """
    if a.is_zero:
        raise ValueError("the zero ideal has no Newton polyhedron")
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    nu = tuple(int(v) for v in nu)
    if len(nu) != a.dim or any(v < 0 for v in nu):
        raise ValueError(f"bad monomial exponent {nu} for a {a.dim}-variable ideal")
    p, q = alpha.numerator, alpha.denominator
    *gens, last = a.gens
    n = len(gens) + 1  # lambda per generator but the last, then the slack
    cons: list[Constraint] = []
    for i in range(len(gens)):
        cons.append(Constraint(tuple(-1 if k == i else 0 for k in range(n)), 0, False))
    cons.append(Constraint((1,) * len(gens) + (0,), 1, False))  # last lambda >= 0
    for coord in range(a.dim):
        coeffs = tuple(p * (g[coord] - last[coord]) for g in gens) + (p,)
        cons.append(Constraint(coeffs, q * (nu[coord] + 1) - p * last[coord], False))
    cons.append(Constraint((0,) * len(gens) + (-1,), 0, True))
    return fm_feasible(cons, n)


def summation_path(m1: int, m2: int, alpha: Rat) -> MonomialIdeal:
    """Multiplier ideal of (z1^m1, z2^m2) at alpha in (0,1), two ways.

    Route one walks the staircase boundary of the box with the rational-LP
    membership test; route two evaluates the split formula over one-variable
    chains, one external product per interval between adjacent candidate
    split points.  The routes must agree; the common ideal is returned.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    a = MonomialIdeal(2, [(m1, 0), (0, m2)])
    # membership is upward-closed, so the first member row of column i is at
    # most that of column i - 1: walk down the staircase boundary from there
    boundary = []
    j = m2 + 1
    for i in range(m1 + 1):
        while j > 0 and newton_membership(a, (i, j - 1), alpha):
            j -= 1
        if j <= m2:
            boundary.append((i, j))
    newton_route = MonomialIdeal(2, boundary)

    c1 = one_var_usual_chain(m1)
    c2 = one_var_usual_chain(m2)
    points = {Fraction(0), alpha}
    points.update(Fraction(i, m1) for i in range(1, m1) if Fraction(i, m1) < alpha)
    points.update(alpha - Fraction(j, m2) for j in range(1, m2)
                  if 0 < alpha - Fraction(j, m2))
    grid = sorted(points)
    # on each (lo, hi) both factors are constant by right-continuity
    split_route = ideal_sum(*(external_product(j_lookup(c1, lo), j_lookup(c2, alpha - hi))
                              for lo, hi in zip(grid, grid[1:])))
    if newton_route != split_route:
        raise OracleMismatch(
            f"summation routes disagree for ({m1},{m2}) at {alpha}: "
            f"{newton_route.gens} vs {split_route.gens}")
    return newton_route


@dataclass(frozen=True)
class MonteCarloConfig:
    shells: int = 12
    samples: int = 20000
    margin: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        # a slope needs two shells and an estimate one sample
        if self.shells < 2:
            raise ValueError(f"need at least 2 shells, got {self.shells}")
        if self.samples < 1:
            raise ValueError(f"need at least 1 sample, got {self.samples}")
        if not 0 <= self.margin < 1:
            raise ValueError(f"margin {self.margin} outside [0, 1)")
        if self.seed < 0:  # numpy seeds its generators from nonnegative ints only
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _case_key(ms: Sequence[int], nu: Sequence[int], alpha: Fraction) -> int:
    h = 0
    for v in (*ms, -1, *nu, -1, alpha.numerator, alpha.denominator):
        h = (h * 1000003 + v + 11) % ((1 << 61) - 1)
    return h


def _workers(shells: int) -> int:
    """Threads for the shells: one per CPU this process may run on, at most one a shell."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(shells, cpus)


def monte_carlo_integrable(germ: Germ, nu: Sequence[int], alpha: Rat,
                           config: MonteCarloConfig | None = None) -> dict:
    """Statistical integrability verdict for |z^nu|^2 / |f|^(2*alpha).

    Estimates the integral over the dyadic shells max|z_j| in
    (2^-(k+1), 2^-k] by uniform polydisk sampling, fits the per-shell
    geometric ratio by least squares on the log estimates, and compares
    it against 1 with the configured margin.

    A sample is z_j = r_j exp(2 pi i theta_j) with r_j = radius * sqrt(u_j)
    on uniform draws u and theta (theta only for two or more variables).
    No complex array and no generic power is formed: with L_j = log u_j,
    the integrand is exp(sum_j nu_j L_j - alpha max(log |f|^2, floor)),
    |f| floored at 1e-300.  For one variable log |f|^2 is affine in L;
    for two it is the log of (A - B)^2 + 4AB cos^2(psi / 2), A and B the
    moduli |c_j z_j^m_j| = exp(log |c_j| + (m_j / 2)(L_j + log radius^2))
    and psi the relative phase; for more, of re^2 + im^2 summed term by
    term.  The estimates agree with the complex formula on the same draws
    to rounding (tests/bruteforce.py::bf_mc_estimates keeps that formula).

    Each shell draws from its own generator, seeded by (seed, case, k), so
    the shells run concurrently: the calling thread and one helper thread
    per further CPU (see _workers) each take every workers-th shell, and
    numpy releases the GIL in the draws and ufuncs.  The estimates are the
    same bits whatever the number of workers.  Helpers are joined before
    the call returns, and an exception in one is raised here.
    """
    config = config or MonteCarloConfig()
    alpha = Fraction(alpha)
    nu = tuple(int(v) for v in nu)
    if len(nu) != germ.dim or any(v < 0 for v in nu):
        raise ValueError(f"bad monomial exponent {nu} for a {germ.dim}-variable germ")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    d = germ.dim
    n = config.samples
    ms = germ.exponents
    coeffs = [float(c) for c in germ.coefficients]
    log_c = [math.log(abs(c)) for c in coeffs]
    signs = [math.copysign(1.0, c) for c in coeffs]
    half_turn = d == 2 and signs[0] != signs[1]
    nu_cols = [(j, float(v)) for j, v in enumerate(nu) if v]
    neg_alpha = -float(alpha)
    floor = 2.0 * math.log(1e-300)  # |f| is floored at 1e-300
    key = _case_key(ms, nu, alpha)
    estimates = [0.0] * config.shells
    workers = _workers(config.shells)

    def run_shells(first: int) -> None:
        # shells first, first + workers, ... on buffers made once per call,
        # in the log domain: with L_j = log u_j, the integrand in the shell
        # is exp(sum_j nu_j L_j - alpha max(log |f|^2, floor))
        u, theta = np.empty((n, d)), np.empty((n, d))
        logs = np.empty((d, n))  # u, then log u, by variable, each contiguous
        expo, re, im, phase, trig, shell = (np.empty(n) for _ in range(6))

        def log_modulus(j: int, times: float, out: np.ndarray) -> np.ndarray:
            # times log |c_j z_j^m_j| = times ((m_j / 2)(L_j + log radius^2) + log |c_j|)
            np.multiply(logs[j], times * 0.5 * ms[j], out=out)
            out += times * (0.5 * ms[j] * log_r2 + log_c[j])
            return out

        # log(0) is -inf and exp may overflow to inf, both meant; errstate
        # is per thread, so each worker sets its own
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(first, config.shells + 1, workers):
                rng = np.random.default_rng([config.seed, key, k])
                radius = 2.0 ** (-k)
                log_r2 = -2.0 * k * math.log(2.0)
                rng.random(out=u)
                np.copyto(logs, u.T)
                # max_j |z_j| > radius / 2 exactly when max_j u_j > 1/4; 1.0 or 0.0
                np.greater(np.maximum.reduce(logs, axis=0, out=expo), 0.25, out=shell)
                np.log(logs, out=logs)  # -inf at a draw of 0, made finite below
                if d == 1:  # log |f|^2 is affine in L
                    log_modulus(0, 2.0, expo)
                else:
                    rng.random(out=theta)  # the last draw, so d = 1 may skip it
                    # phase = psi_j / 2 pi less its nearest integer, for the
                    # relative phase psi_j = 2 pi (m_j theta_j - m_1 theta_1)
                    # (plus pi for d = 2 when the signs differ)
                    np.multiply(ms[1], theta[:, 1], out=phase)
                    phase -= np.multiply(ms[0], theta[:, 0], out=trig)
                if d == 2:
                    # |f|^2 = A^2 + B^2 + 2AB cos psi for the moduli A and B, that
                    # is (A - B)^2 + 4AB cos^2(psi / 2): no sin, and both terms
                    # are nonnegative, so nothing cancels
                    if half_turn:
                        phase += 0.5
                    phase -= np.rint(phase, out=trig)
                    phase *= np.pi
                    np.cos(phase, out=phase)
                    phase *= phase
                    np.exp(log_modulus(0, 1.0, re), out=re)
                    np.exp(log_modulus(1, 1.0, im), out=im)
                    np.subtract(re, im, out=trig)
                    trig *= trig
                    re *= im
                    re *= phase
                    re *= 4.0
                    re += trig
                    np.log(re, out=expo)
                elif d > 2:
                    # |f| = |re + i im| with re = sum_j c_j |z_j^m_j| cos psi_j
                    # and im the same with sin
                    np.exp(log_modulus(0, 1.0, re), out=re)
                    re *= signs[0]
                    im.fill(0.0)
                    for j in range(1, d):
                        if j > 1:
                            np.multiply(ms[j], theta[:, j], out=phase)
                            phase -= np.multiply(ms[0], theta[:, 0], out=trig)
                        # libm's cos and sin run about twice as fast on
                        # [-pi, pi] as on the raw phase's range
                        phase -= np.rint(phase, out=trig)
                        phase *= 2.0 * np.pi
                        np.exp(log_modulus(j, 1.0, expo), out=expo)
                        expo *= signs[j]
                        re += np.multiply(expo, np.cos(phase, out=trig), out=trig)
                        im += np.multiply(expo, np.sin(phase, out=trig), out=trig)
                    re *= re
                    im *= im
                    re += im
                    np.log(re, out=expo)
                # the floor keeps alpha * log |f|^2 finite, so alpha = 0 gives
                # 1, and zeroing it outside the shell keeps exp there at most 1,
                # never an inf to multiply by 0.  prod_j r_j^(2 nu_j) is
                # radius^(2 |nu|) * exp(sum_j nu_j L_j), whose power of two
                # joins the shell volume; only nu_j > 0 adds its L_j, so a
                # draw u_j = 0 gives 0 there, as 0^nu_j does, and 1 elsewhere
                np.maximum(expo, floor, out=expo)
                expo *= neg_alpha
                expo *= shell
                for j, v in nu_cols:
                    expo += np.multiply(logs[j], v, out=trig)
                integrand = np.exp(expo, out=expo)
                integrand *= shell
                scale = (np.pi * radius * radius) ** d * radius ** (2 * sum(nu))
                estimates[k - 1] = scale * float(np.mean(integrand))

    errors: list[BaseException] = []

    def helper(first: int) -> None:
        try:
            run_shells(first)
        except BaseException as exc:  # raised in the caller after the join
            errors.append(exc)

    threads = []
    try:
        for first in range(2, workers + 1):
            thread = threading.Thread(target=helper, args=(first,))
            thread.start()
            threads.append(thread)
        run_shells(1)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    ks = np.arange(1, config.shells + 1, dtype=np.float64)
    logs = np.log2(np.maximum(estimates, 1e-300))
    slope = float(np.polyfit(ks, logs, 1)[0])
    ratio = 2.0 ** slope
    if ratio <= 1.0 - config.margin:
        verdict = "Integrable"
    elif ratio >= 1.0 + config.margin:
        verdict = "Divergent"
    else:
        verdict = "Inconclusive"
    return {
        "verdict": verdict,
        "ratio": ratio,
        "margin": config.margin,
        "seed": config.seed,
        "samples": config.samples,
        "shells": [{"k": int(k), "estimate": est}
                   for k, est in zip(range(1, config.shells + 1), estimates)],
    }


def exact_monomial_integrable(germ: Germ, nu: Sequence[int], alpha: Rat) -> bool:
    """Exact integrability of |z^nu|^2 / |f|^(2*alpha) near the origin.

    Below 1 this is the Newton weight criterion; at or above 1 no
    monomial survives because the integrand blows up along the whole
    divisor, not just at the origin.
    """
    alpha = Fraction(alpha)
    weight = sum(one_var_weight(m, v, usual=True)
                 for m, v in zip(germ.exponents, nu))
    return alpha < min(weight, Fraction(1))


@dataclass(frozen=True)
class MonteCarloCase:
    germ: Germ
    nu: tuple[int, ...]
    alpha: Fraction
    exact_integrable: bool


def mc_case_set(count: int = 200, seed: int = 1,
                min_gap: Fraction = Fraction(1, 20)) -> list[MonteCarloCase]:
    """Deterministic random cases keeping alpha away from every jump.

    Draws one- and two-variable germs with exponents up to 5, a monomial
    in a small box, and alpha on the 1/60 grid up to 57/60 = 0.95 at
    distance at least min_gap from the usual jumping coefficients and from the
    monomial's own integrability threshold.
    """
    rng = np.random.default_rng([seed, 0xCA5E5])
    cases: list[MonteCarloCase] = []
    jumps: dict[tuple[int, ...], set[Fraction]] = {}  # usual jumps per exponent tuple
    while len(cases) < count:
        d = 1 if rng.random() < 0.55 else 2
        ms = tuple(int(rng.integers(2, 6)) for _ in range(d))
        nu = tuple(int(rng.integers(0, m + 1)) for m in ms)
        germ = Germ(ms)
        weight = sum(one_var_weight(m, v, usual=True) for m, v in zip(ms, nu))
        threshold = min(weight, Fraction(1))
        if ms not in jumps:
            micro = jumpset_of(diagonal_microlocal_chain(germ, window=Fraction(1)))
            jumps[ms] = set(usual_jumpset(micro, Fraction(2)).values)
        guarded = jumps[ms] | {threshold}
        # in integers over one common denominator, a guarded value t rules
        # out the j with |j * step - t| < gap: one open interval of j
        den = math.lcm(60, min_gap.denominator, *(t.denominator for t in guarded))
        gap = min_gap.numerator * (den // min_gap.denominator)
        step = den // 60
        allowed = [True] * 58  # j = 1 .. 57; index 0 unused
        for t in guarded:
            t = t.numerator * (den // t.denominator)
            for j in range(max((t - gap) // step + 1, 1), min(-((-t - gap) // step), 58)):
                allowed[j] = False
        candidates = [j for j in range(1, 58) if allowed[j]]
        if not candidates:
            continue
        alpha = Fraction(candidates[int(rng.integers(0, len(candidates)))], 60)
        cases.append(MonteCarloCase(germ, nu, alpha, alpha < threshold))
    return cases
