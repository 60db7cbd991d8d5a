"""Invariants of sums in disjoint variables by convolution of factors.

The microlocal chain of f1 + f2 on disjoint variables is the level-wise
convolution of the factor chains: V^a of the sum is spanned by products
of factor monomials whose levels add up to at least a.  Everything else
here (usual multiplier ideals below 1, jump sets, lct, graded pieces and
the level-1 bookkeeping) is derived from that single engine, except the
irrationality dimension, which counts spectral numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import weights
from .errors import ChainKindError, NotReduced, WindowExceeded
from .filtration import JumpChain, JumpSet
from .germs import Germ, diagonal_microlocal_chain
from .monomial import MonomialIdeal, QuotientBasis, Rat
from .spectral import spectrum_of


def ts_convolve_chains(c1: JumpChain, c2: JumpChain,
                       window: Fraction | None = None) -> JumpChain:
    """Microlocal V-chain of the disjoint-variable sum of two germs."""
    for c in (c1, c2):
        if c.mode != "V":
            raise ChainKindError("chain convolution expects V-mode chains")
    max_window = min(c1.window, c2.window)
    window = max_window if window is None else Fraction(window)
    if window > max_window:
        raise WindowExceeded(f"requested window {window} exceeds a factor window {max_window}")
    return JumpChain(weights.convolve(c1.model, c2.model, cap=window + 2), "V", window)


def ts_multiplier(c1: JumpChain, c2: JumpChain, alpha: Fraction) -> MonomialIdeal:
    """Multiplier ideal of the sum at alpha in (0, 1).

    Valid because the usual and microlocal ideals agree below 1, so the
    right-continuous value of the convolved chain is the answer.  Only the
    factor models are read, so either view of a factor will do.

    The convolution stops at the least cap that generators_at accepts
    for alpha over the convolved denominator, weights._least_cap, which
    is also enough for every generator.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise WindowExceeded(f"alpha = {alpha} is outside (0, 1); "
                             "use periodic_extend for larger parameters")
    if min(c1.window, c2.window) < 1:
        raise WindowExceeded("factor chains must cover the window [0, 1)")
    denom = lcm(c1.model.denom, c2.model.denom)
    model = weights.convolve(c1.model, c2.model, cap=weights._least_cap(alpha, denom, strict=True))
    return weights.generators_at(model, alpha, strict=True)


def ts_jumpset(s1: JumpSet, s2: JumpSet, window: Fraction | None = None) -> JumpSet:
    """Jump levels of the sum: the truncated sumset of factor levels.

    The keys of s2 pairing with a key of s1 below the window are a prefix,
    so the pairs are counted and admitted (40 bytes each, measured) before
    they are formed; a sort and a diff keep the distinct sums."""
    if not len(s1.keys) or not len(s2.keys):
        w = min(s1.window, s2.window) if window is None else Fraction(window)
        return JumpSet(1, s1.keys[:0], w)
    # each factor's levels are complete below its window only
    reach = min(s1.window + Fraction(int(s2.keys[0]), s2.denom),
                s2.window + Fraction(int(s1.keys[0]), s1.denom))
    window = reach if window is None else Fraction(window)
    if window > reach:
        raise WindowExceeded("factor jump sets are too short for the requested window")
    denom = lcm(s1.denom, s2.denom)
    weights._admit_int64(weights._cut(s1.window + s2.window, denom),
                         "jump sums over denominator {}", denom)
    a, b = (s.keys * (denom // s.denom) for s in (s1, s2))
    counts = np.searchsorted(b, weights._cut(window, denom) - a)
    n = int(counts.sum())
    weights._admit(40 * n, "jump sums of {} x {} levels below {}: {} pairs",
                   len(a), len(b), window, n)
    ia, ib = weights._prefixes(counts, n)
    sums = np.sort(a[ia] + b[ib])
    return JumpSet(denom, sums[weights._runs(sums)], window)


def ts_lct(l1: Rat, l2: Rat) -> Rat:
    """Threshold of the sum from factor thresholds, clamped at 1."""
    for l in (l1, l2):
        if not 0 < l <= 1:
            raise ValueError(f"{l} is not a log canonical threshold of a germ (range (0, 1])")
    return min(Fraction(1), Fraction(l1) + Fraction(l2))


@dataclass(frozen=True)
class GradedSummand:
    """One product block of a graded piece of a sum."""

    level1: Fraction
    level2: Fraction
    basis1: QuotientBasis
    basis2: QuotientBasis

    @property
    def dim(self) -> int:
        return self.basis1.dim * self.basis2.dim


def ts_graded(c1: JumpChain, c2: JumpChain, alpha: Fraction) -> list[GradedSummand]:
    """Graded piece of the sum at alpha as a sum of factor products.

    Returns the nonzero blocks (level pair and the two factor bases), in
    increasing order of the first level; the total dimension is the sum
    over blocks of the basis-size product.

    The pairs are found on integers.  With D the lcm of the factors'
    denominators, a block (lv, alpha - lv) has both levels in (1/D)Z and
    both positive, so it exists only when A = alpha·D is an integer, and
    its scaled levels are the common values of the factor weights below
    A scaled to D, and of A minus those of the second factor: one
    intersect1d.  Only the returned blocks' levels become Fractions.
    """
    alpha = Fraction(alpha)
    for c in (c1, c2):
        if c.mode != "V":
            raise ChainKindError("graded convolution expects V-mode chains")
        if alpha >= c.window:
            raise WindowExceeded(f"alpha = {alpha} outside factor window [0, {c.window})")
    denom = lcm(c1.model.denom, c2.model.denom)
    if (alpha * denom).denominator != 1:
        return []
    top = alpha.numerator * (denom // alpha.denominator)
    weights._admit_int64(top, "graded piece at {} over denominator {}", alpha, denom)
    w1, rows1 = weights._light_rows(c1.model, alpha, denom)
    w2, rows2 = weights._light_rows(c2.model, alpha, denom)
    levels = np.intersect1d(w1, top - w2)
    bounds1 = [np.searchsorted(w1, levels, side=s).tolist() for s in ("left", "right")]
    bounds2 = [np.searchsorted(w2, top - levels, side=s).tolist() for s in ("left", "right")]
    return [GradedSummand(Fraction(v, denom), Fraction(top - v, denom),
                          QuotientBasis(c1.model.exps[rows1[lo1:hi1]]),
                          QuotientBasis(c2.model.exps[rows2[lo2:hi2]]))
            for v, lo1, hi1, lo2, hi2 in zip(levels.tolist(), *bounds1, *bounds2)]


def irrationality_module(germ: Germ) -> QuotientBasis:
    """Monomials outside the level-(>1) microlocal ideal.

    Their span measures the failure of rational singularities; the germ
    must be reduced, which for sums of pure powers means at least two
    variables.
    """
    if germ.dim < 2:
        raise NotReduced("the irrationality module needs a reduced germ (at least 2 variables)")
    model = weights.diagonal_model(germ.exponents, cap=Fraction(3))
    return QuotientBasis(weights.quotient_exponents(model, Fraction(1), strict=True))


def irrationality_dim(germ: Germ) -> int:
    """Dimension of the irrationality module: the number of spectral numbers
    <= 1 with multiplicity (Budur 2003, with Steenbrink's 1977 spectrum)."""
    if germ.dim < 2:
        raise NotReduced("the irrationality module needs a reduced germ (at least 2 variables)")
    spectrum = spectrum_of(germ)
    return int(spectrum.counts[spectrum.keys <= spectrum.denom].sum())


@dataclass(frozen=True)
class AlphaOneReport:
    """Dimension bookkeeping of the level-1 short exact sequence."""

    g_tilde_dim: int
    paired_g_tilde_dim: int
    irrationality_dim: int
    v_one_cokernel_dim: int
    summands: tuple[GradedSummand, ...]
    consistent: bool

    def to_json(self) -> dict:
        return {
            "g_tilde_dim": self.g_tilde_dim,
            "irrationality_dim": self.irrationality_dim,
            "summands": [
                {"a1": str(s.level1), "a2": str(s.level2), "dim": s.dim}
                for s in self.summands
            ],
            "consistent": self.consistent,
            "paired_g_tilde_dim": self.paired_g_tilde_dim,
            "v_one_cokernel_dim": self.v_one_cokernel_dim,
        }


def alpha_one_sequence_check(g1: Germ, g2: Germ) -> AlphaOneReport:
    """Check the level-1 dimension bookkeeping of a two-factor sum.

    The graded dimension at 1 is computed directly from the convolved
    chain and as the paired sum over factor levels; the cokernel of the
    level-1 ideal splits as the cokernel of the (>= 1) ideal plus the
    graded piece, so the convolved model's two colengths must add up to
    the irrationality dimension, which is read off the spectrum.
    """
    window = Fraction(3, 2)
    c1 = diagonal_microlocal_chain(g1, window)
    c2 = diagonal_microlocal_chain(g2, window)
    conv = ts_convolve_chains(c1, c2, window)
    one = Fraction(1)
    direct = len(weights.graded_exponents(conv.model, one))
    summands = tuple(ts_graded(c1, c2, one))
    paired = sum(s.dim for s in summands)
    irr = irrationality_dim(Germ(g1.exponents + g2.exponents))
    vcoker = len(weights.quotient_exponents(conv.model, one, strict=False))
    consistent = (direct == paired) and (irr == vcoker + direct)
    return AlphaOneReport(direct, paired, irr, vcoker, summands, consistent)
