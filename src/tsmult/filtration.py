"""Ideal-valued step functions of a rational parameter.

A JumpChain represents a decreasing filtration on a finite window [0, W).
V-mode chains are left-continuous (the value at a jump level belongs to
the lower segment), J-mode chains are right-continuous.  Both are views
of one weight model, whose sorted jump levels and the ideal that holds
just after each jump are derived from its atom table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from . import weights
from .errors import ChainKindError, WindowExceeded
from .monomial import MonomialIdeal, QuotientBasis, ScaledIdeal

MICROLOCAL = "microlocal"
USUAL = "usual"


@dataclass(frozen=True)
class JumpStep:
    level: Fraction
    ideal: MonomialIdeal


@dataclass(frozen=True)
class JumpSet:
    """Sorted jump levels in (0, window)."""

    values: tuple[Fraction, ...]
    window: Fraction
    periodic_tail: bool = False

    def to_json(self) -> dict:
        return {
            "window": str(self.window),
            "values": [str(v) for v in self.values],
            "periodic_tail": self.periodic_tail,
        }


class JumpChain:
    """A V- or J-mode chain of monomial ideals on [0, window).

    A view of one weight model: each step holds the ideal valid just after
    its level, so the final open segment up to the window is always
    represented.  Steps are materialized lazily, once.
    """

    __slots__ = ("model", "mode", "family", "window", "_steps")

    def __init__(self, model: weights.WeightModel, mode: str, family: str,
                 window: Fraction):
        if mode not in ("V", "J"):
            raise ChainKindError(f"unknown chain mode {mode!r}")
        if family not in (MICROLOCAL, USUAL):
            raise ChainKindError(f"unknown chain family {family!r}")
        if window <= 0:
            raise ValueError("window must be positive")
        self.model = model
        self.mode = mode
        self.family = family
        self.window = Fraction(window)
        self._steps = None

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def top(self) -> MonomialIdeal:
        return MonomialIdeal.unit(self.model.dim)

    @property
    def steps(self) -> tuple[JumpStep, ...]:
        if self._steps is None:
            self._steps = tuple(JumpStep(lv, ideal) for lv, ideal
                                in weights._strict_steps(self.model, self.window))
        return self._steps

    @property
    def levels(self) -> tuple[Fraction, ...]:
        if self._steps is None:
            return weights.achieved_levels(self.model, self.window)
        return tuple(s.level for s in self._steps)

    def _check_window(self, alpha: Fraction) -> Fraction:
        alpha = Fraction(alpha)
        if alpha < 0 or alpha >= self.window:
            raise WindowExceeded(f"alpha = {alpha} outside the computed window [0, {self.window})")
        return alpha

    def to_json(self) -> dict:
        if self.mode == "J":
            jumps = [{"level": str(s.level), "ideal": s.ideal.to_json()} for s in self.steps]
        else:
            # V-mode: a level carries the value of the segment ending there
            prev = self.top
            jumps = []
            for s in self.steps:
                jumps.append({"level": str(s.level), "ideal": prev.to_json()})
                prev = s.ideal
        return {
            "mode": self.mode,
            "family": self.family,
            "window": str(self.window),
            "dim": self.dim,
            "top": self.top.to_json(),
            "jumps": jumps,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JumpChain):
            return NotImplemented
        if (self.mode, self.family, self.window, self.dim) != \
                (other.mode, other.family, other.window, other.dim):
            return False
        return weights.models_equal(self.model, other.model) or self.steps == other.steps

    __hash__ = None

    def __repr__(self) -> str:
        return (f"JumpChain(mode={self.mode!r}, family={self.family!r}, "
                f"window={self.window}, dim={self.dim}, jumps={len(self.steps)})")


def chain_from_model(model: weights.WeightModel, window: Fraction, mode: str,
                     family: str) -> JumpChain:
    if window + 2 > model.cap:
        raise WindowExceeded(f"window {window} needs a model cap of at least {window + 2}")
    return JumpChain(model, mode, family, window)


def v_lookup(chain: JumpChain, alpha: Fraction) -> MonomialIdeal:
    """Left-continuous value: the ideal spanned by weights >= alpha."""
    if chain.mode != "V":
        raise ChainKindError("v_lookup needs a V-mode chain")
    return weights.generators_at(chain.model, chain._check_window(alpha), strict=False)


def j_lookup(chain: JumpChain, alpha: Fraction) -> MonomialIdeal:
    """Right-continuous value: the ideal spanned by weights > alpha."""
    if chain.mode != "J":
        raise ChainKindError("j_lookup needs a J-mode chain; apply v_to_j first")
    return weights.generators_at(chain.model, chain._check_window(alpha), strict=True)


def v_to_j(chain: JumpChain) -> JumpChain:
    """Right-continuous view of a V-mode chain: same levels, post-jump values."""
    if chain.mode != "V":
        raise ChainKindError("v_to_j expects a V-mode chain")
    view = JumpChain(chain.model, "J", chain.family, chain.window)
    view._steps = chain._steps
    return view


def graded_at(chain: JumpChain, alpha: Fraction) -> QuotientBasis:
    """Monomial basis of the graded piece at alpha; empty off jump levels."""
    if chain.mode != "V":
        raise ChainKindError("graded_at expects a V-mode chain")
    alpha = chain._check_window(alpha)
    return QuotientBasis(weights.graded_exponents(chain.model, alpha))


def jumpset_of(chain: JumpChain) -> JumpSet:
    return JumpSet(values=chain.levels, window=chain.window)


def usual_jumpset(microlocal: JumpSet, window: Fraction) -> JumpSet:
    """Jump set of the usual multiplier chain from the microlocal one.

    Below 1 the two sets agree, 1 is always a jump, and beyond 1 the set
    repeats with period 1.
    """
    window = Fraction(window)
    if microlocal.window < 1:
        raise WindowExceeded("need the microlocal jump set at least on (0, 1)")
    # the microlocal values are sorted and distinct, so base is too, and lies in
    # (0, 1]: shift s places it in (s, s + 1], and shift by shift is ascending
    base = [v for v in microlocal.values if v < 1] + [Fraction(1)]
    last = ceil(window) - 1  # the last shift; all of base + s is below the window before it
    k = bisect_left(base, window - last)
    n = last * len(base) + k  # a Fraction is ~200 bytes
    weights._admit(200 * n, f"jump set below {window}: {n} values as Fractions")
    values = tuple(v + shift for shift in range(last + 1)
                   for v in (base if shift < last else base[:k]))
    return JumpSet(values=values, window=window, periodic_tail=True)


def periodic_extend(chain: JumpChain, alpha: Fraction) -> ScaledIdeal:
    """Usual multiplier ideal at any alpha >= 0 as f^k times an ideal.

    Strips whole periods so the fractional part lands in [0, 1), where the
    chain is authoritative.
    """
    if chain.family != USUAL:
        raise ChainKindError("periodic extension is valid for usual multiplier chains only")
    if chain.mode != "J":
        raise ChainKindError("periodic_extend expects a J-mode chain")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    k = alpha.numerator // alpha.denominator
    return ScaledIdeal(power=k, ideal=j_lookup(chain, alpha - k))
