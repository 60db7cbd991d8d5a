"""Ideal-valued step functions of a rational parameter.

A JumpChain represents a decreasing filtration on a finite window [0, W).
V-mode chains are left-continuous (the value at a jump level belongs to
the lower segment), J-mode chains are right-continuous.  Both are views
of the same data: the sorted jump levels together with the ideal that
holds just after each jump.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import weights
from .errors import ChainKindError, WindowExceeded
from .monomial import MonomialIdeal, QuotientBasis, ScaledIdeal, quotient_basis

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

    Each stored step holds the ideal valid just after its level, so the
    final open segment up to the window is always represented.  Chains
    built from a weight model materialize their steps lazily.
    """

    __slots__ = ("mode", "family", "window", "dim", "top", "model", "_steps")

    def __init__(self, mode: str, family: str, window: Fraction, dim: int,
                 top: MonomialIdeal, steps: Iterable[JumpStep] | None = None,
                 model: weights.WeightModel | None = None):
        if mode not in ("V", "J"):
            raise ChainKindError(f"unknown chain mode {mode!r}")
        if family not in (MICROLOCAL, USUAL):
            raise ChainKindError(f"unknown chain family {family!r}")
        if window <= 0:
            raise ValueError("window must be positive")
        self.mode = mode
        self.family = family
        self.window = Fraction(window)
        self.dim = dim
        self.top = top
        self.model = model
        self._steps = tuple(steps) if steps is not None else None
        if self._steps is None and model is None:
            raise ValueError("a chain needs explicit steps or a weight model")

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

    def _value_left(self, alpha: Fraction) -> MonomialIdeal:
        """Value of the left-continuous filtration at alpha."""
        if self.model is not None:
            return weights.generators_at(self.model, alpha, strict=False)
        levels = [s.level for s in self.steps]
        i = bisect.bisect_left(levels, alpha)
        return self.top if i == 0 else self.steps[i - 1].ideal

    def _value_right(self, alpha: Fraction) -> MonomialIdeal:
        """Value of the right-continuous filtration at alpha."""
        if self.model is not None:
            return weights.generators_at(self.model, alpha, strict=True)
        levels = [s.level for s in self.steps]
        i = bisect.bisect_right(levels, alpha)
        return self.top if i == 0 else self.steps[i - 1].ideal

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
        if self.model is not None and other.model is not None \
                and weights.models_equal(self.model, other.model):
            return True
        return self.top == other.top and self.steps == other.steps

    __hash__ = None

    def __repr__(self) -> str:
        return (f"JumpChain(mode={self.mode!r}, family={self.family!r}, "
                f"window={self.window}, dim={self.dim}, jumps={len(self.steps)})")


def chain_from_model(model: weights.WeightModel, window: Fraction, mode: str,
                     family: str) -> JumpChain:
    if window + 2 > model.cap:
        raise WindowExceeded(f"window {window} needs a model cap of at least {window + 2}")
    return JumpChain(mode, family, window, model.dim,
                     MonomialIdeal.unit(model.dim), model=model)


def v_lookup(chain: JumpChain, alpha: Fraction) -> MonomialIdeal:
    """Left-continuous value: the ideal spanned by weights >= alpha."""
    if chain.mode != "V":
        raise ChainKindError("v_lookup needs a V-mode chain")
    return chain._value_left(chain._check_window(alpha))


def j_lookup(chain: JumpChain, alpha: Fraction) -> MonomialIdeal:
    """Right-continuous value: the ideal spanned by weights > alpha."""
    if chain.mode != "J":
        raise ChainKindError("j_lookup needs a J-mode chain; apply v_to_j first")
    return chain._value_right(chain._check_window(alpha))


def v_to_j(chain: JumpChain) -> JumpChain:
    """Right-continuous view of a V-mode chain: same levels, post-jump values."""
    if chain.mode != "V":
        raise ChainKindError("v_to_j expects a V-mode chain")
    return JumpChain("J", chain.family, chain.window, chain.dim, chain.top,
                     steps=chain._steps, model=chain.model)


def graded_at(chain: JumpChain, alpha: Fraction) -> QuotientBasis:
    """Monomial basis of the graded piece at alpha; empty off jump levels."""
    if chain.mode != "V":
        raise ChainKindError("graded_at expects a V-mode chain")
    alpha = chain._check_window(alpha)
    if chain.model is not None:
        return QuotientBasis(finite=True,
                             exponents=weights.graded_exponents(chain.model, alpha))
    return quotient_basis(chain._value_left(alpha), chain._value_right(alpha))


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
    base = sorted({v for v in microlocal.values if v < 1} | {Fraction(1)})
    values = []
    shift = 0
    while base[0] + shift < window:
        values.extend(v + shift for v in base if v + shift < window)
        shift += 1
    return JumpSet(values=tuple(sorted(values)), window=window, periodic_tail=True)


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
