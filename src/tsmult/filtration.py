"""Ideal-valued step functions of a rational parameter.

A JumpChain represents a decreasing filtration on a finite window [0, W).
V-mode chains are left-continuous (the value at a jump level belongs to
the lower segment), J-mode chains are right-continuous.  Both are views
of one weight model, whose sorted jump levels and the ideal that holds
just after each jump are derived from its atom table.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from . import weights
from .errors import ChainKindError, WindowExceeded
from .monomial import MonomialIdeal, QuotientBasis, ScaledIdeal, _Frozen, as_fraction


@dataclass(frozen=True)
class JumpStep:
    level: Fraction
    ideal: MonomialIdeal


def _make_steps(model: weights.WeightModel, window: Fraction) -> tuple[JumpStep, ...]:
    """The steps of weights._strict_steps(model, window), made in one batch.

    Each step's ideal holds a slice of one array of generator rows, marked
    read-only once.  None of the objects made here can be part of a cycle,
    so the cyclic collector is paused while they are made; left running,
    it walks them again and again, about a fifth of the build's time.
    """
    keys, offsets, gens = weights._strict_steps(model, window)
    rows = model.exps[gens]
    rows.flags.writeable = False
    resume = gc.isenabled()
    gc.disable()
    try:
        bounds = offsets.tolist()
        return tuple(JumpStep(Fraction(v, model.denom), MonomialIdeal._of(rows[lo:hi]))
                     for v, lo, hi in zip(keys.tolist(), bounds, bounds[1:]))
    finally:
        if resume:
            gc.enable()


class JumpSet(weights._Table):
    """Sorted jump levels keys / denom in (0, window), distinct."""

    __slots__ = ("window", "periodic_tail")

    def __init__(self, denom: int, keys: np.ndarray, window: Fraction,
                 periodic_tail: bool = False):
        window = as_fraction(window)
        if window <= 0:
            raise ValueError("window must be positive")
        keys = np.asarray(keys, dtype=np.int64)
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("jump levels must be distinct and ascending")
        self._set(denom, keys, 0, weights._cut(window, denom),
                  f"jump level {{}} outside (0, {window})",
                  window=window, periodic_tail=periodic_tail)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(self._fractions())

    def to_json(self) -> dict:
        return {
            "window": str(self.window),
            "values": self.value_strings(),
            "periodic_tail": self.periodic_tail,
        }


class JumpChain(_Frozen):
    """A V- or J-mode chain of monomial ideals on [0, window).

    A view of one weight model: each step holds the ideal valid just after
    its level, so the final open segment up to the window is always
    represented.  Steps are made on each read of `steps`, in one batch
    from the integer step table of the model, and never kept.

    A read below the window asks for generators weighing up to 1 more,
    so a model whose cap is less than 1 above the window, which would
    miss some and answer wrongly, is refused here with WindowExceeded.
    """

    __slots__ = ("model", "mode", "window")

    def __init__(self, model: weights.WeightModel, mode: str, window: Fraction):
        if mode not in ("V", "J"):
            raise ChainKindError(f"unknown chain mode {mode!r}")
        window = as_fraction(window)
        if window <= 0:
            raise ValueError("window must be positive")
        need = weights._least_cap(window, model.denom, strict=False)
        if need > model.cap:
            raise WindowExceeded(f"window {window} needs a model cap of at least {need}, "
                                 f"not {model.cap}")
        self.__setstate__((None, {"model": model, "mode": mode, "window": window}))

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def top(self) -> MonomialIdeal:
        return MonomialIdeal.unit(self.model.dim)

    @property
    def steps(self) -> tuple[JumpStep, ...]:
        return _make_steps(self.model, self.window)

    @property
    def levels(self) -> tuple[Fraction, ...]:
        return jumpset_of(self).values

    def _check_window(self, alpha: Fraction) -> Fraction:
        alpha = as_fraction(alpha)
        if alpha < 0 or alpha >= self.window:
            raise WindowExceeded(f"alpha = {alpha} outside the computed window [0, {self.window})")
        return alpha

    def to_json(self) -> dict:
        steps = self.steps
        ideals = [s.ideal for s in steps]
        if self.mode == "V":  # a level carries the value of the segment ending there
            ideals.insert(0, self.top)
        jumps = [{"level": str(s.level), "ideal": i.to_json()} for s, i in zip(steps, ideals)]
        return {
            "mode": self.mode,
            "window": str(self.window),
            "dim": self.dim,
            "top": self.top.to_json(),
            "jumps": jumps,
        }

    def __eq__(self, other: object) -> bool:
        """Equal steps, read off the models: below the window, {w <= v} holds
        only rows lighter than the window, and such a row's weight is the first
        level whose ideal misses it, so the steps and those rows fix each other."""
        if not isinstance(other, JumpChain):
            return NotImplemented
        if (self.mode, self.window, self.dim) != (other.mode, other.window, other.dim):
            return False
        denom = lcm(self.model.denom, other.model.denom)
        (wa, ra), (wb, rb) = (weights._light_rows(c.model, self.window, denom)
                              for c in (self, other))
        return np.array_equal(wa, wb) and np.array_equal(self.model.exps[ra],
                                                         other.model.exps[rb])

    def __repr__(self) -> str:
        jumps = len(weights._levels_below(self.model, self.window))  # makes no step
        return (f"JumpChain(mode={self.mode!r}, window={self.window}, dim={self.dim}, "
                f"jumps={jumps})")


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
    return JumpChain(chain.model, "J", chain.window)


def graded_at(chain: JumpChain, alpha: Fraction) -> QuotientBasis:
    """Monomial basis of the graded piece at alpha; empty off jump levels."""
    if chain.mode != "V":
        raise ChainKindError("graded_at expects a V-mode chain")
    alpha = chain._check_window(alpha)
    return QuotientBasis(weights.graded_exponents(chain.model, alpha))


def jumpset_of(chain: JumpChain) -> JumpSet:
    model = chain.model
    return JumpSet(model.denom, weights._levels_below(model, chain.window), chain.window)


def usual_jumpset(microlocal: JumpSet, window: Fraction) -> JumpSet:
    """Jump set of the usual multiplier chain from the microlocal one.

    Below 1 the two sets agree, 1 is always a jump, and beyond 1 the set
    repeats with period 1: over the denominator D, the base (the microlocal
    keys below D, then D) shifted by s·D for s = 0, 1, .., cut at the window.
    """
    window = as_fraction(window)
    if microlocal.window < 1:
        raise WindowExceeded("need the microlocal jump set at least on (0, 1)")
    denom, keys = microlocal.denom, microlocal.keys
    base = np.append(keys[:np.searchsorted(keys, denom)], denom)
    last = ceil(window) - 1  # the last shift: for s < last, base + s·D is below the cut
    cut = weights._cut(window, denom)
    weights._admit_int64(cut + denom, "jump set below {} over denominator {}", window, denom)
    n = last * len(base) + int(np.searchsorted(base, cut - last * denom))
    # about 200 bytes a value once printed (188 measured)
    weights._admit(200 * n, "jump set below {}: {} values", window, n)
    shifts = np.arange(last + 1, dtype=np.int64)[:, None] * denom
    return JumpSet(denom, (base + shifts).ravel()[:n], window, periodic_tail=True)


def periodic_extend(chain: JumpChain, alpha: Fraction) -> ScaledIdeal:
    """Usual multiplier ideal at any alpha >= 0 as f^k times an ideal.

    Strips whole periods so the fractional part a lands in [0, 1), where
    a J-view reads V^{>a}, which is J(f^a) there; so any J-view answers,
    and one whose window does not pass a is refused with WindowExceeded.
    """
    if chain.mode != "J":
        raise ChainKindError("periodic_extend expects a J-mode chain")
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    k = alpha.numerator // alpha.denominator
    return ScaledIdeal(power=k, ideal=j_lookup(chain, alpha - k))
