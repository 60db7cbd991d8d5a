"""Diagonal hypersurface germs and their closed-form filtrations.

A germ is a sum of pure powers in distinct variables, f = sum of
c_j * z_j^{m_j} with every m_j >= 2.  All invariants computed here are
functions of the exponent list alone; coefficients are carried for
display and proven irrelevant by the weighted-homogeneous scaling
action, which the test suite asserts literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from . import weights
from .errors import GermUnsupported, WindowExceeded
from .filtration import JumpChain, v_to_j
from .monomial import Rat, as_fraction

DEFAULT_WINDOW = Fraction(2)
_ONE = Fraction(1)  # shared by default coefficients and lct; Fractions are immutable


def one_var_weight(m: int, k: int, usual: bool = False) -> Rat:
    """Largest level at which z^k still lies in the one-variable filtration.

    The microlocal weight is (k + 1 + floor(k/(m-1)))/m; the usual
    (Newton) weight is (k + 1)/m and agrees with it below 1.
    """
    if m < 2:
        raise GermUnsupported(f"exponent {m} < 2: a linear factor is smooth, not modeled")
    if k < 0:
        raise ValueError("monomial exponent must be nonnegative")
    if usual:
        return Fraction(k + 1, m)
    return Fraction(k + 1 + k // (m - 1), m)


@dataclass(frozen=True)
class Germ:
    exponents: tuple[int, ...]
    var_names: tuple[str, ...] = ()
    coefficients: tuple[Rat, ...] = ()

    def __post_init__(self):
        ms = tuple(int(m) for m in self.exponents)
        if not ms:
            raise GermUnsupported("a germ needs at least one variable")
        if any(m < 2 for m in ms):
            raise GermUnsupported(f"all exponents must be >= 2, got {ms}")
        names = self.var_names or tuple(f"z{j + 1}" for j in range(len(ms)))
        if len(names) != len(ms):
            raise GermUnsupported("variable count does not match exponent count")
        if len(set(names)) != len(names):
            raise GermUnsupported(f"variable names must be distinct, got {names}")
        if self.coefficients:
            coeffs = tuple(as_fraction(c) for c in self.coefficients)
            if len(coeffs) != len(ms):
                raise GermUnsupported("coefficient count does not match exponent count")
            if any(c == 0 for c in coeffs):
                raise GermUnsupported("coefficients must be nonzero")
        else:
            coeffs = (_ONE,) * len(ms)
        object.__setattr__(self, "exponents", ms)
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        terms = []
        for c, name, m in zip(self.coefficients, self.var_names, self.exponents):
            lead = "" if c == 1 else f"{c}*"
            terms.append(f"{lead}{name}^{m}")
        return " + ".join(terms)


def ts_sum(left: Germ, right: Germ) -> Germ:
    """Sum in disjoint variables; the variable sets must not overlap."""
    if set(left.var_names) & set(right.var_names):
        raise GermUnsupported("summands of a disjoint-variable sum share variable names")
    return Germ(left.exponents + right.exponents,
                left.var_names + right.var_names,
                left.coefficients + right.coefficients)


def diagonal_microlocal_chain(germ: Germ, window: Fraction = DEFAULT_WINDOW) -> JumpChain:
    """Left-continuous microlocal chain: membership of z^nu at level a
    is sum_j w(m_j, nu_j) >= a, with w the one-variable microlocal weight."""
    window = Fraction(window)
    return JumpChain(weights.diagonal_model(germ.exponents, cap=window + 2), "V", window)


def one_var_microlocal_chain(m: int, window: Fraction = DEFAULT_WINDOW) -> JumpChain:
    return diagonal_microlocal_chain(Germ((m,), ("z",)), window)


def diagonal_usual_chain(germ: Germ, window: Fraction = Fraction(1)) -> JumpChain:
    """Right-continuous usual multiplier chain on [0, window), window <= 1.

    The right-continuous view of the microlocal model: J(f^alpha) is
    V^{>alpha} for alpha < 1, and both weights agree on every exponent
    lighter than 1.  Past 1 the usual chain is no longer monomial and is
    reached through periodic_extend.
    """
    window = Fraction(window)
    if window > 1:
        raise WindowExceeded("usual chains are monomial on [0, 1) only; "
                             "use periodic_extend beyond")
    return v_to_j(diagonal_microlocal_chain(germ, window))


def one_var_usual_chain(m: int, window: Fraction = Fraction(1)) -> JumpChain:
    return diagonal_usual_chain(Germ((m,), ("z",)), window)


def alpha_tilde(germ: Germ) -> Rat:
    """Minimal achieved level of the microlocal chain: sum of 1/m_j."""
    denom = lcm(*germ.exponents)
    return Fraction(sum(denom // m for m in germ.exponents), denom)


def lct(germ: Germ) -> Rat:
    """Log canonical threshold: the minimal level clamped at 1."""
    return min(_ONE, alpha_tilde(germ))


def milnor_number(germ: Germ) -> int:
    return prod(m - 1 for m in germ.exponents)
