"""Command-line surface: germ expressions, commands, verification suites.

The expression grammar is `term (+ term)*` where a term is
`[coeff *] name ^ exponent`; `(+)` is accepted as an explicit separated-sum
operator with the same meaning as `+`.  Every `+` here is a sum across
disjoint variables — the only sum the engine models — never addition
inside one variable's ring.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import string
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .convolution import irrationality_module, ts_convolve_chains, ts_multiplier
from .errors import GermParseError, OracleMismatch, TsmultError
from .filtration import graded_at, jumpset_of, periodic_extend, usual_jumpset
from .germs import (Germ, diagonal_microlocal_chain, diagonal_usual_chain,
                    lct, one_var_microlocal_chain)
from .monomial import MonomialIdeal, ScaledIdeal
from .oracles import (MonteCarloConfig, mc_case_set, monte_carlo_integrable,
                      summation_path)
from .spectral import consistency_check, one_var_eigentable, phi_convolve, spectrum_of

_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CONT = _IDENT_START | frozenset(string.digits)


@dataclass(frozen=True)
class Var:
    name: str
    exponent: int
    coefficient: Fraction = Fraction(1)


@dataclass(frozen=True)
class TSSum:
    left: "GermExpr"
    right: "GermExpr"


GermExpr = Union[Var, TSSum]


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(+)", i):
            out.append(_Token("plus", "(+)", i))
            i += 3
            continue
        if ch == "+":
            out.append(_Token("plus", "+", i))
            i += 1
            continue
        if ch in "^*/":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise GermParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.seen: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise GermParseError(f"expected {what}", tok.pos)
        return self.advance()

    def term(self) -> Var:
        coeff = Fraction(1)
        tok = self.peek()
        if tok.kind == "number":
            num_tok = self.advance()
            num = int(num_tok.text)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den = int(self.expect("number", "a denominator").text)
                if den == 0:
                    raise GermParseError("zero denominator", num_tok.pos)
            coeff = Fraction(num, den)
            if coeff == 0:
                raise GermParseError("coefficient must be nonzero", num_tok.pos)
            self.expect("*", "'*' after the coefficient")
            tok = self.peek()
        if tok.kind != "ident":
            raise GermParseError("expected a variable name", tok.pos)
        name_tok = self.advance()
        if name_tok.text in self.seen:
            raise GermParseError(f"repeated variable {name_tok.text!r}", name_tok.pos)
        self.seen[name_tok.text] = name_tok.pos
        self.expect("^", "'^' after the variable name")
        exp_tok = self.expect("number", "an integer exponent")
        exponent = int(exp_tok.text)
        if exponent < 2:
            raise GermParseError(f"exponent must be at least 2, got {exponent}",
                                 exp_tok.pos)
        return Var(name_tok.text, exponent, coeff)

    def expr(self) -> GermExpr:
        node: GermExpr = self.term()
        while self.peek().kind == "plus":
            self.advance()
            node = TSSum(node, self.term())
        tok = self.peek()
        if tok.kind != "end":
            raise GermParseError(f"unexpected {tok.text!r}", tok.pos)
        return node


def parse(text: str) -> GermExpr:
    return _Parser(text).expr()


def expr_vars(expr: GermExpr) -> list[Var]:
    if isinstance(expr, Var):
        return [expr]
    return expr_vars(expr.left) + expr_vars(expr.right)


def format_expr(expr: GermExpr) -> str:
    parts = []
    for v in expr_vars(expr):
        prefix = "" if v.coefficient == 1 else f"{v.coefficient}*"
        parts.append(f"{prefix}{v.name}^{v.exponent}")
    return " + ".join(parts)


def to_germ(expr: GermExpr) -> Germ:
    vs = expr_vars(expr)
    return Germ(tuple(v.exponent for v in vs),
                tuple(v.name for v in vs),
                tuple(v.coefficient for v in vs))


@dataclass
class Config:
    window: Fraction = Fraction(2)
    mc_seed: int = 0
    mc_shells: int = 12
    mc_samples: int = 20000
    output: str = "text"

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise TsmultError("window must be positive")
        if self.mc_shells <= 0 or self.mc_samples <= 0:
            raise TsmultError("bounds must be positive")


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _default_window() -> Fraction:
    raw = os.environ.get("TSMULT_WINDOW")
    if raw is None:
        return Fraction(2)
    try:
        window = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise TsmultError(f"bad TSMULT_WINDOW value {raw!r}") from exc
    if window <= 0:
        raise TsmultError(f"bad TSMULT_WINDOW value {raw!r}")
    return window


def _config(args: argparse.Namespace) -> Config:
    window = getattr(args, "window", None)
    if window is None:
        window = _default_window()
    seed = getattr(args, "seed", None)
    return Config(window=window,
                  mc_seed=0 if seed is None else seed,
                  output="json" if args.json else "text")


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _gens_text(ideal: MonomialIdeal) -> str:
    ordered = sorted(ideal.gens, reverse=True)
    return json.dumps([list(g) for g in ordered], separators=(",", ":"))


def cmd_lct(args: argparse.Namespace) -> int:
    germ = to_germ(parse(args.germ))
    value = lct(germ)
    _emit(args, {"lct": str(value)}, [str(value)])
    return 0


def cmd_jc(args: argparse.Namespace) -> int:
    cfg = _config(args)
    germ = to_germ(parse(args.germ))
    micro = jumpset_of(diagonal_microlocal_chain(germ, window=Fraction(1)))
    jumps = usual_jumpset(micro, cfg.window)
    _emit(args, jumps.to_json(), [str(v) for v in jumps.values])
    return 0


def _multiplier_ideal(germ: Germ, alpha: Fraction) -> ScaledIdeal:
    if alpha < 0:
        raise TsmultError("alpha must be nonnegative")
    if 0 < alpha < 1 and germ.dim >= 2:
        head = Germ(germ.exponents[:1], germ.var_names[:1], germ.coefficients[:1])
        tail = Germ(germ.exponents[1:], germ.var_names[1:], germ.coefficients[1:])
        chain1 = diagonal_microlocal_chain(head, window=Fraction(1))
        chain2 = diagonal_microlocal_chain(tail, window=Fraction(1))
        return ScaledIdeal(0, ts_multiplier(chain1, chain2, alpha))
    return periodic_extend(diagonal_usual_chain(germ), alpha)


def cmd_ideal(args: argparse.Namespace) -> int:
    germ = to_germ(parse(args.germ))
    scaled = _multiplier_ideal(germ, args.alpha)
    text = _gens_text(scaled.ideal)
    if scaled.power:
        lines = [f"power {scaled.power} gens {text}"]
    else:
        lines = [f"gens {text}"]
    _emit(args, scaled.to_json(), lines)
    return 0


def cmd_graded(args: argparse.Namespace) -> int:
    cfg = _config(args)
    germ = to_germ(parse(args.germ))
    chain = diagonal_microlocal_chain(germ, window=cfg.window)
    basis = graded_at(chain, args.alpha)
    exps = sorted(basis.exponents, reverse=True)
    payload = {"alpha": str(args.alpha), "dim": basis.dim,
               "exponents": [list(e) for e in exps]}
    lines = [f"dim {basis.dim}"]
    if exps:
        lines.append(f"exps {json.dumps([list(e) for e in exps], separators=(',', ':'))}")
    _emit(args, payload, lines)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    germ = to_germ(parse(args.germ))
    spectrum = spectrum_of(germ)
    _emit(args, spectrum.to_json(), [f"{v} {m}" for v, m in spectrum.entries])
    return 0


def cmd_eigen(args: argparse.Namespace) -> int:
    germ = to_germ(parse(args.germ))
    tables = [one_var_eigentable(m) for m in germ.exponents]
    table = functools.reduce(phi_convolve, tables)
    _emit(args, table.to_json(), [f"{a} {m}" for a, m in table.entries])
    return 0


def cmd_irrationality(args: argparse.Namespace) -> int:
    germ = to_germ(parse(args.germ))
    basis = irrationality_module(germ)
    exps = sorted(basis.exponents, reverse=True)
    payload = {"dim": basis.dim, "exponents": [list(e) for e in exps]}
    lines = [f"dim {basis.dim}"]
    if exps:
        lines.append(f"exps {json.dumps([list(e) for e in exps], separators=(',', ':'))}")
    _emit(args, payload, lines)
    return 0


def _suite_summation() -> list[dict]:
    cases = []
    for m1 in range(2, 6):
        for m2 in range(2, 6):
            den = m1 * m2
            for j in range(1, den):
                alpha = Fraction(j, den)
                record = {"case": f"summation ({m1},{m2}) alpha {alpha}", "ok": True}
                try:
                    summation_path(m1, m2, alpha)
                except OracleMismatch as exc:
                    record["ok"] = False
                    record["detail"] = str(exc)
                cases.append(record)
    return cases


def _suite_convolution() -> list[dict]:
    cases = []
    for m1 in range(2, 7):
        for m2 in range(2, 7):
            direct = diagonal_microlocal_chain(Germ((m1, m2)), window=Fraction(2))
            convolved = ts_convolve_chains(one_var_microlocal_chain(m1),
                                           one_var_microlocal_chain(m2))
            ok = convolved == direct
            record = {"case": f"convolution ({m1},{m2})", "ok": ok}
            if not ok:
                record["detail"] = "convolved chain differs from direct chain"
            cases.append(record)
    return cases


def _suite_spectral() -> list[dict]:
    cases = []
    germs: list[tuple[int, ...]] = []
    for m1 in range(2, 6):
        germs.append((m1,))
        for m2 in range(2, 6):
            germs.append((m1, m2))
            for m3 in range(2, 6):
                germs.append((m1, m2, m3))
    for ms in germs:
        report = consistency_check(Germ(ms))
        record = {"case": f"spectral {list(ms)}", "ok": report.ok}
        if not report.ok:
            record["detail"] = json.dumps(report.to_json())
        cases.append(record)
    return cases


def _suite_montecarlo(cfg: Config, count: int = 40) -> tuple[list[dict], float]:
    mc_config = MonteCarloConfig(shells=cfg.mc_shells, samples=cfg.mc_samples,
                                 seed=cfg.mc_seed)
    cases = []
    agree = 0
    for case in mc_case_set(count=count, seed=cfg.mc_seed + 1):
        evidence = monte_carlo_integrable(case.germ, case.nu, case.alpha, mc_config)
        want = "Integrable" if case.exact_integrable else "Divergent"
        ok = evidence["verdict"] == want
        agree += ok
        record = {
            "case": (f"montecarlo {list(case.germ.exponents)} nu {list(case.nu)} "
                     f"alpha {case.alpha}"),
            "ok": ok,
            "verdict": evidence["verdict"],
            "expected": want,
            "ratio": evidence["ratio"],
        }
        cases.append(record)
    return cases, agree / len(cases) if cases else 1.0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    names = ["summation", "convolution", "spectral", "montecarlo"]
    wanted = names if args.suite == "all" else [args.suite]
    suites = []
    all_ok = True
    for name in wanted:
        if name == "summation":
            cases = _suite_summation()
            ok = all(c["ok"] for c in cases)
        elif name == "convolution":
            cases = _suite_convolution()
            ok = all(c["ok"] for c in cases)
        elif name == "spectral":
            cases = _suite_spectral()
            ok = all(c["ok"] for c in cases)
        else:
            cases, rate = _suite_montecarlo(cfg)
            ok = rate >= 0.95
        passed = sum(c["ok"] for c in cases)
        entry = {"suite": name, "total": len(cases), "passed": passed, "ok": ok}
        if name == "montecarlo":
            entry["agreement"] = rate
        entry["cases"] = cases
        suites.append(entry)
        all_ok = all_ok and ok
    payload = {"ok": all_ok, "suites": suites}
    lines = []
    for entry in suites:
        for case in entry["cases"]:
            status = "PASS" if case["ok"] else "FAIL"
            detail = f" ({case['detail']})" if "detail" in case else ""
            lines.append(f"{status} {case['case']}{detail}")
        summary = f"{entry['suite']}: {entry['passed']}/{entry['total']} passed"
        if "agreement" in entry:
            summary += f", agreement {entry['agreement']:.3f}"
        lines.append(summary)
    _emit(args, payload, lines)
    return 0 if all_ok else 3


def _add_germ_command(sub, name: str, func: Callable[[argparse.Namespace], int],
                      help_text: str, alpha: bool = False,
                      window: bool = False) -> None:
    p = sub.add_parser(name, help=help_text)
    if alpha:
        p.add_argument("--alpha", type=_rat, required=True,
                       help="rational exponent, e.g. 5/6")
    if window:
        p.add_argument("--window", type=_rat, default=None,
                       help="computation window (default 2, env TSMULT_WINDOW)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("germ", help='germ expression, e.g. "z1^2 + z2^3"')
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsmult",
        description="Exact multiplier-ideal and V-filtration invariants of "
                    "sums of one-variable power germs.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_germ_command(sub, "lct", cmd_lct, "log canonical threshold")
    _add_germ_command(sub, "jc", cmd_jc, "jumping coefficients in the window",
                      window=True)
    _add_germ_command(sub, "ideal", cmd_ideal, "multiplier ideal at alpha",
                      alpha=True)
    _add_germ_command(sub, "graded", cmd_graded,
                      "graded piece of the microlocal chain at alpha",
                      alpha=True, window=True)
    _add_germ_command(sub, "spectrum", cmd_spectrum, "Hodge spectrum")
    _add_germ_command(sub, "eigen", cmd_eigen, "Milnor eigenvalue multiplicities")
    _add_germ_command(sub, "irrationality", cmd_irrationality,
                      "irrationality module (needs at least two variables)")
    v = sub.add_parser("verify", help="run cross-oracle verification suites")
    v.add_argument("--suite", default="all",
                   choices=["summation", "convolution", "spectral",
                            "montecarlo", "all"])
    v.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    v.add_argument("--json", action="store_true", help="emit JSON")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TsmultError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
