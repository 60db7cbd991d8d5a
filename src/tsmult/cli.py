"""Command-line surface: germ expressions, commands, verification suites.

The expression grammar is `term (+ term)*` where a term is
`[coeff *] name ^ exponent`; `(+)` is accepted as an explicit separated-sum
operator with the same meaning as `+`.  Every `+` here is a sum across
disjoint variables — the only sum the engine models — never addition
inside one variable's ring.  A name is an ASCII letter or `_`, then ASCII
letters, digits or `_`; a number is a run of decimal digits (Unicode Nd,
so `٣` reads as 3 while `²` is an unexpected character).

Every rejected input, an argument argparse refuses included, ends in exit 2
and one `error: ` line on stderr; so does running out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

# Only what parsing needs loads here: each command imports its engine
# module once its input is read, so a cold call loads no module it does
# not run and a malformed germ loads none.
from .errors import GermParseError, OracleMismatch, TsmultError
from .germs import (DEFAULT_WINDOW, Germ, diagonal_microlocal_chain,
                    diagonal_usual_chain, lct, one_var_microlocal_chain)

if TYPE_CHECKING:
    from .monomial import QuotientBasis
    from .spectral import EigenTable, Spectrum

# One named group per token kind; `\d` is a decimal digit (Unicode Nd), so
# `int` reads every number, and a character no group matches is an error.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<plus>\(\+\)|\+)|(?P<op>[\^*/])"
                    r"|(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str) -> Germ:
    """The germ a text names, its terms in the order written."""
    tokens, i = [], 0  # (kind, text, position); an operator's kind is its text
    while i < len(text):
        match = _TOKEN.match(text, i)
        if match is None:
            raise GermParseError(f"unexpected character {text[i]!r}", i)
        if match.lastgroup != "space":
            kind = match[0] if match.lastgroup == "op" else match.lastgroup
            tokens.append((kind, match[0], i))
        i = match.end()
    tokens.append(("end", "", len(text)))
    at = 0

    def expect(kind: str, what: str) -> tuple[str, int]:
        nonlocal at
        if tokens[at][0] != kind:
            raise GermParseError(f"expected {what}", tokens[at][2])
        at += 1
        return tokens[at - 1][1:]

    terms = {}  # name -> (exponent, coefficient), in the order written
    while True:  # one term a pass: [coeff *] name ^ exponent, then `+` or the end
        coeff = Fraction(1)
        if tokens[at][0] == "number":
            _, num, num_pos = tokens[at]
            num, den = int(num), 1
            at += 1
            if tokens[at][0] == "/":
                at += 1
                den = int(expect("number", "a denominator")[0])
                if den == 0:
                    raise GermParseError("zero denominator", num_pos)
            coeff = Fraction(num, den)
            if coeff == 0:
                raise GermParseError("coefficient must be nonzero", num_pos)
            expect("*", "'*' after the coefficient")
        name, pos = expect("name", "a variable name")
        if name in terms:
            raise GermParseError(f"repeated variable {name!r}", pos)
        expect("^", "'^' after the variable name")
        exponent, pos = expect("number", "an integer exponent")
        exponent = int(exponent)
        if exponent < 2:
            raise GermParseError(f"exponent must be at least 2, got {exponent}", pos)
        terms[name] = (exponent, coeff)
        kind, word, pos = tokens[at]
        if kind == "end":
            exponents, coeffs = zip(*terms.values())
            return Germ(exponents, tuple(terms), coeffs)
        if kind != "plus":
            raise GermParseError(f"unexpected {word!r}", pos)
        at += 1


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {seed}")
    return seed


def _window(args: argparse.Namespace) -> Fraction:
    """The window of --window, which must be positive."""
    if args.window <= 0:
        raise TsmultError("window must be positive")
    return args.window


# A command returns its exit code and the lines it prints; a JSON document
# is one line.  main writes them.
Output = tuple[int, list[str]]


def _json(payload: dict) -> list[str]:
    return [json.dumps(payload, indent=2)]


def _basis(args: argparse.Namespace, basis: QuotientBasis, **head: str) -> Output:
    exps = basis.rows[::-1].tolist()  # the rows are lex-sorted and distinct
    if args.json:
        return 0, _json({**head, "dim": basis.dim, "exponents": exps})
    lines = [f"dim {basis.dim}"]
    if exps:
        lines.append(f"exps {json.dumps(exps, separators=(',', ':'))}")
    return 0, lines


def _table(args: argparse.Namespace, table: Spectrum | EigenTable) -> Output:
    """A spectrum or eigentable as JSON or as one "value mult" line per entry."""
    if args.json:
        return 0, _json(table.to_json())
    return 0, [f"{v} {m}" for v, m in zip(table.value_strings(), table.counts.tolist())]


def cmd_lct(args: argparse.Namespace) -> Output:
    value = str(lct(parse(args.germ)))
    return 0, _json({"lct": value}) if args.json else [value]


def cmd_jc(args: argparse.Namespace) -> Output:
    window = _window(args)
    germ = parse(args.germ)
    from .filtration import JumpSet, usual_jumpset
    from .spectral import spectrum_of
    # the microlocal jumps in (0, 1) are the spectral numbers there
    spectrum = spectrum_of(germ)
    below_one = spectrum.keys[spectrum.keys < spectrum.denom]
    jumps = usual_jumpset(JumpSet(spectrum.denom, below_one, Fraction(1)), window)
    return 0, _json(jumps.to_json()) if args.json else jumps.value_strings()


def cmd_ideal(args: argparse.Namespace) -> Output:
    germ = parse(args.germ)
    from .filtration import periodic_extend
    scaled = periodic_extend(diagonal_usual_chain(germ), args.alpha)
    if args.json:
        return 0, _json(scaled.to_json())
    power = f"power {scaled.power} " if scaled.power else ""
    gens = scaled.ideal.rows[::-1].tolist()  # the rows are lex-sorted and distinct
    return 0, [f"{power}gens {json.dumps(gens, separators=(',', ':'))}"]


def cmd_graded(args: argparse.Namespace) -> Output:
    window = _window(args)
    germ = parse(args.germ)
    from .filtration import graded_at
    chain = diagonal_microlocal_chain(germ, window=window)
    return _basis(args, graded_at(chain, args.alpha), alpha=str(args.alpha))


def cmd_spectrum(args: argparse.Namespace) -> Output:
    germ = parse(args.germ)
    from .spectral import spectrum_of
    return _table(args, spectrum_of(germ))


def cmd_eigen(args: argparse.Namespace) -> Output:
    germ = parse(args.germ)
    from .spectral import _eigentable_of
    return _table(args, _eigentable_of(germ.exponents))


def cmd_irrationality(args: argparse.Namespace) -> Output:
    germ = parse(args.germ)
    from .convolution import irrationality_module
    return _basis(args, irrationality_module(germ))


def _since(start: float) -> float:
    """Seconds since a time.perf_counter() reading, to the microsecond."""
    return round(time.perf_counter() - start, 6)


def _case(name: str, check: Callable[[], str | None]) -> dict:
    """One timed case of a suite: check returns None on a pass, else the detail."""
    start = time.perf_counter()
    detail = check()
    record = {"case": name, "ok": detail is None, "elapsed_s": _since(start)}
    if detail is not None:
        record["detail"] = detail
    return record


def _summation_mismatch(m1: int, m2: int, alpha: Fraction) -> str | None:
    from .oracles import summation_path
    try:
        summation_path(m1, m2, alpha)
    except OracleMismatch as exc:
        return str(exc)
    return None


def _suite_summation() -> list[dict]:
    return [_case(f"summation ({m1},{m2}) alpha {alpha}",
                  lambda: _summation_mismatch(m1, m2, alpha))
            for m1 in range(2, 6) for m2 in range(2, 6)
            for alpha in (Fraction(j, m1 * m2) for j in range(1, m1 * m2))]


def _convolution_mismatch(m1: int, m2: int) -> str | None:
    """The convolved chain's model against the box enumeration, its independent route."""
    from .convolution import ts_convolve_chains
    from .oracles import box_model
    model = ts_convolve_chains(one_var_microlocal_chain(m1), one_var_microlocal_chain(m2)).model
    if model != box_model((m1, m2), model.cap):
        return "convolved chain differs from the box enumeration"
    return None


def _suite_convolution() -> list[dict]:
    return [_case(f"convolution ({m1},{m2})", lambda: _convolution_mismatch(m1, m2))
            for m1 in range(2, 7) for m2 in range(2, 7)]


def _spectral_mismatch(ms: tuple[int, ...]) -> str | None:
    from .spectral import consistency_check
    report = consistency_check(Germ(ms))
    return None if report.ok else json.dumps(report.to_json())


def _suite_spectral() -> list[dict]:
    germs: list[tuple[int, ...]] = []
    for m1 in range(2, 6):
        germs.append((m1,))
        for m2 in range(2, 6):
            germs += [(m1, m2)] + [(m1, m2, m3) for m3 in range(2, 6)]
    return [_case(f"spectral {list(ms)}", lambda: _spectral_mismatch(ms)) for ms in germs]


def _suite_montecarlo(seed: int, count: int = 40) -> tuple[list[dict], bool, dict]:
    from .oracles import MonteCarloConfig, mc_case_set, monte_carlo_integrable
    mc_config = MonteCarloConfig(seed=seed)
    cases = []
    for case in mc_case_set(count=count, seed=seed + 1):
        start = time.perf_counter()
        evidence = monte_carlo_integrable(case.germ, case.nu, case.alpha, mc_config)
        want = "Integrable" if case.exact_integrable else "Divergent"
        cases.append({
            "case": (f"montecarlo {list(case.germ.exponents)} nu {list(case.nu)} "
                     f"alpha {case.alpha}"),
            "ok": evidence["verdict"] == want,
            "verdict": evidence["verdict"],
            "expected": want,
            "ratio": evidence["ratio"],
            "elapsed_s": _since(start),
        })
    rate = sum(c["ok"] for c in cases) / len(cases) if cases else 1.0
    return cases, rate >= 0.95, {"agreement": rate}


def _every_case(cases: list[dict]) -> tuple[list[dict], bool, dict]:
    return cases, all(c["ok"] for c in cases), {}


# name -> runner(seed): the cases, whether the suite passed, and extra report fields
_SUITES: dict[str, Callable[[int], tuple[list[dict], bool, dict]]] = {
    "summation": lambda seed: _every_case(_suite_summation()),
    "convolution": lambda seed: _every_case(_suite_convolution()),
    "spectral": lambda seed: _every_case(_suite_spectral()),
    "montecarlo": _suite_montecarlo,
}


def cmd_verify(args: argparse.Namespace) -> Output:
    wanted = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = []
    for name in wanted:
        start = time.perf_counter()
        cases, ok, extra = _SUITES[name](args.seed)
        suites.append({"suite": name, "total": len(cases),
                       "passed": sum(c["ok"] for c in cases), "ok": ok,
                       "elapsed_s": _since(start), **extra, "cases": cases})
    all_ok = all(entry["ok"] for entry in suites)
    code = 0 if all_ok else 3
    if args.json:
        return code, _json({"ok": all_ok, "suites": suites})
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
    return code, lines


def _add_germ_command(sub, name: str, func: Callable[[argparse.Namespace], Output],
                      help_text: str, alpha: bool = False,
                      window: bool = False) -> None:
    p = sub.add_parser(name, help=help_text)
    if alpha:
        p.add_argument("--alpha", type=_rat, required=True,
                       help="rational exponent, e.g. 5/6")
    if window:
        p.add_argument("--window", type=_rat, default=DEFAULT_WINDOW,
                       help=f"computation window (default {DEFAULT_WINDOW})")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("germ", help='germ expression, e.g. "z1^2 + z2^3"')
    p.set_defaults(func=func)


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose rejections raise, so main reports each in one line."""

    def error(self, message: str):
        raise TsmultError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    v.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    v.add_argument("--seed", type=_seed, default=0, help="Monte Carlo seed (nonnegative)")
    v.add_argument("--json", action="store_true", help="emit JSON")
    v.set_defaults(func=cmd_verify)
    return parser


def _write(lines: list[str]) -> None:
    """Write the lines to stdout in one piece; no lines write nothing.

    The bytes go to the binary layer until all are taken: an unbuffered
    stdout (python -u) may take part of a write to a pipe whose reader has
    gone and say so only in the count it returns, not by BrokenPipeError.
    """
    if not lines:
        return
    text = "\n".join(lines) + "\n"
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[binary.write(data):]


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, lines = args.func(args)
        _write(lines)
        sys.stdout.flush()  # a closed reader shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): send the unflushed rest to
        # devnull so the exit-time flush cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TsmultError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a backstop for builds whose peak outgrows the address space while
        # each table passes admission; numpy's message gives the failed size
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
