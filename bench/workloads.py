"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed list of operations made from the seed (one round).
Every operation reads and writes a per-round ``state`` dict, so later
operations can reuse objects built by earlier ones, as a library user
would.  Each operation has a check that runs after the timed round against
a reference from ``reference.py`` or against a second, independent route
through tsmult.

Workloads are sized for a 2-core machine: one client, no threads, at most
one child process at a time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import resource
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import reference

BENCH_DIR = Path(__file__).resolve().parent
CLI_EXPECTED = BENCH_DIR / "cli_expected.json"
TRACE_MARK = "BENCH_TRACE "


class Crash(Exception):
    """Raised by a check when an operation failed without giving an answer."""


@dataclass
class Op:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    lookups: int = 0            # ideal lookups the operation makes
    reused: int = 0             # ... of which an already-built chain serves
    tolerance: float = 0.0      # share of this label's checks allowed to disagree


def _ts():
    # imported on use: run.py puts src/ on the path only after checking it exists
    import tsmult
    return tsmult


def _same(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


@functools.cache
def _gens(ms, alpha, strict, usual):
    return reference.generators(ms, alpha, strict, usual)


@functools.cache
def _level_set(ms, alpha):
    return reference.level_set(ms, alpha)


# --------------------------------------------------------------- chains

WINDOWS = (F(1), F(3, 2), F(2), F(3))
# Germ shapes are fixed so that every seed gives a round of the same cost;
# the seed permutes exponents and picks splits, lookup levels and order.
WIDE = ((5, 5, 5, 5, 5), (9, 9, 9, 9))   # box of 2^20 rows: the model build dominates
DEEP = ((50, 49), (12, 11, 10))          # thousands of levels: step materialisation dominates
SMALL = (((40, 3), F(1)), ((37, 5), F(3, 2)), ((23, 4), F(2)), ((17, 13), F(1)),
         ((8, 7), F(3)), ((29, 2), F(3)), ((7, 6, 5), F(3, 2)), ((11, 3, 2), F(2)),
         ((6, 5, 4), F(2)), ((9, 4, 3), F(1)), ((5, 4, 3, 2), F(3, 2)),
         ((6, 3, 3, 2), F(2)), ((4, 4, 3, 3), F(1)), ((3, 3, 2, 2, 2), F(3)),
         ((4, 3, 3, 2, 2), F(3, 2)), ((2, 2, 2, 2, 2), F(2)), ((41, 5), F(3, 2)),
         ((9, 8), F(3)), ((19, 13), F(1)), ((8, 6, 5), F(3, 2)), ((29, 4), F(2)),
         ((7, 5, 4), F(2)), ((31, 6), F(3, 2)), ((10, 7), F(3)))
SPLITS = 8


def _achieved_level(rng: random.Random, ms, window: F) -> F:
    """Microlocal weight of a random exponent below the window.

    When even z^0 weighs at least the window, any level below it has an
    empty graded piece; a random one is returned.
    """
    nu = [0] * len(ms)
    level = sum(reference.weight(m, 0, False) for m in ms)
    if level >= window:
        return F(rng.randrange(1, int(120 * window)), 120)
    for _ in range(rng.randint(0, 6)):
        j = rng.randrange(len(ms))
        step = reference.weight(ms[j], nu[j] + 1, False) - reference.weight(ms[j], nu[j], False)
        if level + step < window:
            nu[j] += 1
            level += step
    return level


def _chain_ops(rng: random.Random, gi: int, ms: tuple[int, ...], window: F,
               cut: int | None = None) -> list[Op]:
    ts = _ts()
    cut = rng.randint(1, len(ms) - 1) if cut is None else cut
    key = (gi,)

    def direct(state):
        chain = ts.diagonal_microlocal_chain(ts.Germ(ms), window)
        state[key + ("chain",)] = chain
        return ts.jumpset_of(chain).values

    def convolve(state):
        c1 = ts.diagonal_microlocal_chain(ts.Germ(ms[:cut]), window)
        c2 = ts.diagonal_microlocal_chain(ts.Germ(ms[cut:]), window)
        state[key + ("factors",)] = (c1, c2)
        chain = ts.ts_convolve_chains(c1, c2)
        chain.steps
        return chain

    def sumset(state):
        c1, c2 = state[key + ("factors",)]
        return ts.ts_jumpset(ts.jumpset_of(c1), ts.jumpset_of(c2), window).values

    def check_direct(values, state):
        return _same(values, sumset(state), f"{ms} jump levels vs factor sumset")

    def check_convolve(chain, state):
        if chain != state[key + ("chain",)]:
            return f"{ms} convolved chain differs from the direct chain"
        return _same(tuple(s.level for s in chain.steps), sumset(state),
                     f"{ms} convolved step levels vs factor sumset")

    lookups = []  # (kind, alpha, served by an already-built chain)
    for _ in range(2):
        lookups.append(("ts_multiplier", F(rng.randint(1, 119), 120), True))
    for _ in range(2):
        lookups.append(("j_lookup", F(rng.randrange(0, int(120 * window)), 120), True))
    for i in range(2):
        lookups.append(("periodic_extend", F(rng.randrange(0, 360), 120), i > 0))

    def lookup(state):
        c1, c2 = state[key + ("factors",)]
        out = []
        for kind, alpha, _ in lookups:
            if kind == "ts_multiplier":
                out.append(ts.ts_multiplier(c1, c2, alpha).gens)
            elif kind == "j_lookup":
                out.append(ts.j_lookup(ts.v_to_j(state[key + ("chain",)]), alpha).gens)
            else:
                usual = state.get(key + ("usual",))
                if usual is None:
                    usual = state[key + ("usual",)] = ts.diagonal_usual_chain(ts.Germ(ms))
                scaled = ts.periodic_extend(usual, alpha)
                out.append((scaled.power, scaled.ideal.gens))
        return out

    def check_lookup(out, state):
        for got, (kind, alpha, _) in zip(out, lookups):
            if kind == "j_lookup":
                want = _gens(ms, alpha, True, False)
            else:
                k = alpha.numerator // alpha.denominator
                want = _gens(ms, alpha - k, True, True)
                if kind == "periodic_extend":
                    want = (k, want)
            if got != want:
                return f"{ms} {kind} at {alpha}: got {got!r}, want {want!r}"
        return None

    level = _achieved_level(rng, ms, window)

    def graded(state):
        c1, c2 = state[key + ("factors",)]
        basis = ts.graded_at(state[key + ("chain",)], level).exponents
        return basis, sum(s.dim for s in ts.ts_graded(c1, c2, level))

    def check_graded(out, state):
        want = _level_set(ms, level)
        return _same(tuple(sorted(out[0])), want, f"{ms} graded piece at {level}") or \
            _same(out[1], len(want), f"{ms} paired graded dim at {level}")

    return [Op("chains.direct", direct, check_direct),
            Op("chains.convolve", convolve, check_convolve),
            Op("chains.lookup", lookup, check_lookup,
               lookups=len(lookups), reused=sum(r for _, _, r in lookups)),
            Op("chains.graded", graded, check_graded)]


def _split_ops(rng: random.Random) -> list[Op]:
    ts = _ts()
    d1 = rng.randint(1, 2)
    d2 = rng.randint(1, 3 - d1)
    ms1 = tuple(rng.randint(2, 7) for _ in range(d1))
    ms2 = tuple(rng.randint(2, 7) for _ in range(d2))
    count = reference.irrationality_count(ms1 + ms2)

    def split(state):
        report = ts.alpha_one_sequence_check(ts.Germ(ms1), ts.Germ(ms2))
        return (ts.irrationality_dim(ts.Germ(ms1 + ms2)), report.consistent,
                report.irrationality_dim)

    return [Op("chains.split", split,
               lambda got, state: _same(got, (count, True, count),
                                        f"irrationality and alpha-one check {ms1}|{ms2}"))]


def chains(seed: int) -> list[Op]:
    rng = random.Random(f"chains:{seed}")
    ops = []
    # Wide and deep germs come first, in a fixed order and split in the
    # middle: their cost, the peak RSS of their model builds and the
    # garbage they leave for the collector then do not depend on the seed.
    for ms in WIDE + DEEP:
        ops += _chain_ops(rng, len(ops), tuple(rng.sample(ms, len(ms))), F(2), len(ms) // 2)
    small = list(SMALL)
    rng.shuffle(small)
    for ms, window in small:
        ops += _chain_ops(rng, len(ops), tuple(rng.sample(ms, len(ms))), window)
    for _ in range(SPLITS):
        ops += _split_ops(rng)
    return ops


def chains_warm_up() -> None:
    state: dict = {}
    for op in _chain_ops(random.Random(0), 0, (2, 3), F(2)) + _split_ops(random.Random(0)):
        op.run(state)


# --------------------------------------------------------------- spectra

# Fixed shapes, as in chains: the seed permutes exponents and the order.
BIG_SPECTRA = ((9, 9, 9, 9, 9), (22, 21, 20))               # mu = 32768 and 7980
MID_SPECTRA = ((5, 5, 5, 5, 5), (11, 11, 11), (9, 9, 17), (33, 33))  # mu about 1000
SMALL_SPECTRA = ((11,), (31,), (41,), (3, 6), (5, 9), (7, 8), (12, 13), (17, 19),
                 (3, 4, 5), (4, 4, 4), (3, 3, 7), (5, 6, 7), (2, 8, 9), (6, 6, 6),
                 (3, 3, 3, 3), (2, 3, 4, 5), (3, 4, 4, 4), (4, 4, 4, 4),
                 (3, 3, 3, 3, 3), (2, 3, 3, 3, 3))                  # mu from 10 to 288
# consistency_check repeats spectrum_of, fold_spectrum and the phi product,
# which the round already times on the same germ.  Above this mu the repeat
# would double the round, and with it halve the rounds a run can repeat.
CONSISTENCY_MAX_MU = 4096


def _spectral_ops(gi: int, ms: tuple[int, ...]) -> list[Op]:
    ts = _ts()
    key = (gi,)
    mu = math.prod(m - 1 for m in ms)

    def spectrum(state):
        state[key] = ts.spectrum_of(ts.Germ(ms))
        return state[key].total

    def fold(state):
        # drop the spectrum once folded: a round keeps only small tables
        # alive, so collector passes cost the same whatever the germ order
        state[key] = ts.fold_spectrum(state.pop(key))
        return state[key]

    def phi(state):
        return functools.reduce(ts.phi_convolve, [ts.one_var_eigentable(m) for m in ms])

    def check_phi(table, state):
        return _same(table.total, mu, f"{ms} eigentable total") or \
            _same(table, state[key], f"{ms} eigentable vs folded spectrum")

    ops = [Op("spectra.spectrum_of", spectrum,
              lambda total, state: _same(total, mu, f"{ms} spectrum total vs Milnor number")),
           Op("spectra.fold_spectrum", fold,
              lambda table, state: _same(table.total, mu, f"{ms} folded total")),
           Op("spectra.phi_convolve", phi, check_phi)]
    if mu <= CONSISTENCY_MAX_MU:
        ops.append(Op("spectra.consistency_check",
                      lambda state: ts.consistency_check(ts.Germ(ms)).ok,
                      lambda ok, state: None if ok else f"{ms} consistency check failed"))
    return ops


def spectra(seed: int) -> list[Op]:
    rng = random.Random(f"spectra:{seed}")
    germs = [tuple(rng.sample(ms, len(ms))) for ms in BIG_SPECTRA + MID_SPECTRA + SMALL_SPECTRA]
    rng.shuffle(germs)
    return [op for gi, ms in enumerate(germs) for op in _spectral_ops(gi, ms)]


def spectra_warm_up() -> None:
    state: dict = {}
    for op in _spectral_ops(0, (2, 3, 4)):
        op.run(state)


# --------------------------------------------------------------- verify

MC_PER_DIM = 10
MC_AGREEMENT = 0.95


def verify(seed: int) -> list[Op]:
    ts = _ts()
    rng = random.Random(f"verify:{seed}")
    mc_seed = seed % 2**31  # numpy generators take nonnegative seeds only
    ops: list[Op] = []
    pairs = [(m1, m2) for m1 in range(2, 8) for m2 in range(2, 8)]
    rng.shuffle(pairs)
    for i, (m1, m2) in enumerate(pairs):
        alpha = F(rng.randint(1, m1 * m2 - 1), m1 * m2)

        def summation(state, i=i, m1=m1, m2=m2, alpha=alpha):
            state[("sum", i)] = ts.summation_path(m1, m2, alpha)
            return state[("sum", i)]

        def multiplier(state, m1=m1, m2=m2, alpha=alpha):
            chains = state.setdefault("one_var", {})
            for m in (m1, m2):
                if m not in chains:
                    chains[m] = ts.one_var_microlocal_chain(m, window=F(1))
            return ts.ts_multiplier(chains[m1], chains[m2], alpha)

        ops.append(Op("verify.summation_path", summation, lambda ideal, state: None))
        ops.append(Op("verify.ts_multiplier", multiplier,
                      lambda ideal, state, i=i, case=(m1, m2, alpha): _same(
                          ideal, state.get(("sum", i)), f"J{case} vs summation route")))
    for m1 in range(2, 7):
        for m2 in range(2, 7):
            window = WINDOWS[(3 * m1 + m2) % len(WINDOWS)]  # fixed, so seeds cost the same
            key = ("direct", m1, m2)

            def direct(state, m1=m1, m2=m2, window=window, key=key):
                state[key] = ts.diagonal_microlocal_chain(ts.Germ((m1, m2)), window)
                return state[key]

            def convolved(state, m1=m1, m2=m2, window=window):
                return ts.ts_convolve_chains(ts.one_var_microlocal_chain(m1, window),
                                             ts.one_var_microlocal_chain(m2, window))

            ops.append(Op("verify.direct_chain", direct, lambda chain, state: None))
            ops.append(Op("verify.convolved_chain", convolved,
                          lambda chain, state, key=key: None if chain == state.get(key)
                          else f"convolved chain {key[1:]} differs from direct"))

    def cases(state):
        drawn = ts.mc_case_set(count=6 * MC_PER_DIM, seed=mc_seed)
        picked = [c for c in drawn if c.germ.dim == 1][:MC_PER_DIM] \
            + [c for c in drawn if c.germ.dim == 2][:MC_PER_DIM]
        state["mc"] = picked
        return len(picked)

    ops.append(Op("verify.mc_case_set", cases,
                  lambda n, state: _same(n, 2 * MC_PER_DIM, "Monte Carlo case count")))
    for k in range(2 * MC_PER_DIM):
        def monte_carlo(state, k=k):
            case = state["mc"][k]
            evidence = ts.monte_carlo_integrable(case.germ, case.nu, case.alpha,
                                                 ts.MonteCarloConfig(seed=mc_seed))
            want = "Integrable" if case.exact_integrable else "Divergent"
            return evidence["verdict"], want

        ops.append(Op("verify.monte_carlo", monte_carlo,
                      lambda got, state: _same(got[0], got[1], "Monte Carlo verdict"),
                      tolerance=1 - MC_AGREEMENT))
    return ops


def verify_warm_up() -> None:
    ts = _ts()
    ts.summation_path(2, 3, F(1, 2))
    ts.ts_convolve_chains(ts.one_var_microlocal_chain(2), ts.one_var_microlocal_chain(3))
    case = ts.mc_case_set(count=1, seed=0)[0]
    ts.monte_carlo_integrable(case.germ, case.nu, case.alpha)


# --------------------------------------------------------------- cli-cold

CLI_GERMS = ("x^2+y^3", "z1^2 + z2^3 + z3^5", "2*x^2 (+) 1/3*y^5", "x^3+y^3+z^3",
             "a^4+b^5", "w^4", "x^2+y^2+z^2", "u^3+v^4+w^5", "x^5+y^6", "p^2+q^7")
CLI_QUERIES = {
    "lct": [[]],
    "jc": [["--window", w] for w in ("1", "2", "5/2")],
    "ideal": [["--alpha", a] for a in ("1/2", "5/6", "11/6")],
    "graded": [["--alpha", a, "--window", "2"] for a in ("5/6", "1", "7/6")],
    "spectrum": [[]],
    "eigen": [[]],
    "irrationality": [[]],
}
CLI_MALFORMED = (["lct", "x^1"], ["lct", "x^2+x^3"], ["jc", "x^2 +* y^3"], ["eigen", "x^"],
                 ["spectrum", "2*"], ["ideal", "--alpha", "1/0", "x^2+y^3"],
                 ["graded", "--alpha", "1/2", "0*x^2+y^3"], ["irrationality", "x^2 y^3"])
CLI_PER_QUERY = 13          # 7 query commands x 13 + 5 malformed + 4 oversized = 100
CLI_MALFORMED_PER_ROUND = 5
CLI_OVERSIZED_PER_KIND = 2
OVERSIZED_AS_BYTES = 1 << 30  # address-space cap on oversized children only
CHILD_TIMEOUT_S = 120


def _cli_germs(command: str) -> list[str]:
    # the irrationality module is defined for two or more variables only
    return [g for g in CLI_GERMS if command != "irrationality" or "+" in g]


def _cli_queries(command: str) -> list[list[str]]:
    return [[command, *extra, *(["--json"] if as_json else []), germ]
            for germ in _cli_germs(command) for extra in CLI_QUERIES[command]
            for as_json in (False, True)]


def cli_catalogue() -> list[list[str]]:
    """Every well-formed or malformed argv the workload can draw."""
    return [argv for command in CLI_QUERIES for argv in _cli_queries(command)] \
        + [list(a) for a in CLI_MALFORMED]


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    wall_s: float
    trace: dict | None = None


def run_child(argv: list[str], env: dict, limit_as: int | None = None,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; collect its output and its own rusage."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))

    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env,
                            preexec_fn=limit if limit_as else None)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = timeout - (time.perf_counter() - t0)
            if remaining <= 0:
                proc.kill()
                remaining = None
            for sk, _ in sel.select(remaining):
                data = os.read(sk.fd, 1 << 16)
                if data:
                    chunks[sk.fileobj].append(data)
                else:
                    sel.unregister(sk.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                 usage.ru_maxrss, wall)


def cli_env(root: Path) -> dict:
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")


def _cli_prefix(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "cli_child.py")]
    return [sys.executable, "-m", "tsmult"]


def _split_trace(child: Child) -> Child:
    """Move the traced child's report line out of its stderr."""
    text = child.stderr.decode(errors="replace")
    start = text.rfind(TRACE_MARK)
    if start >= 0:
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        child.trace = json.loads(text[start + len(TRACE_MARK):end])
        child.stderr = (text[:start] + text[end + 1:]).encode()
    return child


def _cli_op(label: str, argv: list[str], env: dict, traced: bool,
            check: Callable[[Child], str | None], limit_as: int | None = None) -> Op:
    def run(state):
        child = run_child(_cli_prefix(traced) + argv, env, limit_as)
        return _split_trace(child) if traced else child

    def checked(child, state):
        if b"Traceback" in child.stderr:
            raise Crash(f"{argv}: traceback (exit {child.code})")
        return check(child)

    return Op(label, run, checked)


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect_recorded(argv: list[str], expected: dict) -> Callable[[Child], str | None]:
    want = expected[json.dumps(argv)]

    def check(child: Child) -> str | None:
        if child.code != want["exit"]:
            raise Crash(f"{argv}: exit {child.code}, want {want['exit']}")
        return _same(stdout_digest(child.stdout), want["stdout_sha256"], f"{argv} stdout digest")

    return check


def _expect_refused_or(argv: list[str],
                       first_line: Callable[[], str]) -> Callable[[Child], str | None]:
    """An oversized input must be refused (exit 2) or answered correctly (exit 0)."""
    def check(child: Child) -> str | None:
        if child.code == 2:
            return None
        if child.code == 0:
            got = child.stdout.decode().split("\n", 1)[0]
            return _same(got, first_line(), f"{argv} first output line")
        raise Crash(f"{argv}: exit {child.code}, want 0 or 2")

    return check


def cli_cold(seed: int, root: Path, traced: bool = False) -> list[Op]:
    rng = random.Random(f"cli-cold:{seed}")
    env = cli_env(root)
    expected = json.loads(CLI_EXPECTED.read_text())
    ops = []
    for command in CLI_QUERIES:
        for argv in rng.sample(_cli_queries(command), CLI_PER_QUERY):
            ops.append(_cli_op(f"cli.{command}", argv, env, traced,
                               _expect_recorded(argv, expected)))
    for argv in rng.sample(CLI_MALFORMED, CLI_MALFORMED_PER_ROUND):
        ops.append(_cli_op("cli.malformed", list(argv), env, traced,
                           _expect_recorded(list(argv), expected)))
    for _ in range(CLI_OVERSIZED_PER_KIND):
        ms = tuple(rng.randint(200, 210) for _ in range(3))
        argv = ["irrationality", "x^%d+y^%d+z^%d" % ms]
        ops.append(_cli_op("cli.oversized", argv, env, traced, _expect_refused_or(
            argv, lambda ms=ms: f"dim {reference.irrationality_count(ms)}"), OVERSIZED_AS_BYTES))
        m = 2 * rng.randint(12_000, 13_000)
        argv = ["ideal", "--alpha", "1/2", f"x^{m}+y^{m}"]
        ops.append(_cli_op("cli.oversized", argv, env, traced, _expect_refused_or(
            argv, lambda m=m: reference.half_ideal_line(m)), OVERSIZED_AS_BYTES))
    rng.shuffle(ops)
    return ops


def cli_warm_up(root: Path) -> None:
    run_child(_cli_prefix(False) + ["lct", "x^2+y^3"], cli_env(root))


def numpy_import_ms(root: Path) -> float:
    """Cumulative import time of numpy in a cold CLI call, from -X importtime."""
    child = run_child([sys.executable, "-X", "importtime", "-m", "tsmult", "lct", "x^2+y^3"],
                      cli_env(root))
    for line in child.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1000.0
    raise RuntimeError("numpy is missing from the -X importtime report")


# --------------------------------------------------------------- registry

WORKLOADS = ("chains", "spectra", "verify", "cli-cold")


def make_ops(name: str, seed: int, root: Path, traced: bool = False) -> list[Op]:
    if name == "chains":
        return chains(seed)
    if name == "spectra":
        return spectra(seed)
    if name == "verify":
        return verify(seed)
    return cli_cold(seed, root, traced)


def warm_up(name: str, root: Path) -> None:
    if name == "chains":
        chains_warm_up()
    elif name == "spectra":
        spectra_warm_up()
    elif name == "verify":
        verify_warm_up()
    else:
        cli_warm_up(root)
