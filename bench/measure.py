"""Statistics and span tracing for the benchmark.

The tracer wraps the public functions of every ``tsmult`` module from the
outside, by rebinding each function object on every ``tsmult`` module that
holds it.  Nothing inside the package changes; the wrappers are installed
only for a traced run and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Sequence

import numpy

import reference

MIN_BEYOND = 10  # samples a reported percentile must have above it

# Typical time of reference_seconds() on the 2-vCPU x86-64 (Xeon) VM the
# benchmark was tuned on, so reported times read close to wall time there.
REFERENCE_S = 1.5e-3


def reference_seconds() -> float:
    """Time a fixed piece of work that uses no tsmult code.

    On a shared host the CPU speed drifts by a third or more, for
    milliseconds to minutes at a time, with the load of other tenants.
    The work mixes what tsmult spends its time on (making Fractions, dicts
    keyed by tuples, sorting, numpy array passes), so its time
    slows and speeds up with the host as an operation's does; dividing
    an operation's time by the reference times measured next to it
    cancels the host's speed, and what remains moves only with the
    operation's own work.
    """
    t0 = time.perf_counter()
    values = [Fraction(i * 7 % 1013, i + 1) for i in range(1, 400)]
    keyed = {(v.numerator % 17, i): v for i, v in enumerate(values)}
    sorted(keyed.values())
    numpy.unique(numpy.arange(12000) % 37)
    return time.perf_counter() - t0


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def reportable(n: int, p: float) -> bool:
    """A percentile is reported only with at least MIN_BEYOND samples beyond it."""
    return samples_beyond(n, p) >= MIN_BEYOND


class Tracer:
    """Span recorder that aggregates calls and self time per span name.

    A span's self time is its duration minus the time covered by its child
    spans.  ``exclude`` removes the tracer's own bookkeeping from the span
    that encloses it, so size counting does not inflate a parent's self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def exclude(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, key: str, value: float) -> None:
        self.sizes[key] += value

    def merge(self, calls: dict, self_s: dict, sizes: dict) -> None:
        for k, v in calls.items():
            self.calls[k] += v
        for k, v in self_s.items():
            self.self_s[k] += v
        for k, v in sizes.items():
            self.sizes[k] += v

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "sizes": dict(self.sizes)}


# -- size counters, computed from the arguments and results of public calls --

def _size_diagonal_model(t: Tracer, args, result) -> None:
    t.count("weights.diagonal_model.box_rows",
            reference.box_rows(args["ms"], args["cap"], args["usual"]))
    t.count("weights.diagonal_model.atoms", len(result.weight))


def _size_convolve(t: Tracer, args, result) -> None:
    t.count("weights.convolve.pairs", len(args["a"].weight) * len(args["b"].weight))
    t.count("weights.convolve.atoms", len(result.weight))


def _size_generators_at(t: Tracer, args, result) -> None:
    t.count("weights.generators_at.gens", len(result.gens))


def _size_quotient_basis(t: Tracer, args, result) -> None:
    big, small = args["big"], args["small"]
    if result.finite and not small.is_zero:
        bounds = [max(g[j] for g in big.gens + small.gens) for j in range(big.dim)]
        if all(bounds):
            t.count("monomial.quotient_basis.grid_points", math.prod(bounds))
            t.count("monomial.quotient_basis.basis", len(result.exponents))


def _size_fm_feasible(t: Tracer, args, result) -> None:
    t.count("oracles.fm_feasible.constraints_in", len(args["constraints"]))


def _size_monte_carlo(t: Tracer, args, result) -> None:
    t.count("oracles.monte_carlo_integrable.samples",
            result["samples"] * len(result["shells"]))


def _size_spectrum_of(t: Tracer, args, result) -> None:
    t.count("spectral.spectrum_of.mu", result.total)


def _size_steps(t: Tracer, args, result) -> None:
    t.count("filtration.steps.levels", len(result))


SIZERS = {
    "weights.diagonal_model": _size_diagonal_model,
    "weights.convolve": _size_convolve,
    "weights.generators_at": _size_generators_at,
    "monomial.quotient_basis": _size_quotient_basis,
    "oracles.fm_feasible": _size_fm_feasible,
    "oracles.monte_carlo_integrable": _size_monte_carlo,
    "spectral.spectrum_of": _size_spectrum_of,
    "filtration.steps": _size_steps,
}

MODULES = ("germs", "monomial", "weights", "filtration", "convolution",
           "spectral", "oracles", "cli")


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    sizer = SIZERS.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "monomial.minimal_antichain":
            # the argument may be a one-shot iterator: materialise it once
            args = (list(args[0]),) + args[1:]
            tracer.count("monomial.minimal_antichain.points_in", len(args[0]))
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if sizer is not None:
            t0 = tracer.clock()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sizer(tracer, bound.arguments, result)
            tracer.exclude(tracer.clock() - t0)
        return result

    return traced


def install_tracing(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public tsmult function; return a callable that unwraps them.

    Each wrapper replaces the original object on every tsmult module that
    binds it (the defining module, modules that imported it by name, and the
    package itself), so calls through any of those names are traced.
    """
    package = importlib.import_module("tsmult")
    modules = [package] + [importlib.import_module(f"tsmult.{m}") for m in MODULES]
    undo: list[tuple[object, str, object]] = []
    for short, mod in zip(MODULES, modules[1:]):
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            wrapper = _wrap(tracer, f"{short}.{attr}", fn)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        undo.append((holder, key, fn))
                        setattr(holder, key, wrapper)
    germs = importlib.import_module("tsmult.germs")
    filtration = importlib.import_module("tsmult.filtration")
    init = germs.Germ.__init__
    undo.append((germs.Germ, "__init__", init))
    germs.Germ.__init__ = _wrap(tracer, "germs.Germ", init)
    steps = filtration.JumpChain.steps
    undo.append((filtration.JumpChain, "steps", steps))
    filtration.JumpChain.steps = property(_wrap(tracer, "filtration.steps", steps.fget))

    def restore() -> None:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore
