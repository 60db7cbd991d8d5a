"""Benchmark of the tsmult library and command line.

    python3 bench/run.py --workload chains --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads: chains, spectra, verify, cli-cold (see workloads.py and
BENCHMARK.json for why each exists).  A run is a closed loop with one
client: it repeats the workload's fixed, seeded set of operations (one
round) until it has measured for --seconds seconds.  A round holds at
least 100 distinct operations.  Each operation's wall and CPU time is its
median over the rounds; wall_s and cpu_s are the sums of those medians,
and op_p50_ms and op_p90_ms are taken over them, so op_p90_ms always has
ten samples beyond it.  Outputs are checked after each round, outside the
timed region.

Every time is reported at the reference speed: a fixed piece of work that
uses no tsmult code (measure.reference_seconds) runs before the first
operation of a round and after each one, outside their timed regions, and
each operation's time is scaled by measure.REFERENCE_S over the mean of
the two reference times around it.  Set-up times are scaled the same way
by reference times taken right after set-up.  This cancels the drift of
a shared host's CPU speed, which otherwise moves every time by a third
between runs minutes apart; a faster tsmult still reads as faster.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every public tsmult function wrapped, and prints
per-layer call counts, self times and sizes, plus the tracing overhead.

The package is imported from the src/ directory next to this one.  Lines
before the last print every metric by name with its unit, the sample
counts and the provenance; the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
HASH_SEED = "0"  # PYTHONHASHSEED of the benchmark and every child
SETUP_REFS = 21  # reference samples per probe

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("max_rss_mb", "MB"), ("ops_ok_frac", "frac"), ("setup_s", "s"))

_SIZED = {
    "weights.diagonal_model": ("box_rows", "atoms"),
    "weights.convolve": ("pairs", "atoms"),
    "weights.generators_at": ("gens",),
    "filtration.steps": ("levels",),
    "monomial.quotient_basis": ("grid_points", "basis"),
    "monomial.minimal_antichain": ("points_in",),
    "oracles.fm_feasible": ("constraints_in",),
    "oracles.monte_carlo_integrable": ("samples",),
    "spectral.spectrum_of": ("mu",),
}
_LAYERS = ("weights.diagonal_model", "weights.convolve", "weights.generators_at",
           "weights.achieved_levels", "weights.graded_exponents",
           "convolution.ts_convolve_chains", "convolution.ts_multiplier",
           "convolution.ts_graded", "convolution.irrationality_module",
           "convolution.alpha_one_sequence_check", "filtration.steps",
           "filtration.j_lookup", "filtration.periodic_extend", "filtration.graded_at",
           "monomial.quotient_basis", "monomial.minimal_antichain",
           "oracles.fm_feasible", "oracles.newton_membership", "oracles.summation_path",
           "oracles.monte_carlo_integrable", "oracles.mc_case_set",
           "spectral.spectrum_of", "spectral.phi_convolve", "spectral.fold_spectrum",
           "spectral.consistency_check", "germs.Germ", "germs.lct")
_YIELDS = (("weights.diagonal_model.atom_yield", "weights.diagonal_model.atoms",
            "weights.diagonal_model.box_rows"),
           ("weights.convolve.pair_yield", "weights.convolve.atoms", "weights.convolve.pairs"),
           ("monomial.quotient_basis.basis_yield", "monomial.quotient_basis.basis",
            "monomial.quotient_basis.grid_points"))
PER_LAYER = tuple(
    [(f"{layer}.{stat}", unit) for layer in _LAYERS
     for stat, unit in (("calls", "count"), ("ms", "ms"))]
    + [(f"{layer}.{size}", "count") for layer, sizes in _SIZED.items() for size in sizes]
    + [(name, "frac") for name, _, _ in _YIELDS]
    + [("cli.interpreter_ms", "ms"), ("cli.import_tsmult_ms", "ms"),
       ("cli.import_numpy_ms", "ms"), ("cli.command_ms", "ms"),
       ("cli.import_numpy_share", "frac"), ("chains.lookup_reuse_frac", "frac"),
       ("trace.overhead_frac", "frac")])


@dataclass
class Round:
    wall_s: float
    times: list[float]
    cpus: list[float]
    refs: list[float]  # reference times: before the first operation and after each
    outputs: list = field(repr=False)  # (output, error, state) per operation
    children: list = field(default_factory=list, repr=False)


def _cpu_now() -> float:
    # process_time has nanosecond resolution, where RUSAGE_SELF may advance
    # in scheduler ticks; children are accounted once they have been reaped
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_round(ops: list[workloads.Op]) -> Round:
    state: dict = {}
    times, cpus, outputs = [], [], []
    start = time.perf_counter()
    refs = [measure.reference_seconds()]
    for op in ops:
        # start every operation from the same collector state, so the
        # collections that fall inside it, and their cost, do not depend on
        # the operations before it, whose order the seed picks
        gc.collect()
        c0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            outputs.append((op.run(state), None))
        except Exception as exc:  # an operation that raises is a failed operation
            outputs.append((None, f"{op.label}: {type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0)
        cpus.append(_cpu_now() - c0)
        refs.append(measure.reference_seconds())
    wall = time.perf_counter() - start
    outputs = [(out, err, state) for out, err in outputs]
    return Round(wall, times, cpus, refs, outputs)


@dataclass
class Verdict:
    failed: int = 0
    wrong: int = 0
    messages: list[str] = field(default_factory=list)


def evaluate(ops: list[workloads.Op], rnd: Round, verdict: Verdict) -> None:
    """Check one round's outputs; count failed operations and wrong answers.

    A label with a tolerance (the Monte Carlo oracle) forgives disagreements
    while their share of that label's operations stays within it.
    """
    mismatches: dict[str, list[str]] = {}
    totals: dict[str, int] = {}
    for op, (out, err, state) in zip(ops, rnd.outputs):
        totals[op.label] = totals.get(op.label, 0) + 1
        if err is not None:
            verdict.failed += 1
            verdict.messages.append(err)
            continue
        try:
            problem = op.check(out, state)
        except workloads.Crash as crash:
            verdict.failed += 1
            verdict.messages.append(str(crash))
            continue
        if problem is not None:
            mismatches.setdefault(op.label, []).append(problem)
    for label, problems in mismatches.items():
        tolerance = next(op.tolerance for op in ops if op.label == label)
        if len(problems) <= tolerance * totals[label]:
            continue
        verdict.failed += len(problems)
        verdict.wrong += len(problems)
        verdict.messages += problems
    rnd.outputs = []


def measure_rounds(ops, seconds: float, after_round, verdict: Verdict,
                   tracer: measure.Tracer | None = None) -> list[Round]:
    """Repeat the round, traced if a tracer is given; check each round untraced."""
    rounds: list[Round] = []
    timed = 0.0
    while timed < seconds or not rounds:
        restore = measure.install_tracing(tracer) if tracer is not None else None
        try:
            rnd = run_round(ops)
        finally:
            if restore is not None:
                restore()
        timed += rnd.wall_s
        after_round(rnd)
        evaluate(ops, rnd, verdict)
        rounds.append(rnd)
    return rounds


def setup_probe(name: str, seed: int, t0: float) -> None:
    """Body of a set-up probe child: import, make inputs, warm up, report."""
    import tsmult  # noqa: F401
    workloads.make_ops(name, seed, ROOT)
    workloads.warm_up(name, ROOT)
    elapsed = time.monotonic() - t0
    ref = statistics.median(measure.reference_seconds() for _ in range(SETUP_REFS))
    print(repr(elapsed * measure.REFERENCE_S / ref))


def setup_seconds(name: str, seed: int) -> list[float]:
    """Launch-to-first-operation time of fresh processes, at the reference speed.

    CLOCK_MONOTONIC is system-wide, so the child can time from its launch.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        child = workloads.run_child(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--probe-t0", repr(t0)], dict(os.environ))
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.decode()[-400:]}")
        samples.append(float(child.stdout.decode().split()[-1]))
    return samples


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(name: str, seed: int, ops: list, rounds: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": name, "seed": seed, "ops_per_round": len(ops), "rounds": rounds,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": commit, "src_sha256": _source_digest()}


def op_median(rounds: list[Round], cpu: bool = False) -> list[float]:
    """Median wall or CPU time of each operation over the rounds, at the reference speed.

    The median over many rounds follows the typical time of the run.  The
    best time instead follows the rare fastest moment of the host, which an
    operation longer than a few milliseconds catches in some runs and not in
    others.
    """
    def scaled(r: Round) -> list[float]:
        return [t * measure.REFERENCE_S / ((before + after) / 2)
                for t, before, after in zip(r.cpus if cpu else r.times, r.refs, r.refs[1:])]

    return [statistics.median(samples) for samples in zip(*map(scaled, rounds))]


def end_to_end(name: str, rounds: list[Round], verdict: Verdict, setup: list[float]) -> dict:
    times = op_median(rounds)
    if not measure.reportable(len(times), 90):
        raise RuntimeError(f"{len(times)} operations are too few for a 90th percentile")
    if name == "cli-cold":
        rss_kb = max(out.maxrss_kb for out in _children(rounds))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": math.fsum(times),
            "cpu_s": math.fsum(op_median(rounds, cpu=True)),
            "op_p50_ms": 1000 * measure.percentile(times, 50),
            "op_p90_ms": 1000 * measure.percentile(times, 90),
            "max_rss_mb": rss_kb / 1024,
            "ops_ok_frac": 1 - verdict.failed / sum(len(r.times) for r in rounds),
            "setup_s": statistics.median(setup)}


def _children(rounds: list[Round]):
    return [c for r in rounds for c in r.children]


def per_layer(ops, plain: list[Round], traced: list[Round], tracer: measure.Tracer) -> dict:
    n = len(traced)
    values: dict[str, float] = {}
    for layer in _LAYERS:
        values[f"{layer}.calls"] = tracer.calls.get(layer, 0) / n
        values[f"{layer}.ms"] = 1000 * tracer.self_s.get(layer, 0.0) / n
    for layer, sizes in _SIZED.items():
        for size in sizes:
            values[f"{layer}.{size}"] = tracer.sizes.get(f"{layer}.{size}", 0) / n
    for out, num, den in _YIELDS:
        values[out] = values[num] / values[den] if values[den] else 0.0
    kids = [c.trace | {"wall_s": c.wall_s} for c in _children(traced) if c.trace]
    if kids:
        values["cli.interpreter_ms"] = 1000 * statistics.median(
            [k["wall_s"] - k["child_s"] for k in kids])
        values["cli.import_tsmult_ms"] = 1000 * statistics.median([k["import_s"] for k in kids])
        values["cli.import_numpy_ms"] = statistics.median(
            workloads.numpy_import_ms(ROOT) for _ in range(3))
        values["cli.command_ms"] = 1000 * statistics.median([k["command_s"] for k in kids])
        # the import is timed as measured, so the share is of the measured child time
        measured = [statistics.median(samples) for samples in zip(*(r.times for r in plain))]
        values["cli.import_numpy_share"] = (values["cli.import_numpy_ms"]
                                            / (1000 * measure.percentile(measured, 50)))
    else:
        for key in ("interpreter_ms", "import_tsmult_ms", "import_numpy_ms", "command_ms",
                    "import_numpy_share"):
            values[f"cli.{key}"] = 0.0
    lookups = sum(op.lookups for op in ops)
    values["chains.lookup_reuse_frac"] = sum(op.reused for op in ops) / lookups if lookups else 0.0
    values["trace.overhead_frac"] = math.fsum(op_median(traced)) / math.fsum(op_median(plain)) - 1
    return values


def keep_children(rnd: Round) -> None:
    rnd.children = [out for out, err, _ in rnd.outputs
                    if isinstance(out, workloads.Child)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup = [] if trace else setup_seconds(name, seed)
    import tsmult

    if not Path(tsmult.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"tsmult was imported from {tsmult.__file__}, not from {SRC}")
    ops = workloads.make_ops(name, seed, ROOT)
    workloads.warm_up(name, ROOT)
    # the benchmark's own objects (operations, expected answers) are left
    # out of every later collection, so they add nothing to tsmult's
    gc.collect()
    gc.freeze()
    verdict = Verdict()
    if not trace:
        rounds = measure_rounds(ops, seconds, keep_children, verdict)
        metrics = end_to_end(name, rounds, verdict, setup)
        units = dict(END_TO_END)
        all_rounds = rounds
    else:
        plain = measure_rounds(ops, seconds / 2, keep_children, verdict)
        tracer = measure.Tracer()
        traced_ops = workloads.make_ops(name, seed, ROOT, traced=True)

        def merge_child_traces(rnd: Round) -> None:
            keep_children(rnd)
            for child in rnd.children:
                if child.trace:
                    tracer.merge(child.trace["calls"], child.trace["self_s"],
                                 child.trace["sizes"])

        traced = measure_rounds(traced_ops, seconds / 2, merge_child_traces, verdict, tracer)
        metrics = per_layer(ops, plain, traced, tracer)
        units = dict(PER_LAYER)
        all_rounds = plain + traced
    attempted = sum(len(r.times) for r in all_rounds)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, unit in units.items():
        print(f"metric {key} {metrics[key]!r} {unit}")
    if not trace:
        print(f"metric ops_failed_frac {verdict.failed / attempted!r} frac")
    print(f"samples ops_per_round={len(ops)} rounds={len(all_rounds)} "
          f"beyond_p90={measure.samples_beyond(len(ops), 90)}")
    for message in verdict.messages[:20]:
        print(f"check {message}")
    print("provenance " + json.dumps(provenance(name, seed, ops, len(all_rounds))))
    print(json.dumps({"correct": verdict.wrong == 0, "attempted": attempted,
                      "failed": verdict.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, one child process at a time, and echo their reports."""
    results = {}
    for name in workloads.WORKLOADS:
        child = workloads.run_child(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            dict(os.environ), timeout=900)
        lines = child.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        if child.code != 0 or not lines:
            sys.stderr.write(child.stderr.decode())
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tsmult" / "__init__.py").is_file():
        print(f"error: no tsmult package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_t0 is not None:
        setup_probe(args.workload, args.seed, args.probe_t0)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes, and with them the layout and lookup speed of every
        # dict, change from process to process unless the seed is pinned;
        # unpinned, a run's small operations move by a tenth between runs.
        # The process replaces itself, so it starts no child.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
