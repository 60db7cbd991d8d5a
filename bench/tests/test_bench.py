"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = measure.Tracer(clock)
    tracer.enter("parent")
    clock.now = 1.0
    tracer.enter("child")
    clock.now = 3.0
    tracer.exit()             # child: 2 s
    clock.now = 3.5
    tracer.enter("child")
    clock.now = 4.0
    tracer.exit()             # child: 0.5 s
    clock.now = 10.0
    assert tracer.exit() == 10.0
    assert tracer.calls == {"parent": 1, "child": 2}
    assert tracer.self_s["child"] == pytest.approx(2.5)
    assert tracer.self_s["parent"] == pytest.approx(10.0 - 2.5)


def test_self_time_counts_only_direct_children():
    clock = FakeClock()
    tracer = measure.Tracer(clock)
    tracer.enter("a")
    tracer.enter("b")
    clock.now = 1.0
    tracer.enter("c")
    clock.now = 4.0
    tracer.exit()             # c: 3 s, inside b
    clock.now = 5.0
    tracer.exit()             # b: 5 s, 2 s of it its own
    clock.now = 6.0
    tracer.exit()             # a: 6 s, 1 s of it its own
    assert tracer.self_s == pytest.approx({"a": 1.0, "b": 2.0, "c": 3.0})


def test_excluded_bookkeeping_is_not_parent_self_time():
    clock = FakeClock()
    tracer = measure.Tracer(clock)
    tracer.enter("parent")
    clock.now = 2.0
    tracer.exclude(0.5)
    clock.now = 3.0
    tracer.exit()
    assert tracer.self_s["parent"] == pytest.approx(2.5)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90
    assert measure.percentile(list(reversed(samples)), 90) == 90
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(100, 90) == 10
    assert measure.reportable(100, 90)
    assert not measure.reportable(99, 90)
    assert measure.samples_beyond(99, 90) == 9
    assert measure.reportable(20, 50)
    assert not measure.reportable(19, 50)


def test_end_to_end_times_are_each_operations_median_at_reference_speed():
    ref = measure.REFERENCE_S
    at_speed = [ref] * 4
    rounds = [run.Round(0.0, times=[3.0, 1.0, 5.0], cpus=[2.0, 1.0, 4.0], refs=at_speed,
                        outputs=[]),
              run.Round(0.0, times=[2.0, 4.0, 6.0], cpus=[2.5, 0.5, 4.5], refs=at_speed,
                        outputs=[]),
              run.Round(0.0, times=[9.0, 2.0, 7.0], cpus=[3.0, 0.7, 1.0], refs=at_speed,
                        outputs=[])]
    assert run.op_median(rounds) == pytest.approx([3.0, 2.0, 6.0])
    assert run.op_median(rounds, cpu=True) == pytest.approx([2.5, 0.7, 4.0])
    # a round on a host twice as slow takes twice as long, references too
    slow = run.Round(0.0, times=[6.0, 2.0, 10.0], cpus=[4.0, 2.0, 8.0], refs=[2 * ref] * 4,
                     outputs=[])
    assert run.op_median([slow]) == pytest.approx(run.op_median(rounds[:1]))
    # each operation is scaled by the mean of the references before and after it
    ramp = run.Round(0.0, times=[1.0, 1.0, 1.0], cpus=[1.0, 1.0, 1.0],
                     refs=[ref, 3 * ref, 3 * ref, ref], outputs=[])
    assert run.op_median([ramp]) == pytest.approx([0.5, 1 / 3, 0.5])


def test_tracing_wraps_and_restores_every_binding():
    sys.path.insert(0, str(run.SRC))
    import tsmult
    from tsmult import convolution, germs

    original = germs.diagonal_microlocal_chain
    tracer = measure.Tracer()
    restore = measure.install_tracing(tracer)
    try:
        assert tsmult.diagonal_microlocal_chain is convolution.diagonal_microlocal_chain
        assert germs.diagonal_microlocal_chain is not original
        chain = tsmult.diagonal_microlocal_chain(tsmult.Germ((2, 3)))
        chain.steps
    finally:
        restore()
    assert tsmult.diagonal_microlocal_chain is original
    assert convolution.diagonal_microlocal_chain is original
    assert tracer.calls["germs.diagonal_microlocal_chain"] == 1
    assert tracer.calls["germs.Germ"] == 1
    assert tracer.calls["filtration.steps"] == 1
    # z1^2 + z2^3 on window 2 (cap 4): z1^0..z1^3 and z2^0..z2^7 weigh below 4
    assert tracer.sizes["weights.diagonal_model.box_rows"] == \
        reference.box_rows((2, 3), 4, False) == 4 * 8


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
