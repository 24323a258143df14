"""Tests of the benchmark's own code.

The file name does not match ``test_*.py``, so the repository's test
run does not collect it; run it directly:

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import runner  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _inputs(workload, seed, cycles=2):
    return [[(kind.name, inputs) for kind, inputs in workload.cycle(seed, c)]
            for c in range(cycles)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = wl.WORKLOADS[name]
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)
    # and no two cycles of one run repeat a request
    first, second = _inputs(workload, 7)
    assert first != second


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_on_hand_built_tree():
    tree = [
        _span("op", 0.0, 10.0),                    # 0
        _span("cli.main", 1.0, 9.0, parent=0),     # 1
        _span("protocols.run_plan", 2.0, 6.0, 1),  # 2
        _span("dynamics.td", 2.5, 4.0, 2),         # 3
        _span("dynamics.td", 3.5, 5.0, 2),         # 4: overlaps 3, counted once
        _span("algebra.leak_check", 3.0, 3.5, 3),  # 5
        _span("analysis.metric", 8.5, 9.5, 1),     # 6: runs past its parent's end
    ]
    got = spans.self_times(tree)
    want = [2.0, 8.0 - 4.0 - 0.5, 4.0 - 2.5, 1.5 - 0.5, 1.5, 0.5, 1.0]
    assert got == pytest.approx(want)

    metrics = spans.layer_metrics(tree, ops=2)
    assert metrics["cli.self_s"] == pytest.approx(3.5 / 2)
    assert metrics["protocols.self_s"] == pytest.approx(1.5 / 2)
    assert metrics["dynamics.td_s"] == pytest.approx(3.0 / 2)
    assert metrics["dynamics.td_calls"] == pytest.approx(1.0)
    assert metrics["trace.op_s"] == pytest.approx(5.0)


def test_nested_spans_of_one_name_count_time_once():
    tree = [_span("protocols.plan", 0.0, 4.0), _span("protocols.plan", 1.0, 2.0, 0)]
    assert spans.inclusive(tree, "protocols.plan") == (4.0, 2, {})


def _raise(inputs):
    raise RuntimeError("boom")


FAKE = wl.Workload(
    name="fake",
    why="one request passes, one raises, one misses its check",
    kinds=(
        wl.Kind("ok", lambda rng: {"x": float(rng.uniform())}, lambda i: i["x"],
                lambda i, out: []),
        wl.Kind("raises", lambda rng: {}, _raise, lambda i, out: []),
        wl.Kind("wrong", lambda rng: {}, lambda i: 0.5,
                lambda i, out: [] if out > 0.9 else [f"value {out} not above 0.9"]),
    ),
)


def test_failures_are_counted_and_the_run_continues():
    res = runner.run_workload(FAKE, seed=0, seconds=0.0)
    assert res.cycles == 1
    assert [o.kind for o in res.untraced] == ["ok", "raises", "wrong"]
    assert res.tally.attempted == 3
    assert res.tally.failed == 2
    assert any("boom" in f for f in res.tally.failures)
    assert any("not above 0.9" in f for f in res.tally.failures)
    # only verified requests count toward throughput
    metrics = runner.end_to_end(res, setup_s=1.0)
    total = sum(o.seconds for o in res.untraced)
    assert metrics["ops_per_s"][0] == pytest.approx(1 / total)


def test_reference_mismatch_is_a_failure():
    kind = FAKE.kinds[0]
    kind = wl.Kind(kind.name, kind.draw, kind.run, kind.check, values=lambda out: {"x": out})
    assert runner.reference_problems({"x": 0.25}, kind, 0.25 + 5e-7) == []
    assert runner.reference_problems({"x": 0.25}, kind, 0.25 + 2e-6)
    assert runner.reference_problems({"y": 0.25}, kind, 0.25) == ["missing y"]


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    tracer = spans.Tracer()
    res = runner.run_workload(FAKE, seed=0, seconds=0.0, tracer=tracer)
    assert [s.op for s in tracer.spans if s.name == "op"] == [1, 2, 3]
    layer = runner.per_layer(res, tracer)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (value, unit) in layer.items()]
    e2e = runner.end_to_end(res, setup_s=1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (value, unit) in e2e.items()]
