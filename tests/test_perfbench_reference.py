"""The benchmark's correctness gate (perfbench/reference.json, to 1e-6)
run in the unit suite: every cycle with recorded values runs at the
recorded seed through the benchmark's own runner and checks, so a change
that moves a benchmark output fails here, not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench():
    """perfbench's runner and workloads, loaded by path.  The runner
    imports its siblings ``spans`` and ``workloads`` by name, so they sit
    in sys.modules while the modules load; sys.path and sys.modules are
    left as found."""
    names = ("spans", "workloads", "runner")
    saved = {name: sys.modules[name] for name in names if name in sys.modules}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # dataclasses resolve annotations through it
            spec.loader.exec_module(module)
        return sys.modules["runner"], sys.modules["workloads"]
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


RUNNER, WORKLOADS = _load_perfbench()
REFERENCE = json.loads(RUNNER.REFERENCE_FILE.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_recorded_cycles_match_the_reference(name):
    # full-pure and decay-sweep have recorded values; effective-scale has
    # none, and its kinds are held to exact clauses by their checks alone
    assert REFERENCE["seed"] == WORKLOADS.DEFAULT_SEED
    workload = WORKLOADS.WORKLOADS[name]
    recorded = REFERENCE["values"].get(name, {})
    cycles = 1 + max((int(key.split("/")[0]) for key in recorded), default=0)
    checked, problems = set(), []
    for index in range(cycles):
        for pos, (kind, inputs) in enumerate(workload.cycle(WORKLOADS.DEFAULT_SEED, index)):
            out = RUNNER.execute(kind, inputs)
            key = RUNNER.ref_key(index, pos, kind)
            if key in recorded:
                checked.add(key)
            out.problems += RUNNER.reference_problems(recorded.get(key), kind, out.output)
            problems += [f"{key}: {problem}" for problem in out.problems]
    assert problems == []
    assert checked == set(recorded)
