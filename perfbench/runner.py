"""The benchmark loop: one closed-loop client in one process.

A run repeats its workload's cycle of operations, each with fresh seeded
inputs, and starts another cycle while the last one's duration still
fits in the requested seconds (at least one cycle always runs).  Every operation is checked; a
failure is counted and the run continues.  With tracing on, each cycle
runs twice, untraced and then traced, so the tracing overhead is measured
on the same inputs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spincavity
import spans as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_TOL = 1e-6   # the acceptance suite's pin tolerance
SETUP_PROBES = 5
# warm-up cycles draw from cycle indices no timed run reaches
WARMUP_CYCLE_BASE = 10**9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    kind: str
    seconds: float
    output: object
    problems: list


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, where: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{where}: {'; '.join(problems)}")


def execute(kind: wl.Kind, inputs: dict, tracer: tracing.Tracer | None = None) -> Outcome:
    """Time one request, then check its output (checks are not timed)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = kind.run(inputs)
        else:
            tracer.op += 1
            with tracer.span("op"):
                output = kind.run(inputs)
    except Exception as exc:  # a failing request is counted; the run goes on
        return Outcome(kind.name, time.perf_counter() - start, None,
                       [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems = list(kind.check(inputs, output))
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return Outcome(kind.name, seconds, output, problems)


def reference_problems(reference: dict | None, kind: wl.Kind, output) -> list:
    """Differences beyond REFERENCE_TOL from the values recorded for this
    operation, if any were recorded."""
    if reference is None or kind.values is None or output is None:
        return []
    got = kind.values(output)
    problems = []
    for key, want in reference.items():
        if key not in got:
            problems.append(f"missing {key}")
        elif abs(got[key] - want) > REFERENCE_TOL:
            problems.append(f"{key} {got[key]!r} differs from reference {want!r}")
    return problems


def load_reference(workload: str, seed: int) -> dict:
    if seed != wl.DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return {}
    data = json.loads(REFERENCE_FILE.read_text())
    return data["values"].get(workload, {})


def ref_key(cycle: int, position: int, kind: wl.Kind) -> str:
    return f"{cycle}/{position}/{kind.name}"


@dataclass
class RunResult:
    untraced: list = field(default_factory=list)   # Outcome per timed untraced op
    traced: list = field(default_factory=list)
    cycles: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    byte_stable: bool | None = None
    references_checked: int = 0
    tally: Tally = field(default_factory=Tally)


def run_workload(workload: wl.Workload, seed: int, seconds: float,
                 tracer: tracing.Tracer | None = None,
                 reference: dict | None = None) -> RunResult:
    """Warm up, run timed cycles, then re-render one CLI request."""
    reference = reference or {}
    res = RunResult()

    def run_cycle(index: int, sink: list | None, trace_it: bool):
        for pos, (kind, inputs) in enumerate(workload.cycle(seed, index)):
            out = execute(kind, inputs, tracer if trace_it else None)
            ref = reference.get(ref_key(index, pos, kind))
            if ref is not None:
                res.references_checked += 1
            out.problems += reference_problems(ref, kind, out.output)
            res.tally.add(f"cycle {index} {kind.name}", out.problems)
            if sink is not None:
                sink.append((kind, inputs, out))

    for w in range(workload.warmup_cycles):
        run_cycle(WARMUP_CYCLE_BASE + w, None, False)

    timed: list = []
    traced: list = []
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    cycle_time = 0.0
    while res.cycles == 0 or time.perf_counter() - start_wall + cycle_time <= seconds:
        cycle_start = time.perf_counter()
        run_cycle(res.cycles, timed, False)
        if tracer is not None:
            tracer.install()
            try:
                run_cycle(res.cycles, traced, True)
            finally:
                tracer.uninstall()
        res.cycles += 1
        cycle_time = time.perf_counter() - cycle_start
    res.wall = time.perf_counter() - start_wall
    res.cpu = time.process_time() - start_cpu
    res.untraced = [out for _, _, out in timed]
    res.traced = [out for _, _, out in traced]

    # byte stability: render the quickest CLI request again, untimed
    rendered = [(out.seconds, kind, inputs, out) for kind, inputs, out in timed
                if kind.cli and out.output is not None]
    if rendered:
        _, kind, inputs, out = min(rendered, key=lambda entry: entry[0])
        again = execute(kind, inputs)
        res.byte_stable = again.output == out.output
        res.tally.add(f"re-render {kind.name}",
                      again.problems + ([] if res.byte_stable else
                                        ["second render differs from the first"]))
    return res


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: wl.Workload, seed: int):
    """What a fresh interpreter does before the first timed request: the
    imports (already done by the caller) and the run's inputs and plans."""
    for kind, inputs in workload.cycle(seed, 0):
        wl.plan_for(inputs)


def measure_setup(script: Path, workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters running the set-up probe."""
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=HERE.parent, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def _ok_ops(outcomes) -> int:
    return sum(1 for o in outcomes if not o.problems)


def end_to_end(res: RunResult, setup_s: float) -> dict:
    times = [o.seconds for o in res.untraced]
    return {
        "ops_per_s": (_ok_ops(res.untraced) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(res: RunResult, tracer: tracing.Tracer) -> dict:
    metrics = tracing.layer_metrics(tracer.spans, len(res.traced))
    untraced_rate = _ok_ops(res.untraced) / sum(o.seconds for o in res.untraced)
    traced_rate = _ok_ops(res.traced) / sum(o.seconds for o in res.traced)
    out = {}
    for name, value in metrics.items():
        unit = "s/op" if name.endswith("_s") else "count/op"
        out[name] = (value, unit)
    out["proc.cpu_util"] = (res.cpu / res.wall, "ratio")
    out["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    out["fail_frac"] = (res.tally.failed / res.tally.attempted, "ratio")
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kind_medians(outcomes) -> dict:
    by_kind: dict = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o.seconds)
    return {k: {"median_s": statistics.median(v), "samples": len(v)} for k, v in by_kind.items()}


def record(workload: wl.Workload, args, res: RunResult, setup_times: list,
           metrics: dict) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "cycles": res.cycles,
        "op_samples": len(res.untraced),
        "wall_s": res.wall,
        "kinds": kind_medians(res.untraced),
        "setup_samples_s": setup_times,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "fail_frac": res.tally.failed / res.tally.attempted,
        "failures": res.tally.failures,
        "byte_stable": res.byte_stable,
        "references_checked": res.references_checked,
        "program": str(Path(spincavity.__file__).resolve().parent),
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_reference(cycles: dict, path: Path = REFERENCE_FILE):
    """Record the outputs of the first cycles at the default seed."""
    values: dict = {}
    for name, count in cycles.items():
        workload = wl.WORKLOADS[name]
        for index in range(count):
            for pos, (kind, inputs) in enumerate(workload.cycle(wl.DEFAULT_SEED, index)):
                if kind.values is None:
                    continue
                out = execute(kind, inputs)
                if out.problems:
                    raise RuntimeError(f"{name} cycle {index} {kind.name}: {out.problems}")
                values.setdefault(name, {})[ref_key(index, pos, kind)] = kind.values(out.output)
                print(f"{name} cycle {index} {kind.name}: {out.seconds:.2f}s", flush=True)
    payload = {"seed": wl.DEFAULT_SEED, "tolerance": REFERENCE_TOL, "values": values}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
