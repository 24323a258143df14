"""Span tracing from outside the program.

The tracer replaces the program's public functions with timing wrappers
at the names their callers import (``protocols`` and ``cli`` bind their
dependencies with ``from .x import y``, so wrapping the defining module
alone would miss those calls).  Each wrapped call records a span: name,
start, end, parent span and operation id.  Spans stay in memory; the
runner reduces them to per-layer metrics when the run ends and can write
them out.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  The span name's prefix is the layer.
FUNCTION_PATCHES = (
    ("spincavity.cli", "main", "cli.main"),
    # protocols, as cli and the benchmark's library calls reach them
    ("spincavity.cli", "run_plan", "protocols.run_plan"),
    ("spincavity.protocols", "run_plan", "protocols.run_plan"),
    ("spincavity.cli", "sample_outcome", "protocols.sample"),
    ("spincavity.protocols", "drive_population_series", "protocols.series"),
    # dynamics, as protocols imports it
    ("spincavity.protocols", "evolve_td_multi", "dynamics.td"),
    ("spincavity.protocols", "evolve_lindblad", "dynamics.lindblad"),
    ("spincavity.protocols", "propagator_u", "dynamics.propagator"),
    ("spincavity.protocols", "apply_atomic", "dynamics.apply_atomic"),
    ("spincavity.protocols", "thermal_state", "dynamics.thermal"),
    # hamiltonians: every term builder an engine reaches
    ("spincavity.protocols", "interaction_terms", "hamiltonians.build"),
    ("spincavity.protocols", "slow_terms", "hamiltonians.build"),
    ("spincavity.protocols", "ion_terms", "hamiltonians.build"),
    # algebra
    ("spincavity.dynamics", "check_leakage", "algebra.leak_check"),
    ("spincavity.dynamics", "check_leakage_dm", "algebra.leak_check"),
    ("spincavity.protocols", "embed_atom_op", "algebra.ops"),
    ("spincavity.hamiltonians", "embed_atom_op", "algebra.ops"),
    ("spincavity.hamiltonians", "boson_ops", "algebra.ops"),
    ("spincavity.hamiltonians", "_displacement_partial_sums", "algebra.ops"),
    ("spincavity.dynamics", "boson_ops", "algebra.ops"),
    ("spincavity.dynamics", "collective_sx", "algebra.ops"),
    # analysis, as cli and the benchmark's library calls reach it
    ("spincavity.cli", "reduce_to_atoms", "analysis.reduce"),
    ("spincavity.cli", "fidelity", "analysis.metric"),
    ("spincavity.cli", "trace_distance", "analysis.metric"),
    ("spincavity.cli", "leg_populations", "analysis.metric"),
    ("spincavity.analysis", "extract_frequency", "analysis.frequency"),
)

# validators run by the dataclass constructors; patched on the class so
# that isinstance checks keep working
METHOD_PATCHES = (
    ("spincavity.algebra", "StateVector", "__post_init__", "algebra.state_check"),
    ("spincavity.algebra", "DensityMatrix", "__post_init__", "algebra.state_check"),
)

# the integrator call inside dynamics, read for its right-hand-side count
SOLVER_PATCH = ("spincavity.dynamics", "solve_ivp")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def add_count(self, key: str, value: int):
        """Add to a count on the innermost open span."""
        if self._open:
            counts = self.spans[self._open[-1]].counts
            counts[key] = counts.get(key, 0) + value

    def install(self):
        """Wrap every patched name; undo with uninstall()."""
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in FUNCTION_PATCHES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(getattr(module, attr), name))
        for module_name, cls_name, attr, name in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(cls.__dict__[attr], name))
        protocols = importlib.import_module("spincavity.protocols")
        for key, planner in list(protocols.PLANNERS.items()):
            self._patch_item(protocols.PLANNERS, key, self.wrap(planner, "protocols.plan"))
        module = importlib.import_module(SOLVER_PATCH[0])
        solver = getattr(module, SOLVER_PATCH[1])

        @functools.wraps(solver)
        def counted_solver(*args, **kwargs):
            sol = solver(*args, **kwargs)
            self.add_count("rhs_evals", int(sol.nfev))
            return sol

        self._patch(module, SOLVER_PATCH[1], counted_solver)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_item(self, mapping, key, replacement):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = replacement


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append(Span(self.name, 0.0, 0.0, parent, tr.op))
        tr._open.append(self.index)
        tr.spans[self.index].start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index].end = time.perf_counter()
        tr._open.pop()
        return False


# ---------------------------------------------------------------------------
# reduction


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span.end - span.start) - covered)
    return out


def inclusive(spans: list[Span], name: str) -> tuple[float, int, dict]:
    """Total time, call count and summed counts of the spans called
    ``name``; a span nested inside another of the same name adds to the
    call count but not again to the time."""
    total = 0.0
    calls = 0
    counts: dict = {}
    for span in spans:
        if span.name != name:
            continue
        calls += 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            total += span.end - span.start
    return total, calls, counts


# Per-layer metrics: (metric, what is measured, span name or layer).
# "time" and "calls" sum the named spans (see inclusive), "rhs_evals" sums
# that count on them, "self" is a layer's total self time, "layer_calls"
# counts a layer's spans.
LAYER_METRICS = (
    ("dynamics.td_s", "time", "dynamics.td"),
    ("dynamics.td_calls", "calls", "dynamics.td"),
    ("dynamics.td_rhs_evals", "rhs_evals", "dynamics.td"),
    ("dynamics.lindblad_s", "time", "dynamics.lindblad"),
    ("dynamics.lindblad_calls", "calls", "dynamics.lindblad"),
    ("dynamics.lindblad_rhs_evals", "rhs_evals", "dynamics.lindblad"),
    ("dynamics.propagator_s", "time", "dynamics.propagator"),
    ("dynamics.propagator_calls", "calls", "dynamics.propagator"),
    ("dynamics.apply_atomic_s", "time", "dynamics.apply_atomic"),
    ("dynamics.apply_atomic_calls", "calls", "dynamics.apply_atomic"),
    ("protocols.run_plan_s", "time", "protocols.run_plan"),
    ("protocols.run_plan_calls", "calls", "protocols.run_plan"),
    ("protocols.self_s", "self", "protocols"),
    ("protocols.plan_s", "time", "protocols.plan"),
    ("hamiltonians.build_s", "time", "hamiltonians.build"),
    ("hamiltonians.build_calls", "calls", "hamiltonians.build"),
    ("algebra.state_check_s", "time", "algebra.state_check"),
    ("algebra.state_checks", "calls", "algebra.state_check"),
    ("algebra.leak_check_s", "time", "algebra.leak_check"),
    ("algebra.leak_checks", "calls", "algebra.leak_check"),
    ("algebra.ops_s", "time", "algebra.ops"),
    ("algebra.ops_calls", "calls", "algebra.ops"),
    ("analysis.reduce_s", "time", "analysis.reduce"),
    ("analysis.metric_s", "time", "analysis.metric"),
    ("analysis.frequency_s", "time", "analysis.frequency"),
    ("analysis.calls", "layer_calls", "analysis"),
    ("cli.self_s", "self", "cli"),
    ("cli.commands", "calls", "cli.main"),
    ("trace.op_s", "time", "op"),
)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics, each per traced operation."""
    if ops < 1:
        raise ValueError("need at least one traced operation")
    selfs = self_times(spans)

    def value(what: str, name: str) -> float:
        if what == "self":
            return sum(st for span, st in zip(spans, selfs) if span.layer == name)
        if what == "layer_calls":
            return sum(1 for span in spans if span.layer == name)
        total, calls, counts = inclusive(spans, name)
        return {"time": total, "calls": calls}.get(what, counts.get(what, 0))

    return {metric: value(what, name) / ops for metric, what, name in LAYER_METRICS}


def span_records(spans: list[Span]):
    """Spans as plain dicts, for writing out."""
    return [
        {"id": i, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "op": s.op, **({"counts": s.counts} if s.counts else {})}
        for i, s in enumerate(spans)
    ]
