"""The benchmark's workloads: seeded inputs, how each operation runs, and
how its output is checked.

A workload is a fixed cycle of operation kinds.  Each cycle draws fresh
parameters from ``numpy.random.default_rng([seed, cycle])``, so the same
seed gives the same inputs and no two cycles repeat a request.  Sizes
(atom counts, Fock cutoffs) are fixed per kind so that a run's cost does
not depend on the seed; only continuous parameters, Fock starts and
sampling seeds are drawn.

Each operation is one user-level request: one CLI command run in-process
through ``spincavity.cli.main``, or one library call shaped like the
acceptance suite's.  The program is reached only through module
attributes looked up at call time, so the tracer's wrappers see every
call.

Left out on purpose (so nothing is hidden):

* full-size acceptance criteria: criterion 9 alone takes 518 s, and the
  Tier-1 time gates already time them;
* N >= 8 qutrits, which need more than 0.7 GB per dense matrix;
* thermal (``--nbar``) starts on the pure engines.  At this commit
  ``protocol ghz --n 2 --engine full --g 1 --delta 5 --nbar 0.1
  --fock-cutoff 12`` exits 2: the leakage monitor checks each Fock column
  unweighted, so the 1e-11-weight n = 10 column trips it
  (``two-atom-qutrit`` with the same flags fails the same way at cutoff
  14).  The thermal operation joins once that defect is fixed; cutoffs
  are not inflated to route around it;
* requests that cost more than a third of a run at this commit, because
  a run would then hold one or two samples of them, and on a shared
  2-vCPU VM the +-25% swings in speed between 30-second windows would set
  its numbers: the criterion-6 Rabi pair
  (``drive_population_series`` from Fock 0 and 2 plus
  ``extract_frequency``; 10-15 s at delta / g = 3.5, the cheapest ratio
  where the 5% clause holds) and the criterion-9-shaped qutrit decay
  point (dimension 54; 18-20 s at delta / g = 4.5, the lowest ratio
  found where cutoff 5 does not leak).  They join in a workload-adding
  change once exact propagation makes them cheap.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spincavity import cli, protocols
from spincavity.hamiltonians import DriveParams, lambda_cavity, lambda_ion

DEFAULT_SEED = 0

EXACT_FIDELITY = 1.0 - 1e-9  # acceptance clauses for the Effective engine
EXACT_TOL = 1e-9
FULL_FIDELITY = 0.9          # full and decay engines, any seed


class OpFailed(RuntimeError):
    """An operation exited non-zero."""


@dataclass(frozen=True)
class Kind:
    """One kind of operation.

    draw(rng) returns the inputs; run(inputs) performs the request
    and returns its output; check(inputs, output) lists violated clauses;
    values(output) gives the numbers compared with the recorded reference
    (None: the kind is held to exact clauses instead).
    """

    name: str
    draw: Callable[[np.random.Generator], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], list]
    values: Callable[[object], dict] | None = None

    @property
    def cli(self) -> bool:
        return self.run is run_cli


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple
    warmup_cycles: int = 0

    def cycle(self, seed: int, index: int) -> list[tuple[Kind, dict]]:
        rng = np.random.default_rng([seed, index])
        return [(kind, kind.draw(rng)) for kind in self.kinds]


# ---------------------------------------------------------------------------
# running requests


def run_cli(inputs: dict) -> str:
    """Run one CLI command in-process; return the report text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(inputs["argv"]))
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def plan_for(inputs: dict):
    """The plan a request runs, built as the CLI builds it (for set-up)."""
    spec = inputs.get("plan")
    if spec is None:
        return None
    protocol, n, lam, delta = spec
    if protocol == "two-atom-qutrit":
        return protocols.PLANNERS[protocol](lam, delta=delta)
    return protocols.PLANNERS[protocol](n, lam, delta=delta)


def _num(x: float) -> str:
    return repr(float(x))


def _uniform(rng, low, high) -> float:
    return round(float(rng.uniform(low, high)), 6)


# ---------------------------------------------------------------------------
# output parsing and checks


def _json_numbers(text: str) -> dict:
    """Every numeric leaf of a JSON report, keyed by its path."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}/{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[path] = float(node)

    walk(json.loads(text), "")
    return out


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv_numbers(text: str) -> dict:
    out = {}
    for i, row in enumerate(_csv_rows(text)):
        for key, cell in row.items():
            try:
                out[f"{i}/{key}"] = float(cell)
            except ValueError:
                pass
    return out


def _at_least(value: float, floor: float, what: str) -> list:
    return [] if value >= floor else [f"{what} {value!r} < {floor!r}"]


def _above(value: float, floor: float, what: str) -> list:
    return [] if value > floor else [f"{what} {value!r} not above {floor!r}"]


def _near(value: float, target: float, tol: float, what: str) -> list:
    return [] if abs(value - target) <= tol else [f"{what} {value!r} not {target!r} +- {tol:g}"]


def _branches(text: str) -> dict:
    return {b["label"]: b for b in json.loads(text)["branches"]}


def _check_single_branch(floor: float, strict: bool = False):
    """JSON protocol report with one branch "all" meeting a fidelity floor."""
    def check(inputs, text):
        branches = _branches(text)
        if set(branches) != {"all"}:
            return [f"branches {sorted(branches)} != ['all']"]
        bound = _above if strict else _at_least
        return bound(branches["all"]["fidelity"], floor, "fidelity")
    return check


def _check_csv_rows(floor: float, count: int, strict: bool = False):
    """CSV report whose every row meets a fidelity floor."""
    bound = _above if strict else _at_least

    def check(inputs, text):
        rows = _csv_rows(text)
        if len(rows) != count:
            return [f"{len(rows)} CSV rows, expected {count}"]
        problems = []
        for row in rows:
            problems += bound(float(row["fidelity"]), floor, f"row {row} fidelity")
        return problems
    return check


def _check_legs(legs: dict, tol: float):
    def check(inputs, text):
        branch = _branches(text)["all"]
        problems = _at_least(branch["fidelity"], EXACT_FIDELITY, "fidelity")
        for leg, target in legs.items():
            problems += _near(branch["leg_populations"][leg], target, tol, f"leg {leg}")
        return problems
    return check


def _check_measure_reduce(inputs, text):
    report = json.loads(text)
    branches = {b["label"]: b for b in report["branches"]}
    if set(branches) != {"g", "e", "f"}:
        return [f"branches {sorted(branches)} != ['e', 'f', 'g']"]
    problems = _near(branches["f"]["probability"], 0.3, EXACT_TOL, "P(f)")
    problems += _at_least(branches["f"]["fidelity"], EXACT_FIDELITY, "f-branch fidelity")
    total = sum(b["probability"] for b in branches.values())
    problems += _near(total, 1.0, EXACT_TOL, "total probability")
    if report.get("sampled_outcome") not in branches:
        problems.append(f"sampled outcome {report.get('sampled_outcome')!r}")
    return problems


def _check_sweep_json(floor: float, count: int):
    def check(inputs, text):
        rows = json.loads(text)["rows"]
        if len(rows) != count:
            return [f"{len(rows)} sweep rows, expected {count}"]
        problems = []
        for row in rows:
            problems += _at_least(row["fidelity"], floor, f"value {row['value']} fidelity")
        return problems
    return check


def _check_sweep_measure_reduce(count: int):
    def check(inputs, text):
        rows = [r for r in _csv_rows(text) if r["branch"] == "f"]
        if len(rows) != count:
            return [f"{len(rows)} f-branch rows, expected {count}"]
        problems = []
        for row in rows:
            problems += _near(float(row["probability"]), 0.3, EXACT_TOL, f"value {row['value']} P(f)")
            problems += _at_least(float(row["fidelity"]), EXACT_FIDELITY, f"value {row['value']} fidelity")
        return problems
    return check


def _check_frames(inputs, text):
    report = json.loads(text)
    frames = {row["frame"]: row["fidelity"] for row in report["frames"]}
    if set(frames) != {"effective", "interaction", "slow"}:
        return [f"frames {sorted(frames)}"]
    problems = _at_least(frames["effective"], EXACT_FIDELITY, "effective fidelity")
    problems += _above(frames["interaction"], FULL_FIDELITY, "interaction fidelity")
    problems += _above(frames["slow"], FULL_FIDELITY, "slow fidelity")
    for pair in report["pairs"]:
        if not 0.0 <= pair["trace_distance"] <= 1.0:
            problems.append(f"{pair['frames']} trace distance {pair['trace_distance']!r}")
    if len(report["pairs"]) != 3:
        problems.append(f"{len(report['pairs'])} frame pairs, expected 3")
    return problems


def _check_library_fidelity(inputs, out):
    problems = _above(out["fidelity"], FULL_FIDELITY, "fidelity")
    problems += _near(out["probability"], 1.0, 1e-6, "branch probability")
    return problems


# ---------------------------------------------------------------------------
# library requests


def _run_fock_ghz2(inputs):
    """Criterion-8-shaped: a full-cavity protocol from one Fock start (the
    two-qubit GHZ plan; the qutrit plan's fidelity falls below 0.85 from
    n = 1 at delta ~ 5)."""
    g, delta = inputs["g"], inputs["delta"]
    plan = protocols.PLANNERS["ghz"](2, lambda_cavity(g, delta), delta=delta)
    engine = protocols.FullCavity(params=DriveParams(g=g, delta=delta),
                                  fock_cutoff=inputs["fock_cutoff"],
                                  initial_mode=inputs["n_start"])
    result = protocols.run_plan(plan, engine=engine)
    branch = result.branch("all")
    return {"fidelity": result.branch_fidelity("all"), "probability": branch.probability}


def _identity(out):
    return dict(out)


# ---------------------------------------------------------------------------
# kinds


def _cli_kind(name, draw, check, reference=False):
    return Kind(name, draw, run_cli, check,
                values=(_json_or_csv_numbers if reference else None))


def _json_or_csv_numbers(text: str) -> dict:
    return _json_numbers(text) if text.lstrip().startswith("{") else _csv_numbers(text)


def _cavity_argv(cmd, protocol, n, g, delta, cutoff, *extra):
    return [cmd, protocol, "--n", str(n), "--g", _num(g), "--delta", _num(delta),
            "--fock-cutoff", str(cutoff), *extra]


# Cavity requests on the full and decay engines run at a fixed dispersive
# ratio delta / g and draw the overall scale g.  A rescaling of g, delta,
# the drive and (for decay) kappa leaves the physics, the step count and
# every fidelity unchanged, so neither a run's cost nor its checks depend
# on the seed.  Across a band of ratios they would: the drive index the
# planners pick jumps with delta, and at g = 1 the N = 2 GHZ fidelity from
# Fock 2 is 0.979 at delta = 4.9 but 0.79 at 5.01.  Each ratio below was
# checked at the ends of every other drawn range, and keeps 5 r^2 (the
# planners' drive-index argument) away from an integer, so rounding cannot
# change the drive index.

FULL_RATIO = 4.9    # 5 r^2 = 120.05
DECAY_RATIO = 4.1   # 5 r^2 = 84.05; cutoff 5 leaks here at small kappa, 6 does not


def _draw_scale(rng, ratio: float) -> tuple[float, float]:
    g = _uniform(rng, 0.8, 1.25)
    return g, ratio * g


# full-pure: the cavity detuning is 4.9 g with g drawn around 1; the ion
# detuning is drawn around 1 with the default trap frequency nu = 10.

def _draw_frames_qutrit(rng):
    g, delta = _draw_scale(rng, FULL_RATIO)
    return {"argv": _cavity_argv("compare-frames", "two-atom-qutrit", 2, g, delta, 8),
            "plan": ("two-atom-qutrit", 2, lambda_cavity(g, delta), delta)}


def _draw_full_ghz(n, cutoff):
    def draw(rng):
        g, delta = _draw_scale(rng, FULL_RATIO)
        return {"argv": _cavity_argv("protocol", "ghz", n, g, delta, cutoff, "--engine", "full"),
                "plan": ("ghz", n, lambda_cavity(g, delta), delta)}
    return draw


def _draw_fock_ghz2(rng):
    g, delta = _draw_scale(rng, FULL_RATIO)
    # cutoff 9 leaves headroom above the highest start, n = 2
    return {"g": g, "delta": delta, "n_start": int(rng.integers(0, 3)), "fock_cutoff": 9,
            "plan": ("ghz", 2, lambda_cavity(g, delta), delta)}


def _draw_ion_ghz2(rng):
    delta = _uniform(rng, 0.95, 1.05)
    return {"argv": ["protocol", "ghz", "--n", "2", "--system", "ion", "--engine", "full",
                     "--delta", _num(delta), "--fock-cutoff", "6"],
            "plan": ("ghz", 2, lambda_ion(cli.ION_OMEGA, 0.05, delta), delta)}


FULL_PURE = Workload(
    name="full-pure",
    why=("pure-state full-engine runs: loads the dynamics integrator (evolve_td_multi) "
         "and hamiltonians; the factored propagator does almost nothing"),
    kinds=(
        _cli_kind("frames-qutrit", _draw_frames_qutrit, _check_frames, reference=True),
        _cli_kind("full-ghz3", _draw_full_ghz(3, 7),
                  _check_single_branch(FULL_FIDELITY, strict=True), reference=True),
        _cli_kind("full-ghz4", _draw_full_ghz(4, 8),
                  _check_single_branch(FULL_FIDELITY, strict=True), reference=True),
        Kind("fock-ghz2", _draw_fock_ghz2, _run_fock_ghz2, _check_library_fidelity,
             values=_identity),
        _cli_kind("ion-ghz2", _draw_ion_ghz2,
                  _check_single_branch(FULL_FIDELITY, strict=True), reference=True),
    ),
)


# decay-sweep: kappa points of the README's `sweep ghz --n 2 --engine
# lindblad` shape.  kappa / g starts at 0.01: kappa = 0 drops the collapse operator and
# costs a third less, which would make a run's cost depend on the draw.

def _draw_lindblad_ghz2(fmt):
    def draw(rng):
        g, delta = _draw_scale(rng, DECAY_RATIO)
        kappa = g * _uniform(rng, 0.01, 0.2)
        argv = _cavity_argv("protocol", "ghz", 2, g, delta, 6, "--engine", "lindblad",
                            "--kappa", _num(kappa), "--format", fmt)
        return {"argv": argv, "plan": ("ghz", 2, lambda_cavity(g, delta), delta)}
    return draw


DECAY_SWEEP = Workload(
    name="decay-sweep",
    why=("Lindblad kappa points on density matrices: loads dynamics.evolve_lindblad and "
         "algebra state checks; bypasses the pure-state integrator and factored propagator"),
    kinds=(
        _cli_kind("lindblad-ghz2", _draw_lindblad_ghz2("json"),
                  _check_single_branch(FULL_FIDELITY, strict=True), reference=True),
        _cli_kind("lindblad-ghz2-csv", _draw_lindblad_ghz2("csv"),
                  _check_csv_rows(FULL_FIDELITY, 1, strict=True), reference=True),
    ),
)


# effective-scale: every protocol on the Effective engine at the largest
# sizes that stay under 1 GB, with drawn couplings and detunings.

def _effective_argv(rng, cmd, protocol, n, *extra):
    g = _uniform(rng, 0.5, 2.0)
    delta = _uniform(rng, 10.0, 40.0)
    argv = [cmd, protocol, "--n", str(n), "--g", _num(g), "--delta", _num(delta), *extra]
    return {"argv": argv, "plan": (protocol, n, lambda_cavity(g, delta), delta)}


def _draw_effective(cmd, protocol, n, *extra):
    def draw(rng):
        return _effective_argv(rng, cmd, protocol, n, *extra)
    return draw


def _draw_measure_reduce(rng):
    inputs = _effective_argv(rng, "protocol", "measure-reduce", 6)
    inputs["argv"] += ["--seed", str(int(rng.integers(0, 2**31)))]
    return inputs


def _draw_three_level_ion(rng):
    eta = _uniform(rng, 0.03, 0.1)
    delta = _uniform(rng, 0.5, 3.0)
    argv = ["protocol", "ghz-three-level", "--n", "6", "--system", "ion",
            "--eta", _num(eta), "--delta", _num(delta)]
    return {"argv": argv,
            "plan": ("ghz-three-level", 6, lambda_ion(cli.ION_OMEGA, eta, delta), delta)}


def _draw_sweep(protocol, n, param, low, high, steps, fmt):
    def draw(rng):
        start = _uniform(rng, low, (low + high) / 2.0)
        stop = _uniform(rng, (low + high) / 2.0, high)
        inputs = _effective_argv(rng, "sweep", protocol, n)
        inputs["argv"] += ["--sweep-param", param, "--sweep-from", _num(start),
                           "--sweep-to", _num(stop), "--sweep-steps", str(steps),
                           "--format", fmt]
        return inputs
    return draw


SWEEP_STEPS = 4

EFFECTIVE_SCALE = Workload(
    name="effective-scale",
    why=("all five protocols on the Effective engine at N up to 10: loads "
         "dynamics.propagator_u, protocols and cli rendering; makes no integrator calls"),
    kinds=(
        _cli_kind("ghz10", _draw_effective("protocol", "ghz", 10),
                  _check_single_branch(EXACT_FIDELITY)),
        _cli_kind("ghz9-csv", _draw_effective("protocol", "ghz", 9, "--format", "csv"),
                  _check_csv_rows(EXACT_FIDELITY, 1)),
        _cli_kind("three-level6-ion", _draw_three_level_ion,
                  _check_single_branch(EXACT_FIDELITY)),
        _cli_kind("measure-reduce6", _draw_measure_reduce, _check_measure_reduce),
        _cli_kind("four-level4", _draw_effective("protocol", "ghz-four-level", 4),
                  _check_legs({lab * 4: 0.25 for lab in "gefh"}, EXACT_TOL)),
        _cli_kind("qutrit-csv", _draw_effective("protocol", "two-atom-qutrit", 2,
                                                "--format", "csv"),
                  _check_csv_rows(EXACT_FIDELITY, 1)),
        _cli_kind("sweep-ghz8", _draw_sweep("ghz", 8, "delta", 10.0, 40.0, SWEEP_STEPS, "json"),
                  _check_sweep_json(EXACT_FIDELITY, SWEEP_STEPS)),
        _cli_kind("sweep-three-level4-csv",
                  _draw_sweep("ghz-three-level", 4, "g", 0.5, 2.0, SWEEP_STEPS, "csv"),
                  _check_csv_rows(EXACT_FIDELITY, SWEEP_STEPS)),
        _cli_kind("sweep-measure-reduce6-csv",
                  _draw_sweep("measure-reduce", 6, "delta", 10.0, 40.0, SWEEP_STEPS, "csv"),
                  _check_sweep_measure_reduce(SWEEP_STEPS)),
    ),
    # the S_x eigendecompositions are cached per atom size for the life
    # of the process; one untimed cycle fills the cache before timing
    warmup_cycles=1,
)

WORKLOADS = {w.name: w for w in (FULL_PURE, DECAY_SWEEP, EFFECTIVE_SCALE)}
