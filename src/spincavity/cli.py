"""Command line front end.

Subcommands
-----------
protocol        run one protocol on one engine and report branches
sweep           rerun a protocol while scanning one numeric parameter
compare-frames  run the drive stages in different frames and compare
list-protocols  print the available protocol names

RunConfig is the one declaration of the options: each of its fields is
a config-file key and a flag of the same name and type, with its help
text from HELP and its allowed values from CHOICES, which a config file
must keep to as well.  A configuration is a flat JSON object of those
keys; command line flags override file values.  Exit codes: 0 success,
1 configuration error, 2 physics failure (truncation or norm drift).

Reports are byte stable: floats are rounded to 12 significant digits
and JSON keys are sorted, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import get_args, get_type_hints

import numpy as np

from .algebra import LEVEL_LABELS, PhysicsError, decode_index, spin_groups
from .analysis import fidelity, leg_populations, reduce_to_atoms, trace_distance
from .dynamics import DecaySpec, ThermalSpec
from .hamiltonians import DriveParams, FrameTag, lambda_cavity, lambda_ion
from .protocols import (
    Effective,
    FullCavity,
    FullIon,
    Lindblad,
    PLANNERS,
    ProtocolPlan,
    Measurement,
    run_plan,
    sample_outcome,
)

ENGINES = ("effective", "full", "full-cavity", "full-ion", "lindblad")
SYSTEMS = ("cavity", "ion")
#: the system each engine alias runs
ALIASES = {"full-cavity": "cavity", "full-ion": "ion"}
ION_OMEGA = 1.0  # laser Rabi frequency of the ion system's drive
DEFAULT_DELTA = 20.0  # effective-engine fallback; full engines require --delta
#: refuse a run whose arrays would together take more bytes than this
MEMORY_BUDGET = 2**30
#: atomic levels each protocol's planner uses
ATOM_LEVELS = {"two-atom-qutrit": 3, "ghz": 2, "ghz-three-level": 3,
               "measure-reduce": 3, "ghz-four-level": 4}


class ConfigError(ValueError):
    """Bad flags, config file, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run description: the one declaration of the run options.
    JSON config files carry these keys, and every field but protocol (a
    positional argument) is the flag of its name, with its type; the
    sweep_* fields are flags of ``sweep`` only."""

    protocol: str = ""
    system: str = "cavity"
    engine: str = "effective"
    n: int = 2
    g: float = 1.0
    delta: float | None = None
    omega_k: int | None = None
    eta: float = 0.05
    nu: float = 10.0
    nbar: float = 0.0
    kappa: float = 0.0
    fock_cutoff: int = 12
    out: str | None = None
    format: str = "json"
    force: bool = False
    seed: int | None = None
    sweep_param: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    sweep_steps: int = 5


#: help text of each option; a field without an entry has none
HELP = {
    "protocol": "protocol name (see list-protocols)",
    "system": "physical system carrying the protocol",
    "n": "number of atoms",
    "g": "atom-mode coupling",
    "delta": "detuning",
    "omega_k": "integer index fixing the drive strength",
    "eta": "Lamb-Dicke parameter",
    "nu": "trap frequency; only echoed in the report, since the ion generators live in "
          "the frame that absorbs it",
    "nbar": "thermal occupation of the initial mode (full and lindblad engines) and of "
            "the bath (lindblad)",
    "kappa": "mode decay rate (lindblad engine only)",
    "fock_cutoff": "highest Fock level kept",
    "out": "write the report to this path",
    "force": "overwrite an existing --out file",
    "seed": "sample one measurement outcome with this seed",
}
#: the values a field takes, from a flag or a config file alike
CHOICES = {"system": SYSTEMS, "engine": ENGINES, "format": ("json", "csv"),
           "sweep_param": ("g", "delta", "eta", "nu", "nbar", "kappa")}
#: the types each field's annotation admits (NoneType included)
KINDS = {name: get_args(hint) or (hint,) for name, hint in get_type_hints(RunConfig).items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); that code means physics here
        raise ConfigError(message)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process from RunConfig's
    fields: parsing leaves no state on it, and its error() only raises."""
    parser = _Parser(prog="spincavity",
                     description="collective-drive entanglement protocols")
    sub = parser.add_subparsers(dest="command")
    for command, summary in (("protocol", "run one protocol"), ("sweep", "scan one parameter"),
                             ("compare-frames", "same schedule in different frames")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("protocol", nargs="?", help=HELP["protocol"])
        p.add_argument("--config", help="JSON file with RunConfig keys")
        for f in fields(RunConfig)[1:]:
            if f.name.startswith("sweep_") and command != "sweep":
                continue
            kind = KINDS[f.name][0]
            flag, text = "--" + f.name.replace("_", "-"), HELP.get(f.name)
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=kind, choices=CHOICES.get(f.name), help=text)
    sub.add_parser("list-protocols", help="print protocol names")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        if not any(_is_a(value, kind) for kind in KINDS[key]):
            names = " or ".join("null" if kind is type(None) else kind.__name__
                                for kind in KINDS[key])
            raise ConfigError(f"config key {key!r} must be {names}, got {json.dumps(value)}")
    return data


def _is_a(value, kind) -> bool:
    """JSON value against a RunConfig field type: a float field takes any
    number, and no numeric field takes a boolean."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The run the flags and the config file describe, flags winning;
    every choice and number checked, an engine alias's system set, and
    the Effective engine's default delta filled in (compare-frames runs
    full engines too, so it needs --delta)."""
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    values.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                  if getattr(args, f.name, None) is not None)
    config = RunConfig(**values)
    if not config.protocol:
        raise ConfigError("no protocol given (positional argument or config key)")
    if config.protocol not in PLANNERS:
        raise ConfigError(f"unknown protocol {config.protocol!r}; "
                          f"choices: {', '.join(sorted(PLANNERS))}")
    for name, allowed in CHOICES.items():
        value = getattr(config, name)
        if value is not None and value not in allowed:
            raise ConfigError(f"unknown {name} {value!r}")
    system = ALIASES.get(config.engine, config.system)
    if values.get("system", system) != system:
        raise ConfigError(f"--system {config.system} contradicts --engine {config.engine}")
    _check_numbers(config)
    _check_out(config)
    if config.engine == "lindblad" and system == "ion":
        raise ConfigError("the decay engine models the cavity system only")
    delta = config.delta
    if delta is None:
        if config.engine != "effective" or args.command == "compare-frames":
            raise ConfigError("missing --delta (required for full and decay engines)")
        delta = DEFAULT_DELTA
    return replace(config, system=system, delta=delta)


def _check_numbers(config: RunConfig):
    """Reject non-finite floats, a negative g or nbar, an eta outside
    [0, 1) and a decay rate off the decay engine, on every engine."""
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{f.name.replace('_', '-')} must be finite, got {value!r}")
    if config.g < 0:
        raise ConfigError(f"--g must be non-negative, got {config.g!r}")
    if not 0 <= config.eta < 1:
        raise ConfigError(f"--eta must lie in [0, 1), got {config.eta!r}")
    if config.nbar < 0:
        raise ConfigError(f"--nbar must be non-negative, got {config.nbar!r}")
    if config.kappa != 0 and config.engine != "lindblad":
        raise ConfigError(f"--kappa {config.kappa:g} needs --engine lindblad; the "
                          f"{config.engine} engine has no cavity decay")


def _check_out(config: RunConfig):
    """Refuse an --out path that cannot be written, before the run."""
    if not config.out:
        return
    folder = os.path.dirname(os.path.abspath(config.out))
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write --out {config.out}: no directory {folder}")
    if os.path.exists(config.out) and not config.force:
        raise ConfigError(f"{config.out} exists; pass --force to overwrite")


# ---------------------------------------------------------------------------
# plan and engine construction


def _check_memory(config: RunConfig, frames: bool = False) -> int:
    """Refuse a run whose arrays, sized from the space dimensions before
    anything is allocated, would together exceed MEMORY_BUDGET bytes;
    returns that size.  With A = d^N, m = cutoff + 1, D = A m and 16
    bytes per complex entry:

    * effective: twelve arrays of A entries (state, target, S_x phases,
      apply_local's products);
    * full and decay: coupled_basis's q (8 A^2 bytes; it is filled in
      place, and a rotation multiplies it by the real view of the
      states, so no stacked or complex copy of q is made), the two
      Clebsch-Gordan levels of N - 1 and N spins it is built from at
      most (10 4^N bytes, freed after the build; an upper bound for
      two-level atoms, whose level N grows inside q), and 8 KiB per row of
      q for BLAS work buffers (a rotation with two OpenBLAS threads
      packs about 3.4 KiB per row, with one thread 0.3);
    * full: eight (D, k) column blocks (k = m thermal columns, else 1),
      the eigh of the widest ((N + 1) m)^2 block, and for a thermal
      start d + 3 D x D matrices (the d branches and read-out
      temporaries);
    * decay: 6 + d D x D arrays (a stage holds the stack it starts from
      and at most three more in its rotations and pair loop; the
      read-out holds the branches, their normalized copies and the
      density-matrix checks' temporaries, which is the run's peak
      outside the Chebyshev actions: 8.05 D x D traced for measure-reduce
      N = 4 and its d = 3 branches, 4.0-4.1 for GHZ runs of two, three
      and four levels), about 1152 bytes per row of the
      ((N + 1) m)^2-row pair Liouvillian, and 36 arrays of the Chebyshev
      ring and columns of the widest pair of spin groups: (G m)^2
      float64 entries for a diagonal pair, which runs in real
      arithmetic, or G G' m^2 complex ones for two groups, with G >= G'
      the two largest column counts of ``algebra.spin_groups``;
    * ``frames`` (compare-frames): six A x A arrays, the reduced states
      of its three runs and the trace distances' temporaries.

    Measured peak RSS stays below this at two sizes of every engine
    (tests/test_cli.py::test_memory_guard_bounds_the_measured_rise); the
    figure over the rise, 2 vCPUs, OpenBLAS 0.3.31 on 2 threads:
    effective 1.57-1.58x (GHZ N = 19, 20), full cavity 1.08x (qutrit
    GHZ N = 8, cutoff 8) to 1.30x (GHZ N = 11, cutoff 14) and 1.56x from
    a thermal start, full ion 1.12-1.27x (GHZ N = 12, 11, cutoff 10),
    decay 2.33-3.36x (GHZ N = 5, 6) and 1.35x (measure-reduce and
    three-level GHZ, N = 4, cutoff 8), and compare-frames 1.31x (N = 10).
    """
    d, n = ATOM_LEVELS[config.protocol], config.n
    atoms, m = d**n, config.fock_cutoff + 1
    dim, widest = atoms * m, ((n + 1) * m) ** 2
    kind = "full" if config.engine in ALIASES else config.engine
    if kind == "effective":
        size = 16 * 12 * atoms
    else:
        size = 8 * atoms**2 + 10 * 4**n + 8192 * atoms
    if kind == "full":
        k = m if config.nbar > 0 else 1
        size += 16 * (8 * dim * k + 8 * widest + (d + 3) * dim**2 * (k > 1))
    elif kind == "lindblad":
        size += 16 * (6 + d) * dim**2 + 1152 * widest
        if size <= MEMORY_BUDGET:  # counting the groups is quick for such N only
            widest_two = sorted((g.stop - g.start for g in spin_groups(n, d)), reverse=True) + [0]
            size += 36 * m**2 * max(8 * widest_two[0]**2, 16 * widest_two[0] * widest_two[1])
    size += 16 * 6 * atoms**2 * frames
    if size > MEMORY_BUDGET:
        gib = f"{size / 2**30:.3g}" if size < 2**1000 else "over 1e290"
        raise ConfigError(
            f"{config.protocol} on {config.n} atoms with the {kind} engine needs "
            f"{gib} GiB at its peak, beyond the "
            f"{MEMORY_BUDGET / 2**30:.3g} GiB budget; lower --n or --fock-cutoff")
    return size


def _build_plan(config: RunConfig, frames: bool = False) -> ProtocolPlan:
    """The merged config's plan, once its coupling, atom count and
    memory (with compare-frames' arrays if frames) are checked."""
    if config.system == "ion":
        lam = lambda_ion(ION_OMEGA, config.eta, config.delta)
    else:
        lam = lambda_cavity(config.g, config.delta)
    if lam <= 0:
        raise ConfigError("effective coupling must be positive; "
                          "check g, eta and delta")
    name = config.protocol
    if name == "two-atom-qutrit" and config.n != 2:
        raise ConfigError("two-atom-qutrit runs on exactly 2 atoms")
    _check_memory(config, frames)
    try:
        if name == "two-atom-qutrit":
            return PLANNERS[name](lam, k=config.omega_k, delta=config.delta)
        return PLANNERS[name](config.n, lam, n_choice=config.omega_k,
                              delta=config.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_mode(config: RunConfig):
    if config.nbar > 0:
        spec = ThermalSpec.for_nbar(config.nbar)
        if spec.cutoff > config.fock_cutoff:
            raise ConfigError(
                f"thermal occupation {config.nbar:g} needs --fock-cutoff of "
                f"at least {spec.cutoff} to keep the distribution tail small")
        return spec
    return 0


def _build_engine(config: RunConfig, frame: FrameTag | None = None):
    if config.engine == "effective":
        return Effective()
    if config.engine == "lindblad":
        params = DriveParams(g=config.g, delta=config.delta)
        decay = DecaySpec(config.kappa, config.nbar)
        return Lindblad(params, decay, config.fock_cutoff, _initial_mode(config))
    if config.system == "ion":
        params = DriveParams(omega=ION_OMEGA, delta=config.delta, eta=config.eta,
                             phi=math.pi / 2.0, lamb_dicke_order=2)
        return FullIon(params, config.fock_cutoff, _initial_mode(config),
                       frame or FrameTag.ION_INTERACTION)
    params = DriveParams(g=config.g, delta=config.delta)
    return FullCavity(params, config.fock_cutoff, _initial_mode(config),
                      frame or FrameTag.INTERACTION_PICTURE)


# ---------------------------------------------------------------------------
# report rendering


def _round12(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _render_json(payload: dict, config: RunConfig) -> str:
    """The payload and the run's config echo, floats rounded to 12
    significant digits, keys sorted."""
    report = {**payload, "config_echo": asdict(config)}
    return json.dumps(_round12(report), sort_keys=True, indent=2) + "\n"


def _render_csv(header: str, rows) -> str:
    """The header line and one line per row; numbers to 12 significant
    digits, strings as they are."""
    lines = [header] + [",".join(v if isinstance(v, str) else f"{float(v):.12g}" for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, config: RunConfig):
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {config.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _target_legs(plan: ProtocolPlan) -> list[str]:
    """Atomic product labels carrying the target's nonzero amplitudes."""
    legs = []
    for idx in np.flatnonzero(np.abs(plan.target.amplitudes) > 1e-12):
        levels, _ = decode_index(plan.space, int(idx))
        legs.append("".join(LEVEL_LABELS[l] for l in levels))
    return legs


def cmd_protocol(config: RunConfig) -> str:
    plan = _build_plan(config)
    result = run_plan(plan, engine=_build_engine(config))
    rows = list(zip(result.branches, result.fidelities))
    if config.format == "csv":
        return _render_csv("branch,probability,fidelity",
                           [(b.label, b.probability, f) for b, f in rows])
    legs = _target_legs(plan)
    branches = []
    for b, f in rows:
        pops = [0.0] * len(legs) if b.state is None else leg_populations(b.state, legs)
        branches.append({"label": b.label, "probability": b.probability, "fidelity": f,
                         "leg_populations": {leg: float(p) for leg, p in zip(legs, pops)}})
    payload = {"protocol": plan.name, "engine": config.engine,
               "timings": asdict(result.timings), "branches": branches}
    if config.seed is not None and any(isinstance(s, Measurement) for s in plan.stages):
        payload["sampled_outcome"] = sample_outcome(result, config.seed)
    return _render_json(payload, config)


def cmd_sweep(config: RunConfig) -> str:
    if not config.sweep_param:
        raise ConfigError("sweep needs --sweep-param")
    if config.sweep_from is None or config.sweep_to is None:
        raise ConfigError("sweep needs --sweep-from and --sweep-to")
    if config.sweep_steps < 2:
        raise ConfigError("sweep needs at least two steps")
    rows = []
    for i in range(config.sweep_steps):
        frac = i / (config.sweep_steps - 1)
        value = config.sweep_from + frac * (config.sweep_to - config.sweep_from)
        point = replace(config, **{config.sweep_param: value})
        _check_numbers(point)
        rows += _sweep_rows(point, config.sweep_param, value)
    header = "sweep_param,value,branch,probability,fidelity"
    if config.format == "csv":
        return _render_csv(header, rows)
    return _render_json({"rows": [dict(zip(header.split(","), row)) for row in rows]}, config)


def _sweep_rows(point: RunConfig, param: str, value: float) -> list:
    """The report rows of one sweep point.  Its result (every branch's
    state) is released on return, before the next point runs."""
    result = run_plan(_build_plan(point), engine=_build_engine(point))
    return [(param, value, b.label, b.probability, f)
            for b, f in zip(result.branches, result.fidelities)]


def _strip_measurements(plan: ProtocolPlan) -> ProtocolPlan:
    stages = tuple(s for s in plan.stages if not isinstance(s, Measurement))
    return replace(plan, stages=stages)


#: the two full-engine frames compare-frames runs next to the Effective engine
FRAMES = {"cavity": (("interaction", FrameTag.INTERACTION_PICTURE), ("slow", FrameTag.SLOW_FRAME)),
          "ion": (("series", FrameTag.ION_INTERACTION), ("first-order", FrameTag.ION_LAMB_DICKE))}


def cmd_compare_frames(config: RunConfig) -> str:
    if config.engine == "lindblad":
        raise ConfigError("compare-frames runs on unitary engines only")
    full = replace(config, engine="full")
    plan = _strip_measurements(_build_plan(full, frames=True))
    variants = [("effective", Effective())] + [(label, _build_engine(full, frame))
                                               for label, frame in FRAMES[config.system]]
    reduced = {}
    for label, engine in variants:
        state = run_plan(plan, engine=engine).branches[0].state
        reduced[label] = state if state.space.no_mode else reduce_to_atoms(state, state.space)
    fids = [(label, fidelity(state, plan.target)) for label, state in reduced.items()]
    pairs = [(f"{a}|{b}", trace_distance(reduced[a], reduced[b]))
             for a, b in itertools.combinations(reduced, 2)]
    if config.format == "csv":
        return _render_csv("kind,name,value", [("fidelity",) + row for row in fids]
                           + [("trace_distance",) + row for row in pairs])
    return _render_json({
        "protocol": plan.name,
        "frames": [{"frame": label, "fidelity": fid} for label, fid in fids],
        "pairs": [{"frames": name, "trace_distance": dist} for name, dist in pairs],
    }, config)


def cmd_list_protocols() -> str:
    return "\n".join(sorted(PLANNERS)) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no subcommand given; try list-protocols")
        if args.command == "list-protocols":
            sys.stdout.write(cmd_list_protocols())
            return 0
        config = _merge_config(args)
        if args.command == "protocol":
            text = cmd_protocol(config)
        elif args.command == "sweep":
            text = cmd_sweep(config)
        else:
            text = cmd_compare_frames(config)
        _emit(text, config)
        return 0
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
