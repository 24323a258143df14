"""Command line front end.

Subcommands
-----------
protocol        run one protocol on one engine and report branches
sweep           rerun a protocol while scanning one numeric parameter
compare-frames  run the drive stages in different frames and compare
list-protocols  print the available protocol names

Configuration is a flat JSON object mirroring RunConfig; command line
flags override file values.  Exit codes: 0 success, 1 configuration
error, 2 physics failure (truncation or norm drift).

Reports are byte stable: floats are rounded to 12 significant digits
and JSON keys are sorted, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import get_args, get_type_hints

from .algebra import LEVEL_LABELS, PhysicsError, decode_index
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
ION_OMEGA = 1.0  # laser Rabi frequency of the ion system's drive
DEFAULT_DELTA = 20.0  # effective-engine fallback; full engines require --delta
#: refuse a run whose largest array would take more bytes than this
MEMORY_BUDGET = 2**30
#: atomic levels each protocol's planner uses
ATOM_LEVELS = {"two-atom-qutrit": 3, "ghz": 2, "ghz-three-level": 3,
               "measure-reduce": 3, "ghz-four-level": 4}


class ConfigError(ValueError):
    """Bad flags, config file, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run description; JSON config files carry these same keys."""

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); that code means physics here
        raise ConfigError(message)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves no
    state on it, and its error() only raises."""
    parser = _Parser(prog="spincavity",
                     description="collective-drive entanglement protocols")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("protocol", nargs="?", default=None,
                       help="protocol name (see list-protocols)")
        p.add_argument("--config", help="JSON file with RunConfig keys")
        p.add_argument("--system", choices=SYSTEMS,
                       help="physical system carrying the protocol")
        p.add_argument("--engine", choices=ENGINES)
        p.add_argument("--n", type=int, help="number of atoms")
        p.add_argument("--g", type=float, help="atom-mode coupling")
        p.add_argument("--delta", type=float, help="detuning")
        p.add_argument("--omega-k", dest="omega_k", type=int,
                       help="integer index fixing the drive strength")
        p.add_argument("--eta", type=float, help="Lamb-Dicke parameter")
        p.add_argument("--nu", type=float,
                       help="trap frequency; only echoed in the report, since the ion "
                            "generators live in the frame that absorbs it")
        p.add_argument("--nbar", type=float,
                       help="thermal occupation of the initial mode (full and lindblad "
                            "engines) and of the bath (lindblad)")
        p.add_argument("--kappa", type=float, help="mode decay rate (lindblad engine only)")
        p.add_argument("--fock-cutoff", dest="fock_cutoff", type=int,
                       help="highest Fock level kept")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--force", action="store_true", default=None,
                       help="overwrite an existing --out file")
        p.add_argument("--seed", type=int,
                       help="sample one measurement outcome with this seed")

    p_run = sub.add_parser("protocol", help="run one protocol")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="scan one parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep-param", dest="sweep_param",
                         choices=("g", "delta", "eta", "nu", "nbar", "kappa"))
    p_sweep.add_argument("--sweep-from", dest="sweep_from", type=float)
    p_sweep.add_argument("--sweep-to", dest="sweep_to", type=float)
    p_sweep.add_argument("--sweep-steps", dest="sweep_steps", type=int)

    p_cmp = sub.add_parser("compare-frames",
                           help="same schedule in different frames")
    add_common(p_cmp)

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
    hints = get_type_hints(RunConfig)
    for key, value in data.items():
        kinds = get_args(hints[key]) or (hints[key],)
        if not any(_is_a(value, kind) for kind in kinds):
            names = " or ".join("null" if kind is type(None) else kind.__name__
                                for kind in kinds)
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
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    config = RunConfig(**values)
    if not config.protocol:
        raise ConfigError("no protocol given (positional argument or config key)")
    if config.protocol not in PLANNERS:
        raise ConfigError(f"unknown protocol {config.protocol!r}; "
                          f"choices: {', '.join(sorted(PLANNERS))}")
    if config.system not in SYSTEMS:
        raise ConfigError(f"unknown system {config.system!r}")
    if config.engine not in ENGINES:
        raise ConfigError(f"unknown engine {config.engine!r}")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"unknown format {config.format!r}")
    _check_numbers(config)
    return config


def _check_numbers(config: RunConfig):
    """Reject non-finite floats, a negative nbar and a decay rate off the decay engine."""
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{f.name.replace('_', '-')} must be finite, got {value!r}")
    if config.nbar < 0:
        raise ConfigError(f"--nbar must be non-negative, got {config.nbar!r}")
    if config.kappa != 0 and config.engine != "lindblad":
        raise ConfigError(f"--kappa {config.kappa:g} needs --engine lindblad; the "
                          f"{config.engine} engine has no cavity decay")


def _resolve_system_engine(config: RunConfig) -> tuple[str, str]:
    """Canonical (system, engine-kind) pair from the config's aliases."""
    if config.engine == "full-cavity":
        return "cavity", "full"
    if config.engine == "full-ion":
        return "ion", "full"
    if config.engine == "lindblad":
        if config.system == "ion":
            raise ConfigError("the decay engine models the cavity system only")
        return "cavity", "lindblad"
    return config.system, config.engine


def _resolve_delta(config: RunConfig, full_capable: bool) -> float:
    if config.delta is not None:
        return config.delta
    _, kind = _resolve_system_engine(config)
    if kind != "effective" or full_capable:
        raise ConfigError("missing --delta (required for full and decay engines)")
    return DEFAULT_DELTA


# ---------------------------------------------------------------------------
# plan and engine construction


def _system_lambda(config: RunConfig) -> float:
    system, _ = _resolve_system_engine(config)
    if system == "ion":
        return lambda_ion(ION_OMEGA, config.eta, config.delta)
    return lambda_cavity(config.g, config.delta)


def _check_memory(config: RunConfig):
    """Refuse a run whose largest array, computed from the space
    dimensions before anything is allocated, exceeds MEMORY_BUDGET.

    The effective engine's largest arrays are d^N state columns (it
    applies each drive stage in the product eigenbasis of S_x); the
    full engines' are generators on the mode-attached space of
    dimension D = d^N (cutoff + 1); the decay engine's is its
    sparse Liouvillian, whose D^2 rows hold at most 4 N + 4 entries (two
    copies of a generator row with N drive and N coupling entries and a
    diagonal, plus the collapse terms).
    """
    atoms = ATOM_LEVELS[config.protocol] ** config.n
    _, kind = _resolve_system_engine(config)
    if kind == "effective":
        entries = atoms
    elif kind == "full":
        entries = (atoms * (config.fock_cutoff + 1)) ** 2
    else:
        entries = (atoms * (config.fock_cutoff + 1)) ** 2 * (4 * config.n + 4)
    size = 16 * entries
    if size > MEMORY_BUDGET:
        raise ConfigError(
            f"{config.protocol} on {config.n} atoms with the {kind} engine needs "
            f"{size / 2**30:.3g} GiB for its largest array, beyond the "
            f"{MEMORY_BUDGET / 2**30:.3g} GiB budget; lower --n or --fock-cutoff")


def _build_plan(config: RunConfig) -> ProtocolPlan:
    lam = _system_lambda(config)
    if lam <= 0:
        raise ConfigError("effective coupling must be positive; "
                          "check g, eta and delta")
    name = config.protocol
    if name == "two-atom-qutrit" and config.n != 2:
        raise ConfigError("two-atom-qutrit runs on exactly 2 atoms")
    _check_memory(config)
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
    system, kind = _resolve_system_engine(config)
    if kind == "effective":
        return Effective()
    if kind == "lindblad":
        params = DriveParams(g=config.g, delta=config.delta)
        decay = DecaySpec(config.kappa, config.nbar)
        return Lindblad(params, decay, config.fock_cutoff, _initial_mode(config))
    if system == "ion":
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


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _config_echo(config: RunConfig) -> dict:
    return _round12(asdict(config))


def _render_json(payload: dict) -> str:
    return json.dumps(_round12(payload), sort_keys=True, indent=2) + "\n"


def _emit(text: str, config: RunConfig):
    if config.out:
        if os.path.exists(config.out) and not config.force:
            raise ConfigError(f"{config.out} exists; pass --force to overwrite")
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _target_legs(plan: ProtocolPlan) -> list[str]:
    """Atomic product labels carrying the target's nonzero amplitudes."""
    legs = []
    amps = plan.target.amplitudes
    for idx in range(plan.space.dim):
        if abs(amps[idx]) > 1e-12:
            levels, _ = decode_index(plan.space, idx)
            legs.append("".join(LEVEL_LABELS[l] for l in levels))
    return legs


def cmd_protocol(config: RunConfig) -> str:
    config = replace(config, delta=_resolve_delta(config, False))
    plan = _build_plan(config)
    engine = _build_engine(config)
    result = run_plan(plan, engine=engine)
    legs = _target_legs(plan)
    branches = []
    for b, f in zip(result.branches, result.fidelities):
        if b.state is None:
            pops = [0.0] * len(legs)
        else:
            pops = [float(p) for p in leg_populations(b.state, legs)]
        branches.append({
            "label": b.label,
            "probability": b.probability,
            "fidelity": f,
            "leg_populations": dict(zip(legs, pops)),
        })
    payload = {
        "protocol": plan.name,
        "engine": config.engine,
        "timings": {
            "t1": result.timings.t1,
            "t2": result.timings.t2,
            "omega": result.timings.omega,
            "omega_prime": result.timings.omega_prime,
            "k": result.timings.k,
            "k_prime": result.timings.k_prime,
        },
        "branches": branches,
        "config_echo": _config_echo(config),
    }
    if config.seed is not None and any(isinstance(s, Measurement) for s in plan.stages):
        payload["sampled_outcome"] = sample_outcome(result, config.seed)
    if config.format == "csv":
        lines = ["branch,probability,fidelity"]
        for row in branches:
            lines.append(f"{row['label']},{_fmt(row['probability'])},"
                         f"{_fmt(row['fidelity'])}")
        return "\n".join(lines) + "\n"
    return _render_json(payload)


def cmd_sweep(config: RunConfig) -> str:
    if not config.sweep_param:
        raise ConfigError("sweep needs --sweep-param")
    if config.sweep_from is None or config.sweep_to is None:
        raise ConfigError("sweep needs --sweep-from and --sweep-to")
    if config.sweep_steps < 2:
        raise ConfigError("sweep needs at least two steps")
    config = replace(config, delta=_resolve_delta(config, False))
    rows = []
    for i in range(config.sweep_steps):
        frac = i / (config.sweep_steps - 1)
        value = config.sweep_from + frac * (config.sweep_to - config.sweep_from)
        point = replace(config, **{config.sweep_param: value})
        _check_numbers(point)
        plan = _build_plan(point)
        engine = _build_engine(point)
        result = run_plan(plan, engine=engine)
        for b, f in zip(result.branches, result.fidelities):
            rows.append((config.sweep_param, value, b.label, b.probability, f))
    if config.format == "json":
        payload = {
            "rows": [
                {"sweep_param": p, "value": v, "branch": lbl,
                 "probability": prob, "fidelity": fid}
                for p, v, lbl, prob, fid in rows
            ],
            "config_echo": _config_echo(config),
        }
        return _render_json(payload)
    lines = ["sweep_param,value,branch,probability,fidelity"]
    for p, v, lbl, prob, fid in rows:
        lines.append(f"{p},{_fmt(v)},{lbl},{_fmt(prob)},{_fmt(fid)}")
    return "\n".join(lines) + "\n"


def _strip_measurements(plan: ProtocolPlan) -> ProtocolPlan:
    stages = tuple(s for s in plan.stages if not isinstance(s, Measurement))
    return replace(plan, stages=stages)


def cmd_compare_frames(config: RunConfig) -> str:
    config = replace(config, delta=_resolve_delta(config, True))
    system, kind = _resolve_system_engine(config)
    if kind == "lindblad":
        raise ConfigError("compare-frames runs on unitary engines only")
    full = replace(config, engine="full", system=system)
    _check_memory(full)
    plan = _strip_measurements(_build_plan(config))
    if system == "ion":
        variants = [
            ("effective", Effective()),
            ("series", _build_engine(full, FrameTag.ION_INTERACTION)),
            ("first-order", _build_engine(full, FrameTag.ION_LAMB_DICKE)),
        ]
    else:
        variants = [
            ("effective", Effective()),
            ("interaction", _build_engine(full, FrameTag.INTERACTION_PICTURE)),
            ("slow", _build_engine(full, FrameTag.SLOW_FRAME)),
        ]
    reduced = {}
    frame_rows = []
    for label, engine in variants:
        result = run_plan(plan, engine=engine)
        state = result.branches[0].state
        if state.space.no_mode:
            reduced[label] = state
        else:
            reduced[label] = reduce_to_atoms(state, state.space)
        frame_rows.append({"frame": label,
                           "fidelity": fidelity(reduced[label], plan.target)})
    names = [label for label, _ in variants]
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            dist = trace_distance(reduced[names[i]], reduced[names[j]])
            pairs.append({"frames": f"{names[i]}|{names[j]}",
                          "trace_distance": dist})
    payload = {
        "protocol": plan.name,
        "frames": frame_rows,
        "pairs": pairs,
        "config_echo": _config_echo(config),
    }
    if config.format == "csv":
        lines = ["kind,name,value"]
        for row in frame_rows:
            lines.append(f"fidelity,{row['frame']},{_fmt(row['fidelity'])}")
        for row in pairs:
            lines.append(f"trace_distance,{row['frames']},{_fmt(row['trace_distance'])}")
        return "\n".join(lines) + "\n"
    return _render_json(payload)


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
