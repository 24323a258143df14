"""Staged entanglement protocols and the engines that execute them.

Each planner returns a ProtocolPlan: an ordered list of pulse stages
(collective drives, instantaneous local transfers, a final measurement)
together with the closed-form target state the schedule prepares.

Engines:

* ``Effective`` runs each drive stage through the factored propagator
  exp(-i H0 t) exp(-i 2 lam Sx^2 t), which factorizes from the mode and
  is therefore exactly photon-number independent.  It is applied to the
  columns of every branch at once in the product eigenbasis of S_x
  (dynamics.evolve_factored), so no d^N x d^N matrix is formed.
* ``FullCavity`` propagates the driven interaction-picture Hamiltonian
  (or its slow frame) on an attached Fock mode.
* ``FullIon`` propagates the sideband Hamiltonian (displacement series
  or its first-order form) on the attached vibrational mode.  The ion
  system has no separate classical drive, so the rotating-frame Rabi
  bookkeeping of the stage is not part of the ion generator; with the
  planner's even-k timing both readings give the same target.
* ``Lindblad`` propagates density matrices under the cavity Hamiltonian
  with cavity decay.

``run_plan`` is one stage loop for every engine.  A branch holds its
ensemble as a (dim, k) block of columns, each scaled by the square root
of its weight (pure engines), or as a density matrix whose trace is its
weight (Lindblad: C C^dag of the same block).  Only the drive, atoms-only
maps (from the left on columns, on both sides of a density matrix) and
the branch read-out differ between the two.  Transfers and measurement
projectors are single-atom matrices applied on each atom's own axis
(dynamics.apply_local); no d^N x d^N transfer matrix is formed.

Both full engines propagate each drive stage exactly with
dynamics.evolve_exact: their generators are static in the mode frame
exp(-i delta adag a t), so a stage is one eigendecomposition that every
column of every branch (thermal columns included) goes through.  The
decay engine does the same in Liouville space with
dynamics.evolve_lindblad: the cavity dissipator is static in that frame
too, so a stage is one Liouvillian and one Chebyshev action that
carries the density matrices of every live branch at once.

Drive stages of one plan run at consecutive absolute times so that the
e^{i delta t} drive phases stay continuous across stage boundaries.
Every drive stage leaves a StageRecord in
``ProtocolResult.diagnostics["stages"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .algebra import (
    DensityMatrix,
    Operator,
    PhysicsError,
    SpaceDescriptor,
    StateVector,
    LEVEL_LABELS,
    basis_index,
    basis_state,
    local_proj,
    make_space,
)
from .analysis import TimeSeries
from .dynamics import (
    DecaySpec,
    ThermalSpec,
    apply_local,
    evolve_exact,
    evolve_factored,
    evolve_lindblad,
    norm_drift,
)
# unused here; perfbench/spans.py wraps these names to count integrator
# calls, thermal preparations, operator builds and dense factored
# propagators
from .algebra import embed_atom_op  # noqa: F401
from .dynamics import apply_atomic, evolve_td_multi, propagator_u, thermal_state  # noqa: F401
from .hamiltonians import (
    DriveParams,
    FrameTag,
    interaction_terms,
    ion_terms,
    lambda_cavity,
    lambda_ion,
    slow_terms,
)

# ---------------------------------------------------------------------------
# stages and plans


@dataclass(frozen=True)
class CollectiveDrive:
    """A collective-interaction pulse.

    params.omega is the classical Rabi frequency solved by the planner;
    lam is the effective collective rate the timing was derived from.
    Engines supply the remaining physical parameters (g, delta, eta, ...)
    and must agree with lam.
    """

    params: DriveParams
    duration: float
    frame: FrameTag
    lam: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class LocalTransfer:
    """An instantaneous local unitary on one atom or on all atoms."""

    matrix: np.ndarray
    atoms: object  # "all" or an atom index
    name: str = ""

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > 1e-12:
            raise ValueError(f"transfer matrix is not unitary: deviation {dev:.3e}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Measurement:
    """Projective level measurement of one atom.

    mode "enumerate" keeps every outcome branch with its exact
    probability; mode "postselect" keeps only ``outcome``.
    """

    atom_index: int
    mode: str = "enumerate"
    outcome: int | None = None

    def __post_init__(self):
        if self.mode not in ("enumerate", "postselect"):
            raise ValueError("mode must be 'enumerate' or 'postselect'")
        if self.mode == "postselect" and self.outcome is None:
            raise ValueError("postselect mode needs an outcome level")


@dataclass(frozen=True)
class Timings:
    """The timing solution actually used by a plan."""

    t1: float
    t2: float | None
    omega: float
    omega_prime: float | None
    k: int
    k_prime: int | None


@dataclass(frozen=True)
class ProtocolPlan:
    name: str
    stages: tuple
    space: SpaceDescriptor
    target: StateVector
    timings: Timings


@dataclass(frozen=True)
class Branch:
    label: str
    probability: float
    state: object  # StateVector | DensityMatrix | None for empty branches


@dataclass(frozen=True)
class StageRecord:
    """What one drive stage did; holds no wall times.

    dim is the dimension of the space the generator acts on (Liouville
    space for the decay engine); method is "factored" (Effective),
    "eigh" (exact full-engine propagation) or "chebyshev" (exact Lindblad
    propagation by a Chebyshev-series action of the Liouvillian); leak
    is the top-Fock population the leakage check returned (None where
    the stage cannot leak); drift is the largest relative change of a
    column norm (pure engines) or of a branch trace (Lindblad).
    """

    engine: str
    frame: str
    dim: int
    method: str
    leak: float | None
    drift: float | None


@dataclass(frozen=True)
class ProtocolResult:
    branches: tuple
    fidelities: tuple
    timings: Timings
    diagnostics: dict

    def branch(self, label: str) -> Branch:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(f"no branch {label!r}")

    def branch_fidelity(self, label: str) -> float:
        for b, f in zip(self.branches, self.fidelities):
            if b.label == label:
                return f
        raise KeyError(f"no branch {label!r}")


# ---------------------------------------------------------------------------
# local transfer matrices


def swap_ef_matrix(atom_dim: int) -> np.ndarray:
    """Permutation exchanging |e> and |f> (moves e-population to f)."""
    if atom_dim < 3:
        raise ValueError("swap e<->f needs at least 3 levels")
    mat = np.eye(atom_dim, dtype=complex)
    mat[[1, 2]] = mat[[2, 1]]
    return mat


def swap_gf_eh_matrix(atom_dim: int) -> np.ndarray:
    """Permutation exchanging g<->f and e<->h."""
    if atom_dim != 4:
        raise ValueError("swap g<->f, e<->h needs 4 levels")
    mat = np.eye(4, dtype=complex)
    mat[[0, 2]] = mat[[2, 0]]
    mat[[1, 3]] = mat[[3, 1]]
    return mat


def reduce_rotation_matrix() -> np.ndarray:
    """The 3x3 pre-measurement rotation of the reduction step.

    Columns are the images of |g>, |e>, |f>:
      |g> -> (|g> + |e>)/sqrt(2) ... first column (1/sqrt2, 1/sqrt10, -sqrt(2/5))
    """
    s2, s10, s5 = math.sqrt(2.0), math.sqrt(10.0), math.sqrt(5.0)
    return np.array(
        [
            [1.0 / s2, -1.0 / s2, 0.0],
            [1.0 / s10, 1.0 / s10, 2.0 / s5],
            [-math.sqrt(2.0 / 5.0), -math.sqrt(2.0 / 5.0), 1.0 / s5],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# planners

ARCSIN_1_SQRT3 = math.asin(1.0 / math.sqrt(3.0))


def _drive_params(omega: float) -> DriveParams:
    return DriveParams(omega=omega)


def _pick_k_even(t: float, delta: float | None) -> int:
    """Smallest positive even k with omega = k pi / t >= 10 |delta|."""
    if delta is None or delta == 0:
        return 2
    k = math.ceil(10.0 * abs(delta) * t / math.pi)
    return k + (k % 2) if k > 0 else 2


def _pick_k_any(t: float, delta: float | None, base: int = 1) -> int:
    """Smallest positive integer k with omega = k pi / t >= 10 |delta|."""
    if delta is None or delta == 0:
        return base
    return max(base, math.ceil(10.0 * abs(delta) * t / math.pi))


def plan_two_atom_qutrit(lam: float, k: int | None = None, k_prime: int | None = None,
                         delta: float | None = None) -> ProtocolPlan:
    """Two qutrits to the three-leg maximally entangled state.

    Stage 1 drives for t1 = arcsin(1/sqrt(3)) / lam with omega = k pi / t1
    (k even, so the drive rotation closes with the +cos branch), then a
    local e -> f transfer parks the e-population, and stage 2 drives for
    t2 = pi / (4 lam) with omega' = 2 k' pi / t2.

    Target: e^{-i lam t1} (1/sqrt3) (e^{-i lam t2}|gg> - i e^{-i lam t2}|ee> - i|ff>).

    When ``delta`` is given, default k (k') is the smallest even (any)
    integer putting omega at or above 10 |delta|.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    t1 = ARCSIN_1_SQRT3 / lam
    t2 = math.pi / (4.0 * lam)
    if k is None:
        k = _pick_k_even(t1, delta)
    if k <= 0 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    if k_prime is None:
        k_prime = _pick_k_any(t2 / 2.0, delta)  # omega' = 2 k' pi / t2 = k' pi / (t2/2)
    if k_prime <= 0:
        raise ValueError("k_prime must be a positive integer")
    omega = k * math.pi / t1
    omega_prime = 2.0 * k_prime * math.pi / t2
    space = make_space(2, 3, 0, no_mode=True)

    amps = np.zeros(space.dim, dtype=complex)
    phase = np.exp(-1j * lam * t1) / math.sqrt(3.0)
    amps[basis_index(space, "gg")] = phase * np.exp(-1j * lam * t2)
    amps[basis_index(space, "ee")] = phase * (-1j) * np.exp(-1j * lam * t2)
    amps[basis_index(space, "ff")] = phase * (-1j)
    target = StateVector(space, amps)

    stages = (
        CollectiveDrive(_drive_params(omega), t1, FrameTag.EFFECTIVE, lam),
        LocalTransfer(swap_ef_matrix(3), "all", "swap_ef"),
        CollectiveDrive(_drive_params(omega_prime), t2, FrameTag.EFFECTIVE, lam),
    )
    timings = Timings(t1, t2, omega, omega_prime, k, k_prime)
    return ProtocolPlan("two-atom-qutrit", stages, space, target, timings)


def _ghz_sign(n_atoms: int) -> float:
    if n_atoms % 2 == 0:
        return (-1.0) ** (n_atoms // 2)
    return (-1.0) ** ((n_atoms - 1) // 2)


def _ghz_drive(n_atoms: int, lam: float, n_choice: int | None,
               delta: float | None) -> tuple[CollectiveDrive, int]:
    """The single GHZ drive: lam t = pi/4 with the parity-dependent
    omega condition (omega t = n pi for even N, (2n + 3/4) pi for odd N)."""
    t = math.pi / (4.0 * lam)
    if n_atoms % 2 == 0:
        n = n_choice if n_choice is not None else _pick_k_any(t, delta)
        if n <= 0:
            raise ValueError("n_choice must be a positive integer")
        omega = n * math.pi / t
    else:
        if n_choice is not None:
            n = n_choice
        elif delta is None or delta == 0:
            n = 1
        else:
            n = max(1, math.ceil((10.0 * abs(delta) * t / math.pi - 0.75) / 2.0))
        if n < 0:
            raise ValueError("n_choice must be non-negative")
        omega = (2.0 * n + 0.75) * math.pi / t
    return CollectiveDrive(_drive_params(omega), t, FrameTag.EFFECTIVE, lam), n


def plan_ghz_two_level(n_atoms: int, lam: float, n_choice: int | None = None,
                       delta: float | None = None) -> ProtocolPlan:
    """N qubits to a two-leg GHZ state with one collective pulse.

    Even N target: (e^{-i pi/4}|g..g> + e^{+i pi/4} (-1)^{N/2} |e..e>)/sqrt2.
    Odd N target: e^{-i 7 pi/8} (e^{-i pi/4}|g..g>
                  + e^{+i pi/4} (-1)^{(N-1)/2} |e..e>)/sqrt2.

    The odd-N relative sign (-1)^{(N-1)/2} and the e-leg ket are fixed by
    direct evolution (checked for N = 1, 3, 5), not read off a printed
    formula; see the tests.
    """
    if n_atoms < 2:
        raise ValueError("need at least 2 atoms")
    if lam <= 0:
        raise ValueError("lam must be positive")
    drive, n = _ghz_drive(n_atoms, lam, n_choice, delta)
    space = make_space(n_atoms, 2, 0, no_mode=True)

    amps = np.zeros(space.dim, dtype=complex)
    sign = _ghz_sign(n_atoms)
    overall = 1.0 if n_atoms % 2 == 0 else np.exp(-1j * 7.0 * math.pi / 8.0)
    amps[basis_index(space, "g" * n_atoms)] = overall * np.exp(-1j * math.pi / 4.0) / math.sqrt(2.0)
    amps[basis_index(space, "e" * n_atoms)] = overall * np.exp(1j * math.pi / 4.0) * sign / math.sqrt(2.0)
    target = StateVector(space, amps)

    timings = Timings(drive.duration, None, drive.params.omega, None, n, None)
    return ProtocolPlan("ghz", (drive,), space, target, timings)


def plan_ghz_three_level(n_atoms: int, lam: float, n_choice: int | None = None,
                         delta: float | None = None) -> ProtocolPlan:
    """Even-N qutrits to the three-leg GHZ state.

    Drive, park the e-leg in f, drive again.  Target amplitudes:
    (1/2) e^{-i pi/2} |g..g> + (1/2) s |e..e> + (1/sqrt2) e^{i pi/4} s |f..f>
    with s = (-1)^{N/2}.
    """
    if n_atoms < 2 or n_atoms % 2 != 0:
        raise ValueError("n_atoms must be even and at least 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    drive1, n1 = _ghz_drive(n_atoms, lam, n_choice, delta)
    drive2, n2 = _ghz_drive(n_atoms, lam, n_choice, delta)
    space = make_space(n_atoms, 3, 0, no_mode=True)

    sign = _ghz_sign(n_atoms)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "g" * n_atoms)] = 0.5 * np.exp(-1j * math.pi / 2.0)
    amps[basis_index(space, "e" * n_atoms)] = 0.5 * sign
    amps[basis_index(space, "f" * n_atoms)] = np.exp(1j * math.pi / 4.0) * sign / math.sqrt(2.0)
    target = StateVector(space, amps)

    stages = (drive1, LocalTransfer(swap_ef_matrix(3), "all", "swap_ef"), drive2)
    timings = Timings(drive1.duration, drive2.duration, drive1.params.omega,
                      drive2.params.omega, n1, n2)
    return ProtocolPlan("ghz-three-level", stages, space, target, timings)


def plan_measure_reduce(n_atoms: int, lam: float, n_choice: int | None = None,
                        delta: float | None = None) -> ProtocolPlan:
    """Three-level GHZ on even N >= 4 atoms, then rotate and measure the
    last atom.  The f outcome (probability exactly 0.3) heralds a
    three-leg GHZ state on the remaining N-1 atoms.

    The plan target is the f-branch state: equal moduli 1/sqrt3 on
    |g..g>, |e..e>, |f..f> of the first N-1 atoms, the measured atom
    left in |f>.
    """
    if n_atoms < 4 or n_atoms % 2 != 0:
        raise ValueError("n_atoms must be even and at least 4")
    base = plan_ghz_three_level(n_atoms, lam, n_choice, delta)
    space = base.space
    last = n_atoms - 1

    sign = _ghz_sign(n_atoms)
    amps = np.zeros(space.dim, dtype=complex)
    norm = 1.0 / math.sqrt(3.0)
    amps[basis_index(space, "g" * (n_atoms - 1) + "f")] = -norm * np.exp(-1j * math.pi / 2.0)
    amps[basis_index(space, "e" * (n_atoms - 1) + "f")] = -norm * sign
    amps[basis_index(space, "f" * n_atoms)] = norm * np.exp(1j * math.pi / 4.0) * sign
    target = StateVector(space, amps)

    stages = base.stages + (
        LocalTransfer(reduce_rotation_matrix(), last, "reduce_rotation"),
        Measurement(last, "enumerate"),
    )
    return ProtocolPlan("measure-reduce", stages, space, target, base.timings)


def plan_ghz_four_level(n_atoms: int, lam: float, n_choice: int | None = None,
                        delta: float | None = None) -> ProtocolPlan:
    """Even-N four-level atoms to the four-leg GHZ state.

    Three-level schedule, then swap (g<->f, e<->h) and drive once more.
    Target: (1/2)[s|g..g> + e^{i pi/2}|e..e> + e^{-i pi/2}|f..f> + s|h..h>]
    with s = (-1)^{N/2}.
    """
    if n_atoms < 2 or n_atoms % 2 != 0:
        raise ValueError("n_atoms must be even and at least 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    drives = [_ghz_drive(n_atoms, lam, n_choice, delta) for _ in range(3)]
    space = make_space(n_atoms, 4, 0, no_mode=True)

    sign = _ghz_sign(n_atoms)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "g" * n_atoms)] = 0.5 * sign
    amps[basis_index(space, "e" * n_atoms)] = 0.5 * np.exp(1j * math.pi / 2.0)
    amps[basis_index(space, "f" * n_atoms)] = 0.5 * np.exp(-1j * math.pi / 2.0)
    amps[basis_index(space, "h" * n_atoms)] = 0.5 * sign
    target = StateVector(space, amps)

    stages = (
        drives[0][0],
        LocalTransfer(swap_ef_matrix(4), "all", "swap_ef"),
        drives[1][0],
        LocalTransfer(swap_gf_eh_matrix(4), "all", "swap_gf_eh"),
        drives[2][0],
    )
    timings = Timings(drives[0][0].duration, drives[1][0].duration,
                      drives[0][0].params.omega, drives[1][0].params.omega,
                      drives[0][1], drives[1][1])
    return ProtocolPlan("ghz-four-level", stages, space, target, timings)


PLANNERS = {
    "two-atom-qutrit": plan_two_atom_qutrit,
    "ghz": plan_ghz_two_level,
    "ghz-three-level": plan_ghz_three_level,
    "measure-reduce": plan_measure_reduce,
    "ghz-four-level": plan_ghz_four_level,
}


# ---------------------------------------------------------------------------
# engines


@dataclass(frozen=True)
class Effective:
    """Factored-propagator engine: exact, photon-number independent."""


@dataclass(frozen=True)
class FullCavity:
    """Propagates the driven cavity Hamiltonian on an attached Fock mode,
    one exact eigendecomposition per drive stage.

    initial_mode is a Fock number or a ThermalSpec; frame selects the
    interaction picture (default) or the slow frame.
    """

    params: DriveParams
    fock_cutoff: int = 12
    initial_mode: object = 0
    frame: FrameTag = FrameTag.INTERACTION_PICTURE

    def lam(self) -> float:
        return lambda_cavity(self.params.g, self.params.delta)


@dataclass(frozen=True)
class FullIon:
    """Propagates the sideband Hamiltonian on the vibrational mode, one
    exact eigendecomposition per drive stage."""

    params: DriveParams
    fock_cutoff: int = 10
    initial_mode: object = 0
    frame: FrameTag = FrameTag.ION_INTERACTION

    def lam(self) -> float:
        return lambda_ion(self.params.omega, self.params.eta, self.params.delta)


@dataclass(frozen=True)
class Lindblad:
    """Density-matrix engine: the interaction-picture cavity Hamiltonian
    plus cavity decay, one exact Liouville-space propagation per drive
    stage.

    initial_mode is a Fock number or a ThermalSpec; run_plan starts from
    the density matrix C C^dag of the columns FullCavity would start from.
    """

    params: DriveParams
    decay: DecaySpec
    fock_cutoff: int = 12
    initial_mode: object = 0

    def lam(self) -> float:
        return lambda_cavity(self.params.g, self.params.delta)


def _check_lam(engine_lam: float, stage_lam: float):
    if abs(engine_lam - stage_lam) > 1e-9 * max(1.0, abs(stage_lam)):
        raise ValueError(
            f"engine effective coupling {engine_lam!r} does not match the "
            f"plan's {stage_lam!r}; replan with the engine's parameters"
        )


def run_plan(plan: ProtocolPlan, initial=None, engine=None) -> ProtocolResult:
    """Execute every stage of a plan and collect measurement branches.

    One loop serves every engine; branches hold columns (pure engines)
    or a density matrix (Lindblad), as the module docstring describes.
    initial is None (all atoms in |g>), an atoms-only StateVector, a
    full-space StateVector or, for Lindblad, a full-space DensityMatrix;
    mode-attached engines put an atoms-only start next to their
    initial_mode (Fock level or ThermalSpec).  Returns a ProtocolResult
    whose fidelities compare each branch against plan.target on the
    atomic factor.
    """
    engine = engine if engine is not None else Effective()
    mixed = isinstance(engine, Lindblad)
    space_run, start = _initial_state(plan, initial, engine)
    branches = [("", start)]
    t_abs = 0.0
    records = []

    for stage in plan.stages:
        if isinstance(stage, CollectiveDrive):
            states, record = _drive(plan, space_run, stage, engine,
                                    [x for _, x in branches], t_abs)
            branches = [(label, x) for (label, _), x in zip(branches, states)]
            records.append(record)
            t_abs += stage.duration
        elif isinstance(stage, LocalTransfer):
            transfer = partial(apply_local, space_run, stage.matrix, stage.atoms)
            branches = [(label, _apply_left(transfer, x, mixed)) for label, x in branches]
        elif isinstance(stage, Measurement):
            d = space_run.atom_dim
            outcomes = range(d) if stage.mode == "enumerate" else [stage.outcome]
            if stage.mode == "postselect" and not 0 <= stage.outcome < d:
                raise ValueError(f"measured level {stage.outcome} outside 0..{d - 1}")
            projectors = [(LEVEL_LABELS[level],
                           partial(apply_local, space_run, local_proj(d, level), stage.atom_index))
                          for level in outcomes]
            branches = [(label + tag, _apply_left(project, x, mixed))
                        for label, x in branches for tag, project in projectors]
        else:
            raise TypeError(f"unknown stage {stage!r}")

    out_branches = []
    out_fids = []
    for label, x in branches:
        prob, state, fid = _read_out(space_run, x, plan.target, mixed)
        out_branches.append(Branch(label or "all", prob, state))
        out_fids.append(fid)
    diagnostics = {"engine": type(engine).__name__, "absolute_duration": t_abs,
                   "stages": tuple(records)}
    return ProtocolResult(tuple(out_branches), tuple(out_fids), plan.timings, diagnostics)


def _initial_state(plan: ProtocolPlan, initial, engine):
    """Resolve (space_run, start) for every engine.

    The start is the (dim, k) block of the initial ensemble's members,
    each scaled by the square root of its weight (one unit column for a
    pure start); Lindblad takes the density matrix C C^dag of that block,
    or the full-space DensityMatrix it was given.
    """
    if initial is None:
        initial = basis_state(plan.space, "g" * plan.space.atom_count)
    if isinstance(initial, StateVector) and initial.space.atoms_only() != plan.space:
        raise ValueError("initial state's atoms do not match the plan's")
    if isinstance(engine, Effective):
        if isinstance(initial, StateVector):
            return initial.space, initial.amplitudes[:, None].copy()
        raise TypeError("Effective engine takes a StateVector initial (or None)")

    space_run = plan.space.with_mode(engine.fock_cutoff)
    mixed = isinstance(engine, Lindblad)
    if mixed and isinstance(initial, DensityMatrix):
        if initial.space != space_run:
            raise ValueError("initial density matrix does not match the engine's space")
        return space_run, initial.matrix
    if isinstance(initial, StateVector) and not initial.space.no_mode:
        if initial.space != space_run:
            raise ValueError("initial state does not match the engine's space")
        cols = initial.amplitudes[:, None].copy()
    elif isinstance(initial, StateVector):
        atoms = initial.amplitudes
        mode_prep = engine.initial_mode
        nm = space_run.mode_dim
        if isinstance(mode_prep, ThermalSpec):
            if mode_prep.cutoff > engine.fock_cutoff:
                raise ValueError("thermal cutoff exceeds the engine's fock_cutoff")
            weights = mode_prep.probabilities()
            ns = np.arange(mode_prep.cutoff + 1)
        else:
            n = int(mode_prep)
            if not 0 <= n < nm:
                raise ValueError(f"initial Fock level {n} outside mode dimension {nm}")
            weights = np.ones(1)
            ns = np.array([n])
        # column j is sqrt(p_j) |atoms, n_j>
        mode = np.zeros((nm, len(ns)), dtype=complex)
        mode[ns, np.arange(len(ns))] = np.sqrt(weights)
        cols = np.kron(atoms[:, None], mode)
    else:
        accepted = ", a full-space DensityMatrix," if mixed else ""
        raise TypeError(f"{type(engine).__name__} engine takes an atoms-only or "
                        f"full-space StateVector{accepted} or None as initial")
    return space_run, (cols @ cols.conj().T if mixed else cols)


def _drive_generator(space_run: SpaceDescriptor, stage: CollectiveDrive, engine) -> np.ndarray:
    """Static mode-frame generator V of one drive stage under a
    mode-attached engine."""
    _check_lam(engine.lam(), stage.lam)
    if isinstance(engine, FullIon):
        if engine.frame not in (FrameTag.ION_INTERACTION, FrameTag.ION_LAMB_DICKE):
            raise ValueError(f"FullIon cannot run frame {engine.frame}")
        return ion_terms(space_run, engine.params, engine.frame)
    merged = replace(engine.params, omega=stage.params.omega)
    if isinstance(engine, Lindblad) or engine.frame == FrameTag.INTERACTION_PICTURE:
        return interaction_terms(space_run, merged)
    if engine.frame == FrameTag.SLOW_FRAME:
        return slow_terms(space_run, merged)
    raise ValueError(f"cavity engine cannot run frame {engine.frame}")


def _drive(plan: ProtocolPlan, space_run: SpaceDescriptor, stage: CollectiveDrive,
           engine, states: list, t_abs: float):
    """Propagate the states of every branch through one drive stage that
    starts at absolute time t_abs; returns the new states and the
    stage's record."""
    name = type(engine).__name__
    if isinstance(engine, Effective):
        block = np.hstack(states)
        out = evolve_factored(space_run, stage.lam, stage.params.omega, stage.duration, block)
        drift = norm_drift(np.linalg.norm(block, axis=0), np.linalg.norm(out, axis=0))
        return _split_columns(out, states), StageRecord(
            name, FrameTag.EFFECTIVE.value, plan.space.atoms_dim, "factored", None, drift)
    v = _drive_generator(space_run, stage, engine)
    t_end = t_abs + stage.duration
    if isinstance(engine, Lindblad):
        out = list(states)
        live = [i for i, rho in enumerate(states) if np.trace(rho).real > 1e-30]
        leak = drift = 0.0
        if live:
            prop = evolve_lindblad(v, engine.params.delta, engine.decay, space_run,
                                   np.stack([states[i] for i in live]), t_abs, t_end)
            for i, rho in zip(live, prop.states):
                out[i] = rho
            leak, drift = prop.leak, prop.drift
        return out, StageRecord(name, FrameTag.INTERACTION_PICTURE.value, space_run.dim ** 2,
                                "chebyshev", leak, drift)
    prop = evolve_exact(v, engine.params.delta, space_run, np.hstack(states), t_abs, t_end)
    return _split_columns(prop.states, states), StageRecord(
        name, engine.frame.value, space_run.dim, "eigh", prop.leak, prop.drift)


def _split_columns(block: np.ndarray, states: list) -> list:
    """Split a propagated column block back into the branches' blocks."""
    return np.split(block, np.cumsum([x.shape[1] for x in states])[:-1], axis=1)


def _apply_left(op, x, mixed: bool):
    """Apply a left-acting map (an atoms-only operator or a projector) to
    a branch: to its columns, or to both sides of its density matrix as
    op(op(rho)^dag)^dag."""
    return op(op(x).conj().T).conj().T if mixed else op(x)


def _read_out(space_run: SpaceDescriptor, x, target: StateVector, mixed: bool):
    """Probability, normalized state and atomic-target fidelity of one
    branch, whose columns or density matrix carry its weight."""
    prob = float(np.trace(x).real) if mixed else float(np.sum(np.abs(x) ** 2))
    if prob <= 1e-30:
        return max(prob, 0.0), None, 0.0
    t = target.amplitudes
    if mixed:
        mat = x / prob
        # <t| rho_atoms |t> without forming the reduced matrix
        r4 = mat.reshape(space_run.atoms_dim, space_run.mode_dim,
                         space_run.atoms_dim, space_run.mode_dim)
        fid = float(min(1.0, max(0.0, (t.conj() @ np.einsum("ambm->ab", r4) @ t).real)))
        return prob, DensityMatrix(space_run, mat), fid
    proj = t.conj() @ x.T.reshape(-1, space_run.atoms_dim, space_run.mode_dim)
    fid = min(1.0, float(np.sum(np.abs(proj) ** 2)) / prob)
    if x.shape[1] == 1:
        return prob, StateVector(space_run, x[:, 0] / math.sqrt(prob)), fid
    return prob, DensityMatrix(space_run, (x @ x.conj().T) / prob), fid


def plan_unitary(plan: ProtocolPlan) -> Operator:
    """Compose the unitary stages (drives and transfers) of a plan on the
    atomic factor, skipping measurements."""
    dim = plan.space.atoms_dim
    u = np.eye(dim, dtype=complex)
    for stage in plan.stages:
        if isinstance(stage, CollectiveDrive):
            u = evolve_factored(plan.space, stage.lam, stage.params.omega, stage.duration, u)
        elif isinstance(stage, LocalTransfer):
            u = apply_local(plan.space, stage.matrix, stage.atoms, u)
    return Operator(plan.space, u)


def sample_outcome(result: ProtocolResult, seed: int) -> str:
    """Draw one measurement outcome label; deterministic given the seed.

    Raises PhysicsError when every branch has probability 0, since there
    is then no outcome to draw.
    """
    rng = np.random.default_rng(seed)
    labels = [b.label for b in result.branches]
    probs = np.array([max(b.probability, 0.0) for b in result.branches])
    total = probs.sum()
    if not total > 0.0:
        raise PhysicsError("every measurement branch has probability 0; nothing to sample")
    probs = probs / total
    return str(rng.choice(labels, p=probs))


def drive_population_series(params: DriveParams, n_start: int, duration: float,
                            sample_count: int = 1200, fock_cutoff: int = 10,
                            atom_count: int = 2) -> TimeSeries:
    """Population of |e..e> (any Fock level) along a full-cavity drive,
    read in the frame co-rotating with the classical drive.

    Starting from |g..g, n>, the co-rotating population oscillates at
    twice the effective collective rate, 2 lam = g^2/delta, with only a
    weak dependence on n; this is the observable behind the effective
    model's Rabi frequency and its photon-number independence.  Every
    sample comes from one exact eigendecomposition of the stage.
    """
    space = make_space(atom_count, 2, fock_cutoff)
    v = interaction_terms(space, params)
    psi0 = basis_state(space, "g" * atom_count, n_start).amplitudes[:, None]
    times = np.linspace(0.0, duration, sample_count)
    traj = evolve_exact(v, params.delta, space, psi0, 0.0, duration,
                        t_eval=times).states

    e_all = basis_index(space.atoms_only(), "e" * atom_count, 0)
    omega = params.omega
    values = np.empty(sample_count)
    for i, t in enumerate(times):
        # single-atom co-rotation exp(+i H0 t): cos on the diagonal,
        # +i sin off-diagonal in the g/e basis
        c, s = math.cos(omega * t), math.sin(omega * t)
        r1 = np.array([[c, 1j * s], [1j * s, c]])
        rotated = apply_local(space, r1, "all", traj[i][:, 0]).reshape(space.atoms_dim, -1)
        values[i] = float(np.sum(np.abs(rotated[e_all, :]) ** 2))
    return TimeSeries(times, values)
