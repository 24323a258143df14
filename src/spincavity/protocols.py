"""Staged entanglement protocols and the engines that execute them.

Each planner returns a ProtocolPlan: an ordered list of pulse stages
(collective drives, instantaneous local transfers, a final measurement)
together with the closed-form target state the schedule prepares.
The planners differ only in their schedule and target legs: ``_target``
builds every target from its legs' amplitudes, ``_ghz_drive`` every GHZ
drive (checking lam), ``_timings`` the Timings of the first two drives,
and ``_permutation`` the level swaps behind the transfers.

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

``run_plan`` is one stage loop for every engine, and one object holds
every measurement branch of a run; the engine picks its class.
``_Columns`` (pure engines) holds x (dim, B, k): branch b's ensemble is
the block x[:, b] of k columns, each scaled by the square root of its
weight, so x.reshape(dim, -1) is every branch's columns in branch
order.  ``_Density`` (Lindblad) holds the (B, dim, dim) stack of the
branches' density matrices, each with its weight as trace (C C^dag of
the same block).  ``_drive`` hands x to the stage's propagator as is
(reshaped to columns for the pure engines), and run_plan asks the
object only for ``left`` (atoms-only maps: from the left on columns, on
both sides of a density matrix) and ``read_out``.  A transfer is one
map and a measurement one projector per outcome, so branch b under map
j becomes branch b len(maps) + j.  Transfers and measurement projectors
are single-atom matrices applied on each atom's own axis
(dynamics.apply_local); no d^N x d^N transfer matrix is formed.

Both full engines propagate each drive stage exactly with
dynamics.evolve_exact: their generators are static in the mode frame
exp(-i delta adag a t) and block diagonal in the spectator x total-spin
basis of the atoms, so a stage is one eigendecomposition per occupied
block that every column of every branch (thermal columns included) goes
through.  The decay engine does the same in Liouville space with
dynamics.evolve_lindblad: the cavity dissipator is static in that frame
too and acts on the mode alone, so a stage is one Liouvillian and one
Chebyshev action per occupied pair of blocks, carrying the density
matrices of every branch at once.  ``_drive`` hands the propagators the
stage's builder (``hamiltonians.*_terms`` with the space and the
engine's parameters bound, the stage giving only its drive omega),
which they call once per occupied block.

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
    """A collective-interaction pulse: the classical drive omega (the Rabi
    frequency the planner solved for) held for duration.  lam is the
    effective collective rate the timing was derived from; the engine
    supplies the rest (g, delta, eta, the frame) and must agree with it.
    """

    omega: float
    duration: float
    lam: float

    def __post_init__(self):
        if not 0 <= self.omega < math.inf:
            raise ValueError(f"omega must be non-negative and finite, got {self.omega!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")


@dataclass(frozen=True)
class LocalTransfer:
    """An instantaneous local unitary on one atom or on all atoms."""

    matrix: np.ndarray
    atoms: object  # "all" or an atom index
    name: str = ""

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if not dev <= 1e-12:
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

    dim is the dimension of the largest block the stage propagated: the
    atomic dimension d^N (Effective), a total-spin block (2J + 1) m of
    the mode-attached space (full engines), or the Liouville-space block
    (2J + 1) m (2J' + 1) m of a pair of them (decay engine); 0 when every
    block was zero.  method is "factored" (Effective),
    "eigh" (exact full-engine propagation) or "chebyshev" (exact Lindblad
    propagation by a Chebyshev-series action of the Liouvillian); leak
    is the top-Fock population the leakage check returned (None where
    the stage cannot leak); drift is the largest relative change of a
    column norm (pure engines) or of a branch trace (Lindblad); products
    is the number of Chebyshev products (CSR kernel calls) the stage took
    (None for the pure engines); groups is the 2J of each spin group of
    the coupled basis that the stage occupied, largest first
    (``Propagation.groups``; None for Effective, which has no such basis).
    """

    engine: str
    frame: str
    dim: int
    method: str
    leak: float | None
    drift: float | None
    products: int | None
    groups: tuple | None


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


def _permutation(atom_dim: int, *swaps: tuple) -> np.ndarray:
    """The atom_dim-level identity with each (i, j) pair of levels swapped."""
    mat = np.eye(atom_dim, dtype=complex)
    for i, j in swaps:
        mat[[i, j]] = mat[[j, i]]
    return mat


def swap_ef_matrix(atom_dim: int) -> np.ndarray:
    """Permutation exchanging |e> and |f> (moves e-population to f)."""
    if atom_dim < 3:
        raise ValueError("swap e<->f needs at least 3 levels")
    return _permutation(atom_dim, (1, 2))


def swap_gf_eh_matrix(atom_dim: int) -> np.ndarray:
    """Permutation exchanging g<->f and e<->h."""
    if atom_dim != 4:
        raise ValueError("swap g<->f, e<->h needs 4 levels")
    return _permutation(4, (0, 2), (1, 3))


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


def _stage_time(t: float) -> float:
    """A planner's stage time, refused unless positive and finite (lam
    near the float range's ends can give 0 or inf)."""
    if not 0 < t < math.inf:
        raise ValueError(f"stage time {t!r} is not positive and finite; lam is out of range")
    return t


def _drive_index(t: float, delta: float) -> float:
    """10 |delta| t / pi, the drive index at which omega = k pi / t reaches
    10 |delta|; ValueError when it is not finite."""
    x = 10.0 * abs(delta) * t / math.pi
    if not math.isfinite(x):
        raise ValueError(f"drive index 10 |delta| t / pi is not finite "
                         f"(delta = {delta!r}, t = {t!r}); the coupling is too weak")
    return x


def _pick_k_even(t: float, delta: float | None) -> int:
    """Smallest positive even k with omega = k pi / t >= 10 |delta|."""
    if delta is None or delta == 0:
        return 2
    k = math.ceil(_drive_index(t, delta))
    return k + (k % 2) if k > 0 else 2


def _pick_k_any(t: float, delta: float | None) -> int:
    """Smallest positive integer k with omega = k pi / t >= 10 |delta|."""
    if delta is None or delta == 0:
        return 1
    return max(1, math.ceil(_drive_index(t, delta)))


def _target(space: SpaceDescriptor, legs: dict) -> StateVector:
    """The target state of a plan: amplitude legs[leg] on each atomic
    product state leg (a level string such as "gf"), zero elsewhere."""
    amps = np.zeros(space.dim, dtype=complex)
    for leg, amp in legs.items():
        amps[basis_index(space, leg)] = amp
    return StateVector(space, amps)


def _timings(drives: list) -> Timings:
    """The Timings of a plan's first two (drive, index) pairs; a
    one-drive plan leaves the second stage's fields None."""
    (first, k), (second, k_prime) = (drives + [(None, None)])[:2]
    if second is None:
        return Timings(first.duration, None, first.omega, None, k, None)
    return Timings(first.duration, second.duration, first.omega, second.omega, k, k_prime)


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
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    t1 = _stage_time(ARCSIN_1_SQRT3 / lam)
    t2 = _stage_time(math.pi / (4.0 * lam))
    if k is None:
        k = _pick_k_even(t1, delta)
    if k <= 0 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    if k_prime is None:
        k_prime = _pick_k_any(t2 / 2.0, delta)  # omega' = 2 k' pi / t2 = k' pi / (t2/2)
    if k_prime <= 0:
        raise ValueError("k_prime must be a positive integer")
    phase = np.exp(-1j * lam * t1) / math.sqrt(3.0)
    target = _target(make_space(2, 3, 0, no_mode=True), {
        "gg": phase * np.exp(-1j * lam * t2),
        "ee": phase * (-1j) * np.exp(-1j * lam * t2),
        "ff": phase * (-1j)})
    drive1 = CollectiveDrive(k * math.pi / t1, t1, lam)
    drive2 = CollectiveDrive(2.0 * k_prime * math.pi / t2, t2, lam)
    stages = (drive1, LocalTransfer(swap_ef_matrix(3), "all", "swap_ef"), drive2)
    return ProtocolPlan("two-atom-qutrit", stages, target.space, target,
                        _timings([(drive1, k), (drive2, k_prime)]))


def _ghz_sign(n_atoms: int) -> float:
    if n_atoms % 2 == 0:
        return (-1.0) ** (n_atoms // 2)
    return (-1.0) ** ((n_atoms - 1) // 2)


def _ghz_drive(n_atoms: int, lam: float, n_choice: int | None,
               delta: float | None) -> tuple[CollectiveDrive, int]:
    """The GHZ drive and its index n: lam t = pi/4 with the
    parity-dependent omega condition (omega t = n pi for even N,
    (2n + 3/4) pi for odd N); lam must be positive and finite."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    t = _stage_time(math.pi / (4.0 * lam))
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
            n = max(1, math.ceil((_drive_index(t, delta) - 0.75) / 2.0))
        if n < 0:
            raise ValueError("n_choice must be non-negative")
        omega = (2.0 * n + 0.75) * math.pi / t
    return CollectiveDrive(omega, t, lam), n


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
    drive, n = _ghz_drive(n_atoms, lam, n_choice, delta)
    overall = 1.0 if n_atoms % 2 == 0 else np.exp(-1j * 7.0 * math.pi / 8.0)
    target = _target(make_space(n_atoms, 2, 0, no_mode=True), {
        "g" * n_atoms: overall * np.exp(-1j * math.pi / 4.0) / math.sqrt(2.0),
        "e" * n_atoms: overall * np.exp(1j * math.pi / 4.0) * _ghz_sign(n_atoms) / math.sqrt(2.0)})
    return ProtocolPlan("ghz", (drive,), target.space, target, _timings([(drive, n)]))


def plan_ghz_three_level(n_atoms: int, lam: float, n_choice: int | None = None,
                         delta: float | None = None) -> ProtocolPlan:
    """Even-N qutrits to the three-leg GHZ state.

    Drive, park the e-leg in f, drive again.  Target amplitudes:
    (1/2) e^{-i pi/2} |g..g> + (1/2) s |e..e> + (1/sqrt2) e^{i pi/4} s |f..f>
    with s = (-1)^{N/2}.
    """
    if n_atoms < 2 or n_atoms % 2 != 0:
        raise ValueError("n_atoms must be even and at least 2")
    drive, n = _ghz_drive(n_atoms, lam, n_choice, delta)
    sign = _ghz_sign(n_atoms)
    target = _target(make_space(n_atoms, 3, 0, no_mode=True), {
        "g" * n_atoms: 0.5 * np.exp(-1j * math.pi / 2.0),
        "e" * n_atoms: 0.5 * sign,
        "f" * n_atoms: np.exp(1j * math.pi / 4.0) * sign / math.sqrt(2.0)})
    stages = (drive, LocalTransfer(swap_ef_matrix(3), "all", "swap_ef"), drive)
    return ProtocolPlan("ghz-three-level", stages, target.space, target, _timings([(drive, n)] * 2))


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
    last, sign, norm = n_atoms - 1, _ghz_sign(n_atoms), 1.0 / math.sqrt(3.0)
    target = _target(base.space, {
        "g" * last + "f": -norm * np.exp(-1j * math.pi / 2.0),
        "e" * last + "f": -norm * sign,
        "f" * n_atoms: norm * np.exp(1j * math.pi / 4.0) * sign})
    stages = base.stages + (
        LocalTransfer(reduce_rotation_matrix(), last, "reduce_rotation"),
        Measurement(last, "enumerate"),
    )
    return ProtocolPlan("measure-reduce", stages, base.space, target, base.timings)


def plan_ghz_four_level(n_atoms: int, lam: float, n_choice: int | None = None,
                        delta: float | None = None) -> ProtocolPlan:
    """Even-N four-level atoms to the four-leg GHZ state.

    Three-level schedule, then swap (g<->f, e<->h) and drive once more.
    Target: (1/2)[s|g..g> + e^{i pi/2}|e..e> + e^{-i pi/2}|f..f> + s|h..h>]
    with s = (-1)^{N/2}.
    """
    if n_atoms < 2 or n_atoms % 2 != 0:
        raise ValueError("n_atoms must be even and at least 2")
    drive, n = _ghz_drive(n_atoms, lam, n_choice, delta)
    sign = _ghz_sign(n_atoms)
    target = _target(make_space(n_atoms, 4, 0, no_mode=True), {
        "g" * n_atoms: 0.5 * sign,
        "e" * n_atoms: 0.5 * np.exp(1j * math.pi / 2.0),
        "f" * n_atoms: 0.5 * np.exp(-1j * math.pi / 2.0),
        "h" * n_atoms: 0.5 * sign})
    stages = (
        drive,
        LocalTransfer(swap_ef_matrix(4), "all", "swap_ef"),
        drive,
        LocalTransfer(swap_gf_eh_matrix(4), "all", "swap_gf_eh"),
        drive,
    )
    return ProtocolPlan("ghz-four-level", stages, target.space, target, _timings([(drive, n)] * 2))


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
    one exact eigendecomposition per occupied total-spin block of a drive
    stage.

    initial_mode is a Fock number or a ThermalSpec; frame selects the
    interaction picture (default) or the slow frame.
    """

    params: DriveParams
    fock_cutoff: int = 12
    initial_mode: object = 0
    frame: FrameTag = FrameTag.INTERACTION_PICTURE

    def __post_init__(self):
        if self.frame not in (FrameTag.INTERACTION_PICTURE, FrameTag.SLOW_FRAME):
            raise ValueError(f"FullCavity cannot run frame {self.frame}")

    def lam(self) -> float:
        return lambda_cavity(self.params.g, self.params.delta)


@dataclass(frozen=True)
class FullIon:
    """Propagates the sideband Hamiltonian on the vibrational mode, one
    exact eigendecomposition per occupied total-spin block of a drive
    stage."""

    params: DriveParams
    fock_cutoff: int = 10
    initial_mode: object = 0
    frame: FrameTag = FrameTag.ION_INTERACTION

    def __post_init__(self):
        if self.frame not in (FrameTag.ION_INTERACTION, FrameTag.ION_LAMB_DICKE):
            raise ValueError(f"FullIon cannot run frame {self.frame}")

    def lam(self) -> float:
        return lambda_ion(self.params.omega, self.params.eta, self.params.delta)


@dataclass(frozen=True)
class Lindblad:
    """Density-matrix engine: the interaction-picture cavity Hamiltonian
    plus cavity decay, one exact Liouville-space propagation per occupied
    pair of total-spin blocks of a drive stage.

    initial_mode is a Fock number or a ThermalSpec; run_plan starts from
    the density matrix C C^dag of the columns FullCavity would start from.
    """

    params: DriveParams
    decay: DecaySpec
    fock_cutoff: int = 12
    initial_mode: object = 0

    def lam(self) -> float:
        return lambda_cavity(self.params.g, self.params.delta)


def run_plan(plan: ProtocolPlan, initial=None, engine=None) -> ProtocolResult:
    """Execute every stage of a plan and collect measurement branches.

    One loop serves every engine: the engine's state object (columns for
    the pure engines, a density stack for Lindblad, as the module
    docstring describes) holds every branch, and run_plan keeps only
    their labels.  initial is None (all atoms in |g>), an atoms-only
    StateVector, a full-space StateVector or, for Lindblad, a full-space
    DensityMatrix; mode-attached engines put an atoms-only start next to
    their initial_mode (Fock level or ThermalSpec).  Returns a
    ProtocolResult whose fidelities compare each branch against
    plan.target on the atomic factor.
    """
    engine = engine if engine is not None else Effective()
    space_run, state = _initial_state(plan, initial, engine)
    labels = [""]
    t_abs = 0.0
    records = []

    for stage in plan.stages:
        if isinstance(stage, CollectiveDrive):
            state, record = _drive(plan, space_run, stage, engine, state, t_abs)
            records.append(record)
            t_abs += stage.duration
        elif isinstance(stage, LocalTransfer):
            state = state.left([partial(apply_local, space_run, stage.matrix, stage.atoms)])
        elif isinstance(stage, Measurement):
            d = space_run.atom_dim
            outcomes = range(d) if stage.mode == "enumerate" else [stage.outcome]
            if stage.mode == "postselect" and not 0 <= stage.outcome < d:
                raise ValueError(f"measured level {stage.outcome} outside 0..{d - 1}")
            state = state.left([partial(apply_local, space_run, local_proj(d, level), stage.atom_index)
                                for level in outcomes])
            labels = [label + LEVEL_LABELS[level] for label in labels for level in outcomes]
        else:
            raise TypeError(f"unknown stage {stage!r}")

    outs = [state.read_out(space_run, plan.target, b) for b in range(len(labels))]
    branches = tuple(Branch(label or "all", *out[:2]) for label, out in zip(labels, outs))
    diagnostics = {"engine": type(engine).__name__, "absolute_duration": t_abs,
                   "stages": tuple(records)}
    return ProtocolResult(branches, tuple(out[2] for out in outs), plan.timings, diagnostics)


class _Branches:
    """Every branch of a run in one array x, the branches along axis
    ``axis``; run_plan asks it only for ``left`` and ``read_out``."""

    axis = 0

    def __init__(self, x: np.ndarray):
        self.x = x

    def left(self, ops: list):
        """The branches under left-acting atoms-only maps: branch b under
        ops[j] becomes branch b len(ops) + j.  One map (a transfer) gives
        its result itself; several (a measurement's projectors) write
        their images into one preallocated array."""
        if len(ops) == 1:
            return type(self)(self._map(ops[0]))
        head, tail = self.x.shape[:self.axis + 1], self.x.shape[self.axis + 1:]
        out = np.empty(head + (len(ops),) + tail, dtype=complex)
        for slot, op in zip(np.moveaxis(out, self.axis + 1, 0), ops):
            slot[...] = self._map(op)
        return type(self)(out.reshape(head[:-1] + (-1,) + tail))


class _Columns(_Branches):
    """Branches of a pure engine: x (dim, B, k), branch b the k columns
    x[:, b], each scaled by the square root of its weight."""

    axis = 1

    def _map(self, op):
        return op(self.x)

    def read_out(self, space_run: SpaceDescriptor, target: StateVector, b: int):
        """Probability, normalized state and atomic-target fidelity of
        branch b, whose columns carry its weight."""
        x = self.x[:, b]
        prob = float(np.sum(np.abs(x) ** 2))
        if prob <= 1e-30:
            return max(prob, 0.0), None, 0.0
        proj = target.amplitudes.conj() @ x.T.reshape(-1, space_run.atoms_dim, space_run.mode_dim)
        fid = min(1.0, float(np.sum(np.abs(proj) ** 2)) / prob)
        if x.shape[1] == 1:
            return prob, StateVector(space_run, x[:, 0] / math.sqrt(prob)), fid
        return prob, DensityMatrix(space_run, (x @ x.conj().T) / prob), fid


class _Density(_Branches):
    """Branches of the Lindblad engine: the (B, dim, dim) stack of their
    density matrices, each with its branch's weight as trace."""

    def _map(self, op):
        """op(op(rho)^dag)^dag for every rho of the stack; op acts on the
        rows of a (dim, ...) array, so the stack axis goes behind them.
        The last adjoint is written C-ordered, so the next stage's
        rotation reads it without a contiguous copy."""
        half = np.moveaxis(op(np.moveaxis(self.x, 0, 1)), 1, 0).conj().swapaxes(1, 2)
        full = np.moveaxis(op(np.moveaxis(half, 0, 1)), 1, 0)
        return np.conjugate(full.swapaxes(1, 2), out=np.empty(full.shape, dtype=complex))

    def read_out(self, space_run: SpaceDescriptor, target: StateVector, b: int):
        """Probability, normalized state and atomic-target fidelity of
        branch b, whose density matrix carries its weight."""
        x = self.x[b]
        prob = float(np.trace(x).real)
        if prob <= 1e-30:
            return max(prob, 0.0), None, 0.0
        t = target.amplitudes
        mat = x / prob
        # <t| rho_atoms |t> without forming the reduced matrix
        r4 = mat.reshape(space_run.atoms_dim, space_run.mode_dim,
                         space_run.atoms_dim, space_run.mode_dim)
        fid = float(min(1.0, max(0.0, (t.conj() @ np.einsum("ambm->ab", r4) @ t).real)))
        return prob, DensityMatrix(space_run, mat), fid


def read_out_bytes(method: str, space: SpaceDescriptor, columns: int = 1) -> int:
    """The bytes of the D x D density matrices (16 D^2 each) a run's
    read-out holds, for an engine whose stages run ``method`` (StageRecord)
    from ``columns`` start columns on ``space`` (cli's memory guard):

    * "chebyshev" (Lindblad): d + 2, the d branches of _Density, a
      branch's normalized copy and the DensityMatrix checks' temporaries;
      with the stage's four stacks (``dynamics.stage_bytes``) that is the
      run's peak outside the Chebyshev actions, traced at 8.05 D x D for
      measure-reduce N = 4 and its d = 3 branches and at 4.0-4.1 for GHZ
      runs of two, three and four levels;
    * "eigh" from a thermal start (columns > 1): d + 3, the d branches'
      x x^dag and the read-out temporaries;
    * otherwise none: a pure branch is read out as one column.
    """
    if method == "chebyshev":
        return 16 * (space.atom_dim + 2) * space.dim**2
    return 16 * (space.atom_dim + 3) * space.dim**2 * (method == "eigh" and columns > 1)


def _initial_state(plan: ProtocolPlan, initial, engine):
    """Resolve (space_run, state) for every engine; the engine picks the
    state's class.

    The start is the (dim, k) block of the initial ensemble's members,
    each scaled by the square root of its weight (one unit column for a
    pure start), as the one branch of a _Columns; Lindblad takes a
    _Density of the density matrix C C^dag of that block, or of the
    full-space DensityMatrix it was given.
    """
    mixed = isinstance(engine, Lindblad)
    if initial is None:
        initial = basis_state(plan.space, "g" * plan.space.atom_count)
    if not isinstance(initial, (StateVector, DensityMatrix) if mixed else StateVector):
        accepted = ", a full-space DensityMatrix," if mixed else ""
        raise TypeError(f"{type(engine).__name__} engine takes an atoms-only or "
                        f"full-space StateVector{accepted} or None as initial")
    if initial.space.atoms_only() != plan.space:
        raise ValueError("initial state's atoms do not match the plan's")
    space_run = (initial.space if isinstance(engine, Effective)
                 else plan.space.with_mode(engine.fock_cutoff))
    if isinstance(initial, DensityMatrix) and initial.space == space_run:
        return space_run, _Density(initial.matrix[None])
    if initial.space == space_run:
        cols = initial.amplitudes[:, None].copy()
    elif isinstance(initial, StateVector) and initial.space.no_mode:
        mode_prep = engine.initial_mode
        if isinstance(mode_prep, ThermalSpec):
            weights, ns = mode_prep.probabilities(), np.arange(mode_prep.cutoff + 1)
        else:
            weights, ns = np.ones(1), np.array([int(mode_prep)])
        if ns[0] < 0 or ns[-1] > engine.fock_cutoff:
            raise ValueError(f"initial mode levels {ns[0]}..{ns[-1]} are not all within "
                             f"the engine's Fock levels 0..{engine.fock_cutoff}")
        # column j is sqrt(p_j) |atoms, n_j>
        mode = np.zeros((space_run.mode_dim, len(ns)), dtype=complex)
        mode[ns, np.arange(len(ns))] = np.sqrt(weights)
        cols = np.kron(initial.amplitudes[:, None], mode)
    else:
        raise ValueError("initial state does not match the engine's space")
    return space_run, (_Density((cols @ cols.conj().T)[None]) if mixed else _Columns(cols[:, None]))


def _drive(plan: ProtocolPlan, space_run: SpaceDescriptor, stage: CollectiveDrive,
           engine, state: _Branches, t_abs: float):
    """Propagate every branch of ``state`` through one drive stage that
    starts at absolute time t_abs; returns the new state and the stage's
    record.  The propagator takes state.x as it is (its columns, for the
    pure engines).  A mode-attached engine hands its propagator the
    stage's generator builder with the space and parameters bound, which
    the propagator calls once per occupied multiplet block."""
    name = type(engine).__name__
    if isinstance(engine, Effective):
        columns = state.x.reshape(space_run.dim, -1)
        out = evolve_factored(space_run, stage.lam, stage.omega, stage.duration, columns)
        drift = norm_drift(np.linalg.norm(columns, axis=0), np.linalg.norm(out, axis=0))
        return _Columns(out.reshape(state.x.shape)), StageRecord(
            name, "effective", plan.space.atoms_dim, "factored", None, drift, None, None)
    if not abs(engine.lam() - stage.lam) <= 1e-9 * max(1.0, abs(stage.lam)):
        raise ValueError(f"engine effective coupling {engine.lam()!r} does not match the "
                         f"plan's {stage.lam!r}; replan with the engine's parameters")
    if isinstance(engine, FullIon):
        builder = partial(ion_terms, space_run, engine.params, engine.frame)
    else:
        slow = isinstance(engine, FullCavity) and engine.frame == FrameTag.SLOW_FRAME
        builder = partial(slow_terms if slow else interaction_terms, space_run,
                          replace(engine.params, omega=stage.omega))
    t_end = t_abs + stage.duration
    if isinstance(engine, Lindblad):
        prop = evolve_lindblad(builder, engine.params.delta, engine.decay, space_run,
                               state.x, t_abs, t_end)
        return _Density(prop.states), StageRecord(
            name, FrameTag.INTERACTION_PICTURE.value, prop.block_dim, "chebyshev", prop.leak,
            prop.drift, prop.products, prop.groups)
    prop = evolve_exact(builder, engine.params.delta, space_run, state.x.reshape(space_run.dim, -1),
                        t_abs, t_end)
    return _Columns(prop.states.reshape(state.x.shape)), StageRecord(
        name, engine.frame.value, prop.block_dim, "eigh", prop.leak, prop.drift, None,
        prop.groups)


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
    sample comes from the same exact eigendecompositions of the stage.
    """
    space = make_space(atom_count, 2, fock_cutoff)
    psi0 = basis_state(space, "g" * atom_count, n_start).amplitudes[:, None]
    times = np.linspace(0.0, duration, sample_count)
    traj = evolve_exact(partial(interaction_terms, space, params), params.delta, space, psi0,
                        0.0, duration, t_eval=times).states

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
