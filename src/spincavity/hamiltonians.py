"""Hamiltonian builders for the driven-cavity and trapped-ion systems.

Every physical generator used by the simulator is built here, in each of
the frames the analysis moves through:

* ``h_interaction`` - the driven Tavis-Cummings interaction picture:
  detuned atom-cavity exchange plus a resonant classical drive.
* ``h_slow`` - the frame rotating with the strong classical drive, with
  its fast sidebands dropped; couples the mode only to the collective
  spin S_x.
* ``h_effective`` - the dispersive effective generator lam * 2 * S_x^2
  (written as the explicit single-atom plus pair sum; the S_x^2 identity
  is asserted by tests).
* ``h_ion`` - the sideband-driven ion chain, either the full
  displacement-series form or its first-order (Lamb-Dicke) expansion.
* ``h0_drive`` - the classical-drive generator that defines the rotating
  frame.

Every full-model generator (interaction picture, slow frame, both ion
frames) is static in the mode frame: each of its terms carries
e^{-+i delta t} exactly when it raises or lowers the Fock number by one,
so ``H(t) = e^{i H0 t} V e^{-i H0 t}`` with ``H0 = -delta adag a`` and
``V = H(0)``.  ``*_terms(space, params)`` returns that static matrix V;
dynamics.evolve_exact and dynamics.evolve_lindblad take the builder
itself with its space and parameters bound (see below).  ``at_time``
turns V into H(t), and ``h_*(space, params, t)`` returns H(t) as an
Operator.  Each term of V is the collective raising operator S+ (or
S_x = (S+ + S+^T) / 2, or their adjoints) joined to an m x m mode
operator by one Kronecker product (``_kron``); no product of full-space
matrices is formed.

The ``*_terms`` builders take an optional ``raising``: the S+ of one
spin-J multiplet of algebra.coupled_basis, the (2J + 1) x (2J + 1)
ladder algebra.spin_raising(2J).  They then return the same formula on
that multiplet x the mode, a (2J + 1) m block, without forming any
d^N-sized matrix.  The exact propagators call them once per occupied
block.  Without it they use the dense atoms-only S+ (d^N x d^N, summed
over the atoms) and return the V of the whole space, which the
acceptance suite and the tests use.

All builders treat |f> and |h> as spectators: the cavity and the drive
couple only the g/e block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (
    Operator,
    SpaceDescriptor,
    _displacement_partial_sums,
    embed_atom_op,
    local_proj,
    local_sm,
    local_sp,
    mode_lowering,
)
# unused here; perfbench/spans.py wraps this name to count operator builds
from .algebra import boson_ops  # noqa: F401


@dataclass(frozen=True)
class DriveParams:
    """Physical parameters of one pulse stage.

    The ion builders live in the frame that absorbs the trap frequency,
    so it is not among them.

    Parameters
    ----------
    g : float
        Atom-cavity coupling (rad/time); cavity system only.
    delta : float
        Detuning between the mode and the atomic transition (rad/time).
    omega : float
        Rabi frequency of the classical drive (cavity) or of the
        sideband laser (ion).
    phi : float
        Laser phase (rad, ion only).
    eta : float
        Lamb-Dicke parameter (dimensionless, ion only).
    lamb_dicke_order : int
        Largest displacement-series index j kept by the full ion
        builder (j = 0..order, i.e. order + 1 terms).
    """

    g: float = 0.0
    delta: float = 0.0
    omega: float = 0.0
    phi: float = 0.0
    eta: float = 0.0
    lamb_dicke_order: int = 0

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if not 0 <= self.omega < math.inf:
            raise ValueError("omega must be non-negative and finite")
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")
        if self.lamb_dicke_order < 0:
            raise ValueError("lamb_dicke_order must be non-negative")


class FrameTag(Enum):
    """The frame (and hence the generator) of a full engine's drive stages:
    a cavity frame for FullCavity, an ion frame for FullIon."""

    INTERACTION_PICTURE = "interaction_picture"
    SLOW_FRAME = "slow_frame"
    ION_INTERACTION = "ion_interaction"
    ION_LAMB_DICKE = "ion_lamb_dicke"


def lambda_cavity(g: float, delta: float) -> float:
    """Effective collective coupling g^2 / (2 delta) of the dispersive cavity."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return _finite_coupling(g * g / (2.0 * delta), "g^2 / (2 delta)")


def lambda_ion(omega: float, eta: float, delta: float) -> float:
    """Effective collective coupling 2 omega^2 eta^2 / delta of the ion chain.

    Equals lambda_cavity(2 * eta * omega, delta): the first-order sideband
    Hamiltonian matches the slow cavity frame with g = 2 eta omega.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return _finite_coupling(2.0 * omega * omega * eta * eta / delta, "2 omega^2 eta^2 / delta")


def _finite_coupling(lam: float, formula: str) -> float:
    if not math.isfinite(lam):
        raise ValueError(f"effective coupling {formula} = {lam!r} is not finite")
    return lam


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices, the same products bit for bit, as
    one outer product reordered: for these small factors about 2.5 times
    faster than np.kron's generic path."""
    (p, q), (r, s) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def _collective(space: SpaceDescriptor, local: np.ndarray) -> np.ndarray:
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.atom_count):
        mat += embed_atom_op(space, j, local).matrix
    return mat


def _raising(space: SpaceDescriptor, raising: np.ndarray | None) -> np.ndarray:
    """The collective S+ = sum_j |e_j><g_j| on the atoms alone: ``raising``
    (one multiplet's block) when given, else the dense d^N x d^N sum."""
    if raising is None:
        return _collective(space.atoms_only(), local_sp(space.atom_dim))
    return raising


def at_time(space: SpaceDescriptor, v: np.ndarray, delta: float, t: float) -> np.ndarray:
    """H(t) = e^{i H0 t} V e^{-i H0 t} with H0 = -delta adag a: element
    (m, n) of V times e^{-i delta t (fock_m - fock_n)}."""
    fock = np.tile(np.arange(space.mode_dim), space.atoms_dim)
    return v * np.exp(-1j * delta * t * np.subtract.outer(fock, fock))


def interaction_terms(space: SpaceDescriptor, params: DriveParams,
                      raising: np.ndarray | None = None) -> np.ndarray:
    """Static mode-frame generator V of the driven interaction picture

    H(t) = sum_j [ g (e^{-i delta t} adag Sj- + e^{+i delta t} a Sj+)
                   + omega (Sj+ + Sj-) ],

    on the whole space, or on one multiplet x the mode for its block
    ``raising`` of S+ (see the module docstring).
    """
    a = mode_lowering(space)
    sp = _raising(space, raising)
    emit = _kron(sp.conj().T, a.conj().T)
    drive = _kron(sp + sp.conj().T, np.eye(space.mode_dim))
    return params.g * (emit + emit.conj().T) + params.omega * drive


def h_interaction(space: SpaceDescriptor, params: DriveParams, t: float) -> Operator:
    """Driven Tavis-Cummings Hamiltonian in the interaction picture."""
    return Operator(space, at_time(space, interaction_terms(space, params), params.delta, t))


def slow_terms(space: SpaceDescriptor, params: DriveParams,
               raising: np.ndarray | None = None) -> np.ndarray:
    """Static mode-frame generator V of the drive-rotated frame with its
    fast sidebands dropped

    H(t) = g (e^{-i delta t} adag + e^{+i delta t} a) S_x,

    on the whole space or on one multiplet x the mode for its block
    ``raising`` of S+.
    """
    a = mode_lowering(space)
    sp = _raising(space, raising)
    sx = 0.5 * (sp + sp.T)
    return params.g * _kron(sx, a.conj().T + a)


def h_slow(space: SpaceDescriptor, params: DriveParams, t: float) -> Operator:
    """Slow-frame Hamiltonian g (e^{-i delta t} adag + h.c.) S_x."""
    return Operator(space, at_time(space, slow_terms(space, params), params.delta, t))


def h_effective(space: SpaceDescriptor, lam: float) -> Operator:
    """Dispersive effective Hamiltonian

    lam * [ (1/2) sum_j (|e_j><e_j| + |g_j><g_j|)
            + sum_{j<k} (Sj+ Sk+ + Sj+ Sk- + h.c.) ]

    built as the explicit pair sum; equals 2 * lam * S_x^2 as a matrix,
    acts as the identity on any mode factor, and is photon-number
    independent by construction.
    """
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    d = space.atom_dim
    single = 0.5 * (local_proj(d, 0) + local_proj(d, 1))
    mat = _collective(space, single)
    sp_ops = [embed_atom_op(space, j, local_sp(d)).matrix for j in range(space.atom_count)]
    sm_ops = [embed_atom_op(space, j, local_sm(d)).matrix for j in range(space.atom_count)]
    for j in range(space.atom_count):
        for k in range(j + 1, space.atom_count):
            pair = sp_ops[j] @ sp_ops[k] + sp_ops[j] @ sm_ops[k]
            mat += pair + pair.conj().T
    return Operator(space, lam * mat)


def h0_drive(space: SpaceDescriptor, omega: float) -> Operator:
    """Classical-drive generator 2 omega sum_j sigma_z_j = omega sum_j (Sj+ + Sj-)."""
    d = space.atom_dim
    return Operator(space, omega * _collective(space, local_sp(d) + local_sm(d)))


def ion_terms(space: SpaceDescriptor, params: DriveParams, frame: FrameTag,
              raising: np.ndarray | None = None) -> np.ndarray:
    """Static mode-frame generator V of the sideband-driven ion chain, on
    the whole space or on one multiplet x the mode for its block
    ``raising`` of S+.

    ION_LAMB_DICKE is the first-order expansion

        H(t) = i eta omega e^{-i phi} sum_j Sj+ (adag e^{-i delta t} + a e^{+i delta t}) + h.c.

    ION_INTERACTION keeps the displacement series to
    params.lamb_dicke_order with its exact exp(-eta^2/2) prefactor:

        H(t) = omega e^{-eta^2/2} e^{-i phi} sum_j Sj+ (B_up e^{-i delta t} + B_dn e^{+i delta t}) + h.c.

    where B_up/B_dn are the odd partial sums over adag^(j+1) a^j and
    adag^j a^(j+1).  With phi = pi/2 the first-order form equals h_slow
    with g = 2 eta omega.
    """
    a = mode_lowering(space)
    omega, phi, eta = params.omega, params.phi, params.eta
    if frame == FrameTag.ION_LAMB_DICKE:
        pref = 1j * eta * omega * np.exp(-1j * phi)
        up, dn = a.conj().T, a
    elif frame == FrameTag.ION_INTERACTION:
        pref = omega * math.exp(-(eta**2) / 2.0) * np.exp(-1j * phi)
        up, dn = _displacement_partial_sums(a, eta, params.lamb_dicke_order)
    else:
        raise ValueError(f"frame {frame} is not an ion frame")
    coupling = pref * _kron(_raising(space, raising), up + dn)
    return coupling + coupling.conj().T


def h_ion(space: SpaceDescriptor, params: DriveParams, t: float, frame: FrameTag) -> Operator:
    """Sideband-driven ion Hamiltonian in the chosen frame."""
    return Operator(space, at_time(space, ion_terms(space, params, frame), params.delta, t))
