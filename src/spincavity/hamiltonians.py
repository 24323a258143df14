"""Hamiltonian builders for the driven-cavity and trapped-ion systems.

Every physical generator used by the simulator is built here, in each of
the frames the analysis moves through:

* ``h_interaction`` - the driven Tavis-Cummings interaction picture:
  detuned atom-cavity exchange plus a resonant classical drive.
* ``h_rotated`` - the same dynamics conjugated into the frame rotating
  with the strong classical drive; exposes which terms oscillate fast.
* ``h_slow`` - the rotated frame with the fast terms dropped; couples the
  mode only to the collective spin S_x.
* ``h_effective`` - the dispersive effective generator lam * 2 * S_x^2
  (written as the explicit single-atom plus pair sum; the S_x^2 identity
  is asserted by tests).
* ``h_ion`` - the sideband-driven ion chain, either the full
  displacement-series form or its first-order (Lamb-Dicke) expansion.
* ``h0_drive`` - the classical-drive generator that defines the rotating
  frame.

Builders come in two flavours: ``h_*(space, params, t)`` returns the
operator at one time, while ``*_terms(space, params)`` returns a list of
``(coefficient_function, constant_matrix)`` pairs with
``H(t) = sum_k coeff_k(t) * M_k``.  Every term of the full-engine
builders (interaction picture, slow frame, both ion frames) carries
e^{-+i delta t} exactly when its matrix raises or lowers the Fock number
by one, so ``H(t) = e^{i H0 t} H(0) e^{-i H0 t}`` with
``H0 = -delta adag a``: the generator is static in the mode frame, which
is what dynamics.evolve_exact relies on.

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
    boson_ops,
    embed_atom_op,
    local_proj,
    local_sm,
    local_sp,
)

TermList = list[tuple]


@dataclass(frozen=True)
class DriveParams:
    """Physical parameters of one pulse stage.

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
    nu : float
        Trap frequency (rad/time, ion only).  The builders already live
        in the frame where nu has been absorbed, so nu feeds no
        computation; it is kept so that a run's configuration (and the
        report's config echo) can state it.
    lamb_dicke_order : int
        Largest displacement-series index j kept by the full ion
        builder (j = 0..order, i.e. order + 1 terms).
    """

    g: float = 0.0
    delta: float = 0.0
    omega: float = 0.0
    phi: float = 0.0
    eta: float = 0.0
    nu: float = 0.0
    lamb_dicke_order: int = 0

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.omega < 0:
            raise ValueError("omega must be non-negative")
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")
        if self.lamb_dicke_order < 0:
            raise ValueError("lamb_dicke_order must be non-negative")


class FrameTag(Enum):
    """Which frame (and hence which generator) a drive stage runs in."""

    INTERACTION_PICTURE = "interaction_picture"
    PLUS_MINUS_ROTATED = "plus_minus_rotated"
    SLOW_FRAME = "slow_frame"
    EFFECTIVE = "effective"
    ION_INTERACTION = "ion_interaction"
    ION_LAMB_DICKE = "ion_lamb_dicke"


def lambda_cavity(g: float, delta: float) -> float:
    """Effective collective coupling g^2 / (2 delta) of the dispersive cavity."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return g * g / (2.0 * delta)


def lambda_ion(omega: float, eta: float, delta: float) -> float:
    """Effective collective coupling 2 omega^2 eta^2 / delta of the ion chain.

    Equals lambda_cavity(2 * eta * omega, delta): the first-order sideband
    Hamiltonian matches the slow cavity frame with g = 2 eta omega.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return 2.0 * omega * omega * eta * eta / delta


def _collective(space: SpaceDescriptor, local: np.ndarray) -> np.ndarray:
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.atom_count):
        mat += embed_atom_op(space, j, local).matrix
    return mat


def _require_mode(space: SpaceDescriptor):
    if space.no_mode:
        raise ValueError("this builder needs a space with a bosonic mode")


def terms_matrix(terms: TermList, t: float) -> np.ndarray:
    """Assemble H(t) = sum_k coeff_k(t) * M_k as a dense matrix."""
    out = 0
    for coeff, mat in terms:
        out = out + complex(coeff(t)) * mat
    return out


def interaction_terms(space: SpaceDescriptor, params: DriveParams) -> TermList:
    """Terms of the driven interaction-picture Hamiltonian

    sum_j [ g (e^{-i delta t} adag Sj- + e^{+i delta t} a Sj+)
            + omega (Sj+ + Sj-) ].
    """
    _require_mode(space)
    g, delta, omega = params.g, params.delta, params.omega
    a, adag = (op.matrix for op in boson_ops(space))
    sp = _collective(space, local_sp(space.atom_dim))
    sm = _collective(space, local_sm(space.atom_dim))
    terms: TermList = [
        (lambda t: g * np.exp(-1j * delta * t), adag @ sm),
        (lambda t: g * np.exp(1j * delta * t), a @ sp),
    ]
    if omega != 0.0:
        terms.append((lambda t: omega, sp + sm))
    return terms


def h_interaction(space: SpaceDescriptor, params: DriveParams, t: float) -> Operator:
    """Driven Tavis-Cummings Hamiltonian in the interaction picture."""
    return Operator(space, terms_matrix(interaction_terms(space, params), t))


# Single-atom operators of the rotated (dressed) frame, written in g/e
# coordinates.  With |+-> = (|g> +- |e>)/sqrt(2):
#   sigma_z = (|+><+| - |-><-|)/2 = (S+ + S-)/2
#   sigma_+ = |+><-|,  sigma_- = |-><+|
def _local_sigma_z(d: int) -> np.ndarray:
    return 0.5 * (local_sp(d) + local_sm(d))


def _local_sigma_p(d: int) -> np.ndarray:
    mat = np.zeros((d, d), dtype=complex)
    mat[0, 0] = 0.5
    mat[0, 1] = -0.5
    mat[1, 0] = 0.5
    mat[1, 1] = -0.5
    return mat


def _local_sigma_m(d: int) -> np.ndarray:
    return _local_sigma_p(d).conj().T


def rotated_terms(space: SpaceDescriptor, params: DriveParams) -> TermList:
    """Terms of the Hamiltonian in the frame rotating with the drive.

    Conjugating the atom-cavity part by exp(+i H0 t), with
    H0 = 2 omega sum_j sigma_z_j, splits it into a slow part
    g (e^{-i delta t} adag + h.c.) sum_j sigma_z_j and four sideband
    parts dressed by e^{+-i (2 omega -+ delta) t}.
    """
    _require_mode(space)
    g, delta, omega = params.g, params.delta, params.omega
    a, adag = (op.matrix for op in boson_ops(space))
    d = space.atom_dim
    sz = _collective(space, _local_sigma_z(d))
    sp = _collective(space, _local_sigma_p(d))
    sm = _collective(space, _local_sigma_m(d))
    return [
        (lambda t: g * np.exp(-1j * delta * t), adag @ sz),
        (lambda t: g * np.exp(1j * delta * t), a @ sz),
        (lambda t: -0.5 * g * np.exp(1j * (2 * omega - delta) * t), adag @ sp),
        (lambda t: 0.5 * g * np.exp(-1j * (2 * omega + delta) * t), adag @ sm),
        (lambda t: -0.5 * g * np.exp(-1j * (2 * omega - delta) * t), a @ sm),
        (lambda t: 0.5 * g * np.exp(1j * (2 * omega + delta) * t), a @ sp),
    ]


def h_rotated(space: SpaceDescriptor, params: DriveParams, t: float) -> Operator:
    """Full rotated-frame Hamiltonian (slow part plus fast sidebands)."""
    return Operator(space, terms_matrix(rotated_terms(space, params), t))


def slow_terms(space: SpaceDescriptor, params: DriveParams) -> TermList:
    """Terms of the rotated frame with the fast sidebands dropped:

    (g/2) (e^{-i delta t} adag + e^{+i delta t} a) sum_j (Sj+ + Sj-).
    """
    _require_mode(space)
    g, delta = params.g, params.delta
    a, adag = (op.matrix for op in boson_ops(space))
    sx = _collective(space, _local_sigma_z(space.atom_dim))  # equals collective S_x
    return [
        (lambda t: g * np.exp(-1j * delta * t), adag @ sx),
        (lambda t: g * np.exp(1j * delta * t), a @ sx),
    ]


def h_slow(space: SpaceDescriptor, params: DriveParams, t: float) -> Operator:
    """Slow-frame Hamiltonian g (e^{-i delta t} adag + h.c.) S_x."""
    return Operator(space, terms_matrix(slow_terms(space, params), t))


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


def ion_terms(space: SpaceDescriptor, params: DriveParams, frame: FrameTag) -> TermList:
    """Terms of the sideband-driven ion Hamiltonian.

    ION_LAMB_DICKE is the first-order expansion

        i eta omega e^{-i phi} sum_j Sj+ (adag e^{-i delta t} + a e^{+i delta t}) + h.c.

    ION_INTERACTION keeps the displacement series to
    params.lamb_dicke_order with its exact exp(-eta^2/2) prefactor:

        omega e^{-eta^2/2} e^{-i phi} sum_j Sj+ (B_up e^{-i delta t} + B_dn e^{+i delta t}) + h.c.

    where B_up/B_dn are the odd partial sums over adag^(j+1) a^j and
    adag^j a^(j+1).  With phi = pi/2 the first-order form equals h_slow
    with g = 2 eta omega.
    """
    _require_mode(space)
    omega, delta, phi, eta = params.omega, params.delta, params.phi, params.eta
    sp = _collective(space, local_sp(space.atom_dim))
    if frame == FrameTag.ION_LAMB_DICKE:
        a, adag = (op.matrix for op in boson_ops(space))
        pref = 1j * eta * omega * np.exp(-1j * phi)
        up, dn = adag, a
    elif frame == FrameTag.ION_INTERACTION:
        pref = omega * math.exp(-(eta**2) / 2.0) * np.exp(-1j * phi)
        up, dn = _displacement_partial_sums(space, eta, params.lamb_dicke_order)
    else:
        raise ValueError(f"frame {frame} is not an ion frame")
    return [
        (lambda t: pref * np.exp(-1j * delta * t), sp @ up),
        (lambda t: pref * np.exp(1j * delta * t), sp @ dn),
        (lambda t: np.conj(pref) * np.exp(1j * delta * t), (sp @ up).conj().T),
        (lambda t: np.conj(pref) * np.exp(-1j * delta * t), (sp @ dn).conj().T),
    ]


def h_ion(space: SpaceDescriptor, params: DriveParams, t: float, frame: FrameTag) -> Operator:
    """Sideband-driven ion Hamiltonian in the chosen frame."""
    return Operator(space, terms_matrix(ion_terms(space, params, frame), t))
