"""Propagators: the exact mode-frame stage propagators of the full and
decay engines, the factored drive/effective propagator, atoms-only and
single-atom maps, a reference Schroedinger integrator, and thermal-state
preparation.

Numerical policy:

* The effective dynamics exp(-i (2 omega S_x + 2 lam S_x^2) t) is
  diagonal in the product eigenbasis of S_x, which is known in closed
  form.  ``evolve_factored`` reaches that basis with single-atom
  matrices on each atom's own axis and multiplies by the phases there,
  so an effective drive stage never forms or diagonalizes a d^N x d^N
  matrix.
* Every full-model generator is static in the mode frame:
  H(t) = e^{i H0 t} V e^{-i H0 t} with H0 = -delta adag a and V = H(0),
  because each e^{-+i delta t} term raises or lowers the Fock number by
  exactly one (also on the hard-truncated ladder).
* Every such V is a sum of collective g/e operators (S+, S-, S_x) times
  mode operators, and the collapse operators act on the mode alone.  So
  the stage generators never move an atom parked in f or h and commute
  with every permutation of the atoms: in the spectator x total-spin
  basis (algebra.coupled_basis) x I_mode they are block diagonal, one
  (2J + 1) m block per copy of a spin-J multiplet, and all copies of one
  J share their block (Shammah et al., Phys. Rev. A 98, 063815 (2018)).
  On a spin-J multiplet the collective S+ is the standard ladder
  algebra.spin_raising(2J), known in closed form.  The propagators take
  the stage's builder, call it once per occupied block with that
  ladder, rotate the states into the basis on the atom axis
  (CoupledBasis.rotate, or both_sides for density matrices; the basis
  alone reads its q), propagate, and rotate back.  This is exact for
  every state; blocks that are exactly zero are skipped, and no
  d^N x d^N operator or generator of the whole d^N m space is formed.
* ``evolve_exact`` propagates each occupied block of a drive stage with
  one eigendecomposition, pushing every copy and every state column
  through it at once.
* The cavity collapse operators a and adag only pick up a phase in the
  same frame, so the master equation is static there too.
  ``evolve_lindblad`` builds the Liouvillian L = -i[H0 + V, .] + D of
  each occupied pair of blocks once per stage and applies e^{L (t1 - t0)}
  to every copy pair of every density matrix of the stage at once with
  ``chebyshev_action``, a Bessel-coefficient Chebyshev series of the
  centred L.  Its radius is the spread of the pair's Hamiltonian part
  plus ``dissipative_margin``, a proven bound on the dissipator's
  numerical range; its substeps, series length and coefficients follow
  from those numbers alone, so identical calls give bitwise-identical
  results, and an action whose work exceeds CHEB_MAX_TERMS is refused
  before its first product.  Each series term is one call of scipy's
  compiled CSR product kernel on preallocated rows, and the Bessel
  coefficients come from Miller's backward recurrence, not from
  scipy.special.
* Density matrices are Hermitian and L commutes with X -> X^dag, so of
  the mirrored pairs (J, J') and (J', J) only one is propagated and the
  other is its adjoint, and each diagonal pair (J, J) runs in real
  arithmetic: its Hermitian blocks X in the coordinates Re X + Im X
  under the real matrix Re L + (Im L) P, P the transpose
  (``real_liouvillian``), one float64 action with the radius, margin
  and products of the complex one.  Each pair's operator is written
  straight into CSR arrays (indptr, indices, data) from the nonzeros of
  its generator, with numpy alone.
* Neither exact propagator renormalizes or clips: norm or trace drift
  beyond 1e-6 raises NormDriftError, and the engines validate final
  density matrices (Hermiticity, trace, eigenvalues).
* ``evolve_td_multi`` integrates a callable t -> H(t) with adaptive
  DOP853 and is kept as the independent reference the exact propagator
  is tested against; no engine calls it.
* The pure-state engines need nothing beyond numpy, and the decay
  engine nothing beyond numpy and the extension module of scipy's CSR
  kernels, loaded on its own on first use (``_sparsetools``), so no
  engine imports the scipy.sparse package; scipy.integrate (for the
  reference integrator) is imported on first use.
* Propagation on spaces with a mode checks Fock-truncation leakage via
  algebra.check_leakage (check_leakage_dm for density matrices).  The
  states of one ensemble carry their weights (columns the square roots,
  density matrices the weights themselves), so the check sees the
  population of the weighted mixture.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np
from numpy.linalg import eigh, eigvalsh

from .algebra import (
    DensityMatrix,
    NormDriftError,
    Operator,
    SpaceDescriptor,
    SpinGroup,
    StateVector,
    check_leakage,
    check_leakage_dm,
    coupled_basis,
    mode_lowering,
    spin_raising,
)
# unused here; perfbench/spans.py wraps these names to count operator builds
from .algebra import boson_ops, collective_sx  # noqa: F401

#: norm/trace drift beyond this is a propagation failure
NORM_HARD = 1e-6

#: the Chebyshev series of a stage is cut at the first order k beyond its
#: argument with |J_k| below this
CHEB_TOL = 2.0**-53

#: most series terms (substeps x series length, about one sparse product
#: each) one Chebyshev action may take; criterion 9 needs about 5e4 per
#: decay rate in all
CHEB_MAX_TERMS = 10**7

#: series terms a Chebyshev action keeps at once before it adds their
#: weighted sum to the result (one matrix-vector product per block)
CHEB_RING = 32


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: only the
    reference integrator ``evolve_td_multi`` needs it, and importing the
    package should not load scipy.integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the reference integrator evolve_td_multi.

    max_step caps the DOP853 step; None lets the solver choose its own
    steps.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class ThermalSpec:
    """Bose-Einstein mode preparation: p_n = nbar^n / (1 + nbar)^(n+1).

    The cutoff must leave a raw tail mass below 1e-9, the trace
    tolerance of DensityMatrix, so every accepted spec prepares a valid
    thermal_state; the distribution is NOT renormalized after
    truncation, so truncation error shows up as a trace deficit instead
    of being hidden.
    """

    nbar: float
    cutoff: int

    TAIL_TOL = 1e-9

    def __post_init__(self):
        if not 0 <= self.nbar < math.inf:  # also refuses NaN
            raise ValueError("nbar must be non-negative")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        tail = self.tail_mass()
        if tail >= self.TAIL_TOL:
            raise ValueError(
                f"thermal tail mass {tail:.3e} beyond cutoff {self.cutoff} "
                f"exceeds {self.TAIL_TOL:.0e}; raise the cutoff"
            )

    def probabilities(self) -> np.ndarray:
        n = np.arange(self.cutoff + 1)
        if self.nbar == 0:
            probs = np.zeros(self.cutoff + 1)
            probs[0] = 1.0
            return probs
        ratio = self.nbar / (1.0 + self.nbar)
        return ratio**n / (1.0 + self.nbar)

    def tail_mass(self) -> float:
        """Raw probability mass above the cutoff: (nbar/(1+nbar))^(cutoff+1)."""
        if self.nbar == 0:
            return 0.0
        return (self.nbar / (1.0 + self.nbar)) ** (self.cutoff + 1)

    @classmethod
    def for_nbar(cls, nbar: float, tail: float = 1e-11) -> "ThermalSpec":
        """Smallest-cutoff spec whose raw tail mass is below ``tail``."""
        if not 0 <= nbar < math.inf:
            raise ValueError("nbar must be non-negative")
        if nbar == 0:
            return cls(0.0, 0)
        ratio = nbar / (1.0 + nbar)
        if ratio == 1.0:
            raise ValueError(f"nbar {nbar!r} is too large for a truncated thermal state")
        cutoff = max(0, math.ceil(math.log(tail) / math.log(ratio)) - 1)
        while (ratio ** (cutoff + 1)) >= tail:
            cutoff += 1
        return cls(nbar, cutoff)


@dataclass(frozen=True)
class DecaySpec:
    """Cavity energy decay at rate kappa into a bath of occupancy nbar_bath.

    Collapse operators: sqrt(kappa (1 + nbar_bath)) a and
    sqrt(kappa nbar_bath) adag.
    """

    kappa: float
    nbar_bath: float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.nbar_bath < 0:
            raise ValueError("nbar_bath must be non-negative")


@dataclass(frozen=True)
class Propagation:
    """What ``evolve_exact`` and ``evolve_lindblad`` return.

    states is the propagated ensemble: the (dim, k) column block at the
    stage end, or the (len(t_eval), dim, k) trajectory, for
    evolve_exact; the (k, dim, dim) stack of density matrices for
    evolve_lindblad.  leak is the top-Fock population of the ensemble
    that the leakage check returned (at the worst sampled time); drift
    is the largest relative change of a column norm or a trace.
    block_dim is the dimension of the largest block propagated: a
    Hilbert-space block (2J + 1) m for evolve_exact, a Liouville-space
    block (2J + 1) m (2J' + 1) m for evolve_lindblad, 0 when every block
    was zero.
    """

    states: np.ndarray
    leak: float
    drift: float
    block_dim: int


def norm_drift(before: np.ndarray, after: np.ndarray) -> float:
    """Largest relative change from the column norms (or traces)
    ``before`` to ``after`` (any leading time axis); empty members are
    skipped.  Raises NormDriftError beyond NORM_HARD and never
    renormalizes."""
    live = before > 0
    if not np.any(live):
        return 0.0
    drift = float(np.max(np.abs(after[..., live] - before[live]) / before[live]))
    if drift > NORM_HARD:
        raise NormDriftError(f"column norm drifted by {drift:.3e} (> {NORM_HARD:.0e})")
    return drift


def _block_generator(builder, group: SpinGroup, delta: float, mode_dim: int) -> np.ndarray:
    """The static mode-frame generator H0 + V on one copy of the group's
    multiplet x the mode, with V = builder(S+ of the multiplet) Hermitian
    and H0 = -delta adag a."""
    v = builder(spin_raising(group.two_j))
    herm = np.max(np.abs(v - v.conj().T))
    if herm > 1e-10:
        raise ValueError(f"generator is not Hermitian: max deviation {herm:.3e}")
    return v + np.diag(-delta * np.tile(np.arange(mode_dim), group.width))


def evolve_exact(builder, delta: float, space: SpaceDescriptor,
                 columns: np.ndarray, t0: float, t1: float,
                 t_eval=None) -> Propagation:
    """Exact propagation of a generator that is static in the mode frame.

    ``builder`` maps the S+ block of a spin-J multiplet
    (algebra.spin_raising) to the static generator V of
    H(t) = e^{i H0 t} V e^{-i H0 t} (H0 = -delta adag a) on that
    multiplet x the mode, as the ``hamiltonians`` builders do with their
    space and parameters bound.  Then

        U(t, t0) = e^{i H0 t} e^{-i (H0 + V)(t - t0)} e^{-i H0 t0}.

    V is a sum of collective atom operators times mode operators, so it
    is block diagonal in algebra.coupled_basis x I_mode, and every copy
    of a multiplet of spin J carries the same (2J + 1) m block.  The
    columns go into that basis on the atom axis; each group of copies
    holding anything nonzero is propagated with one eigendecomposition
    of its block, every copy and every column at once, and the result
    comes back.  ``columns`` (dim, k) are the members of one ensemble,
    each scaled by the square root of its weight, so leakage is checked
    on the weighted mixture.  Returns the block at t1, or the trajectory
    at the times ``t_eval`` (taken from the same eigendecompositions),
    with the leak and norm drift found on the flat result.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    basis = coupled_basis(space.atom_count, space.atom_dim)
    atoms, m, k = space.atoms_dim, space.mode_dim, columns.shape[1]
    h0 = -delta * np.arange(m)
    times = np.array([t1], dtype=float) if t_eval is None else np.asarray(t_eval, dtype=float)
    start = np.exp(-1j * h0 * t0)[:, None] * columns.reshape(atoms, m, k)
    coeffs = basis.rotate(start.reshape(atoms, m * k))
    out = np.zeros((len(times), atoms, m * k), dtype=complex)
    block_dim = 0
    for group in basis.groups:
        rows = coeffs[group.start:group.stop]
        if not rows.any():
            continue
        w, vecs = eigh(_block_generator(builder, group, delta, m))
        block = (rows.reshape(group.copies, group.width, m, k)
                 .transpose(1, 2, 0, 3).reshape(group.width * m, group.copies * k))
        phases = np.exp(-1j * np.outer(times - t0, w))[:, :, None]
        traj = vecs @ (phases * (vecs.conj().T @ block))
        out[:, group.start:group.stop] = (
            traj.reshape(len(times), group.width, m, group.copies, k)
            .transpose(0, 3, 1, 2, 4).reshape(len(times), group.stop - group.start, m * k))
        block_dim = max(block_dim, group.width * m)
    traj = (np.exp(1j * np.outer(times, h0))[:, None, :, None]
            * basis.rotate(out, back=True).reshape(len(times), atoms, m, k))
    traj = traj.reshape(len(times), atoms * m, k)

    drift = norm_drift(np.linalg.norm(columns, axis=0), np.linalg.norm(traj, axis=1))
    top = traj.reshape(len(times), atoms, m, -1)[:, :, -2:]
    worst = int(np.argmax(np.sum(np.abs(top) ** 2, axis=(1, 2, 3))))
    leak = check_leakage(space, traj[worst])
    return Propagation(traj[0] if t_eval is None else traj, leak, drift, block_dim)


def evolve_td_multi(h_of_t, space: SpaceDescriptor, columns: np.ndarray,
                    t0: float, t1: float, config: IntegratorConfig | None = None) -> np.ndarray:
    """Integrate i d|psi>/dt = H(t)|psi> for several state columns at once.

    h_of_t is a callable ``t -> Operator | ndarray``; columns has shape
    (dim, k).  Returns the final (dim, k) block, raw (nothing is
    renormalized), after checking the leakage of every column.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    config = config or IntegratorConfig()
    dim, k = columns.shape
    if t1 == t0:
        return columns.copy()

    def rhs(t, y):
        h = h_of_t(t)
        mat = h.matrix if isinstance(h, Operator) else np.asarray(h)
        return (-1j * (mat @ y.reshape(dim, k))).ravel()

    kwargs = {}
    if config.max_step is not None:
        kwargs["max_step"] = config.max_step
    sol = solve_ivp(
        rhs,
        (t0, t1),
        columns.astype(complex).ravel(),
        method="DOP853",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        **kwargs,
    )
    if not sol.success:
        raise NormDriftError(f"integrator failed: {sol.message}")
    final = sol.y[:, -1].reshape(dim, k)
    for col in range(k):
        check_leakage(space, final[:, col])
    return final


def _sx_eigenbasis(atom_dim: int):
    """The single-atom s_x = (|e><g| + |g><e|)/2 in closed form: the
    real orthogonal matrix whose columns are its eigenvectors
    (|g> + |e>)/sqrt(2), (|g> - |e>)/sqrt(2), |f>, |h> (the first
    atom_dim of them), and their eigenvalues 1/2, -1/2, 0, 0."""
    r = math.sqrt(0.5)
    u = np.eye(atom_dim)
    u[:2, :2] = [[r, r], [r, -r]]
    w = np.zeros(atom_dim)
    w[:2] = 0.5, -0.5
    return u, w


def evolve_factored(space: SpaceDescriptor, lam: float, omega: float, t: float,
                    x: np.ndarray) -> np.ndarray:
    """Apply U(t) = exp(-i (2 omega S_x + 2 lam S_x^2) t) to x: a state, a
    (dim, k) column block or a matrix (acting on its rows), on the
    atoms-only or a mode-attached space (U is the identity on the mode).

    S_x is a sum of single-atom terms, so its eigenbasis is the N-fold
    product of the single-atom one and its eigenvalues m are the
    Kronecker sum of 1/2, -1/2, 0, 0 (atom 1 the most significant
    digit, as in basis_index).  x goes into that basis on every atom's
    own axis (``apply_local``), its rows are multiplied by
    exp(-i (2 omega m + 2 lam m^2) t), and it comes back: 2 N d^(N+1) k
    operations per block of k columns, and no d^N x d^N matrix.
    """
    u, w = _sx_eigenbasis(space.atom_dim)
    m = np.zeros(1)
    for _ in range(space.atom_count):
        m = np.add.outer(m, w).ravel()
    phases = np.exp(-1j * (2.0 * omega * m + 2.0 * lam * m * m) * t)
    y = apply_local(space, u.T, "all", x)  # u is real: u^dag = u^T
    y = (phases[:, None] * y.reshape(space.atoms_dim, -1)).reshape(x.shape)
    return apply_local(space, u, "all", y)


def propagator_u(space: SpaceDescriptor, lam: float, omega: float, t: float) -> Operator:
    """The factored propagator U(t) = exp(-i H0 t) exp(-i H_e t) as a
    dense matrix on ``space``: ``evolve_factored`` applied to the
    identity.

    H0 = 2 omega S_x and H_e = 2 lam S_x^2 commute, so U is diagonal in
    the product eigenbasis of S_x and acts as the identity on any mode
    factor.  The engines never form it; they apply ``evolve_factored``
    to their states.
    """
    return Operator(space, evolve_factored(space, lam, omega, t,
                                           np.eye(space.dim, dtype=complex)))


def apply_atomic(space: SpaceDescriptor, u_atoms: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Apply an atoms-only operator to a full-space state, or to every
    column of a (dim, k) block, without forming the Kronecker product
    (exact mode factorization)."""
    block = amplitudes.reshape(space.atoms_dim, -1)
    return (u_atoms @ block).reshape(amplitudes.shape)


def apply_local(space: SpaceDescriptor, local: np.ndarray, atoms, x: np.ndarray) -> np.ndarray:
    """Apply the d x d single-atom matrix ``local`` to atom ``atoms`` (an
    index) or to every atom ("all") of x: a state, a (dim, k) column
    block or a density matrix (acting on its rows).  Atom j's factor is
    axis 1 of x.reshape(d**j, d, -1), so no embedded matrix is formed."""
    d, n = space.atom_dim, space.atom_count
    out = x
    for j in range(n) if atoms == "all" else (int(atoms),):
        if not 0 <= j < n:
            raise ValueError(f"atom index {j} outside 0..{n - 1}")
        out = (local @ out.reshape(d**j, d, -1)).reshape(x.shape)
    return out


def liouvillian(generator: np.ndarray, space: SpaceDescriptor, decay: DecaySpec,
                right: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Liouvillian of a static generator as a CSR triple (``_csr``) on
    row-major vec(X), where vec(A X B) = (A kron B^T) vec(X):

        L X = -i (H X - X H') + sum_c (c X c'^dag - (c^dag c X + X c'^dag c') / 2)

    for a p x q block X, with H = ``generator`` (p x p) acting from the
    left and H' = ``right`` (q x q, default H) from the right.  The
    collapse operators act on the mode alone, c = I kron c_mode sized to
    each side (c' on the right), so with right omitted and H on the whole
    space this is L rho = -i [H, rho] + D(rho); with H and H' the blocks
    of two multiplets it is the Liouvillian of the block of rho between
    them.

    It is formed from the effective generators G = -i H - sum_c c^dag c / 2
    and G' = i H' - sum_c c'^dag c' / 2 as L = G kron I + I kron G'^T +
    sum_c c kron conj(c'), written straight into CSR arrays from the
    nonzeros of each factor (``_liouvillian_entries``, ``_csr``)."""
    right = generator if right is None else right
    return _csr(*_liouvillian_entries(generator, space, decay, right),
                len(generator) * len(right))


def real_liouvillian(generator: np.ndarray, space: SpaceDescriptor,
                     decay: DecaySpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Liouvillian L of ``liouvillian(generator, space, decay)`` on
    Hermitian p x p blocks X, in the real coordinates Y = Re X + Im X:
    the real matrix

        R = Re L + (Im L) P,   P vec(Y) = vec(Y^T),

    on row-major vec(Y), as a float64 CSR triple (``_csr``).  Re X is
    symmetric and Im X antisymmetric, so Y -> X is an isometry with
    Re X = (Y + Y^T)/2, Im X = (Y - Y^T)/2, P Y = Re X - Im X, and
    Re(L X) + Im(L X) = Re L (Re X + Im X) + Im L (Re X - Im X) = R Y.
    L maps Hermitian blocks to Hermitian blocks (it commutes with
    X -> X^dag for any Hermitian generator and any collapse operators),
    so R Y holds the coordinates of L X, and e^{t R} those of e^{t L} X.
    R has the spectrum of L, hence its trace, so ``chebyshev_action``
    takes it with the same radius and margin."""
    rows, cols, vals = _liouvillian_entries(generator, space, decay, generator)
    p = len(generator)
    swapped = cols % p * p + cols // p
    return _csr(np.concatenate([rows, rows]), np.concatenate([cols, swapped]),
                np.concatenate([vals.real, vals.imag]), p * p)


def _liouvillian_entries(generator: np.ndarray, space: SpaceDescriptor, decay: DecaySpec,
                         right: np.ndarray):
    """The entries of ``liouvillian(generator, space, decay, right)`` as
    (rows, cols, values), one term after another; an entry that two terms
    share appears once per term."""
    p, q, m = len(generator), len(right), space.mode_dim
    ops = _collapse_ops(space, decay)
    damping = sum((c.conj().T @ c for c in ops), np.zeros((m, m)))
    g_left = -1j * generator - 0.5 * _eye_kron(p // m, damping)
    g_right = 1j * right - 0.5 * _eye_kron(q // m, damping)
    terms = [_kron_entries(g_left, np.eye(q)), _kron_entries(np.eye(p), g_right.T)]
    terms += [_kron_entries(_eye_kron(p // m, c), _eye_kron(q // m, c.conj())) for c in ops]
    return tuple(np.concatenate(part) for part in zip(*terms))


def _eye_kron(k: int, c: np.ndarray) -> np.ndarray:
    """I_k kron c, written into its diagonal blocks: for these small
    factors several times faster than numpy's generic kron."""
    out = np.zeros((k, len(c), k, len(c)), dtype=c.dtype)
    out[range(k), :, range(k)] = c
    return out.reshape(k * len(c), -1)


def _kron_entries(a: np.ndarray, b: np.ndarray):
    """The entries of a kron b made from the nonzeros of a and b, as
    (rows, cols, values)."""
    ai, aj = np.nonzero(a)
    bi, bj = np.nonzero(b)
    rows = np.add.outer(ai * b.shape[0], bi).ravel()
    cols = np.add.outer(aj * b.shape[1], bj).ravel()
    return rows, cols, np.multiply.outer(a[ai, aj], b[bi, bj]).ravel()


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
         n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n x n matrix with the sum of the given entries at each
    position as a CSR triple (indptr, indices, data): row-major, sorted
    column indices, no repeated position, exact zeros dropped, and int32
    indices where n and the entry count fit.  Entries at one position
    are added in the order given, so identical calls give identical
    bits."""
    live = vals != 0
    key, vals = rows[live] * n + cols[live], vals[live]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, vals = key[first], np.add.reduceat(vals[order], first)
    live = vals != 0
    key, vals = key[live], vals[live]
    index = np.int32 if max(n, len(key)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(key, np.arange(0, n * n + 1, n)).astype(index)
    return indptr, (key % n).astype(index), vals


def _diagonal_entries(a: tuple):
    """The row of each entry of the CSR triple a and the mask of its
    diagonal entries."""
    indptr, indices, _ = a
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return rows, indices == rows


def _trace(a: tuple):
    """trace(a) for the CSR triple a, summed as csr_matrix.diagonal().sum()
    does: numpy's pairwise sum over the whole diagonal, zeros included."""
    data = a[2]
    rows, diagonal = _diagonal_entries(a)
    out = np.zeros(len(a[0]) - 1, dtype=data.dtype)
    out[rows[diagonal]] = data[diagonal]
    return out.sum()


def _centred(a: tuple, mu, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """scale (a - mu I) for the CSR triple a, as a CSR triple: mu is
    subtracted on the diagonal (0 - mu where a has no diagonal entry),
    exact zeros are dropped, then every value is scaled, which is
    csr_matrix arithmetic operation for operation."""
    indptr, indices, data = a
    n = len(indptr) - 1
    rows, diagonal = _diagonal_entries(a)
    bare = np.setdiff1d(np.arange(n), rows[diagonal], assume_unique=True)
    indptr, indices, data = _csr(np.concatenate([rows, bare]), np.concatenate([indices, bare]),
                                 np.concatenate([np.where(diagonal, data - mu, data),
                                                 np.zeros(len(bare), data.dtype) - mu]), n)
    return indptr, indices, data * scale


def dissipative_margin(space: SpaceDescriptor, decay: DecaySpec) -> float:
    """K = kappa (1 + 2 nbar_bath) n_max, the sum of ||c||^2 over the
    collapse operators: how far the centred dissipator can move the
    Liouvillian's numerical range off the Hamiltonian part's spectrum
    (derivation in ``chebyshev_action``); n_max is the Fock cutoff."""
    return decay.kappa * (1.0 + 2.0 * decay.nbar_bath) * space.fock_cutoff


def chebyshev_action(a: tuple[np.ndarray, np.ndarray, np.ndarray], b: np.ndarray, t: float,
                     radius: float, margin: float) -> np.ndarray:
    """e^{t a} b for a static Liouvillian a = -i[H, .] + D, given as a CSR
    triple (``liouvillian``, ``real_liouvillian``), and an (n, k) block b,
    by the Bessel-coefficient Chebyshev series (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984); for Liouvillians Huisinga,
    Pesce, Kosloff & Saalfrank, J. Chem. Phys. 110, 5538 (1999)).

    With mu = trace(a)/n and the centred a' = a - mu, M = i a' / radius
    gives e^{tau a} = e^{mu tau} e^{-i z M} with z = radius tau, and

        e^{-i z M} = J_0(z) + 2 sum_k (-i)^k J_k(z) T_k(M).

    phi_k = (-i)^k T_k(M) b obeys phi_{k+1} = (2/radius) a' phi_k +
    phi_{k-1}, so every coefficient is real and each order costs one
    product.  The stage is split into s = ceil(margin t) substeps of
    length tau = t/s, and each substep's series stops at the first order
    k > z with |J_k(z)| <= CHEB_TOL: s (z + O(z^{1/3})) products in all,
    the same ones for identical calls, so the result is bitwise
    reproducible.  The J_k(z) come from Miller's backward recurrence,
    normalised by J_0 + 2 sum_k J_2k = 1 (``_chebyshev_coefficients``).

    The arithmetic is that of a and b: float64 when both are real, as
    for ``real_liouvillian`` on the real coordinates of Hermitian
    blocks, where mu is real too and a product costs about half a
    complex one; complex128 otherwise.  The number of products depends
    on radius, margin and t alone.

    The CSR triple of x = (2/radius) a' is built with numpy once per
    action (``_centred``: mu subtracted on the diagonal, then the
    scaling), operation for operation as csr_matrix arithmetic does, so
    the products and the result are bitwise those of x as a csr_matrix.

    Cost per term: phi_{k+1} is written into a ring of CHEB_RING
    preallocated rows by copying phi_{k-1} into its row and adding
    x phi_k there with one call of scipy's compiled CSR kernel (the one
    behind ``csr_matrix @ ndarray``, which computes y += x v: the
    three-term update itself), through ``_csr_product``, with no
    dispatch and no allocation.  The weighted sum takes one
    coefficients @ rows product per CHEB_RING terms.

    ``radius`` is W + margin, with W = max - min eigenvalue of H (so
    -i[H, .] has its spectrum on i[-W, W]; for a block -i (H X - X H')
    between two generators, W is the spectrum's half-width about its
    centre, see ``evolve_lindblad``), and ``margin`` must be at
    least K = sum_c ||c||^2 over the collapse operators c
    (``dissipative_margin``).  The bound: for Hilbert-Schmidt-unit rho,

        <rho, D rho> = sum_c tr(rho^dag c rho c^dag)
                       - (||c rho||^2 + ||rho c^dag||^2)/2.

    The first term is <c^dag rho, rho c^dag>, at most ||c^dag rho||
    ||rho c^dag|| <= ||c||^2 in modulus, so |Im| <= K and Re >= -2K; by
    the same Cauchy-Schwarz step Re <= sum_c <rho, [c, c^dag] rho>/2 <=
    K/2 for a and adag on the truncated ladder.  The shift is exactly
    mu = -sum_c tr(c^dag c)/d = -K/2 for these c on a d-dimensional
    space, so the centred dissipator's numerical range lies in
    Re in [-3K/2, K], Im in [-K, K]; with ||a||^2 = ||adag||^2 = n_max,
    K = kappa (1 + 2 nbar_bath) n_max.  Hence the numerical range of M
    lies in [-(W + K), W + K] / radius + i [-3K/2, K] / radius: the
    margin in the radius keeps its real extent inside [-1, 1] (and
    keeps the radius positive at V = 0), and its imaginary extent is at
    most 3K/(2 radius).  In real coordinates the recurrence is the same
    one, term by term, applied to Hermitian blocks, so the bound holds
    for it unchanged.

    Why margin tau <= 1 keeps T_k bounded: at an eigenvalue x = u + i v
    of M, |T_k(x)| = |cos(k arccos x)| <= e^{k |Im arccos x|}, with
    |Im arccos x| ~ |v| / sqrt(1 - u^2).  The series' weight sits at
    k <~ z = radius tau, since |J_k(z)| falls faster than geometrically
    beyond, so the growth it meets is about e^{(3K/2) tau / sqrt(1 - u^2)}
    <= e^{1.5 / sqrt(1 - u^2)}: of order one except near the interval
    ends, where |Im arccos x| ~ sqrt(2 |v|) and the bound weakens to
    e^{O(sqrt(radius/K))}.  The largest max|phi_k| / max|b| measured,
    from the vacuum on criterion 9's stages (kappa = 0.05, 0.2 g) and
    the decay-sweep's stage, is 3.9.  One substep of length t would
    instead meet e^{(3K/2) t}.  A zero radius means a' = 0.

    The work, s times the series length, is known before the first
    product; above CHEB_MAX_TERMS (or not finite) it raises ValueError.
    Each of the s >= margin t substeps takes at least two terms and runs
    past order radius tau, so max(radius, margin) t is a lower bound on
    it, checked before the coefficients are computed.
    """
    n = len(a[0]) - 1
    if b.ndim != 2 or b.shape[0] != n:  # the kernel reads n rows of b unchecked
        raise ValueError(f"b must be an ({n}, k) block, not {b.shape}")
    mu = _trace(a) / n
    if radius == 0:
        return np.exp(mu * t) * b
    _check_work(max(radius, margin) * t)
    steps = max(1, math.ceil(margin * t))
    tau = t / steps
    coeffs = _chebyshev_coefficients(radius * tau)
    _check_work(steps * len(coeffs))
    dtype = np.result_type(a[2].dtype, b.dtype)
    indptr, indices, data = _centred(a, mu, 2.0 / radius)
    kernel, args = _csr_kernel((indptr, indices, data.astype(dtype, copy=False)), b.shape[1])
    depth = min(CHEB_RING, len(coeffs))
    ring = np.zeros((depth, b.size), dtype=dtype)
    rows, flat = list(ring), ring.view(float)  # real coefficients act on re and im alike
    damp = np.exp(mu * tau)
    for _ in range(steps):
        rows[0][:] = b.ravel()
        rows[1][:] = 0.0
        _csr_product(kernel, args, rows[0], rows[1])
        rows[1] *= 0.5
        f = np.zeros(flat.shape[1])
        for start in range(0, len(coeffs), depth):
            stop = min(start + depth, len(coeffs))
            for k in range(max(start, 2), stop):
                row = rows[k % depth]
                row[:] = rows[(k - 2) % depth]
                _csr_product(kernel, args, rows[(k - 1) % depth], row)
            f += coeffs[start:stop] @ flat[: stop - start]
        b = f.view(dtype).reshape(b.shape)
        b *= damp
    return b


def _csr_kernel(x: tuple[np.ndarray, np.ndarray, np.ndarray], k: int):
    """scipy's compiled CSR product for the square CSR triple x times an
    (n, k) block of x's dtype, and the leading arguments it takes from
    x, for ``_csr_product``.

    The kernel is csr_matvec (k = 1) or csr_matvecs of
    ``_sparsetools()``, called without the dispatch that checks its
    arguments, so x's arrays are checked and converted here, once: int32
    or int64 indices and float64 or complex128 data, C-contiguous.
    """
    indptr, indices, data = x
    index = np.result_type(indptr, indices)
    if index not in (np.int32, np.int64):
        raise TypeError(f"CSR indices must be int32 or int64, not {index}")
    if data.dtype not in (np.float64, np.complex128):
        raise TypeError(f"CSR data must be float64 or complex128, not {data.dtype}")
    n = len(indptr) - 1
    arrays = (np.ascontiguousarray(indptr, dtype=index),
              np.ascontiguousarray(indices, dtype=index), np.ascontiguousarray(data))
    kernels = _sparsetools()
    if k == 1:
        return kernels.csr_matvec, (n, n, *arrays)
    return kernels.csr_matvecs, (n, n, k, *arrays)


@lru_cache(maxsize=1)
def _sparsetools():
    """scipy.sparse._sparsetools, the extension module of scipy's compiled
    CSR kernels, loaded from its file on its own: importing scipy.sparse
    for it would load the whole package (about 320 modules, 22 MB of RSS
    and 0.12 s), while the module alone adds 0.16 MB and 0.4 ms.  Where scipy.sparse is loaded
    already, its copy of the module is taken; the interpreter files a
    module loaded here in sys.modules under the same name, where a later
    import of scipy.sparse finds it."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    folder = os.path.join(root, "sparse")
    paths = [os.path.join(folder, "_sparsetools" + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no _sparsetools extension module in {folder}")
    spec = importlib.util.spec_from_file_location(name, path,
                                                  loader=ExtensionFileLoader(name, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csr_product(kernel, args, v: np.ndarray, out: np.ndarray) -> None:
    """out += x v for the matrix x of ``_csr_kernel(x, k)`` = (kernel,
    args), with v and out the row-major (n, k) blocks as C-contiguous
    arrays of x's dtype; every product of ``chebyshev_action`` is one
    call."""
    kernel(*args, v, out)


def _check_work(terms: float) -> None:
    if not terms <= CHEB_MAX_TERMS:  # also refuses inf and nan
        raise ValueError(f"the decay stage needs at least {terms:.4g} Chebyshev series terms "
                         f"(substeps x series length), more than {CHEB_MAX_TERMS:.0e}")


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """J_0(z), 2 J_1(z), 2 J_2(z), ..., cut before the first order k > z
    with |J_k(z)| <= CHEB_TOL (at least two terms).

    The J_k come from Miller's backward recurrence J_{k-1} = (2k/z) J_k
    - J_{k+1}, started from 0 and 1 at order z + 24 z^{1/3} + 40, where
    J_k(z) is below 1e-50 (checked for z from 2^-52 to 1e7, the largest
    argument the work guard lets through).  Run downwards, the
    recurrence amplifies J_k and damps its other solution Y_k, so the
    values (rescaled whenever they pass 1e100) become proportional to
    J_k long before the cut, which lies below the start; they are
    normalised by J_0 + 2 sum_k J_2k = 1.  Below z = 2^-52 the series is
    1 + z T_1 to double precision.
    """
    if z <= 2.0**-52:
        return np.array([1.0, z])
    top = int(z + 24.0 * z ** (1.0 / 3.0)) + 40
    j = np.zeros(top + 1)
    j[top] = cur = 1.0
    nxt = 0.0
    for k in range(top, 0, -1):
        cur, nxt = (2.0 * k / z) * cur - nxt, cur
        if abs(cur) > 1e100:
            j[k:] *= 1e-100
            cur *= 1e-100
            nxt *= 1e-100
        j[k - 1] = cur
    j /= j[0] + 2.0 * j[2::2].sum()
    cut = np.nonzero((np.arange(top + 1) > z) & (np.abs(j) <= CHEB_TOL))[0][0]
    coeffs = 2.0 * j[: max(int(cut), 2)]
    coeffs[0] = j[0]
    return coeffs


def evolve_lindblad(builder, delta: float, decay: DecaySpec, space: SpaceDescriptor,
                    rhos: np.ndarray, t0: float, t1: float) -> Propagation:
    """Exact propagation of density matrices under the master equation

        drho/dt = -i [H(t), rho] + sum_c (c rho c^dag - {c^dag c, rho}/2)

    with collapse operators sqrt(kappa (1+nbar_bath)) a and
    sqrt(kappa nbar_bath) adag, for H(t) = e^{i H0 t} V e^{-i H0 t} with
    V given block by block by ``builder`` as in ``evolve_exact``.  The
    collapse operators only pick up a phase under e^{-+i H0 t}, so
    sigma = e^{-i H0 t} rho e^{i H0 t} obeys dsigma/dt = L sigma with the
    static L = -i [H0 + V, .] + D, and

        rho(t1) = e^{i H0 t1} [e^{L (t1 - t0)} sigma(t0)] e^{-i H0 t1}.

    sigma goes into algebra.coupled_basis x I_mode on both sides.  H0 + V
    is block diagonal there and the collapse operators are I x c_mode, so
    the block of sigma between a copy of spin J and a copy of spin J'
    evolves on its own under the rectangular Liouvillian of the two
    multiplets' blocks (``liouvillian`` with ``right``), the same one for
    every pair of copies.  Each pair (2J, 2J') holding anything nonzero
    takes one Chebyshev action, with every pair of copies and every
    member as columns; its radius is the width of -i (H_J X - X H_J')
    about its centre (the trace / n the action subtracts) plus
    ``dissipative_margin``.  The shift and margin argument of
    ``chebyshev_action`` holds for each block unchanged, because
    tr(c^dag c) / n depends on the mode alone and each c has the same
    norm as on the whole space.

    The members are Hermitian, and L commutes with X -> X^dag, so:

    * the block (J', J) is the adjoint of the block (J, J'): only J <= J'
      (in the order of the basis' groups) is propagated, and the other
      is filled in;
    * a diagonal pair (J, J) runs in real arithmetic.  Its copy blocks
      X_cc are Hermitian, and so are X_12 + X_21 and i (X_12 - X_21) for
      copies 1 < 2, which give X_12 = (A - i B) / 2 back from their
      propagated A and B.  These C^2 Hermitian blocks per member (C
      copies) take one float64 action of ``real_liouvillian`` in the
      coordinates Re X + Im X, with the radius and margin of the complex
      action, so with as many products, each on real rows.

    ``rhos`` (k, dim, dim) are the members of one ensemble, each scaled
    by its weight (trace = weight), so leakage is checked on the
    weighted mixture of the flat result.  drift is the largest relative
    trace change (NormDriftError beyond 1e-6); nothing is renormalized
    or clipped.  Only the pairs on and above the diagonal are read, and
    the result in the coupled basis is exactly Hermitian.  The frame
    phases act on the mode axes alone, so they commute with the rotations
    and are applied in place on the rotated stacks.  sigma (and the last
    pair's view of it) is dropped once every pair is read, and the way
    back rotates one side at a time, so besides ``rhos`` a stage holds at
    most three stacks at once.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return Propagation(rhos, check_leakage_dm(space, rhos.sum(axis=0)), 0.0, 0)
    basis = coupled_basis(space.atom_count, space.atom_dim)
    atoms, m, k = space.atoms_dim, space.mode_dim, len(rhos)
    h0 = -delta * np.arange(m)
    spread = np.subtract.outer(h0, h0)[:, None, :]  # e^{-i H0 t} . e^{i H0 t} on (n, n')
    traces = np.trace(rhos, axis1=1, axis2=2).real
    sigma = basis.both_sides(rhos.reshape(k, atoms, m, atoms, m))
    sigma *= np.exp(-1j * spread * t0)  # on the mode axes, so it commutes with the rotation
    out = np.zeros_like(sigma)
    margin = dissipative_margin(space, decay)
    _check_work(margin * (t1 - t0))  # a lower bound for every pair, before any is built
    blocks = {}
    block_dim = 0
    for i, left in enumerate(basis.groups):
        for right in basis.groups[i:]:
            x = sigma[:, left.start:left.stop, :, right.start:right.stop]
            if not x.any():
                continue
            for group in (left, right):
                if group not in blocks:
                    gen = _block_generator(builder, group, delta, m)
                    blocks[group] = gen, eigvalsh(gen)
            (h_left, w_left), (h_right, w_right) = blocks[left], blocks[right]
            p, q = len(h_left), len(h_right)
            centre = np.trace(h_left).real / p - np.trace(h_right).real / q
            width = max(w_left[-1] - w_right[0] - centre, centre - w_left[0] + w_right[-1])
            if right is left:
                y = chebyshev_action(real_liouvillian(h_left, space, decay),
                                     _real_columns(x, left, m), t1 - t0, width + margin, margin)
                x = _from_real_columns(y, left, m, k)
            else:
                cols = (x.reshape(k, left.copies, left.width, m, right.copies, right.width, m)
                        .transpose(2, 3, 5, 6, 0, 1, 4).reshape(p * q, -1))
                cols = chebyshev_action(liouvillian(h_left, space, decay, h_right), cols,
                                        t1 - t0, width + margin, margin)
                x = (cols.reshape(left.width, m, right.width, m, k, left.copies, right.copies)
                     .transpose(4, 5, 0, 1, 6, 2, 3).reshape(x.shape))
                out[:, right.start:right.stop, :, left.start:left.stop] = (
                    x.conj().transpose(0, 3, 4, 1, 2))
            out[:, left.start:left.stop, :, right.start:right.stop] = x
            block_dim = max(block_dim, p * q)
    del sigma, x  # every pair is read; x may be a view of sigma
    # one side at a time, so each rotation frees the stack it read
    out = basis.rotate(out.reshape(k, atoms, -1), back=True).reshape(k, atoms * m, atoms, m)
    out = basis.rotate(out, back=True).reshape(k, atoms, m, atoms, m)
    out *= np.exp(1j * spread * t1)
    out = out.reshape(rhos.shape)

    drift = norm_drift(traces, np.trace(out, axis1=1, axis2=2).real)
    leak = check_leakage_dm(space, out.sum(axis=0))
    return Propagation(out, leak, drift, block_dim)


def _real_columns(x: np.ndarray, group: SpinGroup, m: int) -> np.ndarray:
    """The (p^2, k C^2) real columns of the diagonal pair block x
    (k, C w, m, C w, m) of C copies, p = w m: per member, Re X + Im X of
    each copy block X_cc, then of X_12 + X_21 and of i (X_12 - X_21) for
    each pair of copies 1 < 2 (``_from_real_columns`` inverts it)."""
    k, c, p = len(x), group.copies, group.width * m
    x = x.reshape(k, c, p, c, p).transpose(0, 1, 3, 2, 4)
    upper, lower = np.triu_indices(c, 1)
    pairs, mirrors = x[:, upper, lower], x[:, lower, upper]
    herm = np.concatenate([x[:, range(c), range(c)], pairs + mirrors,
                           1j * (pairs - mirrors)], axis=1)
    return (herm.real + herm.imag).reshape(k * c * c, p * p).T


def _from_real_columns(y: np.ndarray, group: SpinGroup, m: int, k: int) -> np.ndarray:
    """The (k, C w, m, C w, m) diagonal pair block whose real columns
    (``_real_columns``) are y: Re X = (Y + Y^T)/2 and Im X = (Y - Y^T)/2
    of each Hermitian block, then X_12 = (A - i B)/2 and X_21 = X_12^dag."""
    c, p = group.copies, group.width * m
    y = y.T.reshape(k, c * c, p, p)
    herm = np.empty(y.shape, dtype=complex)
    herm.real = (y + y.swapaxes(2, 3)) / 2
    herm.imag = (y - y.swapaxes(2, 3)) / 2
    upper, lower = np.triu_indices(c, 1)
    pairs = len(upper)
    x = np.empty((k, c, c, p, p), dtype=complex)
    x[:, range(c), range(c)] = herm[:, :c]
    x[:, upper, lower] = (herm[:, c:c + pairs] - 1j * herm[:, c + pairs:]) / 2
    x[:, lower, upper] = x[:, upper, lower].conj().swapaxes(2, 3)
    return x.transpose(0, 1, 3, 2, 4).reshape(k, c * group.width, m, c * group.width, m)


def _collapse_ops(space: SpaceDescriptor, decay: DecaySpec) -> list[np.ndarray]:
    """The collapse operators' mode factors (m x m)."""
    if decay.kappa == 0:
        return []
    a = mode_lowering(space)
    ops = [math.sqrt(decay.kappa * (1.0 + decay.nbar_bath)) * a]
    if decay.nbar_bath > 0:
        ops.append(math.sqrt(decay.kappa * decay.nbar_bath) * a.conj().T)
    return ops


def thermal_state(space: SpaceDescriptor, spec: ThermalSpec,
                  atom_state: StateVector | None = None) -> DensityMatrix:
    """Density matrix with atoms in a pure state and the mode thermal.

    The mode factor is sum_n p_n |n><n| truncated at the space's cutoff;
    the raw Bose-Einstein weights are kept without renormalization (the
    trace deficit equals the tail mass, checked < 1e-9 by ThermalSpec).
    atom_state defaults to all atoms in |g>.
    """
    if space.no_mode:
        raise ValueError("space has no bosonic mode")
    if spec.cutoff > space.fock_cutoff:
        raise ValueError(
            f"spec cutoff {spec.cutoff} exceeds space fock_cutoff {space.fock_cutoff}"
        )
    probs = np.zeros(space.mode_dim)
    probs[: spec.cutoff + 1] = spec.probabilities()
    if atom_state is None:
        atoms = np.zeros(space.atoms_dim, dtype=complex)
        atoms[0] = 1.0
    else:
        if atom_state.space.atoms_only() != space.atoms_only() or not atom_state.space.no_mode:
            raise ValueError("atom_state must live on the atoms-only space")
        atoms = atom_state.amplitudes
    rho_atoms = np.outer(atoms, atoms.conj())
    return DensityMatrix(space, np.kron(rho_atoms, np.diag(probs).astype(complex)))
