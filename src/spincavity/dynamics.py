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
  exactly one (also on the hard-truncated ladder).  ``evolve_exact``
  therefore propagates a drive stage with one eigendecomposition of
  H0 + V, pushing every state column through it at once.
* The cavity collapse operators a and adag only pick up a phase in the
  same frame, so the master equation is static there too.
  ``evolve_lindblad`` builds the Liouvillian L = -i[H0 + V, .] + D once
  per stage and applies e^{L (t1 - t0)} to every density matrix of the
  stage at once with ``chebyshev_action``, a Bessel-coefficient
  Chebyshev series of the centred L.  Its radius is the spread of the
  eigenvalues of H0 + V plus ``dissipative_margin``, a proven bound on
  the dissipator's numerical range; its substeps, series length and
  coefficients follow from those numbers alone, so identical calls give
  bitwise-identical results.
* Neither exact propagator renormalizes, symmetrizes or clips: norm or
  trace drift beyond 1e-6 raises NormDriftError, and the engines
  validate final density matrices (Hermiticity, trace, eigenvalues).
* ``evolve_td_multi`` integrates a callable t -> H(t) with adaptive
  DOP853 and is kept as the independent reference the exact propagator
  is tested against; no engine calls it.
* Propagation on spaces with a mode checks Fock-truncation leakage via
  algebra.check_leakage (check_leakage_dm for density matrices).  The
  states of one ensemble carry their weights (columns the square roots,
  density matrices the weights themselves), so the check sees the
  population of the weighted mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigvalsh
from scipy.special import jv

from .algebra import (
    DensityMatrix,
    NormDriftError,
    Operator,
    SpaceDescriptor,
    StateVector,
    boson_ops,
    check_leakage,
    check_leakage_dm,
)
# unused here; perfbench/spans.py wraps this name to count operator builds
from .algebra import collective_sx  # noqa: F401

#: norm/trace drift beyond this is a propagation failure
NORM_HARD = 1e-6

#: the Chebyshev series of a stage is cut at the first order k beyond its
#: argument with |J_k| below this
CHEB_TOL = 2.0**-53


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
    """

    states: np.ndarray
    leak: float
    drift: float


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


def _mode_frame(v: np.ndarray, delta: float, space: SpaceDescriptor):
    """The static mode-frame generator H0 + V (dense) and the diagonal of
    H0 = -delta adag a; V must be Hermitian."""
    herm = np.max(np.abs(v - v.conj().T))
    if herm > 1e-10:
        raise ValueError(f"generator is not Hermitian: max deviation {herm:.3e}")
    h0 = -delta * np.tile(np.arange(space.mode_dim), space.atoms_dim)
    return v + np.diag(h0), h0


def evolve_exact(v: np.ndarray, delta: float, space: SpaceDescriptor,
                 columns: np.ndarray, t0: float, t1: float,
                 t_eval=None) -> Propagation:
    """Exact propagation of a generator that is static in the mode frame.

    ``v`` is the static generator V of H(t) = e^{i H0 t} V e^{-i H0 t}
    with H0 = -delta adag a, as every full-engine builder in
    ``hamiltonians`` returns it.  Then

        U(t, t0) = e^{i H0 t} e^{-i (H0 + V)(t - t0)} e^{-i H0 t0},

    and one eigendecomposition of H0 + V serves every column and every
    requested time.  ``columns`` (dim, k) are the members of one
    ensemble, each scaled by the square root of its weight, so leakage
    is checked on the weighted mixture.  Returns the block at t1, or the
    trajectory at the times ``t_eval`` (taken from the same
    eigendecomposition), with the leak and norm drift found.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    gen, h0 = _mode_frame(v, delta, space)
    w, vecs = eigh(gen)
    coeffs = vecs.conj().T @ (np.exp(-1j * h0 * t0)[:, None] * columns)
    times = np.array([t1], dtype=float) if t_eval is None else np.asarray(t_eval, dtype=float)
    phases = np.exp(-1j * np.outer(times - t0, w))[:, :, None]
    traj = np.exp(1j * np.outer(times, h0))[:, :, None] * (vecs @ (phases * coeffs))

    drift = norm_drift(np.linalg.norm(columns, axis=0), np.linalg.norm(traj, axis=1))
    top = traj.reshape(len(times), space.atoms_dim, space.mode_dim, -1)[:, :, -2:]
    worst = int(np.argmax(np.sum(np.abs(top) ** 2, axis=(1, 2, 3))))
    leak = check_leakage(space, traj[worst])
    return Propagation(traj[0] if t_eval is None else traj, leak, drift)


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


def liouvillian(generator: np.ndarray, space: SpaceDescriptor,
                decay: DecaySpec) -> sp.csr_matrix:
    """The Liouvillian L rho = -i [H, rho] + sum_c (c rho c^dag
    - {c^dag c, rho}/2) of a static generator H as a sparse matrix on
    row-major vec(rho), where vec(A rho B) = (A kron B^T) vec(rho)."""
    h = sp.csr_matrix(generator)
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    out = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for c in _collapse_ops(space, decay):
        c = sp.csr_matrix(c)
        cdc = c.conj().T @ c
        out = out + sp.kron(c, c.conj()) - 0.5 * (sp.kron(cdc, eye) + sp.kron(eye, cdc.T))
    return out.tocsr()


def dissipative_margin(space: SpaceDescriptor, decay: DecaySpec) -> float:
    """K = kappa (1 + 2 nbar_bath) n_max, the sum of ||c||^2 over the
    collapse operators: how far the centred dissipator can move the
    Liouvillian's numerical range off the Hamiltonian part's spectrum
    (derivation in ``chebyshev_action``); n_max is the Fock cutoff."""
    return decay.kappa * (1.0 + 2.0 * decay.nbar_bath) * space.fock_cutoff


def chebyshev_action(a: sp.csr_matrix, b: np.ndarray, t: float, radius: float,
                     margin: float) -> np.ndarray:
    """e^{t a} b for a static Liouvillian a = -i[H, .] + D and an (n, k)
    block b, by the Bessel-coefficient Chebyshev series (Tal-Ezer &
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
    reproducible.

    ``radius`` is W + margin, with W = max - min eigenvalue of H (so
    -i[H, .] has its spectrum on i[-W, W]), and ``margin`` must be at
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
    most 3K/(2 radius).

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
    """
    n = a.shape[0]
    mu = a.diagonal().sum() / n
    if radius == 0:
        return np.exp(mu * t) * b
    x = ((2.0 / radius) * (a - mu * sp.identity(n, dtype=a.dtype, format="csr"))).tocsr()
    steps = max(1, math.ceil(margin * t))
    tau = t / steps
    coeffs = _chebyshev_coefficients(radius * tau)
    damp = np.exp(mu * tau)
    for _ in range(steps):
        prev, cur = b, 0.5 * (x @ b)
        f = coeffs[0] * prev + coeffs[1] * cur
        for c in coeffs[2:]:
            nxt = x @ cur
            nxt += prev
            f += c * nxt
            prev, cur = cur, nxt
        f *= damp
        b = f
    return b


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """J_0(z), 2 J_1(z), 2 J_2(z), ..., cut before the first order k > z
    with |J_k(z)| <= CHEB_TOL (at least two terms)."""
    size = int(z + 12.0 * z ** (1.0 / 3.0)) + 16  # the Airy tail beyond k = z
    while True:
        order = np.arange(size)
        j = jv(order, z)
        cut = np.nonzero((order > z) & (np.abs(j) <= CHEB_TOL))[0]
        if cut.size:
            break
        size *= 2
    coeffs = 2.0 * j[: max(int(cut[0]), 2)]
    coeffs[0] = j[0]
    return coeffs


def evolve_lindblad(v: np.ndarray, delta: float, decay: DecaySpec, space: SpaceDescriptor,
                    rhos: np.ndarray, t0: float, t1: float) -> Propagation:
    """Exact propagation of density matrices under the master equation

        drho/dt = -i [H(t), rho] + sum_c (c rho c^dag - {c^dag c, rho}/2)

    with collapse operators sqrt(kappa (1+nbar_bath)) a and
    sqrt(kappa nbar_bath) adag, for H(t) = e^{i H0 t} V e^{-i H0 t} with
    the static generator ``v`` as in ``evolve_exact``.  The
    collapse operators only pick up a phase under e^{-+i H0 t}, so
    sigma = e^{-i H0 t} rho e^{i H0 t} obeys dsigma/dt = L sigma with the
    static L = -i [H0 + V, .] + D, and

        rho(t1) = e^{i H0 t1} [e^{L (t1 - t0)} sigma(t0)] e^{-i H0 t1}.

    ``rhos`` (k, dim, dim) are the members of one ensemble, each scaled
    by its weight (trace = weight), so leakage is checked on the
    weighted mixture; one Chebyshev action carries all of them.  drift is
    the largest relative trace change (NormDriftError beyond 1e-6);
    nothing is renormalized, symmetrized or clipped.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return Propagation(rhos, check_leakage_dm(space, rhos.sum(axis=0)), 0.0)
    gen, h0 = _mode_frame(v, delta, space)
    k, n = len(rhos), space.dim
    spread = np.subtract.outer(h0, h0).ravel()  # e^{-i H0 t} . e^{i H0 t} on vec(rho)
    sigma = np.exp(-1j * spread * t0)[:, None] * rhos.reshape(k, n * n).T
    w = eigvalsh(gen)
    margin = dissipative_margin(space, decay)
    sigma = chebyshev_action(liouvillian(gen, space, decay), sigma, t1 - t0,
                             w[-1] - w[0] + margin, margin)
    out = (np.exp(1j * spread * t1)[:, None] * sigma).T.reshape(k, n, n)

    drift = norm_drift(np.trace(rhos, axis1=1, axis2=2).real,
                       np.trace(out, axis1=1, axis2=2).real)
    leak = check_leakage_dm(space, out.sum(axis=0))
    return Propagation(out, leak, drift)


def _collapse_ops(space: SpaceDescriptor, decay: DecaySpec) -> list[np.ndarray]:
    if decay.kappa == 0:
        return []
    a, adag = (op.matrix for op in boson_ops(space))
    ops = [math.sqrt(decay.kappa * (1.0 + decay.nbar_bath)) * a]
    if decay.nbar_bath > 0:
        ops.append(math.sqrt(decay.kappa * decay.nbar_bath) * adag)
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
