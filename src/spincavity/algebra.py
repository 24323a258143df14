"""Composite Hilbert-space construction and operator/state algebra.

Conventions used throughout the package:

* Atomic levels are indexed g=0, e=1, f=2, h=3 and labelled by the
  letters ``"gefh"``.  Level transfers used by the protocols then become
  fixed permutation matrices.
* The flat basis index of a product state is
  ``(((level_1*d + level_2)*d + ...)*d + level_N)*(n_max+1) + n``,
  i.e. atom 1 is the most significant digit and the bosonic mode is the
  least significant factor.
* The bosonic ladder is hard-truncated: ``adag|n_max> = 0``.  Propagators
  monitor the population of the top two Fock levels so that truncation
  artifacts raise an error instead of passing silently.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

LEVEL_LABELS = "gefh"

#: population allowed in the top two Fock levels before truncation is
#: considered unfaithful
LEAKAGE_TOL = 1e-6

#: a CoupledBasis rotation of fewer multiply-adds than this (on the real
#: view) multiplies every block in full: below it, finding the rows a
#: state occupies costs more than skipping the rest saves (on one core,
#: 25-40 us, as long as a full rotation of 2^19, N = 7 qubits by 16
#: complex columns)
ROTATE_SPARSE_WORK = 2**19

#: leakage is only meaningful when the cutoff sits above the physical
#: support; tiny mode spaces (e.g. a two-level mode used as an exact
#: Jaynes-Cummings sector) are exempt
LEAKAGE_MIN_MODE_DIM = 4


class PhysicsError(RuntimeError):
    """A physical consistency check failed during propagation."""


class TruncationError(PhysicsError):
    """Population leaked into the top Fock levels of a truncated mode."""


class NormDriftError(PhysicsError):
    """State norm (or density-matrix trace) drifted beyond tolerance."""


@dataclass(frozen=True)
class SpaceDescriptor:
    """Shape of a composite Hilbert space: N atoms x d levels x Fock mode.

    Parameters
    ----------
    atom_count : int
        Number of atoms N, at least 1.
    atom_dim : int
        Levels per atom, one of 2, 3, 4 (g, e, f, h in index order).
    fock_cutoff : int
        Maximum boson number n_max; the mode dimension is n_max + 1.
    no_mode : bool
        When True the space carries no bosonic factor (effective-only
        runs); fock_cutoff must be 0.
    """

    atom_count: int
    atom_dim: int
    fock_cutoff: int = 0
    no_mode: bool = False

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("atom_count must be at least 1")
        if self.atom_dim not in (2, 3, 4):
            raise ValueError("atom_dim must be one of 2, 3, 4")
        if self.fock_cutoff < 0:
            raise ValueError("fock_cutoff must be non-negative")
        if self.no_mode and self.fock_cutoff != 0:
            raise ValueError("no_mode spaces must have fock_cutoff 0")

    @property
    def mode_dim(self) -> int:
        return 1 if self.no_mode else self.fock_cutoff + 1

    @property
    def atoms_dim(self) -> int:
        return self.atom_dim**self.atom_count

    @property
    def dim(self) -> int:
        return self.atoms_dim * self.mode_dim

    def atoms_only(self) -> "SpaceDescriptor":
        """The same atomic content with the mode factor dropped."""
        return SpaceDescriptor(self.atom_count, self.atom_dim, 0, no_mode=True)

    def with_mode(self, fock_cutoff: int) -> "SpaceDescriptor":
        """The same atomic content with a mode of the given cutoff."""
        return SpaceDescriptor(self.atom_count, self.atom_dim, fock_cutoff, no_mode=False)


def make_space(atom_count: int, atom_dim: int, fock_cutoff: int, no_mode: bool = False) -> SpaceDescriptor:
    """Build a SpaceDescriptor; see the class docstring for the index law."""
    return SpaceDescriptor(atom_count, atom_dim, fock_cutoff, no_mode)


@dataclass(frozen=True)
class StateVector:
    """A pure state: complex amplitudes over the flat product basis."""

    space: SpaceDescriptor
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-9:  # also refuses nan
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-9")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state; Hermitian, unit trace, positive semidefinite.

    Construction checks hermiticity (1e-10), trace (1e-9) and the
    smallest eigenvalue (>= -1e-9).
    """

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        n = self.space.dim
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        herm = np.max(np.abs(mat - mat.conj().T)) if n else 0.0
        if not herm <= 1e-10:  # also refuses nan and inf entries
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = float(np.trace(mat).real)
        if not abs(tr - 1.0) <= 1e-9:
            raise ValueError(f"trace is {tr!r}, expected 1 within 1e-9")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if not wmin >= -1e-9:
            raise ValueError(f"matrix has negative eigenvalue {wmin:.3e}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Operator:
    """A linear operator on a SpaceDescriptor, stored dense."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        n = self.space.dim
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        object.__setattr__(self, "matrix", mat)


def basis_index(space: SpaceDescriptor, levels, n: int = 0) -> int:
    """Flat index of the product basis state with the given atomic levels
    and boson number.

    ``levels`` is a sequence of level indices (one per atom) or a string
    of letters from ``"gefh"``.
    """
    levels = _parse_levels(space, levels)
    if not 0 <= n < space.mode_dim:
        raise ValueError(f"boson number {n} outside mode dimension {space.mode_dim}")
    idx = 0
    for lev in levels:
        idx = idx * space.atom_dim + lev
    return idx * space.mode_dim + n


def decode_index(space: SpaceDescriptor, index: int) -> tuple[tuple[int, ...], int]:
    """Inverse of basis_index: returns (levels tuple, boson number)."""
    if not 0 <= index < space.dim:
        raise ValueError(f"index {index} outside dimension {space.dim}")
    index, n = divmod(index, space.mode_dim)
    levels = []
    for _ in range(space.atom_count):
        index, lev = divmod(index, space.atom_dim)
        levels.append(lev)
    return tuple(reversed(levels)), n


def basis_state(space: SpaceDescriptor, levels, n: int = 0) -> StateVector:
    """Product basis state |levels> x |n>."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, levels, n)] = 1.0
    return StateVector(space, amps)


def _parse_levels(space: SpaceDescriptor, levels) -> tuple[int, ...]:
    if isinstance(levels, str):
        try:
            levels = tuple(LEVEL_LABELS.index(ch) for ch in levels)
        except ValueError:
            raise ValueError(f"bad level letter in {levels!r}; allowed: {LEVEL_LABELS[:space.atom_dim]!r}")
    else:
        levels = tuple(int(v) for v in levels)
    if len(levels) != space.atom_count:
        raise ValueError(f"got {len(levels)} levels for {space.atom_count} atoms")
    for lev in levels:
        if not 0 <= lev < space.atom_dim:
            raise ValueError(f"level index {lev} outside atom_dim {space.atom_dim}")
    return levels


def embed_atom_op(space: SpaceDescriptor, atom_index: int, local_matrix) -> Operator:
    """Embed a d x d single-atom operator: identity on every other factor."""
    if not 0 <= atom_index < space.atom_count:
        raise ValueError(f"atom_index {atom_index} outside 0..{space.atom_count - 1}")
    local = np.asarray(local_matrix, dtype=complex)
    d = space.atom_dim
    if local.shape != (d, d):
        raise ValueError(f"local matrix has shape {local.shape}, expected ({d}, {d})")
    mat = np.eye(1, dtype=complex)
    for j in range(space.atom_count):
        mat = np.kron(mat, local if j == atom_index else np.eye(d))
    mat = np.kron(mat, np.eye(space.mode_dim))
    return Operator(space, mat)


def local_sp(atom_dim: int) -> np.ndarray:
    """Single-atom raising operator |e><g| (g/e block only)."""
    mat = np.zeros((atom_dim, atom_dim), dtype=complex)
    mat[1, 0] = 1.0
    return mat


def local_sm(atom_dim: int) -> np.ndarray:
    """Single-atom lowering operator |g><e|."""
    return local_sp(atom_dim).conj().T


def local_proj(atom_dim: int, level: int) -> np.ndarray:
    mat = np.zeros((atom_dim, atom_dim), dtype=complex)
    mat[level, level] = 1.0
    return mat


def collective_sx(space: SpaceDescriptor) -> Operator:
    """The collective spin operator (1/2) sum_j (Sj+ + Sj-).

    Acts only through the g/e block of each atom; rows and columns of
    |f> and |h> are zero.
    """
    sx_local = 0.5 * (local_sp(space.atom_dim) + local_sm(space.atom_dim))
    return Operator(space, _collective(space, sx_local))


def _collective(space: SpaceDescriptor, local: np.ndarray) -> np.ndarray:
    """sum_j of the single-atom ``local`` embedded on atom j, as a dense
    matrix on the whole space."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.atom_count):
        mat += embed_atom_op(space, j, local).matrix
    return mat


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices, the same products bit for bit, as
    one outer product reordered: for small factors about 2.5 times
    faster than np.kron's generic path."""
    (p, q), (r, s) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(p * r, q * s)


@dataclass(frozen=True)
class SpinGroup:
    """The multiplets of one total spin J in a CoupledBasis: its columns
    start .. stop, one copy of 2J + 1 columns (M = -J .. J) after
    another."""

    two_j: int
    start: int
    copies: int

    @property
    def width(self) -> int:
        return self.two_j + 1

    @property
    def stop(self) -> int:
        return self.start + self.copies * self.width


@dataclass(frozen=True)
class CoupledBasis:
    """The spectator x total-spin basis of N d-level atoms.

    Each of its d^N columns is a state |J, M, alpha> of one spectator
    pattern: every atom is either active (g or e) or parked in one level
    f or h, and the k active atoms are coupled into total-spin
    multiplets.  groups holds one SpinGroup per value of 2J, largest
    first (``spin_groups``).  A collective operator never joins two
    copies (pattern x alpha) of a multiplet, and on each copy of spin J
    the collective S+ is the standard ladder ``spin_raising(2J)``, so
    q^T S+ q is block diagonal with that block on every copy, q the real
    orthogonal d^N x d^N matrix of the basis' columns.

    q is never formed.  Every pattern of k active atoms carries the same
    Clebsch-Gordan matrix of k spin-1/2 (Shammah et al., Phys. Rev. A 98,
    063815 (2018)), so blocks holds one (v, rows, cols) per k that some
    pattern has.  v is that real orthogonal 2^k x 2^k matrix (read-only,
    in Fortran order so that each multiplet is a contiguous run of
    columns): its rows are the 2^k product states of the active atoms in
    order, and its columns the multiplets grouped by 2J, largest first,
    each group in the order ``_grow`` builds them.  rows and cols
    (patterns x 2^k) are the flat product indices and the basis columns
    of each k-active pattern, so q is v on every (rows[p], cols[p]) and
    zero elsewhere.  States enter the basis through ``rotate`` and
    ``both_sides`` and leave it through ``rotate`` with ``back``; no other
    module of the package reads the blocks.  A large rotation multiplies
    only what the state occupies: its nonzero product rows going in, the
    columns of the groups a stage propagated going back.
    """

    blocks: tuple
    groups: tuple

    def rotate(self, x: np.ndarray, back: bool = False, groups=None) -> np.ndarray:
        """q^T x, the coefficients of a complex x in the basis (q x with
        ``back``), on x's second-to-last axis.  Each block serves all of
        its patterns at once: one gather of their rows of x.view(float)
        (real and imaginary parts as columns, so no complex copy of v is
        made), one matmul by v^T, one scatter into their columns (from
        the columns, by v, into the rows with ``back``).  The one block
        of two-level atoms has the whole space as its rows and columns,
        in order, so it writes the result in place.

        From ROTATE_SPARSE_WORK multiply-adds up, only the rows of x that
        can be nonzero are read: going in, the product rows of x that are
        not exactly zero; going back, the columns of ``groups``
        (SpinGroups of this basis; by default the nonzero rows of x).  A
        block none of whose rows is live only zeroes its output rows, and
        one of which at most a quarter is live multiplies only the live
        rows of x of the patterns that hold them by the matching rows of
        v^T (columns of v with ``back``), a copy of at most a quarter of
        v; every other block takes the full product.  Either way each
        entry is the sum of the same nonzero terms."""
        x = np.ascontiguousarray(x).view(float)
        live = None  # every block in full
        if self._work * (x.size // x.shape[-2]) >= ROTATE_SPARSE_WORK:
            if back and groups is not None:
                live = np.zeros(x.shape[-2], dtype=bool)
                for group in groups:
                    live[group.start:group.stop] = True
            else:  # the rows of x holding a nonzero entry
                live = np.any(x, axis=tuple(range(x.ndim - 2)) + (x.ndim - 1,))
        return self._rotate(x, back, live).view(complex)

    def both_sides(self, x: np.ndarray) -> np.ndarray:
        """q^T x q on the atom axes (1 and 3) of a complex (k, A, m, A, m)
        stack, one side after the other as ``rotate`` does it.  Above
        ROTATE_SPARSE_WORK each side reads only its live rows, the atom
        rows (or columns) of x holding a nonzero entry, both found
        before the first rotation."""
        k, atoms, m = x.shape[:3]
        x = np.ascontiguousarray(x).view(float)
        left = right = None
        if self._work * (x.size // atoms) >= ROTATE_SPARSE_WORK:
            left = np.any(x.reshape(k, atoms, -1), axis=2).any(axis=0)
            right = np.any(x.reshape(-1, atoms * 2 * m), axis=0).reshape(atoms, -1).any(axis=1)
        y = self._rotate(x.reshape(k, atoms, -1), False, left)
        y = self._rotate(y.reshape(k, atoms * m, atoms, 2 * m), False, right)
        return y.view(complex).reshape(k, atoms, m, atoms, m)

    def _rotate(self, x: np.ndarray, back: bool, live) -> np.ndarray:
        """rotate on the real view x, reading only the rows of x on its
        second-to-last axis that the boolean ``live`` marks (all rows
        when None)."""
        out = np.empty_like(x)
        for v, rows, cols in self.blocks:
            u, src, dst = (v, cols, rows) if back else (v.T, rows, cols)
            if live is not None:
                used = live[src]  # (patterns, 2^k)
                held = used.any(axis=1)
                keep = used[held].any(axis=0)
                if 4 * np.count_nonzero(held) * np.count_nonzero(keep) <= used.size:
                    out[..., dst[~held], :] = 0.0
                    if not keep.any():
                        continue
                    u, src, dst = u[:, keep], src[held][:, keep], dst[held]
            if dst.size == x.shape[-2]:  # one pattern, every row in order
                np.matmul(u, x if src.size == x.shape[-2] else x[..., src[0], :], out=out)
            else:
                out[..., dst, :] = u @ x[..., src, :]
        return out

    @cached_property
    def _work(self) -> int:
        """The multiply-adds of a full rotation per column of the real
        view: each block's patterns times its 2^k x 2^k entries."""
        return sum(rows.size * len(v) for v, rows, _ in self.blocks)


def spin_raising(two_j: int) -> np.ndarray:
    """The spin-J raising operator on one multiplet: the real
    (2J + 1) x (2J + 1) matrix with columns (and rows) M = -J .. J and
    S+ |J, M> = sqrt((J - M)(J + M + 1)) |J, M + 1>, as on every copy of
    spin J in a CoupledBasis."""
    two_m = np.arange(-two_j, two_j, 2)
    return np.diag(0.5 * np.sqrt((two_j - two_m) * (two_j + two_m + 2.0)), -1)


def _multiplets(k: int, low: int) -> int:
    """The number of spin-J multiplets among k spin-1/2, J = k/2 - low."""
    return math.comb(k, low) - (math.comb(k, low - 1) if low else 0)


def spin_groups(atom_count: int, atom_dim: int) -> tuple:
    """The groups of coupled_basis(atom_count, atom_dim), counted in
    closed form without building it: spin J has one copy per pattern of
    k active atoms (C(N, k) (d - 2)^(N - k) patterns) and per spin-J
    multiplet of k spin-1/2 (C(k, l) - C(k, l - 1) of them, l = k/2 - J)."""
    n, d = atom_count, atom_dim
    groups, start = [], 0
    for two_j in range(n, -1, -1):
        copies = sum(math.comb(n, k) * (d - 2) ** (n - k) * _multiplets(k, (k - two_j) // 2)
                     for k in range(two_j, n + 1, 2))
        if copies:
            groups.append(SpinGroup(two_j, start, copies))
            start = groups[-1].stop
    return tuple(groups)


@lru_cache(maxsize=8)
def coupled_basis(atom_count: int, atom_dim: int) -> CoupledBasis:
    """The CoupledBasis of atom_count atoms with atom_dim levels, built
    once per shape (see the class docstring).

    Each spectator pattern (itertools order) owns the next free columns
    of its groups, one copy per multiplet of its k active atoms; these
    columns and the pattern's rows are counted before anything is built.
    The Clebsch-Gordan matrix of k = 1 .. N spin-1/2 then grows from the
    multiplets of k - 1 (``_grow``), and level k is kept as the block of
    the k-active patterns if there are any: for two-level atoms level N
    alone, for more levels every k.  ``coupled_basis_bytes`` counts what
    the build and the basis hold.
    """
    d, n = atom_dim, atom_count
    groups = spin_groups(n, d)
    free = {group.two_j: group.start for group in groups}
    digits = d ** np.arange(n - 1, -1, -1)  # atom 1 the most significant
    # the columns a pattern of k active atoms takes in each group, 2J descending
    widths = [{two_j: (two_j + 1) * _multiplets(k, (k - two_j) // 2)
               for two_j in range(k, -1, -2)} for k in range(n + 1)]
    rows, cols = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for pattern in itertools.product((None,) + tuple(range(2, d)), repeat=n):
        active = [j for j, level in enumerate(pattern) if level is None]
        parked = sum(int(digits[j]) * level for j, level in enumerate(pattern)
                     if level is not None)
        k = len(active)
        bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        rows[k].append(parked + bits @ digits[active])
        cols[k].append(np.concatenate([np.arange(free[two_j], free[two_j] + width)
                                       for two_j, width in widths[k].items()]))
        for two_j, width in widths[k].items():
            free[two_j] += width
    v = np.ones((1, 1))
    level, blocks = [(0, v)], []  # level: (2J, (2^k, 2J + 1) column run of v) of k spins
    for k in range(n + 1):
        if k:
            v, level = _grow(level, widths[k])
        if rows[k]:
            v.flags.writeable = False
            blocks.append((v, np.array(rows[k]), np.array(cols[k])))
    return CoupledBasis(tuple(blocks), groups)


def coupled_basis_bytes(atom_count: int, atom_dim: int) -> int:
    """The bytes coupled_basis(atom_count, atom_dim) and its rotations
    take at most, counted without building it (cli's memory guard):

    * the blocks, one 2^k x 2^k float64 matrix per k: at most
      8 4^(N + 1) / 3 bytes (8 4^N for two-level atoms, level N alone);
    * the level N - 1 that level N grows from, 2 4^N bytes, freed after
      the build; a rotation that reads a quarter of a block or less
      (``CoupledBasis.rotate``) copies those rows of it in its place, at
      most a quarter of 8 4^N bytes, or all of a block of k < N;
    * the blocks' index arrays, 16 d^N bytes;
    * 8 KiB per row of the largest block (2^N rows) for BLAS work
      buffers.  A rotation multiplies each block by the real view of its
      patterns' rows of the states, so no complex copy of a block is
      made; the rows it gathers and scatters are the states' own, counted
      with them (``dynamics.stage_bytes``).
    """
    return (32 * 4**atom_count // 3 + 2 * 4**atom_count + 16 * atom_dim**atom_count
            + 8192 * 2**atom_count)


def _grow(level: list, widths: dict) -> tuple:
    """The Clebsch-Gordan matrix of k spin-1/2 from the multiplets of
    k - 1 (coupled_basis), with the Condon-Shortley coefficients of
    j x 1/2:

        |j + 1/2, M> =  a |j, M - 1/2>|e> + b |j, M + 1/2>|g>,
        |j - 1/2, M> = -b |j, M - 1/2>|e> + a |j, M + 1/2>|g>,

    a = sqrt((j + M + 1/2) / (2j + 1)), b = sqrt((j - M + 1/2) / (2j + 1)).
    Each multiplet is written straight into its columns of a new
    2^k x 2^k Fortran-ordered zero matrix, whose rows are the product
    states in order (|g> is M = -1/2 and the first spin the most
    significant digit, so the |e> part goes into the odd rows and the |g>
    part into the even ones) and whose columns hold the groups of widths
    (2J: columns, largest 2J first), each in the order the multiplets are
    grown.  Returns the matrix and its multiplets as (2J, column run)
    pairs, the level the next call grows from."""
    v = np.zeros((sum(widths.values()),) * 2, order="F")  # 2^k x 2^k
    first = dict(zip(widths, itertools.accumulate(widths.values(), initial=0)))
    grown = []
    for two_j, vecs in level:
        for two_big in (two_j + 1, two_j - 1):
            if two_big < 0:
                continue
            two_m = np.arange(-two_big, two_big + 1, 2)
            a = np.sqrt((two_j + two_m + 1) / (2 * two_j + 2))
            b = np.sqrt((two_j - two_m + 1) / (2 * two_j + 2))
            new = v[:, first[two_big]:first[two_big] + two_big + 1]
            first[two_big] += two_big + 1
            if two_big > two_j:  # M = -J' has no |e> part, M = J' no |g> part
                new[1::2, 1:], new[0::2, :-1] = a[1:] * vecs, b[:-1] * vecs
            else:
                new[1::2], new[0::2] = -b * vecs[:, :-1], a * vecs[:, 1:]
            grown.append((two_big, new))
    return v, grown


def mode_lowering(space: SpaceDescriptor) -> np.ndarray:
    """Truncated lowering operator a|n> = sqrt(n)|n-1> on the mode factor
    alone, real (float64) as every matrix element is."""
    if space.no_mode:
        raise ValueError("space has no bosonic mode")
    return np.diag(np.sqrt(np.arange(1.0, space.mode_dim)), 1)


def boson_ops(space: SpaceDescriptor) -> tuple[Operator, Operator]:
    """Truncated mode ladder operators (a, adag) embedded in the full space.

    a|n> = sqrt(n)|n-1>; adag|n> = sqrt(n+1)|n+1> for n < n_max and
    adag|n_max> = 0 (hard truncation).
    """
    a = np.kron(np.eye(space.atoms_dim), mode_lowering(space))
    return Operator(space, a), Operator(space, a.conj().T)


def _displacement_partial_sums(a: np.ndarray, eta: float, order: int):
    """Partial sums on the mode ladder a (without the exp(-eta^2/2) prefactor):

    up = sum_j c_j adag^(j+1) a^j  and  dn = sum_j c_j adag^j a^(j+1)
    with c_j = (i eta)^(2j+1) / (j! (j+1)!).  The up part pairs with
    exp(-i delta t), the dn part with exp(+i delta t) in the sideband
    Hamiltonian.  The sums are complex whatever the dtype of a.
    """
    adag = a.conj().T
    up = np.zeros(a.shape, dtype=complex)
    dn = np.zeros(a.shape, dtype=complex)
    for j in range(order + 1):
        c = (1j * eta) ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1))
        aj = np.linalg.matrix_power(a, j)
        up += c * (np.linalg.matrix_power(adag, j + 1) @ aj)
        dn += c * (np.linalg.matrix_power(adag, j) @ (aj @ a))
    return up, dn


def check_leakage(space: SpaceDescriptor, amplitudes: np.ndarray) -> float:
    """Raise TruncationError if the top two Fock levels hold >= 1e-6
    population; returns the leaked population.

    amplitudes is one state vector or a (dim, k) block of ensemble
    columns, each scaled by the square root of its weight; the
    population is summed over the columns, i.e. taken on the weighted
    mixture, as check_leakage_dm takes it on a density matrix.

    The monitor is active only for mode dimensions of at least 4; below
    that the cutoff IS the physical space and the check is meaningless.
    """
    amps = np.asarray(amplitudes).reshape(space.atoms_dim, space.mode_dim, -1)
    return _checked_leak(space, lambda: np.sum(np.abs(amps[:, -2:]) ** 2))


def check_leakage_dm(space: SpaceDescriptor, matrix: np.ndarray) -> float:
    """Density-matrix version of check_leakage."""
    pops = np.diag(matrix).real.reshape(space.atoms_dim, space.mode_dim)
    return _checked_leak(space, lambda: pops[:, -1].sum() + pops[:, -2].sum())


def _checked_leak(space: SpaceDescriptor, top_population) -> float:
    """The population top_population() of the top two Fock levels, or 0.0
    where the monitor is off (no mode, or fewer than
    LEAKAGE_MIN_MODE_DIM levels); TruncationError from LEAKAGE_TOL up."""
    if space.no_mode or space.mode_dim < LEAKAGE_MIN_MODE_DIM:
        return 0.0
    leak = float(top_population())
    if leak >= LEAKAGE_TOL:
        raise TruncationError(
            f"population {leak:.3e} in the top two Fock levels; raise fock_cutoff"
        )
    return leak
