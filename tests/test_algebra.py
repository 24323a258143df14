"""Space construction, embeddings, collective and bosonic operators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spincavity import algebra
from spincavity.algebra import (
    DensityMatrix,
    StateVector,
    TruncationError,
    basis_index,
    basis_state,
    boson_ops,
    check_leakage,
    collective_sx,
    coupled_basis,
    _displacement_partial_sums,
    decode_index,
    embed_atom_op,
    local_sp,
    make_space,
    mode_lowering,
    spin_groups,
    spin_raising,
)


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# spaces and indexing


def test_space_dimensions():
    assert make_space(2, 3, 10).dim == 99
    assert make_space(1, 2, 0, no_mode=True).dim == 2
    assert make_space(4, 2, 5).dim == 96


def test_space_validation():
    with pytest.raises(ValueError):
        make_space(0, 2, 5)
    with pytest.raises(ValueError):
        make_space(2, 5, 5)
    with pytest.raises(ValueError):
        make_space(2, 1, 5)
    with pytest.raises(ValueError):
        make_space(2, 2, -1)
    with pytest.raises(ValueError):
        make_space(2, 2, 3, no_mode=True)


def test_flat_index_formula():
    # (((l1*d + l2)*d + ...)*d + lN)*(n_max+1) + n
    space = make_space(2, 3, 10)
    assert basis_index(space, (1, 2), 7) == (1 * 3 + 2) * 11 + 7
    assert basis_index(space, "ef", 7) == 62


def test_index_round_trip():
    space = make_space(3, 3, 2)
    for idx in range(space.dim):
        levels, n = decode_index(space, idx)
        assert basis_index(space, levels, n) == idx


def test_bad_labels_rejected():
    space = make_space(2, 3, 2)
    with pytest.raises(ValueError):
        basis_index(space, "gh", 0)  # h outside a 3-level atom
    with pytest.raises(ValueError):
        basis_index(space, "g", 0)  # wrong atom count
    with pytest.raises(ValueError):
        basis_index(space, "gg", 5)  # Fock index beyond cutoff


# ---------------------------------------------------------------------------
# embeddings


def test_embed_raising_single_qubit():
    space = make_space(1, 2, 0, no_mode=True)
    sp = embed_atom_op(space, 0, np.array([[0, 0], [1, 0]], dtype=complex))
    g = basis_state(space, "g").amplitudes
    assert np.allclose(sp.matrix @ g, basis_state(space, "e").amplitudes)


def test_embed_identity_is_identity():
    space = make_space(2, 3, 2)
    op = embed_atom_op(space, 1, np.eye(3, dtype=complex))
    assert np.array_equal(op.matrix, np.eye(space.dim))


def test_embed_two_atom_product():
    # (S1+)(S2-) maps |g e> to |e g>
    space = make_space(2, 2, 0, no_mode=True)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.conj().T
    op = embed_atom_op(space, 0, sp).matrix @ embed_atom_op(space, 1, sm).matrix
    out = op @ basis_state(space, "ge").amplitudes
    assert np.allclose(out, basis_state(space, "eg").amplitudes)


def test_embed_validation():
    space = make_space(2, 2, 2)
    with pytest.raises(ValueError):
        embed_atom_op(space, 2, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        embed_atom_op(space, 0, np.eye(3, dtype=complex))


def test_embed_preserves_unitarity():
    rng = np.random.default_rng(7)
    for space in (make_space(2, 3, 2), make_space(3, 2, 0, no_mode=True)):
        for atom in range(space.atom_count):
            u = _random_unitary(rng, space.atom_dim)
            eu = embed_atom_op(space, atom, u).matrix
            dev = np.max(np.abs(eu.conj().T @ eu - np.eye(space.dim)))
            assert dev <= 1e-12


def test_embeds_on_distinct_atoms_commute():
    rng = np.random.default_rng(11)
    space = make_space(3, 2, 1)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ea = embed_atom_op(space, 0, a).matrix
        eb = embed_atom_op(space, 2, b).matrix
        assert np.max(np.abs(ea @ eb - eb @ ea)) <= 1e-12


# ---------------------------------------------------------------------------
# collective spin


def test_sx_single_qubit():
    space = make_space(1, 2, 0, no_mode=True)
    assert np.allclose(collective_sx(space).matrix, 0.5 * np.array([[0, 1], [1, 0]]))


def test_sx_two_qubit_eigenvalues():
    space = make_space(2, 2, 0, no_mode=True)
    eigs = np.linalg.eigvalsh(collective_sx(space).matrix)
    assert np.allclose(np.sort(eigs), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_sx_qutrit_f_level_inert():
    space = make_space(1, 3, 0, no_mode=True)
    sx = collective_sx(space).matrix
    assert np.all(sx[2, :] == 0) and np.all(sx[:, 2] == 0)


def test_sx_hermitian_and_permutation_invariant():
    rng = np.random.default_rng(3)
    space = make_space(3, 3, 0, no_mode=True)
    sx = collective_sx(space).matrix
    assert np.max(np.abs(sx - sx.conj().T)) <= 1e-12
    for _ in range(4):
        # relabel the atoms on the row and the column axes alike
        perm = [int(x) for x in rng.permutation(3)]
        permuted = sx.reshape((3,) * 6).transpose(perm + [3 + p for p in perm])
        assert np.max(np.abs(permuted.reshape(sx.shape) - sx)) <= 1e-12


def test_sx_qubit_spectrum_binomial():
    # eigenvalues m = -N/2..N/2 with multiplicity C(N, m + N/2)
    for n in range(1, 6):
        space = make_space(n, 2, 0, no_mode=True)
        eigs = np.sort(np.linalg.eigvalsh(collective_sx(space).matrix))
        expected = []
        for k in range(n + 1):
            expected.extend([k - n / 2.0] * math.comb(n, k))
        assert np.allclose(eigs, sorted(expected), atol=1e-10)


# ---------------------------------------------------------------------------
# bosonic ladder


def test_boson_vacuum_and_ladder():
    space = make_space(1, 2, 3)
    a, adag = (op.matrix for op in boson_ops(space))
    vac = basis_state(space, "g", 0).amplitudes
    assert np.allclose(a @ vac, 0.0)
    one = basis_state(space, "g", 1).amplitudes
    two = basis_state(space, "g", 2).amplitudes
    assert np.allclose(adag @ one, math.sqrt(2.0) * two)


def test_boson_commutator_corner():
    space = make_space(1, 2, 4)
    a, adag = (op.matrix for op in boson_ops(space))
    comm = a @ adag - adag @ a
    expected = np.eye(space.dim)
    # hard truncation: the top Fock level of each atomic block reads -n_max
    for atom_block in range(space.atoms_dim):
        top = atom_block * space.mode_dim + space.fock_cutoff
        expected[top, top] = -space.fock_cutoff
    assert np.allclose(comm, expected, atol=1e-12)


def test_boson_requires_mode():
    with pytest.raises(ValueError):
        boson_ops(make_space(1, 2, 0, no_mode=True))


# ---------------------------------------------------------------------------
# displacement series


def test_displacement_eta_zero():
    # every term of the series carries eta^(2j+1)
    up, dn = _displacement_partial_sums(mode_lowering(make_space(1, 2, 4)), 0.0, 3)
    assert not up.any() and not dn.any()


def test_displacement_order0_series():
    # order 0 keeps the j = 0 term alone: i eta adag and i eta a
    a = mode_lowering(make_space(1, 2, 6))
    eta = 0.1
    up, dn = _displacement_partial_sums(a, eta, 0)
    assert np.allclose(up, 1j * eta * a.conj().T, atol=1e-14)
    assert np.allclose(dn, 1j * eta * a, atol=1e-14)


# ---------------------------------------------------------------------------
# state carriers and leakage monitor


def test_state_vector_norm_enforced():
    space = make_space(1, 2, 0, no_mode=True)
    with pytest.raises(ValueError):
        StateVector(space, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="state norm nan"):
        StateVector(space, np.array([math.nan, 0.0], dtype=complex))


def test_density_matrix_validation():
    space = make_space(1, 2, 0, no_mode=True)
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[1.1, 0], [0, -0.1]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[0.5, 1j], [0.5j, 0.5]], dtype=complex))
    DensityMatrix(space, np.diag([0.5, 0.5]).astype(complex))


@pytest.mark.parametrize("matrix, refusal", [
    # smallest eigenvalue: -1e-9 is the floor
    (np.diag([1.0 + 2e-9, -2e-9]), "matrix has negative eigenvalue -2.000e-09"),
    (np.diag([1.0 + 5e-10, -5e-10]), None),
    # Hermiticity: 1e-10 is the largest |rho - rho^dag| entry allowed
    (np.array([[0.5, 2e-10], [0.0, 0.5]]), "matrix is not Hermitian: max deviation 2.000e-10"),
    (np.array([[0.5, 5e-11], [0.0, 0.5]]), None),
    # trace: 1 within 1e-9, worded as a plain float
    (np.diag([0.5 + 2e-9, 0.5]), "trace is 1.0000000020000002, expected 1 within 1e-9"),
    (np.diag([0.5 + 5e-10, 0.5]), None),
    # a nan entry fails every comparison, so it is refused as not
    # Hermitian rather than let through
    (np.diag([math.nan, 0.5]), "matrix is not Hermitian: max deviation nan"),
])
def test_density_matrix_tolerances_at_their_boundaries(matrix, refusal):
    space = make_space(1, 2, 0, no_mode=True)
    if refusal is None:
        DensityMatrix(space, matrix.astype(complex))
    else:
        with pytest.raises(ValueError) as refused:
            DensityMatrix(space, matrix.astype(complex))
        assert str(refused.value) == refusal


def test_leakage_monitor_trips_on_top_levels():
    space = make_space(1, 2, 5)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "g", 0)] = math.sqrt(1.0 - 1e-5)
    amps[basis_index(space, "g", 5)] = math.sqrt(1e-5)
    with pytest.raises(TruncationError):
        check_leakage(space, amps)


def test_leakage_monitor_inactive_for_tiny_modes():
    # guard only engages once the mode keeps at least 4 levels
    space = make_space(1, 2, 2)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "g", 2)] = 1.0
    check_leakage(space, amps)


# ---------------------------------------------------------------------------
# spectator x total-spin basis


def _dense_q(basis):
    """The d^N x d^N matrix q of the basis' columns: each block's v on
    every (rows[p], cols[p]) of its patterns, zero elsewhere."""
    dim = sum(rows.size for _, rows, _ in basis.blocks)
    q = np.zeros((dim, dim))
    for v, rows, cols in basis.blocks:
        q[rows[:, :, None], cols[:, None, :]] = v
    return q


def _multiplets(atom_count, atom_dim, two_j):
    """Copies of spin J = two_j / 2 among N atoms: sum over the k active
    atoms of C(N, k) (d - 2)^(N - k) spectator patterns times the number
    of spin-J multiplets of k spin-1/2, C(k, (k - 2J)/2) - C(k, (k - 2J)/2 - 1)."""
    total = 0
    for k in range(two_j, atom_count + 1, 2):
        low = (k - two_j) // 2
        spins = math.comb(k, low) - (math.comb(k, low - 1) if low else 0)
        total += math.comb(atom_count, k) * (atom_dim - 2) ** (atom_count - k) * spins
    return total


@pytest.mark.parametrize("atom_count, atom_dim", [
    (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4),
])
def test_coupled_basis_block_diagonalises_the_collective_raising_operator(atom_count, atom_dim):
    basis = coupled_basis(atom_count, atom_dim)
    # each block: a read-only orthogonal 2^k x 2^k matrix, one multiplet
    # per contiguous column run, and the rows and columns of its patterns
    for v, rows, cols in basis.blocks:
        assert v.dtype == float and not v.flags.writeable and v.flags.f_contiguous
        assert np.max(np.abs(v.T @ v - np.eye(len(v)))) <= 1e-14
        assert rows.shape == cols.shape == (len(rows), len(v))
    q = _dense_q(basis)
    dim = atom_dim**atom_count
    assert q.shape == (dim, dim)
    assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-14
    # the groups tile the columns, 2J descending, with the binomial counts
    assert basis.groups[0].start == 0 and basis.groups[-1].stop == dim
    for left, right in zip(basis.groups, basis.groups[1:]):
        assert left.stop == right.start and left.two_j > right.two_j
    for group in basis.groups:
        assert group.copies == _multiplets(atom_count, atom_dim, group.two_j)
    assert {g.two_j for g in basis.groups} == {
        two_j for two_j in range(atom_count + 1) if _multiplets(atom_count, atom_dim, two_j)}
    # q^T S+ q: the ladder spin_raising(2J) on every copy, and nothing else
    atoms = make_space(atom_count, atom_dim, 0, no_mode=True)
    s_plus = sum(embed_atom_op(atoms, j, local_sp(atom_dim)).matrix.real
                 for j in range(atom_count))
    rotated = q.T @ s_plus @ q
    expected = np.zeros((dim, dim))
    for group in basis.groups:
        for copy in range(group.copies):
            at = slice(group.start + copy * group.width, group.start + (copy + 1) * group.width)
            assert np.max(np.abs(rotated[at, at] - spin_raising(group.two_j))) <= 1e-14
            expected[at, at] = spin_raising(group.two_j)
    assert np.max(np.abs(rotated - expected)) <= 1e-14


@pytest.mark.parametrize("two_j", range(7))
def test_spin_raising_is_the_standard_ladder(two_j):
    # S+|J, M> = sqrt((J - M)(J + M + 1)) |J, M + 1>, columns M = -J .. J,
    # so [S+, S-] = 2 S_z and S+ annihilates M = J
    up = spin_raising(two_j)
    assert up.shape == (two_j + 1, two_j + 1) and up.dtype == float
    spin = two_j / 2.0
    for col, m in enumerate(np.arange(-spin, spin)):
        assert up[col + 1, col] == pytest.approx(math.sqrt((spin - m) * (spin + m + 1.0)),
                                                 abs=1e-15)
    s_z = np.diag(np.arange(-spin, spin + 1.0))
    assert np.max(np.abs(up @ up.T - up.T @ up - 2.0 * s_z)) <= 1e-13
    assert not up[:, -1].any()


def test_coupled_basis_keeps_spectators_and_orders_atoms_as_basis_index():
    # |J = 1/2, M = -1/2> of the active first atom with the second parked
    # in f is |g f>, and the two-qubit singlet is (|e g> - |g e>)/sqrt2
    # in the Condon-Shortley phase (first atom the most significant digit)
    space = make_space(2, 3, 0, no_mode=True)
    basis = coupled_basis(2, 3)
    (half,) = [g for g in basis.groups if g.two_j == 1]
    q = _dense_q(basis)
    cols = [q[:, half.start + c * 2] for c in range(half.copies)]
    gf = np.zeros(9)
    gf[basis_index(space, "gf")] = 1.0
    assert any(np.array_equal(c, gf) for c in cols)
    zero = [g for g in basis.groups if g.two_j == 0][0]
    singlet = q[:, zero.start]
    expected = np.zeros(9)
    expected[basis_index(space, "eg")] = math.sqrt(0.5)
    expected[basis_index(space, "ge")] = -math.sqrt(0.5)
    assert np.max(np.abs(singlet - expected)) <= 1e-15
    assert coupled_basis(2, 3) is basis


def _reference_multiplets(k):
    """(2J, (2^k, 2J + 1) vectors) of the multiplets of k spin-1/2, one
    spin added at a time through np.kron and one column at a time."""
    if k == 0:
        return [(0, np.ones((1, 1)))]
    g, e = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = []
    for two_j, vecs in _reference_multiplets(k - 1):
        for two_big in (two_j + 1, two_j - 1):
            if two_big < 0:
                continue
            new = np.zeros((2 * len(vecs), two_big + 1))
            for col, two_m in enumerate(range(-two_big, two_big + 1, 2)):
                a = math.sqrt((two_j + two_m + 1) / (2 * two_j + 2))
                b = math.sqrt((two_j - two_m + 1) / (2 * two_j + 2))
                with_e, with_g = (a, b) if two_big > two_j else (-b, a)
                below, above = (two_j + two_m - 1) // 2, (two_j + two_m + 1) // 2
                if 0 <= below <= two_j:
                    new[:, col] += with_e * np.kron(vecs[:, below], e)
                if 0 <= above <= two_j:
                    new[:, col] += with_g * np.kron(vecs[:, above], g)
            out.append((two_big, new))
    return out


def _reference_q(atom_count, atom_dim):
    """q stacked from one d^N-row column block per copy, 2J descending,
    spectator patterns in itertools order."""
    d, n = atom_dim, atom_count
    digits = d ** np.arange(n - 1, -1, -1)
    copies = {}
    for pattern in itertools.product((None,) + tuple(range(2, d)), repeat=n):
        active = [j for j, level in enumerate(pattern) if level is None]
        parked = sum(int(digits[j]) * level for j, level in enumerate(pattern)
                     if level is not None)
        bits = (np.arange(2 ** len(active))[:, None] >> np.arange(len(active) - 1, -1, -1)) & 1
        for two_j, vecs in _reference_multiplets(len(active)):
            cols = np.zeros((d**n, two_j + 1))
            cols[parked + bits @ digits[active]] = vecs
            copies.setdefault(two_j, []).append(cols)
    return np.hstack([cols for two_j in sorted(copies, reverse=True) for cols in copies[two_j]])


@pytest.mark.parametrize("atom_count, atom_dim", [(n, 2) for n in range(1, 9)]
                         + [(n, 3) for n in range(1, 6)] + [(n, 4) for n in range(1, 6)])
def test_coupled_basis_equals_the_column_by_column_build(atom_count, atom_dim):
    # the same arithmetic in another order: equal values (an exact zero
    # may differ in sign)
    assert np.array_equal(_dense_q(coupled_basis(atom_count, atom_dim)),
                          _reference_q(atom_count, atom_dim))


@pytest.mark.parametrize("atom_count, atom_dim", [(n, 2) for n in range(1, 11)]
                         + [(n, 3) for n in range(1, 7)] + [(n, 4) for n in range(1, 6)])
def test_spin_groups_count_the_coupled_basis_groups(atom_count, atom_dim):
    assert spin_groups(atom_count, atom_dim) == coupled_basis(atom_count, atom_dim).groups


def test_coupled_basis_is_built_in_place():
    # qubits keep one block, level N (8 4^N bytes, as large as the old
    # dense q): at its peak the build holds it, level N - 1 (8 4^(N - 1)
    # bytes) and the column views of both levels' multiplets (about
    # 0.25 MiB here), and afterwards only the block and its index arrays;
    # no stacked copy and no cached multiplets.  The bound is the dense
    # q's, q + 10 4^(N - 1) + 2^18.
    block_bytes, levels = 8 * 4**10, 10 * 4**9
    tracemalloc.start()
    try:
        basis = coupled_basis.__wrapped__(10, 2)  # uncached
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ((v, rows, cols),) = basis.blocks
    assert v.nbytes == block_bytes and rows.size == cols.size == 2**10
    assert peak <= block_bytes + levels + 2**18
    assert held <= 1.01 * block_bytes


def test_coupled_basis_of_many_qutrits_holds_its_blocks_alone():
    # N = 8 qutrits: one 2^k x 2^k block per k = 0 .. 8 (0.67 MiB) and
    # index arrays of 2 x 8 3^8 bytes, where the dense q was 328 MiB
    tracemalloc.start()
    try:
        basis = coupled_basis.__wrapped__(8, 3)  # uncached
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(v) for v, _, _ in basis.blocks] == [2**k for k in range(9)]
    assert held < 2**20


def _support(rng, dim, support):
    """A boolean mask of the rows a random test state occupies: one row,
    about a sixth of them, or all."""
    if support == "one":
        mask = np.zeros(dim, dtype=bool)
        mask[rng.integers(dim)] = True
        return mask
    if support == "sparse":
        mask = rng.random(dim) < 1 / 6
        mask[rng.integers(dim)] = True
        return mask
    return np.ones(dim, dtype=bool)


@pytest.mark.parametrize("restricted", [False, True], ids=["default", "restricted"])
@pytest.mark.parametrize("support", ["one", "sparse", "dense"])
@pytest.mark.parametrize("atom_count, atom_dim", [(4, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_coupled_basis_rotations_multiply_by_q(monkeypatch, atom_count, atom_dim, support,
                                               restricted):
    # qutrits gather and scatter each block's patterns through index
    # arrays; the one qubit block has the whole space in order as its rows
    # and columns and is written in place.  Restricted, every rotation
    # reads only its live rows (the gate at 0): rotating in, the nonzero
    # product rows; rotating back, the columns of the groups passed or
    # found; both_sides, each side's nonzero atom rows.  Every way gives
    # q^T x, q x and q^T x q
    if restricted:
        monkeypatch.setattr(algebra, "ROTATE_SPARSE_WORK", 0)
    rng = np.random.default_rng([atom_count, atom_dim, len(support)])
    basis = coupled_basis(atom_count, atom_dim)
    q, dim = _dense_q(basis), atom_dim**atom_count
    x = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    x[~_support(rng, dim, support)] = 0.0
    assert np.max(np.abs(basis.rotate(x) - q.T @ x)) <= 1e-13
    # back from the columns of some groups, named or found
    picked = [g for g in basis.groups if rng.random() < 0.5] or [basis.groups[-1]]
    if support == "dense":
        picked = list(basis.groups)
    coeffs = np.zeros_like(x)
    for group in picked:
        coeffs[group.start:group.stop] = x[group.start:group.stop] + 1.0
    for groups in (picked, None):
        back = basis.rotate(coeffs, back=True, groups=groups)
        assert np.max(np.abs(back - q @ coeffs)) <= 1e-13
    # a stack (k, A, m, A, m) with its own live atom rows on each side
    rho = rng.normal(size=(2, dim, 2, dim, 2)) + 1j * rng.normal(size=(2, dim, 2, dim, 2))
    rho[:, ~_support(rng, dim, support)] = 0.0
    rho[:, :, :, ~_support(rng, dim, support)] = 0.0
    left = (q.T @ rho.reshape(2, dim, -1)).reshape(2 * dim * 2, dim, 2)
    both = (q.T @ left).reshape(rho.shape)  # q^T on each side
    assert np.max(np.abs(basis.both_sides(rho) - both)) <= 1e-13
    # back one atom axis at a time, as evolve_lindblad leaves the basis
    k, atoms, m = rho.shape[:3]
    y = basis.rotate(both.reshape(k, atoms, -1), back=True).reshape(k, atoms * m, atoms, m)
    assert np.max(np.abs(basis.rotate(y, back=True).reshape(rho.shape) - rho)) <= 1e-13


def test_coupled_basis_qubit_block_is_the_whole_space_in_order():
    ((v, rows, cols),) = coupled_basis(4, 2).blocks
    assert np.array_equal(rows[0], np.arange(16)) and np.array_equal(cols[0], np.arange(16))


def test_restricted_rotations_read_a_quarter_of_the_block_or_less(monkeypatch):
    # an all-g start occupies one product row and, in the basis, one
    # column of the largest group: rotating it in reads one row of v^T,
    # rotating back one column of v, and each product entry is one term,
    # so both are exactly the full product's; a block with more than a
    # quarter of its rows live takes the full product
    basis = coupled_basis(11, 2)
    ((v, _, _),) = basis.blocks
    x = np.zeros((2048, 30), dtype=complex)
    x[0] = np.arange(30) + 1j
    reads = []
    matmul = np.matmul

    def counted(a, b, *args, **kwargs):
        reads.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    coeffs = basis.rotate(x)
    back = basis.rotate(coeffs, back=True, groups=basis.groups[:1])
    assert reads == [(2048, 1), (2048, 12)]
    assert np.array_equal(coeffs, v[0][:, None] * x[0])
    assert np.max(np.abs(back - x)) <= 1e-15
    x[:600] = 1.0
    basis.rotate(x)
    assert reads[-1] == (2048, 2048)
