"""Hamiltonian builders: matrix elements, frame chain, effective form."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from spincavity.algebra import (
    basis_index,
    basis_state,
    boson_ops,
    collective_sx,
    embed_atom_op,
    local_sp,
    make_space,
    mode_lowering,
    spin_raising,
)
from spincavity.hamiltonians import (
    DriveParams,
    FrameTag,
    h0_drive,
    h_effective,
    h_interaction,
    h_ion,
    h_slow,
    interaction_terms,
    ion_terms,
    lambda_cavity,
    lambda_ion,
    slow_terms,
)

SP = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g| on the qubit block


def _embed_sum(space, local):
    full = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.atom_count):
        full += embed_atom_op(space, j, local).matrix
    return full


# ---------------------------------------------------------------------------
# interaction picture


def test_interaction_drive_only_limit():
    space = make_space(2, 2, 2)
    params = DriveParams(g=0.0, delta=3.0, omega=0.7)
    h1 = h_interaction(space, params, 0.3).matrix
    h2 = h_interaction(space, params, 1.9).matrix
    expected = 0.7 * _embed_sum(space, SP + SP.conj().T)
    assert np.allclose(h1, expected, atol=1e-14)
    assert np.allclose(h1, h2, atol=1e-14)


def test_interaction_resonant_tavis_cummings():
    space = make_space(2, 2, 2)
    params = DriveParams(g=0.9, delta=0.0, omega=0.0)
    a, adag = (op.matrix for op in boson_ops(space))
    sp_sum = _embed_sum(space, SP)
    expected = 0.9 * (adag @ sp_sum.conj().T + a @ sp_sum)
    assert np.allclose(h_interaction(space, params, 1.3).matrix, expected, atol=1e-14)


def test_interaction_matrix_element():
    # <e,0| H |g,1> = g exp(i delta t)
    space = make_space(1, 2, 1)
    params = DriveParams(g=0.8, delta=2.5, omega=0.3)
    t = 0.77
    h = h_interaction(space, params, t).matrix
    row = basis_index(space, "e", 0)
    col = basis_index(space, "g", 1)
    assert h[row, col] == pytest.approx(0.8 * np.exp(1j * 2.5 * t), abs=1e-14)


def test_interaction_requires_mode():
    with pytest.raises(ValueError):
        h_interaction(make_space(1, 2, 0, no_mode=True), DriveParams(g=1, delta=1), 0.0)


# ---------------------------------------------------------------------------
# slow frame


def test_slow_equals_drive_phase_times_sx():
    space = make_space(2, 2, 3)
    params = DriveParams(g=0.45, delta=1.7)
    a, adag = (op.matrix for op in boson_ops(space))
    sx = collective_sx(space).matrix
    for t in (0.0, 0.9, 4.2):
        phase = np.exp(-1j * 1.7 * t)
        expected = 0.45 * (phase * adag + np.conj(phase) * a) @ sx
        assert np.allclose(h_slow(space, params, t).matrix, expected, atol=1e-14)


def test_slow_matrix_element():
    # <gg,1| H(0) |eg,0> = g/2
    space = make_space(2, 2, 2)
    params = DriveParams(g=1.3, delta=0.8)
    h = h_slow(space, params, 0.0).matrix
    row = basis_index(space, "gg", 1)
    col = basis_index(space, "eg", 0)
    assert h[row, col] == pytest.approx(1.3 / 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# effective Hamiltonian


def test_effective_two_qubit_elements():
    space = make_space(2, 2, 0, no_mode=True)
    lam = 0.37
    h = h_effective(space, lam).matrix
    gg, ge = basis_index(space, "gg"), basis_index(space, "ge")
    eg, ee = basis_index(space, "eg"), basis_index(space, "ee")
    assert h[ee, gg] == pytest.approx(lam, abs=1e-14)
    assert h[eg, ge] == pytest.approx(lam, abs=1e-14)


def test_effective_single_atom_no_entangler():
    space = make_space(1, 3, 0, no_mode=True)
    h = h_effective(space, 0.5).matrix
    assert np.allclose(h, np.diag([0.25, 0.25, 0.0]), atol=1e-14)


def test_effective_equals_2_lam_sx_squared():
    for n in (2, 3):
        for d in (2, 3):
            space = make_space(n, d, 0, no_mode=True)
            sx = collective_sx(space).matrix
            h = h_effective(space, 0.21).matrix
            assert np.max(np.abs(h - 2 * 0.21 * (sx @ sx))) <= 1e-12


def test_effective_parity_selection():
    space = make_space(3, 2, 0, no_mode=True)
    h = h_effective(space, 1.0).matrix
    # excitation number of a qubit basis state = number of set bits
    exc = np.array([bin(i).count("1") for i in range(space.dim)])
    parity_differs = (exc[:, None] - exc[None, :]) % 2 == 1
    assert np.max(np.abs(h[parity_differs])) == 0.0


def test_effective_identity_on_mode():
    space = make_space(2, 2, 3)
    h = h_effective(space, 0.4).matrix
    atoms = h_effective(space.atoms_only(), 0.4).matrix
    assert np.array_equal(h, np.kron(atoms, np.eye(space.mode_dim)))


def test_effective_permutation_invariant():
    rng = np.random.default_rng(5)
    space = make_space(4, 2, 0, no_mode=True)
    h = h_effective(space, 0.9).matrix
    for _ in range(4):
        # relabel the atoms on the row and the column axes alike
        perm = [int(x) for x in rng.permutation(4)]
        permuted = h.reshape((2,) * 8).transpose(perm + [4 + p for p in perm])
        assert np.max(np.abs(permuted.reshape(h.shape) - h)) <= 1e-12


@pytest.mark.parametrize("field, value", [
    ("g", -1.0), ("omega", -1.0), ("omega", math.inf), ("eta", -0.1), ("eta", 1.0),
    ("lamb_dicke_order", -1)])
def test_drive_params_validation(field, value):
    # a negative eta never reaches the displacement series
    with pytest.raises(ValueError):
        DriveParams(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["g", "delta", "phi"])
def test_drive_params_refuse_non_finite_values(field, value):
    # these used to construct; an ion run at phi = nan then ended in
    # numpy's "Eigenvalues did not converge"
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        DriveParams(**{field: value})


# ---------------------------------------------------------------------------
# coupling-rate formulas


def test_lambda_values():
    assert lambda_cavity(1.0, 20.0) == pytest.approx(0.025, abs=1e-15)
    assert lambda_ion(1.0, 0.05, 0.05) == pytest.approx(0.1, abs=1e-12)
    assert lambda_ion(0.8, 0.07, 1.3) == pytest.approx(
        lambda_cavity(2 * 0.07 * 0.8, 1.3), abs=1e-15)
    with pytest.raises(ValueError):
        lambda_cavity(1.0, 0.0)
    with pytest.raises(ValueError):
        lambda_ion(1.0, 0.05, 0.0)


# ---------------------------------------------------------------------------
# ion system


def test_ion_first_order_matches_slow_frame():
    rng = np.random.default_rng(31)
    space = make_space(2, 2, 3)
    eta, omega, delta = 0.06, 0.9, 1.8
    ion = DriveParams(omega=omega, delta=delta, eta=eta, phi=math.pi / 2.0)
    cav = DriveParams(g=2 * eta * omega, delta=delta)
    for t in rng.uniform(0.0, 9.0, size=20):
        hi = h_ion(space, ion, t, FrameTag.ION_LAMB_DICKE).matrix
        hs = h_slow(space, cav, t).matrix
        assert np.max(np.abs(hi - hs)) <= 1e-12


def test_ion_series_zero_at_eta_zero():
    space = make_space(1, 2, 3)
    params = DriveParams(omega=1.0, delta=2.0, eta=0.0, lamb_dicke_order=2)
    assert np.max(np.abs(h_ion(space, params, 0.3, FrameTag.ION_INTERACTION).matrix)) == 0.0


def test_ion_order0_vs_first_order_prefactor():
    space = make_space(1, 2, 4)
    eta = 0.11
    p0 = DriveParams(omega=0.7, delta=1.1, eta=eta, phi=0.4, lamb_dicke_order=0)
    h_series = h_ion(space, p0, 0.9, FrameTag.ION_INTERACTION).matrix
    h_first = h_ion(space, p0, 0.9, FrameTag.ION_LAMB_DICKE).matrix
    assert np.allclose(h_series, math.exp(-0.5 * eta**2) * h_first, atol=1e-14)


# ---------------------------------------------------------------------------
# classical drive generator


def test_h0_single_atom_spectrum():
    space = make_space(1, 3, 0, no_mode=True)
    eigs = np.sort(np.linalg.eigvalsh(h0_drive(space, 0.8).matrix))
    assert np.allclose(eigs, [-0.8, 0.0, 0.8], atol=1e-12)
    assert np.max(np.abs(h0_drive(space, 0.0).matrix)) == 0.0


def test_h0_rotation_of_ground_state():
    space = make_space(1, 2, 0, no_mode=True)
    omega, t = 0.65, 1.1
    u = expm(-1j * h0_drive(space, omega).matrix * t)
    out = u @ basis_state(space, "g").amplitudes
    expected = np.array([math.cos(omega * t), -1j * math.sin(omega * t)])
    assert np.allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# hermiticity across builders


def test_all_builders_hermitian_at_random_times():
    rng = np.random.default_rng(17)
    space = make_space(2, 3, 2)
    cav = DriveParams(g=0.8, delta=2.2, omega=3.4)
    ion = DriveParams(omega=0.9, delta=1.5, eta=0.08, phi=0.7, lamb_dicke_order=2)
    builders = [
        lambda t: h_interaction(space, cav, t),
        lambda t: h_slow(space, cav, t),
        lambda t: h_ion(space, ion, t, FrameTag.ION_INTERACTION),
        lambda t: h_ion(space, ion, t, FrameTag.ION_LAMB_DICKE),
    ]
    for t in rng.uniform(0.0, 20.0, size=20):
        for build in builders:
            h = build(float(t)).matrix
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    h = h_effective(space, 0.3).matrix
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    h = h0_drive(space, 1.2).matrix
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


# ---------------------------------------------------------------------------
# Kronecker-term builders against the full-space product construction


def _product_generators(space, params):
    """The static generators as products of full-space matrices, the
    construction the builders used before they joined atoms-only and
    mode factors with one np.kron per term."""
    a, adag = (op.matrix for op in boson_ops(space))
    sp = _embed_sum(space, local_sp(space.atom_dim))
    emit = adag @ sp.conj().T
    out = {"interaction": params.g * (emit + emit.conj().T) + params.omega * (sp + sp.conj().T),
           "slow": params.g * ((adag + a) @ collective_sx(space).matrix)}
    pref = 1j * params.eta * params.omega * np.exp(-1j * params.phi)
    coupling = pref * (sp @ (adag + a))
    out["lamb_dicke"] = coupling + coupling.conj().T
    for order in range(3):
        up = np.zeros_like(a)
        dn = np.zeros_like(a)
        for j in range(order + 1):
            c = (1j * params.eta) ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1))
            aj = np.linalg.matrix_power(a, j)
            up += c * (np.linalg.matrix_power(adag, j + 1) @ aj)
            dn += c * (np.linalg.matrix_power(adag, j) @ (aj @ a))
        pref = params.omega * math.exp(-(params.eta**2) / 2.0) * np.exp(-1j * params.phi)
        coupling = pref * (sp @ (up + dn))
        out[f"series_{order}"] = coupling + coupling.conj().T
    return out


@pytest.mark.parametrize("n_atoms, d, cutoff", [
    (1, 2, 1), (1, 4, 6), (2, 2, 6), (2, 3, 6), (2, 4, 3), (3, 2, 3),
    (3, 3, 1), (3, 3, 3), (3, 4, 1), (4, 2, 1), (4, 2, 6), (4, 3, 1),
])
def test_kron_builders_equal_the_full_space_products(n_atoms, d, cutoff):
    space = make_space(n_atoms, d, cutoff)
    params = DriveParams(g=0.83, delta=4.1, omega=7.3, phi=0.4, eta=0.13)
    expected = _product_generators(space, params)
    built = {"interaction": interaction_terms(space, params),
             "slow": slow_terms(space, params),
             "lamb_dicke": ion_terms(space, params, FrameTag.ION_LAMB_DICKE)}
    for order in range(3):
        series = replace(params, lamb_dicke_order=order)
        built[f"series_{order}"] = ion_terms(space, series, FrameTag.ION_INTERACTION)
    for name, v in built.items():
        assert np.array_equal(v, expected[name]), name


# ---------------------------------------------------------------------------
# block dtypes


def test_blocks_keep_the_dtype_of_their_physics():
    # the ladder and the mode operators are real, so the cavity blocks are
    # real symmetric and eigh takes LAPACK's real path; the ion blocks
    # carry e^{-i phi}, whose real part at phi = pi/2 (about 6e-17) stays
    space = make_space(3, 2, 5)
    raising = spin_raising(3)
    assert mode_lowering(space).dtype == np.float64
    cavity = DriveParams(g=1.0, delta=10.0, omega=3.0)
    for block in (interaction_terms(space, cavity, raising), slow_terms(space, cavity, raising)):
        assert block.dtype == np.float64
        assert np.array_equal(block, block.T)
    ion = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=math.pi / 2.0, lamb_dicke_order=2)
    for frame in (FrameTag.ION_LAMB_DICKE, FrameTag.ION_INTERACTION):
        block = ion_terms(space, ion, frame, raising)
        assert block.dtype == np.complex128
        assert np.max(np.abs(block - block.conj().T)) == 0.0
        assert 0.0 < np.max(np.abs(block.imag)) < 1e-15
