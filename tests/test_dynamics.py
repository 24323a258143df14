"""Propagator and master-equation checks against closed-form oracles."""

import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from spincavity import algebra, dynamics
from spincavity.algebra import (
    DensityMatrix,
    NormDriftError,
    StateVector,
    TruncationError,
    basis_index,
    basis_state,
    boson_ops,
    collective_sx,
    coupled_basis,
    embed_atom_op,
    local_proj,
    make_space,
)
from spincavity.dynamics import (
    DecaySpec,
    ThermalSpec,
    apply_atomic,
    apply_local,
    chebyshev_action,
    dissipative_margin,
    evolve_exact,
    evolve_factored,
    evolve_lindblad,
    evolve_td_multi,
    liouvillian,
    norm_drift,
    propagator_u,
    real_liouvillian,
    thermal_state,
)
from spincavity.dynamics import (
    _centred,
    _chebyshev_coefficients,
    _csr,
    _csr_kernel,
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
    slow_terms,
)
from spincavity.protocols import CollectiveDrive, plan_ghz_two_level, plan_two_atom_qutrit


def _random_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def _evolve_td(h_of_t, psi, t0, t1):
    """evolve_td_multi on one state; returns the raw final amplitudes."""
    return evolve_td_multi(h_of_t, psi.space, psi.amplitudes[:, None], t0, t1)[:, 0]


# ---------------------------------------------------------- evolve_td_multi


def test_evolve_td_zero_hamiltonian_is_identity():
    space = make_space(2, 2, 2)
    psi = _random_state(space, 1)
    out = _evolve_td(lambda t: np.zeros((space.dim, space.dim)), psi, 0.0, 3.0)
    assert np.allclose(out, psi.amplitudes, atol=1e-12)


def test_evolve_td_zero_duration_returns_state():
    space = make_space(1, 2, 2)
    psi = basis_state(space, "g", 1)
    out = _evolve_td(lambda t: np.eye(space.dim), psi, 2.0, 2.0)
    assert np.array_equal(out, psi.amplitudes)


def test_evolve_td_rabi_flop():
    # H = omega (S+ + S-) sends |g> to -i|e> after t = pi/(2 omega)
    space = make_space(1, 2, 0, no_mode=True)
    omega = 0.8
    h = h0_drive(space, omega)
    psi = basis_state(space, "g")
    out = _evolve_td(lambda t: h, psi, 0.0, math.pi / (2 * omega))
    expected = np.array([0.0, -1.0j])
    assert np.max(np.abs(out - expected)) <= 1e-9


def test_evolve_td_vacuum_exchange_period():
    # resonant coupling swaps one excitation between atom and mode with
    # half-period pi/(2g): |e,0> -> -i|g,1> -> -|e,0>
    space = make_space(1, 2, 3)
    g = 0.6
    params = DriveParams(g=g, delta=0.0, omega=0.0)
    psi = basis_state(space, "e", 0)
    half = _evolve_td(lambda t: h_interaction(space, params, t), psi, 0.0, math.pi / (2 * g))
    idx_g1 = basis_index(space, "g", 1)
    assert abs(half[idx_g1] - (-1.0j)) <= 1e-9
    full = _evolve_td(lambda t: h_interaction(space, params, t), psi, 0.0, math.pi / g)
    idx_e0 = basis_index(space, "e", 0)
    assert abs(full[idx_e0] - (-1.0)) <= 1e-9


def test_evolve_td_matches_expm_for_a_static_generator():
    space = make_space(2, 2, 2)
    params = DriveParams(g=0.9, delta=0.0, omega=0.0)
    h = interaction_terms(space, params)
    psi = _random_state(space, 7)
    via_ode = _evolve_td(lambda t: h, psi, 0.0, 2.0)
    via_expm = expm(-2.0j * h) @ psi.amplitudes
    overlap = abs(np.vdot(via_expm, via_ode)) ** 2
    assert overlap >= 1.0 - 1e-9


def test_evolve_td_rejects_reversed_interval():
    space = make_space(1, 2, 1)
    psi = basis_state(space, "g", 0)
    with pytest.raises(ValueError):
        _evolve_td(lambda t: np.eye(space.dim), psi, 1.0, 0.0)


def test_reference_integrator_passes_its_keywords_to_the_solver(monkeypatch):
    # rtol, atol and max_step reach DOP853 unchanged; the defaults are the
    # solver's own step rule (max_step = inf) at 1e-10 / 1e-12
    space = make_space(1, 2, 2)
    cols = np.eye(space.dim, 1, dtype=complex)
    calls = []
    solve = dynamics.solve_ivp

    def captured(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", captured)
    h = np.diag(np.arange(space.dim, dtype=float))
    evolve_td_multi(lambda t: h, space, cols, 0.0, 0.1)
    evolve_td_multi(lambda t: h, space, cols, 0.0, 0.1, rtol=1e-12, atol=1e-14, max_step=0.01)
    keys = [(c["method"], c["rtol"], c["atol"], c["max_step"]) for c in calls]
    assert keys == [("DOP853", 1e-10, 1e-12, np.inf), ("DOP853", 1e-12, 1e-14, 0.01)]


def test_reference_integrator_refuses_bad_solver_settings():
    # scipy's own refusals; a zero rtol is clamped by scipy, not refused
    space = make_space(1, 2, 2)
    h = np.zeros((space.dim, space.dim))
    cols = np.eye(space.dim, 1, dtype=complex)
    with pytest.raises(ValueError):
        evolve_td_multi(lambda t: h, space, cols, 0.0, 0.1, atol=-1e-12)
    with pytest.raises(ValueError):
        evolve_td_multi(lambda t: h, space, cols, 0.0, 0.1, max_step=0.0)


# ------------------------------------------------------ effective generator


def test_expm_of_h_effective_matches_the_two_atom_oracle():
    # exp(-i 2 lam Sx^2 t)|gg> = e^{-i lam t}(cos(lam t)|gg> - i sin(lam t)|ee>)
    space = make_space(2, 2, 0, no_mode=True)
    lam = 0.025
    t = 11.3
    out = expm(-1j * t * h_effective(space, lam).matrix) @ basis_state(space, "gg").amplitudes
    expected = np.zeros(space.dim, dtype=complex)
    expected[basis_index(space, "gg")] = np.exp(-1j * lam * t) * math.cos(lam * t)
    expected[basis_index(space, "ee")] = np.exp(-1j * lam * t) * -1j * math.sin(lam * t)
    assert np.max(np.abs(out - expected)) <= 1e-10


# ------------------------------------------------------------- propagator_u


def test_propagator_u_is_unitary():
    space = make_space(3, 3, 0, no_mode=True)
    u = propagator_u(space, lam=0.025, omega=1.0, t=7.7).matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(space.dim))) <= 1e-12


def test_propagator_u_entangling_angle():
    # sin^2(lam t) = 1/3 with the linear drive at a full period leaves
    # populations 2/3 on |gg> and 1/3 on |ee>
    space = make_space(2, 2, 0, no_mode=True)
    lam = 0.025
    t = math.asin(1.0 / math.sqrt(3.0)) / lam
    omega = 2.0 * math.pi / (2.0 * t)  # 2 omega t = 2 pi
    u = propagator_u(space, lam, omega, t).matrix
    psi = u @ basis_state(space, "gg").amplitudes
    p_gg = abs(psi[basis_index(space, "gg")]) ** 2
    p_ee = abs(psi[basis_index(space, "ee")]) ** 2
    assert abs(p_gg - 2.0 / 3.0) <= 1e-10
    assert abs(p_ee - 1.0 / 3.0) <= 1e-10


def test_propagator_u_zero_drive_quarter_turn():
    # omega = 0, lam t = pi/4 gives the balanced two-branch state
    space = make_space(2, 2, 0, no_mode=True)
    lam = 0.1
    t = (math.pi / 4.0) / lam
    psi = propagator_u(space, lam, 0.0, t).matrix @ basis_state(space, "gg").amplitudes
    expected = np.zeros(space.dim, dtype=complex)
    phase = np.exp(-1j * math.pi / 4.0)
    expected[basis_index(space, "gg")] = phase / math.sqrt(2.0)
    expected[basis_index(space, "ee")] = phase * -1j / math.sqrt(2.0)
    assert np.max(np.abs(psi - expected)) <= 1e-12


def test_propagator_u_matches_expm_of_the_summed_generator():
    # H0 = 2 omega Sx and He = 2 lam Sx^2 commute; the factored product
    # must match direct exponentiation of the sum
    space = make_space(2, 2, 0, no_mode=True)
    lam, omega, t = 0.05, 0.9, 3.1
    h_sum = h_effective(space, lam).matrix + h0_drive(space, omega).matrix
    psi = _random_state(space, 11)
    direct = expm(-1j * t * h_sum) @ psi.amplitudes
    factored = propagator_u(space, lam, omega, t).matrix @ psi.amplitudes
    assert np.max(np.abs(direct - factored)) <= 1e-10


def test_propagator_u_acts_as_identity_on_mode():
    # with a mode attached the propagator factorizes exactly, so atomic
    # dynamics cannot depend on the boson number
    atoms = make_space(2, 2, 0, no_mode=True)
    full = make_space(2, 2, 4)
    u_atoms = propagator_u(atoms, 0.03, 1.1, 5.0).matrix
    u_full = propagator_u(full, 0.03, 1.1, 5.0).matrix
    assert np.array_equal(u_full, np.kron(u_atoms, np.eye(full.mode_dim)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    atom_dim=st.sampled_from([2, 3, 4]),
    atom_count=st.integers(1, 5),
    cutoff=st.none() | st.integers(0, 2),
    lam=st.floats(-0.5, 0.5),
    omega=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 5.0),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
# the largest atoms-only space, and a mode-attached qutrit block
@example(atom_dim=4, atom_count=5, cutoff=None, lam=0.5, omega=3.0, t=5.0, k=2, seed=0)
@example(atom_dim=3, atom_count=4, cutoff=2, lam=-0.5, omega=-3.0, t=5.0, k=3, seed=1)
def test_evolve_factored_matches_expm_of_the_collective_generator(
        atom_dim, atom_count, cutoff, lam, omega, t, k, seed):
    # the product-eigenbasis application against direct exponentiation of
    # 2 omega Sx + 2 lam Sx^2 on the whole space (mode included)
    space = (make_space(atom_count, atom_dim, 0, no_mode=True) if cutoff is None
             else make_space(atom_count, atom_dim, cutoff))
    assume(space.dim <= 1024)
    sx = collective_sx(space).matrix
    u = expm(-1j * t * (2.0 * omega * sx + 2.0 * lam * sx @ sx))
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(space.dim, k)) + 1j * rng.normal(size=(space.dim, k))
    got = evolve_factored(space, lam, omega, t, block)
    assert got.shape == block.shape
    assert np.max(np.abs(got - u @ block)) <= 1e-12


def test_apply_atomic_matches_kron():
    space = make_space(2, 2, 3)
    atoms = make_space(2, 2, 0, no_mode=True)
    u = propagator_u(atoms, 0.02, 0.7, 4.0).matrix
    psi = _random_state(space, 5).amplitudes
    direct = np.kron(u, np.eye(space.mode_dim)) @ psi
    assert np.max(np.abs(apply_atomic(space, u, psi) - direct)) <= 1e-13
    # a (dim, k) block is transformed column by column
    block = np.column_stack([psi, _random_state(space, 6).amplitudes])
    direct = np.kron(u, np.eye(space.mode_dim)) @ block
    assert np.max(np.abs(apply_atomic(space, u, block) - direct)) <= 1e-13


def _kron_power(local, count):
    mat = np.eye(1, dtype=complex)
    for _ in range(count):
        mat = np.kron(mat, local)
    return mat


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


@pytest.mark.parametrize("n_atoms, d, cutoff", [
    (1, 2, 0), (3, 2, 3), (2, 3, 0), (3, 3, 2), (2, 4, 1), (4, 3, 0), (4, 2, 1),
])
def test_apply_local_matches_embedded_and_kron_power_matrices(n_atoms, d, cutoff):
    # the atom-axis map equals the matrix that transfers and measurement
    # projectors used to form: the Kronecker power for "all" atoms,
    # embed_atom_op for one atom; with and without a mode, on one state,
    # on column blocks and on both sides of a density matrix
    space = make_space(n_atoms, d, cutoff, no_mode=cutoff == 0)
    local = _random_unitary(d, 3 * n_atoms + d)
    eye_mode = np.eye(space.mode_dim)
    maps = [(local, "all", np.kron(_kron_power(local, n_atoms), eye_mode))]
    for j in range(n_atoms):
        maps.append((local, j, embed_atom_op(space, j, local).matrix))
        maps += [(local_proj(d, level), j, embed_atom_op(space, j, local_proj(d, level)).matrix)
                 for level in range(d)]
    psi = _random_state(space, 11).amplitudes
    block = np.column_stack([psi, _random_state(space, 12).amplitudes])
    rho = block @ block.conj().T / 2.0
    for op, atoms, mat in maps:
        for x in (psi, block):
            assert np.max(np.abs(apply_local(space, op, atoms, x) - mat @ x)) <= 1e-14
        both = apply_local(space, op, atoms, apply_local(space, op, atoms, rho).conj().T).conj().T
        assert np.max(np.abs(both - mat @ rho @ mat.conj().T)) <= 1e-14


def test_apply_local_rejects_an_atom_outside_the_space():
    space = make_space(2, 3, 1)
    with pytest.raises(ValueError, match="atom index 2 outside 0..1"):
        apply_local(space, np.eye(3), 2, np.zeros(space.dim))


# ------------------------------------------------------------- ThermalSpec


def test_thermal_spec_probabilities():
    spec = ThermalSpec.for_nbar(1.0)
    probs = spec.probabilities()
    assert probs[0] == pytest.approx(0.5, abs=1e-15)
    assert probs[1] == pytest.approx(0.25, abs=1e-15)
    assert probs.sum() == pytest.approx(1.0 - spec.tail_mass(), abs=1e-15)


def test_thermal_spec_zero_nbar():
    spec = ThermalSpec.for_nbar(0.0)
    assert spec.cutoff == 0
    assert spec.tail_mass() == 0.0
    assert np.array_equal(spec.probabilities(), [1.0])


def test_thermal_spec_rejects_fat_tail():
    # nbar = 1, cutoff 5 leaves 0.5^6 of the mass above the cutoff
    with pytest.raises(ValueError):
        ThermalSpec(1.0, 5)
    with pytest.raises(ValueError):
        ThermalSpec(-0.5, 10)


def test_thermal_spec_tail_within_density_matrix_trace_tolerance():
    # nbar = 1, cutoff 26 leaves 0.5^27 = 7.5e-9 above the cutoff, more
    # than the 1e-9 trace tolerance of DensityMatrix: the spec itself
    # must refuse it instead of thermal_state failing downstream
    with pytest.raises(ValueError, match="raise the cutoff"):
        thermal_state(make_space(1, 2, 26), ThermalSpec(1.0, 26))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nbar=st.floats(0.01, 3.0))
def test_smallest_accepted_thermal_cutoff_prepares_a_state(nbar):
    # the cutoff with the fattest tail the spec accepts still gives a
    # valid density matrix, and one level less is refused by the spec
    spec = ThermalSpec.for_nbar(nbar, tail=ThermalSpec.TAIL_TOL)
    rho = thermal_state(make_space(1, 2, spec.cutoff), spec)
    assert 1.0 - np.trace(rho.matrix).real < 1e-9
    if spec.cutoff > 0:
        with pytest.raises(ValueError, match="raise the cutoff"):
            ThermalSpec(nbar, spec.cutoff - 1)


@pytest.mark.parametrize("nbar", [-1.0, -0.5, -2.0, -1e-300, math.nan, math.inf, -math.inf])
def test_thermal_spec_rejects_negative_or_non_finite_nbar(nbar):
    # for_nbar used to fail with ZeroDivisionError (-1), a math-domain
    # ValueError (-0.5) or OverflowError (-2), and the constructor took
    # NaN and inf
    with pytest.raises(ValueError, match="^nbar must be non-negative$"):
        ThermalSpec.for_nbar(nbar)
    with pytest.raises(ValueError, match="^nbar must be non-negative$"):
        ThermalSpec(nbar, 40)


def test_thermal_spec_at_zero_nbar_is_the_vacuum_exactly():
    # the Bose-Einstein formula itself: 0.0**0 == 1.0 and 0.0**(c + 1) == 0.0
    spec = ThermalSpec(0.0, 5)
    probs = spec.probabilities()
    assert probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert not np.signbit(probs).any()
    assert spec.tail_mass() == 0.0


def test_thermal_spec_for_nbar_is_minimal():
    spec = ThermalSpec.for_nbar(1.0, tail=1e-11)
    assert spec.tail_mass() < 1e-11
    if spec.cutoff > 0:
        shorter = (spec.nbar / (1.0 + spec.nbar)) ** spec.cutoff
        assert shorter >= 1e-11


def test_thermal_state_keeps_raw_weights():
    # no renormalization: the trace deficit equals the truncation tail
    spec = ThermalSpec.for_nbar(1.0, tail=1e-10)
    space = make_space(1, 2, spec.cutoff)
    rho = thermal_state(space, spec)
    deficit = 1.0 - np.trace(rho.matrix).real
    assert deficit > 0.0
    assert abs(deficit - spec.tail_mass()) <= 1e-14


def test_thermal_state_with_atom_superposition():
    spec = ThermalSpec.for_nbar(0.2)
    space = make_space(1, 2, spec.cutoff)
    atoms_space = make_space(1, 2, 0, no_mode=True)
    plus = StateVector(atoms_space, np.array([1.0, 1.0]) / math.sqrt(2.0))
    rho = thermal_state(space, spec, atom_state=plus)
    # coherence between |g,0> and |e,0> must survive with weight p0/2
    i_g0 = basis_index(space, "g", 0)
    i_e0 = basis_index(space, "e", 0)
    p0 = spec.probabilities()[0]
    assert rho.matrix[i_g0, i_e0] == pytest.approx(0.5 * p0, abs=1e-14)


def test_thermal_state_validation():
    spec = ThermalSpec.for_nbar(0.2)
    with pytest.raises(ValueError):
        thermal_state(make_space(1, 2, spec.cutoff - 1), spec)
    with pytest.raises(ValueError):
        thermal_state(make_space(1, 2, 0, no_mode=True), spec)
    space = make_space(1, 2, spec.cutoff)
    bad_atoms = basis_state(make_space(1, 2, 1), "g", 0)
    with pytest.raises(ValueError):
        thermal_state(space, spec, atom_state=bad_atoms)


def test_decay_spec_validation():
    with pytest.raises(ValueError, match="^kappa must be non-negative$"):
        DecaySpec(kappa=-0.1)
    with pytest.raises(ValueError, match="^nbar_bath must be non-negative$"):
        DecaySpec(kappa=0.1, nbar_bath=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["kappa", "nbar_bath"])
def test_decay_spec_refuses_non_finite_values(field, value):
    # a NaN or infinite rate used to construct, and the decay stage then
    # failed asking for "at least nan Chebyshev series terms"
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        DecaySpec(**{"kappa": 0.1, field: value})


# ---------------------------------------------------------- evolve_lindblad


def _zero_generator(space):
    """The builder of V = 0: a zero block for any multiplet's S+ block."""
    return lambda raising: np.zeros((raising.shape[1] * space.mode_dim,) * 2, dtype=complex)


def _lindblad_one(build, delta, decay, rho, t0, t1):
    """evolve_lindblad on one density matrix, its result validated as one."""
    out = evolve_lindblad(build, delta, decay, rho.space, rho.matrix[None], t0, t1)
    return DensityMatrix(rho.space, out.states[0])


def test_lindblad_no_decay_matches_unitary():
    space = make_space(2, 2, 2)
    params = DriveParams(g=1.0, delta=0.0, omega=0.0)
    h = interaction_terms(space, params)
    psi_a = basis_state(space, "eg", 0).amplitudes
    psi_b = basis_state(space, "gg", 1).amplitudes
    rho0 = DensityMatrix(
        space, 0.5 * np.outer(psi_a, psi_a.conj()) + 0.5 * np.outer(psi_b, psi_b.conj())
    )
    t = 1.5
    rho_t = _lindblad_one(partial(interaction_terms, space, params), 0.0, DecaySpec(kappa=0.0),
                          rho0, 0.0, t)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    expected = u @ rho0.matrix @ u.conj().T
    diff = np.linalg.eigvalsh(rho_t.matrix - expected)
    assert 0.5 * np.sum(np.abs(diff)) <= 1e-8


def test_lindblad_photon_decay_rate():
    # zero-temperature bath: <n>(t) = e^{-kappa t} for one initial photon
    space = make_space(1, 2, 4)
    kappa = 0.5
    rho0_amp = basis_state(space, "g", 1).amplitudes
    rho0 = DensityMatrix(space, np.outer(rho0_amp, rho0_amp.conj()))
    t = 1.4
    rho_t = _lindblad_one(_zero_generator(space), 0.0, DecaySpec(kappa=kappa), rho0, 0.0, t)
    number = np.kron(np.eye(space.atoms_dim), np.diag(np.arange(space.mode_dim)))
    n_mean = np.trace(number @ rho_t.matrix).real
    assert n_mean == pytest.approx(math.exp(-kappa * t), abs=1e-8)


def test_lindblad_thermal_steady_state():
    # with a warm bath the mode relaxes to the geometric distribution,
    # renormalized on the truncated ladder (detailed balance)
    space = make_space(1, 2, 8)
    nbar_bath = 0.1
    kappa = 1.0
    rho0_amp = basis_state(space, "g", 0).amplitudes
    rho0 = DensityMatrix(space, np.outer(rho0_amp, rho0_amp.conj()))
    rho_t = _lindblad_one(_zero_generator(space), 0.0, DecaySpec(kappa=kappa, nbar_bath=nbar_bath),
                          rho0, 0.0, 40.0)
    pops = np.diag(rho_t.matrix).real.reshape(space.atoms_dim, space.mode_dim).sum(axis=0)
    ratio = nbar_bath / (1.0 + nbar_bath)
    geometric = ratio ** np.arange(space.mode_dim)
    geometric /= geometric.sum()
    assert np.max(np.abs(pops - geometric)) <= 1e-6


def test_lindblad_preserves_trace():
    space = make_space(1, 2, 8)
    rho0_amp = basis_state(space, "g", 1).amplitudes
    rho0 = DensityMatrix(space, np.outer(rho0_amp, rho0_amp.conj()))
    rho_t = _lindblad_one(_zero_generator(space), 0.0, DecaySpec(kappa=0.3, nbar_bath=0.1),
                          rho0, 0.0, 2.0)
    assert abs(np.trace(rho_t.matrix).real - 1.0) <= 1e-12


def test_lindblad_zero_duration_returns_input():
    space = make_space(1, 2, 2)
    rho0_amp = basis_state(space, "g", 0).amplitudes
    rhos = np.outer(rho0_amp, rho0_amp.conj())[None]
    out = evolve_lindblad(_zero_generator(space), 0.0, DecaySpec(kappa=0.2), space, rhos, 1.0, 1.0)
    assert out.states is rhos


def test_lindblad_rejects_reversed_interval():
    space = make_space(1, 2, 2)
    rho0_amp = basis_state(space, "g", 0).amplitudes
    rhos = np.outer(rho0_amp, rho0_amp.conj())[None]
    with pytest.raises(ValueError):
        evolve_lindblad(_zero_generator(space), 0.0, DecaySpec(kappa=0.2), space, rhos, 1.0, 0.0)


# ----------------------------------------------- ion frame cross-check


def test_ion_series_evolution_close_to_first_order():
    # at small eta the displacement series and its first-order expansion
    # generate nearly identical dynamics
    space = make_space(2, 2, 6)
    params = DriveParams(g=0.0, delta=2.0, omega=1.0, eta=0.05,
                         phi=math.pi / 2.0, lamb_dicke_order=2)
    psi = basis_state(space, "gg", 1)
    t = 2.0
    a = _evolve_td(lambda s: h_ion(space, params, s, FrameTag.ION_INTERACTION), psi, 0.0, t)
    b = _evolve_td(lambda s: h_ion(space, params, s, FrameTag.ION_LAMB_DICKE), psi, 0.0, t)
    overlap = abs(np.vdot(a, b)) ** 2
    assert overlap >= 1.0 - 1e-4


# ------------------------------------------------------- exact propagation

# each frame's generator builder with the space and parameters bound, as
# the engines hand it to the propagators
EXACT_FRAMES = {
    "interaction": lambda space, p: partial(interaction_terms, space, p),
    "slow": lambda space, p: partial(slow_terms, space, p),
    "ion-series": lambda space, p: partial(ion_terms, space, p, FrameTag.ION_INTERACTION),
    "ion-first-order": lambda space, p: partial(ion_terms, space, p, FrameTag.ION_LAMB_DICKE),
}

FRAME_HAMILTONIANS = {
    "interaction": lambda space, p, t: h_interaction(space, p, t),
    "slow": lambda space, p, t: h_slow(space, p, t),
    "ion-series": lambda space, p, t: h_ion(space, p, t, FrameTag.ION_INTERACTION),
    "ion-first-order": lambda space, p, t: h_ion(space, p, t, FrameTag.ION_LAMB_DICKE),
}


def _explicit_frame(frame, space, params):
    """t -> H(t) of a full-engine frame, written out here as its sum of
    c e^{-i s delta t} M terms (s = +1 raises the Fock number, -1 lowers
    it, 0 keeps it), independently of the builders."""
    a, adag = (op.matrix for op in boson_ops(space))
    local = np.zeros((space.atom_dim, space.atom_dim), dtype=complex)
    local[1, 0] = 1.0  # |e><g|
    s_plus = sum(embed_atom_op(space, j, local).matrix for j in range(space.atom_count))
    s_minus = s_plus.conj().T
    g, omega, eta = params.g, params.omega, params.eta
    if frame == "interaction":
        terms = [(g, 1, adag @ s_minus), (g, -1, a @ s_plus), (omega, 0, s_plus + s_minus)]
    elif frame == "slow":
        sx = 0.5 * (s_plus + s_minus)
        terms = [(g, 1, adag @ sx), (g, -1, a @ sx)]
    else:
        if frame == "ion-first-order":
            pref = 1j * eta * omega * np.exp(-1j * params.phi)
            up, dn = adag, a
        else:
            # B_up = sum_j c_j adag^(j+1) a^j, B_dn = sum_j c_j adag^j a^(j+1),
            # c_j = (i eta)^(2j+1) / (j! (j+1)!), j = 0..lamb_dicke_order
            pref = omega * math.exp(-eta**2 / 2.0) * np.exp(-1j * params.phi)
            up = np.zeros_like(a)
            dn = np.zeros_like(a)
            for j in range(params.lamb_dicke_order + 1):
                c = (1j * eta) ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1))
                aj = np.linalg.matrix_power(a, j)
                up += c * np.linalg.matrix_power(adag, j + 1) @ aj
                dn += c * np.linalg.matrix_power(adag, j) @ aj @ a
        terms = [(pref, 1, s_plus @ up), (pref, -1, s_plus @ dn),
                 (np.conj(pref), -1, (s_plus @ up).conj().T),
                 (np.conj(pref), 1, (s_plus @ dn).conj().T)]

    def h_of_t(t):
        return sum(c * np.exp(-1j * s * params.delta * t) * m for c, s, m in terms)
    return h_of_t


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    frame=st.sampled_from(sorted(EXACT_FRAMES)),
    atom_dim=st.sampled_from([2, 3]),
    cutoff=st.integers(2, 6),
    g=st.floats(0.1, 2.0),
    delta=st.floats(-12.0, 12.0).filter(lambda d: abs(d) > 0.1),
    omega=st.floats(0.0, 50.0),
    eta=st.floats(0.0, 0.3),
    phi=st.floats(0.0, 2 * math.pi),
    t=st.floats(0.0, 200.0),
)
# the largest deviation recorded so far (1.0e-12 from an oracle that
# rounded the ~2.8e3 rad argument of e^{-i delta t n}), and t = 0
@example(frame="ion-first-order", atom_dim=2, cutoff=4, g=1.0, delta=11.0, omega=50.0,
         eta=0.3, phi=1.0, t=62.74)
@example(frame="interaction", atom_dim=3, cutoff=6, g=2.0, delta=-12.0, omega=50.0,
         eta=0.0, phi=0.0, t=0.0)
@example(frame="ion-series", atom_dim=3, cutoff=6, g=0.1, delta=12.0, omega=50.0,
         eta=0.3, phi=2.0, t=200.0)
def test_full_engine_generators_static_in_mode_frame(frame, atom_dim, cutoff, g, delta,
                                                     omega, eta, phi, t):
    # the identity evolve_exact rests on: the builders' static V, taken
    # to time t as e^{i H0 t} V e^{-i H0 t} with H0 = -delta adag a, is
    # the explicit time-dependent sum, on the hard-truncated ladder too
    space = make_space(2, atom_dim, cutoff)
    params = DriveParams(g=g, delta=delta, omega=omega, eta=eta, phi=phi,
                         lamb_dicke_order=2)
    expected = _explicit_frame(frame, space, params)(t)
    built = FRAME_HAMILTONIANS[frame](space, params, t).matrix
    assert np.max(np.abs(built - expected)) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    frame=st.sampled_from(sorted(EXACT_FRAMES)),
    g=st.floats(0.3, 1.0),
    delta=st.floats(2.0, 8.0),
    omega=st.floats(0.0, 20.0),
    nbar=st.floats(0.05, 0.5),
    t0=st.floats(0.5, 30.0),
    duration=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**16),
)
@example(frame="interaction", g=1.0, delta=8.0, omega=20.0, nbar=0.5, t0=30.0,
         duration=0.3, seed=0)
@example(frame="ion-series", g=0.3, delta=8.0, omega=20.0, nbar=0.5, t0=30.0,
         duration=0.3, seed=1)
def test_exact_propagator_matches_reference_integrator(frame, g, delta, omega, nbar,
                                                        t0, duration, seed):
    # a thermal block (Fock 0..2 with Bose-Einstein weights, random atom
    # states) propagated over a short interval that starts at t0 != 0,
    # so the mode-frame phases must carry across stage boundaries
    space = make_space(2, 2, 9)
    params = DriveParams(g=g, delta=delta, omega=omega, eta=0.05, phi=0.4,
                         lamb_dicke_order=2)
    v = EXACT_FRAMES[frame](space, params)
    rng = np.random.default_rng(seed)
    ratio = nbar / (1.0 + nbar)
    cols = np.zeros((space.dim, 3), dtype=complex)
    for n in range(3):
        atoms = rng.normal(size=space.atoms_dim) + 1j * rng.normal(size=space.atoms_dim)
        mode = np.zeros(space.mode_dim)
        mode[n] = math.sqrt(ratio**n / (1.0 + nbar))
        cols[:, n] = np.kron(atoms / np.linalg.norm(atoms), mode)
    t1 = t0 + duration
    # step cap 2 pi / (20 omega_max) for the fastest frequency of H(t)
    omega_max = max(2.0 * omega, abs(delta), g)
    reference = evolve_td_multi(_explicit_frame(frame, space, params), space, cols, t0, t1,
                                rtol=1e-12, atol=1e-14,
                                max_step=2.0 * math.pi / (20.0 * omega_max))
    exact = evolve_exact(v, delta, space, cols, t0, t1)
    assert np.max(np.abs(exact.states - reference)) <= 1e-9
    # two consecutive stages compose to the single stage, and a sampled
    # trajectory ends where the stage does
    mid = evolve_exact(v, delta, space, cols, t0, t0 + duration / 3).states
    halves = evolve_exact(v, delta, space, mid, t0 + duration / 3, t1).states
    assert np.max(np.abs(halves - exact.states)) <= 1e-12
    traj = evolve_exact(v, delta, space, cols, t0, t1,
                        t_eval=np.linspace(t0, t1, 4)).states
    assert np.max(np.abs(traj[-1] - exact.states)) <= 1e-12
    assert np.max(np.abs(traj[0] - cols)) <= 1e-12


def test_exact_propagator_checks_leakage_on_the_weighted_mixture():
    # near resonance the light column pumps photons into the top two
    # Fock levels (4, 5); weighted by 1e-10 the mixture stays faithful,
    # alone it trips the monitor
    space = make_space(2, 2, 5)
    v = partial(interaction_terms, space, DriveParams(g=1.0, delta=1.2))
    heavy = basis_state(space, "gg", 0).amplitudes
    light = basis_state(space, "ee", 3).amplitudes
    w = 1e-10
    block = np.column_stack([math.sqrt(1.0 - w) * heavy, math.sqrt(w) * light])
    prop = evolve_exact(v, 1.2, space, block, 0.0, 3.0)
    top = prop.states.reshape(space.atoms_dim, space.mode_dim, 2)[:, -2:]
    per_column = np.sum(np.abs(top) ** 2, axis=(0, 1))
    assert per_column[1] / w >= 1e-6
    assert prop.leak == pytest.approx(per_column.sum(), rel=1e-12)
    assert prop.leak < 1e-6
    with pytest.raises(TruncationError):
        evolve_exact(v, 1.2, space, light[:, None], 0.0, 3.0)


def test_zero_v_block_passes_through_without_an_eigendecomposition(monkeypatch):
    # the |ff> leg of two-atom-qutrit's second stage: both atoms parked in
    # f, the 2J = 0 group, where S+ = 0 and so V = 0.  evolve_exact turns
    # it by the frame phases alone and takes no eigh; the decay engine's
    # (0, 0) pair still decays, so it keeps its Chebyshev action
    space = make_space(2, 3, 8)
    t0 = 0.0
    drives = []
    for stage in plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0).stages:
        if isinstance(stage, CollectiveDrive):
            drives.append((t0, stage))
            t0 += stage.duration
    t0, stage = drives[1]
    build = partial(interaction_terms, space, DriveParams(g=1.0, delta=10.0, omega=stage.omega))
    rng = np.random.default_rng(11)
    cols = np.zeros((space.dim, 2), dtype=complex)
    for n in range(space.mode_dim - 2):
        cols[basis_index(space, "ff", n)] = rng.normal(size=2) + 1j * rng.normal(size=2)
    cols /= np.linalg.norm(cols)
    calls = []
    monkeypatch.setattr(dynamics, "eigh", lambda a: calls.append(a) or np.linalg.eigh(a))
    prop = evolve_exact(build, 10.0, space, cols, t0, t0 + stage.duration)
    assert calls == [] and prop.groups == (0,)
    assert np.max(np.abs(prop.states - cols)) <= 1e-15
    rho = (cols @ cols.conj().T)[None]
    prop = evolve_lindblad(build, 10.0, DecaySpec(0.2), space, rho, t0, t0 + stage.duration)
    assert prop.groups == (0,) and prop.products > 0
    # the mode decays, so the photon number falls
    fock = np.tile(np.arange(space.mode_dim), space.atoms_dim)
    assert fock @ np.diag(prop.states[0]).real < fock @ np.diag(rho[0]).real


@pytest.mark.parametrize("atom_count, atom_dim, cutoff", [(3, 2, 7), (2, 3, 7), (2, 4, 6)])
def test_exact_propagators_rotate_only_the_occupied_rows_and_groups(monkeypatch, atom_count,
                                                                    atom_dim, cutoff):
    # states on a third of the product rows, in several spin groups: with
    # every rotation restricted to what the stage occupies (the gate at 0)
    # both propagators give what the full rotations give
    space = make_space(atom_count, atom_dim, cutoff)
    build = partial(interaction_terms, space, DriveParams(g=0.3, delta=5.0, omega=2.0))
    rng = np.random.default_rng([atom_count, atom_dim])
    cols = np.zeros((space.atoms_dim, space.mode_dim, 2), dtype=complex)
    rows = rng.choice(space.atoms_dim, size=max(2, space.atoms_dim // 3), replace=False)
    cols[rows, :2] = rng.normal(size=(len(rows), 2, 2)) + 1j * rng.normal(size=(len(rows), 2, 2))
    cols = cols.reshape(space.dim, 2) / np.linalg.norm(cols)
    rho = (cols @ cols.conj().T)[None]
    full = evolve_exact(build, 5.0, space, cols, 0.3, 0.8)
    full_rho = evolve_lindblad(build, 5.0, DecaySpec(0.1), space, rho, 0.3, 0.8)
    assert len(full.groups) >= 2 and full_rho.groups == full.groups
    monkeypatch.setattr(algebra, "ROTATE_SPARSE_WORK", 0)
    prop = evolve_exact(build, 5.0, space, cols, 0.3, 0.8)
    prop_rho = evolve_lindblad(build, 5.0, DecaySpec(0.1), space, rho, 0.3, 0.8)
    assert prop.groups == full.groups and prop_rho.groups == full.groups
    assert np.max(np.abs(prop.states - full.states)) <= 1e-13
    assert np.max(np.abs(prop_rho.states - full_rho.states)) <= 1e-13


def test_exact_propagator_rejects_non_hermitian_generator():
    space = make_space(1, 2, 2)
    v = lambda basis: -0.1j * np.eye(basis.shape[1] * space.mode_dim)  # noqa: E731
    psi = basis_state(space, "g", 0).amplitudes[:, None]
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_exact(v, 1.0, space, psi, 0.0, 1.0)


def test_norm_drift_is_relative_and_raises_beyond_1e_6():
    # empty (measured-away) columns are skipped
    before = np.array([1.0, 0.5, 0.0])
    assert norm_drift(before, np.array([1.0 + 4e-7, 0.5, 0.0])) == pytest.approx(4e-7)
    with pytest.raises(NormDriftError):
        norm_drift(before, np.array([1.0, 0.5 * (1.0 - 2e-6), 0.0]))
    with pytest.raises(NormDriftError, match="drifted by nan"):
        norm_drift(before, np.array([1.0, math.nan, 0.0]))


# ------------------------------------------- exact Liouvillian propagation


def _dense(a):
    """The CSR triple a (indptr, indices, data) as a dense matrix, entries
    at a repeated position summed, as csr_matrix.toarray() does."""
    indptr, indices, data = a
    n = len(indptr) - 1
    out = np.zeros((n, n), dtype=data.dtype)
    np.add.at(out, (np.repeat(np.arange(n), np.diff(indptr)), indices), data)
    return out


def _csr_matrix(a):
    """The CSR triple a as a scipy.sparse.csr_matrix, the reference its
    arithmetic and products are checked against."""
    indptr, indices, data = a
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def _stage_liouvillian(space, params, delta, decay):
    """The static Liouvillian of one interaction-picture stage with the
    radius and margin evolve_lindblad gives its Chebyshev action."""
    v = interaction_terms(space, params)
    gen = v + np.diag(-delta * np.tile(np.arange(space.mode_dim), space.atoms_dim))
    w = np.linalg.eigvalsh(gen)
    margin = dissipative_margin(space, decay)
    return liouvillian(gen, space, decay), w[-1] - w[0] + margin, margin


def _random_rho_block(space, seed):
    """A random full-rank density matrix as a (dim^2, 1) block."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = x @ x.conj().T
    return (rho / np.trace(rho)).reshape(-1, 1)


# the largest kappa, nbar_bath and cutoff any criterion, workload or
# property test uses; pure dissipation (V = 0, so the radius is the
# margin alone); no generator at all (radius 0, L = 0); and a stiff
# point with kappa / g = 2 and a warm bath
CHEBYSHEV_CASES = [
    (2, 8, DriveParams(g=1.0, delta=8.0, omega=20.0), 8.0, DecaySpec(0.5, 0.5), 3.0),
    (1, 4, DriveParams(g=0.0, delta=0.0, omega=0.0), 0.0, DecaySpec(0.5), 1.4),
    (1, 4, DriveParams(g=0.0, delta=0.0, omega=0.0), 0.0, DecaySpec(0.0), 1.4),
    (2, 6, DriveParams(g=1.0, delta=4.0, omega=10.0), 4.0, DecaySpec(2.0, 1.0), 2.0),
]


@pytest.mark.parametrize("atoms,cutoff,params,delta,decay,t", CHEBYSHEV_CASES)
def test_chebyshev_action_matches_dense_expm(atoms, cutoff, params, delta, decay, t):
    space = make_space(atoms, 2, cutoff)
    a, radius, margin = _stage_liouvillian(space, params, delta, decay)
    b = _random_rho_block(space, 7)
    exact = expm(t * _dense(a)) @ b
    out, products = chebyshev_action(a, b, t, radius, margin)
    assert np.max(np.abs(out - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert (products == 0) == (radius == 0)  # a zero radius takes no product


def _liouvillian_term_by_term(h, h_right, space, decay):
    """-i (H kron I - I kron H'^T) + sum_c [c kron conj(c') - (c^dag c kron I
    + I kron (c'^dag c')^T) / 2], each term formed on its own (dense)."""
    p, q, m = len(h), len(h_right), space.mode_dim
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    out = -1j * (np.kron(h, np.eye(q)) - np.kron(np.eye(p), h_right.T))
    for c in (math.sqrt(decay.kappa * (1.0 + decay.nbar_bath)) * a,
              math.sqrt(decay.kappa * decay.nbar_bath) * a.T):
        left, right = np.kron(np.eye(p // m), c), np.kron(np.eye(q // m), c)
        out += np.kron(left, right.conj()) - 0.5 * (
            np.kron(left.T @ left, np.eye(q)) + np.kron(np.eye(p), (right.T @ right).T))
    return out


@pytest.mark.parametrize("atoms,cutoff,params,delta,decay,t", CHEBYSHEV_CASES)
def test_liouvillian_from_the_effective_generators_matches_the_term_by_term_form(
        atoms, cutoff, params, delta, decay, t):
    # the whole space, and a block between two generators of different
    # sizes; only the warm-bath damping sums c^dag c are added in another
    # order, which moves the diagonal by at most one rounding
    space = make_space(atoms, 2, cutoff)
    gen = interaction_terms(space, params) + np.diag(
        -delta * np.tile(np.arange(space.mode_dim), space.atoms_dim))
    for right in (gen, gen[: space.mode_dim, : space.mode_dim]):
        new = liouvillian(gen, space, decay, right)
        old = _liouvillian_term_by_term(gen, right, space, decay)
        assert len(new[2]) == np.count_nonzero(old)
        assert np.abs(_dense(new) - old).max() <= 1e-15 * np.abs(old).max()


@pytest.mark.parametrize("frame", ["interaction", "ion-series"])
def test_real_liouvillian_is_re_l_plus_im_l_times_the_transpose(frame):
    # R = Re L + (Im L) P with P vec(Y) = vec(Y^T), for a real cavity
    # generator and a complex ion one (phi = 0.7) with a warm bath; it
    # maps the coordinates Re X + Im X of a Hermitian X to those of L X
    space = make_space(2, 2, 3)
    params = DriveParams(g=1.0, delta=3.0, omega=5.0, eta=0.3, phi=0.7, lamb_dicke_order=2)
    gen = EXACT_FRAMES[frame](space, params)(None) + np.diag(
        -3.0 * np.tile(np.arange(space.mode_dim), space.atoms_dim))
    assert (np.abs(gen.imag).max() > 0) == (frame == "ion-series")
    decay = DecaySpec(0.4, 0.3)
    n = space.dim
    full = _dense(liouvillian(gen, space, decay))
    transpose = np.arange(n * n).reshape(n, n).T.ravel()
    expected = full.real + full.imag[:, transpose]
    triple = real_liouvillian(gen, space, decay)
    r = _dense(triple)
    assert triple[2].dtype == np.float64
    assert len(triple[2]) == np.count_nonzero(expected)
    assert np.abs(r - expected).max() <= 1e-15 * np.abs(expected).max()
    x = _random_columns(np.random.default_rng(3), n, n)
    x = x @ x.conj().T + 1j * (x - x.conj().T)
    lx = (full @ x.ravel()).reshape(n, n)
    assert np.abs(lx - lx.conj().T).max() <= 1e-14 * np.abs(lx).max()
    y = r @ (x.real + x.imag).ravel()
    assert np.abs(y - (lx.real + lx.imag).ravel()).max() <= 1e-14 * np.abs(lx).max()


def _decay_sweep_stage():
    """The decay-sweep's stage: N = 2 GHZ at delta = 4.1 g, cutoff 6,
    kappa = 0.2 g."""
    (stage,) = [s for s in plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1).stages
                if isinstance(s, CollectiveDrive)]
    space = make_space(2, 2, 6)
    params = DriveParams(g=1.0, delta=4.1, omega=stage.omega)
    return space, _stage_liouvillian(space, params, 4.1, DecaySpec(0.2)), stage.duration


def test_chebyshev_action_substeps_compose():
    # four unequal pieces (10 substeps of four lengths instead of 8 of
    # one; equal quarters would repeat the same 8) give the one stage
    space, (a, radius, margin), t = _decay_sweep_stage()
    b = _random_rho_block(space, 8)
    whole, _ = chebyshev_action(a, b, t, radius, margin)
    pieces = b
    for share in (0.1, 0.2, 0.3, 0.4):
        pieces, _ = chebyshev_action(a, pieces, share * t, radius, margin)
    assert 0.0 < np.max(np.abs(pieces - whole)) <= 1e-12


def _count_products(monkeypatch):
    """A list that grows by the dtype of the rows written at every call of
    a product that ``_csr_kernel`` returns to the Chebyshev action."""
    rows = []
    kernel = dynamics._csr_kernel

    def wrapped(x, k):
        product = kernel(x, k)

        def counted(v, out):
            rows.append(out.dtype)
            product(v, out)

        return counted

    monkeypatch.setattr(dynamics, "_csr_kernel", wrapped)
    return rows


def test_chebyshev_action_product_count_on_the_decay_sweep_stage(monkeypatch):
    # about radius * t products plus each substep's O(z^{1/3}) tail; the
    # action reports the count the kernel saw
    space, (a, radius, margin), t = _decay_sweep_stage()
    products = _count_products(monkeypatch)
    _, count = chebyshev_action(a, _random_rho_block(space, 9), t, radius, margin)
    assert radius * t <= len(products) < 2 * radius * t
    assert count == len(products)


def test_the_decay_sweep_stage_runs_on_float64_rows_with_the_complex_product_count(
        monkeypatch):
    # from the vacuum only the spin-1 diagonal pair is occupied; its
    # action runs every product on float64 rows and takes the 1712
    # products the complex action on the same pair took
    space = make_space(2, 2, 6)
    (stage,) = [s for s in plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1).stages
                if isinstance(s, CollectiveDrive)]
    build = partial(interaction_terms, space, DriveParams(g=1.0, delta=4.1, omega=stage.omega))
    psi = basis_state(space, "gg", 0).amplitudes
    rows = _count_products(monkeypatch)
    prop = evolve_lindblad(build, 4.1, DecaySpec(0.2), space, np.outer(psi, psi.conj())[None],
                           0.0, stage.duration)
    assert len(rows) == prop.products == 1712
    assert set(rows) == {np.dtype(np.float64)}


@pytest.mark.parametrize("scale_radius, scale_margin", [
    (1e8, 1.0), (1.0, 1e8), (math.inf, 1.0), (1.0, math.inf)])
def test_chebyshev_action_refuses_work_beyond_the_budget(monkeypatch, scale_radius,
                                                         scale_margin):
    # the work (substeps x series length) is known before the first
    # product: a radius or a margin that asks for more than
    # CHEB_MAX_TERMS series terms, or for infinitely many, raises and
    # takes no product
    space, (a, radius, margin), t = _decay_sweep_stage()
    products = _count_products(monkeypatch)
    with pytest.raises(ValueError, match=r"Chebyshev series terms .* more than 1e\+07"):
        chebyshev_action(a, _random_rho_block(space, 1), t,
                         radius * scale_radius, margin * scale_margin)
    assert products == []


@pytest.mark.parametrize("shape", [(783, 1), (785, 2), (784,)])
def test_chebyshev_action_refuses_a_block_of_the_wrong_shape(shape):
    # the compiled product reads n rows of the block without a bounds check
    _, (a, radius, margin), t = _decay_sweep_stage()
    with pytest.raises(ValueError, match=r"b must be an \(784, k\) block"):
        chebyshev_action(a, np.ones(shape, dtype=complex), t, radius, margin)


def _check_csr_product(k, real):
    # from zero it is x @ v bit for bit (the same compiled kernel);
    # otherwise it adds x v to what out holds
    _, (a, _, _), _ = _decay_sweep_stage()
    n = len(a[0]) - 1
    rng = np.random.default_rng(k)
    v = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    if real:
        a, v = (a[0], a[1], a[2].real.copy()), v.real.copy()
    product = _csr_kernel(a, k)
    out = np.zeros_like(v)
    product(v, out)
    assert out.tobytes() == (_csr_matrix(a) @ v).tobytes()
    product(v, out)
    assert np.max(np.abs(out - 2 * (_csr_matrix(a) @ v))) <= 1e-15 * np.max(np.abs(out))


def _centring_cases():
    """CSR triples to centre: each Chebyshev case's Liouvillian and its
    real form, and random complex matrices with most or all of their
    diagonal missing, positive diagonal entries with -0.0 imaginary
    parts and signed zeros off the diagonal."""
    for atoms, cutoff, params, delta, decay, _ in CHEBYSHEV_CASES:
        space = make_space(atoms, 2, cutoff)
        gen = interaction_terms(space, params) + np.diag(
            -delta * np.tile(np.arange(space.mode_dim), space.atoms_dim))
        yield liouvillian(gen, space, decay)
        yield real_liouvillian(gen, space, decay)
    rng = np.random.default_rng(4)
    rows, cols = rng.integers(0, 40, size=(2, 300))
    for diagonal in (False, True):
        if diagonal:
            rows, cols = np.append(rows, np.arange(40)), np.append(cols, np.arange(40))
        vals = rng.normal(size=len(rows)) + 1j * rng.choice([-0.0, 0.0, 1.5], size=len(rows))
        on = rows == cols
        vals[on] = rng.uniform(1.0, 2.0, size=np.sum(on))
        vals.imag[on] = -0.0
        yield _csr(rows, cols, vals, 40)


def test_centred_operator_is_csr_matrix_arithmetic_bit_for_bit():
    # trace(a) / n and 2/radius (a - mu I), built with numpy on the
    # triple, give the indices and bits of csr_matrix's diagonal().sum()
    # and its scalar and sparse arithmetic
    for a in _centring_cases():
        m = _csr_matrix(a)
        n = m.shape[0]
        mu = m.diagonal().sum() / n
        got_mu, got = _centred(a, 2.0 / 3.7)
        assert got_mu.tobytes() == mu.tobytes()
        ref = ((2.0 / 3.7) * (m - mu * sp.identity(n, dtype=m.dtype, format="csr"))).tocsr()
        assert [x.tobytes() for x in got] == [ref.indptr.tobytes(), ref.indices.tobytes(),
                                              ref.data.tobytes()]


@pytest.mark.parametrize("k", [1, 3])
def test_csr_product_is_the_sparse_product(k):
    _check_csr_product(k, real=False)


@pytest.mark.parametrize("k", [1, 3])
def test_csr_product_on_float64_rows_is_the_sparse_product(k):
    _check_csr_product(k, real=True)


# the child imports scipy.sparse before or after the decay engine's first
# action (argv[1]) and prints the digests of that action, of one after
# the import, and of csr_matrix's own product
KERNEL_ORDER = """
import hashlib, sys
import numpy as np
from spincavity.algebra import make_space
from spincavity.dynamics import DecaySpec, chebyshev_action, dissipative_margin, liouvillian
from spincavity.hamiltonians import DriveParams, interaction_terms

space = make_space(2, 2, 6)
gen = interaction_terms(space, DriveParams(g=1.0, delta=4.1, omega=2.0)) + np.diag(
    -4.1 * np.tile(np.arange(space.mode_dim), space.atoms_dim))
w = np.linalg.eigvalsh(gen)
decay = DecaySpec(0.2)
margin = dissipative_margin(space, decay)
a = liouvillian(gen, space, decay)
b = np.random.default_rng(2).normal(size=(space.dim ** 2, 2)).astype(complex)
digest = lambda x: hashlib.sha1(x.tobytes()).hexdigest()
if sys.argv[1] == "sparse-first":
    import scipy.sparse as sp
first, _ = chebyshev_action(a, b, 0.5, w[-1] - w[0] + margin, margin)
assert ("scipy.sparse" in sys.modules) == (sys.argv[1] == "sparse-first")
import scipy.sparse as sp
second, _ = chebyshev_action(a, b, 0.5, w[-1] - w[0] + margin, margin)
product = sp.csr_matrix((a[2], a[1], a[0]), shape=(space.dim ** 2,) * 2) @ b
print(digest(first), digest(second), digest(product))
"""


def test_decay_action_is_the_same_whether_scipy_sparse_is_imported_first_or_after():
    # the kernel module is loaded on its own, or taken from scipy.sparse
    # when that is loaded already; either way, and before or after
    # scipy.sparse is imported, the action's bytes are the same, and
    # scipy.sparse still works once the kernel module was loaded alone
    src = Path(dynamics.__file__).resolve().parents[1]
    lines = []
    for order in ("kernel-first", "sparse-first"):
        done = subprocess.run([sys.executable, "-c", KERNEL_ORDER, order], capture_output=True,
                              text=True, env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        lines.append(done.stdout.split())
    assert lines[0] == lines[1]
    assert lines[0][0] == lines[0][1]


# the child runs one decay action, which loads the kernel module on its
# own, then imports scipy.sparse and reads the package's attribute
KERNEL_ATTRIBUTE = """
import sys
import numpy as np
from spincavity.algebra import make_space
from spincavity.dynamics import DecaySpec, chebyshev_action, dissipative_margin, liouvillian

space = make_space(1, 2, 4)
decay = DecaySpec(0.5)
margin = dissipative_margin(space, decay)
chebyshev_action(liouvillian(np.zeros((space.dim, space.dim)), space, decay),
                 np.ones((space.dim ** 2, 1)), 1.0, margin, margin)
assert "scipy.sparse" not in sys.modules
import scipy.sparse
from scipy.sparse import _sparsetools
assert scipy.sparse._sparsetools is _sparsetools is sys.modules["scipy.sparse._sparsetools"]
print(_sparsetools.__name__, (scipy.sparse.identity(3, format="csr") @ np.ones(3)).sum())
"""


def test_scipy_sparse_sets_its_kernel_module_attribute_after_the_decay_engine_loaded_it():
    src = Path(dynamics.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", KERNEL_ATTRIBUTE], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["scipy.sparse._sparsetools", "3.0"]


@pytest.mark.parametrize("z", [1e-3, 2.404825557695773, 215.3, 1352.7, 8000.0])
def test_chebyshev_coefficients_match_mpmath_and_the_scipy_series_length(z):
    # Miller's recurrence against mpmath's J_k at both ends and the middle
    # of the series, and the cut rule applied to scipy's J_k gives the
    # same length; 2.4048... is the first zero of J_0
    import mpmath
    from scipy.special import jv

    coeffs = _chebyshev_coefficients(z)
    n = len(coeffs)
    for k in sorted({0, 1, n // 2, n - 2, n - 1}):
        exact = (1 if k == 0 else 2) * mpmath.besselj(k, z, maxterms=10**6, maxprec=20000)
        assert abs(coeffs[k] - float(exact)) <= 1e-14
    order = np.arange(int(2 * z) + 64)
    j = jv(order, z)
    cut = np.nonzero((order > z) & (np.abs(j) <= dynamics.CHEB_TOL))[0][0]
    assert len(coeffs) == max(int(cut), 2)


def _reference_master_equation(h_of_t, decay, space, rho, t0, t1):
    """DOP853 integration of drho/dt = -i[H(t), rho] + D rho with the
    time-dependent H(t) of ``_explicit_frame`` and the collapse operators
    written out here."""
    n = space.dim
    a = np.kron(np.eye(space.atoms_dim), np.diag(np.sqrt(np.arange(1, space.mode_dim)), 1))
    collapse = [math.sqrt(decay.kappa * (1.0 + decay.nbar_bath)) * a,
                math.sqrt(decay.kappa * decay.nbar_bath) * a.conj().T]

    def rhs(t, y):
        r = y.reshape(n, n)
        h = h_of_t(t)
        out = -1j * (h @ r - r @ h)
        for c in collapse:
            cdc = c.conj().T @ c
            out += c @ r @ c.conj().T - 0.5 * (cdc @ r + r @ cdc)
        return out.ravel()

    sol = solve_ivp(rhs, (t0, t1), rho.astype(complex).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def _random_low_fock_columns(space, count, seed, top=2):
    """count random pure states supported on Fock levels 0..top."""
    rng = np.random.default_rng(seed)
    cols = np.zeros((space.atoms_dim, space.mode_dim, count), dtype=complex)
    cols[:, : top + 1] = (rng.normal(size=(space.atoms_dim, top + 1, count))
                          + 1j * rng.normal(size=(space.atoms_dim, top + 1, count)))
    cols = cols.reshape(space.dim, count)
    return cols / np.linalg.norm(cols, axis=0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    frame=st.sampled_from(sorted(EXACT_FRAMES)),
    g=st.floats(0.3, 1.0),
    delta=st.floats(2.0, 8.0),
    omega=st.floats(0.0, 20.0),
    kappa=st.floats(0.0, 0.5),
    nbar_bath=st.floats(0.0, 0.5),
    t0=st.floats(0.5, 30.0),
    duration=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**16),
)
@example(frame="interaction", g=1.0, delta=8.0, omega=20.0, kappa=0.5, nbar_bath=0.5,
         t0=30.0, duration=0.3, seed=0)
def test_lindblad_propagator_matches_reference_master_equation(frame, g, delta, omega, kappa,
                                                               nbar_bath, t0, duration, seed):
    # a weighted stack of two mixed states (trace 0.7 and 0.3) over a
    # short interval that starts at t0 != 0, so the mode-frame phases
    # must carry across stage boundaries
    space = make_space(2, 2, 8)
    params = DriveParams(g=g, delta=delta, omega=omega, eta=0.05, phi=0.4,
                         lamb_dicke_order=2)
    v = EXACT_FRAMES[frame](space, params)
    decay = DecaySpec(kappa=kappa, nbar_bath=nbar_bath)
    rhos = np.stack([weight * (cols @ cols.conj().T) / 2.0 for weight, cols in
                     ((0.7, _random_low_fock_columns(space, 2, seed, top=1)),
                      (0.3, _random_low_fock_columns(space, 2, seed + 1, top=1)))])
    t1 = t0 + duration
    prop = evolve_lindblad(v, delta, decay, space, rhos, t0, t1)
    h_of_t = _explicit_frame(frame, space, params)
    for rho, out in zip(rhos, prop.states):
        reference = _reference_master_equation(h_of_t, decay, space, rho, t0, t1)
        assert np.max(np.abs(out - reference)) <= 1e-8
    assert prop.drift <= 1e-12
    # two consecutive stages compose to the single stage
    mid = evolve_lindblad(v, delta, decay, space, rhos, t0, t0 + duration / 3).states
    halves = evolve_lindblad(v, delta, decay, space, mid, t0 + duration / 3, t1).states
    assert np.max(np.abs(halves - prop.states)) <= 1e-12
    # identical calls give identical bits
    again = evolve_lindblad(v, delta, decay, space, rhos, t0, t1)
    assert again.states.tobytes() == prop.states.tobytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    frame=st.sampled_from(sorted(EXACT_FRAMES)),
    g=st.floats(0.3, 1.0),
    delta=st.floats(2.0, 8.0),
    omega=st.floats(0.0, 20.0),
    t0=st.floats(0.0, 30.0),
    duration=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
)
@example(frame="slow", g=1.0, delta=8.0, omega=20.0, t0=30.0, duration=1.0, seed=0)
def test_lindblad_without_decay_matches_exact_pure_propagation(frame, g, delta, omega,
                                                               t0, duration, seed):
    # at kappa = 0 each |psi><psi| follows the pure-state propagator
    space = make_space(2, 2, 9)
    params = DriveParams(g=g, delta=delta, omega=omega, eta=0.05, phi=0.4,
                         lamb_dicke_order=2)
    v = EXACT_FRAMES[frame](space, params)
    cols = _random_low_fock_columns(space, 2, seed, top=1)
    rhos = np.einsum("ik,jk->kij", cols, cols.conj())
    t1 = t0 + duration
    mixed = evolve_lindblad(v, delta, DecaySpec(kappa=0.0), space, rhos, t0, t1)
    pure = evolve_exact(v, delta, space, cols, t0, t1).states
    expected = np.einsum("ik,jk->kij", pure, pure.conj())
    assert np.max(np.abs(mixed.states - expected)) <= 1e-12
    assert mixed.leak == pytest.approx(evolve_exact(v, delta, space, cols, t0, t1).leak,
                                       rel=1e-9, abs=1e-15)


# ------------------------------------ multiplet blocks against the dense space
#
# The dense whole-space propagation the block propagators replaced, kept
# here as their oracle: one eigendecomposition of H0 + V, or one
# Chebyshev action of the whole-space Liouvillian with the radius
# spread(H0 + V) + margin.


def _dense_generator(build, delta, space):
    v = build(None)
    h0 = -delta * np.tile(np.arange(space.mode_dim), space.atoms_dim)
    return v + np.diag(h0), h0


def _dense_exact(build, delta, space, cols, t0, t1):
    gen, h0 = _dense_generator(build, delta, space)
    w, vecs = np.linalg.eigh(gen)
    coeffs = vecs.conj().T @ (np.exp(-1j * h0 * t0)[:, None] * cols)
    return np.exp(1j * h0 * t1)[:, None] * (vecs @ (np.exp(-1j * (t1 - t0) * w)[:, None] * coeffs))


def _dense_lindblad(build, delta, decay, space, rhos, t0, t1):
    gen, h0 = _dense_generator(build, delta, space)
    k, n = len(rhos), space.dim
    spread = np.subtract.outer(h0, h0).ravel()
    sigma = np.exp(-1j * spread * t0)[:, None] * rhos.reshape(k, n * n).T
    w = np.linalg.eigvalsh(gen)
    margin = dissipative_margin(space, decay)
    sigma, _ = chebyshev_action(liouvillian(gen, space, decay), sigma, t1 - t0,
                                w[-1] - w[0] + margin, margin)
    return (np.exp(1j * spread * t1)[:, None] * sigma).T.reshape(k, n, n)


def _random_columns(rng, dim, count):
    cols = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return cols / np.linalg.norm(cols)


BLOCK_CASES = dict(
    frame=st.sampled_from(sorted(EXACT_FRAMES)),
    atom_dim=st.sampled_from([2, 3, 4]),
    atom_count=st.integers(1, 4),
    cutoff=st.integers(1, 2),  # mode dimension below 4: no leakage monitor
    g=st.floats(0.2, 1.5),
    delta=st.floats(-6.0, 6.0),
    omega=st.floats(0.0, 12.0),
    eta=st.floats(0.0, 0.4),
    t0=st.floats(0.0, 20.0),
    duration=st.floats(0.01, 0.6),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**BLOCK_CASES)
@example(frame="ion-series", atom_dim=4, atom_count=4, cutoff=1, g=1.0, delta=3.0,
         omega=12.0, eta=0.4, t0=20.0, duration=0.6, seed=0)
@example(frame="slow", atom_dim=3, atom_count=3, cutoff=1, g=1.5, delta=-6.0,
         omega=0.0, eta=0.0, t0=0.0, duration=0.6, seed=1)
def test_exact_blocks_match_the_dense_space(frame, atom_dim, atom_count, cutoff, g, delta,
                                            omega, eta, t0, duration, seed):
    # random columns that are not permutation symmetric and reach every
    # spectator pattern and multiplet, propagated block by block and on
    # the whole space (up to dimension 512, where the dense eigh costs
    # about a second)
    space = make_space(atom_count, atom_dim, cutoff)
    assume(space.dim <= 512)
    build = EXACT_FRAMES[frame](space, DriveParams(g=g, delta=delta, omega=omega, eta=eta,
                                                   phi=0.7, lamb_dicke_order=2))
    cols = _random_columns(np.random.default_rng(seed), space.dim, 3)
    t1 = t0 + duration
    prop = evolve_exact(build, delta, space, cols, t0, t1)
    assert np.max(np.abs(prop.states - _dense_exact(build, delta, space, cols, t0, t1))) <= 1e-10
    assert prop.block_dim == (atom_count + 1) * space.mode_dim


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**BLOCK_CASES, kappa=st.floats(0.05, 0.5), nbar_bath=st.floats(0.05, 0.5))
@example(frame="interaction", atom_dim=4, atom_count=2, cutoff=2, g=1.0, delta=3.0,
         omega=12.0, eta=0.0, t0=20.0, duration=0.6, seed=0, kappa=0.5, nbar_bath=0.5)
@example(frame="ion-first-order", atom_dim=2, atom_count=4, cutoff=2, g=1.0, delta=-2.0,
         omega=8.0, eta=0.4, t0=3.0, duration=0.3, seed=2, kappa=0.2, nbar_bath=0.1)
def test_lindblad_blocks_match_the_dense_space(frame, atom_dim, atom_count, cutoff, g, delta,
                                               omega, eta, t0, duration, seed, kappa,
                                               nbar_bath):
    # a weighted stack of two full-rank random density matrices, so every
    # pair of multiplet groups (diagonal and off-diagonal) is occupied
    space = make_space(atom_count, atom_dim, cutoff)
    assume(space.dim <= 64)
    build = EXACT_FRAMES[frame](space, DriveParams(g=g, delta=delta, omega=omega, eta=eta,
                                                   phi=0.7, lamb_dicke_order=2))
    decay = DecaySpec(kappa=kappa, nbar_bath=nbar_bath)
    rng = np.random.default_rng(seed)
    rhos = np.stack([weight * (x @ x.conj().T) for weight, x in
                     ((0.6, _random_columns(rng, space.dim, space.dim)),
                      (0.4, _random_columns(rng, space.dim, space.dim)))])
    t1 = t0 + duration
    prop = evolve_lindblad(build, delta, decay, space, rhos, t0, t1)
    dense = _dense_lindblad(build, delta, decay, space, rhos, t0, t1)
    assert np.max(np.abs(prop.states - dense)) <= 1e-10
    largest = (atom_count + 1) * space.mode_dim
    assert prop.block_dim == largest**2
    again = evolve_lindblad(build, delta, decay, space, rhos, t0, t1)
    assert again.states.tobytes() == prop.states.tobytes()


def test_blocks_that_are_exactly_zero_are_skipped():
    # |g g, 0> lies in the symmetric spin-1 multiplet alone: one block of
    # 3 (cutoff + 1) is propagated, and the Liouville block is its square
    space = make_space(2, 3, 2)
    build = partial(interaction_terms, space, DriveParams(g=1.0, delta=4.0, omega=10.0))
    psi = basis_state(space, "gg", 0).amplitudes[:, None]
    prop = evolve_exact(build, 4.0, space, psi, 0.0, 0.5)
    assert prop.block_dim == 9
    assert np.max(np.abs(prop.states - _dense_exact(build, 4.0, space, psi, 0.0, 0.5))) <= 1e-12
    rho = (psi @ psi.conj().T)[None]
    mixed = evolve_lindblad(build, 4.0, DecaySpec(0.1), space, rho, 0.0, 0.5)
    assert mixed.block_dim == 9**2
    dense = _dense_lindblad(build, 4.0, DecaySpec(0.1), space, rho, 0.0, 0.5)
    assert np.max(np.abs(mixed.states - dense)) <= 1e-12
    # a block holding only 1e-6 of amplitude is propagated, not dropped
    tiny = psi + 1e-6 * basis_state(space, "fg", 0).amplitudes[:, None]
    prop = evolve_exact(build, 4.0, space, tiny, 0.0, 0.5)
    assert np.max(np.abs(prop.states - _dense_exact(build, 4.0, space, tiny, 0.0, 0.5))) <= 1e-12
    rho = (tiny @ tiny.conj().T)[None]
    mixed = evolve_lindblad(build, 4.0, DecaySpec(0.1), space, rho, 0.0, 0.5)
    dense = _dense_lindblad(build, 4.0, DecaySpec(0.1), space, rho, 0.0, 0.5)
    assert np.max(np.abs(mixed.states - dense)) <= 1e-12


def _dense_q(basis):
    """The d^N x d^N matrix q of the basis' columns: each block's v on
    every (rows[p], cols[p]) of its patterns, zero elsewhere."""
    dim = sum(rows.size for _, rows, _ in basis.blocks)
    q = np.zeros((dim, dim))
    for v, rows, cols in basis.blocks:
        q[rows[:, :, None], cols[:, None, :]] = v
    return q


def test_lindblad_pairs_whose_blocks_have_different_centres():
    # a builder that adds 30 (2J + 1) to each block (a Casimir-like
    # shift, exactly block diagonal) moves the centre of every
    # off-diagonal pair's Hamiltonian part away from 0; the dense
    # oracle adds the same shift through q
    space = make_space(3, 2, 2)
    basis = coupled_basis(3, 2)
    q = _dense_q(basis)
    widths = np.concatenate([[g.width] * (g.stop - g.start) for g in basis.groups])
    shift = np.kron(q @ np.diag(30.0 * widths) @ q.T, np.eye(space.mode_dim))
    drive = partial(interaction_terms, space, DriveParams(g=1.0, delta=2.0, omega=5.0))

    def build(b):
        if b is None:
            return drive(None) + shift
        return drive(b) + 30.0 * b.shape[1] * np.eye(b.shape[1] * space.mode_dim)

    rng = np.random.default_rng(5)
    x = _random_columns(rng, space.dim, space.dim)
    rhos = (x @ x.conj().T)[None]
    decay = DecaySpec(kappa=0.3, nbar_bath=0.2)
    prop = evolve_lindblad(build, 2.0, decay, space, rhos, 1.0, 1.5)
    dense = _dense_lindblad(build, 2.0, decay, space, rhos, 1.0, 1.5)
    assert np.max(np.abs(prop.states - dense)) <= 1e-10


def test_lindblad_full_rank_stage_with_copies_takes_one_action_per_mirrored_pair(monkeypatch):
    # N = 3 qubits: spin 3/2 (one copy) and spin 1/2 (two copies), G = 2
    # groups, so a full-rank stack occupies G^2 = 4 pairs.  The two
    # diagonal pairs run on float64 columns (C^2 k: 1 and 4 per member),
    # and the pair of different spins once, complex, for itself and its
    # mirror: G (G + 1) / 2 = 3 actions
    space = make_space(3, 2, 2)
    build = partial(interaction_terms, space, DriveParams(g=1.0, delta=3.0, omega=6.0))
    decay = DecaySpec(0.3, 0.2)
    rng = np.random.default_rng(11)
    rhos = np.stack([weight * (x @ x.conj().T) for weight, x in
                     ((0.7, _random_columns(rng, space.dim, space.dim)),
                      (0.3, _random_columns(rng, space.dim, space.dim)))])
    dense = _dense_lindblad(build, 3.0, decay, space, rhos, 2.0, 2.4)
    actions = []
    action = dynamics.chebyshev_action

    def counted(a, b, *args):
        actions.append((str(a[2].dtype), b.shape[1]))
        return action(a, b, *args)

    monkeypatch.setattr(dynamics, "chebyshev_action", counted)
    prop = evolve_lindblad(build, 3.0, decay, space, rhos, 2.0, 2.4)
    assert sorted(actions) == [("complex128", 4), ("float64", 2), ("float64", 8)]
    assert np.max(np.abs(prop.states - dense)) <= 1e-10
    again = evolve_lindblad(build, 3.0, decay, space, rhos, 2.0, 2.4)
    assert again.states.tobytes() == prop.states.tobytes()
