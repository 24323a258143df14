"""Metric and signal-extraction checks."""

import math

import numpy as np
import pytest

from spincavity.algebra import (
    DensityMatrix,
    StateVector,
    basis_index,
    basis_state,
    embed_atom_op,
    make_space,
)
from spincavity.analysis import (
    TimeSeries,
    extract_frequency,
    fidelity,
    leg_populations,
    reduce_to_atoms,
    trace_distance,
)


def _pure_dm(state):
    return DensityMatrix(state.space, np.outer(state.amplitudes, state.amplitudes.conj()))


# ------------------------------------------------------------------ fidelity


def test_fidelity_identical_and_orthogonal():
    space = make_space(2, 2, 0, no_mode=True)
    gg = basis_state(space, "gg")
    ee = basis_state(space, "ee")
    assert fidelity(gg, gg) == 1.0
    assert fidelity(gg, ee) == 0.0


def test_fidelity_global_phase_invariant():
    space = make_space(1, 3, 0, no_mode=True)
    psi = StateVector(space, np.array([1.0, 1.0j, -1.0]) / math.sqrt(3.0))
    rotated = StateVector(space, np.exp(1j * 0.7) * psi.amplitudes)
    assert fidelity(rotated, psi) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_pure_overlap_value():
    space = make_space(1, 2, 0, no_mode=True)
    a = StateVector(space, np.array([math.cos(0.3), math.sin(0.3)]))
    b = basis_state(space, "g")
    assert fidelity(a, b) == pytest.approx(math.cos(0.3) ** 2, abs=1e-14)
    assert fidelity(a, b) == fidelity(b, a)


def test_fidelity_mixed_state():
    space = make_space(1, 2, 0, no_mode=True)
    rho = DensityMatrix(space, np.diag([0.75, 0.25]).astype(complex))
    assert fidelity(rho, basis_state(space, "g")) == pytest.approx(0.75, abs=1e-14)


def test_fidelity_dimension_mismatch():
    a = basis_state(make_space(1, 2, 0, no_mode=True), "g")
    b = basis_state(make_space(1, 3, 0, no_mode=True), "g")
    with pytest.raises(ValueError):
        fidelity(a, b)


# ------------------------------------------------------------ trace_distance


def test_trace_distance_extremes():
    space = make_space(1, 2, 0, no_mode=True)
    g = basis_state(space, "g")
    e = basis_state(space, "e")
    assert trace_distance(g, g) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(g, e) == pytest.approx(1.0, abs=1e-14)


def test_trace_distance_pure_vs_maximally_mixed():
    space = make_space(1, 2, 0, no_mode=True)
    g = basis_state(space, "g")
    mixed = DensityMatrix(space, 0.5 * np.eye(2, dtype=complex))
    assert trace_distance(g, mixed) == pytest.approx(0.5, abs=1e-14)


def test_trace_distance_shape_mismatch():
    a = basis_state(make_space(1, 2, 0, no_mode=True), "g")
    b = basis_state(make_space(1, 3, 0, no_mode=True), "g")
    with pytest.raises(ValueError):
        trace_distance(a, b)


# ----------------------------------------------------------- reduce_to_atoms


def test_reduce_product_state():
    space = make_space(2, 2, 3)
    psi = basis_state(space, "ge", 2)
    rho = reduce_to_atoms(psi, space)
    atoms = space.atoms_only()
    expected = np.zeros((atoms.dim, atoms.dim), dtype=complex)
    idx = basis_index(atoms, "ge", 0)
    expected[idx, idx] = 1.0
    assert np.allclose(rho.matrix, expected, atol=1e-14)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_reduce_entangled_state_is_mixed():
    # (|g,0> + |e,1>)/sqrt(2) traces to the maximally mixed atom
    space = make_space(1, 2, 1)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "g", 0)] = 1.0 / math.sqrt(2.0)
    amps[basis_index(space, "e", 1)] = 1.0 / math.sqrt(2.0)
    rho = reduce_to_atoms(StateVector(space, amps), space)
    assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(0.5, abs=1e-12)


def test_reduce_commutes_with_atomic_unitaries():
    space = make_space(2, 2, 2)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi = StateVector(space, amps / np.linalg.norm(amps))
    theta = 0.6
    local = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
    u_full = embed_atom_op(space, 0, local).matrix
    rotated = StateVector(space, u_full @ psi.amplitudes)
    atoms = space.atoms_only()
    u_atoms = embed_atom_op(atoms, 0, local).matrix
    lhs = reduce_to_atoms(rotated, space).matrix
    rhs = u_atoms @ reduce_to_atoms(psi, space).matrix @ u_atoms.conj().T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_reduce_accepts_density_matrix_and_array():
    space = make_space(1, 2, 2)
    psi = basis_state(space, "e", 1)
    dm = _pure_dm(psi)
    from_dm = reduce_to_atoms(dm, space).matrix
    from_arr = reduce_to_atoms(dm.matrix, space).matrix
    assert np.allclose(from_dm, from_arr, atol=1e-14)
    assert from_dm[1, 1].real == pytest.approx(1.0, abs=1e-14)


def test_reduce_rejects_no_mode_space():
    space = make_space(2, 2, 0, no_mode=True)
    with pytest.raises(ValueError):
        reduce_to_atoms(basis_state(space, "gg"), space)


# ---------------------------------------------------------- leg_populations


def test_leg_populations_superposition():
    space = make_space(2, 2, 0, no_mode=True)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "gg")] = math.sqrt(2.0 / 3.0)
    amps[basis_index(space, "ee")] = -1j * math.sqrt(1.0 / 3.0)
    psi = StateVector(space, amps)
    pops = leg_populations(psi, ["gg", "ee", "ge"])
    assert pops == pytest.approx([2.0 / 3.0, 1.0 / 3.0, 0.0], abs=1e-14)


def test_leg_populations_sum_over_mode():
    # the same atomic leg split across Fock levels aggregates
    space = make_space(1, 2, 2)
    amps = np.zeros(space.dim, dtype=complex)
    amps[basis_index(space, "e", 0)] = 0.6
    amps[basis_index(space, "e", 2)] = 0.8
    psi = StateVector(space, amps)
    pops = leg_populations(psi, ["e", "g"])
    assert pops == pytest.approx([1.0, 0.0], abs=1e-14)


def test_leg_populations_density_matrix():
    space = make_space(1, 2, 1)
    rho = DensityMatrix(space, np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex))
    pops = leg_populations(rho, ["g", "e"])
    assert pops == pytest.approx([0.5, 0.5], abs=1e-14)


# -------------------------------------------------------------- TimeSeries


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4))
    with pytest.raises(ValueError):
        TimeSeries(np.linspace(0, 1, 5), np.zeros(4))


# --------------------------------------------------------- extract_frequency


def test_extract_frequency_clean_sinusoid():
    t = np.linspace(0.0, 500.0, 1200)
    omega = 0.05
    series = TimeSeries(t, np.cos(omega * t))
    est = extract_frequency(series)
    assert abs(est - omega) / omega <= 1e-3


def test_extract_frequency_scale_offset_phase_invariant():
    t = np.linspace(0.0, 400.0, 900)
    omega = 0.08
    series = TimeSeries(t, 5.0 + 3.0 * np.cos(omega * t + 1.1))
    est = extract_frequency(series)
    assert abs(est - omega) / omega <= 1e-3


def test_extract_frequency_population_signal():
    # sin^2(lam t) oscillates at 2 lam; this is the shape the dispersive
    # engine produces for the doubly-excited population
    lam = 0.025
    t = np.linspace(0.0, 260.0, 1000)
    series = TimeSeries(t, np.sin(lam * t) ** 2)
    est = extract_frequency(series)
    assert abs(est - 2.0 * lam) / (2.0 * lam) <= 1e-3


def test_extract_frequency_non_uniform_times():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 300.0, 800)
    t[1:-1] += rng.uniform(-0.05, 0.05, size=len(t) - 2) * (t[1] - t[0])
    omega = 0.07
    series = TimeSeries(t, np.cos(omega * t))
    est = extract_frequency(series)
    assert abs(est - omega) / omega <= 1e-2


def test_extract_frequency_refuses_non_uniform_times():
    # the periodogram needs near-uniform steps: a longest step beyond 1.5
    # times the shortest is refused, not resampled
    t = np.concatenate([np.linspace(0.0, 150.0, 400), np.linspace(151.0, 300.0, 100)])
    with pytest.raises(ValueError, match="near-uniform sampling"):
        extract_frequency(TimeSeries(t, np.cos(0.07 * t)))


def test_extract_frequency_flat_signal_raises():
    t = np.linspace(0.0, 100.0, 200)
    with pytest.raises(ValueError):
        extract_frequency(TimeSeries(t, np.full_like(t, 2.5)))


def test_extract_frequency_needs_two_periods():
    t = np.linspace(0.0, 100.0, 400)
    omega = 0.06  # covers less than one period over the window
    with pytest.raises(ValueError):
        extract_frequency(TimeSeries(t, np.cos(omega * t)))
