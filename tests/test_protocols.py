"""Planner, engine, and measurement-branch checks.

The entangling targets are verified two ways: frozen analytic amplitudes
inside the planners, and (for a sample of cases) direct matrix
exponentiation of the generator, independent of the factored propagator.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from spincavity.algebra import (
    DensityMatrix,
    PhysicsError,
    StateVector,
    TruncationError,
    LEVEL_LABELS,
    basis_index,
    basis_state,
    collective_sx,
    embed_atom_op,
    local_proj,
    make_space,
    permutation_op,
)
from spincavity.analysis import extract_frequency, fidelity, leg_populations, trace_distance
from spincavity.dynamics import DecaySpec, ThermalSpec
from spincavity.hamiltonians import (
    DriveParams,
    FrameTag,
    h0_drive,
    h_effective,
    lambda_cavity,
    lambda_ion,
)
from spincavity.protocols import (
    ARCSIN_1_SQRT3,
    CollectiveDrive,
    Effective,
    FullCavity,
    FullIon,
    Lindblad,
    LocalTransfer,
    Measurement,
    PLANNERS,
    drive_population_series,
    plan_ghz_four_level,
    plan_ghz_three_level,
    plan_ghz_two_level,
    plan_measure_reduce,
    plan_two_atom_qutrit,
    plan_unitary,
    reduce_rotation_matrix,
    run_plan,
    sample_outcome,
    StageRecord,
    swap_ef_matrix,
    swap_gf_eh_matrix,
)

LAM = 0.025


# ------------------------------------------------------------------ planners


def test_qutrit_plan_timings():
    plan = plan_two_atom_qutrit(LAM, k=2, k_prime=1)
    t = plan.timings
    assert t.t1 == pytest.approx(24.619188346815492, rel=1e-12)
    assert t.t2 == pytest.approx(math.pi / (4.0 * LAM), rel=1e-12)
    # the drive rotation closes: omega t1 = k pi, omega' t2 = 2 k' pi
    assert t.omega * t.t1 == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert t.omega_prime * t.t2 == pytest.approx(2.0 * math.pi, rel=1e-12)
    # the first pulse puts sin^2(lam t1) = 1/3
    assert math.sin(LAM * t.t1) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_qutrit_plan_validations():
    with pytest.raises(ValueError):
        plan_two_atom_qutrit(LAM, k=3)  # odd
    with pytest.raises(ValueError):
        plan_two_atom_qutrit(LAM, k=0)
    with pytest.raises(ValueError):
        plan_two_atom_qutrit(LAM, k=2, k_prime=0)
    with pytest.raises(ValueError):
        plan_two_atom_qutrit(-LAM)


def test_qutrit_plan_auto_k_hierarchy():
    # with a detuning given, the chosen omega sits at least 10 |delta| up
    plan = plan_two_atom_qutrit(0.05, delta=10.0)
    assert plan.timings.k % 2 == 0
    assert plan.timings.omega >= 10.0 * 10.0
    assert plan.timings.omega_prime >= 10.0 * 10.0


def test_ghz_drive_closure_conditions():
    even = plan_ghz_two_level(4, LAM, n_choice=3)
    ratio = even.timings.omega * even.timings.t1 / math.pi
    assert ratio == pytest.approx(3.0, rel=1e-12)
    odd = plan_ghz_two_level(5, LAM, n_choice=2)
    ratio = odd.timings.omega * odd.timings.t1 / math.pi
    assert ratio == pytest.approx(2.0 * 2 + 0.75, rel=1e-12)


def test_ghz_auto_choice_hierarchy():
    for n_atoms in (4, 5):
        plan = plan_ghz_two_level(n_atoms, 0.05, delta=20.0)
        assert plan.timings.omega >= 10.0 * 20.0


def test_planner_validations():
    with pytest.raises(ValueError):
        plan_ghz_two_level(1, LAM)
    with pytest.raises(ValueError):
        plan_ghz_two_level(4, 0.0)
    with pytest.raises(ValueError):
        plan_ghz_three_level(3, LAM)
    with pytest.raises(ValueError):
        plan_measure_reduce(2, LAM)
    with pytest.raises(ValueError):
        plan_measure_reduce(5, LAM)
    with pytest.raises(ValueError):
        plan_ghz_four_level(3, LAM)


def test_planner_registry_names():
    assert set(PLANNERS) == {
        "two-atom-qutrit", "ghz", "ghz-three-level", "measure-reduce",
        "ghz-four-level",
    }
    for name, planner in PLANNERS.items():
        if name == "two-atom-qutrit":
            assert planner(LAM).name == name
        else:
            assert planner(4, LAM).name == name


# --------------------------------------------------------- stage validation


def test_transfer_matrices():
    swap = swap_ef_matrix(3)
    assert np.array_equal(swap @ np.array([0, 1, 0]), np.array([0, 0, 1]))
    assert np.array_equal(swap @ np.array([1, 0, 0]), np.array([1, 0, 0]))
    with pytest.raises(ValueError):
        swap_ef_matrix(2)
    both = swap_gf_eh_matrix(4)
    assert np.array_equal(both @ np.array([1, 0, 0, 0]), np.array([0, 0, 1, 0]))
    assert np.array_equal(both @ np.array([0, 1, 0, 0]), np.array([0, 0, 0, 1]))
    with pytest.raises(ValueError):
        swap_gf_eh_matrix(3)
    rot = reduce_rotation_matrix()
    assert np.max(np.abs(rot.conj().T @ rot - np.eye(3))) <= 1e-15
    assert rot[:, 0] == pytest.approx(
        [1 / math.sqrt(2), 1 / math.sqrt(10), -math.sqrt(2 / 5)], abs=1e-15
    )


def test_stage_validation():
    with pytest.raises(ValueError):
        LocalTransfer(np.array([[1.0, 1.0], [0.0, 1.0]]), "all")
    with pytest.raises(ValueError):
        Measurement(0, mode="peek")
    with pytest.raises(ValueError):
        Measurement(0, mode="postselect")
    with pytest.raises(ValueError):
        CollectiveDrive(DriveParams(omega=1.0), 0.0, None, LAM)


# ----------------------------------------------------- exact protocol runs


def test_two_atom_qutrit_exact():
    result = run_plan(plan_two_atom_qutrit(LAM))
    branch = result.branch("all")
    assert branch.probability == pytest.approx(1.0, abs=1e-12)
    assert result.branch_fidelity("all") == pytest.approx(1.0, abs=1e-10)


def test_qutrit_first_stage_populations():
    plan = plan_two_atom_qutrit(LAM)
    short = replace(plan, stages=plan.stages[:1])
    state = run_plan(short).branch("all").state
    pops = leg_populations(state, ["gg", "ee", "ge", "eg"])
    assert pops[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert pops[1] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert pops[2] == pytest.approx(0.0, abs=1e-10)
    assert pops[3] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n_atoms", [2, 3, 4, 5])
def test_ghz_two_level_exact(n_atoms):
    result = run_plan(plan_ghz_two_level(n_atoms, LAM))
    assert result.branch_fidelity("all") == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_atoms", [3, 4])
def test_ghz_target_from_direct_exponentiation(n_atoms):
    # independent oracle: exponentiate the full generator with expm
    # instead of the factored propagator, then compare amplitudes
    plan = plan_ghz_two_level(n_atoms, LAM)
    space = plan.space
    h = h_effective(space, LAM).matrix + h0_drive(space, plan.timings.omega).matrix
    psi = expm(-1j * plan.timings.t1 * h) @ basis_state(space, "g" * n_atoms).amplitudes
    assert np.max(np.abs(psi - plan.target.amplitudes)) <= 1e-10


@pytest.mark.parametrize("n_atoms", [2, 4])
def test_ghz_three_level_exact(n_atoms):
    result = run_plan(plan_ghz_three_level(n_atoms, LAM))
    assert result.branch_fidelity("all") == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_atoms", [2, 4])
def test_ghz_four_level_exact(n_atoms):
    plan = plan_ghz_four_level(n_atoms, LAM)
    result = run_plan(plan)
    assert result.branch_fidelity("all") == pytest.approx(1.0, abs=1e-10)
    legs = [lab * n_atoms for lab in "gefh"]
    assert leg_populations(plan.target, legs) == pytest.approx([0.25] * 4, abs=1e-12)


def test_four_level_target_relative_phase():
    plan = plan_ghz_four_level(4, LAM)
    amps = plan.target.amplitudes
    space = plan.space
    a_e = amps[basis_index(space, "eeee")]
    a_f = amps[basis_index(space, "ffff")]
    # the e and f legs sit at opposite phases
    assert a_e / a_f == pytest.approx(-1.0, abs=1e-12)


def test_three_level_target_structure():
    plan = plan_ghz_three_level(2, LAM)
    amps = plan.target.amplitudes
    space = plan.space
    assert abs(amps[basis_index(space, "gg")]) ** 2 == pytest.approx(0.25, abs=1e-12)
    assert abs(amps[basis_index(space, "ee")]) ** 2 == pytest.approx(0.25, abs=1e-12)
    assert abs(amps[basis_index(space, "ff")]) ** 2 == pytest.approx(0.5, abs=1e-12)


# --------------------------------------------------- measurement reduction


@pytest.mark.parametrize("n_atoms", [4, 6])
def test_measure_reduce_branch_probabilities(n_atoms):
    result = run_plan(plan_measure_reduce(n_atoms, LAM))
    probs = {b.label: b.probability for b in result.branches}
    assert set(probs) == {"g", "e", "f"}
    assert probs["g"] == pytest.approx(0.25, abs=1e-9)
    assert probs["e"] == pytest.approx(0.45, abs=1e-9)
    assert probs["f"] == pytest.approx(0.3, abs=1e-9)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
    assert result.branch_fidelity("f") == pytest.approx(1.0, abs=1e-10)


def test_measure_reduce_f_branch_is_three_leg():
    result = run_plan(plan_measure_reduce(4, LAM))
    state = result.branch("f").state
    legs = ["gggf", "eeef", "ffff"]
    assert leg_populations(state, legs) == pytest.approx([1 / 3] * 3, abs=1e-10)


def test_measure_reduce_postselect_mode():
    plan = plan_measure_reduce(4, LAM)
    post = replace(
        plan, stages=plan.stages[:-1] + (Measurement(3, "postselect", outcome=2),)
    )
    result = run_plan(post)
    assert len(result.branches) == 1
    branch = result.branches[0]
    assert branch.label == "f"
    assert branch.probability == pytest.approx(0.3, abs=1e-9)
    assert result.fidelities[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("stage, message", [
    (Measurement(3, "postselect", outcome=3), "measured level 3 outside 0..2"),
    (Measurement(3, "postselect", outcome=-1), "measured level -1 outside 0..2"),
    (Measurement(4), "atom index 4 outside 0..3"),
    (Measurement(-1), "atom index -1 outside 0..3"),
])
def test_measurement_outside_the_space_is_rejected(stage, message):
    # these used to give zero-probability branches (one labelled with a
    # level the atoms do not have) or an IndexError
    plan = plan_measure_reduce(4, LAM)
    with pytest.raises(ValueError, match=message):
        run_plan(replace(plan, stages=plan.stages[:-1] + (stage,)))


def test_measure_reduce_permutation_symmetry():
    # the heralded state treats the unmeasured atoms symmetrically
    plan = plan_measure_reduce(4, LAM)
    state = run_plan(plan).branch("f").state
    perm = permutation_op(plan.space, (2, 0, 1, 3)).matrix
    permuted = StateVector(plan.space, perm @ state.amplitudes)
    assert fidelity(permuted, plan.target) == pytest.approx(1.0, abs=1e-10)


def test_sample_outcome_deterministic_and_weighted():
    result = run_plan(plan_measure_reduce(4, LAM))
    assert sample_outcome(result, seed=7) == sample_outcome(result, seed=7)
    draws = [sample_outcome(result, seed=s) for s in range(300)]
    freq_f = draws.count("f") / len(draws)
    assert abs(freq_f - 0.3) < 0.08


def test_sample_outcome_with_no_possible_outcome_is_a_physics_error():
    # postselecting |e> on the untouched |gg> start leaves one branch of
    # probability 0; there is nothing to draw
    plan = replace(plan_ghz_two_level(2, LAM), stages=(Measurement(0, "postselect", 1),))
    result = run_plan(plan)
    assert [b.probability for b in result.branches] == [0.0]
    with pytest.raises(PhysicsError, match="probability 0"):
        sample_outcome(result, seed=0)


# ------------------------------------------------------------ plan algebra


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_plan_unitary_is_unitary(name):
    planner = PLANNERS[name]
    plan = planner(LAM) if name == "two-atom-qutrit" else planner(4, LAM)
    u = plan_unitary(plan).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10


def test_plan_unitary_matches_run():
    plan = plan_two_atom_qutrit(LAM)
    u = plan_unitary(plan).matrix
    expected = u @ basis_state(plan.space, "gg").amplitudes
    state = run_plan(plan).branch("all").state
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def _dense_eigh_propagator(space, lam, omega, t):
    """Reference Effective drive: one dense eigh of the collective S_x
    and (V * phases) @ V^dag on the atoms-only space."""
    w, v = eigh(collective_sx(space).matrix)
    return (v * np.exp(-1j * (2.0 * omega * w + 2.0 * lam * w * w) * t)) @ v.conj().T


def _dense_branches(plan):
    """Weighted branch amplitudes of a plan from the all-|g> start, with
    dense drive unitaries and embedded transfer and projector matrices."""
    space = plan.space
    branches = [("", basis_state(space, "g" * space.atom_count).amplitudes)]
    for stage in plan.stages:
        if isinstance(stage, CollectiveDrive):
            u = _dense_eigh_propagator(space, stage.lam, stage.params.omega, stage.duration)
            branches = [(label, u @ x) for label, x in branches]
        elif isinstance(stage, LocalTransfer):
            atoms = range(space.atom_count) if stage.atoms == "all" else [stage.atoms]
            for j in atoms:
                m = embed_atom_op(space, j, stage.matrix).matrix
                branches = [(label, m @ x) for label, x in branches]
        else:
            d = space.atom_dim
            outcomes = range(d) if stage.mode == "enumerate" else [stage.outcome]
            branches = [(label + LEVEL_LABELS[o],
                         embed_atom_op(space, stage.atom_index, local_proj(d, o)).matrix @ x)
                        for label, x in branches for o in outcomes]
    return branches


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_effective_run_matches_dense_eigh_construction(name):
    # at the planners' own drive (2 omega t of a few pi); a drive phase of
    # order 1e3 rad would amplify the eigh eigenvalues' rounding to ~1e-11
    planner = PLANNERS[name]
    plan = planner(LAM) if name == "two-atom-qutrit" else planner(4, LAM)
    result = run_plan(plan, engine=Effective())
    expected = _dense_branches(plan)
    assert [b.label for b in result.branches] == [label or "all" for label, _ in expected]
    for branch, (_, x) in zip(result.branches, expected):
        got = (np.zeros_like(x) if branch.state is None
               else math.sqrt(branch.probability) * branch.state.amplitudes)
        assert np.max(np.abs(got - x)) <= 1e-12


def test_effective_engine_ignores_attached_mode():
    # a Fock factor rides along untouched: same fidelity, mode unmoved
    plan = plan_two_atom_qutrit(LAM)
    space = plan.space.with_mode(3)
    mode = np.zeros(space.mode_dim, dtype=complex)
    mode[2] = 1.0
    initial = StateVector(
        space, np.kron(basis_state(plan.space, "gg").amplitudes, mode)
    )
    result = run_plan(plan, initial=initial)
    assert result.branch_fidelity("all") == pytest.approx(1.0, abs=1e-13)
    final = result.branch("all").state
    block = final.amplitudes.reshape(space.atoms_dim, space.mode_dim)
    assert np.sum(np.abs(block[:, 2]) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_run_plan_rejects_wrong_initial_type():
    plan = plan_ghz_two_level(2, LAM)
    with pytest.raises(TypeError):
        run_plan(plan, initial=np.zeros(4))


@pytest.mark.parametrize("space", [make_space(3, 2, 0, no_mode=True), make_space(2, 3, 4)],
                         ids=["three-atoms", "qutrits-with-mode"])
def test_run_plan_rejects_initial_of_other_atoms(space):
    # a start whose atoms differ from the plan's is named, not left to a
    # shape error deep in the first stage
    plan = plan_ghz_two_level(2, LAM)
    with pytest.raises(ValueError, match="atoms do not match"):
        run_plan(plan, initial=basis_state(space, "g" * space.atom_count))
    with pytest.raises(ValueError, match="atoms do not match"):
        run_plan(plan, initial=basis_state(space, "g" * space.atom_count),
                 engine=FullCavity(params=_cavity_params(), fock_cutoff=4))


# ------------------------------------------------------------ full engines


def _cavity_params(omega=0.0):
    return DriveParams(g=1.0, delta=10.0, omega=omega)


def test_engine_plan_rate_mismatch_rejected():
    # engine parameters imply lam = 0.05; the plan was built for 0.025
    plan = plan_ghz_two_level(2, 0.025)
    engine = FullCavity(params=_cavity_params(), fock_cutoff=4)
    with pytest.raises(ValueError):
        run_plan(plan, engine=engine)


def _mode_engine(kind, **kwargs):
    """A mode-attached engine of each kind with its own effective rate."""
    if kind is FullIon:
        params = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=math.pi / 2.0,
                             lamb_dicke_order=2)
        return FullIon(params=params, **kwargs)
    if kind is Lindblad:
        return Lindblad(params=_cavity_params(), decay=DecaySpec(kappa=0.0), **kwargs)
    return FullCavity(params=_cavity_params(), **kwargs)


@pytest.mark.parametrize("kind", [FullCavity, FullIon, Lindblad])
@pytest.mark.parametrize("initial_mode", [-1, 7, 10, ThermalSpec.for_nbar(1.0)],
                         ids=["below", "above", "far-above", "thermal-over-cutoff"])
def test_mode_engine_initial_mode_validation(kind, initial_mode):
    # a Fock level outside 0..fock_cutoff, or a thermal preparation with
    # more levels than the engine keeps, is refused before any stage runs
    engine = _mode_engine(kind, fock_cutoff=6, initial_mode=initial_mode)
    plan = plan_ghz_two_level(2, engine.lam(), delta=engine.params.delta)
    with pytest.raises(ValueError):
        run_plan(plan, engine=engine)


def test_lindblad_accepts_full_space_initial():
    # |gg, 1> given as a full-space StateVector is the Fock-1 preparation
    engine = _mode_engine(Lindblad, fock_cutoff=6)
    plan = plan_ghz_two_level(2, engine.lam(), delta=10.0)
    given = run_plan(plan, engine=engine,
                     initial=basis_state(plan.space.with_mode(6), "gg", 1))
    prepared = run_plan(plan, engine=replace(engine, initial_mode=1))
    assert given.fidelities == prepared.fidelities
    assert given.branch("all").probability == prepared.branch("all").probability
    with pytest.raises(TypeError, match="StateVector, a full-space DensityMatrix, or None"):
        run_plan(plan, engine=engine, initial=np.zeros(4))


def _zero_decay_oracle_cases():
    lam = lambda_cavity(1.0, 4.1)
    base = plan_ghz_two_level(2, lam, delta=4.1)
    ghz = replace(base, stages=base.stages + (Measurement(0),))
    atoms = np.zeros(ghz.space.dim, dtype=complex)
    atoms[basis_index(ghz.space, "gg")] = math.sqrt(0.7)
    atoms[basis_index(ghz.space, "ee")] = 1j * math.sqrt(0.3)
    superposition = StateVector(ghz.space, atoms)
    # criterion 9's qutrit point: delta = 4.1 g leaks out of cutoff 5
    qutrit = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    return [
        pytest.param(ghz, 4.1, 8, 0, None, id="ghz-fock0"),
        pytest.param(ghz, 4.1, 8, 1, None, id="ghz-fock1"),
        pytest.param(ghz, 4.1, 8, ThermalSpec.for_nbar(0.05), None, id="ghz-thermal"),
        pytest.param(ghz, 4.1, 8, 0, superposition, id="ghz-superposition"),
        pytest.param(qutrit, 10.0, 5, 0, None, id="qutrit-transfer"),
    ]


@pytest.mark.parametrize("plan, delta, cutoff, initial_mode, initial",
                         _zero_decay_oracle_cases())
def test_zero_decay_lindblad_matches_full_cavity(plan, delta, cutoff, initial_mode, initial):
    # without decay the density-matrix engine is the pure engine: every
    # branch (measurement outcomes, thermal and superposition starts,
    # transfers) agrees in label, probability, fidelity and state
    params = DriveParams(g=1.0, delta=delta)
    pure = run_plan(plan, initial=initial, engine=FullCavity(
        params=params, fock_cutoff=cutoff, initial_mode=initial_mode))
    mixed = run_plan(plan, initial=initial, engine=Lindblad(
        params=params, decay=DecaySpec(kappa=0.0), fock_cutoff=cutoff,
        initial_mode=initial_mode))
    assert [b.label for b in mixed.branches] == [b.label for b in pure.branches]
    for a, b, fa, fb in zip(pure.branches, mixed.branches, pure.fidelities, mixed.fidelities):
        assert abs(a.probability - b.probability) <= 1e-10
        assert abs(fa - fb) <= 1e-10
        assert trace_distance(a.state, b.state) <= 1e-10


def test_full_cavity_ghz_close_to_target():
    lam = lambda_cavity(1.0, 10.0)  # 0.05
    plan = plan_ghz_two_level(2, lam, delta=10.0)
    engine = FullCavity(params=_cavity_params(), fock_cutoff=6)
    result = run_plan(plan, engine=engine)
    assert result.branch("all").probability == pytest.approx(1.0, abs=1e-9)
    assert result.branch_fidelity("all") >= 0.95


def test_lindblad_zero_decay_close_to_target():
    lam = lambda_cavity(1.0, 10.0)
    plan = plan_ghz_two_level(2, lam, delta=10.0)
    engine = Lindblad(params=_cavity_params(), decay=DecaySpec(kappa=0.0),
                      fock_cutoff=4)
    result = run_plan(plan, engine=engine)
    assert result.branch("all").probability == pytest.approx(1.0, abs=1e-8)
    assert result.branch_fidelity("all") >= 0.95
    (record,) = result.diagnostics["stages"]
    assert (record.engine, record.frame, record.dim, record.method) == (
        "Lindblad", "interaction_picture", 20 ** 2, "chebyshev")
    assert 0.0 <= record.leak < 1e-6
    assert 0.0 <= record.drift <= 1e-10


def test_stage_records_one_per_drive_stage():
    # one record per drive stage, naming how it was propagated; records
    # carry no wall times
    assert list(StageRecord.__dataclass_fields__) == [
        "engine", "frame", "dim", "method", "leak", "drift"]
    plan = plan_measure_reduce(4, LAM)
    records = run_plan(plan).diagnostics["stages"]
    assert [(r.engine, r.frame, r.dim, r.method, r.leak) for r in records] == [
        ("Effective", "effective", 81, "factored", None)] * 2
    assert all(r.drift <= 1e-12 for r in records)

    cavity = FullCavity(params=_cavity_params(), fock_cutoff=6,
                        frame=FrameTag.SLOW_FRAME)
    records = run_plan(plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0),
                       engine=cavity).diagnostics["stages"]
    assert [(r.engine, r.frame, r.dim, r.method) for r in records] == [
        ("FullCavity", "slow_frame", 63, "eigh")] * 2
    assert all(0.0 <= r.leak < 1e-6 and r.drift <= 1e-12 for r in records)

    ion_params = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=math.pi / 2.0,
                             lamb_dicke_order=2)
    ion = FullIon(params=ion_params, fock_cutoff=6)
    (record,) = run_plan(plan_ghz_two_level(2, lambda_ion(1.0, 0.05, 2.0), delta=2.0),
                         engine=ion).diagnostics["stages"]
    assert (record.engine, record.frame, record.dim, record.method) == (
        "FullIon", "ion_interaction", 28, "eigh")


def test_full_cavity_thermal_start_is_the_weighted_mixture():
    # the thermal run equals the Bose-Einstein average of the Fock runs
    lam = lambda_cavity(1.0, 10.0)
    plan = plan_ghz_two_level(2, lam, delta=10.0)
    spec = ThermalSpec.for_nbar(0.1)
    thermal = run_plan(plan, engine=FullCavity(params=_cavity_params(), fock_cutoff=18,
                                               initial_mode=spec))
    probs = spec.probabilities()
    fids = [run_plan(plan, engine=FullCavity(params=_cavity_params(), fock_cutoff=18,
                                             initial_mode=n)).branch_fidelity("all")
            for n in range(spec.cutoff + 1)]
    branch = thermal.branch("all")
    assert isinstance(branch.state, DensityMatrix)
    assert branch.probability == pytest.approx(probs.sum(), abs=1e-12)
    assert thermal.branch_fidelity("all") == pytest.approx(
        np.dot(probs, fids) / probs.sum(), abs=1e-12)


def test_full_cavity_thermal_mixture_that_leaks_raises():
    # near resonance the heavy vacuum column itself reaches the top Fock
    # levels, so the weighted mixture leaks
    plan = plan_ghz_two_level(2, lambda_cavity(1.0, 1.2), delta=1.2)
    engine = FullCavity(params=DriveParams(g=1.0, delta=1.2), fock_cutoff=5,
                        initial_mode=ThermalSpec.for_nbar(0.01))
    with pytest.raises(TruncationError):
        run_plan(plan, engine=engine)


# ------------------------------------------------------ population series


def test_drive_population_series_frequency():
    # the co-rotating doubly-excited population oscillates at 2 lam;
    # omega must sit far above delta so the sidebands stay fast
    params = DriveParams(g=1.0, delta=5.0, omega=25.0)
    lam = lambda_cavity(params.g, params.delta)
    series = drive_population_series(params, n_start=0, duration=65.0,
                                     sample_count=700, fock_cutoff=8)
    est = extract_frequency(series)
    assert abs(est - 2.0 * lam) / (2.0 * lam) <= 0.02
