"""Planner, engine, and measurement-branch checks.

The entangling targets are verified two ways: frozen analytic amplitudes
inside the planners, and (for a sample of cases) direct matrix
exponentiation of the generator, independent of the factored propagator.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from spincavity import dynamics, hamiltonians, protocols
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
    plan = plan_two_atom_qutrit(LAM, k=2)
    t = plan.timings
    assert (t.k, t.k_prime) == (2, 1)
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


@pytest.mark.parametrize("n_atoms, n_choice, wording", [
    (4, 0, "n_choice must be a positive integer"), (5, -1, "n_choice must be non-negative")])
def test_ghz_drive_refuses_an_index_below_its_parity_floor(n_atoms, n_choice, wording):
    # even N needs n >= 1 (omega t = n pi); odd N takes n = 0 ((2n + 3/4) pi)
    with pytest.raises(ValueError, match=wording):
        plan_ghz_two_level(n_atoms, LAM, n_choice=n_choice)
    assert plan_ghz_two_level(n_atoms, LAM, n_choice=n_choice + 1).timings.k == n_choice + 1


def _closes_at_or_above(omega, lower_omega, index, floor, delta):
    """omega reaches 10 |delta| (to 1e-12 relative) and the next smaller
    index's lower_omega falls below it, unless index is the floor."""
    bound = 10.0 * abs(delta)
    return (omega >= bound * (1.0 - 1e-12)
            and (index == floor or lower_omega < bound * (1.0 + 1e-12)))


def test_drive_index_rule_is_the_smallest_closing_index():
    # one rule picks every drive index: the smallest n >= 1 whose omega
    # sits at or above 10 |delta|, over random lam and delta
    rng = np.random.default_rng(29)
    for lam, delta in zip(10.0 ** rng.uniform(-3, 0, 300),
                          rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-2, 3, 300)):
        t = plan_two_atom_qutrit(lam, delta=delta).timings
        assert t.k % 2 == 0
        assert _closes_at_or_above(t.omega, (t.k - 2) * math.pi / t.t1, t.k, 2, delta)
        assert _closes_at_or_above(t.omega_prime, 2.0 * (t.k_prime - 1) * math.pi / t.t2,
                                   t.k_prime, 1, delta)
        even = plan_ghz_two_level(4, lam, delta=delta).timings
        assert _closes_at_or_above(even.omega, (even.k - 1) * math.pi / even.t1, even.k, 1, delta)
        odd = plan_ghz_two_level(5, lam, delta=delta).timings
        assert _closes_at_or_above(odd.omega, (2.0 * (odd.k - 1) + 0.75) * math.pi / odd.t1,
                                   odd.k, 1, delta)


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
    with pytest.raises(ValueError, match="not unitary: deviation nan"):
        LocalTransfer(np.array([[math.nan, 0.0], [0.0, 1.0]]), "all")
    with pytest.raises(ValueError):
        Measurement(0, mode="peek")
    with pytest.raises(ValueError):
        Measurement(0, mode="postselect")
    with pytest.raises(ValueError):
        CollectiveDrive(1.0, 0.0, LAM)
    for omega in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="omega"):
            CollectiveDrive(omega, 1.0, LAM)
    # a nan or inf lam once ran on the Effective engine to probability
    # nan, fidelity 1.0 and drift nan
    for lam in (0.0, -LAM, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            CollectiveDrive(1.0, 1.0, lam)
    # an engine refuses a frame of the other system when it is built,
    # not when a stage runs
    cavity, ion = DriveParams(g=1.0, delta=10.0), DriveParams(omega=1.0, delta=2.0, eta=0.05)
    for frame in (FrameTag.ION_INTERACTION, FrameTag.ION_LAMB_DICKE):
        with pytest.raises(ValueError, match="FullCavity cannot run frame"):
            FullCavity(cavity, frame=frame)
    for frame in (FrameTag.INTERACTION_PICTURE, FrameTag.SLOW_FRAME):
        with pytest.raises(ValueError, match="FullIon cannot run frame"):
            FullIon(ion, frame=frame)


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
    # atom i of the permuted state takes the level of atom (2, 0, 1, 3)[i]
    amps = state.amplitudes.reshape((3,) * 4).transpose(2, 0, 1, 3).ravel()
    permuted = StateVector(plan.space, amps)
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
            u = _dense_eigh_propagator(space, stage.lam, stage.omega, stage.duration)
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


def test_run_plan_rejects_an_unknown_stage():
    plan = plan_ghz_two_level(2, LAM)
    with pytest.raises(TypeError, match="unknown stage 'pause'"):
        run_plan(replace(plan, stages=plan.stages + ("pause",)))


def test_run_plan_rejects_a_full_space_start_at_another_cutoff():
    plan = plan_ghz_two_level(2, LAM)
    initial = basis_state(plan.space.with_mode(4), "gg", 0)
    with pytest.raises(ValueError, match="does not match the engine's space"):
        run_plan(plan, initial=initial, engine=FullCavity(params=_cavity_params(), fock_cutoff=6))


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
    # more levels than the engine keeps, is refused when the engine is built
    with pytest.raises(ValueError, match="not all within the engine's Fock levels 0..6"):
        _mode_engine(kind, fock_cutoff=6, initial_mode=initial_mode)


@pytest.mark.parametrize("kind", [FullCavity, FullIon, Lindblad])
@pytest.mark.parametrize("fields, error, wording", [
    ({"fock_cutoff": 2.5}, TypeError, "fock_cutoff must be an integer, got 2.5"),
    ({"fock_cutoff": -1}, ValueError, "fock_cutoff must be non-negative"),
    ({"initial_mode": 1.5}, TypeError, "initial_mode must be an integer, got 1.5"),
    ({"initial_mode": "1"}, TypeError, "initial_mode must be an integer"),
], ids=["fractional-cutoff", "negative-cutoff", "fractional-mode", "text-mode"])
def test_mode_engine_refuses_its_mode_when_built(kind, fields, error, wording):
    with pytest.raises(error, match=wording):
        _mode_engine(kind, **fields)


@pytest.mark.parametrize("kind", [FullCavity, FullIon, Lindblad])
def test_mode_engine_accepts_integer_levels_of_any_integer_type(kind):
    engine = _mode_engine(kind, fock_cutoff=np.int64(8), initial_mode=np.int32(2))
    plan = plan_ghz_two_level(2, engine.lam(), delta=engine.params.delta)
    expected = run_plan(plan, engine=_mode_engine(kind, fock_cutoff=8, initial_mode=2))
    assert run_plan(plan, engine=engine).fidelities == expected.fidelities


@pytest.mark.parametrize("make, error, wording", [
    (lambda: Measurement(3.5), TypeError, "atom_index must be an integer, got 3.5"),
    (lambda: Measurement(0, "postselect", 1.5), TypeError, "outcome must be an integer, got 1.5"),
    (lambda: LocalTransfer(np.eye(3), atoms=2.7), TypeError, "atoms must be an integer, got 2.7"),
    (lambda: LocalTransfer(np.eye(3), atoms="some"), TypeError, "atoms must be an integer"),
    (lambda: LocalTransfer(np.eye(3)[:2], "all"), ValueError, r"square, got shape \(2, 3\)"),
    (lambda: LocalTransfer(np.ones(3), "all"), ValueError, r"must be square, got shape \(3,\)"),
], ids=["fractional-measured-atom", "fractional-outcome", "fractional-transfer-atom",
        "text-transfer-atom", "wide-transfer", "vector-transfer"])
def test_stages_refuse_non_integer_atoms_and_non_square_transfers(make, error, wording):
    with pytest.raises(error, match=wording):
        make()


def test_stages_take_numpy_integer_atoms():
    plan = plan_measure_reduce(4, LAM)
    *head, rotation, _ = plan.stages
    numpy_atoms = replace(plan, stages=tuple(head) + (
        LocalTransfer(rotation.matrix, np.int64(3)), Measurement(np.int64(3))))
    assert run_plan(numpy_atoms).fidelities == run_plan(plan).fidelities


def test_postselected_outcome_is_a_level_not_a_mask():
    # a bool outcome is level 1; as a numpy index it would have set the
    # whole projector to ones and reported probability 2
    plan = plan_ghz_two_level(2, LAM)
    flag = Measurement(0, "postselect", True)
    assert type(flag.outcome) is int
    result = run_plan(replace(plan, stages=plan.stages + (flag,)))
    assert result.branch("e").probability == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind, frame", [
    (FullCavity, FrameTag.INTERACTION_PICTURE), (FullCavity, FrameTag.SLOW_FRAME),
    (FullIon, FrameTag.ION_INTERACTION), (FullIon, FrameTag.ION_LAMB_DICKE), (Lindblad, None)])
def test_drive_stages_build_no_dense_collective(monkeypatch, kind, frame):
    # each occupied block takes its S+ from the closed-form spin-J ladder,
    # so no stage builds the d^N x d^N atoms-only collective
    engine = _mode_engine(kind, fock_cutoff=6)
    if frame is not None:
        engine = replace(engine, frame=frame)
    plan = plan_ghz_two_level(2, engine.lam(), delta=engine.params.delta)
    expected = run_plan(plan, engine=engine)

    def refuse(*args):
        raise AssertionError("a drive stage built the dense collective")

    monkeypatch.setattr(hamiltonians, "_collective", refuse)
    result = run_plan(plan, engine=engine)
    assert result.fidelities == expected.fidelities and result.fidelities[0] > 0.9


def test_lindblad_accepts_full_space_initial():
    # |gg, 1> given as a full-space StateVector is the Fock-1 preparation
    engine = _mode_engine(Lindblad, fock_cutoff=6)
    plan = plan_ghz_two_level(2, engine.lam(), delta=10.0)
    given = run_plan(plan, engine=engine,
                     initial=basis_state(plan.space.with_mode(6), "gg", 1))
    prepared = run_plan(plan, engine=replace(engine, initial_mode=1))
    assert given.fidelities == prepared.fidelities
    assert given.branch("all").probability == prepared.branch("all").probability
    with pytest.raises(TypeError, match="full-space StateVector or None"):
        run_plan(plan, engine=engine, initial=np.zeros(4))
    # a density matrix is not a start for any engine
    start = basis_state(plan.space.with_mode(6), "gg", 1).amplitudes
    rho = DensityMatrix(plan.space.with_mode(6), np.outer(start, start.conj()))
    with pytest.raises(TypeError, match="full-space StateVector or None"):
        run_plan(plan, engine=engine, initial=rho)


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
    # dim is the largest Liouville-space block: the spin-1 multiplet of
    # the two atoms times the 5 Fock levels, on both sides
    (record,) = result.diagnostics["stages"]
    assert (record.engine, record.frame, record.dim, record.method) == (
        "Lindblad", "interaction_picture", 15 ** 2, "chebyshev")
    assert 0.0 <= record.leak < 1e-6
    assert 0.0 <= record.drift <= 1e-10


def test_stage_records_one_per_drive_stage():
    # one record per drive stage, naming how it was propagated; records
    # carry no wall times
    assert list(StageRecord.__dataclass_fields__) == [
        "engine", "frame", "dim", "method", "leak", "drift", "products", "groups"]
    plan = plan_measure_reduce(4, LAM)
    result = run_plan(plan)
    assert list(result.diagnostics) == ["stages"]  # each record names its engine
    records = result.diagnostics["stages"]
    assert [(r.engine, r.frame, r.dim, r.method, r.leak, r.products, r.groups)
            for r in records] == [("Effective", "effective", 81, "factored", None, None, None)] * 2
    assert all(r.drift <= 1e-12 for r in records)

    cavity = FullCavity(params=_cavity_params(), fock_cutoff=6,
                        frame=FrameTag.SLOW_FRAME)
    records = run_plan(plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0),
                       engine=cavity).diagnostics["stages"]
    # dim is the largest block propagated: the spin-1 multiplet of the
    # two active atoms times the 7 Fock levels.  The first stage starts in
    # |gg>, on the spin-1 group alone; after the e -> f transfer the
    # second also holds |fg>, |gf> (spin 1/2) and |ff> (spin 0)
    assert [(r.engine, r.frame, r.dim, r.method, r.products) for r in records] == [
        ("FullCavity", "slow_frame", 21, "eigh", None)] * 2
    assert [r.groups for r in records] == [(2,), (2, 1, 0)]
    assert all(0.0 <= r.leak < 1e-6 and r.drift <= 1e-12 for r in records)

    ion_params = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=math.pi / 2.0,
                             lamb_dicke_order=2)
    ion = FullIon(params=ion_params, fock_cutoff=6)
    (record,) = run_plan(plan_ghz_two_level(2, lambda_ion(1.0, 0.05, 2.0), delta=2.0),
                         engine=ion).diagnostics["stages"]
    assert (record.engine, record.frame, record.dim, record.method, record.products,
            record.groups) == ("FullIon", "ion_interaction", 21, "eigh", None, (2,))


def test_stage_records_count_the_chebyshev_products_the_kernel_took(monkeypatch):
    # each decay stage's record carries the products its actions reported
    # (substeps x (series length - 1)), known before the first one; the
    # wrapped CSR kernel counts the calls that really happened, stage by
    # stage
    calls, kernel, evolve = [], dynamics._csr_kernel, protocols.evolve_lindblad

    def wrapped(x, k):
        product = kernel(x, k)

        def counted(v, out):
            calls[-1] += 1
            product(v, out)

        return counted

    def stage(*args):
        calls.append(0)
        return evolve(*args)

    monkeypatch.setattr(dynamics, "_csr_kernel", wrapped)
    monkeypatch.setattr(protocols, "evolve_lindblad", stage)
    engine = Lindblad(params=_cavity_params(), decay=DecaySpec(kappa=0.2), fock_cutoff=4)
    records = run_plan(plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0),
                       engine=engine).diagnostics["stages"]
    assert len(records) == 2 and all(count > 0 for count in calls)
    assert [r.products for r in records] == calls


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


def _engines_of_every_representation():
    cavity = lambda_cavity(1.0, 10.0)
    ion = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=math.pi / 2.0, lamb_dicke_order=2)
    return [
        pytest.param(Effective(), LAM, None, id="effective"),
        pytest.param(FullCavity(params=_cavity_params(), fock_cutoff=8), cavity, 10.0,
                     id="full-fock0"),
        pytest.param(FullCavity(params=_cavity_params(), fock_cutoff=8,
                                initial_mode=ThermalSpec.for_nbar(0.05)), cavity, 10.0,
                     id="full-thermal"),
        pytest.param(FullIon(params=ion, fock_cutoff=6), lambda_ion(1.0, 0.05, 2.0), 2.0,
                     id="ion"),
        pytest.param(Lindblad(params=_cavity_params(), decay=DecaySpec(kappa=0.1),
                              fock_cutoff=4), cavity, 10.0, id="lindblad"),
    ]


@pytest.mark.parametrize("engine, lam, delta", _engines_of_every_representation())
def test_drives_after_an_enumerated_measurement_match_the_postselected_runs(engine, lam, delta):
    # every planner measures last, so only here does a drive (and a
    # transfer) carry several branches at once: each enumerated branch
    # must be the run postselected on its outcome
    base = plan_ghz_three_level(2, lam, delta=delta)
    drive, swap_ef, second_drive = base.stages

    def run(measurement):
        stages = (drive, measurement, swap_ef, second_drive)
        return run_plan(replace(base, stages=stages), engine=engine)

    enumerated = run(Measurement(0))
    assert [b.label for b in enumerated.branches] == ["g", "e", "f"]
    assert len(enumerated.diagnostics["stages"]) == 2
    for level, (branch, fid) in enumerate(zip(enumerated.branches, enumerated.fidelities)):
        post = run(Measurement(0, "postselect", outcome=level))
        (expected,) = post.branches
        assert abs(branch.probability - expected.probability) <= 1e-12
        assert abs(fid - post.fidelities[0]) <= 1e-12
        if expected.state is None:
            assert branch.state is None
        else:
            assert trace_distance(branch.state, expected.state) <= 1e-12


# ------------------------------------------------------ population series


def test_drive_population_series_matches_the_per_sample_rotation():
    # oracle: each sample's state rotated on both atoms by its own
    # exp(+i omega t sigma_x), one apply_local per sample
    params = DriveParams(g=1.0, delta=10.0, omega=2.7)
    space = make_space(2, 2, 8)
    series = drive_population_series(params, n_start=1, duration=30.0, sample_count=200,
                                     fock_cutoff=8)
    psi0 = basis_state(space, "gg", 1).amplitudes[:, None]
    traj = dynamics.evolve_exact(partial(hamiltonians.interaction_terms, space, params),
                                 params.delta, space, psi0, 0.0, 30.0, t_eval=series.times).states
    e_all = basis_index(space.atoms_only(), "ee", 0)
    expected = np.empty(len(series.times))
    for i, t in enumerate(series.times):
        c, s = math.cos(params.omega * t), math.sin(params.omega * t)
        r1 = np.array([[c, 1j * s], [1j * s, c]])
        rotated = dynamics.apply_local(space, r1, "all", traj[i][:, 0]).reshape(space.atoms_dim, -1)
        expected[i] = float(np.sum(np.abs(rotated[e_all, :]) ** 2))
    assert np.max(np.abs(series.values - expected)) <= 1e-14
    assert np.ptp(expected) > 0.1


def test_drive_population_series_frequency():
    # the co-rotating doubly-excited population oscillates at 2 lam;
    # omega must sit far above delta so the sidebands stay fast
    params = DriveParams(g=1.0, delta=5.0, omega=25.0)
    lam = lambda_cavity(params.g, params.delta)
    series = drive_population_series(params, n_start=0, duration=65.0,
                                     sample_count=700, fock_cutoff=8)
    est = extract_frequency(series)
    assert abs(est - 2.0 * lam) / (2.0 * lam) <= 0.02
