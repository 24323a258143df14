"""Collective-drive entanglement of multi-level atoms via a shared
bosonic mode, with exact effective propagators, exact full-model stage
propagation, thermal-mode robustness checks, and a decay channel.
"""

from .algebra import (
    DensityMatrix,
    NormDriftError,
    Operator,
    PhysicsError,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    basis_index,
    basis_state,
    boson_ops,
    collective_sx,
    decode_index,
    displacement_series,
    embed_atom_op,
    make_space,
    mode_population,
    permutation_op,
)
from .analysis import (
    TimeSeries,
    extract_frequency,
    fidelity,
    leg_populations,
    reduce_to_atoms,
    trace_distance,
)
from .dynamics import (
    DecaySpec,
    IntegratorConfig,
    ThermalSpec,
    apply_atomic,
    apply_local,
    evolve_exact,
    evolve_factored,
    evolve_lindblad,
    evolve_td_multi,
    propagator_u,
    thermal_state,
)
from .hamiltonians import (
    DriveParams,
    FrameTag,
    at_time,
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
from .protocols import (
    Branch,
    CollectiveDrive,
    Effective,
    FullCavity,
    FullIon,
    Lindblad,
    LocalTransfer,
    Measurement,
    PLANNERS,
    ProtocolPlan,
    ProtocolResult,
    StageRecord,
    Timings,
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
    swap_ef_matrix,
    swap_gf_eh_matrix,
)

__version__ = "0.1.0"
