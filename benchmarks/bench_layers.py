"""Layer benchmark: generator builds, one drive stage of each exact
engine, timed alone, and one whole ``run_plan`` per engine.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py \
        --benchmark-json=BENCH.json

The file name does not match ``test_*``, so the unit suite does not
collect it.  BLAS is pinned to one thread before numpy loads, and each
benchmark records the pin, the core count and the numpy/scipy/BLAS
versions in its ``extra_info``.

Generator builds (the static mode-frame V of one drive stage):

* ``build_interaction_terms[144]``: N = 4 qubits, cutoff 8.
* ``build_interaction_terms[729]``: N = 4 qutrits, cutoff 8.
* ``build_ion_terms_series``: the ion displacement series to order 2,
  N = 2 qubits, cutoff 6 (dimension 28).

Stages:

* ``lindblad_decay_sweep``: the decay-sweep workload's stage, N = 2
  GHZ at delta = 4.1 g, cutoff 6, kappa = 0.2 g (Liouville dimension
  784).
* ``lindblad_criterion_9``: criterion 9's second drive stage, two
  qutrits at delta = 10 g, cutoff 5, kappa = 0.2 g (dimension 2916).
* ``exact_two_atom_qutrit``: the same stage on the full cavity engine
  at the README's cutoff 8 (Hilbert dimension 81, one ``eigh``).
* ``effective_drive[ghz-1024]``: the first drive stage of the N = 10
  GHZ plan on the Effective engine (atomic dimension 1024, one column).
* ``effective_drive[three-level-729]``: the first drive stage of the
  N = 6 three-level GHZ plan (atomic dimension 729, one column).
  Both go through the engine's own stage step (``protocols._drive``),
  timed after one untimed call.

Whole plans (initial state, every stage, branch read-out):

* ``run_plan_effective``: measure-reduce on N = 6 qutrits (atomic
  dimension 729, three outcome branches).
* ``run_plan_full_cavity``: two-atom-qutrit at delta = 10 g, cutoff 8.
* ``run_plan_lindblad``: N = 2 GHZ at delta = 4.1 g, cutoff 6,
  kappa = 0.1 g.

End to end:

* ``cli_protocol_ghz10``: one in-process ``cli.main(["protocol", "ghz",
  "--n", "10"])``, parsing, planning, the Effective run and the JSON
  report (written to a discarded buffer).
"""

import contextlib
import io
import os
import sys

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(var) != "1" for var in BLAS_ENV):
    raise RuntimeError("numpy loaded before the BLAS pin; set OMP_NUM_THREADS=1, "
                       "OPENBLAS_NUM_THREADS=1 and MKL_NUM_THREADS=1")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

from spincavity import cli  # noqa: E402
from spincavity.algebra import basis_state, make_space  # noqa: E402
from spincavity.dynamics import DecaySpec, evolve_exact, evolve_lindblad  # noqa: E402
from spincavity.hamiltonians import (  # noqa: E402
    DriveParams,
    FrameTag,
    interaction_terms,
    ion_terms,
    lambda_cavity,
)
from spincavity.protocols import (  # noqa: E402
    CollectiveDrive,
    Effective,
    FullCavity,
    Lindblad,
    plan_ghz_three_level,
    plan_ghz_two_level,
    plan_measure_reduce,
    plan_two_atom_qutrit,
    run_plan,
)
from spincavity.protocols import _drive  # noqa: E402


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def _drives(plan):
    """(start, stage) of each drive stage at its absolute start time."""
    t, out = 0.0, []
    for stage in plan.stages:
        if isinstance(stage, CollectiveDrive):
            out.append((t, stage))
            t += stage.duration
    return out


def _stage(plan, index, space, delta):
    t0, stage = _drives(plan)[index]
    v = interaction_terms(space, DriveParams(g=1.0, delta=delta, omega=stage.params.omega))
    return v, t0, t0 + stage.duration


def _vacuum_rho(space):
    psi = basis_state(space, "g" * space.atom_count, 0).amplitudes
    return np.outer(psi, psi.conj())[None]


@pytest.fixture
def record(benchmark):
    benchmark.extra_info.update(_machine())
    return benchmark


@pytest.mark.parametrize("atom_dim", [2, 3], ids=["144", "729"])
def test_build_interaction_terms(record, atom_dim):
    space = make_space(4, atom_dim, 8)
    record.extra_info["hilbert_dim"] = space.dim
    record(interaction_terms, space, DriveParams(g=1.0, delta=10.0, omega=200.0))


def test_build_ion_terms_series(record):
    space = make_space(2, 2, 6)
    params = DriveParams(omega=1.0, delta=2.0, eta=0.05, phi=0.5 * np.pi, lamb_dicke_order=2)
    record.extra_info["hilbert_dim"] = space.dim
    record(ion_terms, space, params, FrameTag.ION_INTERACTION)


def test_lindblad_decay_sweep(record):
    space = make_space(2, 2, 6)
    plan = plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1)
    v, t0, t1 = _stage(plan, 0, space, 4.1)
    rhos = _vacuum_rho(space)
    record.extra_info["liouville_dim"] = space.dim ** 2
    record(evolve_lindblad, v, 4.1, DecaySpec(0.2), space, rhos, t0, t1)


def test_lindblad_criterion_9(record):
    space = make_space(2, 3, 5)
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    v, t0, t1 = _stage(plan, 1, space, 10.0)
    rhos = _vacuum_rho(space)
    record.extra_info["liouville_dim"] = space.dim ** 2
    record.pedantic(evolve_lindblad, (v, 10.0, DecaySpec(0.2), space, rhos, t0, t1),
                    rounds=3, iterations=1)


def test_exact_two_atom_qutrit(record):
    space = make_space(2, 3, 8)
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    v, t0, t1 = _stage(plan, 1, space, 10.0)
    cols = basis_state(space, "gg", 0).amplitudes[:, None]
    record.extra_info["hilbert_dim"] = space.dim
    record(evolve_exact, v, 10.0, space, cols, t0, t1)


@pytest.mark.parametrize("planner, n_atoms", [(plan_ghz_two_level, 10),
                                              (plan_ghz_three_level, 6)],
                         ids=["ghz-1024", "three-level-729"])
def test_effective_drive(record, planner, n_atoms):
    plan = planner(n_atoms, lambda_cavity(1.0, 20.0), delta=20.0)
    t0, stage = _drives(plan)[0]
    states = [basis_state(plan.space, "g" * n_atoms).amplitudes[:, None]]
    step = (plan, plan.space, stage, Effective(), states, t0)
    _drive(*step)
    record.extra_info["atoms_dim"] = plan.space.atoms_dim
    record(_drive, *step)


def test_run_plan_effective(record):
    plan = plan_measure_reduce(6, lambda_cavity(1.0, 20.0), delta=20.0)
    record.extra_info["atoms_dim"] = plan.space.atoms_dim
    record(run_plan, plan, engine=Effective())


def test_run_plan_full_cavity(record):
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    engine = FullCavity(DriveParams(g=1.0, delta=10.0), fock_cutoff=8)
    record.extra_info["hilbert_dim"] = plan.space.with_mode(8).dim
    record(run_plan, plan, engine=engine)


def test_run_plan_lindblad(record):
    plan = plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1)
    engine = Lindblad(DriveParams(g=1.0, delta=4.1), DecaySpec(0.1), fock_cutoff=6)
    record.extra_info["liouville_dim"] = plan.space.with_mode(6).dim ** 2
    record(run_plan, plan, engine=engine)


def _cli_ghz10():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["protocol", "ghz", "--n", "10"])


def test_cli_protocol_ghz10(record):
    assert record(_cli_ghz10) == 0
