"""Layer benchmark: the package import, generator builds, one drive
stage of each exact engine, timed alone, the read-out and the report,
and one whole ``run_plan`` per engine.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py \
        --benchmark-json=BENCH.json

The file name does not match ``test_*``, so the unit suite does not
collect it.  BLAS is pinned to one thread before numpy loads, and each
benchmark records the pin, the core count and the numpy/scipy/BLAS
versions in its ``extra_info``.

Import:

* ``fresh_import_cli``: ``import spincavity.cli`` in a fresh
  interpreter (the benchmark times the whole child process; its
  ``extra_info`` holds the median import time and peak RSS the child
  measured on itself, and the scipy modules the import loaded).

Generator builds (the static mode-frame V of one drive stage):

* ``build_interaction_terms[144]``: N = 4 qubits, cutoff 8.
* ``build_interaction_terms[729]``: N = 4 qutrits, cutoff 8.
* ``build_ion_terms_series``: the ion displacement series to order 2,
  N = 2 qubits, cutoff 6 (dimension 28).

Basis build:

* ``coupled_basis_build[qubits-11]``, ``coupled_basis_build[qutrits-6]``:
  ``algebra.coupled_basis`` from scratch (every cache cleared before each
  round) for N = 11 qubits (q is 2048 x 2048) and N = 6 qutrits
  (729 x 729).  Each also records the tracemalloc peak of one more
  uncached build (``tracemalloc_peak_mib``) and q's size (``q_mib``).

Series coefficients:

* ``chebyshev_coefficients``: the decay engine's Bessel coefficients
  J_0(z), 2 J_k(z) at z = 1352.7, the argument of the decay-sweep
  stage's series (about 1470 terms).

Stages:

* ``lindblad_decay_sweep``: the decay-sweep workload's stage, N = 2
  GHZ at delta = 4.1 g, cutoff 6, kappa = 0.2 g (Liouville dimension
  784).
* ``lindblad_criterion_9``: criterion 9's second drive stage, two
  qutrits at delta = 10 g, cutoff 5, kappa = 0.2 g (dimension 2916).
* ``lindblad_criterion_9_pairs``: the same stage from a full-rank
  (seeded) atomic density matrix with the mode in the vacuum, so all
  nine pairs of its three spin groups are occupied, two of the groups
  with two copies: three diagonal pairs in real arithmetic and three
  mirrored couples, one action each.
* ``pair_action[float64]``, ``pair_action[complex128]``: one
  ``chebyshev_action`` on the decay-sweep stage's one occupied pair, the
  spin-1 block (441 Liouville rows, one column from the vacuum, 1712
  products): on the float64 ``real_liouvillian`` as ``evolve_lindblad``
  runs it, and on the complex ``liouvillian`` with the same radius and
  margin.  The operator is built untimed.
* ``exact_two_atom_qutrit``: the same stage on the full cavity engine
  at the README's cutoff 8 (Hilbert dimension 81).
* ``drive_stage[full-ghz3]``, ``drive_stage[full-ghz4]``: the full-pure
  workload's full-cavity GHZ stages, N = 3 at cutoff 7 and N = 4 at
  cutoff 8, delta = 4.9 g (Hilbert dimensions 64 and 144).
* ``drive_stage[decay-sweep]``: the decay-sweep workload's stage on the
  decay engine, N = 2 GHZ at delta = 4.1 g, cutoff 6, kappa = 0.2 g
  (Liouville dimension 784).
  These three go through the engine's own stage step
  (``protocols._drive``) from |g..g, 0>, the start state as the engine's
  ``protocols._initial_state`` resolves it, timed after one untimed call.
* ``effective_drive[ghz-1024]``: the first drive stage of the N = 10
  GHZ plan on the Effective engine (atomic dimension 1024, one column).
* ``effective_drive[three-level-729]``: the first drive stage of the
  N = 6 three-level GHZ plan (atomic dimension 729, one column).
  Both go through the engine's own stage step (``protocols._drive``)
  from the start state ``protocols._initial_state`` resolves, timed
  after one untimed call.

Read-out and report, on the full-pure workload's full-cavity N = 4 GHZ
result (cutoff 8, delta = 4.9 g; Hilbert dimension 144), computed once
untimed:

* ``reduce_and_fidelity``: the partial trace over the mode (with the
  density-matrix checks) and the fidelity with the target, as
  ``compare-frames`` reads a result.
* ``render_json_report``: re-rendering that run's ``protocol`` JSON
  report from its parsed payload and the config it echoes; it must
  equal the CLI's bytes.

Whole plans (initial state, every stage, branch read-out):

* ``run_plan_effective``: measure-reduce on N = 6 qutrits (atomic
  dimension 729, three outcome branches).
* ``run_plan_full_cavity``: two-atom-qutrit at delta = 10 g, cutoff 8.
* ``run_plan_lindblad``: N = 2 GHZ at delta = 4.1 g, cutoff 6,
  kappa = 0.1 g.
* ``run_plan_lindblad_measure_reduce``: measure-reduce on N = 4 qutrits
  at delta = 10 g, cutoff 4, kappa = 0.05 g (Hilbert dimension 405): two
  decay stages, two transfers and the measurement's three density-matrix
  branches.

End to end:

* ``cli_protocol_ghz10``: one in-process ``cli.main(["protocol", "ghz",
  "--n", "10"])``, parsing, planning, the Effective run and the JSON
  report (written to a discarded buffer).
* ``cli_compare_frames_qutrit``: one in-process ``compare-frames
  two-atom-qutrit --g 1 --delta 4.9 --fock-cutoff 8`` (the full-pure
  workload's frames request: the Effective run and both full-cavity
  frames, two stages each, and the report).
* ``cli_sweep_lindblad``: one in-process ``sweep ghz --n 2 --engine
  lindblad`` over three kappa points, 0.05, 0.125 and 0.2 g, at
  delta = 4.1 g and cutoff 6 (the decay-sweep workload's shape), with
  its CSV report.
* ``cli_protocol_ghz11_full``: one in-process ``protocol ghz --n 11
  --engine full --g 1 --delta 10 --fock-cutoff 14``, the coupled basis
  built anew each round as in a fresh process (Hilbert dimension
  30720).
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(var) != "1" for var in BLAS_ENV):
    raise RuntimeError("numpy loaded before the BLAS pin; set OMP_NUM_THREADS=1, "
                       "OPENBLAS_NUM_THREADS=1 and MKL_NUM_THREADS=1")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

from spincavity import cli, dynamics  # noqa: E402
from spincavity.algebra import basis_state, coupled_basis, make_space  # noqa: E402
from spincavity.analysis import fidelity, reduce_to_atoms  # noqa: E402
from spincavity.dynamics import (  # noqa: E402
    DecaySpec,
    _block_generator,
    _chebyshev_coefficients,
    chebyshev_action,
    dissipative_margin,
    evolve_exact,
    evolve_lindblad,
    liouvillian,
)
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
from spincavity.protocols import _drive, _initial_state  # noqa: E402


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
    """The stage's generator builder and its start and end times."""
    t0, stage = _drives(plan)[index]
    build = partial(interaction_terms, space,
                    DriveParams(g=1.0, delta=delta, omega=stage.omega))
    return build, t0, t0 + stage.duration


def _vacuum_rho(space):
    psi = basis_state(space, "g" * space.atom_count, 0).amplitudes
    return np.outer(psi, psi.conj())[None]


@pytest.fixture
def record(benchmark):
    benchmark.extra_info.update(_machine())
    return benchmark


IMPORT_PROBE = """
import resource, sys, time
start = time.perf_counter()
import spincavity.cli
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(seconds, rss_mb, *sorted(m for m in sys.modules if m.startswith("scipy.")))
"""


def test_fresh_import_cli(record):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    samples = []

    def fresh_import():
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, check=True, env=env)
        samples.append(done.stdout.split())

    record.pedantic(fresh_import, rounds=7, iterations=1)
    record.extra_info["import_s"] = statistics.median(float(s[0]) for s in samples)
    record.extra_info["peak_rss_mb"] = statistics.median(float(s[1]) for s in samples)
    record.extra_info["scipy_modules"] = samples[-1][2:]


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


@pytest.mark.parametrize("atom_count, atom_dim", [(11, 2), (6, 3)],
                         ids=["qubits-11", "qutrits-6"])
def test_coupled_basis_build(record, atom_count, atom_dim):
    record.extra_info["atoms_dim"] = atom_dim**atom_count
    record.pedantic(coupled_basis, (atom_count, atom_dim), setup=coupled_basis.cache_clear,
                    rounds=7, iterations=1)
    coupled_basis.cache_clear()
    tracemalloc.start()
    try:
        q = coupled_basis(atom_count, atom_dim).q
        record.extra_info["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    record.extra_info["q_mib"] = q.nbytes / 2**20


def test_chebyshev_coefficients(record):
    record.extra_info["terms"] = len(_chebyshev_coefficients(1352.7))
    record(_chebyshev_coefficients, 1352.7)


def test_lindblad_decay_sweep(record):
    space = make_space(2, 2, 6)
    plan = plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1)
    build, t0, t1 = _stage(plan, 0, space, 4.1)
    rhos = _vacuum_rho(space)
    record.extra_info["liouville_dim"] = space.dim ** 2
    record(evolve_lindblad, build, 4.1, DecaySpec(0.2), space, rhos, t0, t1)


def test_lindblad_criterion_9(record):
    space = make_space(2, 3, 5)
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    build, t0, t1 = _stage(plan, 1, space, 10.0)
    rhos = _vacuum_rho(space)
    record.extra_info["liouville_dim"] = space.dim ** 2
    record.pedantic(evolve_lindblad, (build, 10.0, DecaySpec(0.2), space, rhos, t0, t1),
                    rounds=3, iterations=1)


def test_lindblad_criterion_9_pairs(record):
    space = make_space(2, 3, 5)
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    build, t0, t1 = _stage(plan, 1, space, 10.0)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    vacuum = np.zeros((space.mode_dim, space.mode_dim))
    vacuum[0, 0] = 1.0
    rhos = np.kron(x @ x.conj().T / np.linalg.norm(x) ** 2, vacuum)[None]
    record.extra_info["groups"] = len(coupled_basis(2, 3).groups)
    record.pedantic(evolve_lindblad, (build, 10.0, DecaySpec(0.2), space, rhos, t0, t1),
                    rounds=3, iterations=1)


@pytest.mark.parametrize("dtype", ["float64", "complex128"])
def test_pair_action(record, dtype):
    space, decay = make_space(2, 2, 6), DecaySpec(0.2)
    plan = plan_ghz_two_level(2, lambda_cavity(1.0, 4.1), delta=4.1)
    build, t0, t1 = _stage(plan, 0, space, 4.1)
    (group,) = [g for g in coupled_basis(2, 2).groups if g.two_j == 2]
    gen = _block_generator(build, group, 4.1, space.mode_dim)
    w = np.linalg.eigvalsh(gen)
    margin = dissipative_margin(space, decay)
    if dtype == "float64":
        # read off the module, so the other layers still run against a
        # source tree without real_liouvillian
        a = dynamics.real_liouvillian(gen, space, decay)
    else:
        a = liouvillian(gen, space, decay)
    indptr, _, data = a  # a CSR triple
    b = np.zeros((len(indptr) - 1, 1), dtype=dtype)
    b[0] = 1.0  # |J = 1, M = -1> x |0>, the vacuum |gg, 0>
    record.extra_info.update(liouville_rows=len(indptr) - 1, nnz=len(data))
    record(chebyshev_action, a, b, t1 - t0, w[-1] - w[0] + margin, margin)


def test_exact_two_atom_qutrit(record):
    space = make_space(2, 3, 8)
    plan = plan_two_atom_qutrit(lambda_cavity(1.0, 10.0), delta=10.0)
    build, t0, t1 = _stage(plan, 1, space, 10.0)
    cols = basis_state(space, "gg", 0).amplitudes[:, None]
    record.extra_info["hilbert_dim"] = space.dim
    record(evolve_exact, build, 10.0, space, cols, t0, t1)


DRIVE_STAGES = {
    "full-ghz3": (3, 7, 4.9, lambda p: FullCavity(p, fock_cutoff=7)),
    "full-ghz4": (4, 8, 4.9, lambda p: FullCavity(p, fock_cutoff=8)),
    "decay-sweep": (2, 6, 4.1, lambda p: Lindblad(p, DecaySpec(0.2), fock_cutoff=6)),
}


@pytest.mark.parametrize("name", sorted(DRIVE_STAGES))
def test_drive_stage(record, name):
    n_atoms, cutoff, delta, engine = DRIVE_STAGES[name]
    plan = plan_ghz_two_level(n_atoms, lambda_cavity(1.0, delta), delta=delta)
    engine = engine(DriveParams(g=1.0, delta=delta))
    space, start = _initial_state(plan, None, engine)  # from |g..g, 0>
    assert space.fock_cutoff == cutoff
    t0, stage = _drives(plan)[0]
    step = (plan, space, stage, engine, start, t0)
    _drive(*step)
    record.extra_info["hilbert_dim"] = space.dim
    record(_drive, *step)


@pytest.mark.parametrize("planner, n_atoms", [(plan_ghz_two_level, 10),
                                              (plan_ghz_three_level, 6)],
                         ids=["ghz-1024", "three-level-729"])
def test_effective_drive(record, planner, n_atoms):
    plan = planner(n_atoms, lambda_cavity(1.0, 20.0), delta=20.0)
    t0, stage = _drives(plan)[0]
    space, start = _initial_state(plan, None, Effective())
    step = (plan, space, stage, Effective(), start, t0)
    _drive(*step)
    record.extra_info["atoms_dim"] = plan.space.atoms_dim
    record(_drive, *step)


def test_reduce_and_fidelity(record):
    plan = plan_ghz_two_level(4, lambda_cavity(1.0, 4.9), delta=4.9)
    result = run_plan(plan, engine=FullCavity(DriveParams(g=1.0, delta=4.9), fock_cutoff=8))
    state = result.branches[0].state
    record.extra_info["hilbert_dim"] = state.space.dim

    def read_out():
        return fidelity(reduce_to_atoms(state, state.space), plan.target)

    assert record(read_out) > 0.9


def test_render_json_report(record):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["protocol", "ghz", "--n", "4", "--engine", "full", "--g", "1",
                         "--delta", "4.9", "--fock-cutoff", "8"]) == 0
    payload = json.loads(out.getvalue())
    config = cli.RunConfig(**payload.pop("config_echo"))
    assert record(cli._render_json, payload, config) == out.getvalue()


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


def test_run_plan_lindblad_measure_reduce(record):
    plan = plan_measure_reduce(4, lambda_cavity(1.0, 10.0), delta=10.0)
    engine = Lindblad(DriveParams(g=1.0, delta=10.0), DecaySpec(0.05), fock_cutoff=4)
    record.extra_info["hilbert_dim"] = plan.space.with_mode(4).dim
    result = record.pedantic(run_plan, (plan,), {"engine": engine}, rounds=3, iterations=1)
    assert [b.label for b in result.branches] == ["g", "e", "f"]


def _cli_ghz10():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["protocol", "ghz", "--n", "10"])


def test_cli_protocol_ghz10(record):
    assert record(_cli_ghz10) == 0


def _cli_compare_frames_qutrit():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["compare-frames", "two-atom-qutrit", "--g", "1", "--delta", "4.9",
                         "--fock-cutoff", "8"])


def test_cli_compare_frames_qutrit(record):
    assert record(_cli_compare_frames_qutrit) == 0


def _cli_sweep_lindblad():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["sweep", "ghz", "--n", "2", "--engine", "lindblad", "--g", "1",
                         "--delta", "4.1", "--fock-cutoff", "6", "--sweep-param", "kappa",
                         "--sweep-from", "0.05", "--sweep-to", "0.2", "--sweep-steps", "3",
                         "--format", "csv"])


def test_cli_sweep_lindblad(record):
    assert record(_cli_sweep_lindblad) == 0


def _cli_ghz11_full():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["protocol", "ghz", "--n", "11", "--engine", "full", "--g", "1",
                         "--delta", "10", "--fock-cutoff", "14"])


def test_cli_protocol_ghz11_full(record):
    record.extra_info["hilbert_dim"] = 2**11 * 15
    codes = []
    record.pedantic(lambda: codes.append(_cli_ghz11_full()), setup=coupled_basis.cache_clear,
                    rounds=5, iterations=1)
    assert codes == [0] * len(codes)
