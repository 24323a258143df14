"""The benchmark's span tracer (perfbench/spans.py) patches package names
where callers import them; deleting or renaming one of those names must
fail here, not only in a traced benchmark run."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from spincavity.hamiltonians import DriveParams, lambda_cavity
from spincavity.protocols import FullCavity, plan_ghz_two_level

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    spans = _load_spans()
    originals = {(mod, attr): importlib.import_module(mod).__dict__[attr]
                 for mod, attr, _ in spans.FUNCTION_PATCHES}
    protocols = importlib.import_module("spincavity.protocols")
    cli = importlib.import_module("spincavity.cli")
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a traced full-engine run reaches the wrapped builders, and the
        # ion's series frame the wrapped displacement partial sums
        params = DriveParams(g=1.0, delta=4.9)
        plan = plan_ghz_two_level(2, lambda_cavity(1.0, 4.9), delta=4.9)
        result = protocols.run_plan(plan, engine=FullCavity(params, fock_cutoff=8))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["protocol", "ghz", "--n", "2", "--system", "ion", "--engine",
                             "full", "--delta", "1", "--fock-cutoff", "6"])
    finally:
        tracer.uninstall()
    assert result.fidelities[0] > 0.9
    assert code == 0
    names = {span.name for span in tracer.spans}
    assert {"protocols.run_plan", "hamiltonians.build", "algebra.ops"} <= names
    for (mod, attr), original in originals.items():
        assert importlib.import_module(mod).__dict__[attr] is original
