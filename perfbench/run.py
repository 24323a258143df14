"""Run one spincavity benchmark workload and print its metrics.

    python3 perfbench/run.py --workload full-pure --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the full record of the run (machine, settings,
per-kind timings, failures).  Any seed other than the default one (0)
is a held-out seed: ``--seed 12345`` reruns the same workload shape on
inputs no one has tuned against.

    python3 perfbench/run.py --record-reference

records the full and decay outputs of the first cycles at the default
seed in ``perfbench/reference.json``; a default-seed run compares each
recorded operation with it to 1e-6.
"""

import os
import sys

# Pin BLAS threads in this process's environment before numpy loads;
# set-up probes inherit it.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# cycles recorded per workload by --record-reference: more than a
# default-seed run reaches at this commit's speed
REFERENCE_CYCLES = {"full-pure": 6, "decay-sweep": 10}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("full-pure", "decay-sweep", "effective-scale"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory to write the run record (and spans) to")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spincavity" / "__init__.py").is_file():
        print(f"error: no spincavity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import runner  # imports numpy, so only after the BLAS pin
    import spans
    import workloads

    if args.record_reference:
        runner.record_reference(REFERENCE_CYCLES)
        return 0
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        runner.setup_probe(workload, args.seed)
        return 0

    setup_times = runner.measure_setup(Path(__file__).resolve(), args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    reference = runner.load_reference(args.workload, args.seed)
    res = runner.run_workload(workload, args.seed, args.seconds, tracer, reference)
    if args.trace:
        metrics = runner.per_layer(res, tracer)
    else:
        metrics = runner.end_to_end(res, statistics.median(setup_times))
    record = runner.record(workload, args, res, setup_times, metrics)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            (out / f"{stem}-spans.json").write_text(
                json.dumps(spans.span_records(tracer.spans)) + "\n")
    print(json.dumps({"record": record}))
    correct = res.tally.failed == 0 and res.byte_stable is not False
    print(json.dumps({
        "correct": correct,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
