"""Command-line contract: flags, config files, formats, exit codes,
byte-stable reports."""

import argparse
import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from spincavity import cli
from spincavity.algebra import LEVEL_LABELS, decode_index
from spincavity.cli import main
from spincavity.protocols import PLANNERS


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_round12(value):
    if isinstance(value, float):
        assert value == float(f"{value:.12g}")
    elif isinstance(value, dict):
        for v in value.values():
            _assert_round12(v)
    elif isinstance(value, list):
        for v in value:
            _assert_round12(v)


# ----------------------------------------------------------------- success


def test_list_protocols(capsys):
    code, out, err = _run(capsys, "list-protocols")
    assert code == 0
    assert out.splitlines() == [
        "ghz", "ghz-four-level", "ghz-three-level", "measure-reduce",
        "two-atom-qutrit",
    ]


def test_protocol_effective_json(capsys):
    code, out, err = _run(capsys, "protocol", "two-atom-qutrit")
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "two-atom-qutrit"
    assert payload["engine"] == "effective"
    branch = payload["branches"][0]
    assert branch["probability"] == pytest.approx(1.0, abs=1e-9)
    assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)
    legs = branch["leg_populations"]
    assert set(legs) == {"gg", "ee", "ff"}
    assert sum(legs.values()) == pytest.approx(1.0, abs=1e-9)
    # effective runs fall back to a default detuning
    assert payload["config_echo"]["delta"] == 20.0
    assert payload["timings"]["t1"] > 0
    _assert_round12(payload)


def test_protocol_measure_reduce_csv(capsys):
    code, out, err = _run(capsys, "protocol", "measure-reduce", "--n", "4",
                          "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "branch,probability,fidelity"
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert set(rows) == {"g", "e", "f"}
    assert float(rows["f"][0]) == pytest.approx(0.3, abs=1e-9)
    assert float(rows["f"][1]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows["g"][0]) == pytest.approx(0.25, abs=1e-9)
    assert float(rows["e"][0]) == pytest.approx(0.45, abs=1e-9)


def test_protocol_seed_samples_outcome(capsys):
    code, out1, _ = _run(capsys, "protocol", "measure-reduce", "--n", "4",
                         "--seed", "11")
    assert code == 0
    code, out2, _ = _run(capsys, "protocol", "measure-reduce", "--n", "4",
                         "--seed", "11")
    assert code == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["sampled_outcome"] in ("g", "e", "f")
    assert p1["sampled_outcome"] == p2["sampled_outcome"]


def test_protocol_output_byte_stable(capsys):
    _, out1, _ = _run(capsys, "protocol", "ghz", "--n", "3")
    _, out2, _ = _run(capsys, "protocol", "ghz", "--n", "3")
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_never_shows_diagnostics(capsys, monkeypatch, fmt):
    # the stage records stay in ProtocolResult.diagnostics: replacing
    # them (here with wall-time-like junk) leaves the report bytes alone
    argv = ("protocol", "ghz", "--n", "2", "--engine", "full", "--g", "1",
            "--delta", "5", "--fock-cutoff", "8", "--format", fmt)
    code, out1, _ = _run(capsys, *argv)
    assert code == 0
    run_plan = cli.run_plan

    def scrambled(*args, **kwargs):
        result = run_plan(*args, **kwargs)
        assert len(result.diagnostics["stages"]) == 1
        return replace(result, diagnostics={"stages": ("took 0.123 s",), "wall_s": 9.9})

    monkeypatch.setattr(cli, "run_plan", scrambled)
    code, out2, _ = _run(capsys, *argv)
    assert code == 0
    assert out1 == out2


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "n": 4, "format": "json"}))
    code, out, err = _run(capsys, "protocol", "--config", str(cfg), "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config_echo"]["n"] == 3  # flag wins over file
    assert payload["protocol"] == "ghz"


def test_out_file_and_force(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "protocol", "ghz", "--out", str(path))
    assert code == 0
    assert out == ""
    first = path.read_text()
    assert json.loads(first)["protocol"] == "ghz"
    # refuse to overwrite without --force
    code, _, err = _run(capsys, "protocol", "ghz", "--out", str(path))
    assert code == 1
    assert "--force" in err
    code, _, _ = _run(capsys, "protocol", "ghz", "--out", str(path), "--force")
    assert code == 0
    # identical physics; the echo differs only in the force flag itself
    a, b = json.loads(first), json.loads(path.read_text())
    a.pop("config_echo"), b.pop("config_echo")
    assert a == b


def test_sweep_csv_header_and_rows(capsys):
    code, out, _ = _run(capsys, "sweep", "ghz", "--sweep-param", "nbar",
                        "--sweep-from", "0", "--sweep-to", "1",
                        "--sweep-steps", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sweep_param,value,branch,probability,fidelity"
    assert len(lines) == 4
    # the effective engine has no mode, so the thermal occupation is inert
    fids = {ln.split(",")[4] for ln in lines[1:]}
    assert len(fids) == 1


def test_sweep_json_rows(capsys):
    code, out, _ = _run(capsys, "sweep", "ghz", "--sweep-param", "g",
                        "--sweep-from", "0.5", "--sweep-to", "1.5",
                        "--sweep-steps", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    row = payload["rows"][0]
    assert set(row) == {"sweep_param", "value", "branch", "probability", "fidelity"}
    assert row["sweep_param"] == "g"
    assert row["value"] == 0.5
    _assert_round12(payload)


def test_compare_frames_cavity(capsys):
    code, out, _ = _run(capsys, "compare-frames", "ghz", "--n", "2",
                        "--g", "1", "--delta", "5", "--fock-cutoff", "8")
    assert code == 0
    payload = json.loads(out)
    frames = {row["frame"]: row["fidelity"] for row in payload["frames"]}
    assert set(frames) == {"effective", "interaction", "slow"}
    assert frames["effective"] == pytest.approx(1.0, abs=1e-9)
    assert frames["interaction"] >= 0.9
    assert frames["slow"] >= 0.9
    pairs = {row["frames"]: row["trace_distance"] for row in payload["pairs"]}
    assert set(pairs) == {"effective|interaction", "effective|slow",
                          "interaction|slow"}
    for dist in pairs.values():
        assert 0.0 <= dist < 0.5


def test_compare_frames_csv_shape(capsys):
    code, out, _ = _run(capsys, "compare-frames", "ghz", "--n", "2",
                        "--g", "1", "--delta", "5", "--fock-cutoff", "8",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,name,value"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["fidelity"] * 3 + ["trace_distance"] * 3


# the CSV rows of each command, and the same rows read off its JSON report
REPORTS = {
    "protocol": (("protocol", "measure-reduce", "--n", "4", "--engine", "full", "--g", "1",
                  "--delta", "10", "--fock-cutoff", "6"),
                 lambda p: [(b["label"], b["probability"], b["fidelity"]) for b in p["branches"]]),
    "sweep": (("sweep", "ghz", "--n", "2", "--engine", "lindblad", "--g", "1", "--delta", "4.1",
               "--fock-cutoff", "6", "--sweep-param", "kappa", "--sweep-from", "0.05",
               "--sweep-to", "0.2", "--sweep-steps", "2"),
              lambda p: [(r["sweep_param"], r["value"], r["branch"], r["probability"],
                          r["fidelity"]) for r in p["rows"]]),
    "compare-frames": (("compare-frames", "ghz", "--n", "2", "--system", "ion", "--delta", "2",
                        "--fock-cutoff", "8"),
                       lambda p: [("fidelity", r["frame"], r["fidelity"]) for r in p["frames"]]
                       + [("trace_distance", r["frames"], r["trace_distance"])
                          for r in p["pairs"]]),
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_csv_rows_carry_the_json_reports_numbers(capsys, command):
    argv, rows_of = REPORTS[command]
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    csv_rows = [tuple(line.split(",")) for line in out.splitlines()[1:]]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    json_rows = rows_of(json.loads(out))
    assert len(csv_rows) == len(json_rows) > 1
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert [v if isinstance(v, str) else float(v) for v in json_row] == [
            v if isinstance(j, str) else float(v) for v, j in zip(csv_row, json_row)]


def test_csv_report_builds_only_its_rows(capsys, monkeypatch):
    # leg populations and the sampled outcome appear only in the JSON
    # report, so a CSV report must not compute them
    def refuse(*args, **kwargs):
        raise AssertionError("the CSV report computed a value it does not print")

    monkeypatch.setattr(cli, "leg_populations", refuse)
    monkeypatch.setattr(cli, "sample_outcome", refuse)
    code, out, err = _run(capsys, "protocol", "measure-reduce", "--n", "4", "--seed", "7",
                          "--format", "csv")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["branch", "g", "e", "f"]


# ------------------------------------------------------------ config errors


@pytest.mark.parametrize("argv", [
    ("protocol",),                                     # no protocol name
    ("protocol", "bogus"),                             # unknown protocol
    ("protocol", "ghz", "--engine", "bogus"),          # bad engine choice
    ("protocol", "two-atom-qutrit", "--n", "3"),       # wrong atom count
    ("protocol", "ghz", "--engine", "full"),           # full engine, no delta
    ("protocol", "ghz", "--engine", "lindblad"),       # decay engine, no delta
    ("compare-frames", "ghz"),                         # frames need a delta
    ("protocol", "ghz", "--engine", "lindblad", "--system", "ion", "--delta", "5"),
    ("sweep", "ghz"),                                  # no sweep param
    ("sweep", "ghz", "--sweep-param", "g"),            # no range
    ("sweep", "ghz", "--sweep-param", "g", "--sweep-from", "0",
     "--sweep-to", "1", "--sweep-steps", "1"),         # too few steps
    (),                                                # no subcommand
])
def test_config_errors_exit_1(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert "config error" in err


def test_unknown_config_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "turbo": True}))
    code, _, err = _run(capsys, "protocol", "--config", str(cfg))
    assert code == 1
    assert "turbo" in err


@pytest.mark.parametrize("key, value, expected", [
    ("fock_cutoff", 6.5, "'fock_cutoff' must be int, got 6.5"),
    ("n", 2.0, "'n' must be int, got 2.0"),
    ("g", "1", "'g' must be float, got \"1\""),
    ("delta", True, "'delta' must be float or null, got true"),
])
def test_config_value_of_wrong_type_exit_1(tmp_path, capsys, key, value, expected):
    # these used to fail deep in the program with messages naming
    # neither the key nor the type
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "engine": "full", "delta": 5, key: value}))
    code, out, err = _run(capsys, "protocol", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"config error: config key {expected}\n"


def test_config_file_integers_fill_float_fields(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "g": 1, "delta": 20, "seed": None}))
    code, _, err = _run(capsys, "protocol", "--config", str(cfg))
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("protocol", "ghz", "--n", "40", "--g", "1", "--delta", "20"),
    ("protocol", "ghz", "--n", "40", "--engine", "full", "--delta", "5"),
    ("protocol", "ghz", "--n", "40", "--engine", "lindblad", "--delta", "10"),
    ("sweep", "ghz", "--n", "40", "--sweep-param", "g", "--sweep-from", "0.5",
     "--sweep-to", "1", "--sweep-steps", "2"),
    ("compare-frames", "ghz", "--n", "40", "--delta", "5"),
    # the size is an integer far beyond any float; the message still renders
    ("protocol", "ghz", "--n", "100000", "--engine", "lindblad", "--delta", "10"),
])
def test_run_beyond_memory_budget_exit_1(capsys, argv):
    # --n 40 used to die in numpy ("Unable to allocate 16.0 TiB"); the
    # size is computed before anything is allocated.  At N = 40 the
    # planner's first allocation would fail at once, so a missing guard
    # cannot make this test take gigabytes.
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ghz on ")
    assert "GiB at its peak, beyond the 1 GiB budget" in err


@pytest.mark.parametrize("argv, admitted", [
    # a Fock start on the full engine holds the coupled basis (about
    # 32 MiB here with its build and BLAS buffers), not a 15360-square
    # generator
    (("ghz", "--n", "10", "--engine", "full", "--g", "1", "--delta", "10",
      "--fock-cutoff", "14"), True),
    # a thermal start forms a D x D density matrix per branch at read-out
    (("ghz", "--n", "10", "--engine", "full", "--g", "1", "--delta", "10",
      "--fock-cutoff", "14", "--nbar", "0.2"), False),
    # the decay engine's density matrix alone is 1.44 GB
    (("ghz-three-level", "--n", "6", "--engine", "lindblad", "--delta", "10",
      "--fock-cutoff", "12"), False),
    (("ghz-three-level", "--n", "4", "--engine", "lindblad", "--delta", "10",
      "--fock-cutoff", "14"), True),
    # the Effective engine holds about twelve d^N-long arrays at once
    (("ghz", "--n", "22"), True),
    (("ghz", "--n", "24"), False),
    # the widest diagonal pair (spin 3/2, 14 copies) runs on a float64
    # ring: 974 MiB in all, against 1132 MiB with a complex ring; the run
    # from the vacuum rose 418 MB in peak RSS
    (("ghz", "--n", "7", "--engine", "lindblad", "--delta", "10", "--fock-cutoff", "15"), True),
    # q is 328 MiB here; the six A x A arrays of compare-frames, once
    # charged to every full run, made it 4.5 GiB
    (("ghz-three-level", "--n", "8", "--engine", "full", "--g", "1", "--delta", "10",
      "--fock-cutoff", "8"), True),
    # a decay stage holds at most three stacks besides its input, so nine
    # D x D arrays (73 MiB each here) cover the measurement's read-out:
    # 969 MiB, against 1115 MiB when eleven were charged; the run rose
    # 652 MiB in peak RSS
    (("measure-reduce", "--n", "4", "--engine", "lindblad", "--delta", "10",
      "--fock-cutoff", "26"), True),
])
def test_memory_guard_sizes_the_engines_arrays(argv, admitted):
    config = cli._merge_config(cli._build_parser().parse_args(["protocol", *argv]))
    if admitted:
        assert 0 < cli._check_memory(config) <= cli.MEMORY_BUDGET
    else:
        with pytest.raises(cli.ConfigError, match="GiB at its peak"):
            cli._check_memory(config)


# the child runs one request with the guard reporting its figure instead
# of refusing, and prints that figure and its own peak-RSS rise since
# the import, in bytes
RSS_PROBE = """
import contextlib, io, sys
from spincavity import cli

def rss(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key))

figures, check = [], cli._check_memory

def report(config, frames=False):
    cli.MEMORY_BUDGET = float("inf")
    figures.append(check(config, frames))
    return figures[-1]

cli._check_memory = report
base = rss("VmRSS:")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, max(figures), rss("VmHWM:") - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("argv", [
    ("protocol", "ghz", "--n", "19"),
    ("protocol", "ghz", "--n", "20"),
    ("protocol", "ghz", "--n", "11", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "14"),
    ("protocol", "ghz-three-level", "--n", "8", "--engine", "full", "--g", "1",
     "--delta", "10", "--fock-cutoff", "8"),
    ("protocol", "ghz", "--n", "6", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "14", "--nbar", "0.2"),
    ("protocol", "ghz", "--n", "11", "--system", "ion", "--engine", "full", "--delta", "1",
     "--fock-cutoff", "10"),
    ("protocol", "ghz", "--n", "12", "--system", "ion", "--engine", "full", "--delta", "1",
     "--fock-cutoff", "10"),
    ("protocol", "ghz", "--n", "5", "--engine", "lindblad", "--g", "1", "--delta", "5",
     "--fock-cutoff", "15", "--kappa", "0.01"),
    ("protocol", "ghz", "--n", "6", "--engine", "lindblad", "--g", "1", "--delta", "6",
     "--fock-cutoff", "12", "--kappa", "0.01"),
    ("compare-frames", "ghz", "--n", "10", "--g", "1", "--delta", "10", "--fock-cutoff", "10"),
], ids=["effective-19", "effective-20", "full-11", "full-qutrit-8", "full-thermal-6",
        "ion-11", "ion-12", "lindblad-5", "lindblad-6", "compare-frames-10"])
def test_memory_guard_bounds_the_measured_rise(argv):
    # the guard is an upper bound on what a run really takes: each
    # request's peak-RSS rise (50-360 MiB here) stays at or below the
    # guard's figure.  RSS depends on the allocator and BLAS, so no lower
    # bound is checked.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", RSS_PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, figure, rise = (int(word) for word in done.stdout.split())
    assert code == 0
    assert rise <= figure, f"rise {rise / 2**20:.1f} MiB > guard {figure / 2**20:.1f} MiB"


def test_sweep_releases_each_point_before_the_next_runs(monkeypatch, capsys):
    # cmd_sweep used to keep the previous point's result, with every
    # branch's density matrix, alive while the next point ran
    refs, alive = [], []
    run = cli.run_plan

    def tracked(plan, engine):
        alive.append([ref() is not None for ref in refs])
        result = run(plan, engine=engine)
        refs.append(weakref.ref(result))
        refs.extend(weakref.ref(b.state) for b in result.branches)
        return result

    monkeypatch.setattr(cli, "run_plan", tracked)
    code, out, err = _run(capsys, "sweep", "ghz", "--n", "2", "--engine", "lindblad", "--g", "1",
                          "--delta", "4.1", "--fock-cutoff", "6", "--sweep-param", "kappa",
                          "--sweep-from", "0.05", "--sweep-to", "0.1", "--sweep-steps", "2",
                          "--format", "csv")
    assert code == 0, err
    assert alive == [[], [False, False]]


def test_effective_run_sized_by_its_state_column(capsys):
    # the Effective engine holds d^N state columns, never a d^N x d^N
    # matrix, so N = 14 qubits (a 256 KiB column) is inside the budget
    code, out, err = _run(capsys, "protocol", "ghz", "--n", "14")
    assert code == 0, err
    branch = json.loads(out)["branches"][0]
    assert branch["fidelity"] >= 1.0 - 1e-9


def test_atom_levels_match_the_planners():
    lam = 0.05
    for name, planner in cli.PLANNERS.items():
        plan = planner(lam) if name == "two-atom-qutrit" else planner(4, lam)
        assert plan.space.atom_dim == cli.ATOM_LEVELS[name]


def test_malformed_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = _run(capsys, "protocol", "--config", str(cfg))
    assert code == 1


@pytest.mark.parametrize("flag, value", [
    ("--nbar", "-1"),
    ("--nbar", "nan"),
    ("--g", "nan"),
    ("--delta", "nan"),
    ("--delta", "inf"),
    ("--kappa", "nan"),
])
def test_non_finite_or_negative_occupation_exit_1(capsys, flag, value):
    # a negative or NaN nbar used to run the vacuum start and exit 0;
    # NaN couplings used to fail deep in the planners
    code, out, err = _run(capsys, "protocol", "ghz", "--n", "2", "--engine", "full",
                          "--delta", "5", flag, value)
    assert code == 1
    assert out == ""
    assert f"config error: {flag} must be" in err


@pytest.mark.parametrize("argv", [
    ("protocol", "ghz", "--n", "2", "--kappa", "0.5"),
    ("protocol", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "6", "--kappa", "0.5", "--format", "csv"),
    ("protocol", "ghz", "--n", "2", "--engine", "full-ion", "--delta", "2",
     "--fock-cutoff", "6", "--kappa", "0.5"),
    ("sweep", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "6", "--sweep-param", "kappa", "--sweep-from", "0",
     "--sweep-to", "0.2", "--sweep-steps", "2"),
    ("sweep", "ghz", "--n", "2", "--kappa", "0.1", "--sweep-param", "g",
     "--sweep-from", "1", "--sweep-to", "2", "--sweep-steps", "2"),
    ("compare-frames", "ghz", "--n", "2", "--g", "1", "--delta", "10",
     "--fock-cutoff", "8", "--kappa", "0.5"),
])
def test_decay_rate_off_the_decay_engine_exit_1(capsys, argv):
    # --kappa used to be dropped on every engine but lindblad: a decay
    # run on the wrong engine printed a decay-free report and exit 0
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("config error: --kappa ")
    assert "needs --engine lindblad" in err


def test_decay_rate_in_a_config_file_needs_the_decay_engine(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "engine": "full", "delta": 10,
                               "fock_cutoff": 6, "kappa": 0.5}))
    code, out, err = _run(capsys, "protocol", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "needs --engine lindblad" in err
    code, out, err = _run(capsys, "protocol", "--config", str(cfg), "--engine", "lindblad",
                          "--format", "csv")
    assert code == 0, err
    assert out.startswith("branch,probability,fidelity\n")


def test_sweep_to_negative_occupation_exit_1(capsys):
    code, _, err = _run(capsys, "sweep", "ghz", "--engine", "full", "--delta", "5",
                        "--sweep-param", "nbar", "--sweep-from", "-1",
                        "--sweep-to", "0", "--sweep-steps", "2")
    assert code == 1
    assert "--nbar must be non-negative" in err


def test_thermal_needs_large_cutoff_exit_1(capsys):
    code, _, err = _run(capsys, "protocol", "ghz", "--engine", "full",
                        "--delta", "10", "--nbar", "1", "--fock-cutoff", "12")
    assert code == 1
    assert "fock-cutoff" in err


def test_thermal_start_checks_leakage_on_the_mixture(capsys):
    # the n = 10 column (weight 1e-11) leaks 0.19 into the top Fock
    # levels, but the thermal mixture leaks only ~1e-10
    code, out, err = _run(capsys, "protocol", "ghz", "--n", "2", "--engine", "full",
                          "--g", "1", "--delta", "5", "--nbar", "0.1",
                          "--fock-cutoff", "12")
    assert code == 0, err
    branch = json.loads(out)["branches"][0]
    assert branch["probability"] == pytest.approx(1.0, abs=1e-9)
    assert branch["fidelity"] > 0.9


# bad input that used to escape main() as a traceback (an unwritable
# --out, finite flags whose lambda, t or omega overflow, a kappa whose
# substep count overflows), never ended (a kappa whose decay stage takes
# about 1e301 products) or that one engine accepted and another refused
# (g < 0, eta outside [0, 1)); "{missing}" is a path under a directory
# that does not exist
DECAY_GHZ = ("protocol", "ghz", "--n", "2", "--engine", "lindblad", "--fock-cutoff", "4",
             "--delta", "5")
BAD_INPUT = [
    (("protocol", "ghz", "--out", "{missing}"),
     "config error: cannot write --out {missing}: no directory {folder}"),
    (("protocol", "ghz", "--out", "{tmp}", "--force"),
     "config error: cannot write --out {tmp}: Is a directory"),
    (("protocol", "ghz", "--delta", "1e300"),
     "config error: drive index 10 |delta| t / pi is not finite (delta = 1e+300, "
     "t = 1.5707963267948966e+300); the coupling is too weak"),
    (("protocol", "ghz", "--g", "1e200"),
     "config error: effective coupling g^2 / (2 delta) = inf is not finite"),
    (("protocol", "ghz", "--system", "ion", "--delta", "1e-310"),
     "config error: stage time 0.0 is not positive and finite; lam is out of range"),
    (("protocol", "ghz", "--engine", "full", "--delta", "5", "--nbar", "1e300"),
     "config error: nbar 1e+300 is too large for a truncated thermal state"),
    (("protocol", "ghz", "--g", "-1"), "config error: --g must be non-negative, got -1.0"),
    (("protocol", "ghz", "--engine", "full", "--g", "-1", "--delta", "5"),
     "config error: --g must be non-negative, got -1.0"),
    (("protocol", "ghz", "--system", "ion", "--eta", "1.5"),
     "config error: --eta must lie in [0, 1), got 1.5"),
    (("protocol", "ghz", "--engine", "full-ion", "--eta", "1.5", "--delta", "2"),
     "config error: --eta must lie in [0, 1), got 1.5"),
    (("sweep", "ghz", "--system", "ion", "--sweep-param", "eta", "--sweep-from", "0.5",
      "--sweep-to", "1.5", "--sweep-steps", "3"),
     "config error: --eta must lie in [0, 1), got 1.0"),
    (DECAY_GHZ + ("--kappa", "5e307"),
     "config error: the decay stage needs at least inf Chebyshev series terms "
     "(substeps x series length), more than 1e+07"),
    (DECAY_GHZ + ("--kappa", "1e300"),
     "config error: the decay stage needs at least 3.142e+301 Chebyshev series terms "
     "(substeps x series length), more than 1e+07"),
    # an engine alias that names the other system ran that engine while
    # the report echoed the system flag
    (("protocol", "ghz", "--system", "cavity", "--engine", "full-ion", "--delta", "2"),
     "config error: --system cavity contradicts --engine full-ion"),
    (("protocol", "ghz", "--system", "ion", "--engine", "full-cavity", "--delta", "5"),
     "config error: --system ion contradicts --engine full-cavity"),
    # a config file's sweep_param takes the flag's choices: "protocol"
    # used to end in a KeyError traceback, and integer fields were swept
    # with floats
    (("sweep", "--config", "{sweep_protocol}"), "config error: unknown sweep_param 'protocol'"),
    (("sweep", "--config", "{sweep_fock_cutoff}"),
     "config error: unknown sweep_param 'fock_cutoff'"),
    (("sweep", "--config", "{sweep_seed}"), "config error: unknown sweep_param 'seed'"),
    (("sweep", "--config", "{sweep_n}"), "config error: unknown sweep_param 'n'"),
]
#: the config files BAD_INPUT names as "{sweep_<param>}"
SWEEP_CONFIGS = {param: {"protocol": "ghz", "sweep_param": param, "sweep_from": 1,
                         "sweep_to": 2, "sweep_steps": 2}
                 for param in ("protocol", "fock_cutoff", "seed", "n")}


@pytest.mark.parametrize("argv, line", BAD_INPUT, ids=[
    "out-no-directory", "out-is-directory", "delta-1e300", "g-1e200", "ion-delta-1e-310",
    "nbar-1e300", "g-negative", "g-negative-full", "eta-1.5", "eta-1.5-full-ion",
    "eta-sweep", "kappa-5e307", "kappa-1e300", "cavity-full-ion", "ion-full-cavity",
    "sweep-param-protocol", "sweep-param-fock-cutoff", "sweep-param-seed", "sweep-param-n"])
def test_bad_input_exit_1_with_one_line(tmp_path, capsys, argv, line):
    missing = tmp_path / "absent" / "x.json"
    paths = {"missing": str(missing), "folder": str(missing.parent), "tmp": str(tmp_path)}
    for param, values in SWEEP_CONFIGS.items():
        paths[f"sweep_{param}"] = str(tmp_path / f"sweep-{param}.json")
        Path(paths[f"sweep_{param}"]).write_text(json.dumps(values))
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out, err) == (1, "", line.format(**paths) + "\n")
    assert not missing.parent.exists()


@pytest.mark.parametrize("system, engine, code", [
    ("cavity", "full-ion", 1), ("ion", "full-cavity", 1), ("ion", "full-ion", 0),
    ("cavity", "full-cavity", 0)])
def test_system_key_must_agree_with_an_engine_alias(tmp_path, capsys, system, engine, code):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"protocol": "ghz", "system": system, "engine": engine,
                               "delta": 2.0, "fock_cutoff": 8}))
    got, out, err = _run(capsys, "protocol", "--config", str(cfg))
    assert got == code
    if code:
        assert err == f"config error: --system {system} contradicts --engine {engine}\n"
    else:
        assert json.loads(out)["config_echo"]["system"] == system


@pytest.mark.parametrize("engine, system, flags", [
    ("full-cavity", "cavity", ("--g", "1", "--delta", "5", "--fock-cutoff", "8")),
    ("full-ion", "ion", ("--delta", "1", "--fock-cutoff", "6"))], ids=["full-cavity", "full-ion"])
def test_engine_alias_echoes_its_system(capsys, engine, system, flags):
    # full-ion ran the ion while its report echoed "system": "cavity"
    code, out, err = _run(capsys, "protocol", "ghz", "--n", "2", "--engine", engine, *flags)
    assert code == 0, err
    alias = json.loads(out)
    code, out, err = _run(capsys, "protocol", "ghz", "--n", "2", "--engine", "full",
                          "--system", system, *flags)
    assert code == 0, err
    spelled = json.loads(out)
    assert alias.pop("config_echo")["system"] == spelled.pop("config_echo")["system"] == system
    assert (alias.pop("engine"), spelled.pop("engine")) == (engine, "full")
    assert alias == spelled


def _flags(command: str) -> dict:
    """The option actions of one subcommand's parser, by destination."""
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    actions = [action for action in sub.choices[command]._actions if action.option_strings]
    assert len({action.dest for action in actions}) == len(actions)
    return {action.dest: action for action in actions}


@pytest.mark.parametrize("command", ["protocol", "sweep", "compare-frames"])
def test_every_run_config_field_has_one_flag(command):
    # RunConfig declares the options once: each field but the positional
    # protocol is one flag, of the field's type, taking the same values a
    # config file may hold
    choices = {"system": ("cavity", "ion"),
               "engine": ("effective", "full", "full-cavity", "full-ion", "lindblad"),
               "format": ("json", "csv"),
               "sweep_param": ("g", "delta", "eta", "nu", "nbar", "kappa")}
    assert cli.CHOICES == choices
    flags = _flags(command)
    names = [f.name for f in fields(cli.RunConfig)[1:]
             if command == "sweep" or not f.name.startswith("sweep_")]
    assert sorted(flags) == sorted(["help", "config", *names])
    hints = get_type_hints(cli.RunConfig)
    for name in names:
        action = flags[name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        kind, = (k for k in get_args(hints[name]) or (hints[name],) if k is not type(None))
        if kind is bool:
            assert isinstance(action, argparse._StoreTrueAction) and action.default is None
        else:
            assert action.type is kind
        assert action.choices == choices.get(name)


def test_strong_decay_within_the_work_budget_still_runs(capsys):
    code, out, err = _run(capsys, *DECAY_GHZ, "--kappa", "10")
    assert (code, err) == (0, "")
    assert json.loads(out)["branches"][0]["probability"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name, n", [
    ("ghz", 2), ("ghz", 3), ("ghz", 8), ("ghz-three-level", 2), ("ghz-three-level", 6),
    ("measure-reduce", 4), ("measure-reduce", 6), ("ghz-four-level", 2),
    ("ghz-four-level", 4), ("two-atom-qutrit", 2),
])
def test_target_legs_match_a_scan_of_every_index(name, n):
    lam = 0.05
    plan = PLANNERS[name](lam) if name == "two-atom-qutrit" else PLANNERS[name](n, lam)
    scanned = []
    for idx in range(plan.space.dim):
        if abs(plan.target.amplitudes[idx]) > 1e-12:
            levels, _ = decode_index(plan.space, idx)
            scanned.append("".join(LEVEL_LABELS[level] for level in levels))
    assert cli._target_legs(plan) == scanned


def test_importing_the_cli_leaves_the_integrator_and_optimizer_unloaded():
    # only the reference integrator and the frequency fit use scipy's
    # integrate and optimize: the pure engines, full and effective, run
    # on numpy alone, and the decay engine on numpy and the extension
    # module of scipy's CSR kernels, loaded without the scipy.sparse
    # package; its Bessel coefficients need no scipy.special
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, io, sys, spincavity.cli as cli\n"
            "loaded = lambda names: sorted(m for m in names if m in sys.modules)\n"
            "print(loaded(('scipy.integrate', 'scipy.optimize')))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['protocol', 'ghz', '--n', '3', '--engine', 'full', '--delta',\n"
            "                       '4.9', '--fock-cutoff', '7']),\n"
            "             cli.main(['protocol', 'ghz', '--n', '10'])]\n"
            "print(codes, loaded(('scipy.linalg', 'scipy.sparse', 'scipy.special')))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['protocol', 'ghz', '--n', '2', '--engine', 'lindblad', '--delta',\n"
            "                     '4.1', '--fock-cutoff', '6', '--kappa', '0.1'])\n"
            "print(code, loaded(('scipy.sparse', 'scipy.special')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "[]\n[0, 0] []\n0 []\n", "")


# ------------------------------------------------------------ physics errors


def test_truncation_failure_exit_2(capsys):
    # near-resonant strong coupling on a tiny mode: population hits the
    # top Fock levels and the run must fail as a physics error
    code, _, err = _run(capsys, "protocol", "ghz", "--n", "2",
                        "--engine", "full", "--g", "1", "--delta", "1.2",
                        "--fock-cutoff", "3")
    assert code == 2
    assert "physics error" in err


# the parser is built once per process; one main() after another must
# answer exactly as a fresh interpreter does, also after a parse error
MAIN_SEQUENCE = [
    ("protocol", "ghz", "--n", "3", "--format", "csv"),
    ("protocol", "ghz", "--engine", "warp"),
    ("sweep", "ghz", "--n", "2", "--sweep-param", "g", "--sweep-from", "0.5",
     "--sweep-to", "1", "--sweep-steps", "2", "--format", "csv"),
    ("--help",),
]


def _fresh_process(argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), "COLUMNS": "80", "PATH": ""}
    done = subprocess.run([sys.executable, "-m", "spincavity.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_main_sequence_matches_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    in_process = []
    for argv in MAIN_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 1, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    assert in_process == [_fresh_process(argv) for argv in MAIN_SEQUENCE]
