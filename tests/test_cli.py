"""Command-line contract: flags, config files, formats, exit codes,
byte-stable reports."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from spincavity import cli
from spincavity.cli import main


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
    assert "GiB for its largest array, beyond the 1 GiB budget" in err


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
