"""Stored CLI reports: every command, format and engine spelling, thermal
starts, seeded measurements, one sweep per engine, compare-frames on
both systems and refused inputs, against the outputs kept in
report_fixtures.json.

Keys, strings, integers and exit codes must match exactly, and a refused
request must print the same one error line; floats may move by
FLOAT_TOL (absolute), so a change that only reorders rounding passes and
one that changes a report does not.  After a change that is meant to
alter reports, record them again with

    PYTHONPATH=src python tests/test_report_fixtures.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from spincavity import cli

FIXTURES = Path(__file__).with_name("report_fixtures.json")
FLOAT_TOL = 1e-10

DECAY = ("--engine", "lindblad", "--g", "1", "--fock-cutoff", "6")
REQUESTS = [
    ("list-protocols",),
    # every engine spelling, both formats
    ("protocol", "ghz", "--n", "3"),
    ("protocol", "ghz", "--n", "3", "--format", "csv"),
    ("protocol", "two-atom-qutrit"),
    ("protocol", "ghz-four-level", "--n", "2", "--format", "csv"),
    ("protocol", "ghz-three-level", "--n", "2", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "6"),
    ("protocol", "ghz", "--n", "3", "--engine", "full-cavity", "--g", "1", "--delta", "6",
     "--fock-cutoff", "8"),
    ("protocol", "ghz", "--n", "2", "--engine", "full-cavity", "--g", "1", "--delta", "5",
     "--fock-cutoff", "8", "--format", "csv"),
    ("protocol", "ghz", "--n", "2", "--engine", "full-ion", "--delta", "1", "--fock-cutoff", "6"),
    ("protocol", "ghz", "--n", "2", "--system", "ion", "--engine", "full", "--delta", "1",
     "--fock-cutoff", "6", "--format", "csv"),
    ("protocol", "ghz", "--n", "2", *DECAY, "--delta", "4.1", "--kappa", "0.2"),
    ("protocol", "ghz", "--n", "2", *DECAY, "--delta", "4.1", "--kappa", "0.2",
     "--format", "csv"),
    ("protocol", "ghz-three-level", "--n", "2", "--engine", "lindblad", "--g", "1",
     "--delta", "10", "--fock-cutoff", "4", "--kappa", "0.05"),
    ("protocol", "ghz-four-level", "--n", "2", "--engine", "lindblad", "--g", "1",
     "--delta", "10", "--fock-cutoff", "4", "--kappa", "0.02"),
    # thermal starts: a full engine's initial mode, the decay engine's
    # initial mode and bath
    ("protocol", "two-atom-qutrit", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "8", "--nbar", "0.05"),
    ("protocol", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "10", "--nbar", "0.1"),
    ("protocol", "ghz", "--n", "2", "--engine", "lindblad", "--g", "1", "--delta", "6",
     "--fock-cutoff", "10", "--kappa", "0.1", "--nbar", "0.1"),
    # seeded measure-reduce; cutoff 2 keeps the decay run cheap (a mode
    # of dimension 3 has no leakage monitor)
    ("protocol", "measure-reduce", "--n", "4", "--seed", "5"),
    ("protocol", "measure-reduce", "--n", "4", "--seed", "5", "--format", "csv"),
    ("protocol", "measure-reduce", "--n", "4", "--engine", "lindblad", "--g", "1",
     "--delta", "6", "--fock-cutoff", "2", "--kappa", "0.05", "--seed", "5"),
    # one sweep per engine
    ("sweep", "ghz", "--n", "3", "--sweep-param", "g", "--sweep-from", "0.5", "--sweep-to", "1",
     "--sweep-steps", "3"),
    ("sweep", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "8",
     "--fock-cutoff", "6", "--sweep-param", "delta", "--sweep-from", "8", "--sweep-to", "10",
     "--sweep-steps", "2", "--format", "csv"),
    ("sweep", "ghz", "--n", "2", "--engine", "full-ion", "--delta", "1", "--fock-cutoff", "6",
     "--sweep-param", "eta", "--sweep-from", "0.04", "--sweep-to", "0.06", "--sweep-steps", "2"),
    ("sweep", "ghz", "--n", "2", *DECAY, "--delta", "4.1", "--sweep-param", "kappa",
     "--sweep-from", "0.01", "--sweep-to", "0.5", "--sweep-steps", "3", "--format", "csv"),
    # compare-frames on both systems
    ("compare-frames", "ghz", "--n", "2", "--g", "1", "--delta", "8", "--fock-cutoff", "6"),
    ("compare-frames", "ghz", "--n", "2", "--system", "ion", "--delta", "1", "--fock-cutoff", "6",
     "--format", "csv"),
    # refused: exit 1 for configuration, 2 for physics
    ("protocol",),
    ("protocol", "nosuch"),
    ("protocol", "ghz", "--engine", "warp"),
    ("protocol", "ghz", "--n", "2", "--eta", "1.5"),
    ("protocol", "ghz", "--n", "2", "--engine", "full", "--fock-cutoff", "6"),
    ("protocol", "ghz", "--n", "2", "--kappa", "0.1"),
    ("protocol", "ghz", "--n", "2", "--system", "ion", "--engine", "lindblad", "--delta", "1",
     "--kappa", "0.1"),
    ("protocol", "ghz", "--n", "24"),
    ("protocol", "two-atom-qutrit", "--n", "3"),
    ("protocol", "measure-reduce", "--n", "3"),
    ("protocol", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "10",
     "--fock-cutoff", "3", "--nbar", "0.5"),
    ("compare-frames", "ghz", "--n", "2", "--engine", "lindblad", "--delta", "4",
     "--kappa", "0.1"),
    ("sweep", "ghz", "--n", "2"),
    ("protocol", "ghz", "--n", "2", "--engine", "full", "--g", "1", "--delta", "1.2",
     "--fock-cutoff", "3"),
    ("protocol", "measure-reduce", "--n", "4", "--engine", "lindblad", "--g", "1",
     "--delta", "7", "--fock-cutoff", "4", "--kappa", "0.05"),
]


def _parse(argv, out: str):
    """The report as data: JSON as parsed, CSV as rows whose numeric
    fields are floats, list-protocols as its lines."""
    if argv[0] == "list-protocols":
        return out.splitlines()
    if "csv" in argv:
        return [[_csv_field(v) for v in line.split(",")] for line in out.splitlines()]
    return json.loads(out)


def _csv_field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _request(argv) -> dict:
    """What one in-process request leaves: its exit code, its report as
    data (None when refused) and its error line ("" on success)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "report": _parse(argv, out.getvalue()) if code == 0 else None,
            "error": err.getvalue().rstrip("\n"), "stdout_empty": out.getvalue() == ""}


def _mismatch(got, want, path="report"):
    """The first place where got differs from want, or None: floats
    within FLOAT_TOL, everything else exactly, type included."""
    if isinstance(want, float) and isinstance(got, float):
        return None if abs(got - want) <= FLOAT_TOL else f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        items = [(got[key], want[key], f"{path}.{key}") for key in sorted(want)]
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        items = [(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    for g, w, where in items:
        found = _mismatch(g, w, where)
        if found:
            return found
    return None


def _key(argv) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def stored():
    return json.loads(FIXTURES.read_text(encoding="utf-8"))


def test_every_request_has_a_stored_report(stored):
    assert sorted(stored) == sorted(_key(argv) for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=_key)
def test_report_matches_the_stored_one(argv, stored):
    got = _request(argv)
    want = stored[_key(argv)]
    assert (got["code"], got["error"]) == (want["code"], want["error"])
    assert got["error"].count("\n") == 0
    assert got["stdout_empty"] == (want["code"] != 0)
    mismatch = _mismatch(got["report"], want["report"])
    assert mismatch is None, mismatch


def test_the_comparison_allows_float_rounding_only():
    want = {"a": [1.0, 2, "x"], "b": {"c": 0.5}}
    assert _mismatch({"a": [1.0 + 5e-11, 2, "x"], "b": {"c": 0.5}}, want) is None
    assert _mismatch({"a": [1.0 + 2e-10, 2, "x"], "b": {"c": 0.5}}, want) is not None
    assert _mismatch({"a": [1.0, 2.0, "x"], "b": {"c": 0.5}}, want) is not None
    assert _mismatch({"a": [1.0, 3, "x"], "b": {"c": 0.5}}, want) is not None
    assert _mismatch({"a": [1.0, 2, "y"], "b": {"c": 0.5}}, want) is not None
    assert _mismatch({"a": [1.0, 2, "x"], "b": {"d": 0.5}}, want) is not None
    assert _mismatch({"a": [1.0, 2], "b": {"c": 0.5}}, want) is not None


if __name__ == "__main__":
    records = {}
    for argv in REQUESTS:
        got = _request(argv)
        records[_key(argv)] = {key: got[key] for key in ("code", "error", "report")}
    FIXTURES.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} reports in {FIXTURES}", file=sys.stderr)
