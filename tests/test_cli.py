"""Command line behavior: exit codes, JSON report shape, file inputs,
and byte-level determinism of repeated runs."""

import json
import subprocess
import sys
import time

import pytest

from sympair.cli import SCHEMA_VERSION, main, pair_to_doc
from sympair.pairs import builtin_pair


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sympair", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_json(*argv):
    proc = run_cli(*argv)
    return proc.returncode, json.loads(proc.stdout)


# ---------------------------------------------------------------- reports

def test_check_pair_passes_on_builtins():
    for name in ("cotangent:abelian2", "cotangent:aff1", "swap:sl2"):
        code, doc = run_json("check-pair", name)
        assert code == 0
        assert doc["passed"] is True
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "check-pair"
        ids = [c["id"] for c in doc["checks"]]
        assert ids == sorted(ids)
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert len(doc["input_digest"]) == 64


def test_check_pair_text_mode():
    proc = run_cli("check-pair", "cotangent:heis3", "--text")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "RESULT" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_polarize_with_explicit_form():
    code, doc = run_json("polarize", "cotangent:aff1", "--form", "f1")
    assert code == 0
    assert doc["passed"] is True
    ids = {c["id"] for c in doc["checks"]}
    assert any("pukanszky" in cid for cid in ids)


def test_polarize_sampled():
    code, doc = run_json("polarize", "swap:sl2", "--seed", "7", "--count", "3")
    assert code == 0
    assert doc["passed"] is True


def test_rouviere_command():
    code, doc = run_json("rouviere", "cotangent:aff1", "--degree", "4")
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["info"]["invariants"]) == 5
    assert doc["info"]["j_is_one"] is True


def test_jfunction_command():
    code, doc = run_json("jfunction", "swap:sl2", "--degree", "4")
    assert code == 0
    assert doc["passed"] is True
    coeffs = {tuple(entry["exponent"]): entry["coeff"]
              for entry in doc["info"]["j_half"]}
    assert coeffs[(2, 0, 0)] == "2/3"
    jc = {tuple(entry["exponent"]): entry["coeff"]
          for entry in doc["info"]["j"]}
    assert jc[(2, 0, 0)] == "4/3"
    assert jc[(4, 0, 0)] == "32/45"


def test_jfunction_on_cotangent_is_flat():
    code, doc = run_json("jfunction", "cotangent:heis3", "--degree", "6")
    assert code == 0
    assert doc["info"]["j"] == [
        {"coeff": "1/1", "exponent": [0, 0, 0]}
    ]


# -------------------------------------------------------------- exit codes

def test_unknown_builtin_is_structured_error():
    proc = run_cli("check-pair", "cotangent:nope")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "ParseError"
    assert "builtins" in doc["error"]["message"]


def test_odd_jfunction_degree_is_usage_error():
    proc = run_cli("jfunction", "swap:sl2", "--degree", "3")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ("polarize", "swap:sl2", "--count", "-3"),
    ("rouviere", "swap:sl2", "--degree", "-2"),
])
def test_negative_count_or_degree_is_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "UsageError"


def test_large_rational_form_fails_fast(capsys):
    """|a0| ~ 1e24 in the characteristic polynomial: a structured exit-2
    error within a second, not a divisor enumeration that never returns."""
    start = time.perf_counter()
    code = main(["polarize", "swap:sl2", "--form", "1000003,999983,1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NonRationalSpectrum"


def test_malformed_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("check-pair", str(bad))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"


def test_failing_checks_exit_one(tmp_path):
    doc = pair_to_doc(builtin_pair("cotangent:aff1"))
    doc["B"] = [["1/1" if i == j else "0/1" for j in range(4)] for i in range(4)]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-pair", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert any(c["status"] == "fail" for c in report["checks"])


@pytest.mark.parametrize("argv, code, kind", [
    (("check-pair",), 1, None),
    (("polarize", "--count", "1"), 2, "ValidationError"),
    (("rouviere", "--degree", "2"), 2, "ValidationError"),
    (("jfunction", "--degree", "2"), 2, "ValidationError"),
])
def test_invalid_json_pair_exit_code(tmp_path, argv, code, kind):
    """Only check-pair reports a failing document as failed checks; the
    other subcommands reject it with a structured ValidationError."""
    doc = pair_to_doc(builtin_pair("cotangent:aff1"))
    doc["B"] = [["1/1" if i == j else "0/1" for j in range(4)] for i in range(4)]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == code
    report = json.loads(proc.stdout)
    if kind is None:
        assert report["passed"] is False
        assert any(c["status"] == "fail" for c in report["checks"])
    else:
        assert report["error"]["type"] == kind
        assert "B not invariant" in report["error"]["message"]


# -------------------------------------------------------------- file input

def test_json_roundtrip_of_builtin(tmp_path):
    doc = pair_to_doc(builtin_pair("cotangent:heis3"))
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(doc))
    code, report = run_json("check-pair", str(path))
    assert code == 0
    assert report["passed"] is True
    # same canonical content digests identically to the builtin target
    code2, report2 = run_json("check-pair", "cotangent:heis3")
    assert report["input_digest"] == report2["input_digest"]


def test_out_flag_writes_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check-pair", "cotangent:abelian2", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize(
    "argv",
    [
        ("check-pair", "cotangent:aff1"),
        ("polarize", "swap:sl2", "--seed", "5", "--count", "2"),
        ("rouviere", "cotangent:abelian2", "--degree", "2"),
        ("jfunction", "swap:sl2", "--degree", "4"),
    ],
)
def test_repeated_runs_are_byte_identical(argv):
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.returncode == b.returncode
    assert a.stdout == b.stdout
