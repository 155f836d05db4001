"""CLI behaviour: commands, exit codes, report schema (golden files)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

IDENTITY_FILE = {
    "p": 1,
    "n": 1,
    "coefficients": [[0.5, 0.0], [0.25, 0.0]],
}

BLEND_FILE = {
    "p": 2,
    "n": 1,
    "m": 1,
    "lambda": 0.5,
    "Omega": 1,
    "coefficients": [[1.0, 0.0]],
}


def run_cli(*args, cwd=None):
    # The child finds pvalent through the absolute src path, so the CLI runs
    # from any working directory whether or not the package is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pvalent", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_identity_parameters(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    result = run_cli("apply", src)
    assert result.returncode == 0
    rows = [line.split() for line in result.stdout.splitlines() if not line.startswith("#")]
    assert rows == [["1", "1.0", "0.0"], ["2", "0.5", "0.0"], ["3", "0.25", "0.0"]]


def test_apply_blend_hand_case(tmp_path):
    src = write_json(tmp_path / "f.json", BLEND_FILE)
    result = run_cli("apply", src)
    assert result.returncode == 0
    rows = [line.split() for line in result.stdout.splitlines() if not line.startswith("#")]
    assert rows == [["1", "2.0", "0.0"], ["2", "9.0", "0.0"]]
    primed = run_cli("apply", src, "--prime")
    rows = [line.split() for line in primed.stdout.splitlines() if not line.startswith("#")]
    assert rows == [["0", "2.0", "0.0"], ["1", "18.0", "0.0"]]


def test_apply_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 1, "n": 1, "coefficients": [[1.0,]]}', encoding="utf-8")
    result = run_cli("apply", bad)
    assert result.returncode == 2
    assert "line" in result.stderr and "column" in result.stderr


def test_apply_domain_violation(tmp_path):
    doc = dict(IDENTITY_FILE)
    doc["m"] = 1  # p = 1 <= m
    src = write_json(tmp_path / "f.json", doc)
    result = run_cli("apply", src)
    assert result.returncode == 3


def test_apply_semantic_validation_messages(tmp_path):
    src = write_json(tmp_path / "f.json", {"p": 1, "coefficients": []})
    result = run_cli("apply", src)
    assert result.returncode == 2
    assert "'n'" in result.stderr
    src = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": [[1.0]]})
    result = run_cli("apply", src)
    assert result.returncode == 2
    assert "coefficients[0]" in result.stderr


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_identical_files_holds(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    result = run_cli(
        "check", src, src, "--criterion", "suff-n", "--delta", "1.5",
        "--alpha", "pi*0.25", "--beta", "pi*0.25",
    )
    assert result.returncode == 0
    assert "holds     : yes" in result.stdout
    assert "lhs       : 0.0" in result.stdout


def test_check_failing_criterion_exits_one(tmp_path):
    f = write_json(tmp_path / "f.json", {"p": 1, "n": 1, "coefficients": [[5.0, 0.0]]})
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": [[0.0, 0.0]]})
    result = run_cli("check", f, g, "--criterion", "suff-n", "--delta", "1.0")
    assert result.returncode == 1
    assert "holds     : no" in result.stdout


def test_check_incompatible_files(tmp_path):
    f = write_json(tmp_path / "f.json", IDENTITY_FILE)
    g = write_json(tmp_path / "g.json", {**IDENTITY_FILE, "n": 2})
    result = run_cli("check", f, g, "--criterion", "suff-n", "--delta", "1.0")
    assert result.returncode == 3
    assert "(p, n)" in result.stderr


def test_check_inadmissible_delta(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    result = run_cli(
        "check", src, src, "--criterion", "member-n", "--delta", "0.5",
        "--beta", "pi*1",  # bound is 2
    )
    assert result.returncode == 3


def test_check_oversized_grid_is_a_domain_error(tmp_path):
    # an unbounded grid used to die in numpy with a traceback and exit 1 ("fails")
    f = write_json(tmp_path / "f.json", IDENTITY_FILE)
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": [[0.25, 0.0]]})
    result = run_cli(
        "check", f, g, "--criterion", "thm211", "--delta", "2.5", "--grid", "100000000000"
    )
    assert result.returncode == 3, result.stderr
    assert "grid must be at most" in result.stderr
    assert "Traceback" not in result.stderr


HUGE_OMEGA_FILE = {
    "p": 1,
    "n": 1,
    "Omega": 600,
    "coefficients": [[0.1, 0.0]] * 5,
}


def test_weight_overflow_is_a_domain_error(tmp_path):
    # 6^600 overflows a float: this used to be an OverflowError traceback and exit 1
    src = write_json(tmp_path / "f.json", HUGE_OMEGA_FILE)
    runs = [
        run_cli("apply", src),
        run_cli("check", src, src, "--criterion", "suff-m", "--delta", "1.0"),
        run_cli("check", src, src, "--criterion", "member-m", "--delta", "1.0"),
    ]
    for result in runs:
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error: operator weight overflows a float")
        assert "Traceback" not in result.stderr


def test_unexpected_exception_exits_four(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC))
    from pvalent import cli, criteria

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(criteria, "sufficient_n", crash)
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    code = cli.main(["check", str(src), str(src), "--criterion", "suff-n", "--delta", "1.0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 4
    assert err == "error: internal error: RuntimeError: boom\n"


def test_check_nec_requires_phi(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    result = run_cli(
        "check", src, src, "--criterion", "nec-n", "--delta", "2.0",
        "--alpha", "0", "--beta", "1.0",
    )
    assert result.returncode == 2
    assert "--phi" in result.stderr


def test_check_membership_reports_sufficient_companion(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    out = tmp_path / "report.json"
    result = run_cli(
        "check", src, src, "--criterion", "member-n", "--delta", "1.0", "--out", out,
    )
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "check_report"
    assert doc["implied_by_sufficient"] is True
    assert doc["sufficient_side"]["holds"] is True
    assert doc["falsification"] is False
    assert "sum criterion holds" in result.stdout


def test_check_thm211_reports_both_verdicts(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    out = tmp_path / "report.json"
    result = run_cli(
        "check", src, src, "--criterion", "thm211", "--delta", "1.0", "--out", out,
    )
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["hypothesis"]["holds"] is True
    assert doc["verdict"]["holds"] is True


def test_check_unknown_criterion_usage_error(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    result = run_cli("check", src, src, "--criterion", "nope", "--delta", "1.0")
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_round_trip_margin(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": []})
    partner = tmp_path / "partner.json"
    result = run_cli(
        "construct", g, "--delta", "2.0", "-K", "50", "--out", partner,
    )
    assert result.returncode == 0
    # stdout carries the same function-file document
    assert json.loads(result.stdout) == json.loads(partner.read_text())
    check = run_cli(
        "check", partner, g, "--criterion", "suff-n", "--delta", "2.0",
        "--out", tmp_path / "check.json",
    )
    assert check.returncode == 0
    doc = json.loads((tmp_path / "check.json").read_text())
    # margin = (n+p-1)(delta-T)/(K+p) with T = 0 here
    expected = (1 + 1 - 1) * 2.0 / (50 + 1)
    assert abs(doc["verdict"]["margin"] - expected) <= 1e-9 * expected


def test_construct_single_term(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": []})
    result = run_cli("construct", g, "--delta", "2.0", "-K", "1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert len(doc["coefficients"]) == 1
    # one-term sum: (delta - T)/(n + p) = 2/2 = 1; weight (k+p) = 2 at k=1
    assert abs(doc["coefficients"][0][0] - 0.5) < 1e-12


def test_construct_degenerate_delta(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": []})
    result = run_cli("construct", g, "--delta", "1.0", "--beta", "pi*1", "-K", "10")
    assert result.returncode == 3


def test_construct_oversized_truncation_is_a_domain_error(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": []})
    result = run_cli("construct", g, "--delta", "2.0", "-K", str(2**20 + 1))
    assert result.returncode == 3, result.stderr
    assert "exceeds the maximum 1048576" in result.stderr
    assert result.stdout == ""


def test_construct_out_file_matches_stdout(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 3, "n": 2, "m": 1, "coefficients": [[0.1, 0.2]]})
    out = tmp_path / "partner.json"
    result = run_cli("construct", g, "--delta", "30.0", "-K", "9", "--out", out)
    assert result.returncode == 0, result.stderr
    assert out.read_text(encoding="utf-8") == result.stdout


def test_construct_preserves_real_positive_coefficients(tmp_path):
    g = write_json(tmp_path / "g.json", {"p": 2, "n": 1, "coefficients": []})
    result = run_cli("construct", g, "--delta", "3.0", "-K", "6")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    for re, im in doc["coefficients"]:
        assert re > 0.0 and im == 0.0


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_pass_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    a = run_cli("suite", "--suite", "telescoping_closed_form", "--trials", "4",
                "--seed", "9", "--out", out1)
    b = run_cli("suite", "--suite", "telescoping_closed_form", "--trials", "4",
                "--seed", "9", "--out", out2)
    assert a.returncode == 0 and b.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "result   : PASS" in a.stdout


def test_suite_unknown_name(tmp_path):
    result = run_cli("suite", "--suite", "nonexistent")
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# golden report schemas
# ---------------------------------------------------------------------------


def test_golden_check_report(tmp_path):
    f = write_json(tmp_path / "f.json", {"p": 1, "n": 1, "coefficients": [[0.6, 0.0]]})
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": [[0.5, 0.0]]})
    out = tmp_path / "report.json"
    result = run_cli(
        "check", "f.json", "g.json", "--criterion", "suff-n", "--delta", "2.0",
        "--out", out, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert out.read_bytes() == (GOLDEN / "check_report.json").read_bytes()


def test_golden_suite_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "suite", "--suite", "specialization_weights", "--trials", "3",
        "--seed", "7", "--out", out,
    )
    assert result.returncode == 0
    assert out.read_bytes() == (GOLDEN / "suite_report.json").read_bytes()


def test_golden_series_document(tmp_path):
    src = write_json(tmp_path / "f.json", BLEND_FILE)
    out = tmp_path / "series.json"
    result = run_cli("apply", src, "--out", out)
    assert result.returncode == 0
    assert out.read_bytes() == (GOLDEN / "series.json").read_bytes()


def test_angle_parsing_round_trip(tmp_path):
    src = write_json(tmp_path / "f.json", IDENTITY_FILE)
    # pi*1 and the numeric value of pi must agree exactly in the report
    # f against itself at beta = pi: lhs 3.5 <= delta - 2, so the check holds
    out = tmp_path / "r.json"
    result = run_cli("check", src, src, "--criterion", "suff-n", "--delta", "6.0",
                     "--beta", "pi*1", "--out", out)
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    assert doc["beta"] == math.pi
