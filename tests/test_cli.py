"""CLI behaviour: commands, exit codes, report schema (golden files)."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


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


def run_cli(*args, cwd=None, text=True, timeout=None):
    # The child finds pvalent through the absolute src path, so the CLI runs
    # from any working directory whether or not the package is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pvalent", *map(str, args)],
        capture_output=True,
        text=text,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def cli():
    """The in-process CLI module, imported from this checkout's src."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SRC))
        from pvalent import cli

        yield cli


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


HUGE_INT = "1" * 400  # a JSON integer beyond the float range


def test_apply_huge_integer_literals_are_file_errors(tmp_path):
    # these used to escape as an OverflowError: exit 4, "internal error"
    cases = {
        '"coefficients": [[0.5, 0], [1, %s]]' % HUGE_INT:
            "coefficients[1]: expected a [re, im] pair of finite numbers",
        '"lambda": -%s, "coefficients": []' % HUGE_INT:
            "key 'lambda' must be a finite number",
        # beyond json's 4300-digit limit on integer literals
        '"coefficients": [[%s, 0]]' % ("9" * 5000): "Exceeds the limit (4300 digits)",
    }
    for i, (body, message) in enumerate(cases.items()):
        src = tmp_path / f"f{i}.json"
        src.write_text('{"p": 1, "n": 1, %s}' % body, encoding="utf-8")
        result = run_cli("apply", src)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: {src}: {message}"), result.stderr


# a sign must touch its number, as for float: '- 1' is rejected like '--1'
@pytest.mark.parametrize("angle", ["--1", "+-1", "-+0.5", "- 1", "+ 0.5", "-\t1", "pi* 0.5"])
def test_angle_with_two_leading_signs_is_a_usage_error(cli, tmp_path, capsys, angle):
    f = str(write_json(tmp_path / "f.json", IDENTITY_FILE))
    code = cli.main(["check", f, f, "--criterion", "suff-n", "--delta", "1.0", f"--alpha={angle}"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"argument --alpha: invalid parse_angle value: {angle!r}" in err


def test_angle_keeps_surrounding_whitespace(cli):
    assert cli.parse_angle(" -1 ") == -1.0
    assert cli.parse_angle("\t+pi*0.5\n") == 0.5 * math.pi
    assert cli.parse_angle(" pi*-0.5") == -0.5 * math.pi


def test_apply_non_utf8_file_is_a_file_error(tmp_path):
    src = tmp_path / "f.json"
    src.write_bytes(b'{"p": 1, "n": 1, "coefficients": [], "note": "\xff"}')
    result = run_cli("apply", src)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {src}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "command",
    [
        ("apply", "{f}"),
        ("check", "{f}", "{f}", "--criterion", "suff-n", "--delta", "1.0"),
        ("construct", "{f}", "--delta", "2.0", "-K", "5"),
    ],
    ids=lambda command: command[0],
)
def test_unwritable_out_is_a_usage_error(tmp_path, command):
    f = write_json(tmp_path / "f.json", IDENTITY_FILE)
    out = tmp_path / "missing" / "out.json"
    result = run_cli(*(arg.format(f=f) for arg in command), "--out", out)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {out}: [Errno 2] No such file or directory")
    assert "internal error" not in result.stderr


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


@pytest.mark.parametrize(
    "criterion",
    [["suff-n"], ["member-m"], ["nec-n", "--phi", "0"], ["thm211"]],
    ids=["suff-n", "member-m", "nec-n", "thm211"],
)
def test_check_mismatched_files_exit_three(tmp_path, criterion):
    # the checks themselves reject a pair that does not share (p, n)
    f = write_json(tmp_path / "f.json", IDENTITY_FILE)
    g = write_json(tmp_path / "g.json", {**IDENTITY_FILE, "p": 2})
    result = run_cli("check", f, g, "--criterion", *criterion, "--delta", "2.0")
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: functions must share (p, n); got (1, 1) and (2, 1)\n"


def test_check_mismatched_files_without_phi_is_a_usage_error(tmp_path):
    f = write_json(tmp_path / "f.json", IDENTITY_FILE)
    g = write_json(tmp_path / "g.json", {**IDENTITY_FILE, "n": 2})
    result = run_cli("check", f, g, "--criterion", "nec-m", "--delta", "2.0")
    assert result.returncode == 2
    assert "--phi" in result.stderr


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


def test_huge_omega_is_a_domain_error_without_exact_powers(tmp_path):
    # exact powers such as 3**(10**30) would never finish; the log2 estimate rejects them first
    doc = {"p": 1, "n": 1, "Omega": 10**30, "coefficients": [[0.1, 0.0], [0.2, 0.0]]}
    src = write_json(tmp_path / "f.json", doc)
    for args in (
        ["apply", src],
        ["check", src, src, "--criterion", "suff-n", "--delta", "1.0"],
        ["check", src, src, "--criterion", "member-m", "--delta", "1.0"],
    ):
        result = run_cli(*args, timeout=5)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error: operator weight overflows a float")


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1)], ids=["p-m=1", "p-m=2"])
def test_construct_huge_omega_skips_underflowing_powers(tmp_path, p, m):
    # every partner ratio is at most ((p-m)/(p-m+1))^Omega here, so it rounds to +0.0;
    # at p - m = 2 an eagerly formed (p-m)^Omega would never finish
    doc = {"p": p, "n": 1, "m": m, "Omega": 10**30, "coefficients": [[0.1, 0.0], [0.2, 0.0]]}
    src = write_json(tmp_path / "g.json", doc)
    result = run_cli("construct", src, "--delta", "1.0", "-K", "4", timeout=5)
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["coefficients"]
    assert rows == [[0.1, 0.0], [0.2, 0.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("criterion", ["thm211", "member-n"])
def test_check_huge_coefficients_do_not_overflow(tmp_path, criterion):
    # |P|^2 of 1e300 data exceeds a float; the supremum must not crash or warn
    params = {"p": 2, "n": 1, "Omega": 2, "lambda": 0.5}
    f = write_json(tmp_path / "f.json", {**params, "coefficients": [[1e300, 0.0]] * 50})
    g = write_json(tmp_path / "g.json", {**params, "coefficients": [[0.0, 0.0]]})
    result = run_cli(
        "check", f, g, "--criterion", criterion, "--delta", "10", "--alpha", "0.2", timeout=60
    )
    assert result.returncode in (0, 1), result.stderr
    assert result.stderr == ""


def test_check_near_monomial_membership_is_fast(tmp_path):
    # P is z^p plus 1e-12 ripple at K = 3000: nearly flat, so Bernstein's d^2 B^2
    # kept thousands of brackets; the autocorrelation curvature bound keeps few
    rng = random.Random(0)
    paths = []
    for name in ("f", "g"):
        coeffs = [[1e-12 * rng.gauss(0, 1), 1e-12 * rng.gauss(0, 1)] for _ in range(3000)]
        doc = {"p": 1, "n": 1, "Omega": 1, "coefficients": coeffs}
        paths.append(write_json(tmp_path / f"{name}.json", doc))
    result = run_cli(
        "check", *paths, "--criterion", "member-n", "--alpha", "0.3", "--delta", "1", timeout=5
    )
    assert result.returncode == 0, result.stderr
    assert "holds     : yes" in result.stdout


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


@pytest.mark.parametrize(
    "argv",
    [["apply"], ["check", "--criterion", "suff-n", "--delta", "2"], ["construct", "--delta", "2", "-K", "3"]],
    ids=["apply", "check", "construct"],
)
def test_valence_violation_reads_the_same_in_every_command(cli, tmp_path, capsys, argv):
    # a file with m = p = 2 meets the one valence rule, whichever command reads it
    f = str(write_json(tmp_path / "f.json", {**BLEND_FILE, "m": 2}))
    command, *options = argv
    files = [f, f] if command == "check" else [f]
    code = cli.main([command, *files, *options])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DOMAIN == 3
    assert captured.err == "error: operator needs p > m, got p=2, m=2\n"


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


# ---------------------------------------------------------------------------
# stdout bytes and the construct formatter
# ---------------------------------------------------------------------------

# k300_function.json holds K = 300 coefficients with -0.0, 5e-324, an entry
# that apply --prime scales to 1e308 and integer-valued entries; the two
# stdout files were written by the per-line print and json.dumps(indent=2)
# code that the single-write output replaced, and the two k300_apply series
# documents (apply --out, with and without --prime) by the json.dumps(indent=2)
# code that the orjson float writer replaced.
GOLDEN_FUNCTION = GOLDEN / "k300_function.json"


def test_golden_apply_prime_stdout():
    result = run_cli("apply", GOLDEN_FUNCTION, "--prime", text=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "apply_prime_stdout.txt").read_bytes()


def test_golden_construct_stdout(tmp_path):
    out = tmp_path / "partner.json"
    result = run_cli(
        "construct", GOLDEN_FUNCTION, "--delta", "2.5", "-K", "300", "--out", out, text=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "construct_stdout.json").read_bytes()
    assert out.read_bytes() == result.stdout


@pytest.mark.parametrize(
    "flags, golden",
    [([], "k300_apply_series.json"), (["--prime"], "k300_apply_prime_series.json")],
)
def test_golden_apply_series_documents(cli, tmp_path, capsys, flags, golden):
    out = tmp_path / "series.json"
    assert cli.main(["apply", str(GOLDEN_FUNCTION), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# k300_checks.json holds the exit code, stdout, stderr and --out bytes of
# every criterion on two K = 300 pairs, written by the Python-arithmetic image
# and sum code that the dense numpy path replaced: k300_function.json against
# k300_partner.json (aligned along phi = 0.1, 2.5e307 at k = 3, signed zeros
# and subnormals) and k300_operator_f.json against k300_operator_g.json
# (p = 3, m = 1, Omega = 2, lambda = 0.7, aligned along phi = 0.7).  The
# supremum rows come from a difference polynomial built from separate real
# operations, so their bytes do not depend on numpy's CPU dispatch; CI also
# runs this test with X86_V3 and newer dispatch disabled and with one BLAS
# thread.


def test_golden_k300_check_reports(cli, tmp_path, monkeypatch, capsys):
    cases = json.loads((GOLDEN / "k300_checks.json").read_text())
    assert sorted({case["argv"][4] for case in cases}) == sorted(cli.CRITERIA)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report.json"
    for case in cases:
        out.unlink(missing_ok=True)
        code = cli.main(case["argv"] + ["--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]
        assert (out.read_text() if out.exists() else None) == case["report"], case["argv"]


def test_member_checks_form_one_weight_vector(cli, monkeypatch, capsys):
    # the membership verdict and its sufficient-side companion share one
    # weight pass and one set of twisted differences; their bytes are pinned
    # by the k300 golden reports above
    from pvalent import series

    calls = []
    weight_pass = series._weight_pass

    def counted(*args, **kwargs):
        calls.append(kwargs["derivative"])
        return weight_pass(*args, **kwargs)

    monkeypatch.setattr(series, "_weight_pass", counted)
    monkeypatch.chdir(GOLDEN)
    cases = json.loads((GOLDEN / "k300_checks.json").read_text())
    members = [case for case in cases if case["argv"][4].startswith("member-")]
    assert len(members) == 4
    for case in members:
        calls.clear()
        assert cli.main(case["argv"]) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]
        assert calls == [case["argv"][4] == "member-n"], case["argv"]


def test_image_overflow_is_one_domain_error_line(tmp_path):
    # p = 3, m = 2, Omega = 2, lambda = 1: every weight up to K = 2001 is a
    # finite float, and the value-side weight at k = 2001 (about 3.2e16)
    # times 1e300 is not
    doc = {"p": 3, "n": 1, "m": 2, "lambda": 1.0, "Omega": 2,
           "coefficients": [[0.0, 0.0]] * 2000 + [[1e300, 0.0]]}
    src = write_json(tmp_path / "f.json", doc)
    runs = [("check", src, src, "--criterion", c, "--delta", "1.0")
            for c in ("member-n", "member-m", "thm211")]
    for args in runs + [("apply", src, "--prime")]:
        result = run_cli(*args)
        assert result.returncode == 3, (args, result.stderr)
        assert result.stderr == "error: tail coefficient at exponent 2001 is not finite\n", args


def test_difference_overflow_is_one_domain_error_line(tmp_path):
    # both images are finite, but 1.5e308 - (-1.5e308) is not: the supremum
    # gets an infinite coefficient and rejects it (exit 3), never crashes (exit 4)
    f = write_json(tmp_path / "f.json", {"p": 1, "n": 1, "coefficients": [[1.5e308, 0.0]]})
    g = write_json(tmp_path / "g.json", {"p": 1, "n": 1, "coefficients": [[-1.5e308, 0.0]]})
    result = run_cli("check", f, g, "--criterion", "member-m", "--delta", "5")
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: coefficient of z^1 is not finite\n"


@pytest.mark.parametrize(
    "coefficients",
    [[[1.5e308, 1.5e308]], [[1e308, 0.0], [1e308, 0.0]]],
    ids=["modulus", "partial-sum"],
)
def test_sum_overflow_fails_the_criterion(tmp_path, coefficients):
    # |1.5e308 (1 + i)| and 1e308 + 1e308 are past the float range: the sum
    # is inf, so the criterion fails (exit 1) instead of escaping as an
    # OverflowError (exit 4)
    doc = {"p": 1, "n": 1, "coefficients": coefficients}
    f = write_json(tmp_path / "f.json", doc)
    g = write_json(tmp_path / "g.json", {**doc, "coefficients": [[0.0, 0.0]] * len(coefficients)})
    for criterion in ("suff-n", "suff-m"):
        result = run_cli("check", f, g, "--criterion", criterion, "--delta", "2")
        assert result.returncode == 1, result.stderr
        assert result.stderr == ""
        assert "lhs       : inf\n" in result.stdout


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries({
        "p": st.integers(1, 10**6),
        "n": st.integers(1, 10**6),
        "m": st.integers(0, 50),
        "lambda": finite_floats,
        "Omega": st.integers(0, 50),
        "coefficients": st.lists(st.lists(finite_floats, min_size=2, max_size=2), max_size=20),
    })
)
@example({"p": 1, "n": 1, "m": 0, "lambda": 0.0, "Omega": 0, "coefficients": []})
@example({"p": 2, "n": 3, "m": 1, "lambda": -0.0, "Omega": 4,
          "coefficients": [[-0.0, 5e-324], [1e308, -1.7976931348623157e308], [3.0, 0.1]]})
def test_function_file_text_matches_json_dumps(cli, doc):
    assert cli.function_file_text(doc) == json.dumps(doc, indent=2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.tuples(finite_floats, finite_floats),
    st.lists(st.tuples(st.integers(1, 10**3), finite_floats, finite_floats), max_size=20),
    st.booleans(),
)
def test_series_text_matches_json_dumps(cli, lead_exp, lead, steps, prime):
    from pvalent.series import TruncatedSeries

    exponents = itertools.accumulate([lead_exp] + [step for step, _, _ in steps])
    tail = [(e, complex(re, im)) for e, (_, re, im) in zip(list(exponents)[1:], steps)]
    series = TruncatedSeries(lead_exp, complex(*lead), tuple(tail))
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "kind": "series",
        "prime": prime,
        "terms": [[e, [c.real, c.imag]] for e, c in series.terms()],
    }
    assert cli._series_text(series, prime) == json.dumps(doc, indent=2)


def _float_writer_cases() -> list[float]:
    """Random finite bit patterns, one draw per decade of either sign, and
    the boundaries of orjson's and repr's notations."""
    rng = np.random.default_rng(25)
    floats = rng.integers(0, 2**64, size=201_000, dtype=np.uint64).view(np.float64)
    patterns = floats[np.isfinite(floats)].tolist()
    assert len(patterns) >= 200_000
    decades = [float(f"{rng.uniform(1.0, 10.0)!r}e{k}") for k in range(-324, 309)]
    edges = [0.0, 5e-324, 9999999999999998.0, 1e16, sys.float_info.max, 10.00001]
    for edge in (1e-5, 1e-4):
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    signed = [x for x in decades + edges if math.isfinite(x)]
    return patterns + signed + [-x for x in signed]


def test_float_writer_writes_repr(cli):
    cases = _float_writer_cases()
    expected = "[" + ",".join(map(repr, cases)) + "]"
    assert cli._float_json(cases) == expected
    # a 2-D array, [[a,b],[c,d]], is the flat text with its rows joined
    even = cases[: len(cases) // 2 * 2]
    pairs = cli._float_json(np.array(even).reshape(-1, 2))
    assert "[" + pairs[2:-2].replace("],[", ",") + "]" == cli._float_json(even)
    tail = cases[-2000:]
    assert cli._float_json(tail, indent=True) == json.dumps(tail, indent=2)


# ---------------------------------------------------------------------------
# bulk loader against the per-entry loader
# ---------------------------------------------------------------------------


def oracle_load(cli, path: Path):
    """The entry-by-entry loader the bulk check replaced, kept as the reference.

    It differs from the original in one way: an integer beyond the float
    range fails the finite check instead of escaping as OverflowError.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.FunctionFileError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise cli.FunctionFileError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise cli.FunctionFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise cli.FunctionFileError(f"{path}: top-level value must be an object")

    def integer(key, default=None, minimum=0):
        value = doc.get(key, default)
        if value is None:
            raise cli.FunctionFileError(f"{path}: missing required key {key!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise cli.FunctionFileError(f"{path}: key {key!r} must be an integer")
        if value < minimum:
            raise cli.FunctionFileError(f"{path}: key {key!r} must be >= {minimum}")
        return value

    def finite(v):
        try:
            return math.isfinite(v)
        except OverflowError:
            return False

    p = integer("p", minimum=1)
    n = integer("n", minimum=1)
    m = integer("m", default=0)
    omega = integer("Omega", default=0)
    lam = doc.get("lambda", 0.0)
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not finite(lam):
        raise cli.FunctionFileError(f"{path}: key 'lambda' must be a finite number")
    raw = doc.get("coefficients", [])
    if not isinstance(raw, list):
        raise cli.FunctionFileError(f"{path}: key 'coefficients' must be a list")
    coeffs = []
    for i, entry in enumerate(raw):
        ok = (
            isinstance(entry, list)
            and len(entry) == 2
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and finite(v)
                for v in entry
            )
        )
        if not ok:
            raise cli.FunctionFileError(
                f"{path}: coefficients[{i}]: expected a [re, im] pair of finite numbers"
            )
        coeffs.append(complex(entry[0], entry[1]))
    try:
        return (
            cli.MultivalentFunction(p, n, tuple(coeffs)),
            cli.OperatorParams(lam=float(lam), m=m, omega=omega),
        )
    except cli.DomainError as exc:
        raise cli.FunctionFileError(f"{path}: {exc}") from exc


def load_outcome(load, path: Path):
    """A loaded file as bit patterns (so -0.0 != 0.0), or the error message."""
    try:
        f, op = load(path)
    except Exception as exc:  # the type is part of the outcome
        return type(exc).__name__, str(exc)
    bits = [(c.real.hex(), c.imag.hex()) for c in f.coeffs]
    return f.p, f.n, bits, op.m, op.omega, op.lam.hex()


huge_ints = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
numbers = (
    finite_floats
    | st.integers(-(2**70), 2**70)
    | huge_ints
    | st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -0.0, 0])
    | st.floats()  # NaN, Infinity and -Infinity become json's tokens
)
scalars = numbers | st.booleans() | st.none() | st.text(max_size=3)
pairs = st.lists(numbers, min_size=2, max_size=2)
entries = st.one_of(
    pairs,
    pairs,
    st.lists(finite_floats, min_size=2, max_size=2),
    st.lists(scalars, max_size=3),
    scalars,
    st.lists(st.lists(numbers, max_size=2), min_size=2, max_size=2),
    st.dictionaries(st.text(max_size=2), numbers, max_size=1),
)
coefficient_values = (
    st.lists(entries, max_size=12)
    | st.lists(pairs, max_size=12)
    | scalars
    | st.dictionaries(st.text(max_size=2), scalars, max_size=2)
)
# orjson reads integers past 64 bits as floats, which the integer checks reject
header_values = (
    st.integers(0, 3)
    | st.integers(2**64, 2**70)
    | st.integers(-(2**70), -(2**63) - 1)
    | finite_floats
    | st.booleans()
)
headers = st.dictionaries(st.sampled_from(["p", "n", "m", "Omega"]), header_values, max_size=4)


@settings(max_examples=400, deadline=None)
@given(
    coefficients=coefficient_values,
    lam=st.sampled_from([0.5, 1, -0.0, True, "x"]) | numbers,
    header=headers,
)
@example(coefficients=[[1e308, 0], [1e308, 0]], lam=0.5, header={})
@example(coefficients=[[1e308, 1e308], [1e308, 1e308], [float("inf"), 0]], lam=0.5, header={})
@example(
    coefficients=[[-1e308, 0], [1e308, 0], [1e308, 0], [float("nan"), 0]], lam=0.5, header={}
)
@example(coefficients=[[0.5, 1], [True, 0.0]], lam=0.5, header={})
@example(coefficients=[[0.5, 1], [2, int("9" * 400)]], lam=int("1" * 400), header={})
@example(coefficients=[[2**64, -(2**63) - 1]], lam=0.5, header={"p": 2**64 + 1})
def test_bulk_loader_matches_per_entry_oracle(cli, tmp_path_factory, coefficients, lam, header):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    doc = {"p": 2, "n": 1, "m": 1, "lambda": lam, "coefficients": coefficients}
    doc.update(header)
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = load_outcome(lambda q: oracle_load(cli, q), path)
    assert load_outcome(cli.load_function_file, path) == expected
    assert expected[0] != "OverflowError"


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


# Edits of a valid document's text where orjson and json could part: tokens
# and numbers orjson rejects, integers it reads as floats, a BOM, lone
# surrogates, line ends, duplicate keys (the later one wins in both) and
# nesting, which json stops at its recursion limit and orjson 3.8 does not.
# The loader must give the oracle's outcome for each.
RAW_EDITS = {
    "NaN lambda": lambda t: t[:-1] + ', "lambda": NaN}',
    "Infinity entry": lambda t: t[:-1] + ', "coefficients": [[0.5, Infinity]]}',
    "-Infinity entry": lambda t: t[:-1] + ', "coefficients": [[-Infinity, 0]]}',
    "4301-digit entry": lambda t: t[:-1] + ', "coefficients": [[1, %s]]}' % ("9" * 4301),
    "4301-digit p": lambda t: t[:-1] + ', "p": %s}' % ("1" + "0" * 4300),
    "4301-digit extra key": lambda t: '{"note": %s, ' % ("9" * 4301) + t[1:],
    "1e309 entry": lambda t: t[:-1] + ', "coefficients": [[1e309, 0]]}',
    "20-digit entries": lambda t: t[:-1] + ', "coefficients": [[%s, -%s]]}' % ("7" * 20, "3" * 20),
    "BOM": lambda t: "\ufeff" + t,
    "lone surrogate extra key": lambda t: '{"note": "\\ud800", ' + t[1:],
    "lone surrogate key": lambda t: '{"\\udfff": 1, ' + t[1:],
    "lone surrogate p": lambda t: t[:-1] + ', "p": "\\ud800"}',
    "CRLF": lambda t: t.replace("\n", "\r\n"),
    "CR": lambda t: t.replace("\n", "\r"),
    "duplicate p": lambda t: t[:-1] + ', "p": 3}',
    "duplicate coefficients first": lambda t: '{"coefficients": 7, ' + t[1:],
    "duplicate coefficients last": lambda t: t[:-1] + ', "coefficients": [[0.25, -0.5]]}',
    "nesting 300 extra key": lambda t: '{"note": %s, ' % _nested(300) + t[1:],
    "nesting 1000 extra key": lambda t: '{"note": %s, ' % _nested(1000) + t[1:],
    "nesting 1025 extra key": lambda t: '{"note": %s, ' % _nested(1025) + t[1:],
    # json stops at the recursion limit, which Hypothesis raises by 2000 while
    # a test runs; 10000 lies past that and under the loader's opener cap
    "nesting 10000 extra key": lambda t: '{"note": %s, ' % _nested(10000) + t[1:],
    "nesting 20000 extra key": lambda t: '{"note": %s, ' % _nested(20000) + t[1:],
    "nesting 1025 entry": lambda t: t[:-1] + ', "coefficients": [%s]}' % _nested(1025),
    "nesting 1025 top level": lambda t: _nested(1025),
}


@pytest.mark.parametrize("edit", RAW_EDITS)
@settings(max_examples=15, deadline=None)
@given(
    coefficients=st.lists(st.lists(finite_floats, min_size=2, max_size=2), max_size=4),
    indent=st.sampled_from([None, 2]),
)
def test_raw_text_variants_load_as_the_oracle_does(
    cli, tmp_path_factory, edit, coefficients, indent
):
    path = tmp_path_factory.getbasetemp() / "raw.json"
    doc = {"p": 2, "n": 1, "m": 1, "lambda": 0.5, "coefficients": coefficients}
    path.write_text(RAW_EDITS[edit](json.dumps(doc, indent=indent)), encoding="utf-8")
    expected = load_outcome(lambda q: oracle_load(cli, q), path)
    assert load_outcome(cli.load_function_file, path) == expected


def test_deeply_nested_file_is_a_file_error(tmp_path):
    # orjson 3.8 recurses without a limit and overflows the C stack near
    # 150k nested arrays; json stops at its recursion limit
    src = tmp_path / "deep.json"
    src.write_text('{"p": 1, "n": 1, "note": %s}' % _nested(10**6), encoding="utf-8")
    result = run_cli("apply", src)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {src}: maximum recursion depth exceeded")


@st.composite
def decimal_texts(draw):
    """A JSON number of up to 40 significant digits, with or without an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    cut = draw(st.integers(1, len(digits)))
    text = digits[:cut].lstrip("0") or "0"
    if cut < len(digits):
        text += "." + digits[cut:]
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        text += f"e{exponent:+d}" if draw(st.booleans()) else f"E{exponent}"
    return draw(st.sampled_from(["", "-"])) + text


@settings(max_examples=1000, deadline=None)
@given(text=finite_floats.map(repr) | decimal_texts())
@example(text="18446744073709551616")
@example(text="-9223372036854775809")
@example(text="2.4703282292062328e-324")
@example(text="-1e-400")
def test_orjson_reads_numbers_to_the_bits_json_reads(text):
    slow = json.loads(text)
    try:
        fast = orjson.loads(text)
    except orjson.JSONDecodeError:
        assert not math.isfinite(slow), text  # only numbers past the float range
        return
    # orjson reads integers past 64 bits as floats; every other number as json does
    assert type(fast) is type(slow) or not -(2**63) <= slow < 2**64, text
    assert float(fast).hex() == float(slow).hex(), text


def test_finite_entries_whose_sum_overflows_load(cli, tmp_path):
    path = write_json(tmp_path / "f.json", {"p": 1, "n": 1, "coefficients": [[1e308, 0]] * 2})
    f, _ = cli.load_function_file(path)
    assert f.coeffs == (1e308 + 0j, 1e308 + 0j)


# ---------------------------------------------------------------------------
# argument-space fuzzing of the whole CLI, in-process
# ---------------------------------------------------------------------------


@st.composite
def function_file_pair(draw):
    """Valid f and g documents sharing p, n and the operator (p <= 3, K <= 16)."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    head = {
        "p": p,
        "n": n,
        "m": draw(st.integers(0, p - 1)),
        "lambda": draw(st.floats(0.0, 1.0)),
        "Omega": draw(st.integers(0, 3)),
    }
    pair = st.lists(st.floats(-2.0, 2.0) | st.floats(-1e300, 1e300), min_size=2, max_size=2)
    f = draw(st.lists(pair, max_size=17 - n))
    g = draw(st.lists(pair, max_size=17 - n))
    return {**head, "coefficients": f}, {**head, "coefficients": g}


# every finite float up to 1.7976931348623157e308 in magnitude, so alpha - beta
# and k*phi can overflow, the non-finite spellings, pi-forms and the empty
# string; small nonnegative floats, drawn most often, make a verdict likelier
number_texts = st.one_of(
    st.floats(0.0, 4.0).map(repr),
    st.floats(0.0, 4.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308"]),
    st.floats(-4.0, 4.0).map(lambda x: f"pi*{x!r}"),
    st.sampled_from(["nan", "inf", "-inf", "pi*", "pi*nan", "-pi*inf", ""]),
)


@st.composite
def cli_argv(draw):
    """An argv for any command, the file paths spelled F, G and OUT; --grid and -K
    also take one past their caps."""
    from pvalent import cli
    from pvalent.circlemax import MAX_GRID

    def optional(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["check", "apply", "construct", "suite"]))
    if command == "apply":
        argv = ["apply", "F", *draw(st.sampled_from([[], ["--prime"]]))]
    elif command == "construct":
        truncations = st.integers(-2, 512) | st.just(cli.criteria.MAX_TRUNC + 1)
        argv = ["construct", "G", f"--delta={draw(number_texts)}",
                f"-K={draw(truncations)}",
                *optional("--alpha", number_texts), *optional("--beta", number_texts)]
    elif command == "suite":
        argv = ["suite", f"--suite={draw(st.sampled_from(sorted(cli.harness.SUITES)))}",
                f"--trials={draw(st.integers(-1, 3))}",
                *optional("--seed", st.integers(-(2**70), 2**70))]
    else:
        grids = st.integers(-2, 2**16) | st.just(MAX_GRID + 1)
        argv = ["check", "F", "G",
                f"--criterion={draw(st.sampled_from(cli.CRITERIA))}",
                f"--delta={draw(number_texts)}",
                *optional("--alpha", number_texts), *optional("--beta", number_texts),
                *optional("--phi", number_texts), *optional("--tolerance", number_texts),
                *optional("--grid", grids)]
    return argv + (["--out", "OUT"] if draw(st.booleans()) else [])


# k*phi overflows at k = 2, the first nonzero difference; alpha - beta overflows
OVERFLOW_FILES = (
    {"p": 1, "n": 1, "m": 0, "lambda": 0.0, "Omega": 0, "coefficients": [[0, 0], [0.001, 0]]},
    {"p": 1, "n": 1, "m": 0, "lambda": 0.0, "Omega": 0, "coefficients": []},
)
OVERFLOW_ARGVS = (
    ["check", "F", "G", "--criterion", "nec-n", "--delta", "9", "--beta", "1", "--phi", "1e308"],
    ["check", "F", "G", "--criterion", "suff-n", "--delta", "9", "--alpha", "1e308",
     "--beta=-1e308"],
    ["construct", "G", "--delta", "9", "--alpha", "1e308", "--beta=-1e308", "-K", "3"],
)


@settings(max_examples=500, deadline=None)
@given(files=function_file_pair(), argv=cli_argv())
@example(files=OVERFLOW_FILES, argv=OVERFLOW_ARGVS[0])
@example(files=OVERFLOW_FILES, argv=OVERFLOW_ARGVS[1])
@example(files=OVERFLOW_FILES, argv=OVERFLOW_ARGVS[2])
def test_fuzzed_arguments_exit_with_a_documented_code(cli, tmp_path_factory, files, argv):
    """Any argv over valid files exits 0-3; no exception escapes as exit 4 or a traceback."""
    work = tmp_path_factory.getbasetemp()
    paths = {
        "F": str(write_json(work / "fuzz_f.json", files[0])),
        "G": str(write_json(work / "fuzz_g.json", files[1])),
        "OUT": str(work / "fuzz_out.json"),
    }
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert "internal error" not in stderr and "Traceback" not in stderr, (argv, stderr)


@pytest.mark.parametrize("argv", OVERFLOW_ARGVS, ids=["nec-n-phi", "suff-n-angles", "construct"])
def test_angles_past_the_float_range_exit_three(tmp_path, argv):
    # k*phi or alpha - beta overflows to inf; math.fmod used to raise a
    # ValueError there, which exited 4 as an internal error
    paths = {"F": write_json(tmp_path / "f.json", OVERFLOW_FILES[0]),
             "G": write_json(tmp_path / "g.json", OVERFLOW_FILES[1])}
    result = run_cli(*(paths.get(arg, arg) for arg in argv))
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: angle must be finite, got ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# falsification events
# ---------------------------------------------------------------------------
# Every boundary supremum of a check goes through the module attribute
# criteria.max_modulus_on_circle, so replacing it forces each falsifiable
# statement to fail its conclusion with every hypothesis verified.

FALSIFICATION_NOTE = "falsification: hypotheses verified but the guaranteed conclusion failed"

# d_1 = a_2 = 100 is aligned along phi = 0; at alpha = 0, beta = pi/2 and
# delta = 2 the necessity threshold is 2 - (cos 0 - cos pi/2), about 1
NECESSITY_FILES = ({"p": 1, "n": 1, "coefficients": [[100.0, 0.0]]}, {"p": 1, "n": 1})
NECESSITY_THRESHOLD = 2.0 - (math.cos(0.0) - math.cos(math.pi * 0.5))

# (files, argv after the two paths, suprema in call order, exit code,
#  stdout, FALSIFICATION EVENT text, logged message)
FALSIFICATION_CASES = {
    "nec-n": (
        NECESSITY_FILES,
        ["--criterion", "nec-n", "--delta", "2", "--beta", "pi*0.5", "--phi", "0"],
        [0.0],
        1,
        "criterion : nec-n\nholds     : no\nlhs       : 200.0\n"
        f"threshold : {NECESSITY_THRESHOLD!r}\nmargin    : {NECESSITY_THRESHOLD - 200.0!r}\n"
        f"note      : {FALSIFICATION_NOTE}\n",
        "verified hypotheses, failed conclusion",
        "FALSIFICATION: derivative-side necessity bound failed with verified hypotheses "
        f"(lhs=200.0, threshold={NECESSITY_THRESHOLD!r})",
    ),
    "nec-m": (
        NECESSITY_FILES,
        ["--criterion", "nec-m", "--delta", "2", "--beta", "pi*0.5", "--phi", "0"],
        [0.0],
        1,
        "criterion : nec-m\nholds     : no\nlhs       : 100.0\n"
        f"threshold : {NECESSITY_THRESHOLD!r}\nmargin    : {NECESSITY_THRESHOLD - 100.0!r}\n"
        f"note      : {FALSIFICATION_NOTE}\n",
        "verified hypotheses, failed conclusion",
        "FALSIFICATION: value-side necessity bound failed with verified hypotheses "
        f"(lhs=100.0, threshold={NECESSITY_THRESHOLD!r})",
    ),
    "thm211": (
        (IDENTITY_FILE, IDENTITY_FILE),
        ["--criterion", "thm211", "--delta", "1"],
        [0.0, 1e9],
        1,
        "criterion : thm211\nhypothesis (derivative-side sup bound)\n"
        "  holds     : yes\n  lhs       : 0.0\n  threshold : 2.0\n  margin    : 2.0\n"
        "conclusion (value-side sup bound)\n"
        "  holds     : no\n  lhs       : 1000000000.0\n  threshold : 1.0\n"
        f"  margin    : -999999999.0\n  note      : {FALSIFICATION_NOTE}\n",
        "hypothesis held but conclusion failed",
        "FALSIFICATION: transfer conclusion failed although the hypothesis held "
        "(hypothesis lhs=0.0 < 2.0, conclusion lhs=1000000000.0 >= 1.0)",
    ),
}
for criterion, label in (("member-n", "derivative-side"), ("member-m", "value-side")):
    # f = g: the sum criterion holds with lhs 0, and a supremum of delta fails
    FALSIFICATION_CASES[criterion] = (
        (IDENTITY_FILE, IDENTITY_FILE),
        ["--criterion", criterion, "--delta", "1"],
        [1.0],
        1,
        f"criterion : {criterion}\nholds     : no\nlhs       : 1.0\nthreshold : 1.0\n"
        f"margin    : 0.0\nnote      : {FALSIFICATION_NOTE}\nsufficient-side companion\n"
        "  holds     : yes\n  lhs       : 0.0\n  threshold : 1.0\n  margin    : 1.0\n"
        "note      : sum criterion holds, so membership is implied\n",
        "sum criterion holds but membership failed",
        f"FALSIFICATION: {label} membership failed although its sufficient sum held "
        "(lhs=1.0, threshold=1.0)",
    )


def forced_suprema(monkeypatch, criteria, suprema):
    """Make the checks' boundary suprema read `suprema`, one per call, in order."""
    values = iter(suprema)
    monkeypatch.setattr(criteria, "max_modulus_on_circle", lambda c, grid: (next(values), 0.0))


@pytest.mark.parametrize("criterion", sorted(FALSIFICATION_CASES))
def test_falsification_is_flagged_reported_and_logged(
    cli, tmp_path, monkeypatch, capsys, caplog, criterion
):
    files, argv, suprema, exit_code, stdout, event, message = FALSIFICATION_CASES[criterion]
    forced_suprema(monkeypatch, cli.criteria, suprema)
    f = write_json(tmp_path / "f.json", files[0])
    g = write_json(tmp_path / "g.json", files[1])
    out = tmp_path / "report.json"
    with caplog.at_level("ERROR", logger="pvalent.criteria"):
        code = cli.main(["check", str(f), str(g), *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        exit_code, stdout, f"FALSIFICATION EVENT: {event}\n"
    )
    doc = json.loads(out.read_text())
    assert doc["verdict"]["holds"] is False
    assert doc["verdict"]["falsification"] is True
    assert doc["verdict"]["notes"] == [FALSIFICATION_NOTE]
    # only membership reports carry a top-level falsification field
    assert doc.get("falsification") is (True if criterion.startswith("member-") else None)
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert records == [("pvalent.criteria", "ERROR", message)]


@pytest.mark.parametrize("criterion", ["thm211", "member-n", "member-m"])
def test_failed_conclusion_without_its_hypothesis_is_no_falsification(
    cli, tmp_path, monkeypatch, capsys, caplog, criterion
):
    # every supremum large: the transfer hypothesis fails; f far from g: the
    # sum criterion fails, so a failed membership implies nothing
    forced_suprema(monkeypatch, cli.criteria, [1e9, 1e9])
    f = write_json(tmp_path / "f.json", {"p": 1, "n": 1, "coefficients": [[100.0, 0.0]]})
    out = tmp_path / "report.json"
    with caplog.at_level("ERROR", logger="pvalent.criteria"):
        code = cli.main(
            ["check", str(f), str(f), "--criterion", criterion, "--delta", "1",
             "--beta", "0.5", "--out", str(out)]
        )
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert "falsification" not in captured.out and "sum criterion holds" not in captured.out
    doc = json.loads(out.read_text())
    assert doc["verdict"]["holds"] is False and doc["verdict"]["falsification"] is False
    assert doc.get("falsification") in (False, None)
    assert caplog.records == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--beta", "0.5", "--alpha", "1.0", "--phi", "0"], "0 <= alpha < beta <= pi"),
        (["--beta", "pi*0.5", "--phi", "0.5"], "alignment arg(d_k)=k*phi fails at index k=1"),
        (["--beta", "pi*0.5", "--phi", "0"], "membership hypothesis fails"),
    ],
    ids=["angles", "alignment", "membership"],
)
def test_failed_necessity_hypothesis_exits_three(cli, tmp_path, capsys, argv, message):
    # the pair of the forced nec-* falsifications, unpatched: its supremum,
    # about 200, is far above delta = 2
    f = write_json(tmp_path / "f.json", NECESSITY_FILES[0])
    g = write_json(tmp_path / "g.json", NECESSITY_FILES[1])
    for criterion in ("nec-n", "nec-m"):
        code = cli.main(["check", str(f), str(g), "--criterion", criterion, "--delta", "2", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN == 3
        assert captured.err.startswith("error: ") and message in captured.err, captured.err


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------


def test_cli_imports_only_declared_dependencies():
    # importing the CLI loads no top-level module from outside the standard
    # library but pvalent and pyproject's dependencies; modules already loaded
    # before the import (site hooks) and private ones (numpy's
    # _sysconfigdata_*) do not count
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pvalent.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    added = {name for name in json.loads(result.stdout) if not name.startswith("_")}
    assert added <= {"pvalent", "numpy", "orjson"}, added
