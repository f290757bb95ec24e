from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import sullivan
from sullivan import (
    algebra,
    cli,
    cohomology,
    differential,
    linalg,
    murillo,
    selftest,
    spectral,
)
from sullivan.cohomology import ToomerResult
from sullivan.differential import build_model
from sullivan.errors import ParseError
from zoo import FIXTURES, K4_TEXT, LARGE

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python_env():
    """The environment of a fresh interpreter that imports the ``sullivan``
    of this checkout."""
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def _python(*args, **kwargs):
    """(exit code, stdout, stderr) of a fresh interpreter run on `args`;
    `kwargs` go to `subprocess.run`."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_python_env(),
        **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# model file parsing


def test_parse_model_file_roundtrip():
    mf = cli.parse_model_file(str(FIXTURES / "pure_n37.model"))
    assert mf.model.k == 3
    assert mf.model.algebra.ngens == 5


def test_parse_text_duplicate_d_line():
    source = "generator x2 2\ngenerator y5 5\nd y5 = x2^3\nd y5 = x2^3\n"
    with pytest.raises(ParseError) as err:
        cli.parse_model_text(source)
    assert err.value.line == 4


def test_parse_text_unknown_generator_in_d_line():
    source = "generator x2 2\nd z9 = x2^3\n"
    with pytest.raises(ParseError) as err:
        cli.parse_model_text(source)
    assert "z9" in str(err.value)


def test_parse_text_generator_after_d_line():
    source = "generator x2 2\nd x2 = x2^2\ngenerator y5 5\n"
    with pytest.raises(ParseError):
        cli.parse_model_text(source)


def test_parse_text_bad_degree():
    with pytest.raises(ParseError):
        cli.parse_model_text("generator x2 two\n")


def test_parse_text_requires_generators():
    with pytest.raises(ParseError):
        cli.parse_model_text("# empty file\n")


def test_parse_text_polynomial_error_carries_line():
    source = "generator x2 2\ngenerator y5 5\nd y5 = x2^^3\n"
    with pytest.raises(ParseError) as err:
        cli.parse_model_text(source)
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# commands and exit codes


def test_info_structured(capsys):
    code, out, _ = _run(
        capsys, "info", FIXTURES / "pure_n37.model", "--format", "structured"
    )
    assert code == 0
    assert "model.k = 3" in out
    assert "model.formal_dimension = 37" in out
    assert "elapsed" not in out


def test_info_human_has_timing(capsys):
    code, out, _ = _run(capsys, "info", FIXTURES / "pure_n37.model")
    assert code == 0
    assert out.splitlines()[0].startswith("== info")
    assert "elapsed_seconds" in out


def test_validate_minimality_violation_exits_1(capsys):
    code, _, err = _run(capsys, "validate", FIXTURES / "bad_linear.model")
    assert code == 1
    assert "word length" in err


def test_missing_file_exits_1(capsys):
    code, _, err = _run(capsys, "validate", FIXTURES / "does_not_exist.model")
    assert code == 1
    assert "cannot read" in err


def test_non_utf8_model_file_exits_1(capsys, tmp_path):
    path = tmp_path / "latin.model"
    path.write_bytes(b"generator x2 2\n\xff\xfe\n")
    code, out, err = _run(capsys, "info", path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_model_file_with_a_byte_order_mark_parses(capsys, tmp_path):
    path = tmp_path / "bom.model"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "pure_n37.model").read_bytes())
    code, out, err = _run(capsys, "info", path, "--format", "structured")
    assert (code, err) == (0, "")
    assert "model.formal_dimension = 37" in out


@pytest.mark.parametrize(
    "source, message",
    [
        ("generator x2\n", "expected `generator <name> <degree>` (line 1)"),
        ("generator x2 2\ngenerator y5 5\nd y5 x2^3\n",
         "expected `d <name> = <polynomial>` (line 3)"),
        ("generator x2 2\ngenerator y5 5\nd y5 y7 = x2^3\n",
         "expected `d <name> = <polynomial>` (line 3)"),
        ("generator x2 2\ngen y5 5\n", "unrecognized statement 'gen' (line 2)"),
        ("generator x2 2\ngenerator y5 5\nd y5 = 3/\n",
         "expected denominator after '/' (line 3, column 10)"),
        ("generator 2x 2\n", "invalid generator name '2x'"),
        # a degree has the digits of a polynomial's numbers, not int()'s grammar
        ("generator x2 1_0\ngenerator y 2_9\nd y = x2^3\n",
         "degree '1_0' is not an integer (line 1)"),
        ("generator x2 +2\n", "degree '+2' is not an integer (line 1)"),
        ("generator x2 -2\n", "generator 'x2' has degree -2; degrees must be >= 2"),
        # too many digits for int(): not echoed, as for a number in a polynomial
        ("generator x2 2\ngenerator y " + "9" * 5000 + "\n",
         f"number of 5000 digits exceeds the limit of {sys.get_int_max_str_digits()} "
         "digits (line 2, column 13)"),
        # a longer rejected token is quoted up to its first 40 characters
        ("generator x2 " + "9" * 5000 + "x\n",
         f"degree '{'9' * 40}'... is not an integer (line 1)"),
        ("z" * 5000 + " x2 2\n", f"unrecognized statement '{'z' * 40}'... (line 1)"),
        ("generator x2 2\ngenerator y5 5\nd y5 = " + "z" * 5000 + "\n",
         f"unknown generator '{'z' * 40}'... (line 3, column 8)"),
        ("generator x2 2\ngenerator y5 5\nd " + "z" * 5000 + " = x2^2\n",
         f"d-line for unknown generator '{'z' * 40}'... (line 3)"),
        ("generator " + "x" * 5000 + "- 2\n",
         f"invalid generator name '{'x' * 40}'..."),
        (f"generator x2 2\ngenerator {'y' * 5000} 5\nd {'y' * 5000} = x2^2\n",
         f"image of '{'y' * 40}'... has degree 4, expected 6"),
        # a long number or element is cut to its first 40 characters too
        ("generator x2 -" + "9" * 4000 + "\n",
         f"generator 'x2' has degree -{'9' * 39}...; degrees must be >= 2"),
        ("generator x2 2\ngenerator y " + "9" * 4000 + "\nd y = x2^2\n",
         f"image of 'y' has degree 4, expected 1{'0' * 39}..."),
        ("generator x2 2\ngenerator y5 5\nd y5 = x2^" + "9" * 4000 + "\n",
         f"image of 'y5' has degree 1{'9' * 39}..., expected 6"),
        ("generator x2 2\ngenerator y3 3\ngenerator z 4\nd y3 = x2^2\n"
         "d z = " + "9" * 4000 + "*x2*y3\n",
         f"d^2 != 0 on generator 'z': d(d(z)) = {'9' * 40}..."),
    ],
    ids=["generator-tokens", "d-without-eq", "d-head", "statement", "denominator",
         "name", "degree-underscore", "degree-plus", "degree-negative",
         "degree-5000-digits", "long-degree", "long-statement",
         "long-unknown-generator", "long-d-line-name", "long-name",
         "long-name-image", "long-negative-degree", "long-expected-degree",
         "long-image-degree", "long-dd-element"],
)
def test_malformed_model_file_exits_1_with_its_message(
    capsys, tmp_path, source, message
):
    path = tmp_path / "bad.model"
    path.write_text(source)
    assert _run(capsys, "info", path) == (1, "", f"error: {message}\n")


def test_info_reports_an_impure_model(capsys, tmp_path):
    # d y7 = y3*y5 leaves the even subalgebra
    path = tmp_path / "odd.model"
    path.write_text(
        "generator y3 3\ngenerator y5 5\ngenerator y7 7\nd y7 = y3*y5\n"
    )
    code, out, _ = _run(capsys, "info", path, "--format", "structured")
    assert code == 0
    assert "model.pure = false" in out.splitlines()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["toomer", "--method", "bogus", str(FIXTURES / "pure_n37.model")])
    assert exc.value.code == 1


def test_huge_exponent_fails_fast_with_exit_1(capsys, tmp_path):
    path = tmp_path / "huge.model"
    path.write_text("generator x2 2\ngenerator y5 5\nd y5 = x2^9999999999\n")
    started = time.perf_counter()
    code, _, err = _run(capsys, "validate", path)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert "expected 6" in err


@pytest.mark.parametrize(
    "poly, column",
    [("x2^" + "9" * 5000, 11), ("7" * 5000 + "*x2^3", 8)],
    ids=["exponent", "coefficient"],
)
def test_overlong_number_exits_1_with_its_column(capsys, tmp_path, poly, column):
    path = tmp_path / "long.model"
    path.write_text(f"generator x2 2\ngenerator y5 5\nd y5 = {poly}\n")
    code, _, err = _run(capsys, "validate", path)
    assert code == 1
    assert "number of 5000 digits exceeds the limit" in err
    assert f"line 3, column {column}" in err


def test_nonelliptic_toomer_exits_2(capsys):
    code, _, err = _run(capsys, "toomer", FIXTURES / "truncated_n37.model")
    assert code == 2
    assert "not elliptic" in err


def test_spectral_on_k2_exits_2(capsys, tmp_path):
    path = tmp_path / "s2.model"
    path.write_text("generator x2 2\ngenerator y3 3\nd y3 = x2^2\n")
    code, _, err = _run(capsys, "toomer", path, "--method", "spectral")
    assert code == 2
    assert "k = 3" in err or "k=3" in err


def test_delta_cohomology_on_k4_exits_2(capsys, tmp_path):
    # for k = 4 the filtration stages are word-length triples, not pairs
    path = tmp_path / "k4.model"
    path.write_text(K4_TEXT)
    code, out, err = _run(capsys, "delta-cohomology", path, "--degree", "6")
    assert (code, out) == (2, "")
    assert err == (
        "error: the word-length pairs of the spectral method require k = 3, "
        "found k = 4\n"
    )


# the model commands that print no scan; each checks ellipticity, when it
# needs it, at the scan's own conclusive bound
NO_SCAN_COMMANDS = {
    "info": (),
    "validate": (),
    "cohomology": ("--degree", "2"),
    "top-class": (),
    "murillo": (),
    "delta-cohomology": ("--degree", "2"),
    "toomer": (),
}


@pytest.mark.parametrize("command", sorted(NO_SCAN_COMMANDS))
def test_max_degree_is_an_option_of_the_scan_commands_only(capsys, command):
    argv = [command, str(FIXTURES / "pure_n37.model"), *NO_SCAN_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--max-degree", "10"])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: --max-degree 10" in capsys.readouterr().err


# non-elliptic and non-pure; non-elliptic with k = 2
NOT_ELLIPTIC_FIRST = {
    "murillo": (
        "generator x2 2\ngenerator x4 4\ngenerator y3 3\ngenerator x6 6\n"
        "generator y5 5\nd x6 = x2^2*y3\nd y5 = x2*x4\n",
        (),
    ),
    "toomer": (
        "generator x2 2\ngenerator x4 4\ngenerator y5 5\nd y5 = x2*x4\n",
        ("--method", "spectral"),
    ),
}


@pytest.mark.parametrize("command", sorted(NOT_ELLIPTIC_FIRST))
def test_ellipticity_is_checked_before_the_other_preconditions(
    capsys, tmp_path, command
):
    text, extra = NOT_ELLIPTIC_FIRST[command]
    (tmp_path / "m.model").write_text(text)
    code, out, err = _run(capsys, command, tmp_path / "m.model", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: model is not elliptic: ")


@pytest.mark.parametrize("command", ["elliptic", "report"])
def test_negative_max_degree_is_a_usage_error(command):
    code, _, err = _python(
        "-m", "sullivan.cli", command, str(FIXTURES / "pure_n37.model"),
        "--max-degree", "-1",
    )
    assert code == 1
    assert "error: argument --max-degree: must be nonnegative, got -1" in err
    assert "Traceback" not in err


def test_negative_cases_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--cases", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --cases: must be nonnegative, got -1" in err


def test_non_integer_cases_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--cases", "abc"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --cases: invalid int value: 'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", str(FIXTURES / "pure_n35.model"), "--degree", "0", "--to"],
        ["cohomology", str(FIXTURES / "pure_n35.model"), "--degree"],
        ["delta-cohomology", str(FIXTURES / "pure_n35.model"), "--degree"],
        ["selftest", "--seed"],
    ],
    ids=["to", "degree", "delta-degree", "seed"],
)
def test_a_long_non_integer_value_is_cut_in_its_usage_error(capsys, argv):
    option = argv[-1]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: argument {option}: invalid int value: 'x'"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["x" + "9" * 4000])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"error: argument {option}: invalid int value: {'x' + '9' * 39!r}..."
    )
    assert len(err.encode()) < 400


OVERSIZED_MODEL = "".join(
    [f"generator x{i} 2\n" for i in range(1, 7)]
    + [f"generator y{i} 39\n" for i in range(1, 7)]
    + [f"d y{i} = x{i}^20\n" for i in range(1, 7)]
)


@pytest.mark.parametrize("command", ["elliptic", "report"])
def test_oversized_basis_fails_fast_with_exit_2(command, tmp_path):
    """N = 228 and a scan bound of 495: the bases would reach ~10^8
    monomials.  The run stops at the first degree basis over the limit."""
    path = tmp_path / "oversized.model"
    path.write_text(OVERSIZED_MODEL)
    code, _, err = _python("-m", "sullivan.cli", command, str(path), timeout=10)
    assert code == 2
    assert (
        "error: the degree-40 basis has 53130 monomials, more than the limit "
        "of 50000" in err
    )
    assert "Traceback" not in err


# without the degree limit each would run for 40 s or more: the scans
# because their quotients never vanish, the others because every lower
# degree would be built first
OVERSIZED_DEGREE_RUNS = {
    "elliptic_with_a_huge_bound": (
        "elliptic", str(FIXTURES / "truncated_n37.model"), "--max-degree", "1000000"
    ),
    "delta_cohomology": (
        "delta-cohomology", str(FIXTURES / "pure_n35.model"), "--degree", "100000"
    ),
    "cohomology_range": (
        "cohomology", str(FIXTURES / "pure_n35.model"),
        "--degree", "0", "--to", "100000",
    ),
    "elliptic_with_a_huge_default_bound": ("elliptic", "y100001.model"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_DEGREE_RUNS))
def test_oversized_degree_fails_fast_with_exit_2(case, tmp_path):
    (tmp_path / "y100001.model").write_text("generator x2 2\ngenerator y 100001\n")
    argv = OVERSIZED_DEGREE_RUNS[case]
    code, _, err = _python("-m", "sullivan.cli", *argv, timeout=10, cwd=tmp_path)
    assert code == 2
    assert "is above the degree limit of 1000" in err
    assert "Traceback" not in err


def test_a_long_degree_range_is_cut_in_its_message(capsys):
    code, out, err = _run(
        capsys, "cohomology", FIXTURES / "pure_n35.model",
        "--degree", "0", "--to", "9" * 4000,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: the degree-1{'0' * 39}... basis is above the degree limit of 1000\n"
    )


def test_a_long_d_line_validates_fast(tmp_path):
    """Every one of the 12,376 degree-12 monomials in 12 degree-2
    generators on one d-line (260 KB): the terms are summed in one pass."""
    evens = [f"x{i}" for i in range(12)]
    terms = ("*".join(m) for m in combinations_with_replacement(evens, 6))
    (tmp_path / "long.model").write_text(
        "".join(f"generator {x} 2\n" for x in evens)
        + "generator y 11\nd y = " + " + ".join(terms) + "\n"
    )
    code, out, err = _python(
        "-m", "sullivan.cli", "validate", "long.model", timeout=10, cwd=tmp_path
    )
    assert code == 0, err
    assert "validate.ok = true" in out


def test_many_generators_fail_the_basis_limit_fast(tmp_path):
    """2,000 degree-2 generators: the degree-4 basis is counted, not built,
    before it is found to be over the limit."""
    (tmp_path / "wide.model").write_text(
        "".join(f"generator x{i} 2\n" for i in range(2000))
    )
    code, _, err = _python(
        "-m", "sullivan.cli", "elliptic", "wide.model", timeout=10, cwd=tmp_path
    )
    assert code == 2
    assert "the degree-4 basis has 2001000 monomials" in err
    assert "Traceback" not in err


def test_a_non_elliptic_mutant_is_decided_fast(tmp_path):
    """five_even_k2 with d yb = xb*xc: no power of xb lies in the pure
    ideal, so its quotient survives in every even degree.  With
    ``--max-degree 40`` the scan prints what it printed when it ranked every
    degree (the first 16 hex digits of the SHA-256 of its structured
    output); with ``--max-degree 64`` it stops at degree 62, whose count is
    over the basis limit."""
    text = (FIXTURES / "five_even_k2.model").read_text()
    (tmp_path / "mutant.model").write_text(
        text.replace("d yb = xb^2 + xb*xc", "d yb = xb*xc")
    )
    argv = ("-m", "sullivan.cli", "elliptic", "mutant.model", "--max-degree")
    code, out, err = _python(
        *argv, "40", "--format", "structured", timeout=10, cwd=tmp_path
    )
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (
        0, "b133475c396a43ca"
    ), err
    code, _, err = _python(*argv, "64", timeout=10, cwd=tmp_path)
    assert code == 2
    assert "the degree-62 basis has 52360 monomials" in err
    assert "Traceback" not in err


# (command, fixture, --max-degree): (exit code, first 16 hex digits of the
# SHA-256 of the structured output without its model.path line), recorded
# before the ellipticity scans shared their quotient dimensions
SCAN_BOUND_OUTPUTS = {
    ("report", "truncated_n37", 10): (0, "fdc8fa57cb1c9f96"),
    ("report", "truncated_n37", 40): (0, "9fb215448027061e"),
    ("report", "truncated_n37", 200): (0, "4c52ac5a3723be77"),
    ("elliptic", "truncated_n37", 10): (0, "fe13f442e52ba3c9"),
    ("elliptic", "truncated_n37", 40): (0, "3efdc8295716675a"),
    ("elliptic", "truncated_n37", 200): (0, "a4c033bd72f7daa8"),
    ("report", "pure_n37", 10): (0, "fdc8fa57cb1c9f96"),
    ("report", "pure_n37", 40): (0, "2bf2bfbc76da8f59"),
    ("report", "pure_n37", 200): (0, "df6f4bf007bc79e1"),
    ("elliptic", "pure_n37", 10): (0, "fe13f442e52ba3c9"),
    ("elliptic", "pure_n37", 40): (0, "737eb45feaaf4023"),
    ("elliptic", "pure_n37", 200): (0, "3abe3821fde6851c"),
}


@pytest.mark.parametrize("key", sorted(SCAN_BOUND_OUTPUTS))
def test_scan_bound_outputs_unchanged(capsys, key):
    command, stem, bound = key
    code, out, _ = _run(
        capsys, command, FIXTURES / f"{stem}.model",
        "--max-degree", bound, "--format", "structured",
    )
    text = "".join(
        l for l in out.splitlines(True) if not l.startswith("model.path = ")
    )
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (code, digest) == SCAN_BOUND_OUTPUTS[key]


def test_elliptic_certificate_structured(capsys):
    code, out, _ = _run(
        capsys,
        "elliptic",
        FIXTURES / "truncated_n37.model",
        "--format",
        "structured",
    )
    assert code == 0
    assert "elliptic.status = not_elliptic" in out
    assert "elliptic.nonvanishing_degrees = " in out


def test_toomer_both_agree(capsys):
    code, out, _ = _run(
        capsys,
        "toomer",
        FIXTURES / "pure_n35.model",
        "--format",
        "structured",
    )
    assert code == 0
    assert "toomer.oracle.e0 = 6" in out
    assert "toomer.spectral.e0 = 6" in out
    assert "toomer.agree = true" in out


_DISAGREEMENT = (
    "error: internal inconsistency: "
    "spectral method found e0 = 6 but the oracle found 99\n"
)


def _broken_oracle(model):
    return ToomerResult(e0=99, representative=model.algebra.one())


def test_method_disagreement_exits_3(capsys, monkeypatch):
    # the oracle that spectral_run cross-checks against disagrees with it
    monkeypatch.setattr(spectral, "toomer_oracle", _broken_oracle)
    for method in ("both", "spectral"):
        code, out, err = _run(
            capsys,
            "toomer",
            FIXTURES / "pure_n35.model",
            "--method",
            method,
            "--format",
            "structured",
        )
        assert (code, out, err) == (3, "", _DISAGREEMENT), method


def test_report_disagreement_exits_3_with_an_error_line(capsys, monkeypatch):
    monkeypatch.setattr(spectral, "toomer_oracle", _broken_oracle)
    code, out, err = _run(
        capsys, "report", FIXTURES / "pure_n35.model", "--format", "structured"
    )
    assert code == 3
    assert out == ""
    assert err == _DISAGREEMENT


@pytest.mark.parametrize("degree", [5, 35])
def test_report_checks_poincare_duality_of_its_dimensions(capsys, monkeypatch, degree):
    """A dimension off by one at one degree, below the top or at N = 35,
    breaks duality: exit 3 with one error line and no report."""
    ranked = cli.cohomology_dim

    def off_by_one(model, n):
        return ranked(model, n) + (n == degree)

    monkeypatch.setattr(cli, "cohomology_dim", off_by_one)
    code, out, err = _run(
        capsys, "report", FIXTURES / "pure_n35.model", "--format", "structured"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: internal inconsistency: ")
    assert err.count("\n") == 1


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from sullivan.errors import InternalInconsistencyError

    def exploding(model):
        raise InternalInconsistencyError("forced failure")

    monkeypatch.setattr(cli, "spectral_run", exploding)
    code, _, err = _run(capsys, "toomer", FIXTURES / "pure_n35.model")
    assert code == 3
    assert "internal inconsistency" in err


def test_cohomology_range(capsys):
    code, out, _ = _run(
        capsys,
        "cohomology",
        FIXTURES / "pure_n37.model",
        "--degree",
        "0",
        "--to",
        "4",
        "--format",
        "structured",
    )
    assert code == 0
    assert "cohomology.dim.0 = 1" in out
    assert "cohomology.dim.4 = 1" in out


def test_cohomology_human_lists_representatives(capsys):
    code, out, _ = _run(
        capsys, "cohomology", FIXTURES / "pure_n37.model", "--degree", "0", "--to", "4"
    )
    assert code == 0
    assert out.splitlines()[1:-1] == [
        "cohomology.dim.0 = 1",
        "cohomology.rep.0.0 = 1",
        "cohomology.dim.1 = 0",
        "cohomology.dim.2 = 1",
        "cohomology.rep.2.0 = x2",
        "cohomology.dim.3 = 0",
        "cohomology.dim.4 = 1",
        "cohomology.rep.4.0 = x2^2",
    ]


def test_cohomology_dimensions_from_ranks_match_the_representative_path(capsys):
    # the human format lists representatives, the structured format reads
    # the dimensions off ranks
    argv = ("cohomology", FIXTURES / "pure_n35.model", "--degree", "0", "--to", "35")
    dims = []
    for extra in ((), ("--format", "structured")):
        code, out, _ = _run(capsys, *argv, *extra)
        assert code == 0
        dims.append([l for l in out.splitlines() if l.startswith("cohomology.dim.")])
    assert len(dims[1]) == 36 and dims[0] == dims[1]


@pytest.mark.parametrize("command", ["cohomology", "delta-cohomology"])
def test_negative_degree_exits_2(capsys, command):
    code, out, err = _run(
        capsys, command, FIXTURES / "pure_n35.model", "--degree", "-3"
    )
    assert (code, out) == (2, "")
    assert err == "error: degree range must satisfy 0 <= degree <= to\n"


def test_cohomology_reversed_range_exits_2(capsys):
    code, out, err = _run(
        capsys, "cohomology", FIXTURES / "pure_n37.model", "--degree", "5", "--to", "2"
    )
    assert (code, out) == (2, "")
    assert err == "error: degree range must satisfy 0 <= degree <= to\n"


def test_delta_cohomology_command(capsys):
    """At the top degree of three models, the delta degree and dimensions of
    the golden report."""

    def dims(text):
        return [l for l in text.splitlines() if l.startswith(("delta.degree", "delta.dim"))]

    for model, degree, golden in (
        (FIXTURES / "pure_n35.model", 35, "report_n35"),
        (FIXTURES / "pure_n37.model", 37, "report_n37"),
        (LARGE / "n37_cp2_cp2.model", 45, "report_n37_cp2_cp2"),
    ):
        code, out, _ = _run(
            capsys, "delta-cohomology", model, "--degree", degree, "--format", "structured"
        )
        assert code == 0, golden
        want = dims((GOLDEN / f"{golden}.txt").read_text())
        assert len(want) >= 3 and dims(out) == want, golden
        if golden == "report_n35":
            assert "delta.class.0.v = x6^2*y23" in out


def test_top_class_command(capsys):
    code, out, _ = _run(
        capsys,
        "top-class",
        FIXTURES / "pure_n37.model",
        "--format",
        "structured",
    )
    assert code == 0
    assert "top_class.degree = 37" in out


def test_murillo_command(capsys):
    code, out, _ = _run(
        capsys, "murillo", FIXTURES / "pure_n37.model", "--format", "structured"
    )
    assert code == 0
    assert "murillo.entry.2.1 = x2*x6^2" in out
    assert "murillo.class = x2*x6^5*y5 - x2^2*x6^3*y15" in out


def test_selftest_command(capsys):
    code, out, _ = _run(
        capsys, "selftest", "--cases", "10", "--format", "structured"
    )
    assert code == 0
    assert "selftest.leibniz.ok = true" in out
    assert "selftest.poincare_duality.ok = true" in out


def test_selftest_checks_duality_of_the_dimensions_from_ranks(capsys, monkeypatch):
    """A rank off by one at one degree shifts the dimensions `report` would
    print: `selftest` sees it through the same duality check and exits 3."""
    from sullivan import cohomology

    rank = cohomology._rank
    monkeypatch.setattr(cohomology, "_rank", lambda model, n: rank(model, n) + (n == 2))
    code, out, _ = _run(
        capsys, "selftest", "--seed", "1", "--cases", "5", "--format", "structured"
    )
    assert code == 3
    lines = out.splitlines()
    assert "selftest.poincare_duality.ok = false" in lines
    assert "selftest.basis_counts.ok = true" in lines
    # the first elliptic fixture, S^2 (N = 2), has lost its top class
    assert (
        "selftest.poincare_duality.detail = sphere_s2: H^2 has dimension 0, "
        "expected 1 for an elliptic model"
    ) in lines


def test_report_reads_the_delta_classes_off_its_spectral_run(capsys, monkeypatch):
    def refuse(model, n):
        raise AssertionError("report solved H^N(delta) a second time")

    monkeypatch.setattr(cli, "delta_cohomology", refuse)
    code, out, _ = _run(
        capsys, "report", FIXTURES / "pure_n37.model", "--format", "structured"
    )
    assert code == 0
    delta = [x for x in out.splitlines() if x.startswith("delta.")]
    golden = (GOLDEN / "report_n37.txt").read_text().splitlines()
    assert delta == [x for x in golden if x.startswith("delta.")]


# ---------------------------------------------------------------------------
# the command table and its parser

MODEL_ARGUMENTS = [
    ("--format", "human", ("human", "structured"), False, None),
    ("model", None, None, True, None),
]
SCAN_ARGUMENTS = MODEL_ARGUMENTS + [
    ("--max-degree", None, None, False, "_nonnegative_int"),
]

# subcommand: (option string or dest, default, choices, required, type name)
# of every argument but --help, in the order the usage line lists them
ARGUMENTS = {
    "info": MODEL_ARGUMENTS,
    "validate": MODEL_ARGUMENTS,
    "cohomology": MODEL_ARGUMENTS + [
        ("--degree", None, None, True, "_int"),
        ("--to", None, None, False, "_int"),
    ],
    "elliptic": SCAN_ARGUMENTS,
    "top-class": MODEL_ARGUMENTS,
    "murillo": MODEL_ARGUMENTS,
    "delta-cohomology": MODEL_ARGUMENTS + [("--degree", None, None, True, "_int")],
    "toomer": MODEL_ARGUMENTS + [
        ("--method", "both", ("oracle", "spectral", "both"), False, None),
    ],
    "report": SCAN_ARGUMENTS,
    "selftest": [
        ("--format", "human", ("human", "structured"), False, None),
        ("--seed", 0, None, False, "_int"),
        ("--cases", 200, None, False, "_nonnegative_int"),
    ],
}


def test_parser_arguments_are_pinned():
    parser = cli._parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(commands.choices) == list(ARGUMENTS)
    for name, sub in commands.choices.items():
        got = [
            (
                a.option_strings[0] if a.option_strings else a.dest,
                a.default,
                a.choices,
                a.required,
                getattr(a.type, "__name__", None),
            )
            for a in sub._actions
            if a.dest != "help"
        ]
        assert got == ARGUMENTS[name], name


def test_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    """Eleven degree-3 odd generators and d = 0: the human report of degrees
    0..33 lists every representative, about 84 KB, more than a pipe holds."""
    path = tmp_path / "odd.model"
    path.write_text("".join(f"generator y{i} 3\n" for i in range(11)))
    with subprocess.Popen(
        [sys.executable, "-m", "sullivan.cli", "cohomology", str(path),
         "--degree", "0", "--to", "33"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env(),
    ) as proc:
        assert proc.stdout.readline() == f"== cohomology: {path} ==\n".encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=30) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_calls_in_one_process_match_separate_runs(capsys):
    model = str(FIXTURES / "pure_n37.model")
    calls = [
        ("cohomology", model, "--degree", "2", "--to", "4", "--format", "structured"),
        ("cohomology", model, "--degree", "3", "--format", "structured"),
        ("toomer", "--method", "bogus", model),
        ("info", model, "--format", "structured"),
    ]
    for argv in calls:
        try:
            got = _run(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            got = (exc.code, captured.out, captured.err)
        assert got == _python("-m", "sullivan.cli", *argv), argv


def test_parser_is_built_once_on_first_use(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    for _ in range(2):
        assert _run(capsys, "validate", FIXTURES / "pure_n35.model")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # importing the module builds no parser
    code, out, _ = _python(
        "-c", "from sullivan import cli; print(cli._parser.cache_info().currsize)"
    )
    assert (code, out) == (0, "0\n")


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    """A bare interpreter (``-S``, no site packages) that imports the CLI
    loads no ``dataclasses``, nor what it pulls in, but loads
    ``sullivan.selftest``, whose checks a tracer wraps right after the import."""
    code, out, err = _python(
        "-S", "-c",
        "import sys; import sullivan.cli; "
        "print(*sorted(m for m in sys.argv[1:] if m in sys.modules))",
        "dataclasses", "inspect", "ast", "dis", "tokenize", "sullivan.selftest",
    )
    assert (code, out, err) == (0, "sullivan.selftest\n", "")


# ---------------------------------------------------------------------------
# golden reports


@pytest.mark.parametrize("stem", ["pure_n37", "pure_n35", "three_even", "five_even_k2"])
def test_golden_report(capsys, stem):
    path = FIXTURES / f"{stem}.model"
    code, out, _ = _run(capsys, "report", path, "--format", "structured")
    assert code == 0
    # report_n37.txt, report_n35.txt, report_three_even.txt, report_five_even_k2.txt
    golden = GOLDEN / f"report_{stem.removeprefix('pure_')}.txt"
    expected = golden.read_text().splitlines()
    got = out.splitlines()
    assert len(got) == len(expected)
    for e_line, g_line in zip(expected, got):
        if e_line.startswith("model.path = "):
            assert g_line.startswith("model.path = ")
            assert g_line.endswith(f"{stem}.model")
        else:
            assert g_line == e_line


def test_golden_report_of_a_larger_model(capsys, monkeypatch):
    # n37 x CP^2 x CP^2, N = 45: its golden was recorded before the echelon
    # basis of the elimination kernel was kept unreduced
    monkeypatch.chdir(Path(__file__).parent.parent)
    model = "tests/large/n37_cp2_cp2.model"
    code, out, _ = _run(capsys, "report", model, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / "report_n37_cp2_cp2.txt").read_text()


#: the k = 3 models with a golden report, which reaches every stage
_K3_REPORTS = [
    ("tests/fixtures/pure_n37.model", "report_n37.txt"),
    ("tests/fixtures/pure_n35.model", "report_n35.txt"),
    ("tests/large/n37_cp2_cp2.model", "report_n37_cp2_cp2.txt"),
]


@pytest.mark.parametrize("model,golden", _K3_REPORTS)
def test_report_reads_delta_off_d_without_its_components(
    capsys, monkeypatch, model, golden
):
    # delta is d cut one pair slot up: no engine path splits d into d_i, and
    # no engine module can, since the component builder is the tests' own
    # (``reference.homogeneous_component``)
    modules = [sullivan] + [
        importlib.import_module(f"sullivan.{info.name}")
        for info in pkgutil.iter_modules(sullivan.__path__)
    ]
    assert len(modules) >= 10
    assert not [m.__name__ for m in modules if hasattr(m, "homogeneous_component")]
    monkeypatch.chdir(Path(__file__).parent.parent)
    code, out, _ = _run(capsys, "report", model, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_golden_report_of_a_model_with_rational_coefficients(capsys, monkeypatch):
    # three_even with d y5 = 2*x2^3, d y11 = -3*x4^3, d y17 = 1/2*x6^3 and
    # d u11 = 2/3*x2*x4*x6: leads that are not +-1 turn rows to Fraction;
    # its golden was recorded while every coefficient was a Fraction
    monkeypatch.chdir(Path(__file__).parent.parent)
    model = "tests/large/scaled_three_even.model"
    code, out, _ = _run(capsys, "report", model, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / "report_scaled_three_even.txt").read_text()


@pytest.mark.parametrize("model,golden", _K3_REPORTS)
def test_report_hands_the_kernel_only_its_own_vectors(
    capsys, monkeypatch, model, golden
):
    # the input check guards vectors from outside; the engine builds its own
    def refuse(v, n):
        raise AssertionError("the engine re-checked a vector it built itself")

    monkeypatch.setattr(linalg, "_vector", refuse)
    monkeypatch.chdir(Path(__file__).parent.parent)
    code, out, _ = _run(capsys, "report", model, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_report_builds_one_pure_projection(capsys, monkeypatch):
    # is_pure, the ellipticity scan and the coefficient matrix share it
    built = []

    def counted(algebra, d):
        built.append(d)
        return build_model(algebra, d)

    monkeypatch.setattr(differential, "build_model", counted)
    monkeypatch.chdir(Path(__file__).parent.parent)
    model = "tests/fixtures/pure_n35.model"
    code, out, _ = _run(capsys, "report", model, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / "report_n35.txt").read_text()
    assert len(built) == 1


_real_lift = spectral.lift_to_d_cocycle


def _lift_with(**fields):
    """lift_to_d_cocycle with the given fields of its successful traces
    (``final`` given as a function of the model) overwritten."""

    def lift(model, start):
        trace = _real_lift(model, start)
        if trace.outcome == "success":
            for name, value in fields.items():
                setattr(trace, name, value(model) if callable(value) else value)
        return trace

    return lift


class _NoCorrection:
    """A delta-factorization whose every solve is zero, so a lift never
    moves its obstruction."""

    def _split(self, r):
        return {}, {}


class _KeepsEveryRow(linalg.RowSpace):
    """A row space that calls every added row independent."""

    def _add(self, row):
        super()._add(row)
        return True


_real_image = linalg.ColumnFactorization._image


def _image_keeping_every_row(factor):
    """The factorization's real image rows, in a row space that calls every
    row added to it independent."""
    image = _KeepsEveryRow(factor.nrows)
    image._rows = _real_image(factor)._rows
    return image


def _last_column(columns, default):
    """``next`` over a column pick, taking the last column offered."""
    picked = list(columns)
    return picked[-1] if picked else default


_N35 = (FIXTURES / "pure_n35.model").read_text()
_real_delta_apply = spectral.delta_apply


def _identity_above_35(pair):
    """delta of a pair, but the identity on the obstructions of a lift in
    pure_n35's top degree 35, which lie in degree 36."""
    return pair if pair.n > 35 else _real_delta_apply(pair)


@pytest.mark.parametrize(
    "module,name,replacement,command,text,message",
    [
        (spectral, "delta_cohomology", lambda model, n: [], "report", _N35,
         "no delta-class survives to a d-cocycle; inconsistent with ellipticity"),
        (spectral, "representative_depth", lambda m, pair: (0, m.algebra.one()),
         "report", _N35, "class at filtration 1 has depth 0; expected 2 or 3"),
        (spectral, "lift_to_d_cocycle", _lift_with(final=lambda m: m.algebra.one()),
         "report", _N35, "lift changed the depth of the lowest component"),
        (spectral, "lift_to_d_cocycle", _lift_with(outcome="died"), "report", _N35,
         "no delta-class survives to a d-cocycle; inconsistent with ellipticity"),
        (spectral, "_factor", lambda model, which, n: _NoCorrection(), "report", _N35,
         "obstruction filtration failed to increase"),
        (spectral, "delta_apply", _identity_above_35, "report", _N35,
         "lowest obstruction pair is not a delta-cocycle"),
        (cohomology, "cohomology_basis", lambda model, n: [], "report", _N35,
         "H^35 has 0 representatives, expected 1 for an elliptic model"),
        (cohomology, "_deepest_representative", lambda model, which, n, z: None,
         "report", _N35, "top class representative reduced to zero"),
        # minimality gives every term of a pure image an even factor; on an
        # impure model taken for pure, the row check reports the term left out
        (murillo, "is_pure", lambda model: True, "murillo",
         "generator y3 3\ngenerator y5 5\ngenerator u7 7\nd u7 = y3*y5\n",
         "coefficient row for 'u7' does not reassemble d"),
        # an elliptic model has dim V^odd >= dim V^even; with fewer odd
        # generators the contractions give 0
        (murillo, "require_elliptic", lambda model: None, "murillo",
         "generator x2 2\n",
         "determinant formula produced zero on an elliptic model"),
        # an elliptic model has N >= 0; H^N of a negative N is zero
        (cohomology, "require_elliptic", lambda model: None, "top-class",
         "generator x2 2\n",
         "H^-1 has 0 representatives, expected 1 for an elliptic model"),
        (murillo, "next", _last_column, "murillo", _N35,
         "coefficient matrix is not triangular"),
        (murillo, "formal_dimension", lambda model: 99, "murillo", _N35,
         "fundamental class has degree 35, expected 99"),
        (differential.SullivanModel, "d", lambda self, e: self.algebra.one(),
         "murillo", _N35, "fundamental class is not a cocycle"),
        (murillo, "is_boundary", lambda model, e: True, "murillo", _N35,
         "fundamental class is a boundary"),
        (linalg.ColumnFactorization, "_image", _image_keeping_every_row, "top-class",
         _N35, "H^35(d): dimension 1 but 6 representatives"),
        (cohomology, "bisect_left", lambda bn, key: len(bn), "toomer", _N35,
         "no representative at word length >= 6, the depth of its own normal form"),
    ],
    ids=[
        "spectral_run-zero-delta-cohomology",
        "spectral_run-depth-outside-slot",
        "spectral_run-lift-changed-depth",
        "spectral_run-no-survivor",
        "lift-filtration-did-not-rise",
        "lift-obstruction-not-a-delta-cocycle",
        "top_class-not-a-line",
        "toomer_oracle-reduced-to-zero",
        "coefficient_matrix-term-without-even-factor",
        "murillo-fewer-odd-than-even",
        "top_class-negative-formal-dimension",
        "coefficient_matrix-not-triangular",
        "murillo-degree",
        "murillo-not-a-cocycle",
        "murillo-a-boundary",
        "cohomology-dimension-against-representatives",
        "deepest_representative-none-at-its-depth",
    ],
)
def test_spectral_path_checks_exit_3(
    capsys, monkeypatch, tmp_path, module, name, replacement, command, text, message
):
    # each check of the spectral, murillo and cohomology paths, made to fail
    # through a collaborator it reads, stops the command with exit 3 and one
    # error line; the is_pure and the two require_elliptic cases are faults
    # no input can cause, and the check that fails there is the one left to
    # report them
    path = tmp_path / "m.model"
    path.write_text(text)
    monkeypatch.setattr(module, name, replacement, raising=False)
    code, out, err = _run(capsys, command, path, "--format", "structured")
    assert (code, out) == (3, "")
    assert err == f"error: internal inconsistency: {message}\n"


_real_koszul_sign = algebra.koszul_sign
_real_d = differential.SullivanModel.d
_real_basis_keys = selftest.basis_keys
_real_scaled = selftest._scaled
_real_cohomology_dim = selftest.cohomology_dim


def _d_on_odd_degrees(self, e):
    """d on odd degrees and 0 on even ones: it squares to 0 but is no
    derivation."""
    return _real_d(self, e) if (e.degree() or 0) % 2 else self.algebra.zero()


@pytest.mark.parametrize(
    "module,name,replacement,check",
    [
        (algebra, "koszul_sign", lambda alg, a, b: abs(_real_koszul_sign(alg, a, b)),
         "graded_commutativity"),
        (differential.SullivanModel, "d", _d_on_odd_degrees, "leibniz"),
        (differential.SullivanModel, "d", lambda self, e: e, "d_squared"),
        (selftest, "delta_apply", lambda pair: pair, "delta_squared"),
        (selftest, "_scaled", lambda pair, s: _real_scaled(pair, -s), "delta_derivation"),
        (selftest, "basis_keys", lambda *args: 2 * _real_basis_keys(*args), "basis_counts"),
        (selftest, "cohomology_dim",
         lambda model, n: _real_cohomology_dim(model, n)
         + (n == cohomology.formal_dimension(model) + 1),
         "poincare_duality"),
    ],
    ids=[
        "graded_commutativity",
        "leibniz",
        "d_squared",
        "delta_squared",
        "delta_derivation",
        "basis_counts",
        "poincare_duality-above-n",
    ],
)
def test_selftest_reports_each_broken_law(
    capsys, monkeypatch, module, name, replacement, check
):
    """A law broken through a collaborator its check reads: the check
    reports ok = false with a detail, and selftest exits 3."""
    monkeypatch.setattr(module, name, replacement)
    code, out, _ = _run(
        capsys, "selftest", "--seed", "1", "--cases", "20", "--format", "structured"
    )
    assert code == 3
    lines = out.splitlines()
    assert f"selftest.{check}.ok = false" in lines
    assert any(line.startswith(f"selftest.{check}.detail = ") for line in lines)


def test_a_closed_stdout_in_process_exits_1_without_a_traceback(
    capsys, monkeypatch, tmp_path
):
    """A stdout whose flush raises BrokenPipeError: main points the stdout
    descriptor at devnull, closes the devnull descriptor it opened, and
    returns 1."""
    os_open, opened = cli.os.open, []

    def recording_open(*args, **kwargs):
        opened.append(os_open(*args, **kwargs))
        return opened[-1]

    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(cli.os, "open", recording_open)
        code = cli.main(["info", str(FIXTURES / "pure_n35.model")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])


def test_the_readme_library_surface_imports():
    """The import block under README's "Library surface" runs, and every
    name it imports is exported by ``sullivan``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library surface\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    names = set(namespace) - {"__builtins__"}
    assert len(names) >= 19
    assert names <= set(sullivan.__all__)
