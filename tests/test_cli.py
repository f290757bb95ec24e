from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from sullivan import cli
from sullivan.cohomology import ToomerResult
from sullivan.errors import ParseError

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
    ids=["generator-tokens", "d-without-eq", "d-head", "statement", "denominator",
         "name", "degree-underscore", "degree-plus", "degree-negative",
         "degree-5000-digits", "long-degree", "long-statement",
         "long-unknown-generator", "long-d-line-name", "long-name",
         "long-name-image"],
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
    path.write_text("generator x2 2\ngenerator y7 7\nd y7 = x2^4\n")
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
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "sullivan.cli", command,
         str(FIXTURES / "pure_n37.model"), "--max-degree", "-1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "error: argument --max-degree: must be nonnegative, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "sullivan.cli", command, str(path)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    assert (
        "error: the degree-40 basis has 53130 monomials, more than the limit "
        "of 50000" in proc.stderr
    )
    assert "Traceback" not in proc.stderr


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


def test_method_disagreement_exits_3(capsys, monkeypatch):
    # fake an oracle that disagrees with the spectral answer
    def broken_oracle(model):
        return ToomerResult(e0=99, method="oracle", representative=model.algebra.one())

    monkeypatch.setattr(cli, "toomer_oracle", broken_oracle)
    code, out, err = _run(
        capsys,
        "toomer",
        FIXTURES / "pure_n35.model",
        "--format",
        "structured",
    )
    assert code == 3
    assert "toomer.agree = false" in out
    assert "disagree" in err


def test_report_disagreement_exits_3_with_an_error_line(capsys, monkeypatch):
    def broken_oracle(model):
        return ToomerResult(e0=99, method="oracle", representative=model.algebra.one())

    monkeypatch.setattr(cli, "toomer_oracle", broken_oracle)
    code, out, err = _run(
        capsys, "report", FIXTURES / "pure_n35.model", "--format", "structured"
    )
    assert code == 3
    assert "toomer.oracle.e0 = 99" in out
    assert "toomer.agree = false" in out
    assert err == "error: oracle and spectral methods disagree\n"


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
    code, out, _ = _run(
        capsys,
        "delta-cohomology",
        FIXTURES / "pure_n35.model",
        "--degree",
        "35",
        "--format",
        "structured",
    )
    assert code == 0
    assert "delta.dim_total = 2" in out
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
        ("--degree", None, None, True, "int"),
        ("--to", None, None, False, "int"),
    ],
    "elliptic": SCAN_ARGUMENTS,
    "top-class": MODEL_ARGUMENTS,
    "murillo": MODEL_ARGUMENTS,
    "delta-cohomology": MODEL_ARGUMENTS + [("--degree", None, None, True, "int")],
    "toomer": MODEL_ARGUMENTS + [
        ("--method", "both", ("oracle", "spectral", "both"), False, None),
    ],
    "report": SCAN_ARGUMENTS,
    "selftest": [
        ("--format", "human", ("human", "structured"), False, None),
        ("--seed", 0, None, False, "int"),
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


def _python(*args, **kwargs):
    """(exit code, stdout, stderr) of a fresh interpreter run on `args`;
    `kwargs` go to `subprocess.run`."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    """Eleven degree-3 odd generators and d = 0: the human report of degrees
    0..33 lists every representative, about 84 KB, more than a pipe holds."""
    path = tmp_path / "odd.model"
    path.write_text("".join(f"generator y{i} 3\n" for i in range(11)))
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sullivan.cli", "cohomology", str(path),
         "--degree", "0", "--to", "33"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
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
