"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([str(a) for a in argv])
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines, name, unit):
    pattern = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$")
    return any(pattern.match(line) for line in lines)


@pytest.fixture(scope="module")
def traced_twice():
    return [_main("--workload", "report_zoo", "--seed", 3, "--seconds", 0, "--trace", 1)
            for _ in range(2)]


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)


def test_end_to_end_metrics_printed_with_units():
    lines, result = _main("--workload", "report_zoo", "--seed", 3, "--seconds", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 15 + len(workloads.ZOO_SHAPES)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert _printed(lines, metric["name"], metric["unit"]), metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert f"fail_frac = 0/{result['attempted']} = 0.0 ratio" in lines
    assert any(line.startswith("wall_s.samples = 1 passes") for line in lines)


def test_per_layer_metrics_printed_with_units(traced_twice):
    lines, result = traced_twice[0]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert _printed(lines, metric["name"], metric["unit"]), metric["name"]


def test_per_layer_counts_repeat_exactly(traced_twice):
    (_, first), (_, second) = traced_twice
    counts = {k for k, v in first["metrics"].items() if v["unit"] != "s"}
    assert "linalg.rref.nonzeros" in counts and "trace.spans" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_corrupted_reference_hash_is_a_failure(tmp_path):
    reference = workloads.load_reference()
    reference["sphere_s2"] = dict(reference["sphere_s2"], sha256="0" * 64)
    wl = workloads.build("report_zoo", 3, tmp_path, reference)
    tally = run.Tally()
    run.run_pass(wl, tally)
    assert tally.failed == 1 and tally.attempted == len(wl.operations)
    assert tally.failed / tally.attempted > 0
    assert "report sphere_s2: output differs from the reference hash" in tally.reasons


def test_wrong_exit_code_is_a_failure(tmp_path):
    wl = workloads.build("report_zoo", 3, tmp_path)
    op = next(op for op in wl.operations if op.label.startswith("report random_"))
    tally = run.Tally()
    run.run_operation(workloads.Operation(op.label, op.argv + ["--bogus"], op.check), tally)
    assert tally.failed == 1


def test_ladder_fixtures_serialize_the_model_zoo():
    from sullivan.cli import parse_model_file
    from sullivan.models import ALL_MODELS

    assert [name for name, _ in ALL_MODELS] == workloads.FIXTURES
    for name, build in ALL_MODELS:
        model = parse_model_file(str(workloads.MODELS / f"{name}.model")).model
        assert model == build(), name


def test_random_models_follow_the_seed():
    assert workloads.random_zoo_models(5) == workloads.random_zoo_models(5)
    assert workloads.random_zoo_models(5) != workloads.random_zoo_models(6)
