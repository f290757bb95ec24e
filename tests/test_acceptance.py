"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion.  Each test prints `criterion N: PASS/FAIL - <what it checks>` and
then asserts, so a red run still shows the full scoreboard up to the failure.
"""

from __future__ import annotations

import re

from reference import boundary_solve
from sullivan import cli, spectral
from sullivan.algebra import format_element, parse_element
from sullivan.cohomology import (
    ToomerResult,
    formal_dimension,
    is_elliptic,
    toomer_oracle,
    top_class,
)
from sullivan.differential import is_pure
from sullivan.models import (
    ELLIPTIC_K3_POOL,
    elliptic_pure_n35,
    elliptic_pure_n37,
    nonelliptic_truncation_n37,
    projective_plane,
    sphere_s2,
)
from sullivan.murillo import coefficient_matrix, murillo_fundamental_class
from sullivan.selftest import RANDOM_CHECKS, run_all
from sullivan.spectral import FilteredPair, delta_apply, toomer_spectral
from zoo import FIXTURES


def _check(num: int, description: str, subchecks: dict) -> None:
    failed = [name for name, ok in subchecks.items() if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"criterion {num}: {status} - {description}")
    assert not failed, f"criterion {num} failed: {', '.join(failed)}"


def _matrix_text(model):
    return [
        [format_element(entry) for entry in row]
        for row in coefficient_matrix(model)
    ]


def _matches_top_class_mod_boundaries(model, omega) -> bool:
    """omega == (nonzero scalar) * top representative + coboundary?"""
    n, rep = top_class(model)
    sol = boundary_solve(model, "d", n, omega, [rep])
    return sol is not None and sol.get(0, 0) != 0


def test_criterion_01_n37_model_invariants():
    model = elliptic_pure_n37()
    _check(
        1,
        "n37 model: k=3, formal dimension 37, elliptic, e0=6 by both methods",
        {
            "k": model.k == 3,
            "formal_dimension": formal_dimension(model) == 37,
            "elliptic": is_elliptic(model).is_elliptic,
            "oracle": toomer_oracle(model).e0 == 6,
            "spectral": toomer_spectral(model).e0 == 6,
        },
    )


def test_criterion_02_n37_determinant_class():
    model = elliptic_pure_n37()
    omega = murillo_fundamental_class(model)
    ref = parse_element("x2^2*x6^3*y15 - x2*x6^5*y5", model.algebra)
    _check(
        2,
        "n37 determinant-formula class, top-class match, coefficient matrix",
        {
            "class_up_to_sign": omega == ref or omega == -ref,
            "top_class_match": _matches_top_class_mod_boundaries(model, omega),
            "matrix": _matrix_text(model)
            == [["x2^2", "0"], ["x2*x6^2", "0"], ["0", "x6^3"]],
        },
    )


def test_criterion_03_n35_model_invariants_and_class():
    model = elliptic_pure_n35()
    omega = murillo_fundamental_class(model)
    ref = parse_element("x2^2*x6^3*y13 - x6^5*y5", model.algebra)
    _check(
        3,
        "n35 model: invariants, determinant-formula class, coefficient matrix",
        {
            "k": model.k == 3,
            "formal_dimension": formal_dimension(model) == 35,
            "elliptic": is_elliptic(model).is_elliptic,
            "oracle": toomer_oracle(model).e0 == 6,
            "spectral": toomer_spectral(model).e0 == 6,
            "class_up_to_sign": omega == ref or omega == -ref,
            "top_class_match": _matches_top_class_mod_boundaries(model, omega),
            "matrix": _matrix_text(model)
            == [["x2^2", "0"], ["x6^2", "0"], ["0", "x6^3"]],
        },
    )


def test_criterion_04_truncated_model_is_not_elliptic():
    res = is_elliptic(nonelliptic_truncation_n37())
    _check(
        4,
        "n37 with only the lowest d-image kept is detected as not elliptic",
        {
            "status": res.status == "not_elliptic",
            "certificate": len(res.nonvanishing_degrees) > 0,
        },
    )


def test_criterion_05_closed_form_category_prediction_holds_small():
    plane = projective_plane()
    sphere = sphere_s2()
    _check(
        5,
        "e0 matches (k-2)*dim V^even + dim V^odd on the plane and sphere models",
        {
            "plane_oracle": toomer_oracle(plane).e0 == 2,
            "plane_spectral": toomer_spectral(plane).e0 == 2,
            "plane_formula": (3 - 2) * 1 + 1 == 2,
            "sphere_oracle": toomer_oracle(sphere).e0 == 1,
            "sphere_formula": (2 - 2) * 1 + 1 == 1,
        },
    )


def test_criterion_06_reference_models_break_the_prediction():
    checks = {}
    for name, build in (("n37", elliptic_pure_n37), ("n35", elliptic_pure_n35)):
        model = build()
        predicted = (model.k - 2) * 2 + 3  # dim V^even = 2, dim V^odd = 3
        e0 = toomer_oracle(model).e0
        checks[f"{name}_predicted_5"] = predicted == 5
        checks[f"{name}_e0_6"] = e0 == 6
        checks[f"{name}_differs"] = e0 != predicted
    _check(6, "both reference models give e0 = 6, not the predicted 5", checks)


def test_criterion_07_pair_differential_cocycles():
    ex1 = elliptic_pure_n37()
    u1 = -parse_element("x2^2*x6^3*y15", ex1.algebra)
    v1 = parse_element("x2*x6^5*y5", ex1.algebra)
    pair1 = FilteredPair(ex1, 3, 37, u1, v1)

    ex2 = elliptic_pure_n35()
    omega2 = murillo_fundamental_class(ex2)
    pair2 = FilteredPair(ex2, 3, 35, omega2, ex2.algebra.zero())
    pair3 = FilteredPair(
        ex2, 1, 35, ex2.algebra.zero(), parse_element("x6^2*y23", ex2.algebra)
    )
    _check(
        7,
        "named top-degree pairs are cocycles of the pair differential",
        {
            "n37_pair": delta_apply(pair1).is_zero,
            "n35_class_pair": delta_apply(pair2).is_zero,
            "n35_shallow_pair": delta_apply(pair3).is_zero,
        },
    )


def test_criterion_08_randomized_law_suites():
    results = run_all(seed=0, cases=200)
    by_name = {res.name: res for res in results}
    checks = {"all_green": all(res.ok for res in results)}
    for name, _fn in RANDOM_CHECKS:
        checks[f"{name}_budget"] = by_name[name].cases >= 200
    checks["basis_counts_ran"] = by_name["basis_counts"].cases > 0
    checks["poincare_duality_ran"] = by_name["poincare_duality"].cases > 0
    _check(
        8,
        "five randomized law suites (>=200 cases each) plus duality and counts",
        checks,
    )


def test_criterion_09_pool_agreement_and_disagreement_exit(capsys, monkeypatch):
    models = [(name, build()) for name, build in ELLIPTIC_K3_POOL]
    checks = {
        "pool_size": len(models) >= 10,
        "has_pure": any(is_pure(m) for _, m in models),
        "has_non_pure": any(not is_pure(m) for _, m in models),
        "small_models": all(2 <= m.algebra.ngens <= 6 for _, m in models),
    }
    for name, model in models:
        checks[f"agree_{name}"] = (
            toomer_spectral(model).e0 == toomer_oracle(model).e0
        )

    def broken_oracle(model):
        return ToomerResult(e0=99, representative=model.algebra.one())

    monkeypatch.setattr(spectral, "toomer_oracle", broken_oracle)
    code = cli.main(
        ["toomer", str(FIXTURES / "pure_n35.model"), "--format", "structured"]
    )
    capsys.readouterr()  # swallow the forced-failure report
    checks["disagreement_exit_3"] = code == 3
    _check(
        9,
        "spectral and oracle methods agree on the whole pool; mismatch exits 3",
        checks,
    )


def test_criterion_10_report_records_pair_cohomology_dimension(capsys):
    dims = {}
    for stem in ("pure_n37", "pure_n35"):
        code = cli.main(
            ["report", str(FIXTURES / f"{stem}.model"), "--format", "structured"]
        )
        out = capsys.readouterr().out
        match = re.search(r"^delta\.dim_total = (\d+)$", out, re.MULTILINE)
        dims[stem] = (code, match.group(1) if match else None)
    recorded = all(code == 0 and dim is not None for code, dim in dims.values())
    # the dimensions themselves are recorded, not asserted
    _check(
        10,
        "reports record top-degree pair-cohomology dims "
        f"(n37: {dims['pure_n37'][1]}, n35: {dims['pure_n35'][1]})",
        {"recorded": recorded},
    )
