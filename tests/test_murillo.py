from __future__ import annotations

import random
from itertools import combinations

import pytest

from reference import boundary_solve, naive_det
from sullivan.algebra import Element, format_element
from sullivan.cohomology import formal_dimension, is_boundary, is_elliptic, top_class
from sullivan.differential import is_pure
from sullivan.errors import PreconditionError
from sullivan.models import (
    elliptic_pure_n35,
    elliptic_pure_n37,
    nonpure_n23,
    projective_plane,
    projective_plane_times_s3,
    tower_two_even_mixed,
)
from sullivan.cli import parse_model_file
from sullivan.murillo import coefficient_matrix, murillo_fundamental_class
from zoo import FIXTURES, model_files, models, random_pure_model


def _entries_as_text(entries):
    return [[format_element(e) for e in row] for row in entries]


def test_coefficient_matrix_n37():
    matrix = coefficient_matrix(elliptic_pure_n37())
    assert _entries_as_text(matrix) == [
        ["x2^2", "0"],
        ["x2*x6^2", "0"],
        ["0", "x6^3"],
    ]


def test_coefficient_matrix_n35():
    matrix = coefficient_matrix(elliptic_pure_n35())
    assert _entries_as_text(matrix) == [
        ["x2^2", "0"],
        ["x6^2", "0"],
        ["0", "x6^3"],
    ]


def test_coefficient_matrix_single_column():
    matrix = coefficient_matrix(projective_plane())
    assert _entries_as_text(matrix) == [["x2^2"]]


def test_row_identity_and_triangularity():
    for build in (elliptic_pure_n37, elliptic_pure_n35, tower_two_even_mixed):
        model = build()
        alg = model.algebra
        evens = [alg.generators[i] for i in alg.even_indices]
        odds = [alg.generators[j] for j in alg.odd_indices]
        entries = coefficient_matrix(model)
        assert len(entries) == len(odds)
        for y, row in zip(odds, entries):
            # d(y_j) = sum_i entries[j][i] * x_i
            assert len(row) == len(evens)
            total = alg.zero()
            for x, entry in zip(evens, row):
                total = total + entry * alg.gen_element(x.name)
            assert total == model.differential.image_of(y.name)
            # entries[j][i] involves only x_i, ..., x_n
            for i, entry in enumerate(row):
                for mono in entry.terms:
                    assert not any(mono[x.index] for x in evens[:i])


def test_coefficient_matrix_rejects_nonpure():
    with pytest.raises(PreconditionError):
        coefficient_matrix(nonpure_n23())


def test_fundamental_class_n37():
    omega = murillo_fundamental_class(elliptic_pure_n37())
    assert format_element(omega) == "x2*x6^5*y5 - x2^2*x6^3*y15"


def test_fundamental_class_n35():
    omega = murillo_fundamental_class(elliptic_pure_n35())
    assert format_element(omega) == "x2^2*x6^3*y13 - x6^5*y5"


def test_fundamental_class_single_even():
    omega = murillo_fundamental_class(projective_plane())
    assert format_element(omega) == "x2^2"


def test_fundamental_class_with_closed_odd_generator():
    # rows are [0] for y3 and [x2^2] for y5; only the j=2 minor survives
    omega = murillo_fundamental_class(projective_plane_times_s3())
    assert format_element(omega) == "x2^2*y3"


def test_fundamental_class_matches_top_class_up_to_scalar_mod_boundaries():
    for build in (
        projective_plane,
        projective_plane_times_s3,
        elliptic_pure_n37,
        elliptic_pure_n35,
        tower_two_even_mixed,
    ):
        model = build()
        omega = murillo_fundamental_class(model)
        n, rep = top_class(model)
        sol = boundary_solve(model, "d", n, omega, [rep])
        assert sol is not None
        assert sol.get(0, 0) != 0  # the top-class coordinate is a nonzero scalar


def _minors_class(model):
    """The determinant formula: the sum over n-subsets J of rows of
    (-1)^{sum J} det(A_J) times the odd generators left out, each det(A_J)
    by its permutation expansion, normalized to a positive leading
    coefficient like ``murillo_fundamental_class``."""
    entries = coefficient_matrix(model)
    alg = model.algebra
    omega = alg.zero()
    for rows in combinations(range(len(alg.odd_indices)), len(alg.even_indices)):
        sign = -1 if sum(j + 1 for j in rows) % 2 else 1
        rest = [0] * alg.ngens
        for j, y in enumerate(alg.odd_indices):
            if j not in rows:
                rest[y] = 1
        sub = [entries[j] for j in rows]
        omega = omega + naive_det(sub, alg) * Element.from_monomial(alg, rest, sign)
    if omega.terms[omega.leading_monomial()] < 0:
        omega = -omega
    return omega


def test_contraction_equals_the_minors_formula():
    rng = random.Random("contraction")
    # n even and m odd generators, up to nine: the engine's own checks (the
    # non-boundary test at degree N) grow quickly with the size of the algebra
    shapes = [(n, m) for n in (1, 2, 3, 4) for m in range(n, n + 3) if n + m <= 9]
    drawn = [
        random_pure_model(
            rng,
            degrees=[rng.choice((2, 4)) for _ in range(n)],
            powers=[rng.choice((2, 3)) for _ in range(n)],
            targets=[rng.choice((4, 6, 8)) for _ in range(m - n)],
        )
        for n, m in shapes
        for _ in range(2)
    ]
    several_columns = checked = 0
    for model in [m for _, m in models(model_files(FIXTURES))] + drawn:
        if not is_pure(model) or is_elliptic(model).status != "elliptic":
            continue
        omega = murillo_fundamental_class(model)
        assert omega == _minors_class(model)
        entries = coefficient_matrix(model)
        several_columns += any(sum(not e.is_zero for e in row) > 1 for row in entries)
        checked += 1
    assert checked >= 30 and several_columns >= 10


def test_fundamental_class_five_even_matches_the_minors_formula():
    model = parse_model_file(str(FIXTURES / "five_even_k2.model")).model
    omega = murillo_fundamental_class(model)
    assert omega == _minors_class(model)
    assert omega.degree() == formal_dimension(model) == 10
    assert model.d(omega).is_zero
    assert not is_boundary(model, omega)
