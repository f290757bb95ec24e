from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from sullivan.algebra import (
    Element,
    basis,
    build_algebra,
    coefficient_vector,
    format_element,
    parse_element,
)
from sullivan.cohomology import cochain_maps, top_class
from sullivan.errors import PreconditionError
from sullivan.linalg import RationalMatrix, solve_membership
from sullivan.models import (
    elliptic_pure_n35,
    elliptic_pure_n37,
    nonpure_n23,
    projective_plane,
    projective_plane_times_s3,
    tower_two_even_mixed,
)
from sullivan import murillo
from sullivan.cli import parse_model_text
from sullivan.cohomology import formal_dimension, is_boundary
from sullivan.murillo import (
    _det,
    _det_bareiss,
    _det_cofactor,
    coefficient_matrix,
    exact_divide,
    murillo_fundamental_class,
)


def _entries_as_text(matrix):
    return [[format_element(e) for e in row] for row in matrix.entries]


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
        matrix = coefficient_matrix(build())
        for j in range(len(matrix.odd_gens)):
            assert matrix.row_identity_holds(j)
        assert matrix.is_triangular()


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
        n, space = top_class(model)
        rep = space.representatives[0]
        ambient = basis(model.algebra, n)
        _, incoming = cochain_maps(model, n)
        cols = incoming.columns()
        cols.append(coefficient_vector(rep, ambient))
        stacked = RationalMatrix.from_columns(cols, len(ambient))
        sol = solve_membership(stacked, coefficient_vector(omega, ambient))
        assert sol is not None
        assert sol.get(len(cols) - 1, 0) != 0  # the top-class coordinate is a nonzero scalar


def test_determinant_matches_permutation_expansion():
    rng = random.Random(20260819)
    alg = build_algebra([("x2", 2), ("x4", 4), ("y5", 5)])
    x2 = alg.gen_element("x2")
    x4 = alg.gen_element("x4")

    def random_poly():
        e = alg.zero()
        for _ in range(rng.randint(1, 2)):
            c = Fraction(rng.randint(-3, 3))
            a = rng.randint(0, 2)
            b = rng.randint(0, 1)
            term = c * alg.one()
            for _ in range(a):
                term = term * x2
            for _ in range(b):
                term = term * x4
            e = e + term
        return e

    def naive_det(entries):
        n = len(entries)
        total = alg.zero()
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = sign * alg.one()
            for i in range(n):
                prod = prod * entries[i][perm[i]]
            total = total + prod
        return total

    for trial in range(4):
        n = 5  # forces the fraction-free elimination path
        entries = [[random_poly() for _ in range(n)] for _ in range(n)]
        assert _det(entries, alg) == naive_det(entries)


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(20261017)
    alg = build_algebra([("a2", 2), ("b2", 2), ("c4", 4), ("y5", 5)])
    monos = basis(alg, 2) + basis(alg, 4)
    monos = [m for m in monos if not m[3]]  # polynomial part only

    def random_poly():
        e = alg.zero()
        for _ in range(rng.randint(0, 2)):
            e = e + Element.from_monomial(
                alg, rng.choice(monos), rng.choice((-2, -1, 1, 3))
            )
        return e

    for n in (5, 6):
        for trial in range(2):
            entries = [[random_poly() for _ in range(n)] for _ in range(n)]
            if trial:
                entries[0][0] = alg.zero()  # the first pivot needs a row swap
            expected = _det_cofactor(entries, alg)
            assert _det_bareiss(entries, alg) == expected
            assert _det(entries, alg) == expected


FIVE_EVEN = """
generator xa 2
generator xb 2
generator xc 2
generator xe 2
generator xf 2
generator ya 3
generator yb 3
generator yc 3
generator ye 3
generator yf 3
d ya = xa^2 + xa*xb
d yb = xb^2 + xb*xc
d yc = xc^2 + xc*xe
d ye = xe^2 + xe*xf
d yf = xf^2
"""


def test_fundamental_class_five_even_through_bareiss(monkeypatch):
    calls = []

    def counted(entries, alg):
        calls.append(len(entries))
        return _det_bareiss(entries, alg)

    monkeypatch.setattr(murillo, "_det_bareiss", counted)
    model = parse_model_text(FIVE_EVEN)
    omega = murillo_fundamental_class(model)
    assert calls == [5]
    assert omega.degree() == formal_dimension(model) == 10
    assert model.d(omega).is_zero
    assert not is_boundary(model, omega)


def test_exact_divide_roundtrip():
    alg = build_algebra([("x2", 2), ("x4", 4), ("y5", 5)])
    a = parse_element("x2^2*x4 + 2*x2^4", alg)
    b = parse_element("x2^2", alg)
    q = exact_divide(a * b, b)
    assert q == a
    with pytest.raises(ZeroDivisionError):
        exact_divide(a, alg.zero())
