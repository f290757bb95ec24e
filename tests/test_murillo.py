from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from sullivan.algebra import (
    Element,
    basis,
    build_algebra,
    coefficient_vector,
    format_element,
    parse_element,
)
from sullivan.cohomology import cochain_maps, is_elliptic, top_class
from sullivan.differential import build_differential, build_model, is_pure
from sullivan.errors import PreconditionError
from sullivan.linalg import RationalMatrix, solve_membership
from sullivan.models import (
    ALL_MODELS,
    elliptic_pure_n35,
    elliptic_pure_n37,
    nonpure_n23,
    projective_plane,
    projective_plane_times_s3,
    tower_two_even_mixed,
)
from sullivan.cli import parse_model_file
from sullivan.cohomology import formal_dimension, is_boundary
from sullivan.murillo import (
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
        model = build()
        alg = model.algebra
        matrix = coefficient_matrix(model)
        for y, row in zip(matrix.odd_gens, matrix.entries):
            # d(y_j) = sum_i entries[j][i] * x_i
            total = alg.zero()
            for x, entry in zip(matrix.even_gens, row):
                total = total + entry * alg.gen_element(x.name)
            assert total == model.differential.image_of(y)
            # entries[j][i] involves only x_i, ..., x_n
            for i, entry in enumerate(row):
                for mono in entry.terms:
                    assert not any(mono[x.index] for x in matrix.even_gens[:i])


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
        n = 5
        entries = [[random_poly() for _ in range(n)] for _ in range(n)]
        assert _det_cofactor(entries, alg) == naive_det(entries)


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


def test_empty_determinant_is_one():
    alg = build_algebra([("x2", 2), ("y3", 3)])
    assert _det_cofactor([], alg) == alg.one()
    assert _det_bareiss([], alg) == alg.one()


FIXTURES = Path(__file__).parent / "fixtures"


def _minors_class(model, det):
    """The determinant formula: the sum over n-subsets J of rows of
    (-1)^{sum J} det(A_J) times the odd generators left out, normalized to a
    positive leading coefficient like ``murillo_fundamental_class``."""
    matrix = coefficient_matrix(model)
    alg = model.algebra
    omega = alg.zero()
    for rows in combinations(range(len(matrix.odd_gens)), len(matrix.even_gens)):
        sign = -1 if sum(j + 1 for j in rows) % 2 else 1
        rest = [0] * alg.ngens
        for j, y in enumerate(matrix.odd_gens):
            if j not in rows:
                rest[y.index] = 1
        sub = [matrix.entries[j] for j in rows]
        omega = omega + det(sub, alg) * Element.from_monomial(alg, rest, sign)
    if omega.terms[omega.leading_monomial()] < 0:
        omega = -omega
    return omega


def _random_pure_model(rng, n, m):
    """A random pure model with n even and m odd generators, elliptic by
    construction, whose coefficient rows touch several columns.

    The even x_0..x_{n-1} have degree 2 or 4.  For j < n,
    d y_j = x_j^a + (random terms in x_j..x_{n-1}): on the zero set of the
    later images only x_j^a is left, so the pure quotient is finite.  The
    m - n further odd generators get random images of word length >= 2 in
    all the even generators, possibly zero.
    """
    degrees = [rng.choice((2, 4)) for _ in range(n)]
    targets = [rng.choice((2, 3)) * deg for deg in degrees]
    targets += [rng.choice((4, 6, 8)) for _ in range(m - n)]
    alg = build_algebra(
        [(f"x{i}", deg) for i, deg in enumerate(degrees)]
        + [(f"y{j}", t - 1) for j, t in enumerate(targets)]
    )
    images = {}
    for j, target in enumerate(targets):
        first = j if j < n else 0
        lead = [0] * alg.ngens
        if j < n:
            lead[j] = target // degrees[j]
        monos = [
            mono
            for mono in basis(alg, target)
            if sum(mono) >= 2
            and list(mono) != lead
            and not any(mono[:first]) and not any(mono[n:])
        ]
        image = Element.from_monomial(alg, lead) if j < n else alg.zero()
        for mono in rng.sample(monos, min(len(monos), rng.randint(0, 3))):
            image = image + Element.from_monomial(alg, mono, rng.choice((-2, -1, 1, 3)))
        images[f"y{j}"] = image
    return build_model(alg, build_differential(alg, images))


def test_contraction_equals_the_minors_formula():
    models = [build() for _, build in ALL_MODELS]
    models += [
        parse_model_file(str(path)).model
        for path in sorted(FIXTURES.glob("*.model"))
        if path.stem != "bad_linear"
    ]
    rng = random.Random("contraction")
    # up to nine generators: the engine's own checks (the non-boundary test
    # at degree N) grow quickly with the size of the algebra
    shapes = [(n, m) for n in (1, 2, 3, 4) for m in range(n, n + 3) if n + m <= 9]
    models += [_random_pure_model(rng, n, m) for n, m in shapes for _ in range(2)]
    several_columns = checked = 0
    for model in models:
        if not is_pure(model) or is_elliptic(model).status != "elliptic":
            continue
        omega = murillo_fundamental_class(model)
        assert omega == _minors_class(model, _det_cofactor)
        assert omega == _minors_class(model, _det_bareiss)
        entries = coefficient_matrix(model).entries
        several_columns += any(sum(not e.is_zero for e in row) > 1 for row in entries)
        checked += 1
    assert checked >= 30 and several_columns >= 10


def test_fundamental_class_five_even_through_bareiss():
    model = parse_model_file(str(FIXTURES / "five_even_k2.model")).model
    omega = murillo_fundamental_class(model)
    assert omega == _minors_class(model, _det_bareiss)
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
