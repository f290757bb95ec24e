"""Unit tests of what no engine path calls: ``rref``, ``kernel_basis``,
``solve_membership``, ``quotient_dim``, ``cochain_maps``, ``delta_matrix``,
``_det_cofactor`` and ``_det_bareiss``, which ``bench/spans.py`` wraps by
name, and ``RationalMatrix``, ``rank`` and ``exact_divide``, which only they
use.  No other test uses any of them, so the benchmark change that drops
those tracer names deletes them and this module, and no other test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from reference import (
    dense,
    dense_kernel,
    dense_rref,
    dense_solve,
    map_columns,
    matrix_cases,
    naive_det,
    pair_basis,
    reference_apply,
    reference_delta,
)
from sullivan.algebra import Element, basis, build_algebra, parse_element
from sullivan.cli import parse_model_file
from sullivan.cohomology import cochain_maps, formal_dimension
from sullivan.errors import InternalInconsistencyError, PreconditionError
from sullivan.linalg import (
    RationalMatrix,
    kernel_basis,
    quotient_dim,
    rank,
    rref,
    solve_membership,
)
from sullivan.models import elliptic_pure_n37, exterior_two_odd, sphere_s2
from sullivan.murillo import _det_bareiss, _det_cofactor, exact_divide
from sullivan.spectral import delta_matrix
from zoo import FIXTURES, k4_model


def _mat(rows):
    return RationalMatrix([[Fraction(x) for x in row] for row in rows])


def test_rref_known_matrix():
    m = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots, rk = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert reduced.entries[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert reduced.entries[1] == [Fraction(0), Fraction(1), Fraction(1)]
    assert reduced.entries[2] == [Fraction(0), Fraction(0), Fraction(0)]


def test_rref_is_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(3)
        ]
        m = RationalMatrix(rows)
        r1, p1, k1 = rref(m)
        r2, p2, k2 = rref(r1)
        assert r1 == r2 and p1 == p2 and k1 == k2


def test_kernel_vectors_are_annihilated():
    rng = random.Random(11)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
        ker = kernel_basis(m)
        assert len(ker) == ncols - rank(m)
        for v in ker:
            for row in m.entries:
                assert sum(row[j] * x for j, x in v.items()) == 0


def test_solve_membership_positive_and_negative():
    m = _mat([[1, 0], [0, 1], [1, 1]])  # columns span a plane in Q^3
    sol = solve_membership(m, [Fraction(2), Fraction(3), Fraction(5)])
    assert sol is not None
    assert sol == {0: Fraction(2), 1: Fraction(3)}
    assert solve_membership(m, [Fraction(1), Fraction(0), Fraction(0)]) is None


def test_solve_membership_empty_matrix():
    zero_cols = RationalMatrix.from_columns([], nrows=2)
    assert solve_membership(zero_cols, [Fraction(0), Fraction(0)]) == {}
    assert solve_membership(zero_cols, [Fraction(1), Fraction(0)]) is None


def test_solve_matches_matrix_action():
    rng = random.Random(13)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [
            sum(row[j] * x[j] for j in range(ncols)) for row in m.entries
        ]
        sol = solve_membership(m, b)
        assert sol is not None
        again = [
            sum(row[j] * sol.get(j, 0) for j in range(ncols)) for row in m.entries
        ]
        assert again == b


def test_quotient_dim():
    # span{(1,0,0), (0,1,0)} inside Q^3 leaves a 1-dimensional quotient
    gens = _mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert quotient_dim(gens, 3) == 1
    assert quotient_dim(RationalMatrix([], ncols=3), 3) == 3


def test_quotient_dim_rejects_rows_outside_the_ambient_space():
    with pytest.raises(ValueError, match="ambient space"):
        quotient_dim(RationalMatrix([[1, 0]]), 3)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        RationalMatrix([])  # ncols unknown


def test_matrix_repr_and_hash():
    m = RationalMatrix([[0, Fraction(1, 2)], [3, 0]])
    assert repr(m) == "RationalMatrix([{1: Fraction(1, 2)}, {0: 3}], ncols=2)"
    with pytest.raises(TypeError):
        hash(m)


def test_kernel_matches_dense_gauss_jordan():
    rng = random.Random(5)
    for rows, ncols in matrix_cases():
        m = RationalMatrix(rows, ncols=ncols)
        reduced, pivots, rk = rref(m)
        want, want_pivots = dense_rref(rows, ncols)
        assert reduced.entries == want
        assert (pivots, rk) == (want_pivots, len(want_pivots))
        assert [dense(v, ncols) for v in kernel_basis(m)] == dense_kernel(rows, ncols)
        assert quotient_dim(m, ncols) == ncols - len(want_pivots)

        x = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols)]
        inside = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
        outside = [Fraction(rng.randint(-2, 2)) for _ in range(len(rows))]
        for b in (inside, outside, [Fraction(0)] * len(rows)):
            sol = solve_membership(m, b)
            want_sol = dense_solve(rows, ncols, b)
            assert (None if sol is None else dense(sol, ncols)) == want_sol
        assert solve_membership(m, inside) is not None


def test_cochain_maps_and_delta_matrix_match_the_reference():
    model = elliptic_pure_n37()
    alg = model.algebra

    def matrix(f, src, dst):
        return RationalMatrix.from_columns(map_columns(alg, f, src, dst), len(dst))

    def ref_d(e):
        return reference_apply(model.differential)(e)

    blocks = 0
    for n in range(formal_dimension(model) + 2):
        assert cochain_maps(model, n) == (
            matrix(ref_d, basis(alg, n), basis(alg, n + 1)),
            matrix(ref_d, basis(alg, n - 1), basis(alg, n)),
        ), n
        for p in range(n // 2 + 2):
            src, dst = pair_basis(model, p, n), pair_basis(model, p + 1, n + 1)
            ref = matrix(reference_delta(model), sum(src, []), sum(dst, []))
            assert delta_matrix(model, p, n) == ref, (p, n)
            blocks += bool(ref.nrows and ref.ncols)
    assert blocks >= 120


@pytest.mark.parametrize("k", [None, 2, 4])
def test_delta_matrix_requires_k3(k):
    model = {None: exterior_two_odd, 2: sphere_s2, 4: k4_model}[k]()
    assert model.k == k
    with pytest.raises(PreconditionError, match=f"require k = 3, found k = {k}$"):
        delta_matrix(model, 1, 4)


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

    for trial in range(4):
        n = 5
        entries = [[random_poly() for _ in range(n)] for _ in range(n)]
        assert _det_cofactor(entries, alg) == naive_det(entries, alg)


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


def test_determinants_with_a_zero_column_vanish():
    # no row can take the first pivot, so Bareiss stops at once
    alg = build_algebra([("x2", 2), ("y3", 3)])
    entries = [[alg.zero(), alg.gen_element("x2")], [alg.zero(), alg.one()]]
    assert _det_cofactor(entries, alg) == _det_bareiss(entries, alg) == alg.zero()


def test_exact_divide_roundtrip():
    alg = build_algebra([("x2", 2), ("x4", 4), ("y5", 5)])
    a = parse_element("x2^2*x4 + 2*x2^4", alg)
    b = parse_element("x2^2", alg)
    q = exact_divide(a * b, b)
    assert q == a
    with pytest.raises(ZeroDivisionError):
        exact_divide(a, alg.zero())
    with pytest.raises(InternalInconsistencyError, match="inexact division"):
        exact_divide(a, parse_element("x4^2", alg))


def test_exact_divide_of_int_coefficients_never_makes_a_float(monkeypatch):
    model = parse_model_file(str(FIXTURES / "three_even.model")).model
    alg = model.algebra
    # every step's coefficient, before from_monomial makes it a Fraction
    steps = []
    from_monomial = Element.from_monomial.__func__

    def recorded(cls, algebra, mono, coeff=1):
        steps.append(coeff)
        return from_monomial(cls, algebra, mono, coeff)

    monkeypatch.setattr(Element, "from_monomial", classmethod(recorded))

    def scaled(text, c):
        return Element(alg, {m: c for m in parse_element(text, alg).terms})

    # d keeps the derivation's int coefficients on an image of coefficient 1
    d_y5, d_y11 = (model.d(alg.gen_element(y)) for y in ("y5", "y11"))
    assert all(type(c) is int for c in (d_y5 * d_y11).terms.values())
    cases = [
        (d_y5 * d_y11, d_y5, scaled("x4^3", 1)),
        (scaled("x2^2*x4", 6), scaled("x2", 3), scaled("x2*x4", 2)),
        (scaled("x2^2*x4", 3), scaled("x2", 2), scaled("x2*x4", Fraction(3, 2))),
        # 1 / 3 as a float is not 1/3
        (scaled("x2^2*x4", 1), scaled("x2", 3), scaled("x2*x4", Fraction(1, 3))),
    ]
    for a, b, expected in cases:
        quotient = exact_divide(a, b)
        assert quotient == expected
        assert all(type(c) in (int, Fraction) for c in quotient.terms.values())
    assert all(type(c) in (int, Fraction) for c in steps)
