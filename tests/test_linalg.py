from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from reference import (
    DenseRowSpace,
    dense,
    dense_kernel,
    dense_rref,
    dense_solve,
    matrix_cases,
    random_rows,
    sparse,
)
from sullivan import cohomology
from sullivan.algebra import basis
from sullivan.cohomology import formal_dimension
from sullivan.linalg import ColumnFactorization, RowSpace
from sullivan.models import ELLIPTIC_K3_POOL
from zoo import FIXTURES, models


def test_row_space_extension():
    space = RowSpace(3)
    assert space.add([Fraction(1), Fraction(1), Fraction(0)])
    assert not space.add([Fraction(2), Fraction(2), Fraction(0)])
    assert space.add([Fraction(0), Fraction(0), Fraction(5)])
    assert space.rank == 2
    assert not space.reduce([Fraction(3), Fraction(3), Fraction(7)])
    assert space.reduce([Fraction(1), Fraction(0), Fraction(0)])


def _assert_image_rows_are_echelon(factor):
    """Each image row holds 1 at its lowest column, and the pivots ascend."""
    rows = factor.image_rows()
    pivots = [min(r) for r in rows]
    assert all(r[p] == 1 for r, p in zip(rows, pivots))
    assert pivots == sorted(set(pivots))
    assert all(j < factor.nrows for r in rows for j in r)


def test_factorization_image_matches_dense_gauss_jordan():
    """The kernel, the image rows, the normal forms and the solutions of a
    factorization against dense Gauss-Jordan elimination."""
    rng = random.Random(13)
    for rows, ncols in matrix_cases():
        nrows = len(rows)
        factor = ColumnFactorization([[r[j] for r in rows] for j in range(ncols)], nrows)
        assert [dense(v, ncols) for v in factor.kernel] == dense_kernel(rows, ncols)
        _assert_image_rows_are_echelon(factor)
        image = RowSpace(nrows, factor.image_rows())
        want, pivots = dense_rref([list(c) for c in zip(*rows)], nrows)
        assert [dense(r, nrows) for r in image.echelon()] == want[: len(pivots)]
        for b in random_rows(rng, 4, nrows, 0.5, False) + [list(c) for c in zip(*rows)]:
            assert factor.reduce(b) == image.reduce(b)
            assert (factor.solve(b) is None) == bool(factor.reduce(b))
        inside = [sum(r, Fraction(0)) for r in rows]  # the sum of the columns
        assert dense(factor.solve(inside), ncols) == dense_solve(rows, ncols, inside)


def test_row_space_matches_dense_row_space():
    rng = random.Random(9)
    for rows, ncols in matrix_cases():
        space, oracle = RowSpace(ncols), DenseRowSpace(ncols)
        probes = random_rows(rng, 4, ncols, 0.5, False)
        for i, v in enumerate(rows):
            assert space.add(v) == oracle.add(v)
            assert space.rank == len(oracle.rows)
            if i % 8 == 7 or i == len(rows) - 1:
                for w in probes + rows[i + 1 : i + 3]:
                    assert dense(space.reduce(w), ncols) == oracle.reduce(w)
                    assert (not space.reduce(w)) == (not any(oracle.reduce(w)))
        assert [dense(r, ncols) for r in space.echelon()] == [r for _, r in oracle.rows]


def test_row_space_seeded_from_an_echelon_matches_one_filled_row_by_row():
    rng = random.Random(17)
    for rows, ncols in matrix_cases():
        want, pivots = dense_rref(rows, ncols)
        reduced = [sparse(r) for r in want[: len(pivots)]]
        seeded, filled = RowSpace(ncols, reduced), RowSpace(ncols)
        for v in rows:
            filled.add(v)
        assert seeded.rank == filled.rank == len(pivots)
        assert seeded.echelon() == filled.echelon() == reduced
        for w in random_rows(rng, 6, ncols, 0.5, False) + rows:
            assert seeded.reduce(w) == filled.reduce(w)
            assert seeded.add(w) == filled.add(w)
        assert seeded.echelon() == filled.echelon()
        # seeding copied the rows it was given
        assert reduced == [sparse(r) for r in want[: len(pivots)]]


def test_a_column_whose_lead_cancels_is_reduced_up_to_its_next_lead():
    # the third column's lead, row 1, cancels against the first column's
    # row; it is stored at row 3, its next lead, with pivot row 2 cleared
    factor = ColumnFactorization([[1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]], 4)
    assert not factor.kernel
    assert factor.image_rows() == [{0: 1, 1: 1}, {2: 1}, {3: 1}]
    assert factor.solve([1, 1, 1, 1]) == {2: 1}


def _minus_columns(b, columns, x):
    """b - m x for the matrix m of ``columns``, without zero entries."""
    out = dict(b)
    for j, xj in x.items():
        for i, y in columns[j].items():
            out[i] = out.get(i, 0) - xj * y
    return {i: v for i, v in out.items() if v}


def test_split_stopped_at_a_row_solves_the_columns_cut_there():
    """``_split(b, stop)`` clears only the pivots below row ``stop``: its
    unit part is what a fresh factorization of the columns cut below
    ``stop`` finds for b cut there, and its first nrows coordinates are
    b - m x.  On int and Fraction matrices, for every stop in 0..nrows."""
    rng = random.Random(31)
    kinds, solved = Counter(), 0
    for rows, ncols in matrix_cases():
        nrows = len(rows)
        if all(x.denominator == 1 for r in rows for x in r):
            rows = [[int(x) for x in r] for r in rows]
        columns = [sparse([r[j] for r in rows]) for j in range(ncols)]
        kinds[type(next((x for c in columns for x in c.values()), 0))] += 1
        factor = ColumnFactorization(columns, nrows)
        for stop in range(nrows + 1):
            cut_columns = [{i: x for i, x in c.items() if i < stop} for c in columns]
            cut = ColumnFactorization(cut_columns, stop)
            # b = m y + a tail from row stop on: in the image below stop
            tail = {
                i: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for i in range(stop, nrows) if rng.random() < 0.3
            }
            picked = rng.sample(range(ncols), min(ncols, 3))
            minus_y = {j: rng.choice((-2, -1, 1, 3)) for j in picked}
            inside = _minus_columns(tail, columns, minus_y)
            rest, x = factor._split(dict(inside), stop)
            assert x == cut.solve({i: v for i, v in inside.items() if i < stop})
            assert rest == _minus_columns(inside, columns, x)
            assert all(i >= stop for i in rest)
            solved += 1
            # any b: the cut factorization's own split, below stop
            for b in random_rows(rng, 2, nrows, 0.4, rng.random() < 0.5):
                rest, x = factor._split(sparse(b), stop)
                below = {i: v for i, v in sparse(b).items() if i < stop}
                cut_rest, cut_x = cut._split(below)
                assert x == cut_x
                assert {i: v for i, v in rest.items() if i < stop} == cut_rest
                assert rest == _minus_columns(sparse(b), columns, x)
    assert kinds[int] >= 5 and kinds[Fraction] >= 5, kinds
    assert solved >= 500


# ---------------------------------------------------------------------------
# the echelon basis is kept unreduced: stored rows never change


def test_adding_a_row_never_changes_a_stored_row():
    for rows, ncols in matrix_cases():
        space, stored = RowSpace(ncols), {}
        for v in rows:
            space.add(v)
            for p, r in space._rows.items():
                stored.setdefault(p, dict(r))
                assert r == stored[p]
                assert min(r) == p and r[p] == 1
        assert len(stored) == space.rank


def test_row_space_matches_dense_row_space_in_any_row_order():
    rng = random.Random(23)
    for rows, ncols in matrix_cases():
        probes = random_rows(rng, 4, ncols, 0.5, False)
        for _ in range(3):
            order = rows[:]
            rng.shuffle(order)
            space, oracle = RowSpace(ncols), DenseRowSpace(ncols)
            for v in order:
                assert space.add(v) == oracle.add(v)
            assert space.rank == len(oracle.rows)
            for w in probes + rows:
                assert dense(space.reduce(w), ncols) == oracle.reduce(w)
            want = [r for _, r in oracle.rows]
            assert [dense(r, ncols) for r in space.echelon()] == want


def test_row_space_seeded_from_an_unreduced_echelon_matches_one_seeded_from_rref():
    rng = random.Random(29)
    unreduced_seeds = 0
    for rows, ncols in matrix_cases():
        want, pivots = dense_rref(rows, ncols)
        reduced, rk = [sparse(r) for r in want[: len(pivots)]], len(pivots)
        echelon = [dict(r) for r in reduced]
        for i in range(rk):  # add multiples of later rows: leads stay 1
            for later in echelon[i + 1 :]:
                f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for j, x in later.items():
                    echelon[i][j] = echelon[i].get(j, Fraction(0)) + f * x
            echelon[i] = {j: x for j, x in echelon[i].items() if x}
        unreduced_seeds += echelon != reduced
        unreduced, seeded = RowSpace(ncols, echelon), RowSpace(ncols, reduced)
        assert unreduced.rank == seeded.rank == rk
        assert unreduced.echelon() == seeded.echelon() == reduced
        for w in random_rows(rng, 6, ncols, 0.5, False) + rows:
            assert unreduced.reduce(w) == seeded.reduce(w)
            assert unreduced.add(w) == seeded.add(w)
        assert unreduced.echelon() == seeded.echelon()
    assert unreduced_seeds > 10


# ---------------------------------------------------------------------------
# the engine's own matrices against dense Gauss-Jordan elimination


def _assert_factor_matches_dense(factor, nrows, dense_images):
    columns = [dense(c, nrows) for c in factor.columns]
    rows = [list(r) for r in zip(*columns)]
    ncols = len(columns)
    assert [dense(v, ncols) for v in factor.kernel] == dense_kernel(rows, ncols)
    want, pivots = dense_images(factor.columns, nrows)
    _assert_image_rows_are_echelon(factor)
    assert RowSpace(nrows, factor.image_rows()).echelon() == want
    return len(pivots)


def test_d_factorizations_and_ranks_match_dense_gauss_jordan(dense_images):
    for name, model in models([FIXTURES / "five_even_k2.model"]):
        for n in range(formal_dimension(model) + 1):
            # the rank first, while no factorization of degree n is cached,
            # so that it comes from the plain row space
            rk = cohomology._rank(model, n)
            factor = cohomology._factor(model, "d", n)
            nrows = len(basis(model.algebra, n + 1))
            rank = _assert_factor_matches_dense(factor, nrows, dense_images)
            assert rank == rk, (name, n)


def test_delta_factorizations_match_dense_gauss_jordan(dense_images):
    for _, build in ELLIPTIC_K3_POOL:
        model = build()
        n = formal_dimension(model)
        for degree in (n - 1, n):
            nrows = len(basis(model.algebra, degree + 1))
            factor = cohomology._factor(model, "delta", degree)
            _assert_factor_matches_dense(factor, nrows, dense_images)
