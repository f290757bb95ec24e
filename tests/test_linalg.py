from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sullivan import cohomology
from sullivan.algebra import basis
from sullivan.cohomology import formal_dimension
from sullivan.linalg import (
    ColumnFactorization,
    RationalMatrix,
    RowSpace,
    kernel_basis,
    quotient_dim,
    rank,
    rref,
    solve_membership,
)
from sullivan.models import ELLIPTIC_K3_POOL
from zoo import FIXTURES, models


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


def test_row_space_extension():
    space = RowSpace(3)
    assert space.add([Fraction(1), Fraction(1), Fraction(0)])
    assert not space.add([Fraction(2), Fraction(2), Fraction(0)])
    assert space.add([Fraction(0), Fraction(0), Fraction(5)])
    assert space.rank == 2
    assert not space.reduce([Fraction(3), Fraction(3), Fraction(7)])
    assert space.reduce([Fraction(1), Fraction(0), Fraction(0)])


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


# ---------------------------------------------------------------------------
# cross-check of the sparse kernel against dense Gauss-Jordan elimination
#
# The functions below are the dense routines the package used before its
# elimination became sparse, kept here as the reference.


def _dense_rref(a, ncols):
    a = [list(r) for r in a]
    nrows = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    return a, tuple(pivots)


def _dense_kernel(a, ncols):
    reduced, pivots = _dense_rref(a, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def _dense_solve(a, ncols, b):
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    reduced, pivots = _dense_rref([r + [x] for r, x in zip(a, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncols]
    return x


class _DenseRowSpace:
    def __init__(self, ncols):
        self.rows = []  # (lead column, row), sorted

    def reduce(self, v):
        v = list(v)
        for lead, row in self.rows:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        res = self.reduce(v)
        lead = next((j for j, x in enumerate(res) if x != 0), None)
        if lead is None:
            return False
        inv = Fraction(1) / res[lead]
        res = [x * inv for x in res]
        for i, (l, row) in enumerate(self.rows):
            if row[lead] != 0:
                f = row[lead]
                self.rows[i] = (l, [a - f * b for a, b in zip(row, res)])
        self.rows.append((lead, res))
        self.rows.sort(key=lambda t: t[0])
        return True


def _dense(v, n):
    return [v.get(j, Fraction(0)) for j in range(n)]


def _random_rows(rng, nrows, ncols, density, integral):
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        num = rng.choice([-3, -2, -1, 1, 2, 3, 7])
        return Fraction(num) if integral else Fraction(num, rng.randint(1, 6))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.5:  # duplicate rows and their multiples
        for _ in range(rng.randint(1, 3)):
            src = rng.choice(rows)
            rows[rng.randrange(nrows)] = [Fraction(rng.randint(1, 3)) * x for x in src]
    if rows and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _cases():
    rng = random.Random(20261018)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 1), (1, 4)]
    for nrows, ncols in shapes:
        yield _random_rows(rng, nrows, ncols, 0.6, False), ncols
    for _ in range(12):  # about 1 % dense, as the cochain matrices are
        nrows, ncols = rng.randint(20, 60), rng.randint(30, 90)
        yield _random_rows(rng, nrows, ncols, 0.01, rng.random() < 0.5), ncols
    for _ in range(30):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.5, 1.0])
        yield _random_rows(rng, nrows, ncols, density, rng.random() < 0.5), ncols


def test_kernel_matches_dense_gauss_jordan():
    rng = random.Random(5)
    for rows, ncols in _cases():
        m = RationalMatrix(rows, ncols=ncols)
        reduced, pivots, rk = rref(m)
        want, want_pivots = _dense_rref(rows, ncols)
        assert reduced.entries == want
        assert (pivots, rk) == (want_pivots, len(want_pivots))
        assert [_dense(v, ncols) for v in kernel_basis(m)] == _dense_kernel(rows, ncols)
        assert quotient_dim(m, ncols) == ncols - len(want_pivots)

        x = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols)]
        inside = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
        outside = [Fraction(rng.randint(-2, 2)) for _ in range(len(rows))]
        for b in (inside, outside, [Fraction(0)] * len(rows)):
            sol = solve_membership(m, b)
            want_sol = _dense_solve(rows, ncols, b)
            assert (None if sol is None else _dense(sol, ncols)) == want_sol
        assert solve_membership(m, inside) is not None


def _assert_image_rows_are_echelon(factor):
    """Each image row holds 1 at its lowest column, and the pivots ascend."""
    rows = factor.image_rows()
    pivots = [min(r) for r in rows]
    assert all(r[p] == 1 for r, p in zip(rows, pivots))
    assert pivots == sorted(set(pivots))
    assert all(j < factor.nrows for r in rows for j in r)


def test_factorization_image_matches_dense_gauss_jordan():
    """The image rows and the normal forms of a factorization against the
    dense reduced row echelon form of the transposed matrix."""
    rng = random.Random(13)
    for rows, ncols in _cases():
        m = RationalMatrix(rows, ncols=ncols)
        factor = ColumnFactorization(m.columns(), m.nrows)
        _assert_image_rows_are_echelon(factor)
        image = RowSpace(m.nrows, factor.image_rows())
        want, pivots = _dense_rref([list(c) for c in zip(*rows)] if ncols else [], m.nrows)
        assert [_dense(r, m.nrows) for r in image.echelon()] == want[: len(pivots)]
        for b in _random_rows(rng, 4, m.nrows, 0.5, False) + [list(c) for c in zip(*rows)]:
            assert factor.reduce(b) == image.reduce(b)
            assert (factor.solve(b) is None) == bool(factor.reduce(b))


def test_row_space_matches_dense_row_space():
    rng = random.Random(9)
    for rows, ncols in _cases():
        space, oracle = RowSpace(ncols), _DenseRowSpace(ncols)
        probes = _random_rows(rng, 4, ncols, 0.5, False)
        for i, v in enumerate(rows):
            assert space.add(v) == oracle.add(v)
            assert space.rank == len(oracle.rows)
            if i % 8 == 7 or i == len(rows) - 1:
                for w in probes + rows[i + 1 : i + 3]:
                    assert _dense(space.reduce(w), ncols) == oracle.reduce(w)
                    assert (not space.reduce(w)) == (not any(oracle.reduce(w)))
        assert [_dense(r, ncols) for r in space.echelon()] == [r for _, r in oracle.rows]


def test_row_space_seeded_from_an_echelon_matches_one_filled_row_by_row():
    rng = random.Random(17)
    for rows, ncols in _cases():
        m = RationalMatrix(rows, ncols=ncols)
        reduced, _, rk = rref(m)
        seeded, filled = RowSpace(ncols, reduced.rows[:rk]), RowSpace(ncols)
        for v in rows:
            filled.add(v)
        assert seeded.rank == filled.rank == rk
        assert seeded.echelon() == filled.echelon() == reduced.rows[:rk]
        for w in _random_rows(rng, 6, ncols, 0.5, False) + rows:
            assert seeded.reduce(w) == filled.reduce(w)
            assert seeded.add(w) == filled.add(w)
        assert seeded.echelon() == filled.echelon()
        assert rref(m)[0] == reduced  # seeding copied the rows it was given


# ---------------------------------------------------------------------------
# the echelon basis is kept unreduced: stored rows never change


def test_adding_a_row_never_changes_a_stored_row():
    for rows, ncols in _cases():
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
    for rows, ncols in _cases():
        probes = _random_rows(rng, 4, ncols, 0.5, False)
        for _ in range(3):
            order = rows[:]
            rng.shuffle(order)
            space, oracle = RowSpace(ncols), _DenseRowSpace(ncols)
            for v in order:
                assert space.add(v) == oracle.add(v)
            assert space.rank == len(oracle.rows)
            for w in probes + rows:
                assert _dense(space.reduce(w), ncols) == oracle.reduce(w)
            want = [r for _, r in oracle.rows]
            assert [_dense(r, ncols) for r in space.echelon()] == want


def test_row_space_seeded_from_an_unreduced_echelon_matches_one_seeded_from_rref():
    rng = random.Random(29)
    unreduced_seeds = 0
    for rows, ncols in _cases():
        m = RationalMatrix(rows, ncols=ncols)
        reduced, _, rk = rref(m)
        echelon = [dict(r) for r in reduced.rows[:rk]]
        for i in range(rk):  # add multiples of later rows: leads stay 1
            for later in echelon[i + 1 :]:
                f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for j, x in later.items():
                    echelon[i][j] = echelon[i].get(j, Fraction(0)) + f * x
            echelon[i] = {j: x for j, x in echelon[i].items() if x}
        unreduced_seeds += echelon != reduced.rows[:rk]
        unreduced, seeded = RowSpace(ncols, echelon), RowSpace(ncols, reduced.rows[:rk])
        assert unreduced.rank == seeded.rank == rk
        assert unreduced.echelon() == seeded.echelon() == reduced.rows[:rk]
        for w in _random_rows(rng, 6, ncols, 0.5, False) + rows:
            assert unreduced.reduce(w) == seeded.reduce(w)
            assert unreduced.add(w) == seeded.add(w)
        assert unreduced.echelon() == seeded.echelon()
    assert unreduced_seeds > 10


# ---------------------------------------------------------------------------
# the engine's own matrices against dense Gauss-Jordan elimination


def _assert_factor_matches_dense(factor, nrows):
    columns = [_dense(c, nrows) for c in factor.columns]
    rows = [list(r) for r in zip(*columns)]
    ncols = len(columns)
    assert [_dense(v, ncols) for v in factor.kernel] == _dense_kernel(rows, ncols)
    want, pivots = _dense_rref(columns, nrows)
    _assert_image_rows_are_echelon(factor)
    reduced = RowSpace(nrows, factor.image_rows()).echelon()
    assert [_dense(r, nrows) for r in reduced] == want[: len(pivots)]
    return len(pivots)


def test_d_factorizations_and_ranks_match_dense_gauss_jordan():
    for name, model in models([FIXTURES / "five_even_k2.model"]):
        for n in range(formal_dimension(model) + 1):
            # the rank first, while no factorization of degree n is cached,
            # so that it comes from the plain row space
            rk = cohomology._rank(model, n)
            factor = cohomology._factor(model, "d", n)
            nrows = len(basis(model.algebra, n + 1))
            assert _assert_factor_matches_dense(factor, nrows) == rk, (name, n)


def test_delta_factorizations_match_dense_gauss_jordan():
    for _, build in ELLIPTIC_K3_POOL:
        model = build()
        n = formal_dimension(model)
        for degree in (n - 1, n):
            nrows = len(basis(model.algebra, degree + 1))
            factor = cohomology._factor(model, "delta", degree)
            _assert_factor_matches_dense(factor, nrows)
