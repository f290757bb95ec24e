from __future__ import annotations

import argparse
import random
from collections import Counter
from fractions import Fraction

import pytest

from reference import (
    DenseRowSpace,
    dense,
    dense_kernel,
    dense_rref,
    dense_solve,
    matrix_cases,
    positions,
    random_rows,
    sparse,
)
from sullivan import cli, cohomology
from sullivan.algebra import Element, basis_keys
from sullivan.cohomology import formal_dimension
from sullivan.linalg import ColumnFactorization, RowSpace
from sullivan.models import ELLIPTIC_K3_POOL
from zoo import FIXTURES, LARGE, model_files, models


def test_row_space_extension():
    space = RowSpace(3)
    assert space.add([Fraction(1), Fraction(1), Fraction(0)])
    assert not space.add([Fraction(2), Fraction(2), Fraction(0)])
    assert space.add([Fraction(0), Fraction(0), Fraction(5)])
    assert space.rank == 2
    assert not space.reduce([Fraction(3), Fraction(3), Fraction(7)])
    assert space.reduce([Fraction(1), Fraction(0), Fraction(0)])


def test_a_row_space_has_one_constructor_and_starts_empty():
    # no seed: every row enters through add, checked and eliminated
    with pytest.raises(TypeError):
        RowSpace(2, [{0: 1}, {0: 1, 1: 1}])
    assert RowSpace(2).rank == 0 and RowSpace(2).echelon() == []


def _image_of(factor):
    """factor._image(), checked to be an echelon basis of leads 1 under their
    own pivots, within the first nrows coordinates."""
    image = factor._image()
    assert image.ncols == factor.nrows
    for p, r in image._rows.items():
        assert min(r) == p and r[p] == 1
        assert all(j < factor.nrows for j in r)
    return image


def test_factorization_image_matches_dense_gauss_jordan():
    """The kernel, the image, the normal forms and the solutions of a
    factorization against dense Gauss-Jordan elimination.  Its image, handed
    over unreduced, agrees with a space filled with the columns one by one,
    also after rows are added to both, and adding to it changes neither a
    second image nor the factorization."""
    rng = random.Random(13)
    unreduced_images = 0
    for rows, ncols in matrix_cases():
        nrows = len(rows)
        columns = [[r[j] for r in rows] for j in range(ncols)]
        factor = ColumnFactorization(columns, nrows)
        assert [dense(v, ncols) for v in factor.kernel] == dense_kernel(rows, ncols)
        image, second, filled = _image_of(factor), factor._image(), RowSpace(nrows)
        for c in columns:
            filled.add(c)
        want, pivots = dense_rref(columns, nrows)
        assert image.rank == filled.rank == len(pivots)
        assert [dense(r, nrows) for r in image.echelon()] == want[: len(pivots)]
        assert image.echelon() == filled.echelon()
        unreduced_images += sorted(image._rows.values(), key=min) != image.echelon()
        probes = random_rows(rng, 4, nrows, 0.5, False) + columns
        forms = [factor.reduce(b) for b in probes]
        for b, form in zip(probes, forms):
            assert image.reduce(b) == filled.reduce(b) == form
            assert (factor.solve(b) is None) == bool(form)
        inside = [sum(r, Fraction(0)) for r in rows]  # the sum of the columns
        assert dense(factor.solve(inside), ncols) == dense_solve(rows, ncols, inside)
        kept = {p: dict(r) for p, r in second._rows.items()}
        for b in random_rows(rng, 6, nrows, 0.5, False) + columns:
            assert image.add(b) == filled.add(b)
        assert image.echelon() == filled.echelon()
        assert second._rows == kept and second.rank == len(pivots)
        assert [factor.reduce(b) for b in probes] == forms
    assert unreduced_images > 10, unreduced_images


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


def test_a_column_whose_lead_cancels_is_reduced_up_to_its_next_lead():
    # the third column's lead, row 1, cancels against the first column's
    # row; it is stored at row 3, its next lead, with pivot row 2 cleared
    factor = ColumnFactorization([[1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]], 4)
    assert not factor.kernel
    assert _image_of(factor)._rows == {0: {0: 1, 1: 1}, 2: {2: 1}, 3: {3: 1}}
    assert factor.solve([1, 1, 1, 1]) == {2: 1}


def _minus_columns(b, columns, x):
    """b - m x for the matrix m of ``columns``, without zero entries."""
    out = dict(b)
    for j, xj in x.items():
        for i, y in columns[j].items():
            out[i] = out.get(i, 0) - xj * y
    return {i: v for i, v in out.items() if v}


def test_split_stopped_at_a_row_solves_the_columns_cut_there():
    """The image echelon, eliminated with no unit coordinates, reduced with
    ``stop`` clears only the pivots below row ``stop``: it leaves b - m x,
    for the x that a fresh factorization of the columns cut below ``stop``
    finds for b cut there, and below ``stop`` that factorization's own
    normal form.  On int and Fraction matrices, for every stop in 0..nrows."""
    rng = random.Random(31)
    kinds, solved = Counter(), 0
    for rows, ncols in matrix_cases():
        nrows = len(rows)
        if all(x.denominator == 1 for r in rows for x in r):
            rows = [[int(x) for x in r] for r in rows]
        columns = [sparse([r[j] for r in rows]) for j in range(ncols)]
        kinds[type(next((x for c in columns for x in c.values()), 0))] += 1
        echelon = RowSpace(nrows)
        assert not echelon._extend(map(dict, columns), nrows)
        assert echelon._rows == ColumnFactorization(columns, nrows)._image()._rows
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
            rest = echelon._reduce(dict(inside), stop)
            x = cut.solve({i: v for i, v in inside.items() if i < stop})
            assert x is not None
            assert rest == _minus_columns(inside, columns, x)
            assert all(i >= stop for i in rest)
            solved += 1
            # any b: the cut factorization's own split, below stop
            for b in random_rows(rng, 2, nrows, 0.4, rng.random() < 0.5):
                rest = echelon._reduce(sparse(b), stop)
                below = {i: v for i, v in sparse(b).items() if i < stop}
                cut_rest, cut_x = cut._split(below)
                assert {i: v for i, v in rest.items() if i < stop} == cut_rest
                assert rest == _minus_columns(sparse(b), columns, cut_x)
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


# ---------------------------------------------------------------------------
# the engine's own matrices against dense Gauss-Jordan elimination


def _assert_factor_matches_dense(model, factor, n, dense_images):
    """The factorization out of degree n, its columns on the keys of degree
    n + 1 and its kernel on those of degree n, against dense Gauss-Jordan
    elimination of the columns at positions in the bases."""
    src, dst = basis_keys(model.algebra, n), basis_keys(model.algebra, n + 1)
    columns = positions(factor.columns, dst)
    rows = [list(r) for r in zip(*(dense(c, len(dst)) for c in columns))]
    kernel = [dense(v, len(src)) for v in positions(factor.kernel, src)]
    assert kernel == dense_kernel(rows, len(src))
    want, pivots = dense_images(columns, len(dst))
    assert positions(_image_of(factor).echelon(), dst) == want
    return len(pivots)


def _assert_echelon_matches_dense(model, which, n, dense_images):
    """The boundaries of degree n + 1, eliminated with no unit coordinates
    while no factorization out of degree n is cached, against dense
    Gauss-Jordan elimination of the same columns at positions in the basis."""
    assert (which, "factor", n) not in model._cache
    echelon = cohomology._boundaries(model, which, n + 1)
    dst = basis_keys(model.algebra, n + 1)
    want, pivots = dense_images(positions(cohomology._columns(model, which, n), dst), len(dst))
    assert positions(echelon.echelon(), dst) == want
    assert set(echelon._pivots) == {dst[j] for j in pivots}


def test_d_factorizations_and_ranks_match_dense_gauss_jordan(dense_images):
    for name, model in models([FIXTURES / "five_even_k2.model"]):
        for n in range(formal_dimension(model) + 1):
            # the rank first, while no factorization of degree n is cached,
            # so that it comes from the plain row space
            rk = cohomology._rank(model, n)
            _assert_echelon_matches_dense(model, "d", n, dense_images)
            factor = cohomology._factor(model, "d", n)
            rank = _assert_factor_matches_dense(model, factor, n, dense_images)
            assert rank == rk, (name, n)


def test_delta_factorizations_match_dense_gauss_jordan(dense_images):
    for _, build in ELLIPTIC_K3_POOL:
        model = build()
        n = formal_dimension(model)
        for degree in (n - 1, n):
            _assert_echelon_matches_dense(model, "delta", degree, dense_images)
            factor = cohomology._factor(model, "delta", degree)
            _assert_factor_matches_dense(model, factor, degree, dense_images)


def test_kernels_and_solves_of_the_engine_are_on_the_keys_of_their_degree():
    """The engine's factorization out of degree n names column j's unit
    coordinate by the key of j's monomial, so its kernel vectors and solves
    are elements' ``keyed`` dicts.  At degrees N - 1 and N of every
    ``ELLIPTIC_K3_POOL`` model and of ``tests/large``, each kernel vector is
    keyed by degree-n basis keys and d kills its element, and each stored
    column, split, solves back to an element of those keys whose d is it."""
    cases = [(name, build()) for name, build in ELLIPTIC_K3_POOL]
    cases += [(p.stem, cli.parse_model_file(str(p)).model) for p in model_files(LARGE)]
    kernels = solves = 0
    for name, model in cases:
        alg, top = model.algebra, formal_dimension(model)
        for n in (top - 1, top):
            factor, keys = cohomology._factor(model, "d", n), set(basis_keys(alg, n))
            for z in factor.kernel:
                assert z and set(z) <= keys, (name, n)
                assert model.d(Element._of(alg, dict(z))).is_zero, (name, n)
            for column in factor.columns:
                rest, x = factor._split(dict(column))
                assert not rest and set(x) <= keys, (name, n)
                assert model.d(Element._of(alg, x)).keyed == column, (name, n)
            kernels += len(factor.kernel)
            solves += len(factor.columns)
    assert kernels >= 3000 and solves >= 6000, (kernels, solves)


def test_boundary_echelons_are_the_images_of_the_factorizations():
    """The boundaries of each degree, eliminated once with no unit
    coordinates, have the pivots, in order, and the rows of the image of
    the factorization of the same columns, for d and delta in every degree
    0 .. N + 1 of ``ALL_MODELS``, five_even_k2 and eight random k = 3
    models.  And ``report`` on pure_n35 keeps no kernel vector out of
    degree N - 1: the only factorizations it caches are those out of N."""
    compared = 0
    for name, model in models([FIXTURES / "five_even_k2.model"], randoms=8):
        which = ("d", "delta") if model.k == 3 else ("d",)
        for n in range(max(formal_dimension(model), 0) + 2):
            for w in which:
                echelon = cohomology._boundaries(model, w, n)
                assert (w, "factor", n - 1) not in model._cache
                columns = cohomology._columns(model, w, n - 1)
                image = ColumnFactorization(columns, echelon.ncols)._image()
                assert list(echelon._pivots) == list(image._pivots), (name, w, n)
                assert echelon._rows == image._rows, (name, w, n)
                compared += echelon.rank > 0
    assert compared >= 480, compared

    path = str(FIXTURES / "pure_n35.model")
    model = cli.parse_model_file(path).model
    cli._report(argparse.Namespace(model=path, max_degree=None), model)
    cached = model._cache.items()
    factors = {k for k, v in cached if isinstance(v, ColumnFactorization)}
    echelons = {k for k, v in cached if isinstance(v, RowSpace)}
    assert factors == {("d", "factor", 35), ("delta", "factor", 35)}
    assert echelons == {("d", "boundaries", 35), ("delta", "boundaries", 35)}
