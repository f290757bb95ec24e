"""Every coefficient the engine produces is an exact rational.

Arithmetic on ``int`` and ``Fraction`` is exact; a ``float`` anywhere would
round, and a ``bool`` is an ``int`` only by accident.  So each coefficient
is checked by its exact type, ``int`` or ``Fraction``, over the elliptic
k = 3 pool and three model files, one with non-unit and rational
coefficients: the cohomology representatives, the cached d- and
delta-factorizations and their solves, the Toomer representatives, the lift
records, the determinant class, the Groebner basis of the pure ideal and
the series read off it, and d and delta of random elements with rational
coefficients.

A model with integer coefficients is assembled and eliminated in ``int``.
The integer path is checked against the ``Fraction`` path, and the
integer path is checked to be the one the engine takes.
"""

import random
from fractions import Fraction

import pytest

from sullivan.algebra import Element
from sullivan.cli import parse_model_file
from sullivan.cohomology import (
    _pure_ideal,
    _PureQuotient,
    cohomology_basis,
    cohomology_dim,
    formal_dimension,
    is_elliptic,
    toomer_oracle,
)
from sullivan.differential import is_pure
from sullivan.linalg import RowSpace
from sullivan.models import ALL_MODELS, ELLIPTIC_K3_POOL
from sullivan.murillo import murillo_fundamental_class
from sullivan.selftest import random_element
from sullivan.spectral import FilteredPair, delta_apply, spectral_run
from zoo import FIXTURES, LARGE, model_files

EXACT = (int, Fraction)

#: (name, builder) of three model files; scaled_three_even has non-unit and
#: rational coefficients: leads that are not +-1
FILE_MODELS = [
    (path.stem, lambda path=path: parse_model_file(str(path)).model)
    for path in model_files(FIXTURES, LARGE)
    if path.stem in ("five_even_k2", "three_even", "scaled_three_even")
]


def _check(values, what):
    bad = [v for v in values if type(v) not in EXACT]
    assert not bad, f"{what}: {bad[0]!r} is a {type(bad[0]).__name__}"


def _check_element(e: Element, what):
    _check(e.terms.values(), what)


@pytest.mark.parametrize(
    "name,build",
    ELLIPTIC_K3_POOL + FILE_MODELS,
    ids=[name for name, _ in ELLIPTIC_K3_POOL + FILE_MODELS],
)
def test_every_coefficient_is_an_int_or_a_fraction(name, build):
    model = build()
    n_top = formal_dimension(model)
    for n in range(n_top + 1):
        for rep in cohomology_basis(model, n):
            _check_element(rep, f"H^{n} representative")
    _check_element(toomer_oracle(model).representative, "oracle representative")
    if is_pure(model):
        _check_element(murillo_fundamental_class(model), "murillo class")
    if model.k == 3:
        run = spectral_run(model)
        _check_element(run.result.representative, "spectral representative")
        for cls in run.classes:
            _check_element(cls.as_element(), "delta class")
        for trace in run.outcomes:
            for corrector in trace.correctors:
                _check_element(corrector, "lift corrector")
            if trace.final is not None:
                _check_element(trace.final, "lift final")

    # every d- and delta-factorization the runs above cached
    factors = [v for k, v in model._cache.items() if k[1:2] == ("factor",)]
    assert factors
    for factor in factors:
        for column in factor.columns:
            _check(column.values(), "factorization column")
            solution = factor.solve(column)
            assert solution is not None
            _check(solution.values(), "solve result")
        for vector in factor.kernel:
            _check(vector.values(), "kernel vector")
        for row in factor._image()._rows.values():
            _check(row.values(), "image row")

    # the Groebner basis of the pure ideal, made monic by division on the
    # scaled model, and the series read off its lead monomials
    quotient = model._cache[("pure_quotient",)]
    for _, f in quotient.basis:
        _check(f.values(), "Groebner basis coefficient")
    _check(quotient.numerator.values(), "Hilbert numerator coefficient")
    _check(quotient.dims, "pure quotient dimension")

    rng = random.Random(f"exact:{name}")
    for _ in range(20):
        e = random_element(rng, model.algebra)
        _check_element(e, "random element")
        _check_element(model.d(e), "d of a random element")
        if model.k == 3:  # delta of e, one pair slot of it at a time
            for q in {w // 2 for w in e.wordlengths()}:
                pair = FilteredPair.slot(model, q, e.degree(), e)
                _check_element(delta_apply(pair).as_element(), "delta of a random element")


# ---------------------------------------------------------------------------
# the integer path against the Fraction path


def _as_fractions(model):
    """The model with every coefficient that assembly and the ellipticity
    scan read held as a ``Fraction``: the terms of d, which delta reads
    too, and the generators of the cached pure quotient."""
    d = model.differential
    d._terms = {
        i: [(t, Fraction(a), odd) for t, a, odd in terms] for i, terms in d._terms.items()
    }
    weights, ideal = _pure_ideal(model)
    model._cache[("pure_quotient",)] = _PureQuotient(
        weights, [{t: Fraction(c) for t, c in f.items()} for f in ideal]
    )
    return model


def _results(model):
    n_top = formal_dimension(model)
    out = {
        "dims": [cohomology_dim(model, n) for n in range(n_top + 1)],
        "top basis": cohomology_basis(model, n_top),
        "elliptic": is_elliptic(model),
    }
    if not out["elliptic"].is_elliptic:
        return out
    oracle = toomer_oracle(model)
    out["oracle"] = (oracle.e0, oracle.representative)
    if model.k == 3:
        run = spectral_run(model)
        out["spectral"] = (run.result.e0, run.result.representative)
        out["classes"] = [(c.p, c.n, c.u, c.v) for c in run.classes]
    return out


@pytest.mark.parametrize(
    "name,build",
    ALL_MODELS + FILE_MODELS,
    ids=[name for name, _ in ALL_MODELS + FILE_MODELS],
)
def test_integer_path_gives_the_results_of_the_fraction_path(name, build):
    fractions = _as_fractions(build())
    assert _results(build()) == _results(fractions)
    # the Fraction copy did run on Fractions, for delta as well as d
    columns = [
        x
        for key, factor in fractions._cache.items()
        if key[1:2] == ("factor",)
        for column in factor.columns
        for x in column.values()
    ]
    assert all(type(x) is Fraction for x in columns)
    groebner = fractions._cache[("pure_quotient",)].basis
    assert all(type(c) is Fraction for _, f in groebner for c in f.values())


# ---------------------------------------------------------------------------
# the engine takes the integer path


@pytest.mark.parametrize("stem", ["pure_n37", "pure_n35", "five_even_k2"])
def test_integer_models_are_assembled_and_eliminated_in_int(stem):
    model = parse_model_file(str(FIXTURES / f"{stem}.model")).model
    assert is_elliptic(model).is_elliptic
    toomer_oracle(model)
    # delta, read off d's int terms, is assembled and eliminated in int too
    which = ["d"]
    if model.k == 3:
        spectral_run(model)
        which.append("delta")
    for w in which:
        factors = [v for k, v in model._cache.items() if k[:2] == (w, "factor")]
        assert factors, w
        for factor in factors:
            image = factor._image()._rows.values()
            for vectors in (factor.columns, factor.kernel, image):
                for vector in vectors:
                    assert all(type(x) is int for x in vector.values()), w
    # the pure ideal and its Groebner basis, whose leads are all 1
    ideal = _pure_ideal(model)[1]
    groebner = model._cache[("pure_quotient",)].basis
    assert ideal and groebner
    assert all(type(c) is int for f in ideal for c in f.values())
    assert all(type(c) is int for _, f in groebner for c in f.values())


def test_a_row_with_lead_minus_one_is_stored_negated_in_int():
    space = RowSpace(3)
    assert space.add({0: -1, 2: 3})
    assert space._rows == {0: {0: 1, 2: -3}}
    assert all(type(x) is int for x in space._rows[0].values())
    assert space.reduce({0: 2, 1: 5}) == {1: 5, 2: 6}


def test_a_row_with_another_lead_falls_back_to_fractions():
    space = RowSpace(2)
    assert space.add({0: 2, 1: 3})
    assert space._rows == {0: {0: 1, 1: Fraction(3, 2)}}
    _check(space._rows[0].values(), "stored row")
