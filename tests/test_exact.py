"""Every coefficient the engine produces is an exact rational.

Arithmetic on ``int`` and ``Fraction`` is exact; a ``float`` anywhere would
round, and a ``bool`` is an ``int`` only by accident.  So each coefficient
is checked by its exact type, ``int`` or ``Fraction``, over the elliptic
k = 3 pool and two fixture files: the cohomology representatives, the
cached d- and delta-factorizations and their solves, the Toomer
representatives, the lift records, the determinant class, and d and delta
of random elements with rational coefficients.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from sullivan.algebra import Element
from sullivan.cli import parse_model_file
from sullivan.cohomology import cohomology_basis, formal_dimension, toomer_oracle
from sullivan.differential import is_pure
from sullivan.models import ELLIPTIC_K3_POOL
from sullivan.murillo import murillo_fundamental_class
from sullivan.selftest import random_element
from sullivan.spectral import spectral_run

FIXTURES = Path(__file__).parent / "fixtures"
EXACT = (int, Fraction)


def _models():
    files = [
        (stem, lambda stem=stem: parse_model_file(str(FIXTURES / f"{stem}.model")).model)
        for stem in ("five_even_k2", "three_even")
    ]
    return ELLIPTIC_K3_POOL + files


def _check(values, what):
    bad = [v for v in values if type(v) not in EXACT]
    assert not bad, f"{what}: {bad[0]!r} is a {type(bad[0]).__name__}"


def _check_element(e: Element, what):
    _check(e.terms.values(), what)


@pytest.mark.parametrize("name,build", _models(), ids=[name for name, _ in _models()])
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

    # every d- and delta-factorization the runs above cached, whole or cut
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
        for row in factor.image_rows():
            _check(row.values(), "image row")

    rng = random.Random(f"exact:{name}")
    for _ in range(20):
        e = random_element(rng, model.algebra)
        _check_element(e, "random element")
        _check_element(model.d(e), "d of a random element")
        if model.k == 3:
            _check_element(model.delta(e), "delta of a random element")
