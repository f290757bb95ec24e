"""The one Leibniz rule on keys against the reference rule on tuples.

``Derivation.leibniz`` merges each Leibniz summand straight into one
``{key: coefficient}`` dict per source key, in one pass over a list of
keys, for the d of an ``Element`` (all keys into one dict) and for the
columns of the matrices (one dict per key, each term at its row) alike.
Here it is compared with ``reference.reference_apply``, which builds every
summand from two products of monomial tuples signed by counting
inversions, code the engine's rule shares nothing with, on d and
its word-length components d3 and d4 of every fixture and delta of every
k = 3 fixture, on random derivations whose images carry odd factors, on
elements with exponents near the limit of a key's fields, on the matrices
the engine eliminates, and on the ellipticity scan's quotient dimensions.
The engine cuts delta from d, one pair slot up; the reference delta is
built from the components.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

import pytest

from reference import (
    homogeneous_component, koszul_sign, map_columns, reference_apply, reference_delta,
)
from sullivan import cli, cohomology
from sullivan.algebra import Element, basis, basis_keys, build_algebra, parse_element
from sullivan.cohomology import _images, formal_dimension, is_elliptic
from sullivan.differential import (
    Derivation,
    SullivanModel,
    build_differential,
    build_model,
    pure_projection,
)
from sullivan.errors import PreconditionError
from sullivan.linalg import RowSpace
from sullivan.models import ALL_MODELS
from sullivan.selftest import random_element
from sullivan.spectral import FilteredPair, delta_apply
from zoo import FIXTURES, LARGE, assorted, model_files, models, random_pure_model


def _pair_delta(model: SullivanModel, e: Element) -> Element:
    """The engine's delta of e, term by term: ``delta_apply`` of the pair
    each term fills."""
    alg = model.algebra
    out = alg.zero()
    for m, c in e.terms.items():
        term = Element.from_monomial(alg, m, c)
        pair = FilteredPair.slot(model, sum(m) // 2, alg.monomial_degree(m), term)
        out = out + delta_apply(pair).as_element()
    return out


def _maps(model: SullivanModel):
    """(name, engine map, reference map) for d, d3, d4 and, where delta is
    defined (k = 3), delta."""
    d3, d4 = (homogeneous_component(model.differential, i) for i in (3, 4))
    maps = [
        ("d", model.d, lambda e: reference_apply(model.differential, e)),
        ("d3", d3, lambda e: reference_apply(d3, e)),
        ("d4", d4, lambda e: reference_apply(d4, e)),
    ]
    if model.k == 3:
        maps.append(
            ("delta", lambda e: _pair_delta(model, e), reference_delta(model))
        )
    return maps


def test_every_basis_monomial_matches_the_reference():
    nonzero = 0
    for name, model in models():
        alg = model.algebra
        for which, f, ref in _maps(model):
            for n in range(46):
                for m in basis(alg, n):
                    e = Element.from_monomial(alg, m)
                    got = f(e)
                    assert got == ref(e), (name, which, m)
                    nonzero += not got.is_zero
    assert nonzero >= 4000


def test_d_squared_cancels_term_by_term():
    """d(d(m)) = 0: every term of it cancels in the merged dict, whether
    the rule adds each term of d(m) into one dict or each column is summed."""
    cancelled = 0
    for name, model in models():
        alg = model.algebra
        for n in range(30):
            for m in basis(alg, n):
                dm = model.d(Element.from_monomial(alg, m))
                keys, coeffs = list(dm.keyed), list(dm.keyed.values())
                out, columns, summed = {}, [{} for _ in keys], {}
                model.differential.leibniz(keys, coeffs, repeat(out))
                model.differential.leibniz(keys, repeat(1), columns)
                for c, column in zip(coeffs, columns):
                    for k, v in column.items():
                        summed[k] = summed.get(k, 0) + c * v
                assert not any(out.values()) and not any(summed.values()), (name, m)
                assert model.d(dm) == reference_apply(model.differential, dm) == alg.zero()
                cancelled += len(out)
    assert cancelled >= 200


def test_random_elements_match_the_reference():
    rng = random.Random("leibniz")
    cases = 0
    for name, model in models():
        alg = model.algebra
        degrees = [n for n in range(31) if basis(alg, n)]
        for _ in range(30):
            # homogeneous, and a sum of two degrees with a cancelling pair
            a = random_element(rng, alg, max_degree=30, max_terms=6)
            b = random_element(rng, alg, max_degree=30, max_terms=6)
            m = Element.from_monomial(alg, rng.choice(basis(alg, rng.choice(degrees))))
            for e in (a, a + b, a + m - m, 3 * a - a - a - a + b, m):
                for which, f, ref in _maps(model):
                    assert f(e) == ref(e), (name, which, e)
                    cases += 1
    assert cases >= 7000


def _random_derivation(rng: random.Random) -> Derivation:
    """A derivation on 2 or 3 even and 3 or 4 odd generators whose images are
    random sums of monomials with odd factors.  It is neither homogeneous
    nor a differential; the Leibniz rule extends it all the same."""
    evens = rng.randint(2, 3)
    odds = rng.randint(3, 4)
    specs = [(f"x{j}", rng.choice((2, 4))) for j in range(evens)]
    specs += [(f"y{j}", rng.choice((3, 5, 7))) for j in range(odds)]
    rng.shuffle(specs)
    alg = build_algebra(specs)
    images = {}
    for g in alg.generators:
        if rng.random() < 0.2:
            continue
        img = alg.zero()
        for _ in range(rng.randint(1, 4)):
            mono = basis(alg, rng.randint(2, 14))
            if mono:
                img = img + Element.from_monomial(
                    alg, rng.choice(mono), rng.choice((-2, -1, 1, Fraction(1, 2), 3))
                )
        images[g.index] = img
    return Derivation(alg, images)


def _summand_signs(derivation: Derivation, mono):
    """The Koszul sign of every summand term of d(mono): 1, -1, or 0 for a
    term sharing an odd factor with the rest of mono."""
    n = derivation.algebra.ngens
    for i, exp in enumerate(mono):
        img = derivation.images.get(i)
        if exp and img is not None:
            left = mono[:i] + (exp - 1,) + (0,) * (n - i - 1)
            right = (0,) * (i + 1) + mono[i + 1:]
            for t in img.terms:
                yield koszul_sign(derivation.algebra, left, t) * koszul_sign(
                    derivation.algebra, t, right
                )


def test_random_derivations_with_odd_factors_match_the_reference():
    rng = random.Random("leibniz derivations")
    signs = {1: 0, -1: 0, 0: 0}
    compared = 0
    for _ in range(40):
        derivation = _random_derivation(rng)
        alg = derivation.algebra
        for n in range(17):
            for m in basis(alg, n):
                e = Element.from_monomial(alg, m, rng.choice((1, -3, Fraction(2, 5))))
                assert derivation(e) == reference_apply(derivation, e), m
                keyed = {}
                derivation.leibniz([alg.encode(m)], [1], [keyed])
                assert Element(alg, {alg.decode(k): v for k, v in keyed.items()}) == (
                    reference_apply(derivation, Element.from_monomial(alg, m))
                ), m
                for sign in _summand_signs(derivation, m):
                    signs[sign] += 1
                compared += 1
        for _ in range(20):
            e = random_element(rng, alg, max_degree=16, max_terms=5)
            assert derivation(e) == reference_apply(derivation, e), e
    assert compared >= 3000
    assert min(signs.values()) >= 1000, signs


def test_one_pass_over_each_degree_matches_the_reference_per_monomial():
    """One ``leibniz`` pass over every basis key of a degree, each term
    written at its position, is ``reference_apply`` of each monomial mapped
    through the positions, on every degree 0 .. N + 1 of every model of
    ``ALL_MODELS`` and of ``tests/large`` and on random derivations.  No
    column holds a zero, and each has one term per surviving Leibniz
    summand: two summands of one monomial never meet, since a term of
    d(g_i) divisible by g_i would leave a cofactor of degree 1.  d of an
    element with mixed int and Fraction coefficients, the same pass into one
    dict, is the sum of c * column."""
    rng = random.Random("leibniz one pass")
    cases = [
        (model.differential, formal_dimension(model) + 1)
        for _, model in models(model_files(LARGE))
    ]
    cases += [(_random_derivation(rng), 16) for _ in range(8)]
    columns = fractions = 0
    for derivation, top in cases:
        alg = derivation.algebra
        reach = top + max([0] + [max(img.degrees()) for img in derivation.images.values()])
        keys = [k for n in range(reach + 1) for k in basis_keys(alg, n)]
        index = {k: i for i, k in enumerate(keys)}
        for n in range(top + 1):
            src = basis_keys(alg, n)
            got = [{} for _ in src]
            derivation.leibniz(src, repeat(1), got, index)
            coeffs = [rng.choice((1, -2, 3, Fraction(1, 3), Fraction(-5, 2))) for _ in src]
            monos, total = [alg.decode(k) for k in src], {}
            for m, column, c in zip(monos, got, coeffs):
                want = reference_apply(derivation, Element.from_monomial(alg, m))
                assert column == {index[k]: x for k, x in want.keyed.items()}, m
                assert all(column.values()), m
                assert len(column) == sum(1 for s in _summand_signs(derivation, m) if s), m
                for i, x in column.items():
                    total[i] = total.get(i, 0) + c * x
                columns += 1
            e = Element(alg, dict(zip(monos, coeffs)))
            assert {index[k]: x for k, x in derivation(e).keyed.items()} == {
                i: x for i, x in total.items() if x
            }, (alg, n)
            fractions += sum(isinstance(c, Fraction) for c in coeffs)
    assert columns >= 20000 and fractions >= 5000, (columns, fractions)


def test_cochain_maps_and_delta_matrices_match_the_reference():
    """Every column of the matrices the engine eliminates, the maps of d and
    of delta out of each degree, entry for entry, against the columns of the
    reference derivation."""
    maps = 0
    for name, model in models(model_files(FIXTURES)):
        alg = model.algebra
        references = [("d", lambda e: reference_apply(model.differential, e))]
        if model.k == 3:
            references.append(("delta", reference_delta(model)))
        for n in range(max(formal_dimension(model), 0) + 2):
            src, dst = basis(alg, n), basis(alg, n + 1)
            for which, ref in references:
                if which == "d":
                    got = _images(model, basis_keys(alg, n), basis_keys(alg, n + 1))
                else:
                    got = cohomology._factor(model, which, n).columns
                assert got == map_columns(alg, ref, src, dst), (name, which, n)
            if model.k == 3 and src and dst:
                maps += 1
    assert maps >= 350


def test_delta_columns_read_off_d_match_the_delta_rule():
    """The whole-degree matrices of delta out of degrees 0 .. N, N - 1 and N
    among them, are d's columns cut one pair slot up, read off d's cached
    factorization or assembled afresh; either way they are the same columns,
    and the reference's."""
    compared, first = 0, {}
    for d_first in (True, False):
        for name, model in assorted():
            if model.k != 3:
                continue
            alg, n_top = model.algebra, formal_dimension(model)
            ref = reference_delta(model)
            for n in range(n_top + 1):
                src, dst = basis(alg, n), basis(alg, n + 1)
                if d_first:
                    cohomology._factor(model, "d", n)
                got = cohomology._factor(model, "delta", n).columns
                assert got == first.setdefault((name, n), got), (name, n, d_first)
                assert got == map_columns(alg, ref, src, dst), (name, n, d_first)
                compared += bool(got)
            assert (("d", "factor", n_top) in model._cache) == d_first
    assert compared >= 950


def _reference_quotient_dim(model: SullivanModel, degree: int) -> int:
    """The pure quotient in one degree with each ideal row m * d(y) formed
    as an Element product."""
    alg = model.algebra
    pure = pure_projection(model)
    even = lambda m: not any(m[i] for i in alg.odd_indices)  # noqa: E731
    ambient = [m for m in basis(alg, degree) if even(m)]
    if not ambient:
        return 0
    index = {m: i for i, m in enumerate(ambient)}
    rows = []
    for g in alg.generators:
        img = pure.differential.image_of(g.name)
        if not g.is_odd or img.is_zero or degree < img.degree():
            continue
        for m in filter(even, basis(alg, degree - img.degree())):
            prod = Element.from_monomial(alg, m) * img
            rows.append({index[t]: c for t, c in prod.terms.items()})
    space = RowSpace(len(ambient))
    for row in rows:
        space.add(row)
    return len(ambient) - space.rank


def test_pure_quotient_dims_match_the_reference():
    # ideals with no lead term: few are elliptic, and their quotients depend
    # on the coefficients, not only on the degrees as for a regular sequence
    rng, ideals = random.Random("leibniz ideals"), []
    while len(ideals) < 12:
        degrees = [rng.choice((2, 4)) for _ in range(rng.randint(2, 3))]
        targets = [rng.choice((6, 8, 10)) for _ in range(rng.randint(1, 2))]
        model = random_pure_model(rng, degrees, targets=targets)
        if sum(len(img.terms) for img in model.differential.images.values()) > len(targets):
            ideals.append((f"random ideal {len(ideals)}", model))
    zoo = models(model_files(FIXTURES), randoms=8) + ideals
    # d y = x z (x + z) and d u = x (x - z)(x + z) share the factor x (x + z);
    # with any one sign changed they share only x, and the quotient changes
    alg = build_algebra([("x", 2), ("z", 2), ("y", 5), ("u", 5)])
    images = {
        "y": parse_element("x^2*z + x*z^2", alg),
        "u": parse_element("x^3 - x*z^2", alg),
    }
    zoo.append(("common factor", build_model(alg, build_differential(alg, images))))
    # n37 x CP^2: the even generator w2 follows the odd ones, so the scan's
    # projection onto the even exponents is not a prefix of the monomial
    zoo.append(("n37_cp2", cli.parse_model_text(
        "generator x2 2\ngenerator x6 6\ngenerator y5 5\ngenerator y15 15\n"
        "generator y23 23\ngenerator w2 2\ngenerator z5 5\n"
        "d y5 = x2^3\nd y15 = x2^2*x6^2\nd y23 = x6^4\nd z5 = w2^3\n"
    )))
    degrees = nonzero = 0
    for name, model in zoo:
        is_elliptic(model)
        # the dimensions of every degree the scan read, from degree 0 up
        scanned = model._cache[("pure_quotient",)].dims
        assert scanned, name
        for degree, q in enumerate(scanned):
            assert q == _reference_quotient_dim(model, degree), (name, degree)
            nonzero += q > 0
        degrees += len(scanned)
    assert degrees >= 600 and nonzero >= 250


def test_elements_past_the_key_fields_keep_an_exact_d():
    """A key's exponent fields are sized from the model: here y1201 comes
    first and x2's field holds exponents up to 1023, so d(d(y1201)) =
    d(x2^601) = 0 holds and the model builds.  d of x2^600*y3 matches the
    reference, and d of y1201*x2^520*y3 holds x2^1121*y3, past any field
    sized from the model, so it raises, naming the limit, and no wrong key
    is made."""
    alg = build_algebra([("y1201", 1201), ("x2", 2), ("y3", 3)])
    d = build_differential(
        alg, {"y1201": parse_element("x2^601", alg), "y3": parse_element("x2^2", alg)}
    )
    e = parse_element("x2^600*y3", alg)
    assert d(e) == reference_apply(d, e) == parse_element("x2^602", alg)
    with pytest.raises(PreconditionError, match="'x2' has exponent 1121, outside 0..1023"):
        d(e + parse_element("2*y1201*x2^520*y3", alg))


def test_an_element_of_another_algebra_is_rejected():
    model = ALL_MODELS[-1][1]()
    other = build_algebra([("a", 2), ("b", 3)])
    for f in (model.d, homogeneous_component(model.differential, 3)):
        with pytest.raises(ValueError, match="derivation's algebra"):
            f(other.gen_element("a"))
