"""The one-pass depth search against the descending search it replaced.

``toomer_oracle`` and ``representative_depth`` find the deepest word-length
filtration stage of a class with one reduction modulo the boundary echelon,
and the representative with the same reduction stopped at that stage.  Here
they are compared, in depth and in the exact representative, with a plain
transcription of the earlier method: solve the membership problem for
s = s_max, s_max - 1, ... and stop at the first success; and with the solve
over the boundary columns cut below the depth that the stopped reduction
replaced.  The comparisons run over the fixture zoo and over seeded random
pure k = 3 models.

The same models check the cohomology helpers that d and delta share:
delta-cohomology solved over the whole degree basis against the earlier
loop over pair slots, on the pair formula's slot matrices, ``is_boundary``
on the cached boundary echelon against a membership solve, and the lift,
which solves on the cached factorization of delta, against a lift that
solves by dense Gauss-Jordan elimination.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from reference import (
    boundary_solve, coordinates, cut_depth_search, dense, dense_solve, element_of,
    map_columns, pair_basis, reference_delta, sparse, wordlength,
)
from sullivan import cli, cohomology, spectral
from sullivan.algebra import Element, basis, parse_element
from sullivan.cohomology import (
    cohomology_basis,
    formal_dimension,
    is_boundary,
    is_elliptic,
    top_class,
    toomer_oracle,
)
from sullivan.differential import SullivanModel, is_pure
from sullivan.errors import InternalInconsistencyError
from sullivan.linalg import ColumnFactorization, RowSpace
from sullivan.models import elliptic_pure_n37, tower_one_even
from sullivan.spectral import (
    FilteredPair,
    delta_apply,
    delta_cohomology,
    lift_to_d_cocycle,
    representative_depth,
)
from zoo import FIXTURES, models, random_k3_models


def _descending_search(model: SullivanModel, which: str, n: int, z: Element):
    """(s, representative) for the greatest s at which z is a sum of
    monomials of word length >= s and a boundary of ``which``."""
    alg = model.algebra
    bn = basis(alg, n)
    s_max = max((wordlength(m) for m in bn), default=0)
    for s in range(s_max, -1, -1):
        deep = [m for m in bn if wordlength(m) >= s]
        units = [Element.from_monomial(alg, m) for m in deep]
        sol = boundary_solve(model, which, n, z, units)
        if sol is not None:
            return s, element_of(alg, deep, sol)
    raise AssertionError("membership failed even at filtration 0")


def _assert_same_searches(name: str, model: SullivanModel) -> int:
    """Compare both searches on one elliptic model; returns the number of
    delta-classes compared."""
    n, fundamental = top_class(model)
    old = _descending_search(model, "d", n, fundamental)
    new = toomer_oracle(model)
    assert (new.e0, new.representative) == old, name
    if model.k != 3:
        return 0
    classes = delta_cohomology(model, n)
    for i, cls in enumerate(classes):
        old = _descending_search(model, "delta", n, cls.as_element())
        assert representative_depth(cls) == old, (name, i)
    return len(classes)


def test_depth_search_matches_descending_search_on_the_zoo():
    elliptic = 0
    for name, model in models():
        if not is_elliptic(model).is_elliptic:
            continue
        elliptic += 1
        _assert_same_searches(name, model)
    assert elliptic >= 12


def test_depth_search_matches_descending_search_on_random_models():
    compared = 0
    for name, model in random_k3_models(seed=0, count=8):
        assert is_pure(model) and model.k == 3
        compared += _assert_same_searches(name, model)
    assert compared >= 8


def test_boundary_has_no_depth():
    model = elliptic_pure_n37()
    zero = model.algebra.zero()
    assert cohomology._deepest_representative(model, "delta", 37, zero) is None
    # a delta-boundary posing as a class keeps the error of the earlier search
    pairs = (
        FilteredPair(model, 2, 36, Element.from_monomial(model.algebra, m), zero)
        for m in pair_basis(model, 2, 36)[0]
    )
    source = next(pair for pair in pairs if not delta_apply(pair).is_zero)
    with pytest.raises(ValueError, match="delta-boundary"):
        representative_depth(delta_apply(source))


# ---------------------------------------------------------------------------
# a report runs each search once


def test_report_runs_each_depth_search_once(capsys, monkeypatch):
    calls = {"oracle": 0, "depth": 0}
    oracle_search = cohomology._deepest_representative
    depth = spectral.representative_depth

    def counted_search(*args):
        calls["oracle"] += 1
        return oracle_search(*args)

    def counted_depth(*args):
        calls["depth"] += 1
        return depth(*args)

    # the oracle reaches the search through ``cohomology``; the spectral
    # method through its own binding, which stays unpatched here
    monkeypatch.setattr(cohomology, "_deepest_representative", counted_search)
    monkeypatch.setattr(spectral, "representative_depth", counted_depth)
    code = cli.main(
        ["report", str(FIXTURES / "pure_n35.model"), "--format", "structured"]
    )
    out = capsys.readouterr().out
    assert code == 0
    classes = int(
        next(l for l in out.splitlines() if l.startswith("delta.dim_total = "))
        .split(" = ")[1]
    )
    assert classes >= 2
    assert calls == {"oracle": 1, "depth": classes}


# ---------------------------------------------------------------------------
# one cohomology path for d and delta


def _slot_columns(model: SullivanModel, delta, p: int, n: int):
    """The columns of ``delta``, the model's :func:`reference_delta`, from the
    (p, n) pair slot to the (p + 1, n + 1) slot, each slot's basis listing u
    and then v."""
    src, dst = (sum(pair_basis(model, q, m), []) for q, m in ((p, n), (p + 1, n + 1)))
    return map_columns(model.algebra, delta, src, dst)


def _per_slot_delta_cohomology(model: SullivanModel, delta, n: int):
    """(p, u, v) of every delta-class in class order, by the earlier loop over the
    pair slots: kernel of ``delta`` out of (p, n) modulo its image from
    (p - 1, n - 1), each slot on its own."""
    out = []
    for p in range(0, n // 4 + 2 if n >= 0 else 0):
        ub, vb = pair_basis(model, p, n)
        if not ub and not vb:
            continue
        space = RowSpace(len(ub) + len(vb))
        for column in _slot_columns(model, delta, p - 1, n - 1) if p > 0 else []:
            space.add(column)
        nrows = sum(map(len, pair_basis(model, p + 1, n + 1)))
        cocycles = ColumnFactorization(_slot_columns(model, delta, p, n), nrows).kernel
        for z in [z for z in cocycles if space.add(z)]:
            e = element_of(model.algebra, ub + vb, z)
            out.append((p, e.wordlength_component(2 * p), e.wordlength_component(2 * p + 1)))
    return out


def test_delta_cohomology_matches_the_per_slot_loop():
    compared = 0
    for name, model in models(randoms=8):
        if model.k != 3:
            continue
        delta = reference_delta(model)  # d3 and d4 built once per model
        for n in range(0, formal_dimension(model) + 2):
            got = [(c.p, c.u, c.v) for c in delta_cohomology(model, n)]
            assert got == _per_slot_delta_cohomology(model, delta, n), (name, n)
            assert all(c.n == n for c in delta_cohomology(model, n))
            compared += len(got)
    assert compared >= 200


def test_is_boundary_agrees_with_a_membership_solve():
    checked = {True: 0, False: 0}
    for name, model in models():
        if not is_elliptic(model).is_elliptic:
            continue
        alg = model.algebra
        for n in range(0, formal_dimension(model) + 1):
            reps = cohomology_basis(model, n)
            images = [
                model.d(Element.from_monomial(alg, m)) for m in basis(alg, n - 1)
            ]
            images = [e for e in images if not e.is_zero]
            sums = [a + b for a, b in zip(images, images[1:])]
            sums += [r + e for r, e in zip(reps, images)]
            for e in reps + images + sums:
                expected = boundary_solve(model, "d", n, e) is not None
                assert is_boundary(model, e) == expected, (name, n, e)
                checked[expected] += 1
    assert checked[True] >= 100 and checked[False] >= 50


def test_second_delta_cohomology_runs_no_elimination(monkeypatch):
    model = elliptic_pure_n37()
    first = delta_cohomology(model, 37)

    def fail(*args, **kwargs):
        raise AssertionError("elimination on a cached degree")

    monkeypatch.setattr(cohomology, "ColumnFactorization", fail)
    monkeypatch.setattr(cohomology, "RowSpace", fail)
    second = delta_cohomology(model, 37)
    assert second == first


def test_delta_class_outside_one_pair_slot_is_an_inconsistency(monkeypatch):
    model = elliptic_pure_n37()
    alg = model.algebra
    # word lengths 2 and 4 lie in the pair slots p = 1 and p = 2
    straddling = parse_element("x2*x6 + x2^4", alg)
    monkeypatch.setattr(spectral, "_cohomology", lambda *args: [straddling])
    with pytest.raises(InternalInconsistencyError, match="outside its pair slot"):
        delta_cohomology(model, 8)


# ---------------------------------------------------------------------------
# one factorization per (differential, degree)


def _count_factorizations(monkeypatch):
    """Patch ``cohomology`` so that every elimination of a whole map is
    counted: ``built`` counts the cached factorizations and boundary
    echelons by (model, key), ``eliminated`` the eliminations run while each
    was built, and ``constructed`` all of them."""
    cached, built, eliminated, constructed = cohomology._cached, Counter(), Counter(), [0]

    def counting_cache(model, key, producer):
        if key[1:2] in (("factor",), ("boundaries",)):
            def produce():
                built[(id(model), key)] += 1
                before = constructed[0]
                value = producer()
                eliminated[(id(model), key)] += constructed[0] - before
                return value

            return cached(model, key, produce)
        return cached(model, key, producer)

    class Counted(ColumnFactorization):
        # every construction eliminates once, through the checked public
        # constructor or the engine's own ``_of``
        def _eliminate(self, *args):
            constructed[0] += 1
            super()._eliminate(*args)

    class CountedSpace(RowSpace):
        # the echelon of a map, eliminated with no unit coordinates
        def _extend(self, *args):
            constructed[0] += 1
            return super()._extend(*args)

    monkeypatch.setattr(cohomology, "_cached", counting_cache)
    monkeypatch.setattr(cohomology, "ColumnFactorization", Counted)
    monkeypatch.setattr(cohomology, "RowSpace", CountedSpace)
    return built, eliminated, constructed


def _eliminated_once(built, eliminated, constructed):
    """Each key was built once, every elimination ran inside one of them,
    and no map out of one degree was eliminated twice: a factorization is
    one elimination, and boundaries are one unless they were read off the
    factorization of the map below them, with none of their own."""
    assert set(built.values()) == {1}
    assert sum(eliminated.values()) == constructed[0]
    assert all(eliminated[key] == 1 for key in built if key[1][1] == "factor")
    maps = [
        (model, which, n if kind == "factor" else n - 1)
        for (model, (which, kind, n)), count in eliminated.items()
        for _ in range(count)
    ]
    assert len(maps) == len(set(maps))


def test_report_builds_each_factorization_once(capsys, monkeypatch):
    """Every elimination comes from the model cache, once per key: d and
    delta are factored with unit coordinates only at N, where a kernel and
    a solve are read, and their boundaries of degree N, which the depth
    searches and the boundary tests read, are eliminated once each without
    them; the depth searches build none of their own."""
    built, eliminated, constructed = _count_factorizations(monkeypatch)
    code = cli.main(
        ["report", str(FIXTURES / "pure_n35.model"), "--format", "structured"]
    )
    assert code == 0
    keys = {key for _, key in built}
    kinds = ("factor", "boundaries")
    assert keys == {(which, kind, 35) for which in ("d", "delta") for kind in kinds}
    assert set(eliminated.values()) == {1}
    _eliminated_once(built, eliminated, constructed)
    assert constructed[0] == len(built) == 4


def test_depth_searches_build_no_factorization(monkeypatch):
    """Once a degree's cohomology is known, its depth searches build no
    factorization: they read depth and witness off the cached echelon of
    the boundaries.  Each (s, witness) is that of a solve on a fresh
    factorization of the boundary columns cut below word length s
    (``reference.cut_depth_search``), on the zoo and on eight random k = 3
    models."""
    built, eliminated, constructed = _count_factorizations(monkeypatch)
    searched = Counter()
    for name, model in models(randoms=8):
        searches = []  # (which, degree, class), each degree's cohomology known
        if is_elliptic(model).is_elliptic:
            searches.append(("d", *top_class(model)))
        if model.k == 3:
            searches += [
                ("delta", n, c.as_element())
                for n in range(formal_dimension(model) + 1)
                for c in delta_cohomology(model, n)
            ]
        before = constructed[0]
        found = [cohomology._deepest_representative(model, *args) for args in searches]
        assert constructed[0] == before, name
        for args, got in zip(searches, found):
            assert got == cut_depth_search(model, *args), (name, args[:2])
            searched[args[0]] += 1
    assert {len(key) for _, key in built} == {3}
    _eliminated_once(built, eliminated, constructed)
    assert searched["d"] >= 22 and searched["delta"] >= 460, searched


def test_lifts_boundaries_and_cached_cohomology_build_no_factorization(monkeypatch):
    model = tower_one_even()
    degrees = range(0, formal_dimension(model) + 1)

    def classes():
        return [c for n in degrees for c in delta_cohomology(model, n)]

    first = classes()
    starts = [pair.as_element() for pair in first]
    reps = [r for n in degrees for r in cohomology_basis(model, n)]
    lifts = [lift_to_d_cocycle(model, z) for z in starts]
    assert any(trace.correctors for trace in lifts)

    def fail(*args, **kwargs):
        raise AssertionError("factorization built on a cached degree")

    monkeypatch.setattr(cohomology, "ColumnFactorization", fail)
    monkeypatch.setattr(RowSpace, "_extend", fail)
    again = [lift_to_d_cocycle(model, z) for z in starts]
    assert [(t.outcome, t.correctors, t.final) for t in again] == [
        (t.outcome, t.correctors, t.final) for t in lifts
    ]
    assert not any(is_boundary(model, r) for r in reps)
    assert all(is_boundary(model, model.d(r)) for r in starts)
    assert classes() == first


def _dense_solution(model: SullivanModel, f, n: int, e: Element):
    """The free-variables-zero solution of f(x) = e, x in degree n, as an
    element, or None; solved by dense Gauss-Jordan elimination."""
    alg = model.algebra
    src, dst = basis(alg, n), basis(alg, n + 1)
    columns = map_columns(alg, f, src, dst)
    rows = [[c.get(i, Fraction(0)) for c in columns] for i in range(len(dst))]
    x = dense_solve(rows, len(src), dense(coordinates(e, dst), len(dst)))
    if x is None:
        return None
    return element_of(alg, src, sparse(x))


def _reference_lift(model: SullivanModel, start: Element):
    """(outcome, obstructions, correctors, final) of the lift, each
    delta(b) = obstruction, with the reference delta, and the final boundary
    test solved densely."""
    n = start.degree()
    delta = reference_delta(model)
    w, obstructions, correctors = start, [], []
    while True:
        dw = model.d(w)
        if dw.is_zero:
            bounds = _dense_solution(model, model.d, n - 1, w) is not None
            return ("collapsed" if bounds else "success"), obstructions, correctors, w
        p = dw.min_wordlength() // 2
        obstruction = dw.wordlength_component(2 * p) + dw.wordlength_component(2 * p + 1)
        obstructions.append(obstruction)
        corrector = _dense_solution(model, delta, n, obstruction)
        if corrector is None:
            return "died", obstructions, correctors, None
        correctors.append(corrector)
        w = w - corrector


def test_lifts_match_a_dense_reference_lift():
    lifts = corrected = 0
    for name, model in models(randoms=8):
        if model.k != 3:
            continue
        for n in range(0, formal_dimension(model) + 1):
            for i, cls in enumerate(delta_cohomology(model, n)):
                start = cls.as_element()
                trace = lift_to_d_cocycle(model, start)
                got = (
                    trace.outcome,
                    [o.as_element() for o in trace.obstructions],
                    trace.correctors,
                    trace.final,
                )
                assert got == _reference_lift(model, start), (name, n, i)
                assert trace.iterations == len(trace.correctors)
                lifts += 1
                corrected += len(trace.correctors)
    assert lifts >= 421 and corrected >= 19
