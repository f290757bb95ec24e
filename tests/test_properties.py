"""Randomized algebraic-law checks with a fixed seed.

Each check draws random elements over the whole fixture pool and raises
InternalInconsistencyError on the first violated identity, so a plain call
is the assertion.  The returned value counts the non-degenerate cases that
were actually exercised; we require the full budget so a silently vacuous
generator can't pass.
"""

import random
from collections import Counter
from fractions import Fraction

from reference import homogeneous_component, pair_basis
from sullivan import models, selftest
from sullivan.algebra import Element, basis, parse_element
from sullivan.cli import parse_model_text
from sullivan.cohomology import is_elliptic, toomer_oracle
from sullivan.differential import build_model
from sullivan.selftest import (
    check_basis_counts,
    check_d_squared,
    check_delta_derivation,
    check_delta_squared,
    check_graded_commutativity,
    check_leibniz,
    check_poincare_duality,
    random_element,
    random_pair,
    run_all,
)
from sullivan.spectral import FilteredPair, toomer_spectral
import zoo

CASES = 200


def _rng(name):
    return random.Random(f"pytest:{name}")


def test_products_graded_commutative():
    done = check_graded_commutativity(_rng("comm"), CASES, models.all_models())
    assert done >= CASES


def test_differential_satisfies_leibniz():
    done = check_leibniz(_rng("leibniz"), CASES, models.all_models())
    assert done >= CASES


def test_differential_squares_to_zero():
    done = check_d_squared(_rng("dd"), CASES, models.all_models())
    assert done >= CASES


#: d w7 = y3*y5 with a second odd generator v3 of the same degree: in
#: d(v3*w7) the term y3*y5 has to pass v3, a Koszul sign of -1 inside a
#: Leibniz summand that no fixture reaches.  Not in `models.ALL_MODELS`, so
#: the selftest zoo and its outputs stay as they are.
KOSZUL_MODEL = (
    "generator y3 3\ngenerator v3 3\ngenerator y5 5\ngenerator w7 7\n"
    "d w7 = y3*y5\n"
)


def test_laws_hold_when_an_odd_factor_passes_an_odd_factor():
    model = parse_model_text(KOSZUL_MODEL)
    alg = model.algebra
    assert model.d(parse_element("v3*w7", alg)) == parse_element("y3*v3*y5", alg)
    zoo = [("koszul", model)]
    assert check_leibniz(_rng("koszul leibniz"), CASES, zoo) == CASES
    assert check_d_squared(_rng("koszul dd"), CASES, zoo) == CASES


def test_pair_differential_squares_to_zero():
    done = check_delta_squared(_rng("delta_dd"), CASES, models.all_models())
    assert done >= CASES


def test_pair_differential_is_a_derivation():
    done = check_delta_derivation(_rng("delta_leibniz"), CASES, models.all_models())
    assert done >= CASES


def test_basis_dimensions_match_poincare_series():
    # deterministic: compares enumerated bases against an independently
    # computed Hilbert series, degree by degree
    assert check_basis_counts(models.all_models()) > 0


def test_elliptic_fixtures_satisfy_poincare_duality():
    assert check_poincare_duality(models.all_models()) > 0


def test_poincare_duality_check_reads_ranks_only():
    """The check builds no factorization of d and no representative."""
    pool = models.all_models()
    check_poincare_duality(pool)
    for name, model in pool:
        assert not [k for k in model._cache if k[:2] in (("d", "factor"), ("d", "H"))], name


def test_run_all_is_green():
    results = run_all(seed=7, cases=50)
    assert all(res.ok for res in results), [
        (res.name, res.detail) for res in results if not res.ok
    ]
    names = {res.name for res in results}
    assert "graded_commutativity" in names
    assert "poincare_duality" in names


def test_run_all_builds_each_fixture_once_per_run(monkeypatch):
    built = Counter()

    def counting(name, build):
        def wrapper():
            built[name] += 1
            return build()

        return wrapper

    for owner, pool in ((models, "ALL_MODELS"), (selftest, "ELLIPTIC_K3_POOL")):
        entries = getattr(owner, pool)
        monkeypatch.setattr(
            owner, pool, [(name, counting(name, build)) for name, build in entries]
        )
    names = [name for name, _ in models.ALL_MODELS]

    assert all(res.ok for res in run_all(seed=2, cases=5))
    assert built == Counter(names)
    # a second run shares nothing with the first, so it builds them again
    assert all(res.ok for res in run_all(seed=2, cases=5))
    assert built == Counter(names * 2)


def _scanning_random_pair(rng, model, max_degree=24):
    """random_pair as a scan of every pair slot on each draw."""
    slots = []
    for p in range(0, max_degree // 4 + 1):
        for n in range(0, max_degree + 1):
            ub, vb = pair_basis(model, p, n)
            if ub or vb:
                slots.append((p, n, ub, vb))
    if not slots:
        return None
    p, n, ub, vb = rng.choice(slots)
    alg = model.algebra

    def sample(monos):
        e = alg.zero()
        for _ in range(rng.randint(0, 2)):
            if monos:
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                e = e + coeff * Element.from_monomial(alg, rng.choice(monos))
        return e

    return FilteredPair(model, p, n, sample(ub), sample(vb))


def test_random_pair_draws_match_a_slot_scan():
    for name, build in models.ELLIPTIC_K3_POOL:
        model = build()
        cached_rng, scan_rng = _rng(f"pairs:{name}"), _rng(f"pairs:{name}")
        for i in range(40):
            max_degree = (24, 18, 6)[i % 3]
            got = random_pair(cached_rng, model, max_degree)
            want = _scanning_random_pair(scan_rng, model, max_degree)
            assert got == want, (name, i)
        assert cached_rng.getstate() == scan_rng.getstate()


def _scanning_random_element(rng, algebra, max_degree=16, max_terms=3):
    """random_element with its populated degrees found by copying the basis
    of every degree on each draw."""
    candidates = [n for n in range(0, max_degree + 1) if basis(algebra, n)]
    monos = basis(algebra, rng.choice(candidates))
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        total = total + coeff * Element.from_monomial(algebra, rng.choice(monos))
    return total


def test_random_element_draws_match_a_degree_scan():
    for name, build in models.ALL_MODELS:
        # separate algebras, so the cached draws start from an empty basis cache
        cached_alg, scan_alg = build().algebra, build().algebra
        cached_rng, scan_rng = _rng(f"elements:{name}"), _rng(f"elements:{name}")
        for i in range(40):
            max_degree = (16, 5, 30)[i % 3]
            got = random_element(cached_rng, cached_alg, max_degree)
            want = _scanning_random_element(scan_rng, scan_alg, max_degree)
            assert got == want, (name, i)
        assert cached_rng.getstate() == scan_rng.getstate()


def test_e0_formula_when_the_lowest_component_is_elliptic():
    """The paper's formula: when (Lambda V, d_k) is elliptic, where d_k is the
    lowest word-length component of d, e0 = (k - 2) dim V^even + dim V^odd.
    Outside that hypothesis only the two methods are compared."""
    checked = 0
    for name, model in zoo.models(randoms=8):
        if model.k is None or not is_elliptic(model).is_elliptic:
            continue
        alg = model.algebra
        oracle = toomer_oracle(model).e0
        lowest = homogeneous_component(model.differential, model.k)
        if is_elliptic(build_model(alg, lowest)).is_elliptic:
            formula = (model.k - 2) * len(alg.even_indices) + len(alg.odd_indices)
            assert oracle == formula, name
            if model.k == 3:
                assert toomer_spectral(model).e0 == formula, name
            checked += 1
        else:
            assert model.k == 3, name
            assert toomer_spectral(model).e0 == oracle, name
    assert checked >= 13
