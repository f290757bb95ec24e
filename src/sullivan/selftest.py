"""Randomized and deterministic consistency checks over the fixture zoo.

The randomized checks draw small random elements (and filtration pairs) from
the fixture algebras and verify the structural identities exactly — graded
commutativity, the Leibniz rule, d^2 = 0, delta^2 = 0, and the derivation
property of delta over the pair product.  The deterministic checks compare
basis cardinalities against an independent generating-function expansion and
verify Poincare duality of the elliptic fixtures' dimensions from ranks
through `report`'s own check, which includes dim H^N = 1.

Everything is driven by an explicit seed so failures reproduce.

Every check takes the zoo it is given.  `run_all` builds the fixture zoo
once and hands the same models to every check, so each model's bases, pair
slots and cohomology are computed once per run.  Those caches live on the
models, which `run_all` builds afresh: nothing is kept from one run to the
next.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .algebra import Algebra, Coefficient, Element, _fill_bases, basis_keys
from .cohomology import check_duality, cohomology_dim, formal_dimension, is_elliptic
from .differential import SullivanModel, _cached
from .errors import InternalInconsistencyError
from .models import ELLIPTIC_K3_POOL, all_models
from .spectral import FilteredPair, _slot_keys, delta_apply, pair_product


#: The fixture zoo as `all_models` builds it: (name, model) pairs.
Models = Sequence[Tuple[str, SullivanModel]]

#: `check_basis_counts` compares the bases of degrees 0 to this.
BASIS_COUNT_DEGREE = 40


class CheckResult(NamedTuple):
    name: str
    cases: int
    ok: bool
    detail: str = ""


def random_element(
    rng: random.Random, algebra: Algebra, max_degree: int = 16, max_terms: int = 3
) -> Element:
    """A small random element of one degree, drawn from the populated
    degrees up to `max_degree`, with small rational coefficients."""
    _fill_bases(algebra, max_degree)
    degrees = [n for n, ks in enumerate(algebra._basis_cache[: max_degree + 1]) if ks]
    keys = algebra._basis_cache[rng.choice(degrees)]
    return _random_sum(rng, algebra, keys, rng.randint(1, max_terms), 4, 3)


def _random_sum(
    rng: random.Random, algebra: Algebra, keys, count: int, top: int, den: int
) -> Element:
    """The sum of `count` drawn terms a/b * m: a in [-top, top], b in
    [1, den], an `int` when b is 1, then m from the basis `keys`, gathered
    in one term dict."""
    terms: Dict[int, Coefficient] = {}
    for _ in range(count):
        a, b = rng.randint(-top, top), rng.randint(1, den)
        key = rng.choice(keys)
        terms[key] = terms.get(key, 0) + (a if b == 1 else Fraction(a, b))
    return Element._of(algebra, terms)


def random_pair(
    rng: random.Random, model: SullivanModel, max_degree: int = 24
) -> FilteredPair:
    """A random filtration pair on a slot drawn from those with a nonzero
    basis; slot (0, 0) holds the unit, so there always is one.  The populated
    slots are found once per (model, max_degree) and kept in the model's
    cache."""
    slots = _cached(
        model, ("pair_slots", max_degree), lambda: _pair_slots(model, max_degree)
    )
    p, n, ub, vb = rng.choice(slots)
    alg = model.algebra

    def sample(keys):
        count = rng.randint(0, 2)
        return _random_sum(rng, alg, keys, count if keys else 0, 3, 2)

    return FilteredPair(model, p, n, sample(ub), sample(vb))


def _pair_slots(model: SullivanModel, max_degree: int):
    """Every (p, n, u-keys, v-keys) slot with 4p <= max_degree and
    n <= max_degree that has a nonzero basis."""
    slots = []
    for p in range(0, max_degree // 4 + 1):
        for n in range(0, max_degree + 1):
            ub, vb = _slot_keys(model, p, n)
            if ub or vb:
                slots.append((p, n, ub, vb))
    return slots


def _round_robin(cases: int, models: Models) -> Iterator[SullivanModel]:
    """The model of each of `cases` law cases, taking the zoo in turn."""
    return (models[i % len(models)][1] for i in range(cases))


def check_graded_commutativity(rng: random.Random, cases: int, models: Models) -> int:
    for model in _round_robin(cases, models):
        alg = model.algebra
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        da = a.degree() or 0
        db = b.degree() or 0
        sign = -1 if (da % 2 and db % 2) else 1
        if a * b != sign * (b * a):
            raise InternalInconsistencyError(
                f"commutativity failed: a={a!r}, b={b!r}"
            )
    return cases


def check_leibniz(rng: random.Random, cases: int, models: Models) -> int:
    for model in _round_robin(cases, models):
        alg = model.algebra
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        sign = -1 if (a.degree() or 0) % 2 else 1
        lhs = model.d(a * b)
        rhs = model.d(a) * b + sign * (a * model.d(b))
        if lhs != rhs:
            raise InternalInconsistencyError(
                f"Leibniz failed: a={a!r}, b={b!r}, d(ab)={lhs!r}, "
                f"d(a)b ± a d(b)={rhs!r}"
            )
    return cases


def check_d_squared(rng: random.Random, cases: int, models: Models) -> int:
    for model in _round_robin(cases, models):
        e = random_element(rng, model.algebra, max_terms=4)
        dd = model.d(model.d(e))
        if not dd.is_zero:
            raise InternalInconsistencyError(f"d^2 != 0 on {e!r}: {dd!r}")
    return cases


def _k3_models(models: Models) -> List[Tuple[str, SullivanModel]]:
    """The `ELLIPTIC_K3_POOL` fixtures of the zoo, in pool order."""
    by_name = dict(models)
    return [(name, by_name[name]) for name, _ in ELLIPTIC_K3_POOL]


def check_delta_squared(rng: random.Random, cases: int, models: Models) -> int:
    for model in _round_robin(cases, _k3_models(models)):
        pair = random_pair(rng, model)
        dd = delta_apply(delta_apply(pair))
        if not dd.is_zero:
            raise InternalInconsistencyError(
                f"delta^2 != 0 on ({pair.u!r}, {pair.v!r}) at p={pair.p}"
            )
    return cases


def check_delta_derivation(rng: random.Random, cases: int, models: Models) -> int:
    """delta(a b) = delta(a) b + (-1)^{deg a} a delta(b) for the pair product."""
    for model in _round_robin(cases, _k3_models(models)):
        a = random_pair(rng, model, max_degree=18)
        b = random_pair(rng, model, max_degree=18)
        lhs = delta_apply(pair_product(a, b)).as_element()
        sign = -1 if a.n % 2 else 1
        left = pair_product(delta_apply(a), b).as_element()
        right = pair_product(a, delta_apply(b)).as_element()
        if lhs != left + sign * right:
            raise InternalInconsistencyError(
                f"delta derivation failed at p={a.p},{b.p} n={a.n},{b.n}"
            )
    return cases


def check_basis_counts(models: Models) -> int:
    """Basis cardinalities up to `BASIS_COUNT_DEGREE` against the Poincare
    series prod_even 1/(1 - t^d) * prod_odd (1 + t^d), expanded
    independently."""
    max_degree = BASIS_COUNT_DEGREE
    checked = 0
    for name, model in models:
        alg = model.algebra
        series = [0] * (max_degree + 1)
        series[0] = 1
        for gen in alg.generators:
            d = gen.degree
            if gen.is_odd:
                nxt = series[:]
                for n in range(d, max_degree + 1):
                    nxt[n] += series[n - d]
                series = nxt
            else:
                # multiply by 1/(1 - t^d): running sum with stride d
                for n in range(d, max_degree + 1):
                    series[n] += series[n - d]
        for n in range(0, max_degree + 1):
            got = len(basis_keys(alg, n))
            if got != series[n]:
                raise InternalInconsistencyError(
                    f"{name}: basis count at degree {n} is {got}, series "
                    f"says {series[n]}"
                )
            checked += 1
    return checked


def check_poincare_duality(models: Models) -> int:
    """`report`'s duality check, dim H^N = 1 included, on the dimensions from
    ranks of every elliptic fixture, plus a vanishing window above N."""
    checked = 0
    for name, model in models:
        if not is_elliptic(model).is_elliptic:
            continue
        n_top = formal_dimension(model)
        width = max(g.degree for g in model.algebra.generators)
        dims = [cohomology_dim(model, n) for n in range(n_top + width + 1)]
        try:
            check_duality(dims[: n_top + 1])
        except InternalInconsistencyError as exc:
            raise InternalInconsistencyError(f"{name}: {exc}") from None
        for n, dim in enumerate(dims[n_top + 1 :], n_top + 1):
            if dim:
                raise InternalInconsistencyError(
                    f"{name}: dim H^{n} = {dim} above the formal dimension"
                )
        checked += len(dims)
    return checked


RANDOM_CHECKS = [
    ("graded_commutativity", check_graded_commutativity),
    ("leibniz", check_leibniz),
    ("d_squared", check_d_squared),
    ("delta_squared", check_delta_squared),
    ("delta_derivation", check_delta_derivation),
]


def run_all(seed: int, cases: int) -> List[CheckResult]:
    """The seven checks on one fixture zoo, each law with its own seeded
    generator.  `RANDOM_CHECKS` and `check_poincare_duality` are looked up
    here, at call time, so a wrapper put in their place is the one run."""
    models = all_models()
    checks = [
        (name, fn, (random.Random(f"{seed}:{name}"), cases, models))
        for name, fn in RANDOM_CHECKS
    ]
    checks.append(("basis_counts", check_basis_counts, (models,)))
    checks.append(("poincare_duality", check_poincare_duality, (models,)))
    results: List[CheckResult] = []
    for name, fn, args in checks:
        try:
            results.append(CheckResult(name, fn(*args), True))
        except InternalInconsistencyError as exc:
            results.append(CheckResult(name, 0, False, str(exc)))
    return results
