from __future__ import annotations

import argparse
import hashlib
import random
from itertools import combinations

import pytest

from reference import boundary_solve, homogeneous_component, map_columns, reference_apply
from sullivan import cli, cohomology
from sullivan.algebra import Element, basis, basis_keys, format_element
from sullivan.cohomology import (
    EllipticityResult,
    ToomerResult,
    cohomology_basis,
    cohomology_dim,
    formal_dimension,
    is_boundary,
    is_elliptic,
    require_elliptic,
    toomer_oracle,
    top_class,
)
from sullivan.differential import build_model, is_pure
from sullivan.errors import PreconditionError
from sullivan.models import (
    ALL_MODELS,
    elliptic_pure_n35,
    elliptic_pure_n37,
    exterior_two_odd,
    nonelliptic_truncation_n37,
    nonpure_n23,
    projective_plane,
    sphere_s2,
    tower_one_even,
    tower_two_even_mixed,
)
from sullivan.spectral import spectral_run
from zoo import (
    FIXTURES, assorted, model_files, models, product, random_k3_models, random_nonpure_model,
)


def test_sphere_cochain_map_is_one_by_one_identity():
    model = sphere_s2()
    alg = model.algebra
    assert cohomology._images(model, basis_keys(alg, 3), basis_keys(alg, 4)) == [{0: 1}]


def test_sphere_cohomology_by_hand():
    model = sphere_s2()
    assert len(cohomology_basis(model, 0)) == 1
    assert [format_element(r) for r in cohomology_basis(model, 2)] == ["x2"]
    assert cohomology_basis(model, 3) == []
    assert cohomology_basis(model, 4) == []  # x2^2 bounds y3


def test_representatives_are_cocycles_independent_mod_boundaries():
    model = elliptic_pure_n37()
    for n in (0, 18, 20, 37):
        for rep in cohomology_basis(model, n):
            assert model.d(rep).is_zero
            assert not is_boundary(model, rep)


def test_formal_dimension_values():
    assert formal_dimension(elliptic_pure_n37()) == 37
    assert formal_dimension(elliptic_pure_n35()) == 35
    assert formal_dimension(sphere_s2()) == 2
    assert formal_dimension(projective_plane()) == 4
    assert formal_dimension(exterior_two_odd()) == 8


def test_is_elliptic_positive():
    res = is_elliptic(elliptic_pure_n37())
    assert res.status == "elliptic"
    assert res.window_start is not None
    assert res.window_width == 6  # widest even generator


def test_is_elliptic_no_even_generators():
    res = is_elliptic(exterior_two_odd())
    assert res.status == "elliptic"


def test_not_elliptic_with_certificate():
    res = is_elliptic(nonelliptic_truncation_n37())
    assert res.status == "not_elliptic"
    assert len(res.nonvanishing_degrees) > 0
    # powers of x6 survive the quotient by (x2^3) in every degree 6k
    assert 12 in res.nonvanishing_degrees and 18 in res.nonvanishing_degrees


def test_results_compare_by_their_fields_and_are_immutable():
    res = is_elliptic(elliptic_pure_n37())
    assert res == is_elliptic(elliptic_pure_n37())
    assert res != is_elliptic(nonelliptic_truncation_n37())
    assert res == EllipticityResult(*res) and res._replace(bound=1) != res
    one = sphere_s2().algebra.one()
    toomer = ToomerResult(e0=1, representative=one)
    assert toomer == ToomerResult(1, one, None) != ToomerResult(1, one, (0, "2p"))
    assert toomer_oracle(elliptic_pure_n37()) == toomer_oracle(elliptic_pure_n37())
    for result, field in ((res, "status"), (toomer, "e0")):
        with pytest.raises(AttributeError):
            setattr(result, field, getattr(result, field))


def test_small_bound_is_inconclusive_not_false():
    res = is_elliptic(nonelliptic_truncation_n37(), bound=10)
    assert res.status == "inconclusive"


def test_scans_share_quotient_dimensions_but_report_their_own_degrees():
    fresh = {b: is_elliptic(nonelliptic_truncation_n37(), b) for b in (10, 40, None)}
    for order in ((10, 40, None), (None, 40, 10)):
        model = nonelliptic_truncation_n37()
        for b in order:
            assert is_elliptic(model, b) == fresh[b], (order, b)
    assert fresh[10].nonvanishing_degrees != fresh[None].nonvanishing_degrees


def test_report_with_a_scan_bound_computes_each_quotient_dimension_once(
    capsys, monkeypatch
):
    built, extended = [], []

    class Counting(cohomology._PureQuotient):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def _extend(self):
            extended.append(len(self.dims))
            super()._extend()

    monkeypatch.setattr(cohomology, "_PureQuotient", Counting)
    counts = []
    for extra in ([], ["--max-degree", "60"]):
        built.clear()
        extended.clear()
        path = str(FIXTURES / "pure_n37.model")
        assert cli.main(["report", path, "--format", "structured", *extra]) == 0
        counts.append((len(built), list(extended)))
    capsys.readouterr()
    # the flag's scan and top_class's default-bound scan share one quotient,
    # which computes each degree it is asked for once, lowest first
    assert counts == [(1, list(range(27)))] * 2


@pytest.mark.parametrize(
    "stem,message",
    [
        ("pure_n35", "the scan says elliptic, but the lead monomials of the "
         "pure ideal lack a pure power of every even generator"),
        ("truncated_n37", "the scan says not_elliptic, but the lead monomials "
         "of the pure ideal hold a pure power of every even generator"),
    ],
)
def test_a_verdict_the_lead_monomials_contradict_exits_3(
    capsys, monkeypatch, stem, message
):
    # the lead monomials the finiteness check reads, patched: every pure
    # power dropped from an elliptic model's, one added per variable to a
    # non-elliptic model's
    class PatchedLeads(cohomology._PureQuotient):
        def finite(self):
            n = len(self.weights)
            powers = [(tuple(int(i == j) for j in range(n)), {}) for i in range(n)]
            kept = [(lead, f) for lead, f in self.basis if sum(map(bool, lead)) > 1]
            self.basis = kept if stem == "pure_n35" else self.basis + powers
            return super().finite()

    monkeypatch.setattr(cohomology, "_PureQuotient", PatchedLeads)
    code = cli.main(["elliptic", str(FIXTURES / f"{stem}.model")])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"error: internal inconsistency: {message}\n"


def _complete_intersection_series(model, top):
    """The coefficients of prod_j (1 - t^|d y_j|) / prod_i (1 - t^|x_i|) in
    degrees 0..top, the y_j odd and the x_i even generators."""
    series = [1] + [0] * top
    for g in model.algebra.generators:
        if g.is_odd:
            for d in range(top, g.degree, -1):
                series[d] -= series[d - g.degree - 1]
    for g in model.algebra.generators:
        if not g.is_odd:
            for d in range(g.degree, top + 1):
                series[d] += series[d - g.degree]
    return series


def test_f0_pure_quotients_have_the_complete_intersection_series():
    """An elliptic pure model with dim V^even = dim V^odd has the pure
    quotient Q[x] / (d y_1, ..., d y_n), a complete intersection
    (Felix-Halperin-Thomas, GTM 205, section 32), whose series is the
    closed form."""
    files = [(p.stem, cli.parse_model_file(str(p)).model) for p in model_files()]
    randoms = [
        (name, m) for name, m in random_k3_models(seed=1, count=40)
        if 2 * len(m.algebra.even_indices) == m.algebra.ngens
    ][:20]
    assert len(randoms) == 20
    checked = []
    for name, model in files + randoms:
        alg = model.algebra
        if not (2 * len(alg.even_indices) == alg.ngens and is_pure(model)
                and is_elliptic(model).is_elliptic):
            continue
        quotient = model._cache[("pure_quotient",)]
        top = 2 * formal_dimension(model) + 2 * max(alg.degrees) + 5
        series = [quotient.dim(d) for d in range(top + 1)]
        assert series == _complete_intersection_series(model, top), name
        checked.append(name)
    assert len(checked) >= 26, checked


def test_elliptic_models_satisfy_halperins_relations():
    """On an elliptic model, dim V^odd >= dim V^even, N >= 0 and
    chi(H) >= 0, with chi(H) > 0 exactly when dim V^odd = dim V^even
    (Halperin 1977; Felix-Halperin-Thomas, GTM 205, section 32).  These
    make a negative N and fewer odd than even generators unreachable for
    ``top_class`` and the Murillo contraction.

    The same models check e0 against the theory: dim V^odd <= e0
    (Felix-Halperin 1982), and e0 = (k - 2) dim V^even + dim V^odd when the
    lowest component d_k of d alone gives an elliptic model
    (Lechuga-Murillo 2002)."""
    checked, formula = [], []
    for name, model in models(model_files(), randoms=20):
        if not is_elliptic(model).is_elliptic:
            continue
        alg = model.algebra
        odd, even = len(alg.odd_indices), len(alg.even_indices)
        n = formal_dimension(model)
        chi = sum((-1) ** i * cohomology_dim(model, i) for i in range(n + 1))
        assert odd >= even and n >= 0, name
        assert chi >= 0 and (chi > 0) == (odd == even), (name, chi)
        checked.append(name)
        e0 = toomer_oracle(model).e0
        assert odd <= e0, (name, e0)
        if model.k is None:
            continue
        lowest = build_model(alg, homogeneous_component(model.differential, model.k))
        if is_elliptic(lowest).is_elliptic:
            assert e0 == (model.k - 2) * even + odd, (name, e0)
            formula.append(name)
    assert len(checked) >= 57, checked
    assert len(formula) >= 31, formula


def test_products_satisfy_kunneth_and_add_e0():
    """The product of two elliptic models, on the ten pairs of five: dim H^n
    is the convolution of the factors' dimensions (Kunneth), and e0 adds
    (Felix-Halperin-Lemaire, Topology 37, 1998).  e0(A x B) >= e0(A) + e0(B)
    by the product of deepest representatives; <= because e0 <= cat0, cat0
    is subadditive, and cat0 = e0 on Poincare-duality complexes.  On a
    k = 3 product the spectral method finds the same e0."""
    builders = [sphere_s2, projective_plane, tower_one_even, tower_two_even_mixed,
                nonpure_n23]
    spectral = 0
    for first, second in combinations(builders, 2):
        a, b = first(), second()
        ab = product(a, b)
        name = (first.__name__, second.__name__)
        na, nb = formal_dimension(a), formal_dimension(b)
        assert formal_dimension(ab) == na + nb, name
        dims_a = [cohomology_dim(a, i) for i in range(na + 1)]
        dims_b = [cohomology_dim(b, j) for j in range(nb + 1)]
        for n in range(na + nb + 1):
            kunneth = sum(
                dims_a[i] * dims_b[n - i] for i in range(max(0, n - nb), min(n, na) + 1)
            )
            assert cohomology_dim(ab, n) == kunneth, (name, n)
        e0 = toomer_oracle(a).e0 + toomer_oracle(b).e0
        assert toomer_oracle(ab).e0 == e0, name
        if ab.k == 3:
            assert spectral_run(ab).result.e0 == e0, name
            spectral += 1
    assert spectral == 6


#: sha256 of the structured report of pure_n37 x pure_n35, its model.path
#: line left out, recorded while the depth searches still factored the
#: boundary columns cut below each depth
N37_X_N35_REPORT_SHA256 = "e720192c1372b74fa90fa7d9f059ca288b60d6fa0340cdd043281dd34d3e5cac"


def test_the_report_of_n37_times_n35(capsys, monkeypatch):
    """pure_n37 x pure_n35 (N = 72), the suite's largest boundary
    factorizations: its report's dimensions satisfy Kunneth, its e0 is
    6 + 6 = 12 (Felix-Halperin-Lemaire, as in
    :func:`test_products_satisfy_kunneth_and_add_e0`), and it is the report
    recorded before the depth searches read their witnesses off the whole
    boundary factorizations."""
    a, b = (
        cli.parse_model_file(str(FIXTURES / f"pure_n{n}.model")).model for n in (37, 35)
    )
    ab = product(a, b)
    monkeypatch.setattr(cli, "parse_model_file", lambda path: cli.ModelFile(ab))
    assert cli.main(["report", "n37xn35", "--format", "structured"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    pairs = dict(line.rstrip("\n").split(" = ", 1) for line in lines)
    dims_a = [cohomology_dim(a, i) for i in range(38)]
    dims_b = [cohomology_dim(b, j) for j in range(36)]
    for n in range(73):
        degrees = range(max(0, n - 35), min(n, 37) + 1)
        kunneth = sum(dims_a[i] * dims_b[n - i] for i in degrees)
        assert int(pairs[f"cohomology.dim.{n}"]) == kunneth, n
    assert toomer_oracle(a).e0 == toomer_oracle(b).e0 == 6
    assert pairs["toomer.oracle.e0"] == pairs["toomer.spectral.e0"] == "12"
    body = "".join(line for line in lines if not line.startswith("model.path = "))
    assert hashlib.sha256(body.encode()).hexdigest() == N37_X_N35_REPORT_SHA256


def test_n37_times_two_projective_planes_satisfies_kunneth_and_adds_e0():
    """pure_n37 x CP^2 x CP^2 (N = 45): dim H^n is the convolution of the
    three factors' dimensions (Kunneth), and e0 is 6 + 2 + 2 = 10
    (Felix-Halperin-Lemaire, as in
    :func:`test_products_satisfy_kunneth_and_add_e0`) for the oracle and the
    spectral method alike."""
    factors = [elliptic_pure_n37(), projective_plane(), projective_plane()]
    dims = [1]
    for factor in factors:
        top = formal_dimension(factor)
        own = [cohomology_dim(factor, i) for i in range(top + 1)]
        dims = [
            sum(dims[i] * own[n - i] for i in range(max(0, n - top), min(n, len(dims) - 1) + 1))
            for n in range(len(dims) + top)
        ]
    model = product(*factors)
    assert formal_dimension(model) == len(dims) - 1 == 45
    assert [cohomology_dim(model, n) for n in range(46)] == dims
    assert [toomer_oracle(factor).e0 for factor in factors] == [6, 2, 2]
    assert toomer_oracle(model).e0 == spectral_run(model).result.e0 == 10


def test_require_elliptic_message_lists_degrees():
    with pytest.raises(PreconditionError) as err:
        require_elliptic(nonelliptic_truncation_n37())
    assert "not elliptic" in str(err.value)


def test_top_class_sphere():
    degree, fundamental = top_class(sphere_s2())
    assert degree == 2
    assert format_element(fundamental) == "x2"


def test_top_class_dimension_one_for_reference_models():
    for build in (elliptic_pure_n37, elliptic_pure_n35):
        model = build()
        degree, fundamental = top_class(model)
        assert cohomology_basis(model, degree) == [fundamental]
        assert degree == formal_dimension(model)


def test_toomer_oracle_small_models():
    assert toomer_oracle(sphere_s2()).e0 == 1
    assert toomer_oracle(projective_plane()).e0 == 2
    assert toomer_oracle(exterior_two_odd()).e0 == 2


def test_toomer_oracle_representative_contract():
    for build in (projective_plane, elliptic_pure_n37, elliptic_pure_n35):
        model = build()
        res = toomer_oracle(model)
        rep = res.representative
        assert model.d(rep).is_zero
        assert not is_boundary(model, rep)
        assert rep.min_wordlength() >= res.e0
        # maximality: no representative exists one stage deeper
        n = rep.degree()
        deeper = [
            Element.from_monomial(model.algebra, mono)
            for mono in basis(model.algebra, n)
            if sum(mono) >= res.e0 + 1
        ]
        assert boundary_solve(model, "d", n, rep, deeper) is None


def test_toomer_oracle_requires_elliptic():
    with pytest.raises(PreconditionError):
        toomer_oracle(nonelliptic_truncation_n37())


def test_cohomology_dims_of_n37_sample():
    model = elliptic_pure_n37()
    dims = {n: len(cohomology_basis(model, n)) for n in (0, 2, 15, 17, 18, 37)}
    assert dims == {0: 1, 2: 1, 15: 0, 17: 1, 18: 1, 37: 1}


def test_negative_degree_is_empty():
    model = sphere_s2()
    assert cohomology_basis(model, -1) == []


def _check_dims_from_ranks(model):
    """On a fresh model, dim H^n from two ranks equals the number of
    representatives at every degree 0 .. N + the top generator degree, and
    reads the same once the ranks come off the factorizations."""
    top = max(formal_dimension(model), 0)
    top += max(g.degree for g in model.algebra.generators)
    ranked = [cohomology_dim(model, n) for n in range(top + 1)]
    assert ranked == [len(cohomology_basis(model, n)) for n in range(top + 1)]
    assert [cohomology_dim(model, n) for n in range(top + 1)] == ranked


@pytest.mark.parametrize(
    "build",
    [build for _, build in ALL_MODELS]
    + [
        lambda f=f: cli.parse_model_file(str(FIXTURES / f"{f}.model")).model
        for f in ("five_even_k2", "truncated_n37")
    ],
    ids=[name for name, _ in ALL_MODELS] + ["five_even_k2", "truncated_n37"],
)
def test_dimensions_from_ranks_count_the_representatives(build):
    _check_dims_from_ranks(build())


def test_dimensions_from_ranks_on_random_pure_models():
    for _, model in random_k3_models(19, 20):
        _check_dims_from_ranks(model)


def test_ranks_off_the_boundary_pivots_match_dense_ranks(monkeypatch, dense_images):
    """dim H^0 .. H^N on fresh models, cold from the top down, and from the
    bottom up as ``report`` asks for them (the top class first), equal |B_n|
    less two dense ranks.  Bottom up, each rank below N - 1 assembles only
    the columns off the pivots of the boundaries below it, |B_n| -
    rank d_{n-1} of them, and the model keeps one degree's pivots."""
    images, assembled = cohomology._images, []

    def counted(model, src, dst):
        assembled.extend(src)
        return images(model, src, dst)

    checked = 0
    for (name, cold), (_, warm) in zip(assorted(), assorted()):
        if not is_elliptic(cold).is_elliptic:
            continue
        alg, n_top = cold.algebra, formal_dimension(cold)
        ranks = [0]  # rank d_{-1}, then rank d_n for n = 0 .. N
        for n in range(n_top + 1):
            nrows = len(basis(alg, n + 1))
            columns = images(cold, basis_keys(alg, n), basis_keys(alg, n + 1))
            ranks.append(len(dense_images(columns, nrows)[1]))
        want = [len(basis(alg, n)) - ranks[n + 1] - ranks[n] for n in range(n_top + 1)]
        down = [cohomology_dim(cold, n) for n in range(n_top, -1, -1)]
        assert down[::-1] == want, name

        top_class(warm)
        monkeypatch.setattr(cohomology, "_images", counted)
        assembled.clear()
        assert [cohomology_dim(warm, n) for n in range(n_top + 1)] == want, name
        monkeypatch.setattr(cohomology, "_images", images)
        off = sum(len(basis(alg, n)) - ranks[n] for n in range(n_top - 1))
        assert len(assembled) == off, name
        (last, pivots), = [v for k, v in warm._cache.items() if "pivots" in k]
        assert last == n_top - 2 and type(pivots) is frozenset, name
        checked += 1
    assert checked >= 23


def test_report_factors_d_only_in_the_top_two_degrees():
    """The dimensions of H^0 .. H^N come from ranks; the whole factorizations
    of d are those of the top class and the depth searches.  On seeded random
    non-pure models, whose images carry odd factors in a random generator
    order, their columns are those of the reference Leibniz rule."""
    path = str(FIXTURES / "pure_n37.model")
    rng = random.Random("non-pure reports")
    zoo = [(path, cli.parse_model_file(path).model)]
    zoo += [("random", random_nonpure_model(rng)) for _ in range(6)]
    for path, model in zoo:
        cli._report(argparse.Namespace(model=path, max_degree=None), model)
        n, alg = formal_dimension(model), model.algebra
        factored = {
            key[2] for key in model._cache if len(key) == 3 and key[:2] == ("d", "factor")
        }
        assert factored == {n - 1, n}, path
        if not is_pure(model):
            d = lambda e: reference_apply(model.differential, e)  # noqa: E731
            for m in factored:
                want = map_columns(alg, d, basis(alg, m), basis(alg, m + 1))
                assert model._cache[("d", "factor", m)].columns == want, m
    assert sum(not is_pure(model) for _, model in zoo) == 6
