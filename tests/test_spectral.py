from __future__ import annotations

import random

import pytest

from reference import pair_basis, reference_delta, reference_pair_product
from sullivan import cli, cohomology, spectral
from sullivan.algebra import basis, format_element, parse_element
from sullivan.cohomology import formal_dimension, is_boundary, toomer_oracle
from sullivan.errors import PreconditionError
from sullivan.models import (
    ELLIPTIC_K3_POOL,
    elliptic_pure_n35,
    elliptic_pure_n37,
    exterior_two_odd,
    projective_plane,
    sphere_s2,
    tower_one_even,
)
from sullivan.selftest import random_pair
from sullivan.spectral import (
    FilteredPair,
    LiftTrace,
    delta_apply,
    delta_cohomology,
    lift_to_d_cocycle,
    pair_product,
    representative_depth,
    spectral_run,
    toomer_spectral,
)
from zoo import FIXTURES, TESTS, k4_model


def _pair(model, p, n, u_text, v_text):
    alg = model.algebra
    return FilteredPair(
        model, p, n, parse_element(u_text, alg), parse_element(v_text, alg)
    )


# ---------------------------------------------------------------------------
# filtration stages and pairs


PAIR_ENTRY_POINTS = {
    "FilteredPair": lambda m: FilteredPair(m, 0, 0, m.algebra.one(), m.algebra.zero()),
    "delta_cohomology": lambda m: delta_cohomology(m, 6),
    "lift_to_d_cocycle": lambda m: lift_to_d_cocycle(m, m.algebra.one()),
    "spectral_run": spectral_run,
}


def test_models_and_pairs_compare_by_their_fields():
    model = elliptic_pure_n37()
    toomer_oracle(model)  # fills the cache, which equality ignores
    assert model._cache and model == elliptic_pure_n37()
    assert elliptic_pure_n37() != elliptic_pure_n35()
    pair = _pair(model, 3, 37, "x2^2*x6^3*y15", "0")
    assert pair == _pair(elliptic_pure_n37(), 3, 37, "x2^2*x6^3*y15", "0")
    assert pair != _pair(model, 3, 37, "x2^2*x6^3*y15", "x2*x6^5*y5")
    assert _pair(model, 2, 37, "0", "0") != _pair(model, 3, 37, "0", "0")
    for unhashable in (model, pair):
        with pytest.raises(TypeError):
            hash(unhashable)


@pytest.mark.parametrize("k", [None, 2, 4])
@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
def test_every_pair_entry_point_requires_k3(entry, k):
    # k = None and k = 2 have no pairs; for k = 4 the stages are triples
    model = {None: exterior_two_odd, 2: sphere_s2, 4: k4_model}[k]()
    assert model.k == k
    with pytest.raises(PreconditionError, match=f"require k = 3, found k = {k}$"):
        PAIR_ENTRY_POINTS[entry](model)


def test_pair_rejects_wrong_word_length():
    model = elliptic_pure_n37()
    with pytest.raises(ValueError):
        _pair(model, 1, 2, "x2", "0")  # x2 has word length 1, not 2


def test_pair_rejects_mixed_degree():
    model = elliptic_pure_n37()
    with pytest.raises(ValueError):
        _pair(model, 1, 8, "x2*x6", "x2^2*y5")  # degrees 8 vs 9


def test_pair_rejects_k2_model():
    with pytest.raises(PreconditionError):
        _pair(sphere_s2(), 1, 4, "x2^2", "0")


def test_pair_product_unit_and_sides():
    model = elliptic_pure_n37()
    unit = _pair(model, 0, 0, "1", "0")
    pair = _pair(model, 1, 8, "x2*x6", "0")
    assert pair_product(unit, pair) == pair
    assert pair_product(pair, unit) == pair


def test_pair_product_formula():
    model = elliptic_pure_n37()
    a = _pair(model, 1, 4, "x2^2", "0")
    b = _pair(model, 1, 9, "0", "x2^2*y5")
    ab = pair_product(a, b)
    assert ab.p == 2 and ab.n == 13
    assert ab.u.is_zero
    assert format_element(ab.v) == "x2^4*y5"


def test_pair_product_matches_the_pair_formula():
    """The slot of the element product against the paper's formula on random
    pairs of every pool model, odd-degree pairs times odd-degree pairs
    included, where each term's Koszul sign shows."""
    rng = random.Random(11)
    odd_odd = vv = 0
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        for _ in range(60):
            a, b = (random_pair(rng, model, max_degree=18) for _ in range(2))
            ab = pair_product(a, b)
            assert (ab.p, ab.n) == (a.p + b.p, a.n + b.n), name
            assert (ab.u, ab.v) == reference_pair_product(a, b), name
            odd_odd += a.n % 2 == b.n % 2 == 1 and not ab.is_zero
            vv += not (a.v * b.v).is_zero  # the term one slot up, cut off
    assert odd_odd > 20 and vv > 50


# ---------------------------------------------------------------------------
# the delta differential


def test_delta_on_named_cocycle_n37():
    model = elliptic_pure_n37()
    pair = _pair(model, 3, 37, "-x2^2*x6^3*y15", "x2*x6^5*y5")
    image = delta_apply(pair)
    assert image.is_zero
    assert image.p == 4 and image.n == 38


def test_delta_on_single_odd_generator():
    model = elliptic_pure_n37()
    image = delta_apply(_pair(model, 0, 5, "0", "y5"))
    assert image.u.is_zero
    assert format_element(image.v) == "x2^3"


def test_delta_on_unit():
    model = elliptic_pure_n37()
    assert delta_apply(_pair(model, 0, 0, "1", "0")).is_zero


def test_delta_nonvanishing_probe_n37():
    # the word-length-4 image of y23 makes this pair fail to be a cocycle
    model = elliptic_pure_n37()
    image = delta_apply(_pair(model, 2, 37, "x2*x6^2*y23", "0"))
    assert image.u.is_zero
    assert format_element(image.v) == "x2*x6^6"


def test_delta_apply_matches_the_pair_formula():
    rng = random.Random(7)
    nonzero = 0
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        delta = reference_delta(model)
        for _ in range(60):
            pair = random_pair(rng, model)
            image = delta_apply(pair)
            assert (image.p, image.n) == (pair.p + 1, pair.n + 1), name
            assert image.as_element() == delta(pair.as_element()), name
            nonzero += not image.is_zero
    assert nonzero > 100


def test_delta_is_a_derivation_of_the_pair_product():
    """delta(ab) = delta(a) b + (-1)^|a| a delta(b) on random pairs of every
    pool model, counted only where a, b and ab are all nonzero, so that no
    case reads 0 = 0 through a zero factor."""
    rng = random.Random(11)
    checked = moved = 0
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        for _ in range(100):
            a, b = (random_pair(rng, model, max_degree=18) for _ in range(2))
            ab = pair_product(a, b)
            if a.is_zero or b.is_zero or ab.is_zero:
                continue
            left = pair_product(delta_apply(a), b).as_element()
            right = pair_product(a, delta_apply(b)).as_element()
            lhs = delta_apply(ab)
            assert lhs.as_element() == left + (-1) ** a.n * right, name
            checked += 1
            moved += not lhs.is_zero
    assert checked >= 150 and moved >= 100


def test_selftest_catches_delta_two_slots_up_from_odd_slots(capsys, monkeypatch):
    """The one rule of delta, that every matrix is cut by, turned wrong: it
    keeps d's terms two pair slots up instead of one, from the odd slots or,
    as the second input, from every slot.  The uniform shift p + 2 still
    squares to zero, so ``delta_squared`` stays true under it;
    ``delta_derivation`` catches both."""

    def delta_cohomology_n37():
        model = FIXTURES / "pure_n37.model"
        argv = ["delta-cohomology", str(model), "--degree", "37", "--format", "structured"]
        code = cli.main(argv)
        return code, capsys.readouterr().out.splitlines()

    golden = (TESTS / "golden" / "report_n37.txt").read_text().splitlines()
    code, out = delta_cohomology_n37()
    shared = [x for x in out if x.startswith("delta.") and x in golden]
    assert code == 0 and len(shared) == 4

    # each rule with the delta_squared verdict it leaves
    rules = ((lambda p: p + 1 + p % 2, "false"), (lambda p: p + 2, "true"))
    for rule, squares_to_zero in rules:
        # the rule is read where it is written and through spectral's binding
        monkeypatch.setattr(cohomology, "_delta_slot", rule)
        monkeypatch.setattr(spectral, "_delta_slot", rule)
        code = cli.main(["selftest", "--seed", "1", "--format", "structured"])
        out = capsys.readouterr().out.splitlines()
        assert code == 3
        assert f"selftest.delta_squared.ok = {squares_to_zero}" in out
        assert "selftest.delta_derivation.ok = false" in out
        # the delta-matrices share the one rule with the selftest laws
        code, out = delta_cohomology_n37()
        assert code == 3 or not set(shared) <= set(out)


def test_delta_element_matches_pair_delta():
    model = elliptic_pure_n35()
    alg = model.algebra
    e = parse_element("x6^2*y23", alg)
    assert delta_apply(FilteredPair.slot(model, 1, 35, e)).is_zero
    f = parse_element("x2*x6^2*y23", alg)
    d_f = delta_apply(FilteredPair.slot(model, 2, 37, f)).as_element()
    assert not d_f.is_zero
    assert d_f == reference_delta(model)(f)


# ---------------------------------------------------------------------------
# delta cohomology


def test_delta_cohomology_degree_zero():
    model = elliptic_pure_n37()
    classes = delta_cohomology(model, 0)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.p == 0
    assert format_element(cls.u) == "1"
    assert cls.v.is_zero


def test_delta_cohomology_n35_top_degree():
    model = elliptic_pure_n35()
    classes = delta_cohomology(model, 35)
    summary = [
        (c.p, format_element(c.u), format_element(c.v))
        for c in classes
    ]
    assert summary == [
        (1, "0", "x6^2*y23"),
        (3, "x2^2*x6^3*y13 - x6^5*y5", "0"),
    ]


def test_delta_cohomology_n37_top_degree():
    # a single class at p = 3; the word-length-5 probe pair above is not a
    # cocycle, so nothing survives at p = 2
    model = elliptic_pure_n37()
    classes = delta_cohomology(model, 37)
    assert [c.p for c in classes] == [3]


def test_delta_classes_are_cocycles():
    for build in (elliptic_pure_n37, elliptic_pure_n35):
        model = build()
        for cls in delta_cohomology(model, 20):
            assert delta_apply(cls).is_zero


def test_delta_cohomology_rejects_k2():
    with pytest.raises(PreconditionError):
        delta_cohomology(sphere_s2(), 2)


# ---------------------------------------------------------------------------
# representative depth


def test_depth_of_top_classes():
    for build in (elliptic_pure_n37, elliptic_pure_n35):
        model = build()
        n = 37 if build is elliptic_pure_n37 else 35
        classes = delta_cohomology(model, n)
        deepest = classes[-1]
        assert deepest.p == 3
        depth, rep = representative_depth(deepest)
        assert depth == 6
        assert rep.min_wordlength() >= 6
    # and the p = 1 class of the 35-model sits at depth 3
    model = elliptic_pure_n35()
    shallow = delta_cohomology(model, 35)[0]
    depth, rep = representative_depth(shallow)
    assert depth == 3


def test_depth_of_unit_class():
    model = elliptic_pure_n37()
    cls = delta_cohomology(model, 0)[0]
    depth, rep = representative_depth(cls)
    assert depth == 0
    assert format_element(rep) == "1"


# ---------------------------------------------------------------------------
# lifting


def test_lift_immediate_success_n37():
    model = elliptic_pure_n37()
    start = parse_element("-x2^2*x6^3*y15 + x2*x6^5*y5", model.algebra)
    trace = lift_to_d_cocycle(model, start)
    assert trace.outcome == "success"
    assert trace.iterations == 0
    assert trace.final == start
    assert trace.p == 3 and trace.l == 0
    assert trace.t_bound == (37 - 12 - 1) // 4


def test_lift_immediate_success_n35():
    model = elliptic_pure_n35()
    start = parse_element("-x2^2*x6^3*y13 + x6^5*y5", model.algebra)
    trace = lift_to_d_cocycle(model, start)
    assert trace.outcome == "success"
    assert trace.iterations == 0


def test_lift_zero_start_collapses():
    model = elliptic_pure_n37()
    trace = lift_to_d_cocycle(model, model.algebra.zero())
    assert trace.outcome == "collapsed"
    assert trace.iterations == 0


def test_lift_rejects_non_cocycle_start():
    model = elliptic_pure_n37()
    with pytest.raises(PreconditionError):
        lift_to_d_cocycle(model, parse_element("y5", model.algebra))


def test_lift_single_correction_trace():
    """Frozen one-iteration run on the one-even-generator tower."""
    model = tower_one_even()
    alg = model.algebra
    start = parse_element("x2^2*y9", alg)
    trace = lift_to_d_cocycle(model, start)
    assert trace.outcome == "success"
    assert trace.iterations == 1
    assert trace.p == 1 and trace.l == 0
    [obstruction] = trace.obstructions
    assert obstruction.p == 3
    assert obstruction.u.is_zero
    assert format_element(obstruction.v) == "x2^7"
    [corrector] = trace.correctors
    assert format_element(corrector) == "x2^4*y5"
    assert format_element(trace.final) == "-x2^4*y5 + x2^2*y9"
    assert model.d(trace.final).is_zero


def test_lift_traces_do_not_share_their_lists():
    model = tower_one_even()
    lifted = lift_to_d_cocycle(model, parse_element("x2^2*y9", model.algebra))
    collapsed = lift_to_d_cocycle(model, model.algebra.zero())
    assert len(lifted.obstructions) == len(lifted.correctors) == 1
    assert collapsed.obstructions == collapsed.correctors == []
    assert (lifted.depth, collapsed.depth) == (3, None)
    first, second = (LiftTrace(model.algebra.zero(), 0, 0, 0, "died") for _ in range(2))
    first.obstructions.append(lifted.obstructions[0])
    first.correctors.append(lifted.correctors[0])
    assert second.obstructions == second.correctors == []


def test_lift_dies_on_shallow_class_of_n35():
    model = elliptic_pure_n35()
    start = parse_element("x6^2*y23", model.algebra)
    trace = lift_to_d_cocycle(model, start)
    assert trace.outcome == "died"
    assert trace.obstructions
    assert trace.final is None


def test_successful_lift_contract_over_pool():
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        run = spectral_run(model)
        for trace in run.outcomes:
            if trace.outcome != "success":
                continue
            final = trace.final
            assert model.d(final).is_zero, name
            assert not is_boundary(model, final), name
            assert final.min_wordlength() >= 2 * trace.p, name


def test_first_obstruction_is_two_pairs_up():
    # with delta(start) = 0 every component of d(start) sits at pair >= p+2
    for build in (elliptic_pure_n37, elliptic_pure_n35, tower_one_even):
        model = build()
        n = {elliptic_pure_n37: 37, elliptic_pure_n35: 35, tower_one_even: 13}[build]
        for cls in delta_cohomology(model, n):
            start = cls.as_element()
            dw = model.d(start)
            if dw.is_zero:
                continue
            assert dw.min_wordlength() // 2 >= cls.p + 2


# ---------------------------------------------------------------------------
# the spectral Toomer computation


def test_toomer_spectral_reference_values():
    assert toomer_spectral(elliptic_pure_n37()).e0 == 6
    assert toomer_spectral(elliptic_pure_n35()).e0 == 6


def _witness_pairs(model):
    """The ``toomer.spectral.witness.*`` pairs the report prints for model."""
    return [kv for kv in cli._toomer_pairs(model, "spectral") if ".witness." in kv[0]]


def test_toomer_spectral_witness():
    assert _witness_pairs(elliptic_pure_n37()) == [
        ("toomer.spectral.witness.p", 3),
        ("toomer.spectral.witness.parity", "even"),
    ]


def test_toomer_spectral_simplest_k3():
    res = toomer_spectral(projective_plane())
    assert res.e0 == 2
    assert _witness_pairs(projective_plane()) == [
        ("toomer.spectral.witness.p", 1),
        ("toomer.spectral.witness.parity", "even"),
    ]


def test_toomer_spectral_rejects_k2():
    with pytest.raises(PreconditionError):
        toomer_spectral(sphere_s2())


def test_spectral_agrees_with_oracle_over_pool():
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        assert toomer_spectral(model).e0 == toomer_oracle(model).e0, name


def test_spectral_run_records_depths_consistent_with_pairs():
    for name, build in ELLIPTIC_K3_POOL:
        model = build()
        run = spectral_run(model)
        for trace in run.outcomes:
            p = trace.p
            assert trace.start.min_wordlength() in (2 * p, 2 * p + 1), name
            assert trace.depth == trace.start.min_wordlength(), name
        # report's delta.class.* and delta.dim.* lines count the same classes
        classes = delta_cohomology(model, formal_dimension(model))
        assert [t.p for t in run.outcomes] == [c.p for c in classes], name
        assert run.classes == classes, name


def test_pair_bases_partition_filtration_stage():
    model = elliptic_pure_n37()
    for (p, n) in ((1, 12), (2, 20), (3, 37)):
        ub, vb = pair_basis(model, p, n)
        stage = basis(model.algebra, n, wordlength_exact=2 * p) + basis(
            model.algebra, n, wordlength_exact=2 * p + 1
        )
        assert ub + vb == stage
