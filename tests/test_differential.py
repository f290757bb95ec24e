from __future__ import annotations

import pytest

from reference import homogeneous_component
from sullivan.algebra import build_algebra, format_element, parse_element
from sullivan.differential import (
    build_differential,
    build_model,
    detect_k,
    is_pure,
    pure_projection,
)
from sullivan.errors import ModelError
from sullivan.models import (
    elliptic_pure_n37,
    exterior_two_odd,
    nonpure_n23,
    nonpure_n23_wide,
    sphere_s2,
)


def test_apply_d_on_product_of_two_odds():
    # d(y5*y15) = d(y5)*y15 - y5*d(y15) with the sign from |y5| odd
    model = elliptic_pure_n37()
    alg = model.algebra
    e = parse_element("y5*y15", alg)
    expected = parse_element("x2^3*y15 - x2^2*x6^2*y5", alg)
    assert model.differential(e) == expected


def test_apply_d_even_square():
    model = nonpure_n23()
    alg = model.algebra
    # d(x8^2) = 2*x8*d(x8), and the odd factor y3 commutes past x8
    assert model.d(parse_element("x8^2", alg)) == parse_element(
        "2*x2^3*x8*y3", alg
    )


def test_generators_of_even_degree_are_closed():
    model = elliptic_pure_n37()
    assert model.d(model.algebra.gen_element("x2")).is_zero
    assert model.d(model.algebra.gen_element("x6")).is_zero


def test_d_squared_enforced_at_build_time():
    alg = build_algebra([("x2", 2), ("y3", 3), ("y5", 5), ("y7", 7)])
    images = {
        "y3": parse_element("x2^2", alg),
        "y5": parse_element("x2^3", alg),
        "y7": parse_element("y3*y5", alg),  # d(y3*y5) = x2^2*y5 - x2^3*y3 != 0
    }
    with pytest.raises(ModelError) as err:
        build_differential(alg, images)
    assert "d^2" in str(err.value)


def test_image_degree_must_match():
    alg = build_algebra([("x2", 2), ("y5", 5)])
    with pytest.raises(ModelError):
        build_differential(alg, {"y5": parse_element("x2^2", alg)})


def test_image_must_be_homogeneous():
    alg = build_algebra([("x2", 2), ("x4", 4), ("y5", 5)])
    bad = parse_element("x2^3 + x2*x4 + x4", alg)
    with pytest.raises(ModelError):
        build_differential(alg, {"y5": bad})


def test_minimality_enforced():
    alg = build_algebra([("x4", 4), ("y3", 3)])
    with pytest.raises(ModelError) as err:
        build_differential(alg, {"y3": parse_element("x4", alg)})
    assert "word length" in str(err.value) or "minimality" in str(err.value)


def test_unknown_image_key_rejected():
    alg = build_algebra([("x2", 2), ("y5", 5)])
    with pytest.raises(ModelError):
        build_differential(alg, {"z9": parse_element("x2^3", alg)})


def test_detect_k():
    assert sphere_s2().k == 2
    assert elliptic_pure_n37().k == 3
    assert exterior_two_odd().k is None
    assert nonpure_n23().k == 3


def test_homogeneous_components_split_the_differential():
    model = elliptic_pure_n37()
    alg = model.algebra
    d3 = homogeneous_component(model.differential, 3)
    d4 = homogeneous_component(model.differential, 4)
    d5 = homogeneous_component(model.differential, 5)
    assert d3.image_of("y5") == parse_element("x2^3", alg)
    assert d3.image_of("y15").is_zero and d3.image_of("y23").is_zero
    assert d4.image_of("y15") == parse_element("x2^2*x6^2", alg)
    assert d4.image_of("y23") == parse_element("x6^4", alg)
    assert d5.is_zero


def test_component_sum_reconstructs_d_on_elements():
    model = nonpure_n23_wide()
    alg = model.algebra
    e = parse_element("x8*y23 - 2*y3*y5*y23", alg)
    total = alg.zero()
    for i in range(2, 9):
        total = total + homogeneous_component(model.differential, i)(e)
    assert total == model.d(e)


def test_is_pure_and_projection():
    assert is_pure(elliptic_pure_n37())
    model = nonpure_n23()
    assert not is_pure(model)
    pure = pure_projection(model)
    assert is_pure(pure)
    alg = pure.algebra
    assert pure.d(alg.gen_element("x8")).is_zero
    assert pure.d(alg.gen_element("y23")) == parse_element("x8^3", alg)
    assert pure.d(alg.gen_element("y5")) == parse_element("x2^3", alg)


def test_pure_projection_keeps_deep_even_terms():
    model = nonpure_n23_wide()
    pure = pure_projection(model)
    img = pure.d(pure.algebra.gen_element("y23"))
    assert format_element(img) == "x2^4*x8^2 + x8^3"


def test_pure_projection_is_idempotent():
    model = nonpure_n23()
    once = pure_projection(model)
    twice = pure_projection(once)
    assert once == twice
