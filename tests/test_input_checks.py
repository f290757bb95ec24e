"""Each input check of the engine's library surface rejects its bad input."""

from __future__ import annotations

from fractions import Fraction

import pytest

from reference import homogeneous_component
from sullivan.algebra import (
    Generator,
    basis_keys,
    build_algebra,
    coefficient_vector,
    parse_element,
)
from sullivan.cohomology import is_boundary, is_elliptic
from sullivan.differential import build_differential, build_model
from sullivan.errors import ModelError
from sullivan.linalg import ColumnFactorization, RationalMatrix, RowSpace
from sullivan.models import elliptic_pure_n35, elliptic_pure_n37, projective_plane
from sullivan.spectral import (
    FilteredPair,
    lift_to_d_cocycle,
    pair_product,
    representative_depth,
)


def _pair(p, n, u, v, model=None):
    model = model or elliptic_pure_n37()
    alg = model.algebra
    return FilteredPair(model, p, n, parse_element(u, alg), parse_element(v, alg))


def _other_algebra():
    return build_algebra([("z2", 2), ("w3", 3)])


def _build_differential_keyed_by(key):
    alg = elliptic_pure_n37().algebra
    build_differential(alg, {key: parse_element("x2^3", alg)})


def _build_differential_image_of_another_algebra():
    alg = elliptic_pure_n37().algebra
    build_differential(alg, {"y5": _other_algebra().zero()})


def _build_model_differential_of_another_algebra():
    model = elliptic_pure_n37()
    build_model(_other_algebra(), model.differential)


def _pair_component_of_another_algebra():
    model = elliptic_pure_n37()
    FilteredPair(model, 0, 0, _other_algebra().one(), model.algebra.zero())


def _pair_product_across_models():
    pair_product(
        _pair(0, 0, "1", "0"), _pair(0, 0, "1", "0", projective_plane())
    )


def _image_of(name):
    elliptic_pure_n37().differential.image_of(name)


def _is_boundary_of_n35(text):
    is_boundary(elliptic_pure_n37(), parse_element(text, elliptic_pure_n35().algebra))


def _depth_of_zero_class():
    model = elliptic_pure_n35()
    zero = FilteredPair(model, 0, 0, model.algebra.zero(), model.algebra.zero())
    representative_depth(zero)


INPUT_CHECKS = {
    "build_algebra-degree-not-int": (
        lambda: build_algebra([("x2", 2.0)]), ModelError, "must be an integer"),
    "leading_monomial-of-zero": (
        lambda: elliptic_pure_n37().algebra.zero().leading_monomial(),
        ValueError, "no leading monomial"),
    "coefficient_vector-outside-basis": (
        lambda: coefficient_vector(
            elliptic_pure_n37().algebra.gen_element("x6"),
            basis_keys(elliptic_pure_n37().algebra, 2),
        ),
        ValueError, "outside the given basis"),
    "is_elliptic-negative-bound": (
        lambda: is_elliptic(elliptic_pure_n37(), -1), ValueError, "nonnegative"),
    # images are keyed by generator name, and only by name
    "build_differential-key-5": (
        lambda: _build_differential_keyed_by(5), ModelError,
        "^a generator is named by a str, not 5$"),
    "build_differential-key-None": (
        lambda: _build_differential_keyed_by(None), ModelError,
        "^a generator is named by a str, not None$"),
    "build_differential-key-Generator": (
        lambda: _build_differential_keyed_by(Generator("y5", 5, 2)), ModelError,
        r"^a generator is named by a str, not Generator\(name='y5', degree=5, index=2\)$"),
    # and an image is asked for by name only
    "image_of-Generator-of-no-generator": (
        lambda: _image_of(Generator("z9", 9, 2)), ModelError,
        r"^a generator is named by a str, not Generator\(name='z9', degree=9, index=2\)$"),
    "image_of-own-Generator": (
        lambda: _image_of(elliptic_pure_n37().algebra.generator("y5")), ModelError,
        r"^a generator is named by a str, not Generator\(name='y5', degree=5, index=2\)$"),
    "image_of-5": (
        lambda: _image_of(5), ModelError, "^a generator is named by a str, not 5$"),
    "build_differential-image-of-another-algebra": (
        _build_differential_image_of_another_algebra, ModelError,
        "lives in a different algebra"),
    # the tests' word-length components (``reference``), kept with their check
    "homogeneous_component-negative": (
        lambda: homogeneous_component(elliptic_pure_n37().differential, -1),
        ValueError, "nonnegative"),
    "build_model-differential-of-another-algebra": (
        _build_model_differential_of_another_algebra, ModelError,
        "different algebra"),
    "FilteredPair-negative-p": (
        lambda: _pair(-1, 0, "0", "0"), ValueError, "nonnegative"),
    "FilteredPair-component-of-another-algebra": (
        _pair_component_of_another_algebra, ValueError, "different algebra"),
    "pair_product-across-models": (
        _pair_product_across_models, ValueError, "different models"),
    "representative_depth-zero-class": (
        _depth_of_zero_class, ValueError, "zero class has no depth"),
    # (0, y5) has delta (0, x2^3), so it is no class to measure
    "representative_depth-pair-not-a-delta-cocycle": (
        lambda: representative_depth(_pair(0, 5, "0", "y5")), ValueError,
        "^the given pair is not a delta-cocycle$"),
    "lift_to_d_cocycle-start-of-another-algebra": (
        lambda: lift_to_d_cocycle(elliptic_pure_n37(), _other_algebra().one()),
        ValueError, "different algebra"),
    "is_boundary-monomial-of-another-algebra": (
        lambda: _is_boundary_of_n35("x2^2"), ValueError,
        "^element lives in a different algebra$"),
    "is_boundary-class-of-another-algebra": (
        lambda: _is_boundary_of_n35("x2^2*y13 - x6^2*y5"), ValueError,
        "^element lives in a different algebra$"),
    "RowSpace.add-index-out-of-range": (
        lambda: RowSpace(3).add({5: 1}), ValueError, "does not have length 3"),
    "ColumnFactorization-column-of-another-length": (
        lambda: ColumnFactorization([[1, 2]], 3), ValueError, "does not have length 3"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_rejects_its_bad_input(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc, match=message):
        call()


def test_public_entries_refuse_every_entry_but_an_int_or_a_fraction():
    """The linear-algebra entry points keep the coefficient rule of an
    ``Element``: each entry's type is checked before a zero is dropped, so a
    ``0.0`` is refused too, and an ``int`` or a ``Fraction`` is kept as it is."""
    entries = (
        lambda v: RowSpace(2).reduce(v),
        lambda v: RowSpace(2).add(v),
        lambda v: ColumnFactorization([v], 2),
        lambda v: RationalMatrix([v], ncols=2),
    )
    for entry in entries:
        for x in (0.5, 0.0, True, "1/3"):
            for v in ([1, x], {0: 1, 1: x}):
                with pytest.raises(TypeError, match="must be an int or a Fraction, not"):
                    entry(v)
    for v in ([1, 3], [Fraction(1), Fraction(1, 3)], {0: 1, 1: Fraction(3)}):
        want = [type(x) for x in (v.values() if isinstance(v, dict) else v)]
        space = RowSpace(2)
        assert space.add(v)
        kept = (
            RowSpace(2).reduce(v),
            space._rows[0],
            ColumnFactorization([v], 2).columns[0],
            RationalMatrix([v], ncols=2).rows[0],
        )
        for vector in kept:
            assert [type(x) for x in vector.values()] == want
