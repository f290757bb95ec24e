from __future__ import annotations

from fractions import Fraction

import pytest

from sullivan.algebra import (
    Element,
    basis,
    build_algebra,
    format_element,
    grlex_key,
    koszul_sign,
    parse_element,
    wordlength,
    wordlength_split,
)
from sullivan.errors import ModelError, ParseError
from sullivan.models import ALL_MODELS


def _alg_n37():
    return build_algebra(
        [("x2", 2), ("x6", 6), ("y5", 5), ("y15", 15), ("y23", 23)]
    )


def _alg_s2():
    return build_algebra([("x2", 2), ("y3", 3)])


# ---------------------------------------------------------------------------
# construction


def test_degrees_below_two_rejected():
    with pytest.raises(ModelError):
        build_algebra([("t", 1)])
    with pytest.raises(ModelError):
        build_algebra([("t", 0)])


def test_duplicate_names_rejected():
    with pytest.raises(ModelError):
        build_algebra([("x2", 2), ("x2", 4)])


def test_parity_follows_degree():
    alg = _alg_n37()
    assert [g.is_odd for g in alg.generators] == [False, False, True, True, True]


# ---------------------------------------------------------------------------
# basis enumeration


def test_basis_small_degrees():
    alg = _alg_n37()
    assert basis(alg, 0) == [(0, 0, 0, 0, 0)]
    assert basis(alg, 1) == []
    assert basis(alg, 4) == [(2, 0, 0, 0, 0)]  # x2^2
    assert basis(alg, 7) == [(1, 0, 1, 0, 0)]  # x2*y5


def test_basis_respects_odd_exponent_cap():
    alg = _alg_s2()
    for n in range(0, 20):
        for mono in basis(alg, n):
            assert mono[1] <= 1  # y3 is exterior


def test_basis_is_grlex_sorted():
    alg = _alg_n37()
    for n in (10, 16, 23, 37):
        monos = basis(alg, n)
        assert monos == sorted(monos, key=grlex_key)


def test_basis_wordlength_filters():
    alg = _alg_n37()
    all_monos = basis(alg, 16)
    exact = basis(alg, 16, wordlength_exact=4)
    assert exact == [m for m in all_monos if wordlength(m) == 4]
    deep = basis(alg, 16, wordlength_min=5)
    assert deep == [m for m in all_monos if wordlength(m) >= 5]


def _filtered_basis(alg, degree, wordlength_exact=None, wordlength_min=None):
    """The word-length filter as a loop over the whole degree basis."""
    out = []
    for m in basis(alg, degree):
        wl = wordlength(m)
        if wordlength_exact is not None and wl != wordlength_exact:
            continue
        if wordlength_min is not None and wl < wordlength_min:
            continue
        out.append(m)
    return out


def test_basis_wordlength_slices_match_the_filter_loop():
    for _, build in ALL_MODELS:
        alg = build().algebra
        for n in range(0, 46):
            top = max((wordlength(m) for m in basis(alg, n)), default=0)
            lengths = range(-1, top + 2)
            for s in lengths:
                assert basis(alg, n, wordlength_exact=s) == _filtered_basis(
                    alg, n, wordlength_exact=s
                )
                assert basis(alg, n, wordlength_min=s) == _filtered_basis(
                    alg, n, wordlength_min=s
                )
                for t in lengths:
                    assert basis(
                        alg, n, wordlength_exact=s, wordlength_min=t
                    ) == _filtered_basis(alg, n, wordlength_exact=s, wordlength_min=t)
        for n in (-1, -7):
            assert basis(alg, n) == []
            assert basis(alg, n, wordlength_exact=0) == []
            assert basis(alg, n, wordlength_min=0) == []
            assert basis(alg, n, wordlength_exact=1, wordlength_min=1) == []


def test_basis_returns_a_fresh_list():
    alg = _alg_n37()
    for kwargs in ({}, {"wordlength_exact": 4}, {"wordlength_min": 5}):
        first = basis(alg, 16, **kwargs)
        expected = list(first)
        first.clear()
        assert basis(alg, 16, **kwargs) == expected
        again = basis(alg, 16, **kwargs)
        again.append((0, 0, 0, 0, 0))
        assert basis(alg, 16, **kwargs) == expected


def test_basis_counts_match_series_for_small_algebra():
    # 1/(1-t^2) * (1+t^3) has coefficients 1,0,1,1,1,1,... at 0..5
    alg = _alg_s2()
    assert [len(basis(alg, n)) for n in range(6)] == [1, 0, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# products and signs


def test_koszul_sign_odd_swap():
    alg = _alg_n37()
    y5 = alg.gen_element("y5")
    y15 = alg.gen_element("y15")
    assert y5 * y15 == -(y15 * y5)
    assert (y5 * y15) * y15 == alg.zero()  # square of an odd factor


def test_koszul_sign_even_commutes():
    alg = _alg_n37()
    x2, x6, y5 = (alg.gen_element(s) for s in ("x2", "x6", "y5"))
    assert x2 * y5 == y5 * x2
    assert x2 * x6 == x6 * x2


def test_koszul_sign_function_values():
    alg = _alg_n37()
    y5 = (0, 0, 1, 0, 0)
    y15 = (0, 0, 0, 1, 0)
    assert koszul_sign(alg, y15, y5) == -1
    assert koszul_sign(alg, y5, y5) == 0
    assert koszul_sign(alg, (1, 0, 0, 0, 0), y5) == 1


def test_scalar_and_linear_arithmetic():
    alg = _alg_s2()
    x2 = alg.gen_element("x2")
    e = Fraction(1, 2) * x2 + Fraction(1, 2) * x2
    assert e == x2
    assert (x2 - x2).is_zero
    assert 0 * x2 == alg.zero()


def test_mixed_algebra_operations_rejected():
    a1, a2 = _alg_s2(), _alg_n37()
    with pytest.raises(ValueError):
        a1.gen_element("x2") + a2.gen_element("x2")


def test_structurally_equal_algebras_interoperate():
    a1, a2 = _alg_s2(), _alg_s2()
    assert a1.gen_element("x2") + a2.gen_element("x2") == 2 * a1.gen_element("x2")


# ---------------------------------------------------------------------------
# word lengths


def test_wordlength_split_two_components():
    alg = _alg_n37()
    e = parse_element("-x2^2*x6^3*y15 + x2*x6^5*y5", alg)
    split = wordlength_split(e)
    assert sorted(split) == [6, 7]
    assert format_element(split[6]) == "-x2^2*x6^3*y15"
    assert format_element(split[7]) == "x2*x6^5*y5"
    assert e.min_wordlength() == 6
    assert e.even_wordlength_part() == split[6]


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_monomial():
    alg = _alg_n37()
    e = parse_element("x2^2 * x6^2", alg)
    assert e.degree() == 16
    assert format_element(e) == "x2^2*x6^2"


def test_parse_sum_with_coefficients():
    alg = _alg_n37()
    e = parse_element("3*x2^3 - 1/2*x6", alg)
    assert e.coefficient((3, 0, 0, 0, 0)) == 3
    assert e.coefficient((0, 1, 0, 0, 0)) == Fraction(-1, 2)


def test_parse_leading_sign():
    alg = _alg_n37()
    assert parse_element("-x2", alg) == -alg.gen_element("x2")
    assert parse_element("+x2", alg) == alg.gen_element("x2")


def test_parse_bare_integer():
    alg = _alg_s2()
    assert parse_element("7", alg) == 7 * alg.one()


def test_parse_comments_and_whitespace():
    alg = _alg_s2()
    assert parse_element("  x2 ^ 2  # the square", alg) == parse_element(
        "x2^2", alg
    )


def test_parse_odd_square_rejected():
    alg = _alg_s2()
    with pytest.raises(ParseError) as err:
        parse_element("y3^2", alg)
    assert "odd" in str(err.value)


def test_parse_repeated_odd_factor_rejected_like_a_square():
    alg = _alg_s2()
    with pytest.raises(ParseError) as square:
        parse_element("x2 + 2*y3^2", alg)
    with pytest.raises(ParseError) as repeat:
        parse_element("x2 + 2*y3*x2*y3", alg)
    assert repeat.value.message == square.value.message == "odd generator 'y3' squared"
    assert square.value.column == 7
    assert repeat.value.column == 13
    assert parse_element("y3^0*y3", alg) == parse_element("y3", alg)


def test_parse_power_is_one_monomial():
    alg = _alg_s2()
    assert parse_element("x2^0", alg) == alg.one()
    assert parse_element("2*x2^0*y3", alg) == parse_element("2*y3", alg)
    assert parse_element("x2^3", alg) == parse_element("x2*x2*x2", alg)
    huge = parse_element("x2^9999999999", alg)
    assert huge.degree() == 2 * 9999999999
    with pytest.raises(ParseError):
        parse_element("x2*y3^9999999999", alg)


def test_parse_unknown_generator_rejected():
    alg = _alg_s2()
    with pytest.raises(ParseError) as err:
        parse_element("x2*z9", alg)
    assert "z9" in str(err.value)
    assert err.value.column is not None


def test_parse_requires_star_between_factors():
    alg = _alg_n37()
    with pytest.raises(ParseError):
        parse_element("x2 x6", alg)


def test_parse_zero_denominator_rejected():
    alg = _alg_s2()
    with pytest.raises(ParseError):
        parse_element("1/0*x2", alg)


def test_parse_empty_rejected():
    alg = _alg_s2()
    with pytest.raises(ParseError):
        parse_element("   # nothing", alg)


# ---------------------------------------------------------------------------
# formatting


def test_format_zero_and_units():
    alg = _alg_s2()
    assert format_element(alg.zero()) == "0"
    assert format_element(alg.one()) == "1"
    assert format_element(-3 * alg.one()) == "-3"


def test_format_orders_terms_grlex_descending():
    # same word length: compare exponent tuples; x2^3 = (3,..) beats x2*y5*y15
    alg = _alg_n37()
    e = parse_element("x2^3 + x6 + x2*y5*y15", alg)
    assert format_element(e) == "x2^3 + x2*y5*y15 + x6"


def test_format_parse_roundtrip():
    alg = _alg_n37()
    for text in (
        "x2^2*x6^2",
        "-x2^2*x6^3*y15 + x2*x6^5*y5",
        "1/3*x2 - 5*x6",
        "y5*y15*y23",
    ):
        e = parse_element(text, alg)
        assert parse_element(format_element(e), alg) == e
