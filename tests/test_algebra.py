from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from sullivan import algebra
from sullivan.algebra import (
    Element,
    Generator,
    basis,
    basis_keys,
    build_algebra,
    coefficient_vector,
    format_element,
    grlex_key,
    koszul_sign,
    parse_element,
    wordlength,
)
from sullivan.cohomology import formal_dimension
from sullivan.errors import ModelError, ParseError, PreconditionError
from sullivan.models import ALL_MODELS
from zoo import model_files, models


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


def test_generators_compare_by_their_fields_hash_and_are_immutable():
    g = _alg_n37().generator("x6")
    assert g == _alg_n37().generator("x6") == Generator("x6", 6, 1)
    assert g != Generator("x6", 6, 0) and g != _alg_n37().generator("x2")
    assert hash(g) == hash(Generator("x6", 6, 1))
    assert {g: "x6"}[Generator(name="x6", degree=6, index=1)] == "x6"
    with pytest.raises(AttributeError):
        g.degree = 4


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


def _filtered_basis(alg, degree, wordlength_exact):
    """The word-length filter as a loop over the whole degree basis."""
    return [m for m in basis(alg, degree) if wordlength(m) == wordlength_exact]


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
        for n in (-1, -7):
            assert basis(alg, n) == []
            assert basis(alg, n, wordlength_exact=0) == []


def _enumerated_basis(alg, degree):
    """The degree basis by a walk over every exponent vector of degree at
    most ``degree``, sorted into graded-lex order."""
    gens = alg.generators
    out = []
    exps = [0] * len(gens)

    def rec(i, remaining):
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(exps))
            return
        g = gens[i]
        cap = 1 if g.is_odd else remaining // g.degree
        for e in range(cap + 1):
            cost = e * g.degree
            if cost > remaining:
                break
            exps[i] = e
            rec(i + 1, remaining - cost)
        exps[i] = 0

    rec(0, degree)
    return sorted(out, key=grlex_key)


def test_basis_matches_the_exponent_vector_walk():
    for name, build in ALL_MODELS:
        alg = build().algebra
        for n in range(0, 46):
            assert basis(alg, n) == _enumerated_basis(alg, n), (name, n)


def test_basis_of_a_deep_degree_first(monkeypatch):
    # the lower degrees are built in a loop, not by recursion
    monkeypatch.setattr(algebra, "MAX_DEGREE", 5000)
    alg = _alg_s2()
    assert basis(alg, 5000) == [(2500, 0)]
    assert basis(alg, 4999) == [(2498, 1)]
    assert basis(build_algebra([("y3", 3), ("y5", 5)]), 4000) == []


def test_basis_over_the_limit_is_a_precondition_error(monkeypatch):
    # three degree-2 generators: the degree-2k basis has (k+1)(k+2)/2
    # monomials, 45 at degree 16 and 55 at degree 18
    alg = build_algebra([("a", 2), ("b", 2), ("c", 2)])
    monkeypatch.setattr(algebra, "MAX_BASIS", 45)
    assert len(basis(alg, 17)) == 0 and len(basis(alg, 16)) == 45
    with pytest.raises(PreconditionError, match=(
        "the degree-18 basis has 55 monomials, more than the limit of 45"
    )):
        basis(alg, 20)
    # the degrees below stay cached and whole
    assert basis(alg, 16) == _enumerated_basis(alg, 16)
    monkeypatch.setattr(algebra, "MAX_BASIS", 55)
    assert basis(alg, 18) == _enumerated_basis(alg, 18)


def test_basis_size_is_counted_before_the_build(monkeypatch):
    # odd and even generators of several degrees: the size the limit check
    # counts for each degree is the length of the basis then built
    alg = build_algebra(
        [("x2", 2), ("y3", 3), ("x4", 4), ("y5", 5), ("y7", 7), ("x6", 6)]
    )
    for d in range(40):
        size = len(_enumerated_basis(alg, d))
        monkeypatch.setattr(algebra, "MAX_BASIS", size - 1)
        with pytest.raises(PreconditionError, match=(
            f"the degree-{d} basis has {size} monomials"
        )):
            basis(alg, d)
        monkeypatch.setattr(algebra, "MAX_BASIS", size)
        assert basis(alg, d) == _enumerated_basis(alg, d)


def test_basis_returns_a_fresh_list():
    alg = _alg_n37()
    for kwargs in ({}, {"wordlength_exact": 4}):
        first = basis(alg, 16, **kwargs)
        expected = list(first)
        first.clear()
        assert basis(alg, 16, **kwargs) == expected
        again = basis(alg, 16, **kwargs)
        again.append((0, 0, 0, 0, 0))
        assert basis(alg, 16, **kwargs) == expected


def test_keys_round_trip_and_sort_as_graded_lex():
    """On every fixture's bases up to N + 1: decode(encode(m)) = m, each
    degree's cached keys are its encoded basis in ascending order, and two
    monomials of any degrees compare by key as they do by ``grlex_key``."""
    checked = 0
    for name, model in models(model_files()):
        alg, monos = model.algebra, []
        for n in range(max(formal_dimension(model), 0) + 2):
            keys = basis_keys(alg, n)
            assert keys == sorted(keys) == [alg.encode(m) for m in basis(alg, n)], name
            monos += basis(alg, n)
        assert [alg.decode(alg.encode(m)) for m in monos] == monos, name
        assert sorted(monos, key=alg.encode) == sorted(monos, key=grlex_key), name
        checked += len(monos)
    assert checked > 10_000, checked


def test_an_exponent_at_the_field_limit_round_trips():
    # x2^500 in degree MAX_DEGREE: the largest exponent a key's field holds
    alg = build_algebra([("x2", 2), ("x6", 6), ("y3", 3), ("y5", 5)])
    top = basis(alg, algebra.MAX_DEGREE)
    assert top[-1] == (algebra.MAX_DEGREE // 2, 0, 0, 0)
    assert top == sorted(top, key=grlex_key) and len(top) == 333
    assert [alg.decode(alg.encode(m)) for m in top] == top
    assert [alg.encode(m) for m in top] == basis_keys(alg, algebra.MAX_DEGREE)
    # past the limit a field carries, and the key is no monomial's
    over = (algebra.MAX_DEGREE, 0, 0, 0)
    assert alg.decode(alg.encode(over)) != over
    with pytest.raises(ValueError, match="outside the given basis"):
        coefficient_vector(Element.from_monomial(alg, over), basis_keys(alg, 2))


def test_no_key_is_built_past_the_degree_limit():
    alg, over = _alg_s2(), algebra.MAX_DEGREE + 1
    message = f"^the degree-{over} basis is above the degree limit of {algebra.MAX_DEGREE}$"
    for filled in (0, algebra.MAX_DEGREE + 1):
        for build in (basis_keys, basis):
            with pytest.raises(PreconditionError, match=message):
                build(alg, over)
            assert len(alg._basis_cache) == filled
        basis_keys(alg, algebra.MAX_DEGREE)


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
    assert hash(a1) == hash(a2) and {a1: "s2"}[a2] == "s2"
    assert repr(a1) == "Algebra(x2:2, y3:3)"


def test_element_repr_truth_and_hash():
    alg = _alg_n37()
    e = parse_element("x2^3 - 1/2*x6", alg)
    assert repr(e) == "<x2^3 - 1/2*x6>"
    assert e and not alg.zero()
    with pytest.raises(TypeError):
        hash(e)


# ---------------------------------------------------------------------------
# word lengths


def test_wordlength_split_two_components():
    alg = _alg_n37()
    e = parse_element("-x2^2*x6^3*y15 + x2*x6^5*y5", alg)
    assert e.wordlengths() == (6, 7)
    six, seven = e.wordlength_component(6), e.wordlength_component(7)
    assert format_element(six) == "-x2^2*x6^3*y15"
    assert format_element(seven) == "x2*x6^5*y5"
    assert six + seven == e
    assert e.min_wordlength() == 6


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


def test_parse_odd_factors_in_any_order_carry_the_koszul_sign():
    alg = _alg_n37()
    assert parse_element("y15*y5", alg) == -parse_element("y5*y15", alg)
    ordered = parse_element("y5*y15*y23", alg)
    for names in permutations(["y5", "y15", "y23"]):
        inversions = sum(
            a > b for a, b in combinations([int(n[1:]) for n in names], 2)
        )
        sign = -1 if inversions % 2 else 1
        assert parse_element("*".join(names), alg) == sign * ordered
    assert parse_element("x2*y23*x6*y5", alg) == -parse_element("x2*x6*y5*y23", alg)


def test_parse_dangling_star_rejected():
    alg = _alg_s2()
    for text, column in (("x2*", 3), ("x2* + y3", 4), ("x2^3*", 5), ("3*", 2)):
        with pytest.raises(ParseError) as err:
            parse_element(text, alg)
        assert err.value.message == "expected a generator name"
        assert err.value.column == column


def test_parse_numbers_are_decimal_digits_only():
    alg = _alg_s2()
    with pytest.raises(ParseError) as err:
        parse_element("x2^\u00b2", alg)
    assert err.value.message == "unexpected character '\u00b2'"
    assert err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse_element("x2\u00b2", alg)
    assert err.value.message == "unknown generator 'x2\u00b2'"


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
