"""Fundamental class of a pure elliptic model by contraction.

For a pure model with even generators x_1..x_n and odd generators y_1..y_m,
each image d(y_j) is peeled greedily into sum_i a_j^i x_i where a_j^i only
involves x_i..x_n: terms divisible by x_1 are extracted first, then x_2 among
what remains, and so on.  With iota_i the odd derivation sending y_j to a_j^i
and every even generator to 0, the fundamental class is

    omega = iota_1 o ... o iota_n (y_1 * ... * y_m),

normalized so the graded-lex leading coefficient is positive.  The Leibniz
rule expands this (Laplace expansion of an exterior product) into the
determinant formula, sum over n-subsets J of rows of (-1)^{sum J} det(A_J)
times the odd generators left out, up to a sign that depends only on n; so
after the normalization the two agree term for term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .algebra import Algebra, Element, Generator, format_element, grlex_key
from .cohomology import formal_dimension, is_boundary, require_elliptic
from .differential import Derivation, SullivanModel, _cached, is_pure
from .errors import InternalInconsistencyError, PreconditionError


@dataclass
class CoefficientMatrix:
    """Rows indexed by odd generators, columns by even generators."""

    even_gens: Tuple[Generator, ...]
    odd_gens: Tuple[Generator, ...]
    entries: List[List[Element]]  # entries[j][i], m rows by n columns


def coefficient_matrix(model: SullivanModel) -> CoefficientMatrix:
    """Greedy left-to-right extraction of the triangular coefficient matrix,
    kept in the model's cache.  Each row is checked to reassemble d(y_j) as
    sum_i entries[j][i] * x_i, and entries[j][i] to involve only the even
    generators x_i, ..., x_n."""
    if not is_pure(model):
        raise PreconditionError(
            "coefficient matrix requires a pure differential; apply "
            "pure_projection first if that is intended"
        )

    def produce():
        alg = model.algebra
        evens = tuple(g for g in alg.generators if not g.is_odd)
        odds = tuple(g for g in alg.generators if g.is_odd)
        xs = [alg.gen_element(x.name) for x in evens]
        entries: List[List[Element]] = []
        for y in odds:
            image = model.differential.image_of(y)
            # each term goes to the column of the first even generator in it
            row = [{} for _ in evens]
            remainder = {}
            for mono, c in image.terms.items():
                col = next((i for i, x in enumerate(evens) if mono[x.index]), None)
                if col is None:
                    remainder[mono] = c
                    continue
                k = evens[col].index
                row[col][mono[:k] + (mono[k] - 1,) + mono[k + 1:]] = c
            if remainder:
                raise InternalInconsistencyError(
                    f"d({y.name}) left a remainder after extracting all even "
                    f"generators: {format_element(Element(alg, remainder))}"
                )
            entries.append([Element(alg, quotient) for quotient in row])
            if sum((e * x for e, x in zip(entries[-1], xs)), alg.zero()) != image:
                raise InternalInconsistencyError(
                    f"coefficient row for {y.name!r} does not reassemble d"
                )
        for i in range(len(evens)):
            earlier = [x.index for x in evens[:i]]
            if any(m[e] for row in entries for m in row[i].terms for e in earlier):
                raise InternalInconsistencyError("coefficient matrix is not triangular")
        return CoefficientMatrix(evens, odds, entries)

    return _cached(model, ("coefficient_matrix",), produce)


# The determinant and the exact division below are not on the engine's path:
# the tests evaluate the minors formula with them as the reference for the
# contraction, and bench/spans.py traces the two determinants by name.
def _det_cofactor(entries: List[List[Element]], alg: Algebra) -> Element:
    n = len(entries)
    if n == 0:
        return alg.one()
    if n == 1:
        return entries[0][0]
    total = alg.zero()
    for i in range(n):
        top = entries[0][i]
        if top.is_zero:
            continue
        minor = [[row[j] for j in range(n) if j != i] for row in entries[1:]]
        sub = _det_cofactor(minor, alg)
        term = top * sub
        total = total + (term if i % 2 == 0 else -term)
    return total


def exact_divide(a: Element, b: Element) -> Element:
    """Exact division in the polynomial part of the algebra.

    Only valid when b divides a (as Bareiss elimination guarantees); raises
    InternalInconsistencyError otherwise.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero element")
    alg = a.algebra
    quotient = alg.zero()
    remainder = a
    lead_b = max(b.terms, key=grlex_key)
    cb = b.terms[lead_b]
    while not remainder.is_zero:
        lead_r = max(remainder.terms, key=grlex_key)
        mono = tuple(er - eb for er, eb in zip(lead_r, lead_b))
        if any(e < 0 for e in mono):
            raise InternalInconsistencyError("inexact division during elimination")
        step = Element.from_monomial(alg, mono, remainder.terms[lead_r] / cb)
        quotient = quotient + step
        remainder = remainder - step * b
    return quotient


def _det_bareiss(entries: List[List[Element]], alg: Algebra) -> Element:
    n = len(entries)
    if n == 0:
        return alg.one()
    m = [[entries[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = alg.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot is None:
                return alg.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_divide(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = alg.zero()
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


def murillo_fundamental_class(model: SullivanModel) -> Element:
    """The fundamental class of a pure elliptic model, exactly.

    Verified before returning: the result is a nonzero cocycle of degree N
    that is not a boundary.
    """
    require_elliptic(model)
    matrix = coefficient_matrix(model)
    n = len(matrix.even_gens)
    m = len(matrix.odd_gens)
    if m < n:
        raise PreconditionError(
            f"{m} odd generators but {n} even ones: no square minors exist"
        )
    alg = model.algebra
    # y_1 * ... * y_m in declaration order, then iota_n first and iota_1 last
    omega = Element.from_monomial(alg, [int(g.is_odd) for g in alg.generators])
    for i in reversed(range(n)):
        iota = Derivation(
            alg, {y.index: row[i] for y, row in zip(matrix.odd_gens, matrix.entries)}
        )
        omega = iota(omega)
    if omega.is_zero:
        raise InternalInconsistencyError(
            "determinant formula produced zero on an elliptic model"
        )
    if omega.terms[omega.leading_monomial()] < 0:
        omega = -omega
    n_formal = formal_dimension(model)
    if omega.degree() != n_formal:
        raise InternalInconsistencyError(
            f"fundamental class has degree {omega.degree()}, expected {n_formal}"
        )
    if not model.d(omega).is_zero:
        raise InternalInconsistencyError("fundamental class is not a cocycle")
    if is_boundary(model, omega):
        raise InternalInconsistencyError("fundamental class is a boundary")
    return omega
