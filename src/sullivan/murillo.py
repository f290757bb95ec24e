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

from fractions import Fraction
from typing import List

from .algebra import Algebra, Element
from .cohomology import formal_dimension, is_boundary, require_elliptic
from .differential import Derivation, SullivanModel, _cached, is_pure
from .errors import InternalInconsistencyError, PreconditionError


def coefficient_matrix(model: SullivanModel) -> List[List[Element]]:
    """The rows ``entries[j][i]`` of the triangular coefficient matrix, for
    odd generator y_j and even generator x_i: greedy left-to-right
    extraction, kept in the model's cache.  Each row is checked to reassemble
    d(y_j) as sum_i entries[j][i] * x_i, which fails on a term with no even
    factor (minimality gives every term of a pure image one), and
    entries[j][i] to involve only the even generators x_i, ..., x_n."""
    if not is_pure(model):
        raise PreconditionError(
            "coefficient matrix requires a pure differential; apply "
            "pure_projection first if that is intended"
        )

    def produce():
        alg = model.algebra
        evens = [alg.generators[i] for i in alg.even_indices]
        xs = [alg.gen_element(x.name) for x in evens]
        fields = [alg._masks[x.index] << alg._offsets[x.index] for x in evens]
        entries: List[List[Element]] = []
        for y in (alg.generators[j] for j in alg.odd_indices):
            image = model.differential.image_of(y.name)
            # each term goes to the column of the first even generator in it
            row = [{} for _ in evens]
            for key, c in image.keyed.items():
                col = next((i for i, field in enumerate(fields) if key & field), None)
                if col is None:
                    continue
                row[col][key - alg._unit(evens[col].index)] = c
            entries.append([Element._of(alg, quotient) for quotient in row])
            if sum((e * x for e, x in zip(entries[-1], xs)), alg.zero()) != image:
                raise InternalInconsistencyError(
                    f"coefficient row for {y.name!r} does not reassemble d"
                )
        for i in range(len(evens)):
            earlier = sum(fields[:i])
            if any(k & earlier for row in entries for k in row[i].keyed):
                raise InternalInconsistencyError("coefficient matrix is not triangular")
        return entries

    return _cached(model, ("coefficient_matrix",), produce)


# Not on the engine's path, and called only by their own unit tests:
# bench/spans.py traces the two determinants below by name.  The tests
# evaluate the minors formula with a determinant of their own.
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
    lead_b = b.leading_monomial()
    cb = b.coefficient(lead_b)
    while not remainder.is_zero:
        lead_r = remainder.leading_monomial()
        mono = tuple(er - eb for er, eb in zip(lead_r, lead_b))
        if any(e < 0 for e in mono):
            raise InternalInconsistencyError("inexact division during elimination")
        # a coefficient may be an int, and int / int is a float
        step = Element.from_monomial(alg, mono, Fraction(remainder.coefficient(lead_r)) / cb)
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
    entries = coefficient_matrix(model)
    alg = model.algebra
    n = len(alg.even_indices)
    # y_1 * ... * y_m in declaration order, then iota_n first and iota_1 last
    omega = Element.from_monomial(alg, [int(g.is_odd) for g in alg.generators])
    for i in reversed(range(n)):
        iota = Derivation(alg, {j: row[i] for j, row in zip(alg.odd_indices, entries)})
        omega = iota(omega)
    if omega.is_zero:
        raise InternalInconsistencyError(
            "determinant formula produced zero on an elliptic model"
        )
    if omega.keyed[max(omega.keyed)] < 0:
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
