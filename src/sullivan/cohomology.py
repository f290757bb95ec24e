"""Degreewise cohomology and the invariants built directly on top of it.

Everything is computed one degree at a time with exact rational
arithmetic.  The pieces provided here:

* cochain maps and cohomology bases, each basis a list of deterministic
  representatives read off the factorizations of d into and out of its
  degree, through one set of cached helpers that serve both d and the
  spectral sequence's page-one differential delta, whose columns are d's
  cut one word-length pair slot up (:func:`_delta_slot`); the factorization
  of the map into the degree hands over its unreduced image as the row
  space of the boundaries, with no back-substitution,
* cohomology dimensions from two ranks, dim H^n = |B_n| - rank d_n -
  rank d_{n-1}, with no representatives built, each rank taken only off
  the pivot columns of the boundaries below it, and their duality check,
* the formal dimension N read off the generator degrees,
* an ellipticity decision procedure through the associated pure model,
  whose quotient dimensions are read off the Hilbert series of one
  Groebner basis of its ideal, grown degree by degree, with no basis or
  rank of the even generators' algebra,
* the fundamental class of an elliptic model: N and the one representative
  of H^N,
* the Toomer invariant by direct word-length filtration membership, through
  a one-pass depth search that the spectral method shares: the normal form
  of a cocycle modulo the boundary echelon, over a basis ordered by word
  length, starts at the deepest filtration stage holding the class; that
  reduction stopped at the stage is the witness the boundary columns cut
  below it solve for, read off the one factorization of the boundaries.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    Element,
    Monomial,
    basis_keys,
    count_degree,
    coefficient_vector,
    element_from_vector,
)
from .differential import SullivanModel, _cached, pure_projection
from .errors import InternalInconsistencyError, PreconditionError
from .linalg import ColumnFactorization, RationalMatrix, RowSpace, Vector

#: A polynomial in the even generators, {exponent tuple: coefficient}.
Polynomial = Dict[Monomial, Fraction]


class EllipticityResult(NamedTuple):
    """Outcome of the finite-dimensionality test with its certificate."""

    status: str  # "elliptic" | "not_elliptic" | "inconclusive"
    formal_dimension: int
    bound: int
    window_width: int
    window_start: Optional[int] = None
    nonvanishing_degrees: Tuple[int, ...] = ()

    @property
    def is_elliptic(self) -> bool:
        return self.status == "elliptic"


class ToomerResult(NamedTuple):
    """The Toomer invariant with a witness cocycle.

    ``representative`` is a non-bounding cocycle of top degree whose terms all
    have word length >= e0.  For the spectral method ``witness`` records the
    filtration index of the surviving class and whether e0 is 2p or 2p + 1.
    """

    e0: int
    representative: Element
    witness: Optional[Tuple[int, str]] = None


def cochain_maps(model: SullivanModel, n: int) -> Tuple[RationalMatrix, RationalMatrix]:
    """Matrices of d out of degree n and into degree n.

    Returns ``(outgoing, incoming)`` where ``outgoing`` maps degree-n
    coordinates to degree-(n+1) coordinates and ``incoming`` maps degree-(n-1)
    coordinates to degree-n coordinates.  Columns are indexed by the
    graded-lex monomial basis of the source degree.
    """
    factors = _factor(model, "d", n), _factor(model, "d", n - 1)
    return tuple(RationalMatrix.from_columns(f.columns, f.nrows) for f in factors)


def _images(model: SullivanModel, src: List[int], dst: List[int]) -> List[Vector]:
    """Columns of the matrix of d from span(src) to span(dst), both lists
    of monomial keys: the coordinates of its value on each monomial of src."""
    key_image = model.differential.key_image
    index = {k: i for i, k in enumerate(dst)}
    return [
        {index[m]: c for m, c in key_image(key).items() if c} for key in src
    ]


def _delta_slot(p: int) -> int:
    """The one rule of delta: it keeps the terms of d one pair slot above
    their source, slot p holding the word lengths 2p and 2p + 1.  For k = 3,
    where d_i raises word length by i - 1, that is (u, v) -> (d_3 u, d_3 v +
    d_4 u).  Pairs, whole-degree columns and slot matrices cut d by it."""
    return p + 1


# The helpers below serve both differentials: ``which`` is "d" or "delta",
# and results are cached per differential and degree.  A degree basis, in
# graded-lex order, is the delta pair slots one after another, so the delta
# matrix of a whole degree is the block sum of the slot matrices: its
# echelon, kernel basis and representatives are the per-slot ones placed
# side by side.


def _factor(model: SullivanModel, which: str, n: int) -> ColumnFactorization:
    """The differential ``which`` out of degree n, eliminated once: its
    kernel holds the degree-n cocycles, its image rows span the degree-(n+1)
    boundaries, and it solves ``which``(x) = b.

    delta's columns are d's, the cached factorization's when there is one:
    column m keeps its rows in the slot :func:`_delta_slot` maps m's into,
    a key's slot being its word length, its top bits, halved."""

    def produce():
        src, dst = basis_keys(model.algebra, n), basis_keys(model.algebra, n + 1)
        d = model._cache.get(("d", "factor", n))
        columns = d.columns if d is not None else _images(model, src, dst)
        if which == "delta":
            shift = model.algebra._shift + 1
            slots = [k >> shift for k in dst]
            columns = [
                {i: x for i, x in col.items() if slots[i] == up}
                for col, up in zip(columns, [_delta_slot(k >> shift) for k in src])
            ]
        return ColumnFactorization._of(columns, len(dst))

    return _cached(model, (which, "factor", n), produce)


def _cohomology(model: SullivanModel, which: str, n: int) -> List[Element]:
    """Representatives of the degree-n cohomology of ``which``: the kernel
    basis vectors that extend the boundary echelon, the unreduced image of
    the factorization out of degree n - 1 handed over as a row space, to a
    cocycle basis."""

    def produce():
        cocycles = _factor(model, which, n).kernel
        space = _factor(model, which, n - 1)._image()
        dim = len(cocycles) - space.rank
        bn = basis_keys(model.algebra, n)
        reps = [
            element_from_vector(model.algebra, bn, z)
            for z in cocycles
            if space._add(dict(z))
        ]
        if dim != len(reps):
            raise InternalInconsistencyError(
                f"H^{n}({which}): dimension {dim} but {len(reps)} representatives"
            )
        return reps

    return _cached(model, (which, "H", n), produce)


def cohomology_basis(model: SullivanModel, n: int) -> List[Element]:
    """Deterministic representatives of a basis of H^n: cocycles that extend
    a basis of the boundaries to one of the cocycles, so dim H^n is their
    number."""
    return _cohomology(model, "d", n)


def _rank(model: SullivanModel, n: int) -> int:
    """The rank of d out of degree n: read off its factorization when one is
    cached, or else eliminated once as a plain row space of the image
    columns, with no unit coordinates, and cached.  B_n is im d_{n-1} plus
    the unit vectors off its pivot columns P, and d vanishes on im d_{n-1},
    so only the columns off P are built: P from a cached factorization of
    degree n - 1, or the last rank's (the one set kept), or else empty."""
    factor = model._cache.get(("d", "factor", n))
    if factor is not None:
        return len(factor.columns) - len(factor.kernel)

    def produce():
        src, dst = basis_keys(model.algebra, n), basis_keys(model.algebra, n + 1)
        last, pivots = model._cache.get(("d", "pivots"), (None, ()))
        below = model._cache.get(("d", "factor", n - 1))
        pivots = below._pivots if below else pivots if last == n - 1 else ()
        space = RowSpace(len(dst))
        off = [m for j, m in enumerate(src) if j not in pivots]
        for column in _images(model, off, dst):
            space._add(column)
        model._cache[("d", "pivots")] = (n, frozenset(space._pivots))
        return space.rank

    return _cached(model, ("d", "rank", n), produce)


def cohomology_dim(model: SullivanModel, n: int) -> int:
    """dim H^n = |B_n| - rank d_n - rank d_{n-1}, from the two ranks alone,
    with rank d_{-1} = 0; :func:`cohomology_basis` has this many
    representatives."""
    below = _rank(model, n - 1) if n > 0 else 0
    return len(basis_keys(model.algebra, n)) - _rank(model, n) - below


def check_duality(dims: Sequence[int]) -> None:
    """InternalInconsistencyError unless dims, the dimensions of H^0 .. H^N
    of an elliptic model (N = len(dims) - 1), satisfy Poincare duality with
    dim H^N = 1; ``report`` and ``selftest`` both check through it."""
    n = len(dims) - 1
    if dims[n] != 1:
        raise InternalInconsistencyError(
            f"H^{n} has dimension {dims[n]}, expected 1 for an elliptic model"
        )
    for i, dim in enumerate(dims):
        if dim != dims[n - i]:
            raise InternalInconsistencyError(
                f"dim H^{i} = {dim} but dim H^{n - i} = {dims[n - i]}: "
                "Poincare duality fails"
            )


def is_boundary(model: SullivanModel, e: Element) -> bool:
    """Exact membership of a homogeneous element in the boundary space."""
    if e.is_zero:
        return True
    bn = basis_keys(model.algebra, e.degree())
    return not _factor(model, "d", e.degree() - 1)._split(coefficient_vector(e, bn))[0]


def formal_dimension(model: SullivanModel) -> int:
    """N = dim V^even - sum_i (-1)^{|v_i|} |v_i| over all generators."""
    alg = model.algebra
    n = len(alg.even_indices)
    for g in alg.generators:
        n -= g.degree if not g.is_odd else -g.degree
    return n


def is_elliptic(model: SullivanModel, bound: Optional[int] = None) -> EllipticityResult:
    """Decide finite-dimensionality of cohomology via the pure model.

    The even subalgebra modulo the ideal generated by the pure images of the
    odd generators is finite dimensional exactly when the model is elliptic.
    The quotient is scanned degree by degree: once it vanishes on a window of
    ``max even generator degree`` consecutive degrees it vanishes forever
    after, because any deeper monomial factors through the window.  Each
    dimension is read off the Hilbert series of the one Groebner basis of
    the model's pure ideal (:class:`_PureQuotient`), grown only up to the
    highest degree a scan reads.

    If no clean window exists below ``bound`` the answer is a definite "no"
    provided the scan reached N + 1 (an elliptic model's quotient vanishes
    above its formal dimension); with a user-supplied smaller bound the
    result degrades to "inconclusive".  A definite answer must agree with
    the lead monomials: the quotient is finite exactly when each even
    generator has a pure power among them (Cox-Little-O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 5 section 3); InternalInconsistencyError
    otherwise.
    """
    return _cached(model, ("elliptic", bound), lambda: _scan_pure_quotient(model, bound))


def _scan_pure_quotient(model: SullivanModel, bound: Optional[int]) -> EllipticityResult:
    alg = model.algebra
    n_formal = formal_dimension(model)
    even_degrees = [g.degree for g in alg.generators if not g.is_odd]
    width = max(even_degrees, default=1)
    max_degree = max((g.degree for g in alg.generators), default=1)
    if bound is None:
        bound = max(2 * max(n_formal, 0) + max_degree, n_formal + 1, 4)
    if bound < 0:
        raise ValueError("scan bound must be nonnegative")

    # the quotient is cached on the model, so every scan shares its
    # dimensions; ``qdims`` records only the degrees this scan looked at
    quotient = _cached(
        model, ("pure_quotient",), lambda: _PureQuotient(*_pure_ideal(model))
    )
    qdims: Dict[int, int] = {}

    def vanishes(degree: int) -> bool:
        qdims[degree] = quotient.dim(degree)
        return qdims[degree] == 0

    for b in range(bound + 1):
        if all(vanishes(d) for d in range(b, b + width)):
            result = EllipticityResult(
                status="elliptic",
                formal_dimension=n_formal,
                bound=bound,
                window_width=width,
                window_start=b,
            )
            break
    else:
        nonvanishing = tuple(sorted(d for d, q in qdims.items() if q > 0))
        conclusive = bound >= max(n_formal + 1, 0)
        result = EllipticityResult(
            status="not_elliptic" if conclusive else "inconclusive",
            formal_dimension=n_formal,
            bound=bound,
            window_width=width,
            nonvanishing_degrees=nonvanishing,
        )
    if result.status != "inconclusive" and result.is_elliptic != quotient.finite():
        raise InternalInconsistencyError(
            f"the scan says {result.status}, but the lead monomials of the pure "
            f"ideal {'lack' if result.is_elliptic else 'hold'} a pure power of "
            "every even generator"
        )
    return result


def _pure_ideal(model: SullivanModel) -> Tuple[Tuple[int, ...], List[Polynomial]]:
    """The degrees of the even generators, and the pure images of the odd
    generators as polynomials in them, {exponent tuple over the even
    generators: coefficient}, an integer coefficient as an ``int``, as the
    derivation holds it."""
    alg = model.algebra
    sigma = pure_projection(model).differential
    ideal = [
        {tuple(m[j] for j in alg.even_indices): c for m, c, _ in terms}
        for terms in sigma._terms.values()
    ]
    return tuple(alg.degrees[j] for j in alg.even_indices), ideal


class _PureQuotient:
    """Q[x_1..x_n] / (f_1..f_r), |x_i| = ``weights[i]``, for weighted-
    homogeneous polynomials f_j, extended one degree at a time.

    A Groebner basis, in the order by weighted degree and then reverse lex,
    is grown by Buchberger's algorithm, its generators and S-pairs taken by
    ascending (lcm) degree: after degree D every element of degree <= D is
    found, and a pair of lcm above the highest degree read is never reduced.
    A pair whose S-polynomial is known to reduce to 0 is skipped: one of
    coprime leads, and one whose lcm a third lead divides with smaller lcms
    against both (Buchberger's two criteria; those pairs were done at lower
    degrees).  Each element is reduced and monic, so its lead monomial is
    not a multiple of an earlier one.  The quotient has the Hilbert series
    of the lead-term ideal, K(t) / prod_i (1 - t^|x_i|), and each new lead
    monomial m updates the numerator by K(L + (m)) = K(L) - t^|m| K(L : m)
    (Bayer-Stillman 1992; Cox-Little-O'Shea, ch. 9 sections 2-3).  So a
    degree's dimension is sum_e K_e * (the ambient count of the degree less
    e), and the ambient counts, the coefficients of 1 / prod_i (1 - t^|x_i|),
    are summed degree by degree as the algebra's basis sizes are
    (:func:`algebra.count_degree`), so a degree over the basis limits raises
    before any of its work.
    """

    def __init__(self, weights: Tuple[int, ...], ideal: List[Polynomial]):
        self.weights = weights
        self.basis: List[Tuple[Monomial, Polynomial]] = []  # (lead, f)
        self.numerator: Dict[int, int] = {0: 1}
        self.dims: List[int] = []  # the quotient's dimensions, from degree 0 up
        # per degree, how many monomials have no factor of index >= k
        self._counts: List[List[int]] = []
        # per degree, the generators and the S-pairs (i, j) left to reduce
        self._todo: Dict[int, List] = {}
        for f in ideal:
            self._todo.setdefault(_degree(next(iter(f)), weights), []).append(f)

    def dim(self, degree: int) -> int:
        while len(self.dims) <= degree:
            self._extend()
        return self.dims[degree]

    def _extend(self) -> None:
        d = len(self.dims)
        count_degree(self._counts, self.weights, d)
        for item in self._todo.pop(d, ()):
            if type(item) is not tuple:
                self._add(dict(item))
            elif not self._chained(*item):
                self._add(self._s_polynomial(*item))
        counts = self._counts
        self.dims.append(
            sum(c * counts[d - e][-1] for e, c in self.numerator.items() if e <= d)
        )

    def _chained(self, i: int, j: int) -> bool:
        (a, _), (b, _) = self.basis[i], self.basis[j]
        lcm = _lcm(a, b)
        return any(
            all(map(le, lead, lcm)) and lcm not in (_lcm(lead, a), _lcm(lead, b))
            for lead, _ in self.basis
        )

    def _s_polynomial(self, i: int, j: int) -> Polynomial:
        (lead_i, f_i), (lead_j, f_j) = self.basis[i], self.basis[j]
        lcm = _lcm(lead_i, lead_j)
        h: Polynomial = {}
        _subtract(h, -1, tuple(map(sub, lcm, lead_i)), f_i)
        _subtract(h, 1, tuple(map(sub, lcm, lead_j)), f_j)
        return h

    def _add(self, h: Polynomial) -> None:
        """Reduce h by the basis; a nonzero remainder joins it, monic."""
        rest: Polynomial = {}  # the terms no lead divides, in descending order
        while h:
            top = max(h, key=_revlex)
            for other, f in self.basis:
                if all(map(le, other, top)):
                    _subtract(h, h[top], tuple(map(sub, top, other)), f)
                    break
            else:
                rest[top] = h.pop(top)
        if not rest:
            return
        lead = next(iter(rest))
        a = rest[lead]
        if a != 1:
            rest = {t: -c if a == -1 else Fraction(c) / a for t, c in rest.items()}
        leads = [other for other, _ in self.basis]
        for j, other in enumerate(leads):
            if any(map(min, other, lead)):  # a coprime pair would reduce to 0
                degree = _degree(_lcm(other, lead), self.weights)
                self._todo.setdefault(degree, []).append((j, len(leads)))
        colon = [tuple(max(x - y, 0) for x, y in zip(other, lead)) for other in leads]
        self.numerator = _plus_shifted(
            self.numerator, -1, _degree(lead, self.weights),
            _hilbert_numerator(colon, self.weights),
        )
        self.basis.append((lead, rest))

    def finite(self) -> bool:
        """Whether every variable has a pure power among the lead monomials
        found so far.  The quotient is finite exactly when the whole basis
        has them.  A window of zero dimensions holds a power of every
        variable, so a scan that finds one has found them; a finite quotient
        vanishes above N, so a definite not-elliptic scan has not."""
        powers = {
            i for lead, _ in self.basis for i, e in enumerate(lead) if e == sum(lead)
        }
        return len(powers) == len(self.weights)


def _degree(mono: Monomial, weights: Tuple[int, ...]) -> int:
    return sum(map(mul, mono, weights))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _revlex(mono: Monomial) -> Monomial:
    """Sort key of reverse lex, which orders the terms of a homogeneous
    polynomial: the greater monomial has the smaller last exponent that
    differs."""
    return tuple(map(neg, reversed(mono)))


def _subtract(h: Polynomial, c, shift: Monomial, f: Polynomial) -> None:
    """h -= c * x^shift * f, in place, dropping the terms that cancel."""
    for t, x in f.items():
        m = tuple(map(add, t, shift))
        v = h.get(m, 0) - c * x
        if v:
            h[m] = v
        else:
            del h[m]


def _hilbert_numerator(
    monos: List[Monomial], weights: Tuple[int, ...]
) -> Dict[int, int]:
    """K(t) with K(t) / prod_i (1 - t^weights[i]) the Hilbert series of
    Q[x] / (monos), for monomials ``monos``.

    Pairwise coprime generators form a regular sequence, K = prod (1 - t^|m|).
    Otherwise a variable x_i divides two of them; with e its least exponent
    there, p = x_i^e splits K(J) = K(J + (p)) + t^|p| K(J : p), and both
    ideals are smaller: J + (p) has fewer generators, J : p a smaller sum of
    exponents.
    """
    minimal: List[Monomial] = []
    for m in sorted(set(monos), key=sum):  # a proper divisor has a smaller sum
        if not any(all(map(le, k, m)) for k in minimal):
            minimal.append(m)
    for i, w in enumerate(weights):
        exponents = [m[i] for m in minimal if m[i]]
        if len(exponents) > 1:
            break
    else:
        out = {0: 1}
        for m in minimal:
            out = _plus_shifted(out, -1, _degree(m, weights), out)
        return out
    e = min(exponents)
    p = tuple(e if j == i else 0 for j in range(len(weights)))
    plus = _hilbert_numerator([m for m in minimal if not m[i]] + [p], weights)
    colon = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in minimal]
    return _plus_shifted(plus, 1, e * w, _hilbert_numerator(colon, weights))


def _plus_shifted(
    p: Dict[int, int], c: int, shift: int, q: Dict[int, int]
) -> Dict[int, int]:
    """p + c * t^shift * q for polynomials {exponent: coefficient} in t,
    without zero coefficients."""
    out = dict(p)
    for e, x in q.items():
        out[e + shift] = out.get(e + shift, 0) + c * x
    return {e: x for e, x in out.items() if x}


def require_elliptic(model: SullivanModel) -> None:
    """PreconditionError unless elliptic; the derived scan bound is conclusive."""
    res = is_elliptic(model)
    if not res.is_elliptic:
        degs = ", ".join(str(d) for d in res.nonvanishing_degrees[:8])
        raise PreconditionError(
            "model is not elliptic: the pure quotient survives in degrees "
            f"{degs}{'...' if len(res.nonvanishing_degrees) > 8 else ''}"
        )


def top_class(model: SullivanModel) -> Tuple[int, Element]:
    """N and the representative of the fundamental class, which spans the
    line H^N of an elliptic model."""
    require_elliptic(model)
    n = formal_dimension(model)
    reps = cohomology_basis(model, n)
    if len(reps) != 1:
        raise InternalInconsistencyError(
            f"H^{n} has {len(reps)} representatives, expected 1 for an "
            "elliptic model"
        )
    return n, reps[0]


def _deepest_representative(
    model: SullivanModel, which: str, n: int, z: Element
) -> Optional[Tuple[int, Element]]:
    """The greatest s with z in Lambda^{>=s}V + boundaries of ``which``,
    and a witness; z has degree n.

    The degree-n basis is in graded-lex order, so its word lengths ascend,
    and the boundaries are the image of ``which`` out of degree n - 1.  Each
    row of its image echelon is zero left of its pivot, so reducing z modulo
    the boundaries subtracts only rows pivoted at word length >= s from any
    z in Lambda^{>=s}V: the lowest word length of the normal form is
    therefore exactly the greatest s.

    The witness is z reduced only at the pivots below ``shallow``, where
    word length s starts: z - M x, M the columns of ``which``, zero below
    ``shallow`` as the normal form is.  It is the membership solve of z
    against the unit vectors of word length >= s and then M (free variables
    0), by a lemma: a column is stored reduced only up to its lead, so by
    induction over the columns the stored rows with leads below ``shallow``,
    cut there, are those of the factorization of M cut below ``shallow``.

    Returns None when z is a boundary.
    """
    bn, shift = basis_keys(model.algebra, n), model.algebra._shift
    boundaries = _factor(model, which, n - 1)
    zvec = coefficient_vector(z, bn)
    normal = boundaries._split(dict(zvec))[0]
    if not normal:
        return None
    s = bn[min(normal)] >> shift
    shallow = bisect_left(bn, s << shift)
    witness = boundaries._split(zvec, shallow)[0]
    if min(witness) < shallow:
        raise InternalInconsistencyError(
            f"no representative at word length >= {s}, the depth of its own "
            "normal form"
        )
    return s, element_from_vector(z.algebra, bn, witness)


def toomer_oracle(model: SullivanModel) -> ToomerResult:
    """e0 by direct linear algebra: the deepest word-length filtration stage
    that still contains a representative of the fundamental class.

    The fundamental cocycle is reduced modulo the boundaries of top degree,
    whose factorization :func:`cohomology_basis` already built; the lowest word
    length left is e0, and the reduction stopped there is the witness
    representative (see :func:`_deepest_representative`).  The result is
    kept in the model's cache, so the cross-check in the spectral method
    reuses it.
    """

    def produce():
        n, fundamental = top_class(model)
        found = _deepest_representative(model, "d", n, fundamental)
        if found is None:
            raise InternalInconsistencyError(
                "top class representative reduced to zero"
            )
        e0, rep = found
        return ToomerResult(e0=e0, representative=rep)

    return _cached(model, ("toomer_oracle",), produce)
