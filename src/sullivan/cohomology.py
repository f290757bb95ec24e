"""Degreewise cohomology and the invariants built directly on top of it.

Everything is computed one degree at a time with exact rational linear
algebra.  The pieces provided here:

* cochain maps and cohomology bases, each basis a list of deterministic
  representatives read off the factorizations of d into and out of its
  degree, through one set of cached helpers that serve both d and the
  spectral sequence's page-one differential delta; the unreduced image rows
  of the map into the degree seed the boundaries, with no back-substitution,
* cohomology dimensions from two ranks, dim H^n = |B_n| - rank d_n -
  rank d_{n-1}, with no representatives built, and their duality check,
* the formal dimension N read off the generator degrees,
* an ellipticity decision procedure through the associated pure model,
* the fundamental class of an elliptic model: N and the one representative
  of H^N,
* the Toomer invariant by direct word-length filtration membership, through
  a one-pass depth search that the spectral method shares: the normal form
  of a cocycle modulo the boundary echelon, over a basis ordered by word
  length, starts at the deepest filtration stage holding the class.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    Algebra,
    Element,
    Monomial,
    basis,
    build_algebra,
    coefficient_vector,
    element_from_vector,
    wordlength,
)
from .differential import SullivanModel, _cached, pure_projection
from .errors import InternalInconsistencyError, PreconditionError
from .linalg import ColumnFactorization, RationalMatrix, RowSpace, Vector


@dataclass
class EllipticityResult:
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


@dataclass
class ToomerResult:
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


def _images(
    model: SullivanModel, which: str, src: List[Monomial], dst: List[Monomial]
) -> List[Vector]:
    """Columns of the matrix of the differential ``which`` from span(src) to
    span(dst): the coordinates of its value on each monomial of src."""
    add_image = model.differential.add_image if which == "d" else model.add_delta_image
    index = {m: i for i, m in enumerate(dst)}
    columns = []
    for mono in src:
        image: Dict[Monomial, Fraction] = {}
        add_image(mono, 1, image)
        columns.append({index[m]: c for m, c in image.items() if c})
    return columns


# The helpers below serve both differentials: ``which`` is "d" or "delta"
# (``SullivanModel.delta``), and results are cached per differential and
# degree.  A degree basis, in graded-lex order, is the delta pair slots one
# after another, so the delta matrix of a whole degree is the block sum of
# the slot matrices: its echelon, kernel basis and representatives are the
# per-slot ones placed side by side.


def _factor(model: SullivanModel, which: str, n: int) -> ColumnFactorization:
    """The differential ``which`` out of degree n, eliminated once: its
    kernel holds the degree-n cocycles, its image rows span the degree-(n+1)
    boundaries, and it solves ``which``(x) = b."""

    def produce():
        src, dst = basis(model.algebra, n), basis(model.algebra, n + 1)
        return ColumnFactorization._of(_images(model, which, src, dst), len(dst))

    return _cached(model, (which, "factor", n), produce)


def _cohomology(model: SullivanModel, which: str, n: int) -> List[Element]:
    """Representatives of the degree-n cohomology of ``which``: the kernel
    basis vectors that extend the boundary echelon (the unreduced
    ``image_rows`` out of degree n - 1) to a cocycle basis."""

    def produce():
        cocycles = _factor(model, which, n).kernel
        boundaries = _factor(model, which, n - 1).image_rows()
        bn = basis(model.algebra, n)
        space = RowSpace(len(bn), boundaries)
        reps = [
            element_from_vector(model.algebra, bn, z)
            for z in cocycles
            if space._add(dict(z))
        ]
        dim = len(cocycles) - len(boundaries)
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
    columns, with no unit coordinates, and cached."""
    factor = model._cache.get(("d", "factor", n))
    if factor is not None:
        return len(factor.columns) - len(factor.kernel)

    def produce():
        src, dst = basis(model.algebra, n), basis(model.algebra, n + 1)
        space = RowSpace(len(dst))
        for column in _images(model, "d", src, dst):
            space._add(column)
        return space.rank

    return _cached(model, ("d", "rank", n), produce)


def cohomology_dim(model: SullivanModel, n: int) -> int:
    """dim H^n = |B_n| - rank d_n - rank d_{n-1}, from the two ranks alone,
    with rank d_{-1} = 0; :func:`cohomology_basis` has this many
    representatives."""
    below = _rank(model, n - 1) if n > 0 else 0
    return len(basis(model.algebra, n)) - _rank(model, n) - below


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
    bn = basis(model.algebra, e.degree())
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
    after, because any deeper monomial factors through the window.

    If no clean window exists below ``bound`` the answer is a definite "no"
    provided the scan reached N + 1 (an elliptic model's quotient vanishes
    above its formal dimension); with a user-supplied smaller bound the
    result degrades to "inconclusive".
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

    # quotient dimensions are cached on the model, so every scan shares
    # them; ``qdims`` records only the degrees this scan looked at
    qdims: Dict[int, int] = {}

    def vanishes(degree: int) -> bool:
        key = ("pure_quotient_dim", degree)
        qdims[degree] = _cached(model, key, lambda: _pure_quotient_dim(model, degree))
        return qdims[degree] == 0

    for b in range(bound + 1):
        if all(vanishes(d) for d in range(b, b + width)):
            return EllipticityResult(
                status="elliptic",
                formal_dimension=n_formal,
                bound=bound,
                window_width=width,
                window_start=b,
            )
    nonvanishing = tuple(sorted(d for d, q in qdims.items() if q > 0))
    conclusive = bound >= max(n_formal + 1, 0)
    return EllipticityResult(
        status="not_elliptic" if conclusive else "inconclusive",
        formal_dimension=n_formal,
        bound=bound,
        window_width=width,
        nonvanishing_degrees=nonvanishing,
    )


def _pure_ideal(model: SullivanModel) -> Tuple[Algebra, List[Tuple[int, Dict]]]:
    """The even generators' own algebra Lambda(V^even), and the pure images
    of the odd generators in it as (degree, {exponent tuple: coefficient}),
    an integer coefficient as an ``int``, as the derivation holds it."""
    alg = model.algebra
    even = build_algebra((g.name, g.degree) for g in alg.generators if not g.is_odd)
    sigma = pure_projection(model).differential
    ideal = []
    for i, img in sigma.images.items():
        f = {tuple(m[j] for j in alg.even_indices): c for m, c, _ in sigma._terms[i]}
        ideal.append((img.degree(), f))
    return even, ideal


def _pure_quotient_dim(model: SullivanModel, degree: int) -> int:
    """Dimension of the degree part of Lambda(V^even) / (ideal), the ideal
    of :func:`_pure_ideal`: the degree basis less the rank of the rows m * f,
    m a monomial and f an ideal generator.  Both lie in the even algebra, so
    m * f adds exponents: no signs, no cancelling."""
    even, ideal = _cached(model, ("pure_ideal",), lambda: _pure_ideal(model))
    ambient = basis(even, degree)
    index = {m: i for i, m in enumerate(ambient)}
    space = RowSpace(len(ambient))
    for f_degree, f in ideal:
        for m in basis(even, degree - f_degree):
            space._add({index[tuple(map(add, m, t))]: c for t, c in f.items()})
    return len(ambient) - space.rank


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
    if n < 0:
        raise InternalInconsistencyError(
            f"elliptic model with negative formal dimension {n}"
        )
    reps = cohomology_basis(model, n)
    if len(reps) != 1:
        raise InternalInconsistencyError(
            f"H^{n} has dimension {len(reps)}, expected 1 for an "
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

    The representative is the one the membership solve of z against the unit
    vectors of word length >= s followed by the boundary columns picks (free
    variables zero).  That solve takes a boundary column exactly when its
    part below word length s is independent of the earlier columns' parts.
    So it is read off a factorization of the columns cut below word length
    s, which depends on (which, n, s) only and is cached on the model; the
    representative is z minus that combination of the whole columns.

    Returns None when z is a boundary.
    """
    bn = basis(model.algebra, n)
    boundaries = _factor(model, which, n - 1)
    zvec = coefficient_vector(z, bn)
    normal = boundaries._split(dict(zvec))[0]
    if not normal:
        return None
    s = wordlength(bn[min(normal)])
    shallow = bisect_left(bn, s, key=wordlength)

    def produce():
        cut = [
            {i: x for i, x in col.items() if i < shallow} for col in boundaries.columns
        ]
        return ColumnFactorization._of(cut, shallow)

    truncated = _cached(model, (which, "factor", n - 1, s), produce)
    rest, sol = truncated._split({i: c for i, c in zvec.items() if i < shallow})
    if rest:
        raise InternalInconsistencyError(
            f"no representative at word length >= {s}, the depth of its own "
            "normal form"
        )
    for j, x in sol.items():
        for i, y in boundaries.columns[j].items():
            c = zvec.get(i, 0) - x * y
            if c:
                zvec[i] = c
            else:
                del zvec[i]
    return s, element_from_vector(z.algebra, bn, zvec)


def toomer_oracle(model: SullivanModel) -> ToomerResult:
    """e0 by direct linear algebra: the deepest word-length filtration stage
    that still contains a representative of the fundamental class.

    The fundamental cocycle is reduced modulo the boundaries of top degree,
    whose factorization :func:`cohomology_basis` already built; the lowest word
    length left is e0, and one membership solve there gives the witness
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
