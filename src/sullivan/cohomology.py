"""Degreewise cohomology and the invariants built directly on top of it.

Everything is computed one degree at a time with exact rational
arithmetic.  The pieces provided here:

* cochain maps and cohomology bases, each basis the cocycles of the one
  factorization with unit coordinates out of its degree that extend the
  echelon of the boundaries, eliminated without them, through cached
  helpers that serve d and the page-one differential delta alike,
* cohomology dimensions from two ranks, dim H^n = |B_n| - rank d_n -
  rank d_{n-1}, with no representatives built, each rank taken on keys
  off the pivots of the boundaries below it, and their duality check,
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
  below it solve for, read off the one echelon of the boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, le, mul, neg, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Element, Monomial, basis_keys, count_degree
from .differential import SullivanModel, _cached, _exact, is_pure, pure_projection
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
    """The Toomer invariant with a witness cocycle, for either method:
    ``representative`` is a non-bounding cocycle of top degree whose terms all
    have word length >= e0.  The spectral witness, a surviving delta-class at
    filtration p = e0 // 2 with e0 = 2p or 2p + 1, is read off e0."""

    e0: int
    representative: Element


def cochain_maps(model: SullivanModel, n: int) -> Tuple[RationalMatrix, RationalMatrix]:
    """Matrices of d out of degree n and into degree n.

    Returns ``(outgoing, incoming)`` where ``outgoing`` maps degree-n
    coordinates to degree-(n+1) coordinates and ``incoming`` maps degree-(n-1)
    coordinates to degree-n coordinates.  Rows and columns are positions in
    the graded-lex monomial bases, to which the keys of d's columns are
    mapped here, as in ``spectral.delta_matrix``: the engine's one other
    positional matrix.
    """
    matrices = []
    for m in (n, n - 1):
        dst = basis_keys(model.algebra, m + 1)
        row = {k: i for i, k in enumerate(dst)}
        columns = [{row[k]: x for k, x in c.items()} for c in _columns(model, "d", m)]
        matrices.append(RationalMatrix.from_columns(columns, len(dst)))
    return tuple(matrices)


def _images(model: SullivanModel, src: List[int]) -> List[Vector]:
    """Columns of d on the monomials of src, keys of one degree n: the value
    of d on each, on the keys of degree n + 1, in one Leibniz pass that
    writes each term at its key.  No column holds a zero: Leibniz summands
    (m / g_i) t and (m / g_j) s of m, t in d(g_i) and s in d(g_j), i != j,
    meet only if g_i divides t, and t / g_i would have degree
    |g_i| + 1 - |g_i| = 1, while every generator has degree >= 2."""
    columns = [{} for _ in src]
    model.differential.leibniz(src, repeat(1), columns)
    return columns


def _bound(model: SullivanModel, n: int) -> int:
    """One past the greatest key of degree n: the coordinates of the
    degree-n vectors of the engine lie below it."""
    keys = basis_keys(model.algebra, n)
    return keys[-1] + 1 if keys else 0


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


def _columns(model: SullivanModel, which: str, n: int) -> List[Vector]:
    """The columns of ``which`` out of degree n, on the keys of degree n + 1:
    d's assembled once and cached, delta's cut from them, column m keeping
    its rows in the slot :func:`_delta_slot` maps m's into (a key's word
    length, halved)."""
    src = basis_keys(model.algebra, n)
    columns = _cached(model, ("d", "columns", n), lambda: _images(model, src))
    if which == "delta":
        shift = model.algebra._shift + 1
        ups = [_delta_slot(k >> shift) for k in src]
        columns = [
            {k: x for k, x in col.items() if k >> shift == up} for col, up in zip(columns, ups)
        ]
    return columns


def _factor(model: SullivanModel, which: str, n: int) -> ColumnFactorization:
    """``which`` out of degree n, eliminated once with unit coordinates for
    the readers of a kernel or a solve: the cocycles of :func:`_cohomology`
    and the solve of ``spectral.lift_to_d_cocycle``, both on degree-n keys."""

    def produce():
        src = basis_keys(model.algebra, n)
        return ColumnFactorization._of(_columns(model, which, n), _bound(model, n + 1), src)

    return _cached(model, (which, "factor", n), produce)


def _boundaries(model: SullivanModel, which: str, n: int) -> RowSpace:
    """The degree-n boundaries of ``which``, the unreduced echelon of its map
    out of degree n - 1: read off that map's cached factorization, or else
    eliminated once with no unit coordinates.  No reader changes a row."""

    def produce():
        factor = model._cache.get((which, "factor", n - 1))
        if factor is not None:
            return factor._image()
        space = RowSpace(_bound(model, n))
        space._extend(map(dict, _columns(model, which, n - 1)), space.ncols)
        return space

    return _cached(model, (which, "boundaries", n), produce)


def _cohomology(model: SullivanModel, which: str, n: int) -> List[Element]:
    """Representatives of the degree-n cohomology of ``which``: the kernel
    vectors that extend the boundary echelon, rows shared, to a basis."""

    def produce():
        cocycles = _factor(model, which, n).kernel
        space = RowSpace(_bound(model, n))
        space._rows.update(_boundaries(model, which, n)._rows)
        dim = len(cocycles) - space.rank
        reps = [Element._of(model.algebra, dict(z)) for z in cocycles if space._add(dict(z))]
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
    """The rank of d out of degree n: read off the cached factorization out
    of n or boundaries of degree n + 1, or else eliminated once as a plain
    row space of the image columns, and cached.  B_n is im d_{n-1} plus the
    unit vectors off its pivot columns P, and d vanishes on im d_{n-1}, so
    only the columns off P are built, by :func:`_images`, P the last rank's
    or else empty: the row space and P are on the keys of degree n + 1.  A
    P serves the next rank only, so it is dropped when any rank is taken."""
    cache = model._cache

    def produce():
        last, pivots = cache.pop(("d", "pivots"), (None, ()))
        factor = cache.get(("d", "factor", n))
        if factor is not None:
            return len(factor.columns) - len(factor.kernel)
        boundaries = cache.get(("d", "boundaries", n + 1))
        if boundaries is not None:
            return boundaries.rank
        pivots = pivots if last == n - 1 else ()
        off = [m for m in basis_keys(model.algebra, n) if m not in pivots]
        space = RowSpace(_bound(model, n + 1))
        for column in _images(model, off):
            space._add(column)
        cache[("d", "pivots")] = (n, frozenset(space._pivots))
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
    if e.algebra != model.algebra:
        raise ValueError("element lives in a different algebra")
    if e.is_zero:
        return True
    return not _boundaries(model, "d", e.degree())._reduce(dict(e.keyed))


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
    n_formal = formal_dimension(model)
    max_degree = max(model.algebra.degrees, default=1)
    if bound is None:
        bound = max(2 * max(n_formal, 0) + max_degree, n_formal + 1, 4)
    if bound < 0:
        raise ValueError("scan bound must be nonnegative")

    # the quotient is cached on the model, so every scan shares its
    # dimensions; ``qdims`` records only the degrees this scan looked at
    quotient = _cached(
        model, ("pure_quotient",), lambda: _PureQuotient(*_pure_ideal(model))
    )
    width = max(quotient.weights, default=1)
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
    derivation holds it.  A pure model's own images are its pure images, so
    only a model that is not pure builds its :func:`pure_projection`."""
    alg = model.algebra
    sigma = (model if is_pure(model) else pure_projection(model)).differential
    ideal = [
        {tuple(m[j] for j in alg.even_indices): _exact(c) for m, c in img.terms.items()}
        for _, img in sorted(sigma.images.items())
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

    The vectors are on the degree-n keys, which sort by word length first,
    and the boundaries are the echelon of :func:`_boundaries`.  Each row of
    the echelon is zero left of its pivot, so reducing z modulo
    the boundaries subtracts only rows pivoted at word length >= s from any
    z in Lambda^{>=s}V: the lowest word length of the normal form is
    therefore exactly the greatest s.

    The witness is z reduced only at the pivots below ``shallow``, the
    least key of word length s: z - M x, M the columns of ``which``, zero
    below ``shallow`` as the normal form is.  It is the membership solve of z
    against the unit vectors of word length >= s and then M (free variables
    0), by a lemma: a column is stored reduced only up to its lead, so by
    induction over the columns the stored rows with leads below ``shallow``,
    cut there, are those of the factorization of M cut below ``shallow``.

    Returns None when z is a boundary.
    """
    boundaries, shift = _boundaries(model, which, n), model.algebra._shift
    normal = boundaries._reduce(dict(z.keyed))
    if not normal:
        return None
    s = min(normal) >> shift
    shallow = s << shift
    witness = boundaries._reduce(dict(z.keyed), shallow)
    if min(witness) < shallow:
        raise InternalInconsistencyError(
            f"no representative at word length >= {s}, the depth of its own "
            "normal form"
        )
    return s, Element._of(z.algebra, witness)


def toomer_oracle(model: SullivanModel) -> ToomerResult:
    """e0 by direct linear algebra: the deepest word-length filtration stage
    that still contains a representative of the fundamental class.

    The fundamental cocycle is reduced modulo the boundaries of top degree,
    whose echelon :func:`cohomology_basis` already built; the lowest word
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
