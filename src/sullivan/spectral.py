"""The word-length spectral sequence and the cocycle lifting algorithm.

Filtering Lambda V by word length, F^p = Lambda^{>=(k-1)p} V, the first page
for k = 3 sits on pairs: E_1^{p,q} is the degree-(p+q) part of
Lambda^{2p} V + Lambda^{2p+1} V, with differential

    delta(u, v) = (d_3 u, d_3 v + d_4 u)

and product (u, v)(u', v') = (uu', uv' + vu').  That is the part of d one
pair slot above its source, by the one rule of delta that cuts the matrices
too (``cohomology._delta_slot``).  For k = 4 the stages are word-length
triples and these pairs are not E_1, so every pair entry point checks k = 3
first (``PreconditionError`` otherwise).
A delta-class is handled as its representative ``FilteredPair``, which
carries its filtration p and degree n.

``lift_to_d_cocycle`` turns a delta-cocycle of top degree into an honest
d-cocycle when possible: the lowest pair component of d(w) is always a
delta-cocycle one filtration step up, and if it is a delta-boundary the
preimage is subtracted from w, strictly raising the obstruction filtration.
A class whose obstruction is not a boundary dies; a lift whose final cocycle
bounds has collapsed.  ``spectral_run`` records one ``LiftTrace`` per class
of top degree, and the trace is the whole record: it holds the class's
filtration p and, in its starting representative, the class's depth.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from .algebra import (
    Element,
    Monomial,
    basis,
    basis_keys,
    coefficient_vector,
    element_from_vector,
)
from .cohomology import (
    ToomerResult,
    _cohomology,
    _deepest_representative,
    _delta_slot,
    _factor,
    _images,
    formal_dimension,
    is_boundary,
    require_elliptic,
    toomer_oracle,
)
from .differential import SullivanModel
from .errors import InternalInconsistencyError, PreconditionError
from .linalg import RationalMatrix


def _require_delta(model: SullivanModel) -> None:
    if model.k != 3:
        raise PreconditionError(
            "the word-length pairs of the spectral method require k = 3, "
            f"found k = {model.k}"
        )


class FilteredPair:
    """An element of E_1^{p, n-p} for k = 3: u in Lambda^{2p}, v in
    Lambda^{2p+1}, both degree-homogeneous of total degree n.  Pairs
    compare by all five fields, and are unhashable."""

    __slots__ = ("model", "p", "n", "u", "v")

    def __init__(self, model: SullivanModel, p: int, n: int, u: Element, v: Element):
        _require_delta(model)
        if p < 0:
            raise ValueError("filtration index must be nonnegative")
        for name, part, want_wl in (("u", u, 2 * p), ("v", v, 2 * p + 1)):
            if part.algebra != model.algebra:
                raise ValueError(f"component {name} lives in a different algebra")
            if part.is_zero:
                continue
            wls = part.wordlengths()
            if wls != (want_wl,):
                raise ValueError(
                    f"component {name} must have word length exactly {want_wl}, "
                    f"found {wls}"
                )
            if part.degree() != n:
                raise ValueError(f"component {name} has degree {part.degree()}, expected {n}")
        self.model, self.p, self.n, self.u, self.v = model, p, n, u, v

    def __eq__(self, other) -> bool:
        return isinstance(other, FilteredPair) and (
            (self.model, self.p, self.n, self.u, self.v)
            == (other.model, other.p, other.n, other.u, other.v)
        )

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero

    def as_element(self) -> Element:
        return self.u + self.v

    def __add__(self, other: "FilteredPair") -> "FilteredPair":
        if (self.model, self.p, self.n) != (other.model, other.p, other.n):
            raise ValueError("pairs live on different bigraded slots")
        return FilteredPair(self.model, self.p, self.n, self.u + other.u, self.v + other.v)

    @classmethod
    def slot(cls, model: SullivanModel, p: int, n: int, e: Element) -> "FilteredPair":
        """The (p, n) pair of e: its word-length 2p and 2p + 1 parts."""
        part = e.wordlength_component
        return cls(model, p, n, part(2 * p), part(2 * p + 1))


def pair_product(a: FilteredPair, b: FilteredPair) -> FilteredPair:
    """(u, v)(u', v') = (uu', uv' + vu') at filtration p + p'."""
    if a.model != b.model:
        raise ValueError("pairs belong to different models")
    return FilteredPair(
        a.model,
        a.p + b.p,
        a.n + b.n,
        a.u * b.u,
        a.u * b.v + a.v * b.u,
    )


def delta_apply(pair: FilteredPair) -> FilteredPair:
    """(u, v) -> (d_3 u, d_3 v + d_4 u): the part of d(u + v) in the slot
    the one rule of delta maps the pair's into, (p + 1, n + 1)."""
    model = pair.model
    image = model.d(pair.as_element())
    return FilteredPair.slot(model, _delta_slot(pair.p), pair.n + 1, image)


def pair_basis(model: SullivanModel, p: int, n: int) -> Tuple[List[Monomial], List[Monomial]]:
    """Monomial bases of the two slots of E_1^{p, n-p}."""
    _require_delta(model)
    alg = model.algebra
    return (
        basis(alg, n, wordlength_exact=2 * p),
        basis(alg, n, wordlength_exact=2 * p + 1),
    )


def delta_matrix(model: SullivanModel, p: int, n: int) -> RationalMatrix:
    """Matrix of delta from the (p, n) pair slot to the (p+1, n+1) slot, in
    coordinates that list the u slot, then the v slot.  It is one diagonal
    block of the whole-degree matrix the engine solves with: d's columns
    cut by the one rule of delta."""
    src = [model.algebra.encode(m) for m in sum(pair_basis(model, p, n), [])]
    dst = basis_keys(model.algebra, n + 1)
    q, shift = _delta_slot(p), model.algebra._shift
    first, end = (bisect_left(dst, w << shift) for w in (2 * q, 2 * q + 2))
    columns = [
        {i - first: x for i, x in col.items() if first <= i < end}
        for col in _images(model, src, dst)
    ]
    return RationalMatrix.from_columns(columns, end - first)


def delta_cohomology(model: SullivanModel, n: int) -> List[FilteredPair]:
    """Representatives of a basis of H^n(Lambda V, delta), one pair each.

    Solved once over the whole degree basis, which is the concatenation of
    the pair slots (p, n) in order; delta maps slot (p, n) into slot
    (p + 1, n + 1), so its matrix is the block sum of the slot matrices and
    each representative, exactly as in ordinary cohomology, is the per-slot
    one.  A class sits at p = its lowest word length // 2.
    """
    _require_delta(model)
    classes: List[FilteredPair] = []
    for e in _cohomology(model, "delta", n):
        p = e.min_wordlength() // 2
        rep = FilteredPair.slot(model, p, n, e)
        if rep.as_element() != e:
            raise InternalInconsistencyError(
                f"delta-class in degree {n} has terms outside its pair slot {p}"
            )
        classes.append(rep)
    return classes


def representative_depth(
    model: SullivanModel, pair: FilteredPair
) -> Tuple[int, Element]:
    """Greatest s such that the class of the delta-cocycle ``pair`` has a
    delta-representative in Lambda^{>=s} V, plus a representative realizing
    it.

    Works on the total delta complex in the class's degree with the depth
    search the Toomer oracle uses for d: the lowest word length of the
    class's normal form modulo the delta-boundary echelon, then the same
    reduction stopped at that word length for the representative.
    """
    z = pair.as_element()
    if z.is_zero:
        raise ValueError("zero class has no depth")
    found = _deepest_representative(model, "delta", pair.n, z)
    if found is None:
        raise ValueError("the given class is a delta-boundary")
    return found


class LiftTrace:
    """Full record of one run of the lifting algorithm.  When it "died",
    ``obstructions[-1]`` is the obstruction that is not a delta-boundary.
    ``outcome`` is "success", "died" or "collapsed"."""

    __slots__ = "start", "p", "l", "t_bound", "outcome", "final", "obstructions", "correctors"

    def __init__(
        self, start: Element, p: int, l: int, t_bound: int, outcome: str, final=None
    ):
        self.start, self.p, self.l, self.t_bound = start, p, l, t_bound
        self.outcome, self.final = outcome, final
        self.obstructions: List[FilteredPair] = []
        self.correctors: List[Element] = []

    @property
    def iterations(self) -> int:
        return len(self.correctors)


def lift_to_d_cocycle(model: SullivanModel, start: Element) -> LiftTrace:
    """Push a delta-cocycle to a d-cocycle by killing obstructions bottom up;
    ``PreconditionError`` unless ``delta_apply`` kills each slot of start.

    Each round takes the lowest nonzero filtration pair of d(w) — always a
    delta-cocycle, by d^2 = 0 and word-length bookkeeping — and solves
    delta(b) = obstruction one filtration step below on the cached factorization
    of delta out of the whole degree; delta is a block sum over the pair slots,
    so with free variables zero it returns the solution on that one slot.
    Subtracting b strictly raises the lowest obstruction, so the loop ends.

    Outcomes: "died" when some obstruction is not a delta-boundary,
    "collapsed" when d(w) reaches zero but w bounds (or started as zero),
    "success" when the final w is a d-cocycle that does not bound.
    """
    _require_delta(model)
    if start.algebra != model.algebra:
        raise ValueError("start element lives in a different algebra")
    if start.is_zero:
        return LiftTrace(
            start=start, p=0, l=0, t_bound=0, outcome="collapsed", final=start
        )
    n, alg = start.degree(), model.algebra
    wls = start.wordlengths()
    p = wls[0] // 2
    l = wls[-1] // 2 - p
    for q in range(p, p + l + 1):
        if not delta_apply(FilteredPair.slot(model, q, n, start)).is_zero:
            raise PreconditionError("start element is not a delta-cocycle")
    t_bound = (n - 4 * p - 4 * l - 1) // 4
    trace = LiftTrace(start=start, p=p, l=l, t_bound=t_bound, outcome="")
    w = start
    last_obstruction_p = None
    # p_obs rises from >= p + 1 and is <= (n + 1) // 4, as every degree is >= 2
    while True:
        dw = model.d(w)
        if dw.is_zero:
            if w.is_zero or is_boundary(model, w):
                trace.outcome = "collapsed"
            else:
                trace.outcome = "success"
            trace.final = w
            return trace
        p_obs = dw.min_wordlength() // 2
        if last_obstruction_p is not None and p_obs <= last_obstruction_p:
            raise InternalInconsistencyError(
                "obstruction filtration failed to increase"
            )
        last_obstruction_p = p_obs
        obstruction = FilteredPair.slot(model, p_obs, n + 1, dw)
        if not delta_apply(obstruction).is_zero:
            raise InternalInconsistencyError(
                "lowest obstruction pair is not a delta-cocycle"
            )
        trace.obstructions.append(obstruction)
        rhs = coefficient_vector(obstruction.as_element(), basis_keys(alg, n + 1))
        rest, sol = _factor(model, "delta", n)._split(rhs)
        if rest:
            trace.outcome = "died"
            return trace
        corrector = element_from_vector(alg, basis_keys(alg, n), sol)
        trace.correctors.append(corrector)
        w = w - corrector


class SpectralRun(NamedTuple):
    """The classes of H^N(delta), the lift of each, in class order, and e0."""

    classes: List[FilteredPair]
    outcomes: List[LiftTrace]
    result: ToomerResult


def spectral_run(model: SullivanModel) -> SpectralRun:
    """Toomer invariant through the spectral sequence, with full records.

    Every class of H^N(delta) is lifted from a depth-maximal representative,
    so a class's depth is the lowest word length of its trace's ``start``
    and its filtration is the trace's ``p``.  Among the lifts that end in a
    d-nontrivial cocycle the maximal depth is e0; the result is
    cross-checked against the direct oracle and any disagreement is a hard
    error.
    """
    require_elliptic(model)
    _require_delta(model)
    n = formal_dimension(model)
    classes = delta_cohomology(model, n)
    outcomes: List[LiftTrace] = []
    for cls in classes:
        _, deep = representative_depth(model, cls)
        depth = deep.min_wordlength()
        if depth not in (2 * cls.p, 2 * cls.p + 1):
            raise InternalInconsistencyError(
                f"class at filtration {cls.p} has depth {depth}; expected "
                f"{2 * cls.p} or {2 * cls.p + 1}"
            )
        trace = lift_to_d_cocycle(model, deep)
        if trace.outcome == "success" and trace.final.min_wordlength() != depth:
            raise InternalInconsistencyError(
                "lift changed the depth of the lowest component"
            )
        outcomes.append(trace)
    winners = [t for t in outcomes if t.outcome == "success"]
    if not winners:
        raise InternalInconsistencyError(
            "no delta-class survives to a d-cocycle; inconsistent with "
            "ellipticity"
        )
    best = max(winners, key=lambda t: t.start.min_wordlength())
    e0 = best.start.min_wordlength()
    oracle = toomer_oracle(model)
    if oracle.e0 != e0:
        raise InternalInconsistencyError(
            f"spectral method found e0 = {e0} but the oracle found {oracle.e0}"
        )
    result = ToomerResult(
        e0=e0,
        representative=best.final,
        witness=(best.p, "even" if e0 == 2 * best.p else "odd"),
    )
    return SpectralRun(classes, outcomes, result)


def toomer_spectral(model: SullivanModel) -> ToomerResult:
    """e0 via delta-cohomology and lifting; cross-checked against the oracle."""
    return spectral_run(model).result
