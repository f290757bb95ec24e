"""Differentials on free graded-commutative algebras.

A differential is a degree +1 derivation d with d^2 = 0 determined by its
values on generators; ``d^2 = 0`` only needs to be checked there because
``d o d`` is again a derivation.  Minimality means every generator image
lies in word length >= 2.

``k`` denotes the lowest word length appearing in any generator image, i.e.
the first potentially nonzero component in d = d_k + d_{k+1} + ...; for the
zero differential there is no such component and ``k`` is None.

A derivation is applied by one Leibniz pass over a list of keys
(:meth:`Derivation.leibniz`): an ``Element``'s keys into one dict, and a
degree basis into one column per key, each term at its row, delta's columns
being cut from d's (``cohomology._delta_slot``).  Each summand
sign * e_i * left * d(g_i) * right goes term by term into the key's dict, a
term t of d(g_i) at key(m) - key(g_i) + key(t), its sign the parity of m's
odd factors in a mask fixed per term from the Koszul rule of products, and
a term that repeats an odd factor drops out.  A basis key's d stays inside
the key's fields, every degree being at most ``MAX_DEGREE`` + 1; d of an
``Element`` is checked, like a product, for an exponent past its field.
An integer coefficient of a generator image is kept as an ``int``, so a
model with integer coefficients has matrices of ``int`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Dict, Mapping, Optional

from .algebra import Algebra, Coefficient, Element, format_element, koszul_mask
from .errors import ModelError, clipped, quoted


def _exact(a) -> Coefficient:
    """The coefficient a as an ``int`` when it is an integer, else a ``Fraction``."""
    a = Fraction(a)
    return a.numerator if a.denominator == 1 else a


class Derivation:
    """An odd-degree derivation given by generator images (not validated).

    ``images`` are kept as given; the rule that :meth:`leibniz` reads holds
    each integer coefficient as an ``int``.
    """

    def __init__(self, algebra: Algebra, images: Mapping[int, Element]):
        self.algebra = algebra
        self.images: Dict[int, Element] = {
            i: img for i, img in images.items() if not img.is_zero
        }
        # per g_i: its field's offset and mask, and per term t of d(g_i):
        # key(t) - key(g_i), the coefficient, t's odd factors but g_i, and the
        # odd fields but g_i's whose factors in m flip t's sign: those before
        # g_i, for (-1)^|L|, those below an odd number of t's odd factors, for
        # left * t, and those after g_i if t has an odd number, for t * right
        odd, self._rule = algebra._odd, []
        for i in sorted(self.images):
            off, mask, unit = algebra._offsets[i], algebra._masks[i], algebra._unit(i)
            before, after = odd & -(mask + 1 << off), odd & (1 << off) - 1
            terms = []
            for key, a in self.images[i].keyed.items():
                part = key & odd
                sign = koszul_mask(part, odd) & ~unit ^ before
                if part.bit_count() & 1:
                    sign ^= after
                terms.append((key - unit, _exact(a), part & ~unit, sign))
            self._rule.append((off, mask, terms))

    def image_of(self, name: str) -> Element:
        """d of the generator named ``name``, by :meth:`Algebra.generator`."""
        return self.images.get(self.algebra.generator(name).index, self.algebra.zero())

    @property
    def is_zero(self) -> bool:
        return not self.images

    def __call__(self, e: Element) -> Element:
        """Apply the derivation via the Leibniz rule, term by term;
        PreconditionError for an exponent past its field's limit."""
        if e.algebra != self.algebra:
            raise ValueError("element does not live in this derivation's algebra")
        out: Dict[int, Coefficient] = {}
        self.leibniz(e.keyed, e.keyed.values(), repeat(out))
        return self.algebra._fit(Element._of(self.algebra, out))

    def leibniz(self, keys, coeffs, outs, index=None) -> None:
        """One Leibniz pass over ``keys``, with ``coeffs`` and ``outs`` in step:
        coeff * d(m) is added into out, m the monomial of key, each term at
        its own key, or at ``index`` of it if given; cancelled terms stay.

        With m = L g_i^e R, where L and R are the factors before and after
        g_i, the Leibniz summand of g_i is (-1)^{|L|} e * left * d(g_i) * right
        with left = L g_i^(e-1) and right = R: a term t of d(g_i) enters at
        key(m) - key(g_i) + key(t), its sign the parity of m's odd factors in
        the fields the rule marks, unless it shares an odd factor with m.
        """
        for key, coeff, out in zip(keys, coeffs, outs):
            for off, mask, terms in self._rule:
                e = key >> off & mask
                if not e:
                    continue
                f = coeff * e
                for t, a, odd, sign in terms:
                    if key & odd:
                        continue
                    v = a if f == 1 else a * f
                    m = key + t if index is None else index[key + t]
                    prev = out.get(m, 0)
                    out[m] = prev - v if (key & sign).bit_count() & 1 else prev + v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    __hash__ = None


def build_differential(algebra: Algebra, images: Mapping[str, Element]) -> Derivation:
    """Validate generator images, keyed by name, and assemble a differential.

    Checks, in order: every key names a generator of the algebra; every image
    is degree-homogeneous of degree |g| + 1; no image has a word-length 0 or 1
    component (minimality); and d(d(g)) = 0 for every generator.
    """
    by_index: Dict[int, Element] = {}
    for name, img in images.items():
        gen = algebra.generator(name)
        if img.algebra != algebra:
            raise ModelError(
                f"image of {quoted(gen.name)} lives in a different algebra"
            )
        if img.is_zero:
            continue
        try:
            deg = img.degree()
        except ValueError:
            raise ModelError(
                f"image of {quoted(gen.name)} is not degree-homogeneous"
            ) from None
        if deg != gen.degree + 1:
            raise ModelError(
                f"image of {quoted(gen.name)} has degree {clipped(deg)}, "
                f"expected {clipped(gen.degree + 1)}"
            )
        wl = img.min_wordlength()
        if wl is not None and wl < 2:
            raise ModelError(
                f"image of {quoted(gen.name)} has a word-length {wl} term; "
                "minimality requires word length >= 2"
            )
        by_index[gen.index] = img
    d = Derivation(algebra, by_index)
    for g in algebra.generators:
        sq = d(d.image_of(g.name))
        if not sq.is_zero:
            raise ModelError(
                f"d^2 != 0 on generator {quoted(g.name)}: d(d({clipped(g.name)})) = "
                f"{clipped(format_element(sq))}"
            )
    return d


def detect_k(d: Derivation) -> Optional[int]:
    """Smallest word length occurring in any generator image; None if d = 0."""
    wls = [
        s for img in d.images.values() for s in (img.min_wordlength(),) if s is not None
    ]
    return min(wls) if wls else None


def _cached(model: SullivanModel, key, producer):
    """``model._cache[key]``, computed by ``producer()`` on first use."""
    if key not in model._cache:
        model._cache[key] = producer()
    return model._cache[key]


class SullivanModel:
    """A free minimal algebra together with a validated differential.

    ``k`` is None exactly when the differential is zero.  The ``_cache``
    dictionary memoizes results derived from the model (factorizations,
    ranks and classes of d and delta, the pure projection, the Groebner
    basis of the pure quotient, the ellipticity scan, the oracle, the
    coefficient matrix, the selftest's pair slots); entries are write-once,
    but for the one slot of the last d-rank's pivot columns,
    ``("d", "pivots")``: (degree, frozenset).  Models compare by algebra
    and differential, and are unhashable.
    """

    __slots__ = ("algebra", "differential", "k", "_cache")

    def __init__(self, algebra: Algebra, differential: Derivation, k: Optional[int]):
        self.algebra, self.differential, self.k = algebra, differential, k
        self._cache: dict = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SullivanModel)
            and self.algebra == other.algebra
            and self.differential == other.differential
        )

    __hash__ = None

    def d(self, e: Element) -> Element:
        return self.differential(e)


def build_model(algebra: Algebra, differential: Derivation) -> SullivanModel:
    if differential.algebra != algebra:
        raise ModelError("differential belongs to a different algebra")
    return SullivanModel(algebra, differential, detect_k(differential))


def is_pure(model: SullivanModel) -> bool:
    """Pure (Felix-Halperin-Thomas, GTM 205, section 32): d equals its
    :func:`pure_projection`, so it vanishes on even generators and sends odd
    ones into the even subalgebra."""
    return pure_projection(model).differential.images == model.differential.images


def pure_projection(model: SullivanModel) -> SullivanModel:
    """The associated pure model: keep only the even-subalgebra part of d(odd).

    Even generators are sent to zero; the image of an odd generator keeps the
    monomials built entirely from even generators.  The result is pure, and
    the construction is idempotent.  It is built once per model and kept in
    the model's cache, where :func:`is_pure`, the ellipticity scan and the
    coefficient matrix read it.
    """

    def produce():
        alg = model.algebra
        images: Dict[str, Element] = {}
        for g in alg.generators:
            if not g.is_odd:
                continue
            kept = {
                k: c
                for k, c in model.differential.image_of(g.name).keyed.items()
                if not k & alg._odd
            }
            if kept:
                images[g.name] = Element._of(alg, kept)
        sigma = build_differential(alg, images)  # also certifies d_sigma^2 = 0
        return build_model(alg, sigma)

    return _cached(model, ("pure_projection",), produce)
