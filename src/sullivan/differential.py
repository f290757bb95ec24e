"""Differentials on free graded-commutative algebras.

A differential is a degree +1 derivation d with d^2 = 0 determined by its
values on generators; ``d^2 = 0`` only needs to be checked there because
``d o d`` is again a derivation.  Minimality means every generator image
lies in word length >= 2.

``k`` denotes the lowest word length appearing in any generator image, i.e.
the first potentially nonzero component in d = d_k + d_{k+1} + ...; for the
zero differential there is no such component and ``k`` is None.

A derivation is applied to a monomial directly on exponent tuples
(:meth:`Derivation.add_image`).  Each Leibniz summand
sign * e_i * left * d(g_i) * right goes term by term into one
``{monomial: coefficient}`` dict: a term t of d(g_i) adds its exponents to
those of the rest of the monomial, its sign is the Koszul sign of moving t
into place, and a term that repeats an odd factor drops out.  No
``Element`` product is formed and nothing is kept per monomial.  The
matrices of d, d3, d4 and delta are written column by column this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .algebra import Algebra, Element, Generator, Monomial, format_element, koszul_sign
from .errors import ModelError, quoted


class Derivation:
    """An odd-degree derivation given by generator images (not validated)."""

    def __init__(self, algebra: Algebra, images: Mapping[int, Element]):
        self.algebra = algebra
        self.images: Dict[int, Element] = {
            i: img for i, img in images.items() if not img.is_zero
        }
        # the terms of each image, each flagged when it has an odd factor
        odd = algebra.odd_indices
        self._terms: Dict[int, List[Tuple[Monomial, Fraction, bool]]] = {
            i: [(t, a, any(t[j] for j in odd)) for t, a in img.terms.items()]
            for i, img in self.images.items()
        }

    def image_of(self, gen: Union[Generator, str]) -> Element:
        if isinstance(gen, str):
            gen = self.algebra.generator(gen)
        return self.images.get(gen.index, self.algebra.zero())

    @property
    def is_zero(self) -> bool:
        return not self.images

    def __call__(self, e: Element) -> Element:
        """Apply the derivation via the Leibniz rule, term by term."""
        return _apply(self.algebra, self.add_image, e)

    def add_image(self, mono: Monomial, coeff, out: Dict[Monomial, Fraction]) -> None:
        """Add ``coeff * d(mono)`` into the dict ``out``; terms that cancel
        are left in with coefficient zero.

        With mono = L g_i^e R, where L and R are the factors before and after
        g_i, the Leibniz summand of g_i is (-1)^{|L|} e * left * d(g_i) * right
        with left = L g_i^(e-1) and right = R.  Each term t of d(g_i) enters
        by adding exponents, with the Koszul signs of left * t and t * right;
        a term sharing an odd factor with left or right drops out.
        """
        alg = self.algebra
        n = alg.ngens
        prefix_degree = 0
        for i, e in enumerate(mono):
            if not e:
                continue
            terms = self._terms.get(i)
            if terms is not None:
                c = -coeff * e if prefix_degree % 2 else coeff * e
                rest = mono[:i] + (e - 1,) + mono[i + 1:]
                for t, a, has_odd in terms:
                    f = c
                    if has_odd:
                        left = rest[: i + 1] + (0,) * (n - i - 1)
                        right = (0,) * (i + 1) + rest[i + 1:]
                        sign = koszul_sign(alg, left, t) * koszul_sign(alg, t, right)
                        if not sign:
                            continue
                        f = c * sign
                    v = a if f == 1 else a * f
                    m = tuple(map(add, rest, t))
                    prev = out.get(m)
                    out[m] = v if prev is None else prev + v
            prefix_degree += e * alg.degrees[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    __hash__ = None


def _apply(algebra: Algebra, add_image, e: Element) -> Element:
    """The map whose value on a monomial ``add_image`` adds into a dict,
    applied to e term by term."""
    if e.algebra != algebra:
        raise ValueError("element does not live in this derivation's algebra")
    out: Dict[Monomial, Fraction] = {}
    for mono, coeff in e.terms.items():
        add_image(mono, coeff, out)
    return Element(algebra, out)


def build_differential(
    algebra: Algebra, images: Mapping[Union[str, Generator], Element]
) -> Derivation:
    """Validate generator images and assemble a differential.

    Checks, in order: every key names a generator of the algebra; every image
    is degree-homogeneous of degree |g| + 1; no image has a word-length 0 or 1
    component (minimality); and d(d(g)) = 0 for every generator.
    """
    by_index: Dict[int, Element] = {}
    for key, img in images.items():
        gen = algebra.generator(key) if isinstance(key, str) else key
        if isinstance(key, Generator) and algebra.generators[key.index] != key:
            raise ModelError(
                f"generator {quoted(key.name)} does not belong to the algebra"
            )
        if gen.index in by_index:
            raise ModelError(f"two images given for generator {quoted(gen.name)}")
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
                f"image of {quoted(gen.name)} has degree {deg}, "
                f"expected {gen.degree + 1}"
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
        sq = d(d.image_of(g))
        if not sq.is_zero:
            raise ModelError(
                f"d^2 != 0 on generator {quoted(g.name)}: d(d({g.name})) = "
                f"{format_element(sq)}"
            )
    return d


def homogeneous_component(d: Derivation, i: int) -> Derivation:
    """The derivation d_i whose generator images are the word-length-i parts."""
    if i < 0:
        raise ValueError("word length must be nonnegative")
    images = {}
    for idx, img in d.images.items():
        comp = img.wordlength_component(i)
        if not comp.is_zero:
            images[idx] = comp
    return Derivation(d.algebra, images)


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


@dataclass(eq=False)
class SullivanModel:
    """A free minimal algebra together with a validated differential.

    ``k`` is None exactly when the differential is zero.  The ``_cache``
    dictionary memoizes degreewise computations (bases, cochain maps,
    cohomology); entries are write-once.
    """

    algebra: Algebra
    differential: Derivation
    k: Optional[int]
    _cache: dict = field(default_factory=dict, repr=False)

    def d(self, e: Element) -> Element:
        return self.differential(e)

    def component(self, i: int) -> Derivation:
        return _cached(
            self, ("component", i), lambda: homogeneous_component(self.differential, i)
        )

    @property
    def d3(self) -> Derivation:
        return self.component(3)

    @property
    def d4(self) -> Derivation:
        return self.component(4)

    def delta(self, e: Element) -> Element:
        """The page-one differential of the word-length spectral sequence
        for k = 3 on a plain element: d3 everywhere plus d4 on even word
        lengths."""
        return _apply(self.algebra, self.add_delta_image, e)

    def add_delta_image(
        self, mono: Monomial, coeff, out: Dict[Monomial, Fraction]
    ) -> None:
        """Add ``coeff * delta(mono)`` into ``out``: d3 of mono, and its d4
        when its word length is even (see :meth:`Derivation.add_image`)."""
        self.d3.add_image(mono, coeff, out)
        if sum(mono) % 2 == 0:
            self.d4.add_image(mono, coeff, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SullivanModel)
            and self.algebra == other.algebra
            and self.differential == other.differential
        )

    __hash__ = None


def build_model(algebra: Algebra, differential: Derivation) -> SullivanModel:
    if differential.algebra != algebra:
        raise ModelError("differential belongs to a different algebra")
    return SullivanModel(algebra, differential, detect_k(differential))


def is_pure(model: SullivanModel) -> bool:
    """Pure: d vanishes on even generators and sends odd ones into the even
    subalgebra."""
    alg = model.algebra
    for g in alg.generators:
        img = model.differential.image_of(g)
        if img.is_zero:
            continue
        if not g.is_odd:
            return False
        for mono in img.terms:
            if any(mono[i] for i in alg.odd_indices):
                return False
    return True


def pure_projection(model: SullivanModel) -> SullivanModel:
    """The associated pure model: keep only the even-subalgebra part of d(odd).

    Even generators are sent to zero; the image of an odd generator keeps the
    monomials built entirely from even generators.  The result is pure, and
    the construction is idempotent.
    """
    alg = model.algebra
    images: Dict[str, Element] = {}
    for g in alg.generators:
        if not g.is_odd:
            continue
        img = model.differential.image_of(g)
        if img.is_zero:
            continue
        kept = {
            mono: c
            for mono, c in img.terms.items()
            if not any(mono[i] for i in alg.odd_indices)
        }
        if kept:
            images[g.name] = Element(alg, kept)
    sigma = build_differential(alg, images)  # also certifies d_sigma^2 = 0
    return build_model(alg, sigma)
