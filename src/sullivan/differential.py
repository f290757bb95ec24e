"""Differentials on free graded-commutative algebras.

A differential is a degree +1 derivation d with d^2 = 0 determined by its
values on generators; ``d^2 = 0`` only needs to be checked there because
``d o d`` is again a derivation.  Minimality means every generator image
lies in word length >= 2.

``k`` denotes the lowest word length appearing in any generator image, i.e.
the first potentially nonzero component in d = d_k + d_{k+1} + ...; for the
zero differential there is no such component and ``k`` is None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .algebra import Algebra, Element, Generator, format_element
from .errors import ModelError


class Derivation:
    """A degree +1 derivation given by generator images (not validated)."""

    def __init__(self, algebra: Algebra, images: Mapping[int, Element]):
        self.algebra = algebra
        self.images: Dict[int, Element] = {
            i: img for i, img in images.items() if not img.is_zero
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
        if e.algebra != self.algebra:
            raise ValueError("element does not live in this derivation's algebra")
        alg = self.algebra
        out = alg.zero()
        for mono, coeff in e.terms.items():
            prefix_degree = 0
            for i, exp in enumerate(mono):
                if exp:
                    img = self.images.get(i)
                    if img is not None:
                        out = out + self._block_term(mono, coeff, i, prefix_degree, img)
                    prefix_degree += exp * alg.degrees[i]
        return out

    def _block_term(
        self, mono, coeff: Fraction, i: int, prefix_degree: int, img: Element
    ) -> Element:
        """One Leibniz summand: sign * prefix * (e_i g_i^{e_i-1} d g_i) * suffix."""
        alg = self.algebra
        n = alg.ngens
        exp = mono[i]
        left = tuple(
            (mono[j] if j < i else (exp - 1 if j == i else 0)) for j in range(n)
        )
        right = tuple((mono[j] if j > i else 0) for j in range(n))
        c = coeff * exp
        if prefix_degree % 2:
            c = -c
        term = Element.from_monomial(alg, left, c)
        term = term * img
        if any(right):
            term = term * Element.from_monomial(alg, right)
        return term

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    __hash__ = None


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
            raise ModelError(f"generator {key.name!r} does not belong to the algebra")
        if gen.index in by_index:
            raise ModelError(f"two images given for generator {gen.name!r}")
        if img.algebra != algebra:
            raise ModelError(f"image of {gen.name!r} lives in a different algebra")
        if img.is_zero:
            continue
        try:
            deg = img.degree()
        except ValueError:
            raise ModelError(
                f"image of {gen.name!r} is not degree-homogeneous"
            ) from None
        if deg != gen.degree + 1:
            raise ModelError(
                f"image of {gen.name!r} has degree {deg}, expected {gen.degree + 1}"
            )
        wl = img.min_wordlength()
        if wl is not None and wl < 2:
            raise ModelError(
                f"image of {gen.name!r} has a word-length {wl} term; "
                "minimality requires word length >= 2"
            )
        by_index[gen.index] = img
    d = Derivation(algebra, by_index)
    for g in algebra.generators:
        sq = d(d.image_of(g))
        if not sq.is_zero:
            raise ModelError(
                f"d^2 != 0 on generator {g.name!r}: d(d({g.name})) = "
                f"{format_element(sq)}"
            )
    return d


def apply_d(d: Derivation, e: Element) -> Element:
    return d(e)


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
