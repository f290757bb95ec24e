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
``Element`` product is formed.  The matrices of d are written column by
column by the same rule on the integer keys of the degree bases
(:meth:`Derivation.key_image`), and delta's are cut from them
(``cohomology._delta_slot``).  A key's exponent fields are sized for the
bases, up to ``MAX_DEGREE``, while an ``Element``, or a generator image, may
have any degree, so ``Element``s keep the rule on tuples.

A coefficient of a generator image that is an integer is kept as an ``int``
for this, so a model with integer coefficients has matrices of ``int``
entries, and ``int`` arithmetic is exact as well.  The images themselves,
like every ``Element`` a user builds, keep their ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .algebra import Algebra, Element, Generator, Monomial, format_element, koszul_sign
from .errors import ModelError, clipped, quoted


def _exact(a) -> Union[int, Fraction]:
    """The coefficient a as an ``int`` when it is an integer, else a ``Fraction``."""
    a = Fraction(a)
    return a.numerator if a.denominator == 1 else a


class Derivation:
    """An odd-degree derivation given by generator images (not validated).

    ``images`` are kept as given; the terms that :meth:`add_image` and
    :meth:`key_image` read hold each integer coefficient as an ``int``.
    """

    def __init__(self, algebra: Algebra, images: Mapping[int, Element]):
        self.algebra = algebra
        self.images: Dict[int, Element] = {
            i: img for i, img in images.items() if not img.is_zero
        }
        # the terms of each image, an integer coefficient as an int, each
        # flagged when it has an odd factor
        odd = algebra.odd_indices
        self._terms: Dict[int, List[Tuple[Monomial, Union[int, Fraction], bool]]] = {
            i: [(t, _exact(a), any(t[j] for j in odd)) for t, a in img.terms.items()]
            for i, img in self.images.items()
        }
        # the same for key_image, per g_i: its field's offset, and per term t:
        # key(t) - key(g_i), the coefficient, t's odd factors but g_i, and the
        # odd fields whose factors in m flip t's sign: those before g_i, for
        # (-1)^|L|, and for each odd factor y of t those between y and g_i
        alg, width, n = algebra, algebra._width, algebra.ngens

        def between(lo: int, hi: int) -> int:  # the odd fields j, lo < j < hi
            return (1 << width * (n - 1 - lo)) - (1 << width * (n - hi)) & alg._odd

        self._rule = []
        for i in sorted(self._terms):
            unit, terms = 1 << alg._shift | 1 << alg._offsets[i], []
            for t, a, _ in self._terms[i]:
                sign = between(-1, i)
                for y in odd:
                    if t[y] and y != i:
                        sign ^= between(*sorted((y, i)))
                key = alg.encode(t)
                terms.append((key - unit, a, key & alg._odd & ~unit, sign))
            self._rule.append((alg._offsets[i], terms))

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
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in e.terms.items():
            self.add_image(mono, coeff, out)
        return Element(self.algebra, out)

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

    def key_image(self, key: int) -> Dict[int, Union[int, Fraction]]:
        """d(m) as {key: coefficient}, m the monomial of ``key``, by the rule
        of :meth:`add_image` with cancelled terms left in: a term t of d(g_i)
        enters at key(m) - key(g_i) + key(t), its sign the parity of m's odd
        factors in the fields the rule marks, unless it shares one with m."""
        out: Dict[int, Union[int, Fraction]] = {}
        mask = (1 << self.algebra._width) - 1
        for off, terms in self._rule:
            e = key >> off & mask
            if not e:
                continue
            for t, a, odd, sign in terms:
                if key & odd:
                    continue
                v = a if e == 1 else a * e
                m = key + t
                prev = out.get(m, 0)
                out[m] = prev - v if (key & sign).bit_count() & 1 else prev + v
        return out

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
        sq = d(d.image_of(g))
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
                mono: c
                for mono, c in model.differential.image_of(g).terms.items()
                if not any(mono[i] for i in alg.odd_indices)
            }
            if kept:
                images[g.name] = Element(alg, kept)
        sigma = build_differential(alg, images)  # also certifies d_sigma^2 = 0
        return build_model(alg, sigma)

    return _cached(model, ("pure_projection",), produce)
