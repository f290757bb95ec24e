"""Free graded-commutative algebras over Q on a finite list of generators.

A generator of odd degree is exterior (its square is zero), a generator of
even degree is polynomial.  The engine holds a monomial as an integer *key*
(:meth:`Algebra.encode`): its word length in the top bits, then one field
per generator, the first generator's highest.  Key order is graded-lex
order and key(m * g) = key(m) + key(g), so the degree bases are sorted key
lists built by addition, an ``Element`` is a ``{key: coefficient}`` dict, a
product adds keys and takes its Koszul sign from the odd fields by popcount
(:func:`koszul_mask`), and d runs one rule on keys for elements and bases.
The exponent tuple, one entry per generator in declaration order, is the
public view: ``Element(algebra, {tuple: c})``, ``Element.terms``, :func:`basis`.
Coefficients are ``int`` or ``Fraction``, by the rule of matrix entries
(``linalg._coefficient``), and integers stay ``int``.

Every generator must have degree >= 2 (the algebras model simply connected
spaces), so each fixed degree contains only finitely many monomials.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ModelError, ParseError, PreconditionError, clipped, quoted
from .linalg import Coefficient, _coefficient

#: A monomial is an exponent vector, one entry per generator.
Monomial = Tuple[int, ...]


class Generator(NamedTuple):
    name: str
    degree: int
    index: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class Algebra:
    """The free graded-commutative algebra on an ordered list of generators."""

    def __init__(self, generators: Sequence[Generator]):
        self.generators: Tuple[Generator, ...] = tuple(generators)
        self.ngens = len(self.generators)
        self.degrees = tuple(g.degree for g in self.generators)
        self.odd_indices = tuple(g.index for g in self.generators if g.is_odd)
        self.even_indices = tuple(g.index for g in self.generators if not g.is_odd)
        self._by_name = {g.name: g for g in self.generators}
        # the degree bases as sorted keys, filled from degree 0 up, and for each
        # degree and k how many of its monomials have no factor of index >= k
        self._basis_cache: List[List[int]] = []
        self._basis_counts: List[List[int]] = []
        # per generator: the largest exponent its field holds, its mask and its
        # offset.  An odd field is 1 bit; an even g's holds each exponent of
        # degree <= D = max(MAX_DEGREE + 1, top generator degree + 2), so every
        # basis, image and d of one, and a guard bit above, set by a product or
        # d past the limit.  Word length at _shift; key(g) is _unit's
        top = max(MAX_DEGREE + 1, max(self.degrees, default=0) + 2)
        self._limits = tuple(
            1 if d % 2 else (1 << (top // d).bit_length()) - 1 for d in self.degrees
        )
        widths = [m.bit_length() + 1 - d % 2 for m, d in zip(self._limits, self.degrees)]
        self._masks = tuple((1 << w) - 1 for w in widths)
        self._shift = sum(widths)
        self._offsets = tuple(self._shift - w for w in accumulate(widths))
        self._odd = sum(1 << self._offsets[i] for i in self.odd_indices)
        self._guard = sum(self._limits[i] + 1 << self._offsets[i] for i in self.even_indices)
        self._signs: Dict[int, int] = {}  # koszul_mask per odd part, for products
        self._key_degrees: Dict[int, int] = {}
        self._signature = tuple((g.name, g.degree) for g in self.generators)
        self._hash = hash(self._signature)

    def generator(self, name: str) -> Generator:
        if not isinstance(name, str):
            raise ModelError(f"a generator is named by a str, not {clipped(repr(name))}")
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown generator {quoted(name)}") from None

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def encode(self, mono: Monomial) -> int:
        """The key of a monomial: its word length, then its exponents, the first
        generator's highest.  Keys compare as graded-lex order does, and
        key(m * g_i) = key(m) + key(g_i).  ValueError for a tuple that is not
        one exponent per generator, PreconditionError for an exponent outside
        its field."""
        if len(mono) != self.ngens:
            raise ValueError(f"a monomial needs {self.ngens} exponents, not {len(mono)}")
        for i, e in enumerate(mono):
            if not 0 <= e <= self._limits[i]:
                raise PreconditionError(self._exponent_error(i, e))
        return sum(e << off for e, off in zip(mono, self._offsets)) | sum(mono) << self._shift

    def decode(self, key: int) -> Monomial:
        """The monomial of a key: the inverse of :meth:`encode`."""
        return tuple([key >> off & m for off, m in zip(self._offsets, self._masks)])

    def key_degree(self, key: int) -> int:
        """The degree of the monomial of a key, kept once found."""
        degree = self._key_degrees.get(key)
        if degree is None:
            degree = self._key_degrees[key] = self.monomial_degree(self.decode(key))
        return degree

    def _unit(self, i: int) -> int:
        """key(g_i), made when asked: n of them would take O(n^2) bits."""
        return 1 << self._shift | 1 << self._offsets[i]

    def _exponent_error(self, i: int, e: int) -> str:
        return (
            f"{quoted(self.generators[i].name)} has exponent {clipped(e)}, outside "
            f"0..{self._limits[i]}, the exponent limit of this algebra"
        )

    def _fit(self, e: "Element") -> "Element":
        """e, unless one of its keys sets a guard bit: PreconditionError for an
        exponent past its field's limit, which a product or d may reach."""
        if reduce(or_, e.keyed, 0) & self._guard:
            mono = self.decode(next(k for k in e.keyed if k & self._guard))
            i = next(i for i, x in enumerate(mono) if x > self._limits[i])
            raise PreconditionError(self._exponent_error(i, mono[i]))
        return e

    def gen_element(self, name: str) -> "Element":
        return Element._of(self, {self._unit(self.generator(name).index): 1})

    def one(self) -> "Element":
        return Element._of(self, {0: 1})

    def zero(self) -> "Element":
        return Element._of(self, {})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Algebra) and self._signature == other._signature

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Algebra({gens})"


def build_algebra(specs: Iterable[Tuple[str, int]]) -> Algebra:
    """Create an algebra from (name, degree) pairs, validating as we go."""
    gens: List[Generator] = []
    seen = set()
    for name, degree in specs:
        if not isinstance(degree, int):
            raise ModelError(f"degree of {quoted(name)} must be an integer")
        if degree < 2:
            raise ModelError(
                f"generator {quoted(name)} has degree {clipped(degree)}; "
                "degrees must be >= 2"
            )
        if name in seen:
            raise ModelError(f"duplicate generator name {quoted(name)}")
        if not _valid_name(name):
            raise ModelError(f"invalid generator name {quoted(name)}")
        seen.add(name)
        gens.append(Generator(name, degree, len(gens)))
    return Algebra(gens)


def _valid_name(name: str) -> bool:
    if not name or not (name[0].isalpha()):
        return False
    return all(c.isalnum() or c == "_" for c in name)


def koszul_mask(part: int, odd: int) -> int:
    """The Koszul rule on keys: for the odd factors ``part`` of a monomial b,
    the odd fields, of the bits ``odd``, lying below an odd number of them.
    A product a * b of monomials with no odd factor in common has the sign of
    the parity of a's odd factors in these fields: each is a factor of a that
    b's odd factors above it must pass to reach declaration order."""
    mask = 0
    while part:
        low = part & -part
        mask ^= low - 1
        part ^= low
    return mask & odd


class Element:
    """A finite Q-linear combination of monomials of one algebra, held as
    ``keyed``, a ``{key: coefficient}`` dict with no zero coefficient.
    ``Element(algebra, {monomial: coefficient})``, :meth:`from_monomial` and
    :attr:`terms` are the view on exponent tuples; the first two check each
    exponent against its field and each coefficient's type."""

    __slots__ = ("algebra", "keyed")

    def __init__(self, algebra: Algebra, terms: Dict[Monomial, Coefficient]):
        self.algebra = algebra
        self.keyed = {algebra.encode(m): c for m, c in terms.items() if _coefficient(c)}

    @classmethod
    def _of(cls, algebra: Algebra, keyed: Dict[int, Coefficient]) -> "Element":
        """The element of a fresh ``{key: coefficient}`` dict, which it keeps,
        its zero terms dropped: the engine's path, which checks no key and no
        coefficient."""
        e = object.__new__(cls)
        e.algebra = algebra
        e.keyed = keyed if all(keyed.values()) else {k: c for k, c in keyed.items() if c}
        return e

    @classmethod
    def from_monomial(cls, algebra: Algebra, mono: Monomial, coeff=1) -> "Element":
        return cls(algebra, {tuple(mono): coeff})

    @property
    def terms(self) -> Dict[Monomial, Coefficient]:
        """The terms as a fresh ``{exponent tuple: coefficient}`` dict."""
        return {self.algebra.decode(k): c for k, c in self.keyed.items()}

    @property
    def is_zero(self) -> bool:
        return not self.keyed

    def __bool__(self) -> bool:
        return bool(self.keyed)

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(set(map(self.algebra.key_degree, self.keyed))))

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element, None for zero.

        Raises ValueError when terms of different degrees are mixed.
        """
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError(f"element is not degree-homogeneous: degrees {ds}")
        return ds[0]

    def wordlengths(self) -> Tuple[int, ...]:
        shift = self.algebra._shift
        return tuple(sorted({k >> shift for k in self.keyed}))

    def min_wordlength(self) -> Optional[int]:
        return min(self.keyed) >> self.algebra._shift if self.keyed else None

    def wordlength_component(self, s: int) -> "Element":
        shift, keyed = self.algebra._shift, self.keyed
        return Element._of(self.algebra, {k: keyed[k] for k in keyed if k >> shift == s})

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero element has no leading monomial")
        return self.algebra.decode(max(self.keyed))

    def coefficient(self, mono: Monomial) -> Coefficient:
        return self.keyed.get(self.algebra.encode(tuple(mono)), 0)

    def _check_same_algebra(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise ValueError("mismatched algebras")

    def __add__(self, other: "Element") -> "Element":
        if other.algebra is not self.algebra:
            self._check_same_algebra(other)
        keyed = dict(self.keyed)
        for k, c in other.keyed.items():
            keyed[k] = keyed.get(k, 0) + c
        return Element._of(self.algebra, keyed)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element._of(self.algebra, {k: -c for k, c in self.keyed.items()})

    def __mul__(self, other):
        """The product with an Element, or with an ``int`` or ``Fraction``.

        Two terms multiply by adding keys, unless they share an odd factor;
        the sign is the parity of the left key's bits in the
        :func:`koszul_mask` of the right key's odd part.
        """
        alg = self.algebra
        if not isinstance(other, Element):
            c = _coefficient(other)
            return Element._of(alg, {k: a * c for k, a in self.keyed.items()})
        if other.algebra is not alg:
            self._check_same_algebra(other)
        odd, signs, out = alg._odd, alg._signs, {}
        for kb, cb in other.keyed.items():
            part = kb & odd
            mask = signs.get(part)
            if mask is None:
                mask = signs[part] = koszul_mask(part, odd)
            for ka, ca in self.keyed.items():
                if ka & part:
                    continue
                v = ca * cb
                if (ka & mask).bit_count() & 1:
                    v = -v
                k = ka + kb
                prev = out.get(k)
                out[k] = v if prev is None else prev + v
        return alg._fit(Element._of(alg, out))

    def __rmul__(self, other) -> "Element":
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and (
            self.algebra == other.algebra and self.keyed == other.keyed
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def basis(
    algebra: Algebra, degree: int, wordlength_exact: Optional[int] = None
) -> List[Monomial]:
    """All monomials of the given degree, in graded-lex order: the keys of
    :func:`basis_keys` decoded into a fresh list."""
    return list(map(algebra.decode, basis_keys(algebra, degree, wordlength_exact)))


def basis_keys(
    algebra: Algebra, degree: int, wordlength_exact: Optional[int] = None
) -> List[int]:
    """The keys of the degree basis (see :meth:`Algebra.encode`), ascending,
    which is graded-lex order: the cached list itself, to be read and not
    changed.  Negative degrees give the empty list.  ``wordlength_exact``
    restricts to one word length, a fresh slice found by bisection on the
    keys, which sort by word length first."""
    if degree < 0:
        return []
    _fill_bases(algebra, degree)
    keys = algebra._basis_cache[degree]
    if wordlength_exact is None:
        return keys
    lo = bisect_left(keys, wordlength_exact << algebra._shift)
    return keys[lo:bisect_left(keys, wordlength_exact + 1 << algebra._shift, lo)]


#: The most monomials one degree basis may hold.  Far above every model in
#: use (the largest basis of n37 x n35 has 7,592), and low enough that an
#: oversized model stops at once instead of filling memory.
MAX_BASIS = 50_000

#: The highest degree a basis may be built in: every model in use needs a few
#: hundred at most, and a longer scan or degree range stops at once.
MAX_DEGREE = 1_000


def check_basis_limits(degree: int, size: int = 0) -> None:
    """PreconditionError when a degree is above ``MAX_DEGREE`` or its basis,
    of ``size`` monomials, would hold more than ``MAX_BASIS``: the one text
    of both limits."""
    if degree > MAX_DEGREE:
        raise PreconditionError(
            f"the degree-{clipped(degree)} basis is above the degree limit of "
            f"{MAX_DEGREE}"
        )
    if size > MAX_BASIS:
        raise PreconditionError(
            f"the degree-{degree} basis has {size} monomials, more than the "
            f"limit of {MAX_BASIS}; the model is too large"
        )


def count_degree(counts: List[List[int]], degrees: Sequence[int], d: int) -> None:
    """Append to ``counts`` the row of degree d, given the rows below it: for
    each k, how many monomials of degree d have no factor of index >= k, in
    generators of the given ``degrees``, an odd one at most once.  Its last
    entry, the size of the degree-d basis, must pass
    :func:`check_basis_limits` first.

    A monomial of positive degree is m*g for exactly one generator g, its
    last factor: m has degree d - |g|, no factor after g, and no factor g
    when g is odd.  :func:`_fill_bases` builds the keys of a basis by the
    same rule, so a basis is as long as its count.
    """
    ends = [  # how many monomials of degree d have last factor k
        counts[d - a][k + (a % 2 == 0)] if a <= d else 0 for k, a in enumerate(degrees)
    ]
    row = list(accumulate(ends, initial=int(d == 0)))
    check_basis_limits(d, row[-1])
    counts.append(row)


def _fill_bases(algebra: Algebra, degree: int) -> None:
    """Cache the keys of the bases of every degree up to ``degree``, lowest
    first: a monomial of degree d is m*g for its last factor g (see
    :func:`count_degree`), so its keys are those of degree d - |g| with no bit
    set after g's field (nor in it, for an odd g) plus g's, sorted, and its
    size is summed from the counts below before any key is built.

    Raises PreconditionError when a basis would exceed ``MAX_BASIS`` or
    ``degree`` is above ``MAX_DEGREE`` (see :func:`check_basis_limits`).
    """
    cache, counts = algebra._basis_cache, algebra._basis_counts
    check_basis_limits(degree)
    while len(cache) <= degree:
        d = len(cache)
        count_degree(counts, algebra.degrees, d)
        keys = [0] if d == 0 else []
        for i, (a, off) in enumerate(zip(algebra.degrees, algebra._offsets)):
            if a <= d:
                unit, after = algebra._unit(i), (1 << off + a % 2) - 1
                keys += [k + unit for k in cache[d - a] if not k & after]
        keys.sort()
        cache.append(keys)


def coefficient_vector(e: Element, keys: Sequence[int]) -> Dict[int, Coefficient]:
    """Sparse coordinates {position: coefficient} of e in the basis of the
    sorted ``keys``, each position found by bisection."""
    out = {}
    for k, c in e.keyed.items():
        i = bisect_left(keys, k)
        if keys[i:i + 1] != [k]:
            raise ValueError(f"monomial {e.algebra.decode(k)} outside the given basis")
        out[i] = c
    return out


def element_from_vector(
    algebra: Algebra, keys: Sequence[int], vec: Dict[int, Coefficient]
) -> Element:
    """The element with sparse coordinates vec in the basis of ``keys``."""
    return Element._of(algebra, {keys[i]: c for i, c in vec.items()})


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^")


def _tokens(text: str) -> List[Tuple[str, str, int]]:
    """The (kind, value, position) tokens of ``text``, ending in an "eof" one."""
    tokens: List[Tuple[str, str, int]] = []
    n, pos = len(text), 0
    while pos < n:
        c, start = text[pos], pos
        if c == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
        elif c.isspace():
            pos += 1
        elif c in _OPS:
            tokens.append(("op", c, pos))
            pos += 1
        elif c.isdecimal():
            while pos < n and text[pos].isdecimal():
                pos += 1
            tokens.append(("int", text[start:pos], start))
        elif c.isalpha() or c == "_":
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
        else:
            raise ParseError(f"unexpected character {c!r}", column=pos)
    tokens.append(("eof", "", n))
    return tokens


def parse_element(text: str, algebra: Algebra) -> Element:
    """Parse a polynomial expression such as ``3/4*x2^2*y5 - x6``.

    Whitespace is insignificant and ``#`` starts a comment running to the end
    of the line.  A leading ``+`` or ``-`` on the first term is accepted.
    Squaring an odd generator, as ``y^2`` or as ``y*y`` within one product,
    is a syntax error.
    """
    tokens = _tokens(text)
    i, sign = 0, 1
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        i, sign = 1, (-1 if tokens[0][1] == "-" else 1)
    if tokens[i][0] == "eof":
        raise ParseError("empty expression", column=tokens[i][2])
    terms: Dict[Monomial, Coefficient] = {}
    while True:
        i, mono, coeff = _parse_term(tokens, i, algebra, sign)
        terms[mono] = terms.get(mono, 0) + coeff
        if not terms[mono]:  # dropped at once, as a running sum of Elements does
            del terms[mono]
        kind, value, pos = tokens[i]
        if kind == "eof":
            return Element(algebra, terms)
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-', found {quoted(value)}", column=pos)
        i, sign = i + 1, (-1 if value == "-" else 1)


def _int_token(value: str, pos: int) -> int:
    try:
        return int(value)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        msg = f"number of {len(value)} digits exceeds the limit of {limit} digits"
        raise ParseError(msg, column=pos) from None


def _parse_term(
    tokens: List[Tuple[str, str, int]], i: int, algebra: Algebra, sign: int
) -> Tuple[int, Monomial, Coefficient]:
    """The index after the term at ``tokens[i]``, its monomial and coefficient.

    An odd factor flips the sign once per odd factor of higher index already
    read: the Koszul sign of moving it into declaration order.  An exponent
    past its field's limit is a ParseError at the exponent.
    """
    coeff: Coefficient = sign
    exps = [0] * algebra.ngens
    kind, value, pos = tokens[i]
    if kind == "int":
        coeff *= _int_token(value, pos)
        i += 1
        if tokens[i][:2] == ("op", "/"):
            dkind, dvalue, dpos = tokens[i + 1]
            if dkind != "int":
                raise ParseError("expected denominator after '/'", column=dpos)
            den = _int_token(dvalue, dpos)
            if den == 0:
                raise ParseError("zero denominator", column=dpos)
            coeff = Fraction(coeff, den)
            i += 2
        if tokens[i][:2] == ("op", "*"):
            i += 1
        elif tokens[i][0] != "name":
            return i, tuple(exps), coeff
    while True:  # a generator name starts the term and follows every '*'
        kind, value, pos = tokens[i]
        if kind != "name":
            raise ParseError("expected a generator name", column=pos)
        if not algebra.has_generator(value):
            raise ParseError(f"unknown generator {quoted(value)}", column=pos)
        gen = algebra.generator(value)
        exponent, epos = 1, pos
        if tokens[i + 1][:2] == ("op", "^"):
            ekind, evalue, epos = tokens[i + 2]
            if ekind != "int":
                raise ParseError("expected an exponent after '^'", column=epos)
            exponent = _int_token(evalue, epos)
            i += 2
        if gen.is_odd and exponent:
            if exponent >= 2 or exps[gen.index]:
                raise ParseError(f"odd generator {quoted(value)} squared", column=pos)
            if sum(exps[j] for j in algebra.odd_indices if j > gen.index) % 2:
                coeff = -coeff
        exps[gen.index] += exponent
        if exps[gen.index] > algebra._limits[gen.index]:
            message = algebra._exponent_error(gen.index, exps[gen.index])
            raise ParseError(message, column=epos)
        if tokens[i + 1][:2] != ("op", "*"):
            return i + 1, tuple(exps), coeff
        i += 2


def _format_monomial(algebra: Algebra, mono: Monomial) -> str:
    parts = []
    for g, e in zip(algebra.generators, mono):
        if e == 0:
            continue
        parts.append(g.name if e == 1 else f"{g.name}^{e}")
    return "*".join(parts)


def format_element(e: Element) -> str:
    """Canonical text form: factors by generator order, terms by graded-lex.

    The output round-trips through :func:`parse_element`.
    """
    if e.is_zero:
        return "0"
    out = []
    for i, (key, coeff) in enumerate(sorted(e.keyed.items(), reverse=True)):
        mono_str = _format_monomial(e.algebra, e.algebra.decode(key))
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if i == 0:
            out.append(f"-{body}" if coeff < 0 else body)
        else:
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(out)
