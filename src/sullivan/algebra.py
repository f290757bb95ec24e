"""Free graded-commutative algebras over Q on a finite list of generators.

A generator of odd degree is exterior (its square is zero), a generator of
even degree is polynomial.  A *monomial* is an exponent tuple with one entry
per generator, always kept in declaration order; odd generators never carry
an exponent above 1.  All sign bookkeeping lives in the coefficients: the
monomial itself is the canonical sorted word, and reordering costs are paid
when two monomials are multiplied.

The degree bases are sorted lists of integer *keys* (:meth:`Algebra.encode`):
key order is graded-lex order, and multiplying by a generator adds its key,
so bases are built, and d is applied to them, by integer addition.

Every generator must have degree >= 2 (the algebras model simply connected
spaces), so each fixed degree contains only finitely many monomials.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ModelError, ParseError, PreconditionError, clipped, quoted

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
        self._monomials: Dict[int, List[Monomial]] = {}  # those decoded by `basis`
        # a key's fields (see `encode`) fit the exponents of every degree up to
        # MAX_DEGREE, as it is now; g_i's field is at bit _offsets[i], the word
        # length at _shift, and the odd fields' lowest bits are _odd
        self._width = width = (MAX_DEGREE // 2).bit_length()
        self._shift = width * self.ngens
        self._offsets = tuple(range(self._shift - width, -1, -width))
        self._odd = sum(1 << self._offsets[i] for i in self.odd_indices)
        self._signature = tuple((g.name, g.degree) for g in self.generators)
        self._hash = hash(self._signature)

    def generator(self, name: str) -> Generator:
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
        generator's highest, in fixed-width fields.  Keys compare as graded-lex
        order does, and key(m * g_i) = key(m) + key(g_i).  Above the degree
        limit a field may carry, and the key is then no monomial's."""
        fields = sum(e << off for e, off in zip(mono, self._offsets))
        return fields | sum(mono) << self._shift

    def decode(self, key: int) -> Monomial:
        """The monomial of a key: the inverse of :meth:`encode`."""
        mask = (1 << self._width) - 1
        return tuple([key >> off & mask for off in self._offsets])

    def gen_element(self, name: str) -> "Element":
        g = self.generator(name)
        mono = tuple(1 if i == g.index else 0 for i in range(self.ngens))
        return Element(self, {mono: Fraction(1)})

    def one(self) -> "Element":
        return Element(self, {(0,) * self.ngens: Fraction(1)})

    def zero(self) -> "Element":
        return Element(self, {})

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


def wordlength(mono: Monomial) -> int:
    """Number of generator factors of a monomial."""
    return sum(mono)


def grlex_key(mono: Monomial) -> Tuple[int, Monomial]:
    """Sort key for the graded-lexicographic order on exponent vectors."""
    return (sum(mono), mono)


def koszul_sign(algebra: Algebra, a: Monomial, b: Monomial) -> int:
    """Sign of merging two canonical monomials, or 0 if an odd factor repeats.

    Even generators commute with everything; each pair of odd factors that
    must pass one another contributes a factor of -1.
    """
    odds_a = [i for i in algebra.odd_indices if a[i]]
    odds_b = [i for i in algebra.odd_indices if b[i]]
    if not odds_a or not odds_b:
        return 1
    inversions = 0
    for j in odds_b:
        if a[j]:
            return 0
        for i in odds_a:
            if i > j:
                inversions += 1
    return -1 if inversions % 2 else 1


class Element:
    """A finite Q-linear combination of monomials of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: Dict[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_monomial(cls, algebra: Algebra, mono: Monomial, coeff=1) -> "Element":
        return cls(algebra, {tuple(mono): Fraction(coeff)})

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({self.algebra.monomial_degree(m) for m in self.terms}))

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
        return tuple(sorted({wordlength(m) for m in self.terms}))

    def min_wordlength(self) -> Optional[int]:
        wls = self.wordlengths()
        return wls[0] if wls else None

    def wordlength_component(self, s: int) -> "Element":
        return Element(
            self.algebra, {m: c for m, c in self.terms.items() if wordlength(m) == s}
        )

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero element has no leading monomial")
        return max(self.terms, key=grlex_key)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def _check_same_algebra(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise ValueError("mismatched algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Element(self.algebra, terms)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Element(self.algebra, terms)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same_algebra(other)
            out: Dict[Monomial, Fraction] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    sign = koszul_sign(self.algebra, ma, mb)
                    if sign == 0:
                        continue
                    mono = tuple(x + y for x, y in zip(ma, mb))
                    out[mono] = out.get(mono, 0) + sign * ca * cb
            return Element(self.algebra, out)
        return Element(
            self.algebra, {m: c * Fraction(other) for m, c in self.terms.items()}
        )

    def __rmul__(self, other) -> "Element":
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def basis(
    algebra: Algebra, degree: int, wordlength_exact: Optional[int] = None
) -> List[Monomial]:
    """All monomials of the given degree, in graded-lex order: the keys of
    :func:`basis_keys` decoded, once per degree, and handed out as a fresh
    list; changing it does not change the cache.  ``wordlength_exact``
    restricts to one word length, found by bisection on the keys, which sort
    by word length first."""
    keys = basis_keys(algebra, degree)
    monos = algebra._monomials.get(degree)
    if monos is None:
        monos = algebra._monomials[degree] = list(map(algebra.decode, keys))
    if wordlength_exact is None:
        return list(monos)
    lo = bisect_left(keys, wordlength_exact << algebra._shift)
    return monos[lo:bisect_left(keys, wordlength_exact + 1 << algebra._shift, lo)]


def basis_keys(algebra: Algebra, degree: int) -> List[int]:
    """The keys of the degree basis (see :meth:`Algebra.encode`), ascending,
    which is graded-lex order: the cached list itself, to be read and not
    changed.  Negative degrees give the empty list."""
    if degree < 0:
        return []
    _fill_bases(algebra, degree)
    return algebra._basis_cache[degree]


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
    cache, counts, width = algebra._basis_cache, algebra._basis_counts, algebra._width
    check_basis_limits(degree)
    while len(cache) <= degree:
        d = len(cache)
        count_degree(counts, algebra.degrees, d)
        keys = [0] if d == 0 else []
        for a, off in zip(algebra.degrees, algebra._offsets):
            if a <= d:
                unit = 1 << algebra._shift | 1 << off
                after = (1 << off + width * (a % 2)) - 1
                keys += [k + unit for k in cache[d - a] if not k & after]
        keys.sort()
        cache.append(keys)


def coefficient_vector(e: Element, keys: Sequence[int]) -> Dict[int, Fraction]:
    """Sparse coordinates {position: coefficient} of e in the basis of the
    sorted ``keys``, each position found by bisection."""
    out = {}
    for m, c in e.terms.items():
        i = bisect_left(keys, key := e.algebra.encode(m))
        if keys[i:i + 1] != [key]:
            raise ValueError(f"monomial {m} outside the given basis")
        out[i] = c
    return out


def element_from_vector(
    algebra: Algebra, keys: Sequence[int], vec: Dict[int, Fraction]
) -> Element:
    """The element with sparse coordinates vec in the basis of ``keys``."""
    return Element(algebra, {algebra.decode(keys[i]): c for i, c in vec.items()})


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
    terms: Dict[Monomial, Fraction] = {}
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
) -> Tuple[int, Monomial, Fraction]:
    """The index after the term at ``tokens[i]``, its monomial and coefficient.

    An odd factor flips the sign once per odd factor of higher index already
    read: the Koszul sign of moving it into declaration order.
    """
    coeff = Fraction(sign)
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
            coeff /= den
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
        exponent = 1
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
    items = sorted(e.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    out = []
    for i, (mono, coeff) in enumerate(items):
        mono_str = _format_monomial(e.algebra, mono)
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
