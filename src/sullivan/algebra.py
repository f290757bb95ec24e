"""Free graded-commutative algebras over Q on a finite list of generators.

A generator of odd degree is exterior (its square is zero), a generator of
even degree is polynomial.  A *monomial* is an exponent tuple with one entry
per generator, always kept in declaration order; odd generators never carry
an exponent above 1.  All sign bookkeeping lives in the coefficients: the
monomial itself is the canonical sorted word, and reordering costs are paid
when two monomials are multiplied.

Every generator must have degree >= 2 (the algebras model simply connected
spaces), so each fixed degree contains only finitely many monomials.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ModelError, ParseError

#: A monomial is an exponent vector, one entry per generator.
Monomial = Tuple[int, ...]


@dataclass(frozen=True)
class Generator:
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
        self._basis_cache: Dict[int, List[Monomial]] = {}
        # per degree, the offset in the cached basis where each word length
        # starts, followed by the basis length (see `basis`)
        self._wordlength_starts: Dict[int, List[int]] = {}
        self._signature = tuple((g.name, g.degree) for g in self.generators)
        self._hash = hash(self._signature)

    def signature(self) -> Tuple[Tuple[str, int], ...]:
        return self._signature

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown generator {name!r}") from None

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

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
            raise ModelError(f"degree of {name!r} must be an integer")
        if degree < 2:
            raise ModelError(
                f"generator {name!r} has degree {degree}; degrees must be >= 2"
            )
        if name in seen:
            raise ModelError(f"duplicate generator name {name!r}")
        if not _valid_name(name):
            raise ModelError(f"invalid generator name {name!r}")
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

    def even_wordlength_part(self) -> "Element":
        return Element(
            self.algebra,
            {m: c for m, c in self.terms.items() if wordlength(m) % 2 == 0},
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
            terms[m] = terms.get(m, Fraction(0)) + c
        return Element(self.algebra, terms)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) - c
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
                    out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
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
    algebra: Algebra,
    degree: int,
    wordlength_exact: Optional[int] = None,
    wordlength_min: Optional[int] = None,
) -> List[Monomial]:
    """All monomials of the given degree, in graded-lex order.

    Optional filters restrict to a single word length or to a lower bound on
    word length.  Negative degrees give the empty list.  Graded-lex order
    sorts by word length first, so within a degree the word lengths ascend
    and each filter is a slice of the cached degree basis.  The result is a
    fresh list; changing it does not change the cache.
    """
    if degree < 0:
        return []
    full = algebra._basis_cache.get(degree)
    if full is None:
        full = sorted(_enumerate_monomials(algebra, degree), key=grlex_key)
        starts: List[int] = []
        for i, m in enumerate(full):
            while len(starts) <= wordlength(m):
                starts.append(i)
        starts.append(len(full))
        algebra._basis_cache[degree] = full
        algebra._wordlength_starts[degree] = starts
    if wordlength_exact is None and wordlength_min is None:
        return list(full)
    starts = algebra._wordlength_starts[degree]
    last = len(starts) - 1

    def start(s: int) -> int:
        """Offset of the first monomial of word length >= s."""
        return starts[min(max(s, 0), last)]

    lo, hi = 0, len(full)
    if wordlength_exact is not None:
        lo, hi = start(wordlength_exact), start(wordlength_exact + 1)
    if wordlength_min is not None:
        lo = max(lo, start(wordlength_min))
    return full[lo:hi]


def _enumerate_monomials(algebra: Algebra, degree: int) -> List[Monomial]:
    gens = algebra.generators
    out: List[Monomial] = []
    exps = [0] * len(gens)

    def rec(i: int, remaining: int) -> None:
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(exps))
            return
        g = gens[i]
        cap = 1 if g.is_odd else remaining // g.degree
        for e in range(cap + 1):
            cost = e * g.degree
            if cost > remaining:
                break
            exps[i] = e
            rec(i + 1, remaining - cost)
        exps[i] = 0

    rec(0, degree)
    return out


def wordlength_split(e: Element) -> Dict[int, Element]:
    """Split an element into its word-length homogeneous components."""
    out: Dict[int, Dict[Monomial, Fraction]] = {}
    for m, c in e.terms.items():
        out.setdefault(wordlength(m), {})[m] = c
    return {s: Element(e.algebra, t) for s, t in sorted(out.items())}


def coefficient_vector(e: Element, basis_list: Sequence[Monomial]) -> Dict[int, Fraction]:
    """Sparse coordinates {position: coefficient} of e in an explicit
    monomial basis."""
    index = {m: i for i, m in enumerate(basis_list)}
    try:
        return {index[m]: c for m, c in e.terms.items()}
    except KeyError as exc:
        raise ValueError(f"monomial {exc.args[0]} outside the given basis") from None


def element_from_vector(
    algebra: Algebra, basis_list: Sequence[Monomial], vec: Dict[int, Fraction]
) -> Element:
    """The element with sparse coordinates vec in an explicit monomial basis."""
    return Element(algebra, {basis_list[i]: c for i, c in vec.items()})


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[Tuple[str, str, int]] = []  # (kind, value, position)
        self._scan()
        self.i = 0

    def _scan(self) -> None:
        text, n = self.text, len(self.text)
        pos = 0
        while pos < n:
            c = text[pos]
            if c == "#":
                while pos < n and text[pos] != "\n":
                    pos += 1
                continue
            if c.isspace():
                pos += 1
                continue
            if c in _OPS:
                self.tokens.append(("op", c, pos))
                pos += 1
                continue
            if c.isdigit():
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                self.tokens.append(("int", text[start:pos], start))
                continue
            if c.isalpha() or c == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append(("name", text[start:pos], start))
                continue
            raise ParseError(f"unexpected character {c!r}", column=pos)
        self.tokens.append(("eof", "", n))

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def parse_element(text: str, algebra: Algebra) -> Element:
    """Parse a polynomial expression such as ``3/4*x2^2*y5 - x6``.

    Whitespace is insignificant and ``#`` starts a comment running to the end
    of the line.  A leading ``+`` or ``-`` on the first term is accepted.
    Squaring an odd generator, as ``y^2`` or as ``y*y`` within one product,
    is a syntax error.
    """
    sc = _Scanner(text)
    total = algebra.zero()
    sign = 1
    kind, value, pos = sc.peek()
    if kind == "op" and value in "+-":
        sc.next()
        sign = -1 if value == "-" else 1
    if sc.peek()[0] == "eof":
        raise ParseError("empty expression", column=sc.peek()[2])
    while True:
        total = total + _parse_term(sc, algebra, sign)
        kind, value, pos = sc.peek()
        if kind == "eof":
            return total
        if kind == "op" and value in "+-":
            sc.next()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError(f"expected '+' or '-', found {value!r}", column=pos)


def _int_token(value: str, pos: int) -> int:
    try:
        return int(value)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        msg = f"number of {len(value)} digits exceeds the limit of {limit} digits"
        raise ParseError(msg, column=pos) from None


def _parse_term(sc: _Scanner, algebra: Algebra, sign: int) -> Element:
    coeff = Fraction(sign)
    seen_factor = False
    odd_factors = set()
    kind, value, pos = sc.peek()
    if kind == "int":
        sc.next()
        num = _int_token(value, pos)
        if sc.peek()[:2] == ("op", "/"):
            sc.next()
            dkind, dvalue, dpos = sc.next()
            if dkind != "int":
                raise ParseError("expected denominator after '/'", column=dpos)
            den = _int_token(dvalue, dpos)
            if den == 0:
                raise ParseError("zero denominator", column=dpos)
            coeff *= Fraction(num, den)
        else:
            coeff *= num
        if sc.peek()[:2] == ("op", "*"):
            sc.next()
            seen_factor = False  # a factor must follow the '*'
        elif sc.peek()[0] != "name":
            return Element(algebra, {(0,) * algebra.ngens: coeff})
    result = Element(algebra, {(0,) * algebra.ngens: coeff})
    while True:
        kind, value, pos = sc.peek()
        if kind != "name":
            if seen_factor:
                return result
            raise ParseError(f"expected a generator name", column=pos)
        sc.next()
        if not algebra.has_generator(value):
            raise ParseError(f"unknown generator {value!r}", column=pos)
        gen = algebra.generator(value)
        exponent = 1
        if sc.peek()[:2] == ("op", "^"):
            sc.next()
            ekind, evalue, epos = sc.next()
            if ekind != "int":
                raise ParseError("expected an exponent after '^'", column=epos)
            exponent = _int_token(evalue, epos)
        if gen.is_odd and exponent >= 1:
            if exponent >= 2 or gen.index in odd_factors:
                raise ParseError(
                    f"odd generator {value!r} squared", column=pos
                )
            odd_factors.add(gen.index)
        mono = tuple(exponent if i == gen.index else 0 for i in range(algebra.ngens))
        result = result * Element.from_monomial(algebra, mono)
        seen_factor = True
        if sc.peek()[:2] == ("op", "*"):
            sc.next()
            continue
        return result


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
