"""The references the tests compare the engine against, each written once
(not a test module): dense Gauss-Jordan elimination and the random matrices
it is compared on; the Koszul sign by counting inversions, the product of
monomial tuples built on it, the Leibniz rule and the pair product by those
products, delta by the pair formula, and the word-length components of d
that it is made of; the word length and graded-lex order of monomial
tuples, and the monomial bases of the two slots of a pair; the
coordinates of an element in a basis of monomial tuples, the columns of a
map between such bases, and the engine's vectors on monomial keys at
positions in a basis; one boundary solve, through the
kernel's checked public ``ColumnFactorization.solve``, and the depth search
by a solve over the boundary columns cut below its depth; and the
determinant by its permutation expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from operator import add, lshift
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from sullivan.algebra import Algebra, Element, Monomial, basis, basis_keys
from sullivan.cohomology import _columns, _images
from sullivan.differential import Derivation, SullivanModel
from sullivan.linalg import ColumnFactorization
from sullivan.spectral import FilteredPair, _slot_keys

Vector = Dict[int, Fraction]


def dense_rref(a, ncols):
    """The reduced row echelon form of the rows a and its pivot columns."""
    a = [list(r) for r in a]
    nrows = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        # the pivot row is zero left of col, so every row changes from col on
        pivot = a[row]
        if pivot[col] != 1:
            inv = Fraction(1) / pivot[col]
            pivot[col:] = [x * inv for x in pivot[col:]]
        for i in range(nrows):
            f = a[i][col]
            if i != row and f != 0:
                a[i][col:] = [x - f * y for x, y in zip(a[i][col:], pivot[col:])]
        pivots.append(col)
        row += 1
    return a, tuple(pivots)


def dense_image_echelon(columns: Sequence[Vector], nrows: int):
    """The reduced row echelon basis of the span of the sparse ``columns``
    of length nrows, as sparse rows, and its pivot columns: :func:`dense_rref`
    of the columns as dense rows, cut to its rank."""
    reduced, pivots = dense_rref([dense(c, nrows) for c in columns], nrows)
    return [sparse(r) for r in reduced[: len(pivots)]], pivots


def dense_kernel(a, ncols):
    """The kernel basis: one vector per free column, that variable 1."""
    reduced, pivots = dense_rref(a, ncols)
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        out.append(v)
    return out


def dense_solve(a, ncols, b):
    """The solution of a x = b with free variables 0, or None."""
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    reduced, pivots = dense_rref([r + [x] for r, x in zip(a, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncols]
    return x


class DenseRowSpace:
    """A row space kept as a reduced row echelon basis of dense rows."""

    def __init__(self, ncols):
        self.rows = []  # (lead column, row), sorted

    def reduce(self, v):
        v = list(v)
        for lead, row in self.rows:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        res = self.reduce(v)
        lead = next((j for j, x in enumerate(res) if x != 0), None)
        if lead is None:
            return False
        inv = Fraction(1) / res[lead]
        res = [x * inv for x in res]
        for i, (l, row) in enumerate(self.rows):
            if row[lead] != 0:
                f = row[lead]
                self.rows[i] = (l, [a - f * b for a, b in zip(row, res)])
        self.rows.append((lead, res))
        self.rows.sort(key=lambda t: t[0])
        return True


def dense(v, n):
    """The sparse vector v as a list of length n."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def sparse(row):
    """The dense row as a sparse vector: {index: nonzero entry}."""
    return {j: x for j, x in enumerate(row) if x}


def random_rows(rng, nrows, ncols, density, integral):
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        num = rng.choice([-3, -2, -1, 1, 2, 3, 7])
        return Fraction(num) if integral else Fraction(num, rng.randint(1, 6))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.5:  # duplicate rows and their multiples
        for _ in range(rng.randint(1, 3)):
            src = rng.choice(rows)
            rows[rng.randrange(nrows)] = [Fraction(rng.randint(1, 3)) * x for x in src]
    if rows and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def matrix_cases():
    """(rows, ncols) of 48 seeded matrices: empty shapes, sparse ones as
    large as a cochain map, and small ones of every density."""
    rng = random.Random(20261018)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 1), (1, 4)]
    for nrows, ncols in shapes:
        yield random_rows(rng, nrows, ncols, 0.6, False), ncols
    for _ in range(12):  # about 1 % dense, as the cochain matrices are
        nrows, ncols = rng.randint(20, 60), rng.randint(30, 90)
        yield random_rows(rng, nrows, ncols, 0.01, rng.random() < 0.5), ncols
    for _ in range(30):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.5, 1.0])
        yield random_rows(rng, nrows, ncols, density, rng.random() < 0.5), ncols


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


def reference_product(algebra: Algebra, a: Dict[Monomial, Fraction], b) -> Dict:
    """The product of two {monomial tuple: coefficient} dicts, term by term:
    exponents add, and the sign is :func:`koszul_sign`'s."""
    out: Dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign = koszul_sign(algebra, ma, mb)
            if sign:
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + sign * ca * cb
    return out


def reference_pair_product(a: FilteredPair, b: FilteredPair) -> Tuple[Element, Element]:
    """The pair product by the paper's formula, (u, v)(u', v') = (uu', uv' +
    vu'), each product a :func:`reference_product` on monomial tuples."""
    alg = a.model.algebra

    def times(x: Element, y: Element) -> Dict[Monomial, Fraction]:
        return reference_product(alg, x.terms, y.terms)

    v = times(a.u, b.v)
    for m, c in times(a.v, b.u).items():
        v[m] = v.get(m, 0) + c
    return Element(alg, times(a.u, b.u)), Element(alg, v)


def reference_apply(derivation: Derivation) -> Callable[[Union[Element, int]], Element]:
    """The derivation applied by the Leibniz rule, each summand sign * left *
    d(g_i) * right formed by two :func:`reference_product`s on monomial
    tuples; the generator images are decoded once, here.  It takes an
    element, or the key of one monomial (coefficient 1), and packs the keys
    of its result from the algebra's field offsets, unchecked."""
    alg = derivation.algebra
    n, offsets, shift = alg.ngens, alg._offsets, alg._shift
    images = {i: img.terms for i, img in derivation.images.items()}

    def apply(e: Union[Element, int]) -> Element:
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in ({alg.decode(e): 1} if type(e) is int else e.terms).items():
            prefix_degree = 0
            for i, exp in enumerate(mono):
                if exp:
                    img = images.get(i)
                    if img is not None:
                        left = mono[:i] + (exp - 1,) + (0,) * (n - i - 1)
                        right = (0,) * (i + 1) + mono[i + 1:]
                        c = coeff * exp
                        if prefix_degree % 2:
                            c = -c
                        term = reference_product(alg, {left: c}, img)
                        for m, x in reference_product(alg, term, {right: 1}).items():
                            out[m] = out.get(m, 0) + x
                    prefix_degree += exp * alg.degrees[i]
        keyed = {sum(map(lshift, m, offsets)) | sum(m) << shift: c for m, c in out.items()}
        return Element._of(alg, keyed)

    return apply


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


def reference_delta(model: SullivanModel) -> Callable[[Element], Element]:
    """delta by the paper's pair formula, (u, v) -> (d3 u, d3 v + d4 u): d3 of
    e plus d4 of its even word-length part, d3 and d4 being the word-length
    components of d, built once here, each applied by its
    :func:`reference_apply`."""
    d3, d4 = (reference_apply(homogeneous_component(model.differential, i)) for i in (3, 4))

    def delta(e: Element) -> Element:
        even = Element(e.algebra, {m: c for m, c in e.terms.items() if sum(m) % 2 == 0})
        return d3(e) + d4(even)

    return delta


def pair_basis(model: SullivanModel, p: int, n: int) -> Tuple[List[Monomial], List[Monomial]]:
    """Monomial bases of the two slots of E_1^{p, n-p}; ``PreconditionError``
    unless k = 3."""
    return tuple(list(map(model.algebra.decode, ks)) for ks in _slot_keys(model, p, n))


def coordinates(e: Element, monos: Sequence[Monomial]) -> Vector:
    """The sparse coordinates {position: coefficient} of e in the basis
    ``monos`` of monomial tuples; KeyError for a monomial outside it."""
    index = {m: i for i, m in enumerate(monos)}
    return {index[m]: c for m, c in e.terms.items()}


def element_of(alg: Algebra, monos: Sequence[Monomial], vec: Vector) -> Element:
    """The element with sparse coordinates vec in the basis ``monos``."""
    return Element(alg, {monos[i]: c for i, c in vec.items()})


def map_columns(
    alg: Algebra, f: Callable[[Element], Element], src: Sequence[Monomial],
    dst: Sequence[Monomial],
) -> List[Vector]:
    """Columns of the matrix of f from span(src) to span(dst): the
    coordinates of f of each monomial of src."""
    return [coordinates(f(Element.from_monomial(alg, m)), dst) for m in src]


def positions(vectors: Sequence[Vector], keys: Sequence[int]) -> List[Vector]:
    """The engine's vectors on monomial keys as vectors on positions in the
    basis of the sorted ``keys``; KeyError for a key outside it."""
    index = {k: i for i, k in enumerate(keys)}
    return [{index[k]: x for k, x in v.items()} for v in vectors]


def boundary_columns(model: SullivanModel, which: str, n: int) -> List[Vector]:
    """The engine's columns of ``which`` ("d" or "delta") from degree n - 1
    into degree n, at positions in the degree-n basis: d's assembled
    afresh, delta's cut from d's cached ones."""
    alg = model.algebra
    if which == "d":
        columns = _images(model, basis_keys(alg, n - 1))
    else:
        columns = _columns(model, which, n - 1)
    return positions(columns, basis_keys(alg, n))


def boundary_solve(
    model: SullivanModel, which: str, n: int, target: Element,
    extra: Sequence[Element] = (),
) -> Optional[Vector]:
    """The coefficients c_j with target = sum_j c_j extra_j + a boundary of
    ``which`` in degree n, solved with free variables 0 over the columns of
    ``extra`` and then :func:`boundary_columns`; None if there are none.  So
    target bounds exactly when ``boundary_solve(model, which, n, target)``
    is not None."""
    bn = basis(model.algebra, n)
    columns = [coordinates(e, bn) for e in extra]
    columns += boundary_columns(model, which, n)
    sol = ColumnFactorization(columns, len(bn)).solve(coordinates(target, bn))
    return None if sol is None else {j: x for j, x in sol.items() if j < len(extra)}


def cut_depth_search(
    model: SullivanModel, which: str, n: int, z: Element
) -> Optional[Tuple[int, Element]]:
    """The depth search as it was first written, or None when z bounds: s
    is the lowest word length of the normal form of z modulo the boundaries
    of ``which``, and the witness is z minus the combination of the boundary
    columns that a fresh factorization of those columns, cut below word
    length s, solves for the part of z below s (free variables 0)."""
    bn = basis(model.algebra, n)
    columns = boundary_columns(model, which, n)
    zvec = coordinates(z, bn)
    normal = ColumnFactorization(columns, len(bn)).reduce(zvec)
    if not normal:
        return None
    s = wordlength(bn[min(normal)])
    shallow = sum(wordlength(m) < s for m in bn)
    cut = ColumnFactorization(
        [{i: x for i, x in c.items() if i < shallow} for c in columns], shallow
    )
    x = cut.solve({i: c for i, c in zvec.items() if i < shallow})
    if x is None:
        raise AssertionError(f"no representative at word length >= {s}")
    for j, xj in x.items():
        for i, y in columns[j].items():
            zvec[i] = zvec.get(i, 0) - xj * y
    return s, element_of(model.algebra, bn, zvec)


def naive_det(entries: Sequence[Sequence[Element]], alg: Algebra) -> Element:
    """The determinant of a square matrix of elements, summed over the
    permutations of its columns; 1 for the empty matrix."""
    n = len(entries)
    total = alg.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign * alg.one()
        for i in range(n):
            prod = prod * entries[i][perm[i]]
        total = total + prod
    return total
