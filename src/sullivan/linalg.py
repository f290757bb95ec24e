"""Exact linear algebra over the rationals.

Entries are ``int`` or ``fractions.Fraction``, so there is no rounding
anywhere: a model with integer coefficients is eliminated in ``int``, and a
row turns to ``Fraction`` only when its lead is not 1 or -1.  The only
division is ``ONE / lead``, by a ``Fraction`` numerator, so ``int / int``
(a float) never occurs.  The engine's matrices, the maps of d and of delta
out of one degree, are almost all zeros, so vectors and matrix rows are
sparse: ``{index: nonzero value}``.  A vector may also be given
densely, as a sequence, wherever one is passed in.

Every public entry point checks its vectors (:func:`_vector`).  The engine
hands over the vectors it has just built itself, fresh sparse dicts of
nonzero ``int`` or ``Fraction`` entries within range, without that check,
through the private :meth:`RowSpace._add`, :meth:`ColumnFactorization._of`
and :meth:`ColumnFactorization._split`, and reads pivot columns off either
through the read-only view ``_pivots``.

All elimination is done by one kernel, :class:`RowSpace`, which keeps a row
space as a row echelon basis: one row per pivot column, 1 there and 0 to
its left.  The basis is not kept reduced, so a new row is eliminated against
the stored ones and stored, and no stored row changes.  The normal form of a
vector modulo the space (zero at every pivot column) is unique all the same:
two of them differ by a vector of the space that is zero at every pivot
column, and a nonzero vector of the space is not, since its first nonzero
column is a pivot column.  So is the reduced row echelon basis (every pivot
the only nonzero entry of its column), formed only when it is read, by the
one back-substitution, :meth:`RowSpace.echelon`.  ``rref`` picks the first
nonzero column as the next pivot and scales every pivot to 1.

A map m: Q^ncols -> Q^nrows is eliminated once, as a
:class:`ColumnFactorization`: column j goes into a ``RowSpace`` with one
extra unit coordinate, nrows + j, in column order, reduced only up to its
lead (its first nonzero column that is not a pivot column).  A column is
stored exactly when it is independent of the earlier ones, so the stored
columns are the pivot columns of m, and they are independent.  Hence every
answer read off the factorization is unique, and ``kernel_basis`` and
``solve_membership`` are views of it:

* a column that is not stored is reduced fully and leaves only its unit
  part: the kernel vector with that free variable 1 and the others 0, free
  columns ascending;
* the stored rows, cut to the first nrows coordinates, are an echelon basis
  of the image with leads 1, not reduced, under their own pivots: the
  private ``_image`` hands them over as a fresh ``RowSpace``;
* b is in the image exactly when its normal form vanishes on the first
  nrows coordinates; minus its unit part is then the solution of m x = b
  with every free variable 0;
* with its private ``stop`` = S, ``_split`` clears only the pivots below
  row S, and its unit part is then the one the factorization of the
  columns cut below S finds (``cohomology._deepest_representative``).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Dict, KeysView, List, Optional, Sequence, Tuple, Union

Vector = Dict[int, Union[int, Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def _vector(v: Union[Vector, Sequence], n: int) -> Vector:
    """v as a fresh sparse vector of length n: {index: nonzero entry}, an
    entry of type exactly ``int`` kept and any other made a ``Fraction``."""
    dense = not isinstance(v, dict)
    out = {
        j: x if type(x) is int or isinstance(x, Fraction) else Fraction(x)
        for j, x in (enumerate(v) if dense else v.items())
        if x
    }
    if len(v) != n if dense else any(not 0 <= j < n for j in out):
        raise ValueError(f"vector does not have length {n}")
    return out


class RationalMatrix:
    """A matrix over Q, stored as sparse rows.

    Rows may be given densely (sequences of one length) or sparsely
    (mappings from column to value).  ``ncols`` is stored explicitly so
    matrices with zero rows or zero columns stay well defined; both shapes
    occur naturally at the ends of a cochain complex.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence, ncols: Optional[int] = None):
        if ncols is None:
            if not rows or isinstance(rows[0], dict):
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        self.rows: List[Vector] = [_vector(r, ncols) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = ncols

    @classmethod
    def from_columns(cls, columns: Sequence, nrows: int) -> "RationalMatrix":
        rows: List[Vector] = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, x in _vector(col, nrows).items():
                rows[i][j] = x
        return cls(rows, ncols=len(columns))

    @property
    def entries(self) -> List[List[Fraction]]:
        """Dense, read-only copy of the rows."""
        return [[r.get(j, ZERO) for j in range(self.ncols)] for r in self.rows]

    def columns(self) -> List[Vector]:
        cols: List[Vector] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, x in r.items():
                cols[j][i] = x
        return cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows!r}, ncols={self.ncols})"


class RowSpace:
    """A subspace of Q^ncols kept as a row echelon basis that is not
    reduced: no stored row changes when another is added.  Normal forms are
    unique all the same, and :meth:`echelon` forms the reduced basis when
    it is read (see the module docstring).  This is the package's one
    elimination kernel; it starts empty.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: Dict[int, Vector] = {}

    def _reduce(self, v: Vector, stop: Optional[int] = None, lead: bool = False) -> Vector:
        """Reduce v in place to its normal form, zero at every pivot column;
        with ``stop``, only at those below ``stop``, and with ``lead``, only
        at those below its lead, its first nonzero non-pivot column.

        Pivots are cleared in ascending order: a row is zero left of its
        pivot, so subtracting it only touches later columns, and a pivot
        column it fills is queued in order.
        """
        rows = self._rows
        pending = sorted(j for j in v if j in rows)
        if lead:
            stop = min((j for j in v if j not in rows), default=self.ncols)
        elif stop is None:
            stop = self.ncols
        i = 0
        while i < len(pending):
            p = pending[i]
            if p >= stop:
                break
            i += 1
            f = v.pop(p, None)
            if f is None:  # cancelled, or queued twice
                continue
            for j, x in rows[p].items():
                if j == p:
                    continue
                y = v.get(j)
                if y is None:
                    v[j] = -f * x
                    if j in rows:
                        insort(pending, j, i)
                    elif lead and j < stop:
                        stop = j
                else:
                    y -= f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
                        if lead and j == stop:  # the lead cancelled
                            rest = (k for k in v if k not in rows)
                            stop = min(rest, default=self.ncols)
        return v

    def _store(self, v: Vector) -> None:
        """Add a nonzero normal form v as a basis row, its lead scaled to 1:
        negated when the lead is -1, so an ``int`` row stays ``int``."""
        lead = min(v)
        a = v[lead]
        if a == -1:
            for j in v:
                v[j] = -v[j]
        elif a != 1:
            inv = ONE / a
            for j in v:
                v[j] *= inv
        self._rows[lead] = v

    def _add(self, v: Vector) -> bool:
        """:meth:`add` of a vector the engine has just built, taken without
        the check and reduced in place."""
        v = self._reduce(v)
        if v:
            self._store(v)
        return bool(v)

    def reduce(self, v) -> Vector:
        """Normal form of v modulo the space."""
        return self._reduce(_vector(v, self.ncols))

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the space."""
        return self._add(_vector(v, self.ncols))

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def _pivots(self) -> KeysView[int]:
        """The pivot columns, one per basis row, as a read-only view."""
        return self._rows.keys()

    def echelon(self) -> List[Vector]:
        """The reduced row echelon basis, by ascending pivot column: the
        package's one back-substitution.  Rows are reduced by descending
        pivot, each one's part right of its pivot against the later rows,
        which are reduced by then."""
        done = RowSpace(self.ncols)
        for p in sorted(self._rows, reverse=True):
            tail = {j: x for j, x in self._rows[p].items() if j != p}
            done._rows[p] = {p: ONE, **done._reduce(tail)}
        return [done._rows[p] for p in sorted(done._rows)]


class ColumnFactorization:
    """A map m: Q^ncols -> Q^nrows given by its ``columns``, eliminated once
    (see the module docstring); ``kernel`` is its kernel basis."""

    def __init__(self, columns: Sequence, nrows: int):
        self._eliminate([_vector(c, nrows) for c in columns], nrows)

    @classmethod
    def _of(cls, columns: List[Vector], nrows: int) -> "ColumnFactorization":
        """The factorization of columns the engine has just built, taken as
        they are, without the check, and kept as its ``columns``."""
        factorization = cls.__new__(cls)
        factorization._eliminate(columns, nrows)
        return factorization

    def _eliminate(self, columns: List[Vector], nrows: int) -> None:
        self.nrows = nrows
        self.columns = columns
        self.kernel: List[Vector] = []
        self._space = RowSpace(nrows + len(columns))
        for j, col in enumerate(columns):
            v = self._space._reduce({**col, nrows + j: 1}, lead=True)
            if min(v) < nrows:
                self._space._store(v)
            else:
                self.kernel.append({i - nrows: x for i, x in v.items()})

    @property
    def _pivots(self) -> KeysView[int]:
        """The pivot rows of the image, as a read-only view."""
        return self._space._pivots

    def _split(self, r: Vector, stop: Optional[int] = None) -> Tuple[Vector, Vector]:
        """The normal form of r, reduced in place (with ``stop``, only at the
        pivots below row ``stop``): its first nrows coordinates, and minus
        the rest."""
        n = self.nrows
        r = self._space._reduce(r, stop)
        rest = {i: x for i, x in r.items() if i < n}
        return rest, {i - n: -x for i, x in r.items() if i >= n}

    def reduce(self, b) -> Vector:
        """Normal form of b modulo the image; empty exactly when b is in it."""
        return self._split(_vector(b, self.nrows))[0]

    def solve(self, b) -> Optional[Vector]:
        """The solution of m x = b with free variables 0, or None if there is none."""
        rest, x = self._split(_vector(b, self.nrows))
        return None if rest else x

    def _image(self) -> RowSpace:
        """The image as a fresh row space: the stored rows cut to the first
        nrows coordinates, leads 1, not reduced, under their pivots."""
        rows, n = self._space._rows, self.nrows
        image = RowSpace(n)
        image._rows = {p: {j: x for j, x in r.items() if j < n} for p, r in rows.items()}
        return image


def rref(m: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...], int]:
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns, rank)``; ``reduced`` has the rows of
    the echelon basis by ascending pivot, then ``nrows - rank`` zero rows.
    """
    space = RowSpace(m.ncols)
    for r in m.rows:
        space.add(r)
    rows = space.echelon()
    pivots = tuple(min(r) for r in rows)
    rows.extend({} for _ in range(m.nrows - len(rows)))
    return RationalMatrix(rows, ncols=m.ncols), pivots, len(pivots)


def rank(m: RationalMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: RationalMatrix) -> List[Vector]:
    """Basis of the null space {x : m x = 0}, one vector per free column."""
    return ColumnFactorization(m.columns(), m.nrows).kernel


def solve_membership(m: RationalMatrix, b) -> Optional[Vector]:
    """Solve m x = b exactly, or return None if b is outside the column space.

    Free variables are set to zero, so the returned solution is canonical.
    """
    return ColumnFactorization(m.columns(), m.nrows).solve(b)


def quotient_dim(subspace_gens: RationalMatrix, ambient_dim: int) -> int:
    """Dimension of ambient / span(rows of subspace_gens)."""
    if subspace_gens.ncols != ambient_dim:
        raise ValueError("generator rows must live in the ambient space")
    return ambient_dim - (rank(subspace_gens) if subspace_gens.nrows else 0)
