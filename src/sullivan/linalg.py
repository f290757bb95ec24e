"""Exact linear algebra over the rationals.

Entries are fractions.Fraction, so there is no rounding anywhere.  The
engine's matrices (cochain maps of one degree, the ideal of the pure
quotient) are almost all zeros, so vectors and matrix rows are sparse:
``{index: nonzero value}``.  A vector may also be given densely, as a
sequence, wherever one is passed in.

All elimination is done by one kernel, :class:`RowSpace`, which keeps a row
space as its reduced row echelon basis: every pivot is 1 and is the only
nonzero entry of its column.  That basis is unique for a fixed column order,
whatever order the rows arrive in, and so is the normal form of a vector
modulo the space (zero at every pivot column).  ``rref`` picks the first
nonzero column as the next pivot and scales every pivot to 1.

A map m: Q^ncols -> Q^nrows is eliminated once, as a
:class:`ColumnFactorization`: column j goes into a ``RowSpace`` with one
extra unit coordinate, nrows + j, in column order.  A column is stored
exactly when it is independent of the earlier ones, so the stored columns
are the pivot columns of m, and they are independent.  Hence every answer
read off the factorization is unique, and ``kernel_basis`` and
``solve_membership`` are views of it:

* a column that is not stored leaves only its unit part: the kernel vector
  with that free variable 1 and the others 0, free columns ascending;
* the stored rows, cut to the first nrows coordinates, are the reduced row
  echelon basis of the image;
* b is in the image exactly when its normal form vanishes on the first
  nrows coordinates; minus its unit part is then the solution of m x = b
  with every free variable 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Vector = Dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def _vector(v: Union[Vector, Sequence], n: int) -> Vector:
    """v as a fresh sparse vector of length n: {index: nonzero Fraction}."""
    dense = not isinstance(v, dict)
    out = {
        j: x if isinstance(x, Fraction) else Fraction(x)
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
    """A subspace of Q^ncols kept as its reduced row echelon basis.

    This is the package's one elimination kernel.  ``echelon`` seeds the
    space with rows that are already in reduced row echelon form, such as
    the first ``rank`` rows of an :func:`rref` result; they are taken as
    they are, without elimination.
    """

    def __init__(self, ncols: int, echelon: Iterable[Vector] = ()):
        self.ncols = ncols
        self._rows: Dict[int, Vector] = {min(r): dict(r) for r in echelon}

    def _reduce(self, v: Vector) -> Vector:
        """Reduce v in place to its normal form, zero at every pivot column.

        The other rows vanish at a row's pivot, so each pivot is cleared by
        subtracting its row once, with v's own coefficient there.
        """
        rows = self._rows
        for p in [j for j in v if j in rows]:
            f = v.pop(p)
            for j, x in rows[p].items():
                if j != p:
                    y = v.get(j, ZERO) - f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def _store(self, v: Vector) -> None:
        """Add a nonzero normal form v as a basis row: scale its lead to 1
        and clear that column from the other rows."""
        lead = min(v)
        if v[lead] != 1:
            inv = ONE / v[lead]
            for j in v:
                v[j] *= inv
        for row in self._rows.values():
            f = row.get(lead)
            if f:
                for j, x in v.items():
                    y = row.get(j, ZERO) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        self._rows[lead] = v

    def reduce(self, v) -> Vector:
        """Normal form of v modulo the space."""
        return self._reduce(_vector(v, self.ncols))

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the space."""
        v = self._reduce(_vector(v, self.ncols))
        if v:
            self._store(v)
        return bool(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def echelon(self) -> List[Vector]:
        """The reduced row echelon basis, by ascending pivot column."""
        return [self._rows[p] for p in sorted(self._rows)]


class ColumnFactorization:
    """A map m: Q^ncols -> Q^nrows given by its ``columns``, eliminated once
    (see the module docstring); ``kernel`` is its kernel basis."""

    def __init__(self, columns: Sequence, nrows: int):
        self.nrows = nrows
        self.columns: List[Vector] = [_vector(c, nrows) for c in columns]
        self.kernel: List[Vector] = []
        self._space = RowSpace(nrows + len(self.columns))
        for j, col in enumerate(self.columns):
            v = self._space._reduce({**col, nrows + j: ONE})
            if min(v) < nrows:
                self._space._store(v)
            else:
                self.kernel.append({i - nrows: x for i, x in v.items()})

    def _split(self, b) -> Tuple[Vector, Vector]:
        """The normal form of b: its first nrows coordinates, and minus the rest."""
        n = self.nrows
        r = self._space._reduce(_vector(b, n))
        rest = {i: x for i, x in r.items() if i < n}
        return rest, {i - n: -x for i, x in r.items() if i >= n}

    def reduce(self, b) -> Vector:
        """Normal form of b modulo the image; empty exactly when b is in it."""
        return self._split(b)[0]

    def solve(self, b) -> Optional[Vector]:
        """The solution of m x = b with free variables 0, or None if there is none."""
        rest, x = self._split(b)
        return None if rest else x

    def echelon(self) -> List[Vector]:
        """Reduced row echelon basis of the image, by ascending pivot."""
        n = self.nrows
        return [{i: x for i, x in r.items() if i < n} for r in self._space.echelon()]


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
