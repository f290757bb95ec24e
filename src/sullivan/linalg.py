"""Exact linear algebra over the rationals.

Entries are fractions.Fraction, so there is no rounding anywhere.  The
engine's matrices (cochain maps of one degree, the ideal of the pure
quotient) are almost all zeros, so vectors and matrix rows are sparse:
``{index: nonzero value}``.  A vector may also be given densely, as a
sequence, wherever one is passed in.

All elimination is done by one kernel, :class:`RowSpace`, which keeps a row
space as its reduced row echelon basis: every pivot is 1 and is the only
nonzero entry of its column.  That basis is unique for a fixed column order,
whatever order the rows arrive in, so ``rref``, ``kernel_basis``,
``solve_membership`` and ``quotient_dim`` are views of it.

Conventions that the rest of the package relies on:

* ``rref`` picks the first nonzero column as the next pivot and scales every
  pivot to 1, so the reduced form of a matrix is canonical.
* ``kernel_basis`` sets one free variable to 1 and the others to 0, walking
  the free columns in ascending order.
* ``solve_membership`` sets all free variables to 0.

Those three choices make every basis and representative produced by the
engine deterministic.
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

    def _insert(self, v: Vector) -> bool:
        """Insert a fresh vector v; True if it enlarged the space."""
        v = self._reduce(v)
        if not v:
            return False
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
        return True

    def reduce(self, v) -> Vector:
        """Normal form of v modulo the space."""
        return self._reduce(_vector(v, self.ncols))

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the space."""
        return self._insert(_vector(v, self.ncols))

    def contains(self, v) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def echelon(self) -> List[Vector]:
        """The reduced row echelon basis, by ascending pivot column."""
        return [self._rows[p] for p in sorted(self._rows)]


def rref(m: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...], int]:
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns, rank)``; ``reduced`` has the rows of
    the echelon basis by ascending pivot, then ``nrows - rank`` zero rows.
    """
    space = RowSpace(m.ncols)
    for r in m.rows:
        space._insert(dict(r))
    rows = space.echelon()
    pivots = tuple(min(r) for r in rows)
    rows.extend({} for _ in range(m.nrows - len(rows)))
    return RationalMatrix(rows, ncols=m.ncols), pivots, len(pivots)


def rank(m: RationalMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: RationalMatrix) -> List[Vector]:
    """Basis of the null space {x : m x = 0}, one vector per free column."""
    reduced, pivots, r = rref(m)
    pivot_set = set(pivots)
    basis = {j: {j: ONE} for j in range(m.ncols) if j not in pivot_set}
    for row, p in zip(reduced.rows[:r], pivots):
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return list(basis.values())


def solve_membership(m: RationalMatrix, b) -> Optional[Vector]:
    """Solve m x = b exactly, or return None if b is outside the column space.

    Free variables are set to zero, so the returned solution is canonical.
    """
    b = _vector(b, m.nrows)
    aug = [dict(r) for r in m.rows]
    for i, x in b.items():
        aug[i][m.ncols] = x
    reduced, pivots, r = rref(RationalMatrix(aug, ncols=m.ncols + 1))
    if m.ncols in pivots:
        return None
    return {p: row[m.ncols] for row, p in zip(reduced.rows[:r], pivots) if m.ncols in row}


def quotient_dim(subspace_gens: RationalMatrix, ambient_dim: int) -> int:
    """Dimension of ambient / span(rows of subspace_gens)."""
    if subspace_gens.ncols != ambient_dim:
        raise ValueError("generator rows must live in the ambient space")
    r = rank(subspace_gens) if subspace_gens.nrows else 0
    if r > ambient_dim:
        raise ValueError("rank exceeds ambient dimension")
    return ambient_dim - r
