"""Exact linear algebra over the rationals.

Everything here is dense and uses fractions.Fraction entries, so there is no
rounding anywhere.  Matrices are small throughout the engine (cochain spaces
of a fixed degree), which keeps plain Gauss-Jordan elimination comfortable.

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
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = List[Fraction]


def _frac_row(row: Iterable) -> Vector:
    return [x if isinstance(x, Fraction) else Fraction(x) for x in row]


class RationalMatrix:
    """A dense matrix over Q, stored row major.

    ``ncols`` is stored explicitly so matrices with zero rows or zero columns
    stay well defined; both shapes occur naturally at the ends of a cochain
    complex.
    """

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.entries = [_frac_row(r) for r in rows]
        if ncols is None:
            if not self.entries:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(self.entries[0])
        self.ncols = ncols
        self.nrows = len(self.entries)
        for r in self.entries:
            if len(r) != ncols:
                raise ValueError("ragged rows in matrix")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int) -> "RationalMatrix":
        cols = [_frac_row(c) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong length")
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]
        return cls(rows, ncols=len(cols))

    def column(self, j: int) -> Vector:
        return [self.entries[i][j] for i in range(self.nrows)]

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalMatrix({self.entries!r}, ncols={self.ncols})"


def rref(m: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...], int]:
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns, rank)``.  Deterministic: the pivot of
    each step is the first nonzero entry of the first unfinished column.
    """
    a = [list(r) for r in m.entries]
    nrows, ncols = m.nrows, m.ncols
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if a[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    return RationalMatrix(a, ncols=ncols), tuple(pivots), len(pivots)


def rank(m: RationalMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: RationalMatrix) -> List[Vector]:
    """Basis of the null space {x : m x = 0}, one vector per free column."""
    reduced, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis: List[Vector] = []
    for f in free:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][f]
        basis.append(v)
    return basis


def solve_membership(m: RationalMatrix, b: Sequence) -> Optional[Vector]:
    """Solve m x = b exactly, or return None if b is outside the column space.

    Free variables are set to zero, so the returned solution is canonical.
    """
    b = _frac_row(b)
    if len(b) != m.nrows:
        raise ValueError("right hand side of wrong length")
    if m.ncols == 0:
        return [] if all(x == 0 for x in b) else None
    aug = RationalMatrix(
        [list(r) + [b[i]] for i, r in enumerate(m.entries)], ncols=m.ncols + 1
    )
    reduced, pivots, _ = rref(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][m.ncols]
    return x


def quotient_dim(subspace_gens: RationalMatrix, ambient_dim: int) -> int:
    """Dimension of ambient / span(rows of subspace_gens)."""
    if subspace_gens.ncols != ambient_dim:
        raise ValueError("generator rows must live in the ambient space")
    r = rank(subspace_gens) if subspace_gens.nrows else 0
    if r > ambient_dim:
        raise ValueError("rank exceeds ambient dimension")
    return ambient_dim - r


class RowSpace:
    """Incremental row space kept in echelon form.

    Used wherever the engine extends a basis deterministically (for example
    cohomology representatives on top of a boundary space).
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: List[Tuple[int, Vector]] = []  # (lead column, row), sorted

    def reduce(self, v: Sequence) -> Vector:
        v = _frac_row(list(v))
        for lead, row in self._rows:
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v: Sequence) -> bool:
        """Insert v; True if it enlarged the space."""
        res = self.reduce(v)
        lead = next((j for j, x in enumerate(res) if x != 0), None)
        if lead is None:
            return False
        inv = Fraction(1) / res[lead]
        res = [x * inv for x in res]
        for i, (l, row) in enumerate(self._rows):
            if row[lead] != 0:
                f = row[lead]
                self._rows[i] = (l, [a - f * b for a, b in zip(row, res)])
        self._rows.append((lead, res))
        self._rows.sort(key=lambda t: t[0])
        return True

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self._rows)
