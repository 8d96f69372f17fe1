"""Exact integer-lattice linear algebra.

Smith normal form over the integers with unimodular transforms, cokernel
orders, and integer kernels.  These are the primitives behind every lattice
index (wall multiplicities, gluing multiplicities).

One elimination (``_eliminate``) brings a matrix to Smith form.  Each entry
point tracks only the transforms it reads: ``smith_normal_form`` both U
and V, ``kernel_basis`` V, ``smith_row_transform`` U and
``invariant_factors`` (behind ``cokernel_order`` on a wide matrix or for
its torsion) neither.  Every transform that is built is checked
unimodular.  Each entry point keeps the diagonal it reaches on the
matrix, so ``invariant_factors`` of a matrix already eliminated runs no
elimination.  The elimination leaves out only arithmetic that cannot
change a result (a pivot search past an entry of size 1, column steps on
rows whose pivot-column entry is zero), so D, U and V do not depend on
those shortcuts.  A square or tall matrix's full cokernel order needs no
Smith form: it is read from ``linalg.det`` or from the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from typing import Iterable, Sequence

from .linalg import det

INFINITE = "infinite"


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix with arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major, length rows*cols
    # invariant factors, kept by the first elimination of this matrix
    _factors: tuple[int, ...] | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry array length must equal rows*cols")
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"non-integer matrix entry {e!r}")

    @classmethod
    def _make(cls, rows: int, cols: int, int_rows: Iterable[Sequence[int]]
              ) -> "IntegerMatrix":
        """A matrix from computed integer rows, without re-checking them."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries",
                           tuple(x for row in int_rows for x in row))
        object.__setattr__(m, "_factors", None)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        """The matrix with these rows; a ragged row or a non-integer entry
        is a ``ValueError``."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


@dataclass(frozen=True)
class SmithDecomposition:
    """U·M·V = D with U, V unimodular and D diagonal, d1 | d2 | ... ."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _eliminate(a: list[list[int]], cols: int,
               u: list[list[int]] | None = None,
               vt: list[list[int]] | None = None) -> None:
    """Bring the integer rows ``a`` (``cols`` columns) to Smith form in place.

    Pivot selection: smallest nonzero absolute value in the remaining block,
    first in row-major order (keeps intermediate entries small); the search
    stops at the first entry of size 1, which no later entry can undercut.
    Row and column t are then cleared by gcd descent: a row pass reduces
    column t below the pivot, a column pass reduces row t right of it, and
    each pass swaps a nonzero remainder into the pivot, until a round swaps
    nothing.  After a row pass without a swap, column t is zero below the
    pivot, so a column step changes only the pivot row of ``a`` until a
    column swap brings other entries into column t.

    Each row step is also applied to ``u`` and each column step to ``vt``,
    which holds the columns of V as its rows, when the caller passes them.
    The steps depend on ``a`` alone, so tracking a transform or not changes
    neither D nor the other transform.  Deterministic.
    """
    r, c = len(a), cols
    t = 0
    n = min(r, c)
    while t < n:
        # locate smallest-|entry| nonzero pivot in the trailing block
        best, size = None, 0
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                x = row[j]
                if x and (best is None or abs(x) < size):
                    best, size = (i, j), abs(x)
                    if size == 1:
                        break
            if size == 1:
                break
        if best is None:
            break
        i, j = best
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            _swap_cols(a, vt, t, j)
        # clear row and column t by gcd descent
        while True:
            dirty = False
            piv = a[t]
            for i in range(t + 1, r):
                row = a[i]
                if row[t]:
                    q = row[t] // piv[t]
                    row = a[i] = [x - q * y for x, y in zip(row, piv)]
                    if u is not None:
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if row[t]:  # remainder smaller than pivot: swap up
                        a[t], a[i] = row, piv
                        piv = row
                        if u is not None:
                            u[t], u[i] = u[i], u[t]
                        dirty = True
            clear = not dirty  # column t is zero below the pivot
            for j in range(t + 1, c):
                if piv[j]:
                    q = piv[j] // piv[t]
                    if clear:
                        piv[j] -= q * piv[t]
                    else:
                        for row in a:
                            row[j] -= q * row[t]
                    if vt is not None:
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    if piv[j]:
                        _swap_cols(a, vt, t, j)
                        clear = False
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            _negate_row(a, u, t)
        t += 1

    # enforce divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                # fold d_{i+1} into position (i, i+1) and rediagonalize 2x2
                _add_col(a, vt, i + 1, i, 1)  # col i += col i+1: dj at (i+1,i)
                g = gcd(di, dj)
                # Bezout: s*di + t*dj = g
                s, tt = _bezout(di, dj)
                # row i := s*row i + t*row (i+1)
                _combine_rows(a, i, i + 1, s, tt, di // g, dj // g)
                if u is not None:
                    _combine_rows(u, i, i + 1, s, tt, di // g, dj // g)
                # now a[i][i] = g; clear the off entries
                _add_row(a, u, i, i + 1, -(a[i + 1][i] // g))
                _add_col(a, vt, i, i + 1, -(a[i][i + 1] // g))
                if a[i][i] < 0:
                    _negate_row(a, u, i)
                if a[i + 1][i + 1] < 0:
                    _negate_row(a, u, i + 1)
                changed = True


def _swap_cols(a, vt, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    if vt is not None:
        vt[i], vt[j] = vt[j], vt[i]


def _add_row(a, u, src, dst, mult):  # row dst += mult * row src
    a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
    if u is not None:
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]


def _add_col(a, vt, src, dst, mult):  # col dst += mult * col src
    for row in a:
        row[dst] += mult * row[src]
    if vt is not None:
        vt[dst] = [x + mult * y for x, y in zip(vt[dst], vt[src])]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    if u is not None:
        u[i] = [-x for x in u[i]]


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _check_unimodular(*transforms: list[list[int]]) -> None:
    # a real raise: ``python -O`` strips assert statements
    if any(abs(det(t)) != 1 for t in transforms):
        raise AssertionError("Smith normal form transforms are not unimodular")


def smith_normal_form(M: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations, with both
    transforms (see ``_eliminate``)."""
    r, c = M.rows, M.cols
    a, u, vt = M.to_rows(), _identity_rows(r), _identity_rows(c)
    _eliminate(a, c, u, vt)
    _check_unimodular(u, vt)   # det(V) = det(V^T)
    _keep_factors(M, a)
    return SmithDecomposition(U=IntegerMatrix._make(r, r, u),
                              D=IntegerMatrix._make(r, c, a),
                              V=IntegerMatrix._make(c, c, zip(*vt)))


def _keep_factors(M: IntegerMatrix, a: list[list[int]]) -> tuple[int, ...]:
    """Keep the diagonal of ``a``, M brought to Smith form, on M."""
    factors = tuple(a[i][i] for i in range(min(M.rows, M.cols)))
    object.__setattr__(M, "_factors", factors)
    return factors


def invariant_factors(M: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of M: the one an earlier elimination of
    M kept on it, else from an elimination that builds neither
    transform."""
    if M._factors is not None:
        return M._factors
    a = M.to_rows()
    _eliminate(a, M.cols)
    return _keep_factors(M, a)


def smith_row_transform(M: IntegerMatrix) -> IntegerMatrix:
    """The U of the Smith form U·M·V = D, from an elimination that builds
    U alone."""
    a, u = M.to_rows(), _identity_rows(M.rows)
    _eliminate(a, M.cols, u=u)
    _check_unimodular(u)
    _keep_factors(M, a)
    return IntegerMatrix._make(M.rows, M.rows, u)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(s, t) with s*x + t*y = gcd(x, y)."""
    old_r, rr = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _combine_rows(a, i, j, s, t, x, y):
    """Unimodularly replace (row_i, row_j) by (s·row_i + t·row_j, ...).

    The second output row is -y·row_i + x·row_j, where x = d_i/g, y = d_j/g,
    making the 2x2 transform [[s, t], [-y, x]] have determinant s·x + t·y = 1.
    """
    ai, aj = a[i], a[j]
    a[i] = [s * p + t * q for p, q in zip(ai, aj)]
    a[j] = [-y * p + x * q for p, q in zip(ai, aj)]


def cokernel_order(M: IntegerMatrix, torsion_only: bool = False):
    """Order of coker(M: Z^cols -> Z^rows).

    With ``torsion_only`` the free part is ignored (product of the nonzero
    invariant factors).  Otherwise returns the full order: the product of
    invariant factors when M has full row rank over Q, else ``INFINITE``.
    The full order is read from the shape where it can be, with no Smith
    elimination: a matrix with more rows than columns never has full row
    rank, and a square one has order |det M|, infinite when det M = 0.
    """
    if not torsion_only:
        if M.rows > M.cols:
            return INFINITE
        if M.rows == M.cols:
            return abs(det(M.to_rows())) or INFINITE
    nonzero = [d for d in invariant_factors(M) if d != 0]
    if torsion_only or len(nonzero) == M.rows:
        return prod(nonzero)
    return INFINITE


def kernel_basis(M: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel of M (columns of V past rank),
    from an elimination that builds V alone."""
    a, vt = M.to_rows(), _identity_rows(M.cols)
    _eliminate(a, M.cols, vt=vt)
    _check_unimodular(vt)
    _keep_factors(M, a)
    rank = sum(1 for i in range(min(M.rows, M.cols)) if a[i][i] != 0)
    return [tuple(col) for col in vt[rank:]]
