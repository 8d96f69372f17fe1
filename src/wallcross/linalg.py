"""Exact linear algebra on small dense matrices.

Linear solves (and cone coordinates through them) work over
fractions.Fraction and serve the polyhedral and tropical machinery; integer
kernels live in ``lattice``.  ``rank`` and ``det`` are fraction-free: they
take an integer matrix and run Bareiss elimination on it, so every entry
stays an ``int``.  Matrices are tuples/lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    """m·v in the entries' own arithmetic: integers in, integers out."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _rref(m: Matrix, cols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    Pivots are taken in the first ``cols`` columns only (all by default);
    the columns after them are carried along as right-hand sides.
    """
    m = [row[:] for row in m]
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve_columns(m: Sequence[Sequence], bs: Sequence[Sequence]
                  ) -> tuple[list[Vector | None], int]:
    """One exact solution of m x = b for each b in bs (None where m x = b
    is inconsistent), and the rank of m, all from one elimination of m
    augmented by every b."""
    cols = len(m[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs]
           for i, row in enumerate(m)]
    red, pivots = _rref(aug, cols)
    rk = len(pivots)
    out: list[Vector | None] = []
    for k in range(cols, cols + len(bs)):
        if any(row[k] != 0 for row in red[rk:]):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            x[p] = red[r][k]
        out.append(tuple(x))
    return out, rk


def solve(m: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution of m x = b, or None if inconsistent."""
    [x], _rank = solve_columns(m, [b])
    return x


def cone_coords(generators: Sequence[Sequence], v: Sequence) -> Vector | None:
    """Nonnegative λ with Σ λ_i·generators[i] = v, or None if v is outside
    the cone."""
    cols = [[g[j] for g in generators] for j in range(len(v))]
    sol = solve(cols, v)
    if sol is None or any(c < 0 for c in sol):
        return None
    return sol


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals.

    Bareiss fraction-free row echelon elimination, as in ``det``: after each
    pivot step every remaining entry is a minor of the row-permuted matrix
    on the pivot columns so far plus its own column, so the division by the
    previous pivot is exact.  A column with no nonzero entry left below the
    pivot rows is skipped.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rk, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(rk, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        p, top = a[rk][c], a[rk]
        for i in range(rk + 1, rows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        rk += 1
        if rk == rows:
            break
    return rk


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, as an ``int``.

    Bareiss fraction-free elimination: after step k every remaining entry
    is a (k+1)-by-(k+1) minor of the row-permuted matrix, so the division
    by the previous pivot is exact and no fraction ever arises.
    """
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, top = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1
