"""Exact linear algebra on small dense matrices.

Every elimination here is fraction-free: entries stay ``int`` and each
division is exact.  ``rank`` and ``det`` run Bareiss elimination on an
integer matrix.  ``gauss_jordan`` runs its Gauss–Jordan form on a matrix
augmented by right-hand sides; ``solve_columns`` (and cone coordinates
through it) builds a ``Fraction`` only for each pivot coordinate of a
solution.  They serve the polyhedral and tropical machinery; integer
kernels live in ``lattice``.  Matrices are tuples/lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


Vector = tuple[Fraction, ...]


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    """m·v in the entries' own arithmetic: integers in, integers out."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _integer_row(row: list) -> list[int]:
    """A row of ints and ``Fraction``s as ints: the row itself when it holds
    no ``Fraction``, else scaled by the lcm of its denominators."""
    if Fraction not in map(type, row):
        return row
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def gauss_jordan(m: Sequence[Sequence], bs: Sequence[Sequence]
                 ) -> tuple[list[int], int, list[list[int] | None]]:
    """Fraction-free Gauss–Jordan elimination of m augmented by every b in
    bs, all at once: (the pivot columns of m, the common pivot d, and for
    each b the numerators of its solution at the pivot columns, or None
    where m x = b is inconsistent).

    The solution with every free coordinate 0 is x[pivots[k]] = nums[k] / d.
    A row holding ``Fraction`` entries is first scaled by the lcm of its
    denominators.  Pivots are the first nonzero entry of each column,
    top-down, so the pivot columns and the solution are those of the
    rational reduced row echelon form.  Each pivot step updates every other
    row, in the columns after the pivot's (the only ones read later), by
    (p·x − f·y) // prev, with p the pivot, f the row's entry in the pivot
    column, y the pivot row's entry and prev the previous pivot.  As in
    ``det`` every such entry is a minor of the scaled matrix, so the
    division is exact, and the pivot rows share one pivot, the last: d
    (1 with none).
    """
    cols = len(m[0]) if m else 0
    a = [_integer_row([*row, *(b[i] for b in bs)])
         for i, row in enumerate(m)]
    rows, width = len(a), cols + len(bs)
    pivots: list[int] = []
    r, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, top = a[r][c], a[r]
        for i in range(rows):
            if i != r:
                row = a[i]
                f = row[c]
                for j in range(c + 1, width):
                    row[j] = (p * row[j] - f * top[j]) // prev
        pivots.append(c)
        prev = p
        r += 1
        if r == rows:
            break
    nums: list[list[int] | None] = []
    for k in range(cols, width):
        col = [row[k] for row in a]
        nums.append(None if any(col[r:]) else col[:r])
    return pivots, prev, nums


def solve_columns(m: Sequence[Sequence], bs: Sequence[Sequence]
                  ) -> tuple[list[Vector | None], int]:
    """One exact solution of m x = b for each b in bs (None where m x = b
    is inconsistent), and the rank of m, all from one ``gauss_jordan``."""
    cols = len(m[0]) if m else 0
    pivots, d, nums = gauss_jordan(m, bs)
    out: list[Vector | None] = []
    for col in nums:
        if col is None:
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for p, num in zip(pivots, col):
            x[p] = Fraction(num, d)
        out.append(tuple(x))
    return out, len(pivots)


def cone_coords(generators: Sequence[Sequence], v: Sequence) -> Vector | None:
    """Nonnegative λ with Σ λ_i·generators[i] = v, or None if v is outside
    the cone."""
    cols = [[g[j] for g in generators] for j in range(len(v))]
    [sol], _rank = solve_columns(cols, [v])
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
