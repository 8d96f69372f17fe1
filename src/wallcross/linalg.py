"""Exact rational linear algebra over fractions.Fraction.

Small dense matrices only; used for ranks, kernels and linear solves in the
polyhedral and tropical machinery.  Matrices are tuples/lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def to_fraction_matrix(rows: Iterable[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    """m·v in the entries' own arithmetic: integers in, integers out."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """a·b in the entries' own arithmetic: integers in, integers out."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def _rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = [row[:] for row in m]
    rows = len(m)
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


def rank(m: Sequence[Sequence]) -> int:
    if not m:
        return 0
    _, pivots = _rref(to_fraction_matrix(m))
    return len(pivots)


def nullspace(m: Sequence[Sequence], cols: int | None = None) -> list[Vector]:
    """Basis of the right kernel of m (list of column vectors as tuples)."""
    mm = to_fraction_matrix(m)
    if cols is None:
        cols = len(mm[0]) if mm else 0
    if not mm:
        return [tuple(Fraction(1 if i == j else 0) for i in range(cols))
                for j in range(cols)]
    red, pivots = _rref(mm)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution of m x = b, or None if inconsistent."""
    mm = to_fraction_matrix(m)
    cols = len(mm[0]) if mm else 0
    aug = [row + [Fraction(x)] for row, x in zip(mm, b)]
    red, pivots = _rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return tuple(x)


def cone_coords(generators: Sequence[Sequence], v: Sequence) -> Vector | None:
    """Nonnegative λ with Σ λ_i·generators[i] = v, or None if v is outside
    the cone."""
    cols = [[Fraction(g[j]) for g in generators] for j in range(len(v))]
    sol = solve(cols, v)
    if sol is None or any(c < 0 for c in sol):
        return None
    return sol


def det(m: Sequence[Sequence]) -> Fraction:
    mm = to_fraction_matrix(m)
    n = len(mm)
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mm[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mm[c], mm[piv] = mm[piv], mm[c]
            result = -result
        result *= mm[c][c]
        inv = mm[c][c]
        for i in range(c + 1, n):
            if mm[i][c] != 0:
                f = mm[i][c] / inv
                mm[i] = [x - f * y for x, y in zip(mm[i], mm[c])]
    return result
