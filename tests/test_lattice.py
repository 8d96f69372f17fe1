"""Lattice layer tests.

The oracle here is deliberately independent of the package implementation:
invariant factors are recomputed from determinantal divisors (the gcd of all
k-by-k minors), a textbook characterization sharing no code with the
elimination-based Smith normal form in the package.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross import linalg
from wallcross.lattice import (
    INFINITE,
    IntegerMatrix,
    cokernel_order,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    smith_row_transform,
)


# --- independent oracle -----------------------------------------------------

def _minor_det(rows, row_idx, col_idx):
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        sign = -1 if j % 2 else 1
        total += sign * sub[0][j] * _minor_det(
            [r[:j] + r[j + 1:] for r in sub[1:]],
            range(n - 1), range(n - 1))
    return total


def oracle_invariant_factors(rows):
    """Invariant factors via gcds of k-by-k minors."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    n = min(r, c)
    dets = [1]  # d_0 = 1
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, abs(_minor_det(rows, ri, ci)))
        dets.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(dets)):
        if dets[k] == 0:
            break
        factors.append(dets[k] // dets[k - 1])
    factors += [0] * (n - len(factors))
    return factors


def oracle_rank(rows):
    """The largest k with a nonzero k-by-k minor."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    for k in range(min(r, c), 0, -1):
        if any(_minor_det(rows, ri, ci) != 0
               for ri in combinations(range(r), k)
               for ci in combinations(range(c), k)):
            return k
    return 0


def product(a, b):
    """a·b of two integer matrices given as row lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def check_decomposition(m, snf):
    umv = product(product(snf.U.to_rows(), m.to_rows()), snf.V.to_rows())
    assert tuple(x for row in umv for x in row) == snf.D.entries
    # off-diagonal zero, nonnegative diagonal, divisibility chain
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0


# --- fixed examples ---------------------------------------------------------

def test_identity_is_fixed():
    m = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    snf = smith_normal_form(m)
    check_decomposition(m, snf)
    assert snf.diagonal == (1, 1)


def test_diag_2_3_gives_1_6():
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(m)
    check_decomposition(m, snf)
    assert snf.diagonal == (1, 6)


def test_upper_triangular_2_4_0_4():
    m = IntegerMatrix.from_rows([[2, 4], [0, 4]])
    snf = smith_normal_form(m)
    check_decomposition(m, snf)
    assert list(snf.diagonal) == oracle_invariant_factors(m.to_rows()) == [2, 4]


def test_cokernel_x_to_2x_0_torsion():
    m = IntegerMatrix.from_rows([[2], [0]])  # Z -> Z^2, x -> (2x, 0)
    assert cokernel_order(m, torsion_only=True) == 2
    assert cokernel_order(m, torsion_only=False) == INFINITE


def test_cokernel_full_rank_square():
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert cokernel_order(m) == 6


def test_cokernel_zero_1x1_infinite():
    m = IntegerMatrix.from_rows([[0]])
    assert cokernel_order(m) == INFINITE
    assert cokernel_order(m, torsion_only=True) == 1


def test_kernel_basis_saturated():
    m = IntegerMatrix.from_rows([[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert product(m.to_rows(), [[x] for x in v]) == [[0]]


def test_zero_row_matrix_trivial_cokernel():
    m = IntegerMatrix(0, 3, ())
    assert cokernel_order(m) == 1


# --- randomized comparison against the oracle -------------------------------

def test_thousand_random_matrices_against_minor_oracle():
    rng = random.Random(20260824)
    for _ in range(1000):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        m = IntegerMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        check_decomposition(m, snf)
        assert list(snf.diagonal) == oracle_invariant_factors(rows)
        if r == c:
            d = _minor_det(rows, range(r), range(r))
            if d != 0:
                assert cokernel_order(m) == abs(d)


# --- property tests ---------------------------------------------------------

small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_property_decomposition_valid(rows):
    m = IntegerMatrix.from_rows(rows)
    check_decomposition(m, smith_normal_form(m))


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_property_cokernel_unimodular_invariance(rows):
    m = IntegerMatrix.from_rows(rows)
    # multiply by explicit unimodular matrices built from shears
    def shear(n, i, j, k):
        rows_ = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        if i != j:
            rows_[i][j] = k
        return rows_

    left = shear(m.rows, 0, m.rows - 1, 3)
    right = shear(m.cols, m.cols - 1, 0, -2)
    m2 = IntegerMatrix.from_rows(product(product(left, rows), right))
    for flag in (True, False):
        assert cokernel_order(m, torsion_only=flag) == \
            cokernel_order(m2, torsion_only=flag)


@settings(max_examples=60, deadline=None)
@given(small_matrix, small_matrix)
def test_property_block_diagonal_multiplicative(rows1, rows2):
    m1 = IntegerMatrix.from_rows(rows1)
    m2 = IntegerMatrix.from_rows(rows2)
    o1 = cokernel_order(m1)
    o2 = cokernel_order(m2)
    block = [row + [0] * m2.cols for row in rows1] + \
            [[0] * m1.cols + row for row in rows2]
    ob = cokernel_order(IntegerMatrix.from_rows(block))
    if o1 == INFINITE or o2 == INFINITE:
        assert ob == INFINITE
    else:
        assert ob == o1 * o2


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_property_rank_matches_rational_rank(rows):
    m = IntegerMatrix.from_rows(rows)
    expected = oracle_rank(rows)
    assert smith_normal_form(m).rank == expected
    assert linalg.rank(rows) == expected


def test_rank_of_empty_zero_and_deficient_matrices():
    cases = [[], [[]], [[0]], [[0, 0, 0]], [[0], [0]], [[0] * 4] * 3,
             # a skipped column before and after a pivot
             [[0, 1, 2], [0, 2, 4], [0, 3, 7]],
             [[1, 5, 2], [2, 10, 4], [3, 15, 7]],
             [[2, 4, 1, 3], [1, 2, 0, 5], [3, 6, 1, 8]]]
    for rows in cases:
        assert linalg.rank(rows) == oracle_rank(rows)
        if rows and rows[0]:
            m = IntegerMatrix.from_rows(rows)
            assert smith_normal_form(m).rank == oracle_rank(rows)
    assert [oracle_rank(rows) for rows in cases] == [0, 0, 0, 0, 0, 0,
                                                      2, 2, 2]


# --- one elimination, tracking only the transforms a caller reads ------------

def _seeded_matrices():
    """Shapes 1x1 to 5x5 with entries in [-9, 9], some with a zero row and
    a zero column."""
    rng = random.Random(20261019)
    out = []
    for r in range(1, 6):
        for c in range(1, 6):
            for k in range(6):
                rows = [[rng.randint(-9, 9) for _ in range(c)]
                        for _ in range(r)]
                if k % 2:
                    rows[rng.randrange(r)] = [0] * c
                if k % 3 == 1:
                    j = rng.randrange(c)
                    for row in rows:
                        row[j] = 0
                out.append(rows)
    return out


def check_paths_agree(rows):
    m = IntegerMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    assert invariant_factors(m) == snf.diagonal
    assert list(snf.diagonal) == oracle_invariant_factors(rows)
    v = snf.V.to_rows()
    assert kernel_basis(m) == [tuple(v[i][j] for i in range(m.cols))
                               for j in range(snf.rank, m.cols)]
    assert smith_row_transform(m) == snf.U


def test_transform_free_paths_match_the_full_smith_form():
    for rows in _seeded_matrices():
        check_paths_agree(rows)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_property_transform_free_paths_match(rows):
    check_paths_agree(rows)


def test_localize_at_joint_reads_the_smith_row_transform(monkeypatch):
    """The joint's unimodular coordinates are the U of the ray's full Smith
    form."""
    from tests.test_consistency import plane_wall_pair, t3, threefold
    from wallcross import consistency
    from wallcross.walls import WallStructure

    seen = []

    def spy(m):
        seen.append((m, smith_row_transform(m)))
        return seen[-1][1]

    monkeypatch.setattr(consistency, "smith_row_transform", spy)
    cx = threefold()
    s = WallStructure(complex=cx, trunc=t3(),
                      walls=tuple(plane_wall_pair(cx, t3())))
    for ray in ((1, 1, 1), (2, 3, 5), (4, 6, 1)):
        consistency.localize_at_joint(s, ((0, 1, 2), ray))
    assert [m.to_rows() for m, _u in seen] == \
        [[[1], [1], [1]], [[2], [3], [5]], [[4], [6], [1]]]
    for m, u in seen:
        assert u == smith_normal_form(m).U
        assert product(u.to_rows(), m.to_rows()) == [[1], [0], [0]]


# --- matrix times vector and the unimodularity check ------------------------

def test_mat_vec_keeps_the_entry_type():
    from fractions import Fraction

    from wallcross.linalg import mat_vec

    got = mat_vec([[1, 2], [-3, 4]], (5, -6))
    assert got == (-7, -39)
    assert all(type(x) is int for x in got)
    got = mat_vec([[1, 2], [-3, 4]], (Fraction(1, 2), Fraction(-1, 3)))
    assert got == (Fraction(-1, 6), Fraction(-17, 6))
    assert all(type(x) is Fraction for x in got)


def test_non_unimodular_transform_raises_under_optimization():
    # the check must be a real raise: ``python -O`` strips assert statements;
    # every path that builds a transform checks it: the full Smith form,
    # the kernel (V) and the joint's unimodular coordinates (U)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    script = ("import wallcross.lattice as L\n"
              "from tests.test_consistency import plane_wall_pair, t3, "
              "threefold\n"
              "from wallcross.consistency import localize_at_joint\n"
              "from wallcross.walls import WallStructure\n"
              "cx = threefold()\n"
              "s = WallStructure(complex=cx, trunc=t3(),\n"
              "                  walls=tuple(plane_wall_pair(cx, t3())))\n"
              "L.det = lambda rows: 2\n"
              "calls = [\n"
              "    lambda: L.smith_normal_form(\n"
              "        L.IntegerMatrix.from_rows([[2, 4]])),\n"
              "    lambda: L.kernel_basis(L.IntegerMatrix.from_rows([[2, 4]])),\n"
              "    lambda: localize_at_joint(s, ((0, 1, 2), (2, 3, 5))),\n"
              "]\n"
              "for k, call in enumerate(calls):\n"
              "    try:\n"
              "        call()\n"
              "    except AssertionError:\n"
              "        continue\n"
              "    raise SystemExit(f'case {k} did not raise')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# --- the fraction-free determinant -------------------------------------------

def _elementary_product(rng, n, steps):
    """A product of row shears and row swaps, with its determinant."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    sign = 1
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
            sign = -sign
        else:
            k = rng.randint(-3, 3)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return rows, sign


def test_det_matches_minor_oracle_and_stays_integral():
    from wallcross.linalg import det

    rng = random.Random(20261018)
    cases = []
    for n in range(1, 7):
        for _ in range(12):
            cases.append([[rng.randint(-9, 9) for _ in range(n)]
                          for _ in range(n)])
        if n > 1:
            # singular: the last row a combination of two others
            rows = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n - 1)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
            cases.append(rows)
            # a zero leading entry forces a row swap
            rows = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n)]
            rows[0][0] = 0
            cases.append(rows)
            cases.append([[0] * n] + rows[1:])
    for rows in cases:
        got = det(rows)
        assert type(got) is int
        assert got == _minor_det(rows, range(len(rows)), range(len(rows)))
    for steps in (40, 200):
        rows, sign = _elementary_product(rng, 12, steps)
        got = det(rows)
        assert type(got) is int and got == sign
        scaled = [[3 * x for x in rows[0]]] + rows[1:]
        assert det(scaled) == 3 * sign
    assert det([]) == 1

