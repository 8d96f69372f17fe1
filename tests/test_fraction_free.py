"""The fraction-free steps of the lattice layer, against rational oracles.

``linalg.gauss_jordan`` solves over the integers and ``lattice.cokernel_order``
reads a square or tall matrix's full order without a Smith form.  The
oracles here are a textbook ``Fraction`` row reduction kept test-side and the
determinantal minors of ``test_lattice``; neither shares code with the
package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from wallcross import lattice, linalg, tropical
from wallcross.errors import TropicalError
from wallcross.geometry import DivisorTable, build_complex
from wallcross.lattice import INFINITE, IntegerMatrix, cokernel_order

from tests import test_lattice, test_multiplicity


def fraction_rref_solutions(m, bs):
    """Each b's solution of m x = b with every free coordinate 0 (None where
    inconsistent), and the rank of m, by reduced row echelon form over
    ``Fraction``, pivoting on the first nonzero entry of each column."""
    cols = len(m[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs]
         for i, row in enumerate(m)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    rk = len(pivots)
    out = []
    for k in range(cols, cols + len(bs)):
        if any(row[k] != 0 for row in a[rk:]):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            x[p] = a[r][k]
        out.append(tuple(x))
    return out, rk


def random_system(rng, fractions):
    """m (1-5 x 1-5, some rows dependent, some columns zero) and 1-3
    right-hand sides, half of them in the column span of m."""
    def entry():
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    r, c = rng.randint(1, 5), rng.randint(1, 5)
    m = [[entry() for _ in range(c)] for _ in range(r)]
    if r > 1 and rng.random() < 0.3:
        i, j = rng.randrange(r), rng.randrange(r)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[rng.randrange(r)] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.2:
        zero = rng.randrange(c)
        for row in m:
            row[zero] = 0
    bs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            x = [entry() for _ in range(c)]
            bs.append(list(linalg.mat_vec(m, x)))
        else:
            bs.append([entry() for _ in range(r)])
    return m, bs


@pytest.mark.parametrize("fractions", [False, True])
def test_solve_columns_matches_the_fraction_oracle(fractions):
    rng = random.Random(20261019 + fractions)
    for _ in range(400):
        m, bs = random_system(rng, fractions)
        sols, rk = linalg.solve_columns(m, bs)
        assert (sols, rk) == fraction_rref_solutions(m, bs)
        assert rk == test_lattice.oracle_rank(m)
        for b, x in zip(bs, sols):
            augmented = [row + [bi] for row, bi in zip(m, b)]
            inconsistent = test_lattice.oracle_rank(augmented) > rk
            assert (x is None) == inconsistent
            if x is not None:
                assert all(type(xi) is Fraction for xi in x)
                assert list(linalg.mat_vec(m, x)) == b


def test_gauss_jordan_stays_integral():
    rng = random.Random(7)
    for _ in range(200):
        m, bs = random_system(rng, fractions=True)
        pivots, d, nums = linalg.gauss_jordan(m, bs)
        assert type(d) is int and d != 0
        assert all(type(v) is int for col in nums if col for v in col)
        assert len(pivots) == test_lattice.oracle_rank(m)


def test_in_lattice_basis_reads_integer_coordinates():
    """Integer coordinates in a rank-2 sublattice of Z^3 where the rational
    solution is integral, and the two errors where it is not or where
    there is none.  The vectors are (a·l1 + b·l2) / q where that is
    integral, else random."""
    rng = random.Random(11)
    for _ in range(300):
        lattice_ = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        if test_lattice.oracle_rank(lattice_) < 2:
            continue
        basis = [[b[j] for b in lattice_] for j in range(3)]
        a, b, q = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3)
        vec = [a * x + b * y for x, y in zip(*lattice_)]
        if any(v % q for v in vec):
            vec = [rng.randint(-6, 6) for _ in range(3)]
        else:
            vec = [v // q for v in vec]
        [x], _ = fraction_rref_solutions(basis, [vec])
        if x is None:
            with pytest.raises(TropicalError, match="leaves the stratum"):
                tropical._in_lattice_basis([vec], lattice_)
        elif any(xi.denominator != 1 for xi in x):
            with pytest.raises(TropicalError, match="is not in the stratum"):
                tropical._in_lattice_basis([vec], lattice_)
        else:
            coords = tropical._in_lattice_basis([vec], lattice_)
            assert coords == [[int(xi) for xi in x]]
            assert all(type(c) is int for c in coords[0])


def seeded_shapes():
    """Eight matrices of each shape 1x1 to 5x5 with entries in [-9, 9],
    one with a zero row and one with a repeated row, by name."""
    rng = random.Random(301)
    out = {}
    for r in range(1, 6):
        for c in range(1, 6):
            for k in range(8):
                rows = [[rng.randint(-9, 9) for _ in range(c)]
                        for _ in range(r)]
                if k == 1:
                    rows[rng.randrange(r)] = [0] * c
                if k == 2 and r > 1:
                    rows[0] = rows[-1][:]
                out[f"{r}x{c}-{k}"] = rows
    return out


@pytest.mark.parametrize("name", sorted(seeded_shapes()))
def test_cokernel_order_matches_the_minors(name):
    rows = seeded_shapes()[name]
    factors = test_lattice.oracle_invariant_factors(rows)
    nonzero = [d for d in factors if d != 0]
    m = IntegerMatrix.from_rows(rows)
    full = prod(nonzero) if test_lattice.oracle_rank(rows) == len(rows) \
        else INFINITE
    assert cokernel_order(m) == full
    assert cokernel_order(m, torsion_only=True) == prod(nonzero)


def test_full_order_of_square_and_tall_matrices_takes_no_smith_form(
        monkeypatch):
    eliminations = []
    real_eliminate = lattice._eliminate

    def eliminate(a, cols, u=None, vt=None):
        eliminations.append(len(a))
        return real_eliminate(a, cols, u, vt)

    monkeypatch.setattr(lattice, "_eliminate", eliminate)
    for rows in seeded_shapes().values():
        m = IntegerMatrix.from_rows(rows)
        before = len(eliminations)
        cokernel_order(m)
        wide = m.rows < m.cols
        assert len(eliminations) - before == wide
        cokernel_order(m, torsion_only=True)
        # a wide matrix's factors were kept by the first call
        assert len(eliminations) - before == 1


def test_an_eliminated_matrix_keeps_its_invariant_factors(monkeypatch):
    """After any elimination of a matrix, its invariant factors and its
    cokernel orders take none; computed matrices start with none kept,
    and the kept factors change neither equality nor hash."""
    eliminations = []
    real_eliminate = lattice._eliminate

    def eliminate(a, cols, u=None, vt=None):
        eliminations.append(len(a))
        return real_eliminate(a, cols, u, vt)

    monkeypatch.setattr(lattice, "_eliminate", eliminate)
    entry_points = (lattice.smith_normal_form, lattice.kernel_basis,
                    lattice.smith_row_transform, lattice.invariant_factors)
    for rows in seeded_shapes().values():
        for first in entry_points:
            m = IntegerMatrix.from_rows(rows)
            fresh = IntegerMatrix.from_rows(rows)
            first(m)
            before = len(eliminations)
            factors = lattice.invariant_factors(m)
            cokernel_order(m)
            cokernel_order(m, torsion_only=True)
            assert len(eliminations) == before
            assert list(factors) == test_lattice.oracle_invariant_factors(rows)
            assert m == fresh and hash(m) == hash(fresh)
        snf = lattice.smith_normal_form(m)
        assert all(x._factors is None for x in (snf.U, snf.D, snf.V))


def test_splitting_multiplicity_builds_no_fraction(monkeypatch):
    """Every bend configuration of ``test_multiplicity`` gets its
    multiplicity with no ``Fraction`` built in ``linalg``."""
    cx = build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [test_multiplicity.CONE], curve_rank=1)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting_fraction)
    for codim, table in ((0, test_multiplicity.CODIM0),
                         (1, test_multiplicity.CODIM1)):
        for u_inc, ks, pinned, frozen in table:
            pieces, glue = test_multiplicity.bend_configuration(
                u_inc, ks, codim, pinned)
            res = tropical.splitting_multiplicity(pieces, glue, cx)
            assert res.multiplicity == frozen
    assert built == []
    # the guard sees the Fraction a rational solve builds
    assert linalg.cone_coords([(2, 0), (0, 1)], (1, 1)) == (Fraction(1, 2), 1)
    assert built


@pytest.mark.parametrize("rows", [
    [[3.5, Fraction(7, 2)]],
    [[1, 2], [3, Fraction(4)]],
    [[2.0]],
    [["1"]],
])
def test_integer_matrix_rejects_a_non_integer_entry(rows):
    """A float, a ``Fraction`` (even an integral one) or a string is an
    error, where ``int`` would have truncated it silently."""
    with pytest.raises(ValueError, match="non-integer matrix entry"):
        IntegerMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="non-integer matrix entry"):
        IntegerMatrix(len(rows), len(rows[0]),
                      tuple(x for row in rows for x in row))

