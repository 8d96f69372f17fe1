"""One universal-cone solve per tropical type, and the Smith elimination's
steps kept bit for bit.

A type keeps the cone it was solved to, for the complex it was solved in,
so ``classify`` and ``splitting_multiplicity`` share one solve per piece.
The elimination skips work that cannot change a result: it stops the pivot
search at an entry of size 1 and updates only the pivot row in a column
step while column t is clear below the pivot.  Its D, U and V are checked
against ``reference_eliminate``, a test-side copy of the elimination that
applies every step to every row.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from wallcross import lattice, tropical
from wallcross.errors import Unrealizable
from wallcross.geometry import DivisorTable, build_complex
from wallcross.lattice import (
    IntegerMatrix,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    smith_row_transform,
)
from wallcross.tropical import Edge, Leg, TropicalType, Vertex

from tests import test_multiplicity


def plane_complex(names, cone):
    """A two-dimensional complex with the one maximal cone ``cone``."""
    return build_complex(
        DivisorTable(names=names, a_coeffs=(Fraction(0),) * len(names),
                     fiber_multiplicities=None),
        [cone], curve_rank=1)


def quadrant():
    return plane_complex(("Dx", "Dy"), test_multiplicity.CONE)


def all_configurations():
    """Pieces and gluing edges of every ``test_multiplicity`` bend."""
    return [test_multiplicity.bend_configuration(u_inc, ks, codim, pinned)
            for codim, u_inc, ks, pinned
            in test_multiplicity._all_configurations()]


# -- one solve per type --------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """The types handed to ``_build_system``, one per solve."""
    log = []
    real = tropical._build_system

    def spy(t, cx):
        log.append(t)
        return real(t, cx)

    monkeypatch.setattr(tropical, "_build_system", spy)
    return log


def test_shared_pieces_are_solved_once(solves):
    cx = quadrant()
    for pieces, glue in all_configurations():
        before = len(solves)
        first = tropical.splitting_multiplicity(pieces, glue, cx)
        classes = [tropical.classify(p.type, cx) for p in pieces]
        assert tropical.splitting_multiplicity(pieces, glue, cx) == first
        assert [tropical.classify(p.type, cx) for p in pieces] == classes
        assert len(solves) - before == len(pieces)
        assert all(a is p.type for a, p in zip(solves[before:], pieces))


def test_a_kept_cone_equals_a_fresh_solve(solves):
    cx = quadrant()
    for pieces, _glue in all_configurations():
        for p in pieces:
            kept = tropical.universal_cone(p.type, cx)
            assert tropical.universal_cone(p.type, cx) is kept
            fresh = TropicalType(vertices=p.type.vertices,
                                 edges=p.type.edges, legs=p.type.legs)
            assert fresh == p.type
            assert tropical.universal_cone(fresh, cx) == kept
    assert len(solves) == 2 * sum(len(p) for p, _g in all_configurations())


def test_a_second_complex_solves_again_in_its_own_chart(solves):
    """A type on the ray Dy is solved in the chart (Dx, Dy) of one complex
    and in the chart (Dy, Dz) of another; an equal complex that is not the
    same object also solves afresh."""
    first = quadrant()
    second = plane_complex(("Dx", "Dy", "Dz"), (1, 2))
    t = TropicalType(vertices=(Vertex(cone=(1,)),), edges=(),
                     legs=(Leg(v=0, u=(1, 1), role="out"),))
    assert tropical.universal_cone(t, first).chart == (0, 1)
    uc = tropical.universal_cone(t, second)
    assert uc.chart == (1, 2)
    fresh = TropicalType(vertices=t.vertices, edges=t.edges, legs=t.legs)
    assert uc == tropical.universal_cone(fresh, second)
    assert tropical.universal_cone(t, first).chart == (0, 1)
    again = quadrant()
    assert again == first and again is not first
    assert tropical.universal_cone(t, again).chart == (0, 1)
    assert solves == [t, t, fresh, t, t]


def test_an_unrealizable_type_raises_on_every_call(solves):
    cx = quadrant()
    apex = Vertex(cone=(), rays=())
    t = TropicalType(vertices=(apex, apex), edges=(Edge(v=(0, 1), u=(1, 0)),),
                     legs=(Leg(v=0, u=(1, 0), role="out"),))
    for call in (lambda: tropical.universal_cone(t, cx),
                 lambda: tropical.classify(t, cx),
                 lambda: tropical.universal_cone(t, cx)):
        with pytest.raises(Unrealizable):
            call()
    assert solves == [t, t, t]


# -- the elimination's steps ----------------------------------------------------

def reference_eliminate(a, cols, u=None, vt=None, unclear=None):
    """The Smith elimination with every step applied to every row: pivot
    on the first entry of least size, clear row and column t by gcd descent,
    then repair the divisibility chain.  Same contract as
    ``lattice._eliminate``.  Each column step that changes a row below the
    pivot is appended to ``unclear`` when it is given."""
    r, c = len(a), cols

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if vt is not None:
            vt[i], vt[j] = vt[j], vt[i]

    def add_row(src, dst, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, mult):
        for row in a:
            row[dst] += mult * row[src]
        if vt is not None:
            vt[dst] = [x + mult * y for x, y in zip(vt[dst], vt[src])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    n = min(r, c)
    while t < n:
        best, size = None, 0
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < size):
                    best, size = (i, j), abs(x)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if unclear is not None and q and \
                            any(a[i][t] for i in range(t + 1, r)):
                        unclear.append((t, j))
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                add_col(i + 1, i, 1)
                g = gcd(di, dj)
                s, tt = lattice._bezout(di, dj)
                lattice._combine_rows(a, i, i + 1, s, tt, di // g, dj // g)
                if u is not None:
                    lattice._combine_rows(u, i, i + 1, s, tt, di // g,
                                          dj // g)
                add_row(i, i + 1, -(a[i + 1][i] // g))
                add_col(i, i + 1, -(a[i][i + 1] // g))
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def reference(rows, track_u, track_v):
    """(D, U, V^T) rows of the reference elimination; an untracked
    transform is None."""
    a = [list(row) for row in rows]
    u = identity(len(rows)) if track_u else None
    vt = identity(len(rows[0])) if track_v else None
    reference_eliminate(a, len(rows[0]), u, vt)
    return a, u, vt


def check_entry_points(rows):
    """Every entry point, bit for bit against the reference elimination
    tracking the same transforms."""
    m = IntegerMatrix.from_rows(rows)
    n = min(m.rows, m.cols)
    d, u, vt = reference(rows, True, True)
    snf = smith_normal_form(m)
    assert snf.D.to_rows() == d
    assert snf.U.to_rows() == u
    assert snf.V.to_rows() == [list(col) for col in zip(*vt)]
    d, _, _ = reference(rows, False, False)
    assert invariant_factors(m) == tuple(d[i][i] for i in range(n))
    _, u, _ = reference(rows, True, False)
    assert smith_row_transform(m).to_rows() == u
    d, _, vt = reference(rows, False, True)
    rank = sum(1 for i in range(n) if d[i][i])
    assert kernel_basis(m) == [tuple(col) for col in vt[rank:]]


def seeded_matrices():
    """1,500 matrices of shapes 1x1 to 5x5; dense and sparse, entries up to
    1, 2 or 9 in size."""
    rng = random.Random(23)
    out = []
    for k in range(1500):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        density = (0.25, 0.5, 1.0)[k % 3]
        bound = (1, 2, 9)[k // 3 % 3]
        out.append([[rng.randint(-bound, bound)
                     if rng.random() < density else 0 for _ in range(c)]
                    for _ in range(r)])
    return out


def test_seeded_matrices_take_the_reference_steps():
    for rows in seeded_matrices():
        check_entry_points(rows)


def test_cone_equalities_take_the_reference_steps():
    cx = quadrant()
    systems = set()
    for pieces, _glue in all_configurations():
        for p in pieces:
            uc = tropical.universal_cone(p.type, cx)
            systems.add(uc.equalities or ((0,) * uc.nvars,))
    assert len(systems) > 10
    for eqs in sorted(systems):
        check_entry_points([list(row) for row in eqs])


def test_the_seeded_matrices_take_column_steps_on_an_unclear_column():
    """The comparison is not vacuous: many seeded matrices take a column
    step while column t is not clear below the pivot, where that step
    changes rows other than the pivot row."""
    hits = 0
    for rows in seeded_matrices():
        unclear = []
        reference_eliminate([list(row) for row in rows], len(rows[0]),
                            unclear=unclear)
        hits += bool(unclear)
    assert hits > 100
