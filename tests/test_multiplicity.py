"""Splitting-multiplicity cross-check on bend configurations.

A bend configuration is one incoming line piece, l wall pieces (l = 0..3)
and a middle piece carrying the bend chain.  The direct lattice index
computed by ``splitting_multiplicity`` must agree with the closed form

    k_tau^{-1} * k_inc * prod_i (d * k_i)          (bend in a maximal cell)
    d * k_tau^{-1} * k_inc * prod_i (d * k_i)      (bend chain ending on a
                                                    codimension-one cell)

where d is the transverse pairing of the incoming direction with the wall
line, k_inc and k_tau are evaluation-cokernel orders of the incoming and
glued types, and k_i the wall multiplicities.  The closed form below is
built from gcd/lcm arithmetic and small Smith-form cokernels of explicit
evaluation lattices — entirely independent of the gluing-index code path.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest

from wallcross import linalg
from wallcross.geometry import DivisorTable, build_complex
from wallcross.lattice import IntegerMatrix, cokernel_order, kernel_basis
from wallcross.tropical import (
    Edge,
    GluingEdge,
    Leg,
    SplitPiece,
    TropicalType,
    Vertex,
    _leg_lattice,
    splitting_multiplicity,
    universal_cone,
)

from tests.test_lattice import _minor_det

CONE = (0, 1)
STD = ((1, 0), (0, 1))

# wall line directions: a line in the interior of the maximal cell for the
# codimension-zero configurations, a ray of the complex for codimension one
F_CODIM0 = (1, 1)
F_CODIM1 = (0, 1)


@pytest.fixture(scope="module")
def cx():
    return build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [CONE], curve_rank=1)


def _neg(u):
    return tuple(-x for x in u)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _scale(k, u):
    return tuple(k * x for x in u)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _pinned_wall_piece(u):
    t = TropicalType(vertices=(Vertex(cone=(), rays=()),), edges=(),
                     legs=(Leg(v=0, u=u),))
    return SplitPiece(type=t, gluing_legs=(0,))


def _incoming_piece(u_inc, inc_ray):
    """An incoming line carrying its full moduli.

    A free vertex models a line sweeping the maximal cell; a ray-pinned
    vertex models a line whose source slides along the wall line only.
    """
    v = Vertex(cone=CONE) if inc_ray is None else \
        Vertex(cone=CONE, rays=(inc_ray,))
    t = TropicalType(vertices=(v,), edges=(), legs=(Leg(v=0, u=u_inc),))
    return SplitPiece(type=t, gluing_legs=(0,))


def bend_configuration(u_inc, ks, codim, pinned=False, wall_line=None):
    """Pieces and gluing edges for a bend with ``len(ks)`` wall attachments."""
    f = wall_line or (F_CODIM0 if codim == 0 else F_CODIM1)
    walls = [_scale(k, f) for k in ks]
    pieces = [_incoming_piece(u_inc, f if pinned else None)]
    pieces += [_pinned_wall_piece(u) for u in walls]

    l = len(ks)
    n_chain = max(l, 1)
    verts = [Vertex(cone=CONE) for _ in range(n_chain)]
    edges = []
    running = u_inc
    for j, u in enumerate(walls[:-1]):
        running = _add(running, u)
        edges.append(Edge(v=(j, j + 1), u=running))
    u_out = u_inc
    for u in walls:
        u_out = _add(u_out, u)
    legs = [Leg(v=0, u=_neg(u_inc))]
    legs += [Leg(v=min(i, n_chain - 1), u=_neg(u)) for i, u in enumerate(walls)]
    if codim == 0:
        legs.append(Leg(v=n_chain - 1, u=u_out, role="out"))
    else:
        verts.append(Vertex(cone=CONE, rays=(F_CODIM1,)))
        edges.append(Edge(v=(n_chain - 1, n_chain), u=u_out))
        legs.append(Leg(v=n_chain, u=u_out, role="out"))
    middle = TropicalType(vertices=tuple(verts), edges=tuple(edges),
                          legs=tuple(legs))
    pieces.append(SplitPiece(type=middle, gluing_legs=tuple(range(l + 1))))
    mid = l + 1
    glue = [GluingEdge(ends=((i, 0), (mid, i)), lattice=STD)
            for i in range(l + 1)]
    return pieces, glue


def _torsion_cokernel(columns):
    rows = [[c[j] for c in columns] for j in range(2)]
    return cokernel_order(IntegerMatrix.from_rows(rows), torsion_only=True)


def expected_multiplicity(u_inc, ks, codim, pinned=False):
    """Closed form from evaluation lattices, gcds and transverse pairings."""
    f = F_CODIM0 if codim == 0 else F_CODIM1
    d = abs(_cross(f, u_inc))
    # evaluation cokernel of the incoming type
    k_inc = 1 if not pinned else abs(_cross(f, u_inc))
    u_out = u_inc
    for k in ks:
        u_out = _add(u_out, _scale(k, f))
    # evaluation cokernel of the glued type: slide lattice of the out
    # vertex plus the outgoing contact order
    if ks:
        slide = [_scale(math.lcm(*ks), f)]
    elif codim == 1:
        slide = [f]
    elif pinned:
        slide = [f, u_inc]
    else:
        slide = [(1, 0), (0, 1)]
    k_tau = _torsion_cokernel(slide + [list(u_out)])
    m = Fraction(k_inc, k_tau)
    for k in ks:
        m *= d * k
    if codim == 1:
        m *= d
    assert m.denominator == 1
    return int(m)


# (u_inc, ks, pinned) -> frozen closed-form value, worked out by hand
CODIM0 = [
    ((1, 0), (), False, 1),
    ((2, 0), (), True, 1),
    ((1, 0), (1,), False, 1),
    ((1, 0), (2,), False, 1),
    ((0, 2), (2,), False, 1),
    ((0, 2), (2,), True, 2),
    ((0, 2), (1, 2), False, 2),
    ((1, 0), (1, 1, 2), False, 1),
    ((1, 3), (1, 1, 1), False, 4),
    ((1, 3), (1, 1), True, 4),
]

CODIM1 = [
    ((-1, 1), (), False, 1),
    ((-2, 1), (), False, 1),
    ((-2, 1), (), True, 2),
    ((-1, 1), (1,), False, 1),
    ((-2, 2), (2,), False, 2),
    ((-2, 1), (1, 1), False, 4),
    ((-2, 1), (1, 1), True, 8),
    ((-1, 1), (1, 2, 1), False, 1),
]


@pytest.mark.parametrize("u_inc,ks,pinned,frozen", CODIM0)
def test_codim_zero_bends(cx, u_inc, ks, pinned, frozen):
    pieces, glue = bend_configuration(u_inc, ks, 0, pinned)
    res = splitting_multiplicity(pieces, glue, cx)
    assert res.rank_ok and res.dimension_formula_ok
    assert res.multiplicity == expected_multiplicity(u_inc, ks, 0, pinned)
    assert res.multiplicity == frozen


@pytest.mark.parametrize("u_inc,ks,pinned,frozen", CODIM1)
def test_codim_one_bends(cx, u_inc, ks, pinned, frozen):
    pieces, glue = bend_configuration(u_inc, ks, 1, pinned)
    res = splitting_multiplicity(pieces, glue, cx)
    assert res.rank_ok and res.dimension_formula_ok
    assert res.multiplicity == expected_multiplicity(u_inc, ks, 1, pinned)
    assert res.multiplicity == frozen


def test_all_configurations_fast(cx):
    start = time.monotonic()
    for codim, table in ((0, CODIM0), (1, CODIM1)):
        for u_inc, ks, pinned, frozen in table:
            pieces, glue = bend_configuration(u_inc, ks, codim, pinned)
            res = splitting_multiplicity(pieces, glue, cx)
            assert res.multiplicity == frozen
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("u_inc,ks", [((-2, 2), (2,)), ((-2, 1), (1, 1))])
def test_extra_transverse_factor_in_codim_one(cx, u_inc, ks):
    # pinning the out vertex onto the codimension-one cell multiplies the
    # direct lattice index by exactly d, for the same bend data
    d = abs(u_inc[0])
    pinned, glue = bend_configuration(u_inc, ks, 1)
    free, glue2 = bend_configuration(u_inc, ks, 0, wall_line=F_CODIM1)
    m_pinned = splitting_multiplicity(pinned, glue, cx).multiplicity
    m_free = splitting_multiplicity(free, glue2, cx).multiplicity
    assert m_pinned == d * m_free


def test_multiplicity_computes_each_quantity_once(cx, monkeypatch):
    """One elimination of the difference map, read for both its rank and its
    index and building neither transform (so no full Smith form), and one
    Gauss–Jordan elimination per gluing edge, not one per column."""
    from wallcross import lattice, linalg, tropical

    pieces, glue = bend_configuration((3, -2), (2, 1), 0)
    # the pieces' universal cones are worked out beforehand, so that every
    # call counted below belongs to the multiplicity itself
    cones = {p.type: tropical.universal_cone(p.type, cx) for p in pieces}
    monkeypatch.setattr(tropical, "universal_cone", lambda t, _cx: cones[t])
    smith_calls, rank_calls, eliminations = [], [], []
    smith_eliminations = []
    real_eliminate = lattice._eliminate

    def eliminate(a, cols, u=None, vt=None):
        smith_eliminations.append(
            ([row[:] for row in a], u is not None, vt is not None))
        return real_eliminate(a, cols, u, vt)

    def counted(log, fn):
        def wrapper(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lattice, "_eliminate", eliminate)
    monkeypatch.setattr(lattice, "smith_normal_form",
                        counted(smith_calls, lattice.smith_normal_form))
    monkeypatch.setattr(linalg, "rank", counted(rank_calls, linalg.rank))
    monkeypatch.setattr(linalg, "gauss_jordan",
                        counted(eliminations, linalg.gauss_jordan))

    res = splitting_multiplicity(pieces, glue, cx)
    assert res.multiplicity == 5 and res.rank_ok
    eps = [list(row) for row in res.epsilon]
    assert [tracked for rows, *tracked in smith_eliminations
            if rows == eps] == [[False, False]]
    assert not any(u and v for _rows, u, v in smith_eliminations)
    assert smith_calls == []
    assert rank_calls == []
    assert len(eliminations) == len(glue) == 3


def _all_configurations():
    return [(codim, u_inc, ks, pinned)
            for codim, table in ((0, CODIM0), (1, CODIM1))
            for u_inc, ks, pinned, _frozen in table]


@pytest.mark.parametrize("codim,u_inc,ks,pinned", _all_configurations())
def test_leg_lattice_is_the_padded_kernel(cx, codim, u_inc, ks, pinned):
    """Padding the cone's kernel gives the Smith-form kernel of the padded
    equalities, vector for vector."""
    pieces, _glue = bend_configuration(u_inc, ks, codim, pinned)
    for piece in pieces:
        uc = universal_cone(piece.type, cx)
        for k in range(len(piece.gluing_legs) + 2):
            rows = [list(r) + [0] * k for r in uc.equalities] or \
                [[0] * (uc.nvars + k)]
            assert _leg_lattice(uc, k) == \
                kernel_basis(IntegerMatrix.from_rows(rows))


@pytest.mark.parametrize("codim,u_inc,ks,pinned", _all_configurations())
def test_cone_lattice_is_a_saturated_kernel(cx, codim, u_inc, ks, pinned):
    """Every kernel vector solves the equalities, there are as many as the
    rational kernel's dimension, and the gcd of the maximal minors is 1."""
    pieces, _glue = bend_configuration(u_inc, ks, codim, pinned)
    for piece in pieces:
        uc = universal_cone(piece.type, cx)
        for b in uc.lattice:
            assert all(sum(c * x for c, x in zip(row, b)) == 0
                       for row in uc.equalities)
        assert uc.dim_type == len(uc.lattice) == \
            uc.nvars - linalg.rank(uc.equalities)
        if not uc.lattice:
            continue
        g = 0
        for cols in combinations(range(uc.nvars), len(uc.lattice)):
            g = math.gcd(g, _minor_det(uc.lattice, range(len(uc.lattice)),
                                       cols))
        assert g == 1
