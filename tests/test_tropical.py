"""Tropical types: universal cones, classification, splittings."""

from __future__ import annotations

from fractions import Fraction

import pytest

from wallcross.errors import (
    RankDeficient,
    TropicalError,
    Unrealizable,
)
from wallcross.geometry import DivisorTable, build_complex
from wallcross.tropical import (
    Edge,
    GluingEdge,
    Leg,
    SplitPiece,
    TropicalType,
    Vertex,
    _fm_feasible,
    classify,
    spine,
    splitting_multiplicity,
    universal_cone,
)

CONE = (0, 1)


def quadrant_complex():
    return build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [CONE], curve_rank=1)


def origin_vertex(A=(0,)):
    # a vertex pinned at the apex, the deepest stratum
    return Vertex(cone=(), A=A, rays=())


def bent_line_type():
    # one bend on the wall ray fed by a pinned wall contribution
    return TropicalType(
        vertices=(Vertex(cone=CONE, A=(0,), rays=((1, 1),)),
                  origin_vertex(A=(1,))),
        edges=(Edge(v=(1, 0), u=(1, 1)),),
        legs=(Leg(v=0, u=(1, 0), role="inc"),
              Leg(v=0, u=(0, 1), role="out")))


def trivial_line_type(p=(1, 0)):
    return TropicalType(
        vertices=(Vertex(cone=CONE, A=(0,)),),
        edges=(),
        legs=(Leg(v=0, u=p, role="inc"),
              Leg(v=0, u=tuple(-x for x in p), role="out")))


# -- structure and serialization ---------------------------------------------

def test_json_round_trip():
    t = bent_line_type()
    assert TropicalType.from_json(t.to_json()) == t


def test_rejects_non_tree():
    with pytest.raises(TropicalError):
        TropicalType(vertices=(origin_vertex(), origin_vertex()),
                     edges=(), legs=())


def test_rejects_unknown_role():
    with pytest.raises(TropicalError):
        TropicalType(vertices=(origin_vertex(),), edges=(),
                     legs=(Leg(v=0, u=(1, 0), role="sideways"),))


def test_rejects_out_of_range_edge():
    with pytest.raises(TropicalError):
        TropicalType(vertices=(origin_vertex(),),
                     edges=(Edge(v=(0, 1), u=(1, 0)),), legs=())


# -- universal cones ----------------------------------------------------------

def test_free_vertex_with_leg_has_full_dimension():
    cx = quadrant_complex()
    t = TropicalType(vertices=(Vertex(cone=CONE),), edges=(),
                     legs=(Leg(v=0, u=(1, 1), role="out"),))
    uc = universal_cone(t, cx)
    assert (uc.dim_type, uc.dim_out) == (2, 2)


def test_ray_constrained_vertex_drops_dimension():
    cx = quadrant_complex()
    t = TropicalType(
        vertices=(Vertex(cone=CONE, rays=((1, 1),)),), edges=(),
        legs=(Leg(v=0, u=(1, 0), role="inc"), Leg(v=0, u=(0, 1), role="out")))
    uc = universal_cone(t, cx)
    assert (uc.dim_type, uc.dim_out) == (1, 2)


def test_bent_fixture_type_dimensions():
    cx = quadrant_complex()
    uc = universal_cone(bent_line_type(), cx)
    assert (uc.dim_type, uc.dim_out) == (1, 2)


def test_contradictory_constraints_unrealizable():
    cx = quadrant_complex()
    t = TropicalType(vertices=(origin_vertex(), origin_vertex()),
                     edges=(Edge(v=(0, 1), u=(1, 0)),), legs=())
    with pytest.raises(Unrealizable):
        universal_cone(t, cx)


def test_edge_pointing_out_of_the_chart_unrealizable():
    # an honest edge of positive length cannot leave the quadrant
    cx = quadrant_complex()
    t = TropicalType(vertices=(origin_vertex(), Vertex(cone=CONE)),
                     edges=(Edge(v=(0, 1), u=(-1, -1)),), legs=())
    with pytest.raises(Unrealizable):
        universal_cone(t, cx)


@pytest.mark.parametrize("rows, feasible", [
    ([((1,), 0, True), ((-1,), 0, False)], False),       # x > 0, -x >= 0
    ([((1,), 0, False), ((-1,), 0, False)], True),       # x >= 0, -x >= 0
    # 2x + 4y > 0, -2x >= 0, -4y + 6 >= 0: x = 0, y = 1
    ([((2, 4), 0, True), ((-2, 0), 0, False), ((0, -4), 6, False)], True),
    # 2x + 4y > 6 with x <= 0 needs y > 3/2: the reduced row 2y - 3 > 0
    # meets -4y + 6 >= 0 in 0 > 0
    ([((2, 4), -6, True), ((-2, 0), 0, False), ((0, -4), 6, False)], False),
], ids=["strict-against-opposite", "closed-against-opposite",
        "reduced-feasible", "reduced-infeasible"])
def test_integer_fourier_motzkin(rows, feasible):
    assert _fm_feasible(rows) is feasible


# -- classification -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_wall_type_multiplicity(k):
    cx = quadrant_complex()
    t = TropicalType(vertices=(origin_vertex(A=(k,)),), edges=(),
                     legs=(Leg(v=0, u=(k, k), role="out"),))
    cls = classify(t, cx)
    assert cls.kind == "wall"
    assert (cls.dim_type, cls.dim_out) == (0, 1)
    assert cls.k_tau == k


def test_trivial_broken_line():
    cx = quadrant_complex()
    cls = classify(trivial_line_type(), cx)
    assert cls.kind == "broken-line"
    assert cls.k_tau == 1


def test_bent_broken_line_classified():
    cx = quadrant_complex()
    cls = classify(bent_line_type(), cx)
    assert cls.kind == "broken-line"
    assert (cls.dim_type, cls.dim_out) == (1, 2)
    assert cls.k_tau == 1
    assert cls.spine_vertices == (0,)


def test_classify_takes_one_kernel(monkeypatch):
    """The universal cone's integer kernel is the only kernel: no
    Gauss–Jordan solve, and two Smith eliminations, one for the kernel that
    builds V alone and one for the out-leg cokernel that builds no
    transform.  The spy watches the first solve of a fresh type equal to
    the one whose equalities it reads, since a solved type keeps its
    cone."""
    from wallcross import lattice, linalg, tropical

    cx = quadrant_complex()
    uc = tropical.universal_cone(bent_line_type(), cx)
    kernel_rows = [list(r) for r in uc.equalities] or [[0] * uc.nvars]
    t = bent_line_type()
    eliminations, solves = [], []
    real_eliminate = lattice._eliminate

    def eliminate(a, cols, u=None, vt=None):
        eliminations.append(
            ([row[:] for row in a], u is not None, vt is not None))
        return real_eliminate(a, cols, u, vt)

    def counted(log, fn):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lattice, "_eliminate", eliminate)
    monkeypatch.setattr(linalg, "gauss_jordan",
                        counted(solves, linalg.gauss_jordan))
    cls = classify(t, cx)
    assert cls.kind == "broken-line"
    assert solves == []
    assert len(eliminations) == 2
    assert [tracked for rows, *tracked in eliminations
            if rows == kernel_rows] == [[False, True]]
    assert [tracked for rows, *tracked in eliminations
            if rows != kernel_rows] == [[False, False]]


def test_degenerate_line():
    cx = quadrant_complex()
    t = TropicalType(vertices=(origin_vertex(),), edges=(),
                     legs=(Leg(v=0, u=(1, 0), role="inc"),
                           Leg(v=0, u=(1, 1), role="out")))
    cls = classify(t, cx)
    assert cls.kind == "degenerate"
    assert (cls.dim_type, cls.dim_out) == (0, 1)


# -- product types ------------------------------------------------------------

def glued_bent_lines():
    """Two copies of ``bent_line_type`` grafted at a new vertex 4: their
    output legs become edges into it, and it carries the output leg of
    contact order (0, 2), minus the sum (0, -2) of the final exponents."""
    bend, apex = bent_line_type().vertices
    return TropicalType(
        vertices=(bend, apex, bend, apex, Vertex(cone=CONE, A=(0,))),
        edges=(Edge(v=(1, 0), u=(1, 1)), Edge(v=(3, 2), u=(1, 1)),
               Edge(v=(0, 4), u=(0, 1)), Edge(v=(2, 4), u=(0, 1))),
        legs=(Leg(v=0, u=(1, 0), role="in1"),
              Leg(v=2, u=(1, 0), role="in2"),
              Leg(v=4, u=(0, 2), role="out")))


def test_glue_two_bent_lines_gives_product_type():
    cx = quadrant_complex()
    cls = classify(glued_bent_lines(), cx)
    assert cls.kind == "product"
    assert (cls.dim_type, cls.dim_out) == (2, 2)


def test_spine_of_glued_type():
    verts, edges, _seq = spine(glued_bent_lines())
    # the two bends and the new output vertex; wall leaves stripped
    assert verts == (0, 2, 4)
    assert len(edges) == 2


# -- splitting multiplicities -------------------------------------------------

STD = ((1, 0), (0, 1))


def pinned_piece(u):
    t = TropicalType(vertices=(origin_vertex(),), edges=(),
                     legs=(Leg(v=0, u=u),))
    return SplitPiece(type=t, gluing_legs=(0,))


def two_piece_edges(lattice=STD):
    return [GluingEdge(ends=((0, 0), (1, 0)), lattice=lattice)]


def test_multiplicity_free_case():
    cx = quadrant_complex()
    res = splitting_multiplicity(
        [pinned_piece((1, 0)), pinned_piece((0, 1))], two_piece_edges(), cx)
    assert res.multiplicity == 1
    assert res.rank_ok and res.dimension_formula_ok


def test_multiplicity_index_two():
    cx = quadrant_complex()
    res = splitting_multiplicity(
        [pinned_piece((2, 0)), pinned_piece((0, 1))], two_piece_edges(), cx)
    assert res.multiplicity == 2


def test_multiplicity_in_sublattice_basis():
    cx = quadrant_complex()
    res = splitting_multiplicity(
        [pinned_piece((2, 0)), pinned_piece((0, 1))],
        two_piece_edges(lattice=((2, 0), (0, 1))), cx)
    assert res.multiplicity == 1


def test_multiplicity_invariant_under_unimodular_basis_change():
    cx = quadrant_complex()
    pieces = [pinned_piece((2, 1)), pinned_piece((1, 1))]
    a = splitting_multiplicity(pieces, two_piece_edges(), cx)
    b = splitting_multiplicity(pieces, two_piece_edges(((1, 1), (0, 1))), cx)
    assert a.multiplicity == b.multiplicity == 1


def test_parallel_gluing_is_rank_deficient():
    cx = quadrant_complex()
    with pytest.raises(RankDeficient):
        splitting_multiplicity(
            [pinned_piece((1, 0)), pinned_piece((1, 0))],
            two_piece_edges(), cx)


def test_difference_outside_stratum_lattice_rejected():
    cx = quadrant_complex()
    pieces = [pinned_piece((1, 0)), pinned_piece((0, 1))]
    with pytest.raises(TropicalError,
                       match=r"\[1, 0\] is not in the stratum lattice"):
        splitting_multiplicity(
            pieces, two_piece_edges(lattice=((2, 0), (0, 1))), cx)
    with pytest.raises(TropicalError,
                       match=r"\[1, 0\] leaves the stratum lattice span"):
        splitting_multiplicity(pieces, two_piece_edges(lattice=((1, 1),)), cx)


def test_multiplicity_along_a_ray_stratum():
    cx = quadrant_complex()
    slider = TropicalType(
        vertices=(Vertex(cone=CONE, rays=((1, 1),)),), edges=(),
        legs=(Leg(v=0, u=(1, 1)),))
    pieces = [SplitPiece(type=slider, gluing_legs=(0,)),
              pinned_piece((1, 1))]
    res = splitting_multiplicity(
        pieces, [GluingEdge(ends=((0, 0), (1, 0)), lattice=((1, 1),))], cx)
    assert res.multiplicity == 1
    assert res.rank_ok and res.dimension_formula_ok
