"""Cone-complex tests: validation, charts, points."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.errors import (
    BadDivisorMeetsGoodCurve,
    DisconnectedGoodBoundary,
    GeometryError,
    MissingNDimCone,
    NotAdjacent,
)
from wallcross.geometry import (
    Crossing,
    DivisorTable,
    PointInChart,
    build_complex,
    geometry_from_json,
    geometry_to_json,
    load_geometry,
)
from wallcross.ring import RingElement, Truncation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

IDENT3 = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))


def loop_matrix(cx, cone_path):
    """Product of the transitions along a closed path of maximal cones."""
    assert cone_path[0] == cone_path[-1]
    result = [[int(i == j) for j in range(cx.n)] for i in range(cx.n)]
    for a, b in zip(cone_path, cone_path[1:]):
        m = cx.crossing_to(a, b).matrix
        result = [[sum(m[i][k] * result[k][j] for k in range(cx.n))
                   for j in range(cx.n)] for i in range(cx.n)]
    return tuple(tuple(row) for row in result)


def simple_divisors(k, a=None):
    return DivisorTable(
        names=tuple(f"D{i}" for i in range(k)),
        a_coeffs=tuple(Fraction(a[i]) if a else Fraction(0) for i in range(k)))


def fan_2d(num_rays, curve_rank=1, intersections=None, kinks=None, **kw):
    """Complete 2D fan with rays 0..num_rays-1 glued in a cycle."""
    strata = [(i, (i + 1) % num_rays) for i in range(num_rays)]
    return build_complex(simple_divisors(num_rays, **kw), strata,
                         intersections or {}, kinks or {},
                         curve_rank=curve_rank)


# -- validation --------------------------------------------------------------

def test_one_dim_two_rays_valid():
    cx = build_complex(simple_divisors(2), [(0,), (1,)], curve_rank=1, n=1)
    assert cx.maximal_cones == ((0,), (1,))
    assert cx.codim1_cones() == []


def test_missing_top_cone():
    with pytest.raises(MissingNDimCone):
        build_complex(simple_divisors(2), [(0,), (1,)], curve_rank=1, n=2)


def test_bad_divisor_meets_good_curve():
    # ray 0 is good and extends to the stratum {0,1} whose divisor 1 is bad
    with pytest.raises(BadDivisorMeetsGoodCurve):
        build_complex(simple_divisors(3, a=(0, 1, 0)),
                      [(0, 1), (0, 2)], curve_rank=1, n=2)


def test_disconnected_good_boundary():
    # two 2-cones sharing no ray: boundary graph of the origin stratum
    # splits into two components
    with pytest.raises(DisconnectedGoodBoundary):
        build_complex(simple_divisors(4), [(0, 1), (2, 3)],
                      curve_rank=1, n=2)


def test_interior_facet_needs_intersection_numbers():
    with pytest.raises(GeometryError):
        fan_2d(3)  # all three rays interior, no numbers given


# -- chart transitions -------------------------------------------------------

def quadrant_pair(number, kink=(1,)):
    """Two 2-cones glued along ray 0 with a single intersection number."""
    return build_complex(
        simple_divisors(3), [(0, 1), (0, 2)],
        intersections={(0,): (number,)}, kinks={(0,): kink}, curve_rank=1)


def test_transition_identity_on_same_cone():
    cx = quadrant_pair(0)
    trunc = Truncation.degree(1, 3)
    f = RingElement.one((0, 1), trunc, 2).add(
        RingElement.monomial((1,), (1, -1), 3, (0, 1), trunc))
    assert cx.transport_element(f, (0, 1), (0, 1)) is f
    assert loop_matrix(cx, [(0, 1)]) == ((1, 0), (0, 1))


def test_transition_zero_number_flips():
    cx = quadrant_pair(0)
    c = cx.crossing_to((0, 1), (0, 2))
    # shared ray fixed, leftover ray reverses
    assert c.matrix == ((1, 0), (0, -1))
    assert c.kink == (1,)


def test_transition_hirzebruch_number():
    cx = quadrant_pair(-1)
    m = cx.crossing_to((0, 1), (0, 2)).matrix
    # image of e2 is -e2' + e1'
    col = (m[0][1], m[1][1])
    assert col == (1, -1)


def test_transition_round_trip_inverse():
    cx = quadrant_pair(-2)
    m12 = cx.crossing_to((0, 1), (0, 2)).matrix
    m21 = cx.crossing_to((0, 2), (0, 1)).matrix
    prod = tuple(tuple(sum(m12[i][k] * m21[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))
    assert prod == ((1, 0), (0, 1))


def test_not_adjacent():
    cx = fan_2d(4, intersections={(i,): (0,) for i in range(4)})
    with pytest.raises(NotAdjacent):
        cx.crossing_to((0, 1), (2, 3))


def test_crossing_table_of_a_quadrant_pair():
    cx = quadrant_pair(-1, kink=(2,))
    assert cx.crossings((0, 1)) == {1: Crossing(
        rho=(0,), pos=1, target=(0, 2), matrix=((1, 1), (0, -1)), kink=(2,))}
    assert cx.crossing_to((0, 2), (0, 1)).pos == 1
    assert cx.cell_of((0, 2), (Fraction(1, 3), 0)) == (0,)
    assert cx.cell_of((0, 2), (0, -4)) == (2,)
    assert cx.cell_of((0, 2), (0, 0)) == ()


# F_1: rays (1,0), (0,1), (-1,1), (0,-1) with self-intersections 0, -1, 0, 1
HIRZEBRUCH_RAYS = ((1, 0), (0, 1), (-1, 1), (0, -1))


def hirzebruch():
    """The fan of the Hirzebruch surface F_1, each ray kinked by its own
    unit class."""
    return fan_2d(4, curve_rank=4,
                  intersections={(i,): (k,)
                                 for i, k in enumerate((0, -1, 0, 1))},
                  kinks={(i,): tuple(int(j == i) for j in range(4))
                         for i in range(4)})


def _in_the_plane(cone, v):
    return tuple(sum(x * HIRZEBRUCH_RAYS[d][i] for d, x in zip(cone, v))
                 for i in range(2))


def test_hirzebruch_crossings_agree_with_the_fan():
    """A chart writes a vector in its cone's rays: crossing a facet changes
    the basis and leaves the vector of the plane where it is, and bends a
    class by the exponent's coefficient on the ray off the facet."""
    cx = hirzebruch()
    loop = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1)]
    assert loop_matrix(cx, loop) == ((1, 0), (0, 1))   # a complete fan
    for sigma in cx.maximal_cones:
        for c in cx.crossings(sigma).values():
            for m in [(1, 0), (0, 1), (2, -3), (-5, 4)]:
                assert _in_the_plane(c.target, c.vector(m)) == \
                    _in_the_plane(sigma, m)
                A, m2 = c.monomial((3, 0, 1, 2), m)
                assert m2 == c.vector(m)
                bent = [3, 0, 1, 2]
                bent[c.rho[0]] += m[c.pos]
                assert A == tuple(bent)


@pytest.mark.parametrize("which", ["hirzebruch", "blowup"])
def test_crossing_monomial_round_trip(which, blowup):
    """Crossing a facet and back gives every monomial back, its class
    included, however the exponent pairs with the conormal."""
    cx = hirzebruch() if which == "hirzebruch" else blowup
    rng = random.Random(11)
    for sigma in cx.maximal_cones:
        for c in cx.crossings(sigma).values():
            back = cx.crossing_to(c.target, sigma)
            assert back.rho == c.rho
            for _ in range(20):
                A = tuple(rng.randint(0, 4) for _ in range(cx.curve_rank))
                m = tuple(rng.randint(-5, 5) for _ in range(cx.n))
                assert back.monomial(*c.monomial(A, m)) == (A, m)
                assert back.vector(c.vector(m)) == m


def test_facet_numbers_must_match_its_rays():
    with pytest.raises(GeometryError):
        build_complex(simple_divisors(3), [(0, 1), (0, 2)],
                      intersections={(0,): (1, 2)}, curve_rank=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4))
def test_property_transitions_mutually_inverse(number):
    cx = quadrant_pair(number)
    m12 = cx.crossing_to((0, 1), (0, 2)).matrix
    m21 = cx.crossing_to((0, 2), (0, 1)).matrix
    prod = [[sum(m12[i][k] * m21[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


# -- the blowup threefold fixture -------------------------------------------

@pytest.fixture(scope="module")
def blowup():
    return load_geometry(os.path.join(FIXTURES, "blowup_threefold.json"))


def test_blowup_validates(blowup):
    assert blowup.n == 3
    assert blowup.curve_rank == 5
    assert len(blowup.maximal_cones) == 10
    assert len(blowup.interior_codim1()) == 15
    assert blowup.boundary_codim1() == []


def test_blowup_star_loops_of_codim1_trivial(blowup):
    # crossing an interior facet back and forth composes to the identity
    for rho in blowup.interior_codim1():
        s1, s2 = blowup.max_cones_containing(rho)
        assert loop_matrix(blowup, [s1, s2, s1]) == IDENT3


def test_blowup_monodromy_shear(blowup):
    # the loop of the four maximal cones around the ray of D_{1,inf}
    # is the elementary shear: the affine structure is singular there
    loop = [(1, 2, 3), (1, 3, 5), (3, 5, 6), (2, 3, 6), (1, 2, 3)]
    assert loop_matrix(blowup, loop) == ((1, 1, 0), (0, 1, 0), (0, 0, 1))


def test_blowup_some_monodromy_trivial(blowup):
    loop = [(0, 1, 2), (0, 1, 5), (1, 3, 5), (1, 2, 3), (0, 1, 2)]
    assert loop_matrix(blowup, loop) == IDENT3


def test_blowup_json_round_trip(blowup):
    again = geometry_from_json(geometry_to_json(blowup))
    assert again == blowup


def test_unsorted_facet_keeps_its_numbers_with_its_rays(blowup):
    """The numbers of a facet belong to its rays in turn: the facet (0, 1)
    listed as (1, 0) with its numbers in the same order is the same data,
    from JSON and from a mapping alike."""
    s1, s2 = blowup.max_cones_containing((0, 1))
    assert blowup.crossing_to(s1, s2).matrix == \
        ((1, 0, 0), (0, 1, 1), (0, 0, -1))
    data = geometry_to_json(blowup)
    [entry] = [e for e in data["intersections"] if e["rho"] == [0, 1]]
    assert entry["numbers"] == [0, -1]
    entry.update(rho=[1, 0], numbers=[-1, 0])
    assert geometry_from_json(data) == blowup
    numbers = dict(blowup.intersections)
    numbers[(1, 0)] = numbers.pop((0, 1))[::-1]
    again = build_complex(blowup.divisors, blowup.strata, numbers,
                          blowup.kinks,
                          curve_rank=blowup.curve_rank, n=blowup.n)
    assert again == blowup
    assert again.crossing_to(s1, s2).matrix == \
        ((1, 0, 0), (0, 1, 1), (0, 0, -1))


def test_geometry_json_writes_no_relative_key(blowup):
    data = geometry_to_json(blowup)
    assert "relative" not in data
    assert geometry_from_json(data) == blowup


def test_unknown_keys_rejected(blowup):
    data = geometry_to_json(blowup)
    data["surprise"] = 1
    with pytest.raises(GeometryError):
        geometry_from_json(data)


# -- points ------------------------------------------------------------------

def test_point_hash_is_the_dataclass_hash():
    """A point's hash is computed once, with the value and equality of the
    dataclass hash of (cone, coords, ambient)."""
    x = PointInChart((0, 1), (1, Fraction(2, 7)), ambient=True)
    same = PointInChart((0, 1), (Fraction(3, 3), Fraction(4, 14)),
                        ambient=True)
    assert hash(x) == hash(((0, 1), (Fraction(1), Fraction(2, 7)), True))
    assert x == same and hash(x) == hash(same)
    assert x != PointInChart((0, 1), (1, Fraction(2, 7)))
    assert x != PointInChart((0, 2), (1, Fraction(2, 7)), ambient=True)
    assert {x: 1}[same] == 1
