"""Broken-line enumeration, theta functions, structure constants."""

from __future__ import annotations

from fractions import Fraction

import pytest

from wallcross import linalg, ring
from wallcross.broken import (
    alpha_trop,
    chambers_containing,
    decorated_to_type,
    enumerate_lines,
    theta,
    transport_result,
    transport_results,
    type_to_line,
)
from wallcross.errors import (
    NonGenericEndpoint,
    WrongSideCrossing,
)
from wallcross.geometry import DivisorTable, PointInChart, build_complex
from wallcross.ring import RingElement, Truncation
from wallcross.tropical import classify
from wallcross.walls import Wall, WallStructure, cross_wall

CONE = (0, 1)


def quadrant(bound=1, wall_coeff=1, power=1):
    cx = build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [CONE], curve_rank=1)
    trunc = Truncation.degree(1, bound)
    f = RingElement.one(CONE, trunc, 2).add(
        RingElement.monomial((1,), (-1, -1), wall_coeff, CONE, trunc))
    f = f.pow_nonneg(power)
    wall = Wall(cone=CONE, support=((1, 1),), function=f)
    return WallStructure(complex=cx, trunc=trunc, walls=(wall,))


def no_walls(bound=1):
    s = quadrant(bound)
    return s.with_walls([])


def pt(*coords):
    return PointInChart(CONE, tuple(Fraction(c) for c in coords),
                        ambient=True)


X_ABOVE = pt(1, 2)
X_BELOW = pt(2, 1)


# -- enumeration -------------------------------------------------------------

def test_no_walls_single_unbent_line():
    s = no_walls()
    lines = enumerate_lines(s, (1, 0), X_ABOVE)
    assert len(lines) == 1
    line = lines[0]
    assert line.bends == ()
    assert line.m_beta == (1, 0)
    assert line.class_beta == (0,)
    assert line.a_beta == 1


def test_two_lines_above_the_wall():
    s = quadrant()
    lines = enumerate_lines(s, (1, 0), X_ABOVE)
    assert len(lines) == 2
    straight, bent = lines
    assert straight.bends == ()
    assert straight.m_beta == (1, 0)
    assert len(bent.bends) == 1
    b = bent.bends[0]
    assert b.point == (Fraction(1), Fraction(1))
    assert b.pairing == 1
    assert bent.m_beta == (0, -1)
    assert bent.class_beta == (1,)
    assert bent.a_beta == 1


def test_one_line_below_the_wall():
    s = quadrant()
    lines = enumerate_lines(s, (1, 0), X_BELOW)
    assert len(lines) == 1
    assert lines[0].bends == ()


def test_bend_bookkeeping_balances():
    # the final curve class equals the sum of the bend classes
    s = quadrant(bound=2)
    for line in enumerate_lines(s, (2, 0), X_ABOVE):
        total = [0]
        m = list(line.p)
        for b in line.bends:
            total = [a + d for a, d in zip(total, b.delta_class)]
            m = [a + d for a, d in zip(m, b.delta_exponent)]
        assert tuple(total) == line.class_beta
        assert tuple(m) == line.m_beta


def test_endpoint_on_wall_is_non_generic():
    s = quadrant()
    with pytest.raises(NonGenericEndpoint) as info:
        enumerate_lines(s, (1, 0), pt(4, 4))
    assert info.value.hyperplane is not None
    assert info.value.suggestion is not None


def test_endpoint_on_reachable_monomial_line_is_non_generic():
    # with bound 2 the doubly-bent monomial direction (-1,-2) makes the
    # line y = 2x through the origin non-generic
    s = quadrant(bound=2)
    with pytest.raises(NonGenericEndpoint):
        enumerate_lines(s, (1, 0), pt(1, 2))


# -- theta -------------------------------------------------------------------

def expected_theta_above(s):
    return RingElement.from_json(
        [{"A": [0], "m": [1, 0], "c": "1"},
         {"A": [1], "m": [0, -1], "c": "1"}], CONE, s.trunc, 2)


def test_theta_above_and_below():
    s = quadrant()
    assert theta(s, (1, 0), X_ABOVE) == expected_theta_above(s)
    assert theta(s, (1, 0), X_BELOW) == \
        RingElement.monomial((0,), (1, 0), 1, CONE, s.trunc)


def test_theta_p_zero_is_unit():
    s = quadrant()
    assert theta(s, (0, 0), X_ABOVE).is_one()


def test_theta_trivial_walls_gives_monomial():
    s = no_walls()
    assert theta(s, (2, 1), X_ABOVE) == \
        RingElement.monomial((0,), (2, 1), 1, CONE, s.trunc)


def test_theta_constant_within_chamber():
    s = quadrant()
    a = theta(s, (1, 0), pt(1, 3))
    b = theta(s, (1, 0), pt(2, 7))
    assert a == b


def test_theta_intertwined_by_wall_crossing():
    s = quadrant()
    below = theta(s, (1, 0), X_BELOW)
    above = theta(s, (1, 0), X_ABOVE)
    crossed = cross_wall(below, s.walls[0], source_side=(2, 1))
    assert crossed == above


def test_theta_in_cone_of_x_is_monomial_mod_maximal_ideal():
    s = quadrant(bound=3)
    t = theta(s, (3, 1), pt(5, 1))
    assert t.coefficient((0,), (3, 1)) == 1
    for (A, _m), _c in t.sorted_terms():
        if A == (0,):
            assert _m == (3, 1)


# -- transport ---------------------------------------------------------------

def mono(A, m, s, c=1):
    return RingElement.monomial(A, m, c, CONE, s.trunc)


def test_transport_straight_choice():
    s = quadrant()
    z = mono((0,), (1, 0), s)
    assert transport_result(z, s.walls[0], (2, 1), 0) == z


def test_transport_two_results_for_pairing_one():
    s = quadrant()
    z = mono((0,), (1, 0), s)
    results = transport_results(z, s.walls[0], (2, 1))
    assert results == [z, mono((1,), (0, -1), s)]


def test_transport_three_results_for_pairing_two():
    s = quadrant(bound=2)
    z = mono((0,), (2, 0), s)
    results = transport_results(z, s.walls[0], (2, 1))
    assert results == [z, mono((1,), (1, -1), s, 2), mono((2,), (0, -2), s)]


def test_transport_wrong_side_raises():
    s = quadrant()
    z = mono((0,), (-1, 0), s)
    with pytest.raises(WrongSideCrossing):
        transport_results(z, s.walls[0], (2, 1))


# -- structure constants -----------------------------------------------------

def test_alpha_straight_pair():
    s = quadrant()
    res = alpha_trop(s, (1, 0), (1, 0), (2, 0))
    assert res.value == RingElement.monomial((0,), (0, 0), 1, CONE, s.trunc)


def test_alpha_on_wall_direction_chamber_independent():
    s = quadrant()
    chs = chambers_containing(s, CONE, (1, 1))
    assert len(chs) == 2
    vals = [alpha_trop(s, (1, 0), (0, 1), (1, 1), chamber=ch).value
            for ch in chs]
    assert vals[0] == vals[1]
    assert vals[0] == RingElement.monomial((0,), (0, 0), 1, CONE, s.trunc)


def test_alpha_bent_pair_with_explicit_chamber():
    # exponent sum (1,-1) is met by straight x bent in both orders
    s = quadrant()
    upper = next(ch for ch in chambers_containing(s, CONE, (1, 2)))
    res = alpha_trop(s, (1, 0), (1, 0), (1, -1), chamber=upper)
    assert res.value == RingElement.monomial((1,), (0, 0), 2, CONE, s.trunc)


def test_alpha_symmetric():
    s = quadrant()
    a = alpha_trop(s, (1, 0), (0, 1), (1, 1))
    b = alpha_trop(s, (0, 1), (1, 0), (1, 1))
    assert a.value == b.value


def test_no_walls_alpha_unit():
    s = no_walls()
    assert alpha_trop(s, (1, 0), (0, 1), (1, 1)).value == \
        RingElement.monomial((0,), (0, 0), 1, CONE, s.trunc)
    assert alpha_trop(s, (1, 0), (0, 1), (2, 1)).value.is_zero()


# -- decorated lines ---------------------------------------------------------

def test_decorated_enumeration_matches_undecorated():
    s = quadrant()
    dec = enumerate_lines(s, (1, 0), X_ABOVE, decorated=True)
    undec = enumerate_lines(s, (1, 0), X_ABOVE)
    assert len(dec) == len(undec)
    bent = [d for d in dec if d.line.bends]
    assert len(bent) == 1
    assert bent[0].line.bends[0].mu == ((0, 1),)


def test_decorated_mu_sum_reproduces_bend_factor():
    # squared wall function: two decorations produce the t^2 coefficient
    s = quadrant(bound=2, power=2)
    dec = enumerate_lines(s, (1, 0), pt(1, 3), decorated=True)
    und_theta = theta(s, (1, 0), pt(1, 3))
    total = RingElement.zero(CONE, s.trunc, 2)
    for d in dec:
        total = total.add(d.line.monomial(s.trunc))
    assert total == und_theta
    # further from the boundary the doubly-bent line appears; its t^2
    # coefficient combines two decorations of the same bend
    far = pt(3, 4)
    dec = enumerate_lines(s, (1, 0), far, decorated=True)
    deep = [d for d in dec if d.line.class_beta == (2,)
            and len(d.line.bends) == 1]
    mus = sorted(d.line.bends[0].mu for d in deep)
    assert mus == [((0, 2),), ((1, 1),)]
    coeffs = sorted(d.line.a_beta for d in deep)
    assert coeffs == [-1, 2]  # -t^2 from log, (2t)^2/2! from the square
    assert theta(s, (1, 0), far).coefficient((2,), (-1, -2)) == 1


# -- correspondence with types -----------------------------------------------

def test_unbent_line_round_trip():
    s = quadrant()
    dec = enumerate_lines(s, (1, 0), X_ABOVE, decorated=True)
    unbent = next(d for d in dec if not d.line.bends)
    t = decorated_to_type(unbent, s)
    assert len(t.vertices) == 1 and not t.edges
    back = type_to_line(t, s, X_ABOVE)
    assert back == unbent


def test_bent_line_round_trip_and_classification():
    s = quadrant()
    dec = enumerate_lines(s, (1, 0), X_ABOVE, decorated=True)
    bent = next(d for d in dec if d.line.bends)
    t = decorated_to_type(bent, s)
    # one bend vertex on the wall ray plus one wall-contribution leaf
    assert len(t.vertices) == 2
    assert t.vertices[0].rays == ((1, 1),)
    cls = classify(t, s.complex)
    assert cls.kind == "broken-line"
    assert (cls.dim_type, cls.dim_out) == (1, 2)
    assert cls.k_tau == 1
    back = type_to_line(t, s, X_ABOVE)
    assert back == bent


def test_round_trip_identity_on_all_lines():
    s = quadrant()
    for x in (X_ABOVE, X_BELOW):
        for d in enumerate_lines(s, (1, 0), x, decorated=True):
            t = decorated_to_type(d, s)
            assert type_to_line(t, s, x) == d


# -- derived wall data -------------------------------------------------------

def test_wall_data_is_derived_once_per_structure(monkeypatch):
    """Repeated structure constants on one structure take one logarithm
    per (wall, chart) and one conormal per wall."""
    logs, kernels = [], []
    log_unipotent, nullspace = ring.log_unipotent, linalg.nullspace

    def counting_log(f):
        logs.append(f.cone)
        return log_unipotent(f)

    def counting_nullspace(*args, **kwargs):
        kernels.append(args)
        return nullspace(*args, **kwargs)

    monkeypatch.setattr(ring, "log_unipotent", counting_log)
    monkeypatch.setattr(linalg, "nullspace", counting_nullspace)
    s = quadrant(bound=3)
    for p1, p2, r in [((1, 0), (0, 1), (1, 1)), ((1, 0), (1, 0), (2, 0)),
                      ((0, 1), (1, 0), (1, 1)), ((2, 0), (0, 1), (1, 0))]:
        alpha_trop(s, p1, p2, r)
    charts = len(s.complex.maximal_cones)
    assert 0 < len(logs) <= len(s.walls) * charts
    assert 0 < len(kernels) <= len(s.walls)
