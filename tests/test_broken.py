"""Broken-line enumeration, theta functions, structure constants."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wallcross import broken, geometry, linalg, ring, walls
from wallcross.broken import (
    alpha_trop,
    chambers_containing,
    decorated_to_type,
    enumerate_lines,
    theta,
    type_to_line,
)
from wallcross.errors import (
    EndpointOutsideFamily,
    NonGenericEndpoint,
)
from wallcross.geometry import DivisorTable, PointInChart, build_complex
from wallcross.ring import RingElement, Truncation
from wallcross.tropical import classify
from wallcross.walls import Wall, WallStructure, cross_wall

from tests.test_walls import two_cell_complex

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


# -- crossing the wall -------------------------------------------------------

def mono(A, m, s, c=1):
    return RingElement.monomial(A, m, c, CONE, s.trunc)


def crossing_terms(z, s):
    """The terms of z carried across the diagonal wall out of the chamber of
    (2, 1), each as a monomial, in sorted order."""
    return [RingElement.monomial(A, e, c, CONE, s.trunc)
            for (A, e), c in cross_wall(z, s.walls[0], (2, 1)).sorted_terms()]


def test_transport_straight_choice():
    s = quadrant()
    z = mono((0,), (1, 0), s)
    assert crossing_terms(z, s)[0] == z


def test_transport_two_results_for_pairing_one():
    s = quadrant()
    z = mono((0,), (1, 0), s)
    assert crossing_terms(z, s) == [z, mono((1,), (0, -1), s)]


def test_transport_three_results_for_pairing_two():
    s = quadrant(bound=2)
    z = mono((0,), (2, 0), s)
    assert crossing_terms(z, s) == \
        [z, mono((1,), (1, -1), s, 2), mono((2,), (0, -2), s)]


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


@pytest.mark.parametrize("change", [dict(cone=(0,)), dict(A=(1,)),
                                    dict(rays=((1, 2),))],
                         ids=["cell", "class", "rays"])
def test_type_with_a_changed_spine_vertex_has_no_line(change):
    """A type differing from a line's type in one spine vertex (its cell,
    curve-class decoration or wall rays) is the type of no line."""
    s = quadrant(bound=3)
    x = pt(3, 7)
    changed = 0
    for p in [(1, 0), (2, 0), (2, 1)]:
        for d in enumerate_lines(s, p, x, decorated=True):
            t = decorated_to_type(d, s)
            for i in range(len(d.line.bends)):
                vertices = list(t.vertices)
                vertices[i] = dataclasses.replace(vertices[i], **change)
                with pytest.raises(EndpointOutsideFamily):
                    type_to_line(dataclasses.replace(
                        t, vertices=tuple(vertices)), s, x)
                changed += 1
    assert changed >= 10


# -- two charts --------------------------------------------------------------

def two_cell(number, slabs=(), bound=4):
    """Charts (0,1) and (0,2) glued along the ray of D0; each slab is
    (chart, class, exponent) of a function 1 + t^class z^exponent on it."""
    cx = two_cell_complex(number=number)
    trunc = Truncation.degree(1, bound)
    walls = tuple(
        Wall(cone=chart, support=((1, 0),), rho=(0,),
             function=RingElement.one(chart, trunc, 2).add(
                 RingElement.monomial(A, m, 1, chart, trunc)))
        for chart, A, m in slabs)
    return WallStructure(complex=cx, trunc=trunc, walls=walls)


X_OTHER_CHART = PointInChart((0, 2), (Fraction(1, 3), Fraction(2, 7)),
                             ambient=True)


@pytest.mark.parametrize("number", [-1, 0, 1])
@pytest.mark.parametrize("a,b", [(0, 2), (1, 2), (3, 1)])
def test_theta_across_the_chart_transition(number, a, b):
    """theta of p = (a, b) in chart (0,1) at a point of chart (0,2): the
    transition sends z^(a,b) to t^b z^(a-kb,-b); the slab 1 + t z^(1,0)
    multiplies it by (1 + t z^(1,0))^b, truncated."""
    p = PointInChart((0, 1), (a, b), ambient=True)
    s = two_cell(number)
    assert theta(s, p, X_OTHER_CHART) == RingElement.monomial(
        (b,), (a - number * b, -b), 1, (0, 2), s.trunc)
    for chart in [(0, 1), (0, 2)]:
        s = two_cell(number, [(chart, (1,), (1, 0))])
        expected = RingElement.zero((0, 2), s.trunc, 2)
        for j in range(b + 1):
            expected = expected.add(RingElement.monomial(
                (b + j,), (a - number * b + j, -b), comb(b, j), (0, 2),
                s.trunc))
        assert theta(s, p, X_OTHER_CHART) == expected


@pytest.mark.parametrize("number", [-1, 0, 1])
def test_slab_bend_leaves_sum_to_the_kick(number):
    """With one slab stored in each chart, the leaves of a decorated slab
    bend's type carry the log terms of the product of both slab functions,
    so their classes and exponents sum to the bend's."""
    s = two_cell(number, [((0, 1), (1,), (1, 0)), ((0, 2), (2,), (1, 0))])
    bends = 0
    for a, b in [(0, 2), (1, 2), (3, 1)]:
        p = PointInChart((0, 1), (a, b), ambient=True)
        for d in enumerate_lines(s, p, X_OTHER_CHART, decorated=True):
            t = decorated_to_type(d, s)
            spine = len(d.line.bends)
            for bi, bend in enumerate(d.line.bends):
                if not bend.on_slab:
                    continue
                leaves = [e for e in t.edges
                          if e.v[1] == bi and e.v[0] >= spine]
                A, m = [0], [0, 0]
                for e in leaves:
                    A = [x + y for x, y in zip(A, t.vertices[e.v[0]].A)]
                    m = [x - y for x, y in zip(m, e.u)]
                assert (tuple(A), tuple(m)) == \
                    (bend.delta_class, bend.delta_exponent)
                bends += 1
    assert bends > 0


# -- toric cycles ------------------------------------------------------------

# self-intersections D_i^2 of the boundary cycle of a toric surface
TORIC_CYCLES = {"P2": (1, 1, 1), "P1xP1": (0, 0, 0, 0), "dP6": (-1,) * 6}


def toric_cycle(squares, bound=4):
    """The cycle of charts (i, i+1) of a toric surface, without walls, with
    intersection number D_i^2 and kink class t on the ray of D_i."""
    k = len(squares)
    cx = build_complex(
        DivisorTable(names=tuple(f"D{i}" for i in range(k)),
                     a_coeffs=(Fraction(0),) * k),
        [(i, (i + 1) % k) for i in range(k)],
        intersections={(i,): (d,) for i, d in enumerate(squares)},
        kinks={(i,): (1,) for i in range(k)}, curve_rank=1)
    return WallStructure(complex=cx, trunc=Truncation.degree(1, bound),
                         walls=())


def ray_exponent(cx, i):
    """The primitive vector of the ray of D_i, in a chart containing it."""
    chart = next(c for c in cx.maximal_cones if i in c)
    return PointInChart(chart, tuple(int(d == i) for d in chart))


@pytest.mark.parametrize("name", ["quadrant", "dP6"])
def test_chambers_containing_agrees_with_cone_coords(name):
    """Chamber membership by two determinants agrees with the rational
    cone solver on seeded integer vectors, boundary rays included."""
    if name == "quadrant":
        s = quadrant(bound=3)
    else:
        s = toric_cycle(TORIC_CYCLES["dP6"])
    rng = random.Random(2105)
    rs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(400)]
    rs += [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (-1, -1)]
    for cone in s.complex.maximal_cones:
        for r in rs:
            want = [ch for ch in s.chambers if ch.cone == cone and
                    linalg.cone_coords((ch.lower, ch.upper), r) is not None]
            assert chambers_containing(s, cone, r) == want


@pytest.mark.parametrize("name", sorted(TORIC_CYCLES))
def test_theta_functions_of_a_toric_cycle(name):
    """Gross-Hacking-Keel (arXiv:1106.4977): on the cycle of a toric
    surface, theta_{v_(i-1)} theta_{v_(i+1)} = t theta_{v_i}^(-D_i^2),
    read as theta_{v_(i-1)} theta_{v_(i+1)} theta_{v_i} = t on P^2, at a
    point of every chart; broken lines reach it around the cycle."""
    squares = TORIC_CYCLES[name]
    k = len(squares)
    start = time.perf_counter()
    s = toric_cycle(squares)
    for chart in s.complex.maximal_cones:
        x = PointInChart(chart, (Fraction(1, 3), Fraction(2, 7)))
        th = [theta(s, ray_exponent(s.complex, i), x) for i in range(k)]
        t = RingElement.monomial((1,), (0, 0), 1, chart, s.trunc)
        for i, d in enumerate(squares):
            lhs = th[i - 1].mul(th[(i + 1) % k]).mul(th[i].pow_int(max(d, 0)))
            assert not lhs.is_zero()
            assert lhs == t.mul(th[i].pow_int(max(-d, 0)))
    assert time.perf_counter() - start < 2.0


def test_crossings_are_derived_once_per_complex(monkeypatch):
    """Building a complex and tracing broken lines around it check one
    transition matrix per (interior facet, side)."""
    checked = []
    check_unimodular = geometry._check_unimodular

    def counting_check(matrix):
        checked.append(matrix)
        return check_unimodular(matrix)

    monkeypatch.setattr(geometry, "_check_unimodular", counting_check)
    s = toric_cycle(TORIC_CYCLES["dP6"])
    x = PointInChart((0, 1), (Fraction(1, 3), Fraction(2, 7)))
    for i in (3, 4):
        assert not theta(s, ray_exponent(s.complex, i), x).is_zero()
    assert 0 < len(checked) <= 2 * len(s.complex.interior_codim1())


# -- derived wall data -------------------------------------------------------

def test_line_bends_compute_each_wall_power_once(monkeypatch):
    """Bends reuse the powers kept on the wall function: two theta
    functions on one structure, whose lines cross the wall with pairings
    2 and 3, compute each (element, exponent) power once."""
    powers, keep = Counter(), []
    power = RingElement._power

    def counting_power(self, k):
        keep.append(self)
        powers[(id(self), k)] += 1
        return power(self, k)

    s = quadrant(bound=3)
    monkeypatch.setattr(RingElement, "_power", counting_power)
    for p in [(3, 1), (4, 1)]:
        theta(s, p, pt(3, 7))
    assert powers and max(powers.values()) == 1


def test_wall_data_is_derived_once_per_structure(monkeypatch):
    """Repeated structure constants on one structure take one logarithm
    per (wall, chart) and one conormal per wall."""
    logs, kernels = [], []
    log_unipotent, kernel_basis = ring.log_unipotent, walls.kernel_basis

    def counting_log(f):
        logs.append(f.cone)
        return log_unipotent(f)

    def counting_kernel(*args, **kwargs):
        kernels.append(args)
        return kernel_basis(*args, **kwargs)

    monkeypatch.setattr(ring, "log_unipotent", counting_log)
    monkeypatch.setattr(walls, "kernel_basis", counting_kernel)
    s = quadrant(bound=3)
    for p1, p2, r in [((1, 0), (0, 1), (1, 1)), ((1, 0), (1, 0), (2, 0)),
                      ((0, 1), (1, 0), (1, 1)), ((2, 0), (0, 1), (1, 0))]:
        alpha_trop(s, p1, p2, r)
    charts = len(s.complex.maximal_cones)
    assert 0 < len(logs) <= len(s.walls) * charts
    assert 0 < len(kernels) <= len(s.walls)


# -- line data kept on the structure -----------------------------------------

def test_alpha_traces_each_line_family_once(monkeypatch):
    """Structure constants of one (p1, p2) at every r of one chamber end at
    one sample point, and each line family is traced from it once."""
    traced = Counter()
    trace = broken._trace

    def counting_trace(s, chart, nums, den, A, m, p_cone, p, decorated,
                       depth):
        if depth == 0:
            traced[(chart, nums, den, A, m, p_cone, p, decorated)] += 1
        return trace(s, chart, nums, den, A, m, p_cone, p, decorated, depth)

    monkeypatch.setattr(broken, "_trace", counting_trace)
    s = quadrant(bound=3)
    ch = s.chambers[0]
    rs = [r for r in itertools.product(range(4), repeat=2)
          if chambers_containing(s, CONE, r)[:1] == [ch]]
    values = {r: alpha_trop(s, (1, 0), (0, 1), r) for r in rs}
    assert len(rs) > 2 and len({res.x for res in values.values()}) == 1
    assert traced and max(traced.values()) == 1
    # theta_x theta_y = z^(1,1) + t on the quadrant
    for r, res in values.items():
        want = {(1, 1): [{"A": [0], "m": [0, 0], "c": "1/1"}],
                (0, 0): [{"A": [1], "m": [0, 0], "c": "1/1"}]}.get(r, [])
        assert res.value.to_json() == want


def test_genericity_hyperplanes_are_kept_per_structure(monkeypatch):
    """A second identical batch of structure constants draws no primitive
    vector: the hyperplanes a generic point avoids are kept with the
    lines."""
    drawn = []
    primitive = broken.primitive

    def counting_primitive(v):
        drawn.append(v)
        return primitive(v)

    monkeypatch.setattr(broken, "primitive", counting_primitive)
    s = quadrant(bound=3)
    batch = [((1, 0), (0, 1), (1, 1)), ((1, 0), (1, 0), (2, 0)),
             ((0, 1), (1, 0), (1, 1)), ((2, 0), (0, 1), (1, 0))]
    first = [alpha_trop(s, *args).value for args in batch]
    assert drawn
    drawn.clear()
    assert [alpha_trop(s, *args).value for args in batch] == first
    assert drawn == []


def test_with_walls_copy_traces_its_own_lines():
    """A copy with another wall function does not read the lines kept on
    the structure it was made from."""
    s = quadrant(bound=2)
    x = pt(3, 7)
    before = theta(s, (1, 0), x)
    other = quadrant(bound=2, wall_coeff=2)
    copy = s.with_walls([dataclasses.replace(
        s.walls[0], function=other.walls[0].function)])
    assert theta(copy, (1, 0), x) == theta(other, (1, 0), x) != before
    assert theta(s, (1, 0), x) == before


def test_non_generic_endpoint_raises_on_every_call():
    s = quadrant()
    enumerate_lines(s, (1, 0), X_ABOVE)
    raised = []
    for _ in range(2):
        with pytest.raises(NonGenericEndpoint) as info:
            enumerate_lines(s, (1, 0), pt(4, 4))
        raised.append((str(info.value), info.value.hyperplane))
    assert raised[0] == raised[1] and raised[0][1] is not None


def test_enumerate_lines_returns_a_fresh_list():
    s = quadrant(bound=2)
    x = pt(3, 7)
    lines = enumerate_lines(s, (1, 0), x)
    want = list(lines)
    lines.reverse()
    lines.pop()
    assert enumerate_lines(s, (1, 0), x) == want


# -- endpoint genericity -----------------------------------------------------

def test_line_families_are_kept_per_candidate_set():
    """x = (2/3, 1/3) is generic for the asymptotic (1, 0) of the bound-2
    quadrant but lies on the line y = x/2 that the monomial (-2, -1) of
    the asymptotic (0, 1) draws: a kept family of one asymptotic does not
    pass the endpoint for the other."""
    s = quadrant(bound=2)
    x = pt(Fraction(2, 3), Fraction(1, 3))
    lines = enumerate_lines(s, (1, 0), x)
    assert lines
    for _ in range(2):
        with pytest.raises(NonGenericEndpoint) as info:
            enumerate_lines(s, (0, 1), x)
        assert info.value.hyperplane == (1, -2)
        assert str(info.value) == \
            "endpoint in chart (0, 1) lies on the hyperplane (1, -2)"
    assert enumerate_lines(s, (1, 0), x) == lines


def _candidates(s, p):
    """The candidate monomials of the asymptotic p, in the chart CONE."""
    return broken._asymptotic(s, p, CONE)[2]


def _on_a_hyperplane(hps, coords):
    """Test-side oracle: a Fraction dot product vanishes."""
    return any(sum(Fraction(h_i) * c for h_i, c in zip(h, coords)) == 0
               for h in hps)


DENOMINATORS = st.sampled_from([3, 7, 997 * 1009])
GENERICITY_ASYMPTOTICS = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0)]


@seed(1204_1991)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_property_genericity_is_decided_exactly(data):
    """On the bound-3 quadrant, an endpoint raises exactly when it lies
    on a genericity hyperplane: points on each hyperplane through the
    open quadrant, and points with mixed denominators that a Fraction
    oracle finds off every hyperplane."""
    s = quadrant(bound=3)
    p = data.draw(st.sampled_from(GENERICITY_ASYMPTOTICS))
    hps = broken.genericity_hyperplanes(s, CONE, _candidates(s, p))
    through = [h for h in hps if h[0] * h[1] < 0]
    assert through
    for h in through:
        t = Fraction(data.draw(st.integers(1, 10 ** 6)),
                     data.draw(DENOMINATORS))
        x = pt(t * abs(h[1]), t * abs(h[0]))
        with pytest.raises(NonGenericEndpoint) as info:
            enumerate_lines(s, p, x)
        assert _on_a_hyperplane([info.value.hyperplane], x.coords)
        assert f"in chart {CONE}" in str(info.value)
    x = pt(*(Fraction(data.draw(st.integers(1, 10 ** 6)),
                      data.draw(DENOMINATORS)) for _ in range(2)))
    if _on_a_hyperplane(hps, x.coords):
        with pytest.raises(NonGenericEndpoint):
            enumerate_lines(s, p, x)
    else:
        assert enumerate_lines(s, p, x)


def _cramer(ch, v):
    """Test-side oracle: (a, b) with v = a·lower + b·upper, by Fraction
    Cramer's rule."""
    (l0, l1), (u0, u1) = ch.lower, ch.upper
    d = Fraction(l0 * u1 - l1 * u0)
    return (v[0] * u1 - v[1] * u0) / d, (l0 * v[1] - l1 * v[0]) / d


def test_alpha_points_are_generic_and_chambers_are_kept(monkeypatch):
    """Every reachable (p1, p2, r) of the bound-3 quadrant ends its lines
    in the open interior of its chamber, off every hyperplane of both
    asymptotics; the kept chambers holding r are the oracle's, and their
    determinants are taken at the first r only."""
    dets = []
    det = broken.det
    monkeypatch.setattr(broken, "det", lambda m: dets.append(m) or det(m))
    s = quadrant(bound=3)
    exps = [p for p in itertools.product(range(4), repeat=2)
            if 0 < sum(p) <= 3]
    triples = [(p1, p2, (p1[0] + p2[0] - j, p1[1] + p2[1] - j))
               for p1 in exps for p2 in exps for j in range(4)
               if min(p1[0] + p2[0], p1[1] + p2[1]) >= j]
    seen = set()
    for p1, p2, r in triples:
        dets.clear()
        res = alpha_trop(s, p1, p2, r)
        assert bool(dets) == (r not in seen)
        seen.add(r)
        a, b = _cramer(res.chamber, res.x.coords)
        assert a > 0 and b > 0
        for p in (p1, p2):
            hps = broken.genericity_hyperplanes(s, CONE, _candidates(s, p))
            assert not _on_a_hyperplane(hps, res.x.coords)
        want = [ch for ch in s.chambers
                if ch.cone == CONE and min(_cramer(ch, r)) >= 0]
        assert want[0] == res.chamber
        dets.clear()
        assert chambers_containing(s, CONE, r) == want
        assert dets == []
    assert len(triples) > 100 and len(seen) > 10
