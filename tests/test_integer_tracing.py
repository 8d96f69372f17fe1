"""Integer broken-line tracing and per-exponent structure constants, each
against a test-side oracle: the rational ray formulas with ``cone_coords``
membership, and the sum over all pairs of lines."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wallcross import broken, linalg
from wallcross.broken import alpha_trop, enumerate_lines
from wallcross.ring import RingElement, Truncation
from wallcross.walls import Wall, WallStructure

from tests.test_broken import CONE, quadrant
from tests.test_walls import two_cell_complex

OTHER = (0, 2)


# -- ray events --------------------------------------------------------------

def _wall(chart, g, trunc, rho=None):
    """A wall on the ray g with function 1 + t z^(-g)."""
    f = RingElement.one(chart, trunc, 2).add(
        RingElement.monomial((1,), tuple(-c for c in g), 1, chart, trunc))
    return Wall(cone=chart, support=(tuple(g),), function=f, rho=rho)


def walled_two_cell():
    """The two-cell complex with walls on rays in several directions of
    chart (0, 1), two walls on one ray, walls on both boundary rays of
    the chart (one a slab on the shared facet (0,)), and walls in the
    other chart."""
    trunc = Truncation.degree(1, 2)
    rays = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (1, 1),
            (0, 1), (5, 2)]
    walls = [_wall(CONE, g, trunc) for g in rays]
    walls.append(_wall(CONE, (1, 0), trunc, rho=(0,)))
    walls += [_wall(OTHER, g, trunc) for g in [(1, 1), (2, 1)]]
    return WallStructure(complex=two_cell_complex(), trunc=trunc,
                         walls=tuple(walls))


def _crossing_time(w, point, m):
    """-<d, point>/<d, m> for the conormal d = (-g1, g0) of the wall's ray
    g, or None if the ray point + t·m is parallel to the wall."""
    [g] = w.support
    d = (-g[1], g[0])
    pairing = d[0] * m[0] + d[1] * m[1]
    if pairing == 0:
        return None
    return -(d[0] * point[0] + d[1] * point[1]) / Fraction(pairing)


def oracle_ray_events(s, chart, point, m):
    """The rational formulas: exit time point[j]/(-m[j]), crossing time
    -<d, point>/<d, m> for a conormal d of the wall's ray, and membership
    by ``cone_coords``; events (t, wall index, point) sorted by (t, index),
    exit None or (t, position)."""
    exit_t = exit_pos = None
    for j, (c, mj) in enumerate(zip(point, m)):
        if mj < 0:
            t = c / -mj
            if exit_t is None or t < exit_t:
                exit_t, exit_pos = t, j
    events = []
    for i, w in enumerate(s.walls):
        if w.cone != chart or w.rho is not None:
            continue
        t = _crossing_time(w, point, m)
        if t is None or t <= 0 or (exit_t is not None and t >= exit_t):
            continue
        q = tuple(c + t * x for c, x in zip(point, m))
        if linalg.cone_coords(w.support, q) is not None:
            events.append((t, i, q))
    events.sort(key=lambda ev: ev[:2])
    return events, None if exit_t is None else (exit_t, exit_pos)


def integer_ray_events(s, chart, point, m, scale=1):
    """``_ray_events`` on point written over scale·lcm(denominators), with
    its times and points read back as Fractions; checks the integer
    forms: positive denominators, reduced crossing points, and each event's
    wall."""
    den = scale * math.lcm(*(c.denominator for c in point))
    nums = tuple(int(c * den) for c in point)
    events, exit_info = broken._ray_events(s, chart, nums, den, m)
    out = []
    for (tn, td), i, w, (qn, qd) in events:
        assert td > 0 and qd > 0 and math.gcd(qd, *qn) == 1
        assert w is s.walls[i]
        out.append((Fraction(tn, td), i,
                    tuple(Fraction(a, qd) for a in qn)))
    if exit_info is not None:
        (tn, td), pos = exit_info
        assert td > 0
        exit_info = (Fraction(tn, td), pos)
    return out, exit_info


def test_ray_event_ties_and_crossings_at_the_exit():
    """Two walls on one ray are crossed at the same t, in index order;
    a ray through the origin meets every wall there at one t; a crossing
    at the exit time is excluded."""
    s = walled_two_cell()
    cases = [
        # the two walls on (1, 1) at one t
        ((Fraction(1, 7), Fraction(5, 3)), (1, -1)),
        # through the origin from outside the cone: every crossed wall
        # at t = 1/997
        ((Fraction(-2, 997), Fraction(-3, 997)), (2, 3)),
        # leaves through x0 = 0 at t = 1/3, where the wall on (0, 1) is
        ((Fraction(1, 3), Fraction(1, 7)), (-1, 1)),
        # leaves through the origin, where every wall line meets
        ((Fraction(2, 3), Fraction(1, 3)), (-2, -1)),
    ]
    seen_tie = seen_origin = seen_at_exit = False
    for point, m in cases:
        want = oracle_ray_events(s, CONE, point, m)
        for scale in (1, 6):
            assert integer_ray_events(s, CONE, point, m, scale) == want
        times = [t for t, _i, _q in want[0]]
        seen_tie |= len(set(times)) < len(times)
        seen_origin |= any(not any(q) for _t, _i, q in want[0])
        if want[1] is not None:
            seen_at_exit |= any(_crossing_time(w, point, m) == want[1][0]
                                for w in s.walls
                                if w.cone == CONE and w.rho is None)
    assert seen_tie and seen_origin and seen_at_exit


COORD = st.builds(Fraction, st.integers(-40, 40),
                  st.sampled_from([1, 3, 7, 997 * 1009]))
EXPONENT = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@seed(2105_02502)
@settings(max_examples=400, deadline=None)
@given(st.tuples(COORD, COORD), EXPONENT, st.sampled_from([1, 2, 5]),
       st.sampled_from([CONE, OTHER]))
def test_property_ray_events_match_the_rational_oracle(point, m, scale,
                                                       chart):
    """Events, their order, their crossing points and the exit agree
    exactly with the rational formulas, for points with mixed
    denominators written over any positive denominator."""
    s = walled_two_cell()
    assert integer_ray_events(s, chart, point, m, scale) == \
        oracle_ray_events(s, chart, point, m)


# -- structure constants -----------------------------------------------------

def _exponents(bound):
    return [p for p in itertools.product(range(bound + 1), repeat=2)
            if 0 < sum(p) <= bound]


def oracle_alpha(s, p1, p2, r, x):
    """Σ a_beta(l1)·a_beta(l2) per class A over all pairs of lines ending
    at x with m_beta(l1) + m_beta(l2) = r, classes in the ideal dropped;
    also whether some pair's class was dropped, and the most second lines
    paired with one first line."""
    total, dropped, most = {}, False, 0
    for l1 in enumerate_lines(s, p1, x):
        paired = 0
        for l2 in enumerate_lines(s, p2, x):
            if tuple(a + b for a, b in zip(l1.m_beta, l2.m_beta)) != r:
                continue
            paired += 1
            A = tuple(a + b for a, b in zip(l1.class_beta, l2.class_beta))
            if s.trunc.in_ideal(A):
                dropped = True
                continue
            total[A] = total.get(A, 0) + l1.a_beta * l2.a_beta
        most = max(most, paired)
    return {(A, (0, 0)): c for A, c in total.items() if c}, dropped, most


def _check_alpha(s, p1, p2, r, chamber=None):
    """alpha_trop against the all-pairs oracle at its sample point; returns
    the oracle's (dropped, most)."""
    res = alpha_trop(s, p1, p2, r, chamber=chamber)
    want, dropped, most = oracle_alpha(s, p1, p2, r, res.x)
    assert res.value.terms == want
    assert all(type(c) is int or c.denominator > 1
               for c in res.value.terms.values())
    assert res.value.cone == CONE and res.value.trunc == s.trunc
    return dropped, most


def test_alpha_sums_per_exponent_like_all_pairs():
    """Every reachable (p1, p2, r) of the bound-3 quadrant with walls
    (1 + c t z^(-1,-1))^k, k = 1, 2, against the all-pairs sum.  On the
    quadrant the class of a pair is the number of bends j with
    r = p1 + p2 - j·(1, 1), and at a point in the cone only one of the
    two lines bends, so no reachable pair leaves the ideal's complement
    and no final exponent is reached twice; at bound 2, asked at each chamber for j up to 4, both lines bend and
    some pairs' classes lie in the ideal."""
    exps = _exponents(3)
    checked = dropped = 0
    for power, c in ((1, Fraction(-7, 2)), (2, 5)):
        s = quadrant(bound=3, wall_coeff=c, power=power)
        for p1, p2 in itertools.product(exps, repeat=2):
            tot = (p1[0] + p2[0], p1[1] + p2[1])
            for j in range(min(min(tot), 3) + 1):
                r = (tot[0] - j, tot[1] - j)
                dropped_here, most = _check_alpha(s, p1, p2, r)
                assert not dropped_here and most <= 1
                checked += 1
        s = quadrant(bound=2, wall_coeff=c, power=power)
        for ch in s.chambers:
            for p1, p2 in itertools.product(exps, repeat=2):
                for j in range(5):
                    r = (p1[0] + p2[0] - j, p1[1] + p2[1] - j)
                    dropped += _check_alpha(s, p1, p2, r, chamber=ch)[0]
    assert checked > 300 and dropped > 0


def test_alpha_sums_lines_sharing_a_final_exponent():
    """With walls on the rays (1, 1), (2, 1) and (1, 2) of the bound-3
    quadrant, one family can reach a final exponent by two lines, and
    alpha_trop sums over each of them."""
    q = quadrant(bound=3, power=2)
    s = q.with_walls(q.walls + tuple(_wall(CONE, g, q.trunc)
                                     for g in [(2, 1), (1, 2)]))
    most = 0
    for p1, p2 in itertools.product(_exponents(3), repeat=2):
        for a, b in itertools.product(range(4), repeat=2):
            r = (p1[0] + p2[0] - a, p1[1] + p2[1] - b)
            if min(r) >= 0:
                most = max(most, _check_alpha(s, p1, p2, r)[1])
    assert most > 1


def test_alpha_sample_points_of_one_value_are_one_object():
    """Samples drawn for different candidate sets can coincide; a point of
    one value is then one object, so the line families kept under it are
    found by identity."""
    s = quadrant(bound=3)
    points = []
    for p1, p2 in itertools.product(_exponents(3), repeat=2):
        tot = (p1[0] + p2[0], p1[1] + p2[1])
        for j in range(min(min(tot), 3) + 1):
            r = (tot[0] - j, tot[1] - j)
            points.append(alpha_trop(s, p1, p2, r).x)
    assert len({id(x) for x in points}) == len(set(points)) < len(points)
