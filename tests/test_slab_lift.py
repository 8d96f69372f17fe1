"""The slab-lift check on the degree-5 del Pezzo of Gross-Hacking-Keel
(arXiv:1106.4977): a cycle of five charts with D_i^2 = -1 and the slab
1 + t z^(-v_i) on the ray of each D_i."""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from wallcross.broken import alpha_trop, theta
from wallcross.consistency import JointReport, check_structure, patching_check
from wallcross.geometry import PointInChart
from wallcross.ring import RingElement
from wallcross.walls import Wall

from tests.test_broken import ray_exponent, toric_cycle, two_cell

K = 5


def pentagon(bound, squared=False):
    """The five slabs, each stored in the chart (i, i+1) sorted; with
    ``squared`` the slab of D_0 carries (1 + t z^(-v_0))^2 instead."""
    s = toric_cycle((-1,) * K, bound)
    walls = []
    for i in range(K):
        chart = tuple(sorted((i, (i + 1) % K)))
        v = tuple(int(d == i) for d in chart)
        f = RingElement.one(chart, s.trunc, 2).add(RingElement.monomial(
            (1,), tuple(-x for x in v), 1, chart, s.trunc))
        if squared and i == 0:
            f = f.mul(f)
        walls.append(Wall(cone=chart, support=(v,), function=f, rho=(i,)))
    return s.with_walls(walls)


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_exchange_relations_in_every_chamber(bound):
    """theta_(i-1) theta_(i+1) = t (theta_i + t) for every i, at a point of
    every chamber."""
    s = pentagon(bound)
    assert len(s.chambers) == K
    for ch in s.chambers:
        x = PointInChart(ch.cone, (Fraction(1, 3), Fraction(2, 7)))
        th = [theta(s, ray_exponent(s.complex, i), x) for i in range(K)]
        t = RingElement.monomial((1,), (0, 0), 1, ch.cone, s.trunc)
        for i in range(K):
            assert th[i - 1].mul(th[(i + 1) % K]) == t.mul(th[i].add(t))


def test_structure_constants_of_the_exchange_relation():
    s = pentagon(4)
    for i in range(K):
        res = alpha_trop(s, ray_exponent(s.complex, (i - 1) % K),
                         ray_exponent(s.complex, (i + 1) % K),
                         ray_exponent(s.complex, i))
        assert res.value == RingElement.monomial(
            (1,), (0, 0), 1, res.chamber.cone, s.trunc)


def test_pentagon_passes_every_slab_lift():
    s = pentagon(4)
    start = time.perf_counter()
    reports = check_structure(s)
    elapsed = time.perf_counter() - start
    assert reports == [JointReport(joint="apex", codim=2, boundary=False,
                                   verdict="pass")]
    lifts = [item for item in patching_check(s).items
             if item.name == "slab-lift"]
    assert len(lifts) == 25
    assert all(item.verdict == "pass" for item in lifts)
    assert elapsed < 3.0


def test_squared_slab_fails_its_slab_lift():
    report = patching_check(pentagon(4, squared=True))
    assert not report.passed
    failure = report.first_failure()
    assert failure.name == "slab-lift"
    assert failure.location == ("slab", (0,))


def test_slabs_on_one_ray_lift_as_their_product():
    """1 + t z^(1,0) stored in each chart of the two-cell complex: a broken
    line crosses the ray by the product of the two, so the slab lift does
    too, in one item per p, as for the product stored as one wall."""
    two = patching_check(two_cell(0, [((0, 1), (1,), (1, 0)),
                                      ((0, 2), (1,), (1, 0))]))
    one = two_cell(0, [((0, 1), (1,), (1, 0))])
    [w] = one.walls
    product = patching_check(one.with_walls(
        [replace(w, function=w.function.mul(w.function))]))
    assert two.passed
    assert two == product
    assert len([i for i in two.items if i.name == "slab-lift"]) == 5


def test_slab_lift_transports_each_slab_into_one_chart():
    """Slab 0 of the pentagon stored in its other chart (0, 4) passes; stored
    in both charts, the ray carries its square and fails at its slab."""
    s = pentagon(4)
    w0 = s.walls[0]
    moved = Wall(cone=(0, 4), support=((1, 0),), rho=(0,),
                 function=s.complex.transport_element(w0.function, w0.cone,
                                                      (0, 4)))
    assert patching_check(s.with_walls((moved,) + s.walls[1:])).passed
    report = patching_check(s.with_walls(s.walls + (moved,)))
    failure = report.first_failure()
    assert failure.name == "slab-lift"
    assert failure.location == ("slab", (0,))
