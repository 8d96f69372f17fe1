"""The slab-lift check on the degree-5 del Pezzo of Gross-Hacking-Keel
(arXiv:1106.4977): a cycle of five charts with D_i^2 = -1 and the slab
1 + t z^(-v_i) on the ray of each D_i."""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from wallcross import ring
from wallcross.broken import (
    alpha_trop,
    decorated_to_type,
    enumerate_lines,
    theta,
)
from wallcross.consistency import (
    JointReport,
    _across_slab,
    check_joint,
    check_structure,
    patching_check,
)
from wallcross.geometry import PointInChart
from wallcross.ring import RingElement
from wallcross.walls import Wall, WallStructure, refine

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


def test_apex_witness_names_the_failing_slab():
    report = check_joint(pentagon(4, squared=True), "apex")
    assert report.verdict == "fail"
    assert report.witness["check"] == "slab-lift"
    assert report.witness["location"] == ("slab", (0,))
    json.dumps(report.to_json())


# -- the slab product, kept once per (chart, ray) ------------------------------

SLAB_STRUCTURES = {
    **{f"two-cell {k}": (lambda k=k: two_cell(k, [((0, 1), (1,), (1, 0))]))
       for k in (-1, 0, 1)},
    "two-cell 0, two slabs": lambda: two_cell(
        0, [((0, 1), (1,), (1, 0)), ((0, 2), (2,), (1, 0))]),
    "pentagon": lambda: pentagon(3),
}


def count_slab_logs(monkeypatch):
    """The charts of the logarithms taken from now on outside
    ``wall_logs``, which are those of slab products."""
    slab_logs, in_wall_logs = [], []
    log_unipotent, wall_logs = ring.log_unipotent, WallStructure.wall_logs

    def counting_log(f):
        if not in_wall_logs:
            slab_logs.append(f.cone)
        return log_unipotent(f)

    def flagged_wall_logs(self, chart):
        in_wall_logs.append(chart)
        try:
            return wall_logs(self, chart)
        finally:
            in_wall_logs.pop()

    monkeypatch.setattr(ring, "log_unipotent", counting_log)
    monkeypatch.setattr(WallStructure, "wall_logs", flagged_wall_logs)
    return slab_logs


@pytest.mark.parametrize("name", sorted(SLAB_STRUCTURES))
def test_each_slab_product_takes_one_logarithm(name, monkeypatch):
    """Plain and decorated enumeration, the types of the decorated lines
    and the patching check take at most one logarithm of a slab product
    per (chart, ray) of a structure; every other logarithm is a wall's,
    taken in ``wall_logs``.  Asymptotics are taken in every chart, so that
    decorated lines cross the slabs; in x's own chart there is always a
    line."""
    slab_logs = count_slab_logs(monkeypatch)
    # refined, so that the patching check runs on this structure and not
    # on a refined copy with a store of its own
    s = refine(SLAB_STRUCTURES[name]())
    cx = s.complex
    for chart in cx.maximal_cones:
        x = PointInChart(chart, (Fraction(1, 3), Fraction(2, 7)))
        for p_chart in cx.maximal_cones:
            for p in [(1, 0), (0, 1), (1, 1), (2, 1)]:
                p = PointInChart(p_chart, p)
                assert enumerate_lines(s, p, x) or p_chart != chart
                for d in enumerate_lines(s, p, x, decorated=True):
                    decorated_to_type(d, s)
    patching_check(s)
    assert slab_logs
    for chart in cx.maximal_cones:
        assert slab_logs.count(chart) <= len(cx.crossings(chart))


def test_plain_lines_take_no_slab_logarithm(monkeypatch):
    """Only a decorated bend reads a slab product's log terms, so plain
    enumeration and the patching check on the refined pentagon take none,
    and still pass."""
    slab_logs = count_slab_logs(monkeypatch)
    s = refine(pentagon(4))
    for chart in s.complex.maximal_cones:
        x = PointInChart(chart, (Fraction(1, 3), Fraction(2, 7)))
        for p in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            assert enumerate_lines(s, PointInChart(chart, p), x)
    assert patching_check(s).passed
    assert slab_logs == []


def reference_across_slab(cx, g, pos, target, f):
    """Each term of g grouped by its exponent e at ``pos``, each group
    carried into ``target`` and multiplied by f^e there."""
    by_e = {}
    for key, c in g.terms.items():
        by_e.setdefault(key[1][pos], {})[key] = c
    out = RingElement.zero(target, g.trunc, g.n)
    for e, terms in sorted(by_e.items()):
        part = RingElement._make(terms, g.cone, g.trunc, g.n)
        out = out.add(cx.transport_element(part, g.cone, target)
                      .mul(f.pow_int(e)))
    return out


def random_element(rng, cone, trunc, exponent, terms, least_class=0):
    """A sum of ``terms`` seeded monomials of class at least
    ``least_class``, with exponents drawn by ``exponent()``."""
    out = RingElement.zero(cone, trunc, 2)
    for _ in range(terms):
        out = out.add(RingElement.monomial(
            (rng.randint(least_class, trunc.bound),), exponent(),
            rng.randint(-3, 3), cone, trunc))
    return out


@pytest.mark.parametrize("name", ["two-cell -1", "two-cell 0", "two-cell 1",
                                  "pentagon"])
def test_across_slab_matches_the_group_by_exponent_reference(name):
    """Seeded g in each chart of a slab ray, with exponents e >= 0 off the
    ray, carried across it with a seeded slab product 1 + terms along the
    ray: transport followed by ``apply_theta`` equals transporting each
    exponent group and multiplying it by that power of the product."""
    rng = random.Random(2105)
    s = SLAB_STRUCTURES[name]()
    cx = s.complex
    checked = 0
    for source in cx.maximal_cones:
        for c in cx.crossings(source).values():
            # the slab's ray in the target chart, then off it in the source
            on_ray = 1 - cx.crossing_to(c.target, source).pos
            for _ in range(10):
                f = RingElement.one(c.target, s.trunc, 2).add(random_element(
                    rng, c.target, s.trunc,
                    lambda: tuple(rng.randint(-3, 3) * int(i == on_ray)
                                  for i in range(2)), 3, least_class=1))
                g = random_element(
                    rng, source, s.trunc,
                    lambda: tuple(rng.randint(0, 3) if i == c.pos
                                  else rng.randint(-3, 3) for i in range(2)),
                    6)
                assert _across_slab(cx, g, c.target, f) == \
                    reference_across_slab(cx, g, c.pos, c.target, f)
                checked += 1
    assert checked
