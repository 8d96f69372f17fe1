"""Each scattering order from two weight-capped loops, against the loops it
replaces.

At weight w, ``complete_codim0`` reads the loop's discrepancy from z^(e1)
and z^(e2) alone, each loop capped at weight w, and solves each emitted
coefficient from one crossing of one monomial.  On seeded instances of
every benchmark shape, with one shared parameter and with two, each piece
is compared at every weight with what it replaces, composed from plain
dicts by ``oracle_loop``: the discrepancy at the full truncation for all
four generators z^(+-e1), z^(+-e2), and the response of a probe instance
that carries a factor exp(t^A z^m) for every failing term.  The loop check
``identity_around`` runs on z^(e1) and z^(e2) alone; its witness is
compared with the first failing term of the four-generator oracle.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

from wallcross import consistency
from wallcross.consistency import (LOCAL_CHART, LocalRay, complete_codim0,
                                   identity_around, ordered_rays)
from wallcross.errors import InadmissibleWallDirection
from wallcross.ring import RingElement
from wallcross.walls import primitive

from perfbench.workloads import SCATTER_CLASSES, two_lines
from tests.test_consistency import (GENERATORS as E, oracle_is_identity,
                                    oracle_loop, oracle_witness)


def monomials(inst):
    """z^e for each of the four exponents e of E, in its order."""
    zero_A = (0,) * inst.trunc.curve_rank
    return [RingElement.monomial(zero_A, e, 1, LOCAL_CHART, inst.trunc)
            for e in E]


def seeded_instances():
    """Every full benchmark shape with random two-digit coefficients, and
    the same with only the halves along e1 and e2, whose discrepancy fails
    for one generator only at the first weight."""
    rng = random.Random(19)
    cases = []
    for l1, l2, w in SCATTER_CLASSES["full"]:
        for shared in (True, False):
            c1, c2 = (rng.choice((1, -1)) * rng.randint(10, 99)
                      for _ in range(2))
            inst = two_lines(l1, l2, shared, c1, c2, w)
            label = f"{l1}-{l2}-w{w}-{'t' if shared else 't1t2'}"
            cases.append(pytest.param(inst, id=label + "-lines"))
            halves = replace(inst, rays=tuple(
                r for r in inst.rays if min(r.direction) >= 0))
            cases.append(pytest.param(halves, id=label + "-halves"))
    return cases


def oracle_discrepancy(inst, e) -> dict:
    """theta(z^e) z^(-e) - 1 at the full truncation, from ``oracle_loop``."""
    out = {}
    for (A, m), c in oracle_loop(inst, e).items():
        out[(A, (m[0] - e[0], m[1] - e[1]))] = c
    one = ((0,) * inst.trunc.curve_rank, (0, 0))
    out[one] = out.get(one, 0) - 1
    return {k: c for k, c in out.items() if c}


def probe(inst, emit):
    """``inst`` with a factor exp(t^A z^m) on the ray primitive(-m) for each
    emitted (A, m), multiplied into a ray of that direction if it has one."""
    trunc = inst.trunc
    rays = list(inst.rays)
    for A, m in emit:
        direction = primitive((-m[0], -m[1]))
        exp = RingElement(
            {(tuple(k * a for a in A), tuple(k * x for x in m)):
             Fraction(1, factorial(k))
             for k in range(trunc.max_weight() + 1)},
            LOCAL_CHART, trunc, 2)
        i = next((i for i, r in enumerate(rays)
                  if r.direction == direction), None)
        if i is None:
            rays.append(LocalRay(direction, exp))
        else:
            rays[i] = LocalRay(direction, rays[i].function.mul(exp))
    return replace(inst, rays=tuple(rays))


@pytest.mark.parametrize("inst", seeded_instances())
def test_each_order_from_two_capped_loops_and_one_crossing(inst):
    trunc = inst.trunc
    weight = trunc.max_weight()
    cur = inst
    for w in range(1, weight + 1):
        full = {e: oracle_discrepancy(cur, e) for e in E}
        upto = {e: {k: c for k, c in d.items()
                    if trunc.weight_of(k[0]) <= w} for e, d in full.items()}
        # the capped discrepancy is the full one through weight w
        for g, e in zip(monomials(cur), E):
            assert consistency._discrepancy(cur, g, w).terms == upto[e], \
                (w, e)
        # D_(-e) = -D_e at the first failing weight
        for e, minus_e in ((E[0], E[1]), (E[2], E[3])):
            assert upto[minus_e] == {k: -c for k, c in upto[e].items()}, \
                (w, e)
        # the failing terms, each with the first of the four generators
        # whose discrepancy carries it
        expected = {}
        for e in E:
            for key, c in upto[e].items():
                assert trunc.weight_of(key[0]) == w
                expected.setdefault(key, (e, c))
        failing = consistency._failing(cur, w)
        assert {key: (next(iter(g.terms))[1], c)
                for key, (g, c) in failing.items()} == expected, w
        # one crossing of one monomial against the probe instance
        emit = sorted(key for key in failing if any(key[1]))
        responses = {}
        for A, m in emit:
            g0, eps0 = failing[(A, m)]
            e = next(iter(g0.terms))[1]
            if e not in responses:
                responses[e] = oracle_discrepancy(probe(cur, emit), e)
            direction = primitive((-m[0], -m[1]))
            assert consistency._response(cur, A, m, direction, g0, w) \
                == responses[e].get((A, m), 0) - eps0, (w, A, m)
        cur = complete_codim0(inst, max_weight=w)
    assert oracle_is_identity(cur)


def failing_instances():
    """Per full benchmark shape, with one shared parameter and with two:
    the raw two-line instance, and its completion with one emitted ray
    dropped or with one coefficient of an emitted ray moved by one."""
    rng = random.Random(20)
    cases = []
    for l1, l2, w in SCATTER_CLASSES["full"]:
        for shared in (True, False):
            c1, c2 = (rng.choice((1, -1)) * rng.randint(10, 99)
                      for _ in range(2))
            inst = two_lines(l1, l2, shared, c1, c2, w)
            done = complete_codim0(inst, max_weight=w)
            emitted = [i for i, r in enumerate(done.rays)
                       if r not in inst.rays]
            i = rng.choice(emitted)
            dropped = replace(done, rays=done.rays[:i] + done.rays[i + 1:])
            f = done.rays[i].function
            key = rng.choice(sorted(k for k in f.terms if any(k[0])))
            moved = RingElement({**f.terms, key: f.terms[key] + 1},
                                LOCAL_CHART, f.trunc, f.n)
            changed = replace(done, rays=done.rays[:i] + (
                replace(done.rays[i], function=moved),) + done.rays[i + 1:])
            label = f"{l1}-{l2}-w{w}-{'t' if shared else 't1t2'}"
            cases += [pytest.param(inst, id=label + "-raw"),
                      pytest.param(dropped, id=label + "-dropped"),
                      pytest.param(changed, id=label + "-changed")]
    return cases


@pytest.mark.parametrize("inst", failing_instances())
def test_two_generator_witness_is_the_first_failing_oracle_term(inst):
    """At every weight cap and uncapped, ``identity_around``'s verdict and
    witness are those of the first failing term of the four-generator
    oracle; uncapped, every instance fails."""
    caps = [None, *range(1, inst.trunc.max_weight() + 1)]
    for cap in caps:
        expected = oracle_witness(inst, max_weight=cap)
        if expected is not None:
            g, A, m, c = expected
            expected = {"generator": list(g), "A": list(A), "m": list(m),
                        "coefficient": str(Fraction(c))}
        assert identity_around(inst, max_weight=cap) == \
            (expected is None, expected), cap
        if cap is None:
            assert expected is not None


def benchmark_shapes():
    rng = random.Random(21)
    return [two_lines(l1, l2, shared, rng.randint(10, 99),
                      -rng.randint(10, 99), w)
            for l1, l2, w in SCATTER_CLASSES["full"]
            for shared in (True, False)]


def test_completion_validates_each_ray_once(monkeypatch):
    """Input rays are validated when the instance is built and each
    emitted or merged ray when ``_merge_ray`` makes it; no ray is checked
    twice, and every ray of the result was checked."""
    checked, keep = Counter(), []
    validate = consistency._validate_ray

    def counting_validate(ray, n_exp):
        keep.append(ray)
        checked[id(ray)] += 1
        return validate(ray, n_exp)

    monkeypatch.setattr(consistency, "_validate_ray", counting_validate)
    for inst in benchmark_shapes():
        done = complete_codim0(inst)
        assert len(done.rays) > len(inst.rays)
        assert all(checked[id(r)] == 1 for r in done.rays)
    assert max(checked.values()) == 1


def test_each_instance_sorts_its_rays_once(monkeypatch):
    """Both loops of a weight, and both of the final check, cross the rays
    in the order sorted once for their instance."""
    sorts, loops = [], []
    cmp_to_key, path_ordered = consistency.cmp_to_key, consistency.path_ordered

    def counting_cmp_to_key(cmp):
        sorts.append(cmp)
        return cmp_to_key(cmp)

    def counting_loop(inst, *args, **kwargs):
        loops.append(inst)
        assert ordered_rays(inst) is ordered_rays(inst)
        return path_ordered(inst, *args, **kwargs)

    monkeypatch.setattr(consistency, "cmp_to_key", counting_cmp_to_key)
    monkeypatch.setattr(consistency, "path_ordered", counting_loop)
    for inst in benchmark_shapes():
        sorts.clear()
        loops.clear()
        w = inst.trunc.max_weight()
        complete_codim0(inst)
        assert len(loops) == 2 * (w + 1)
        assert len(sorts) == len({id(i) for i in loops}) == w + 1


def test_an_emitted_ray_off_its_direction_raises(monkeypatch):
    """An emitted ray whose exponents do not run along its direction is
    rejected as it is made, though the instances built from the rays do
    not check them again."""
    merge = consistency._merge_ray

    def turned_merge(rays, direction, *rest):
        return merge(rays, (-direction[1], direction[0]), *rest)

    monkeypatch.setattr(consistency, "_merge_ray", turned_merge)
    inst = two_lines(1, 1, True, 1, 1, 2)
    with pytest.raises(InadmissibleWallDirection, match="not parallel"):
        complete_codim0(inst)
