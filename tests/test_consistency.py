"""Joint consistency checks, scattering completion, theta patching."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from wallcross import consistency, ring
from wallcross.consistency import (
    LOCAL_CHART,
    JointReport,
    LocalInstance,
    LocalRay,
    check_joint,
    check_structure,
    complete_codim0,
    default_p_set,
    identity_around,
    localize_at_joint,
    patching_check,
    path_ordered,
)
from wallcross.errors import (
    BoundaryJoint,
    ConsistencyError,
    InadmissibleWallDirection,
    NonConvergent,
    UnsupportedDimension,
)
from wallcross.geometry import DivisorTable, build_complex
from wallcross.ring import RingElement, Truncation
from wallcross.walls import Wall, WallStructure

from tests.test_broken import no_walls, quadrant

T12 = Truncation.from_generators(2, ((2, 0), (0, 2)))
T4 = Truncation.degree(1, 4)


def mono(A, m, c=1, trunc=T12):
    return RingElement.monomial(A, m, c, LOCAL_CHART, trunc)


def line(a, tA, trunc=T12):
    """The two half-rays of an initial line through the origin."""
    f = RingElement.one(LOCAL_CHART, trunc, 2).add(mono(tA, a, trunc=trunc))
    return [LocalRay(tuple(a), f), LocalRay(tuple(-x for x in a), f)]


def two_lines():
    return LocalInstance(
        trunc=T12, rays=tuple(line((1, 0), (1, 0)) + line((0, 1), (0, 1))))


# -- independent oracle: brute-force truncated automorphisms -----------------
#
# Plain-dict Laurent arithmetic, written without the package's ring layer.

def _o_mul(p, q, in_ideal):
    out = {}
    for (A1, m1), c1 in p.items():
        for (A2, m2), c2 in q.items():
            A = tuple(a + b for a, b in zip(A1, A2))
            if in_ideal(A):
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            out[(A, m)] = out.get((A, m), Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _o_pow(f, k, in_ideal, rank):
    one = {((0,) * rank, (0, 0)): Fraction(1)}
    if k < 0:
        # invert f = 1 + eps (eps nilpotent) by summing (-eps)^j
        eps = dict(f)
        key = ((0,) * rank, (0, 0))
        eps[key] = eps.get(key, Fraction(0)) - 1
        inv = dict(one)
        term = dict(one)
        for _ in range(64):
            term = _o_mul(term, eps, in_ideal)
            term = {kk: -c for kk, c in term.items()}
            if not term:
                break
            for kk, c in term.items():
                inv[kk] = inv.get(kk, Fraction(0)) + c
        inv = {kk: c for kk, c in inv.items() if c}
        f, k = inv, -k
    out = {((0,) * rank, (0, 0)): Fraction(1)}
    for _ in range(k):
        out = _o_mul(out, f, in_ideal)
    return out


def oracle_loop(inst: LocalInstance, g_exponent, start=0, reverse=False):
    """Path-ordered product on z^g, composed from scratch.

    The loop runs counterclockwise from the ``start``-th ray; reversed, it
    runs clockwise with the conormals flipped, which gives the inverse
    loop, so a consistent diagram passes every way."""
    trunc = inst.trunc
    rank = trunc.curve_rank
    in_ideal = trunc.in_ideal
    rays = sorted(inst.rays,
                  key=lambda r: math.atan2(r.direction[1], r.direction[0])
                  % (2 * math.pi))
    k = start % len(rays) if rays else 0
    rays = rays[k:] + rays[:k]
    sign = -1 if reverse else 1
    poly = {((0,) * rank, tuple(g_exponent)): Fraction(1)}
    for ray in (rays[::-1] if reverse else rays):
        d = ray.direction
        normal = (sign * d[1], -sign * d[0])
        f = {(A, m): c for (A, m), c in ray.function.terms.items()}
        out = {}
        for (A, m), c in poly.items():
            k = normal[0] * m[0] + normal[1] * m[1]
            factor = _o_pow(f, k, in_ideal, rank)
            for (A2, m2), c2 in factor.items():
                A3 = tuple(a + b for a, b in zip(A, A2))
                if in_ideal(A3):
                    continue
                m3 = tuple(a + b for a, b in zip(m, m2))
                out[(A3, m3)] = out.get((A3, m3), Fraction(0)) + c * c2
        poly = {kk: c for kk, c in out.items() if c}
    return poly


# the four generators z^(+-e1), z^(+-e2) of the oracle, in its order
GENERATORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def oracle_witness(inst: LocalInstance, max_weight=None, start=0,
                   reverse=False):
    """The first term of theta(z^g) - z^g, through ``max_weight`` if given,
    for the first of the four generators whose loop moves it, as
    (generator, A, m, coefficient); None if the loop fixes all four."""
    rank, trunc = inst.trunc.curve_rank, inst.trunc
    for g in GENERATORS:
        diff = oracle_loop(inst, g, start, reverse)
        key = ((0,) * rank, g)
        diff[key] = diff.get(key, Fraction(0)) - 1
        diff = {(A, m): c for (A, m), c in diff.items() if c and (
            max_weight is None or trunc.weight_of(A) <= max_weight)}
        if diff:
            (A, m), c = min(diff.items())
            return g, A, m, c
    return None


def oracle_is_identity(inst: LocalInstance) -> bool:
    rank = inst.trunc.curve_rank
    for g in GENERATORS:
        expected = {((0,) * rank, g): Fraction(1)}
        if oracle_loop(inst, g) != expected:
            return False
    return True


# -- validation ---------------------------------------------------------------

def test_rejects_non_primitive_direction():
    f = RingElement.one(LOCAL_CHART, T12, 2)
    with pytest.raises(InadmissibleWallDirection):
        LocalInstance(trunc=T12, rays=(LocalRay((2, 0), f),))


def test_rejects_non_parallel_exponent():
    f = RingElement.one(LOCAL_CHART, T12, 2).add(mono((1, 0), (0, 1)))
    with pytest.raises(InadmissibleWallDirection):
        LocalInstance(trunc=T12, rays=(LocalRay((1, 0), f),))


@pytest.mark.parametrize("direction, m, parallel", [
    ((1, 2), (-2, -4), True),
    ((1, 2), (3, 6), True),
    ((1, 2), (1, 3), False),
    ((2, 3), (1, 1), False),
    ((2, 3), (-2, -4), False),
    ((0, 1), (0, -3), True),
    ((0, 1), (1, -3), False),
    ((-1, 0), (5, 0), True),
    ((-1, 0), (5, 1), False),
    ((3, -2), (-6, 4), True),
    ((3, -2), (-3, 4), False),
])
def test_ray_exponents_must_be_nonzero_multiples(direction, m, parallel):
    f = RingElement.one(LOCAL_CHART, T12, 2).add(mono((1, 0), m))
    rays = (LocalRay(direction, f),)
    if parallel:
        LocalInstance(trunc=T12, rays=rays)
        return
    message = f"exponent {m} is not parallel to {direction}"
    with pytest.raises(InadmissibleWallDirection, match=re.escape(message)):
        LocalInstance(trunc=T12, rays=rays)


def test_rejects_bad_constant_term():
    f = mono((0, 0), (0, 0), 2)
    with pytest.raises(InadmissibleWallDirection):
        LocalInstance(trunc=T12, rays=(LocalRay((1, 0), f),))


def test_passing_report_cannot_carry_witness():
    with pytest.raises(ConsistencyError):
        JointReport(joint="x", codim=0, boundary=False, verdict="pass",
                    witness={"A": [1]})


# -- codimension-zero checks ---------------------------------------------------

def test_empty_instance_is_consistent():
    inst = LocalInstance(trunc=T12, rays=())
    assert identity_around(inst) == (True, None)


def test_trivial_functions_are_consistent():
    f = RingElement.one(LOCAL_CHART, T12, 2)
    inst = LocalInstance(trunc=T12, rays=(LocalRay((1, 1), f),))
    assert identity_around(inst) == (True, None)
    assert identity_around(inst, max_weight=1) == (True, None)


def test_single_line_is_consistent():
    inst = LocalInstance(trunc=T12, rays=tuple(line((1, 0), (1, 0))))
    assert identity_around(inst) == (True, None)
    assert oracle_is_identity(inst)


def test_two_crossing_lines_fail_with_commutator_witness():
    inst = two_lines()
    ok, witness = identity_around(inst)
    assert not ok
    assert witness["A"] == [1, 1]          # a t1*t2 term
    assert witness["generator"] == [1, 0]
    assert not oracle_is_identity(inst)
    # through weight 1 the two lines commute
    assert identity_around(inst, max_weight=1) == (True, None)


def test_verdict_invariant_under_rotation_and_reversal():
    """The oracle's loop, started at every ray and run either way, gives
    the verdict of ``identity_around``'s one counterclockwise loop."""
    one_line = LocalInstance(trunc=T12, rays=tuple(line((1, 0), (1, 0))))
    done = complete_codim0(two_lines(), max_weight=2)
    for inst in (two_lines(), one_line, done,
                 replace(done, rays=done.rays[1:])):
        expected = identity_around(inst)[0]
        for start in range(len(inst.rays)):
            for reverse in (False, True):
                witness = oracle_witness(inst, start=start, reverse=reverse)
                assert (witness is None) == expected, (start, reverse)


# -- completion ----------------------------------------------------------------

def test_completion_emits_single_commutator_wall():
    inst = two_lines()
    done = complete_codim0(inst, max_weight=2)
    new = [r for r in done.rays
           if not r.function.is_one() and r not in inst.rays]
    assert len(new) == 1
    assert new[0].direction == (-1, -1)
    expected = RingElement.one(LOCAL_CHART, T12, 2).add(mono((1, 1), (1, 1)))
    assert new[0].function == expected
    assert identity_around(done) == (True, None)
    assert oracle_is_identity(done)


def test_completed_path_product_fixes_generators():
    done = complete_codim0(two_lines(), max_weight=2)
    for g in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        zg = mono((0, 0), g)
        assert path_ordered(done, zg) == zg


def test_completion_is_idempotent():
    done = complete_codim0(two_lines(), max_weight=2)
    again = complete_codim0(done, max_weight=2)
    assert again.rays == done.rays


def test_completion_of_consistent_instance_is_unchanged():
    inst = LocalInstance(trunc=T12, rays=tuple(line((1, 0), (1, 0))))
    assert complete_codim0(inst, max_weight=2).rays == inst.rays


def test_completion_same_parameter_to_weight_four():
    def l(a, k):
        f = RingElement.one(LOCAL_CHART, T4, 2).add(
            RingElement.monomial((1,), a, 1, LOCAL_CHART, T4))
        return [LocalRay(tuple(a), f), LocalRay(tuple(-x for x in a), f)]

    inst = LocalInstance(trunc=T4, rays=tuple(l((1, 0), 1) + l((0, 1), 1)))
    done = complete_codim0(inst, max_weight=4)
    assert identity_around(done, max_weight=4) == (True, None)
    assert oracle_is_identity(done)
    new = [r for r in done.rays
           if not r.function.is_one() and r not in inst.rays]
    # the classical answer: one central ray with 1 + t^2 z^(1,1)
    assert [r.direction for r in new] == [(-1, -1)]
    assert new[0].function == RingElement.one(LOCAL_CHART, T4, 2).add(
        RingElement.monomial((2,), (1, 1), 1, LOCAL_CHART, T4))


def test_completion_keeps_large_coefficients_exact():
    """(1 + c1 t1 x)(1 + c2 t2 y) scatters to the single ray 1 + c1 c2 t1 t2 xy
    at weight 2; c1 c2 is beyond 2^53, so a float anywhere in solving for
    the coefficient would lose it."""
    c1, c2 = 999999937, 999999929
    trunc = Truncation.degree(2, 2)
    rays = []
    for c, A, a in ((c1, (1, 0), (1, 0)), (c2, (0, 1), (0, 1))):
        f = RingElement.one(LOCAL_CHART, trunc, 2).add(
            mono(A, a, c, trunc=trunc))
        rays += [LocalRay(a, f), LocalRay(tuple(-x for x in a), f)]
    inst = LocalInstance(trunc=trunc, rays=tuple(rays))
    done = complete_codim0(inst)
    new = [r for r in done.rays
           if not r.function.is_one() and r not in inst.rays]
    assert [r.direction for r in new] == [(-1, -1)]
    assert new[0].function.terms == {((0, 0), (0, 0)): 1,
                                     ((1, 1), (1, 1)): c1 * c2}
    assert c1 * c2 == 999999866000004473 > 2 ** 53
    assert oracle_is_identity(done)


def test_completion_beyond_truncation_rejected():
    with pytest.raises(NonConvergent):
        complete_codim0(two_lines(), max_weight=9)


def test_json_round_trip():
    inst = complete_codim0(two_lines(), max_weight=2)
    assert LocalInstance.from_json(inst.to_json()) == inst


def squared_lines(weight, shared):
    """(1 + t1 x)^2 and (1 + t2 y)^2, or with t1 = t2 = t when shared."""
    trunc = Truncation.degree(1 if shared else 2, weight)
    rays = []
    for i, a in enumerate(((1, 0), (0, 1))):
        A = (1,) if shared else tuple(int(j == i) for j in range(2))
        f = RingElement.one(LOCAL_CHART, trunc, 2).add(
            mono(A, a, trunc=trunc)).pow_nonneg(2)
        rays += [LocalRay(a, f), LocalRay(tuple(-x for x in a), f)]
    return LocalInstance(trunc=trunc, rays=tuple(rays))


@pytest.mark.parametrize("shared", [True, False], ids=["t", "t1-t2"])
def test_completion_matches_gps_closed_form_at_weight_ten(shared):
    """Gross-Pandharipande-Siebert (arXiv:0902.0779), l1 = l2 = 2: the ray
    (-1,-1) carries (1 - t1 t2 xy)^-4 = sum binom(k+3, 3) (t1 t2 xy)^k, the
    rays (-(k+1),-k) and (-k,-(k+1)) carry (1 + t1^(k+1) t2^k x^(k+1) y^k)^2
    and its mirror, and there is no other ray."""
    weight = 10
    inst = squared_lines(weight, shared)
    trunc = inst.trunc

    def cls(a, b):
        return (a + b,) if shared else (a, b)

    def truncated(terms):
        return {(A, m): Fraction(c) for (A, m), c in terms.items()
                if trunc.weight_of(A) <= weight}

    one = (cls(0, 0), (0, 0))
    expected = {(-1, -1): truncated(
        {(cls(k, k), (k, k)): math.comb(k + 3, 3)
         for k in range(weight + 1)})}
    for k in range(1, weight + 1):
        for a, b in ((k + 1, k), (k, k + 1)):
            A, m = cls(a, b), (a, b)
            terms = truncated({one: 1, (A, m): 2,
                               (tuple(2 * x for x in A), (2 * a, 2 * b)): 1})
            if len(terms) > 1:
                expected[(-a, -b)] = terms
    start = time.perf_counter()
    done = complete_codim0(inst, max_weight=weight)
    elapsed = time.perf_counter() - start
    new = {r.direction: r.function.terms for r in done.rays
           if not r.function.is_one() and r not in inst.rays}
    assert new == expected
    assert elapsed < 5.0, f"completion took {elapsed:.2f} s"


def test_completion_computes_each_power_once_and_one_pass_per_weight(
        monkeypatch):
    """Every (element, exponent) power is computed once per completion, and
    each weight takes at most two loops, one discrepancy each for z^(e1)
    and z^(e2), and the final check two, one per generator."""
    weight = 6
    powers, keep = Counter(), []
    loops = []
    power = RingElement._power
    path_ordered_ = consistency.path_ordered

    def counting_power(self, k):
        keep.append(self)
        powers[(id(self), k)] += 1
        return power(self, k)

    def counting_loop(*args, **kwargs):
        loops.append(args)
        return path_ordered_(*args, **kwargs)

    inst = squared_lines(weight, shared=False)
    monkeypatch.setattr(RingElement, "_power", counting_power)
    monkeypatch.setattr(consistency, "path_ordered", counting_loop)
    done = complete_codim0(inst, max_weight=weight)
    assert len(done.rays) > len(inst.rays)
    assert powers and max(powers.values()) == 1
    assert len(loops) <= 2 * weight + 2


def _load_script(name):
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scatter_demo_emits_the_central_ray(monkeypatch, capsys):
    demo = _load_script("scatter_demo")
    monkeypatch.setattr("sys.argv", ["scatter_demo.py", "4"])
    assert demo.main() == 0
    out = json.loads(capsys.readouterr().out)
    assert out["consistent"] is True and out["added_rays"] == 1
    central = [r["function"] for r in out["rays"]
               if r["direction"] == [-1, -1]]
    assert central == [[{"A": [0], "m": [0, 0], "c": "1/1"},
                        {"A": [2], "m": [1, 1], "c": "1/1"}]]


# -- patching ------------------------------------------------------------------

def test_wall_free_structure_passes_patching():
    s = no_walls()
    report = patching_check(s)
    assert report.passed
    assert any(i.name == "chamber-invariance" for i in report.items)


def test_quadrant_fixture_passes_patching():
    s = quadrant()
    report = patching_check(s)
    assert report.passed
    names = {i.name for i in report.items}
    assert names == {"chamber-invariance", "intertwining"}


def test_patching_check_keeps_the_structure_caches(monkeypatch):
    """An already refined structure keeps its chambers and wall logs, so a
    second patching check takes no second logarithm."""
    logs = []
    log_unipotent = ring.log_unipotent

    def counting_log(f):
        logs.append(f)
        return log_unipotent(f)

    monkeypatch.setattr(ring, "log_unipotent", counting_log)
    s = quadrant(bound=3)
    assert patching_check(s).passed and patching_check(s).passed
    assert len(logs) == 1


def test_corrupted_wall_fails_intertwining():
    s = quadrant(wall_coeff=2)
    # scale one chamber's wall crossing out of sync by tampering afterwards:
    # a structure whose wall has coefficient 2 is still self-consistent, so
    # corrupt by pairing a mismatched second wall on the same support
    bad_f = RingElement.one((0, 1), s.trunc, 2).add(
        RingElement.monomial((1,), (-1, -1), 3, (0, 1), s.trunc))
    bad = s.with_walls([Wall(cone=(0, 1), support=((1, 1),), function=bad_f),
                        Wall(cone=(0, 1), support=((1, 2),),
                             function=bad_f)])
    report = patching_check(bad)
    assert not report.passed
    fail = report.first_failure()
    assert fail is not None and fail.witness is not None


def test_default_p_set_contains_rays_and_sums():
    pset = default_p_set(quadrant())
    ps = pset[(0, 1)]
    assert (1, 0) in ps and (0, 1) in ps and (1, 1) in ps and (2, 1) in ps


def test_apex_joint_dispatches_to_patching():
    report = check_joint(quadrant(), "apex")
    assert report.codim == 2 and report.verdict == "pass"
    assert report.boundary  # the quadrant's apex sits on the boundary


def test_check_structure_sorted_reports():
    reports = check_structure(quadrant(), level="all")
    assert [r.verdict for r in reports] == ["pass"]


# -- localization (three-dimensional structures) -------------------------------

def threefold():
    return build_complex(
        DivisorTable(names=("D1", "D2", "D3"),
                     a_coeffs=(Fraction(0),) * 3,
                     fiber_multiplicities=None),
        [(0, 1, 2)], curve_rank=1)


def t3():
    return Truncation.degree(1, 2)


def plane_wall_pair(cx, trunc):
    """Two wall halves forming one plane through the ray (1,1,1)."""
    j = (1, 1, 1)
    g1 = (1, 0, 0)
    g2 = (1, 2, 2)   # 2*j - g1: the opposite transverse direction
    m = (0, -1, -1)  # g1 - j, tangent to the plane
    f = RingElement.one((0, 1, 2), trunc, 3).add(
        RingElement.monomial((1,), m, 1, (0, 1, 2), trunc))
    return [Wall(cone=(0, 1, 2), support=(j, g1), function=f),
            Wall(cone=(0, 1, 2), support=(j, g2), function=f)]


def test_localize_interior_joint_full_plane_consistent():
    cx = threefold()
    s = WallStructure(complex=cx, trunc=t3(), walls=tuple(
        plane_wall_pair(cx, t3())))
    inst = localize_at_joint(s, ((0, 1, 2), (1, 1, 1)))
    assert isinstance(inst, LocalInstance)
    assert inst.invariant_rank == 1
    assert len(inst.rays) == 2
    dirs = sorted(r.direction for r in inst.rays)
    assert dirs[0] == tuple(-x for x in dirs[1])
    report = check_joint(s, ((0, 1, 2), (1, 1, 1)))
    assert report.verdict == "pass" and report.codim == 0


def test_localize_half_plane_inconsistent():
    cx = threefold()
    walls = plane_wall_pair(cx, t3())[:1]
    s = WallStructure(complex=cx, trunc=t3(), walls=tuple(walls))
    report = check_joint(s, ((0, 1, 2), (1, 1, 1)))
    assert report.verdict == "fail"
    assert report.witness is not None


def test_apex_of_threefold_dispatches(monkeypatch):
    """``check_joint`` sends the apex to the global patching check and
    never localizes it."""
    s = WallStructure(complex=threefold(), trunc=t3(), walls=())
    checked = []

    def patching(structure, seed=0):
        checked.append((structure, seed))
        return consistency.PatchingReport(passed=True, items=())

    def localize(*_args):
        raise AssertionError("the apex has no planar localization")

    monkeypatch.setattr(consistency, "patching_check", patching)
    monkeypatch.setattr(consistency, "localize_at_joint", localize)
    report = check_joint(s, "apex", seed=3)
    assert (report.joint, report.codim, report.verdict) == ("apex", 2, "pass")
    assert checked == [(s, 3)]
    monkeypatch.undo()
    # the real patching check needs a surface
    with pytest.raises(UnsupportedDimension):
        check_joint(s, "apex")


def test_boundary_joint_detected_and_tangency_checked():
    cx = threefold()
    trunc = t3()
    s = WallStructure(complex=cx, trunc=trunc, walls=tuple(
        plane_wall_pair(cx, trunc)))
    with pytest.raises(BoundaryJoint):
        localize_at_joint(s, ((0, 1, 2), (0, 0, 1)))
    # wall through the boundary ray with a non-tangent exponent: fail
    f = RingElement.one((0, 1, 2), trunc, 3).add(
        RingElement.monomial((1,), (-1, -1, 0), 1, (0, 1, 2), trunc))
    bad = s.with_walls(
        [Wall(cone=(0, 1, 2), support=((0, 0, 1), (1, 1, 0)), function=f)])
    report = check_joint(bad, ((0, 1, 2), (0, 0, 1)))
    assert report.boundary and report.verdict == "fail"
    # tangent exponent along a boundary facet: pass
    f2 = RingElement.one((0, 1, 2), trunc, 3).add(
        RingElement.monomial((1,), (-1, 0, 0), 1, (0, 1, 2), trunc))
    good = s.with_walls(
        [Wall(cone=(0, 1, 2), support=((0, 0, 1), (1, 0, 0)), function=f2)])
    report = check_joint(good, ((0, 1, 2), (0, 0, 1)))
    assert report.boundary and report.verdict == "pass"
