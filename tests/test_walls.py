"""Wall structure tests: assembly, refinement, crossing, slabs."""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wallcross.errors import (
    ClassInIdeal,
    InadmissibleWallDirection,
    WallError,
)
from wallcross.consistency import _across_slab, _from
from wallcross.geometry import (
    DivisorTable,
    build_complex,
    load_geometry,
)
from wallcross.ring import RingElement, Truncation
from wallcross.walls import (
    Wall,
    WallStructure,
    assemble_canonical,
    check_wall,
    counts_from_json,
    cross_wall,
    planar_chambers,
    refine,
    truncation_from_json,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def divisors(k):
    return DivisorTable(names=tuple(f"D{i}" for i in range(k)),
                        a_coeffs=(Fraction(0),) * k)


def quadrant_complex(curve_rank=1):
    return build_complex(divisors(2), [(0, 1)], curve_rank=curve_rank)


def two_cell_complex(number=0, kink=(1,)):
    return build_complex(divisors(3), [(0, 1), (0, 2)],
                         intersections={(0,): (number,)},
                         kinks={(0,): kink}, curve_rank=1)


T2 = Truncation.degree(1, 2)


def quadrant_wall(trunc=T2, coeff=1):
    cx = quadrant_complex()
    f = RingElement.one((0, 1), trunc, 2).add(
        RingElement.monomial((1,), (-1, -1), coeff, (0, 1), trunc))
    wall = Wall(cone=(0, 1), support=((1, 1),), function=f)
    return WallStructure(complex=cx, trunc=trunc, walls=(wall,))


# -- assembly ----------------------------------------------------------------

def count_entry(k=1, W="1", cone=(0, 1), support=((1, 1),), u=(1, 1),
                A=(1,)):
    return {"max_cone": list(cone), "support": [list(g) for g in support],
            "u": list(u), "A": list(A), "W": W, "k": k, "aut": 1}


def test_assemble_simple_wall():
    cx = quadrant_complex()
    t1 = Truncation.degree(1, 1)
    s = assemble_canonical(cx, [count_entry()], t1)
    assert len(s.walls) == 1
    f = s.walls[0].function
    assert f.coefficient((0,), (0, 0)) == 1
    assert f.coefficient((1,), (-1, -1)) == 1
    assert len(f.terms) == 2


def test_assemble_zero_weight_dropped():
    cx = quadrant_complex()
    s = assemble_canonical(cx, [count_entry(W="0")], T2)
    assert s.walls == ()
    assert s.dropped_trivial == 1


def test_assemble_log_series_collapses():
    # weights (-1)^(k-1)/k^2 with index k assemble to a binomial function
    cx = quadrant_complex()
    t4 = Truncation.degree(1, 4)
    entries = [count_entry(k=k, W=f"{(-1) ** (k - 1)}/{k * k}",
                           u=(k, k), A=(k,)) for k in range(1, 5)]
    s = assemble_canonical(cx, entries, t4)
    assert len(s.walls) == 1
    expected = RingElement.one((0, 1), t4, 2).add(
        RingElement.monomial((1,), (-1, -1), 1, (0, 1), t4))
    assert s.walls[0].function == expected


def test_assemble_rejects_trivial_class():
    cx = quadrant_complex()
    with pytest.raises(ClassInIdeal):
        assemble_canonical(cx, [count_entry(A=(0,))], T2)


def test_assemble_skips_truncated_class():
    cx = quadrant_complex()
    s = assemble_canonical(cx, [count_entry(A=(3,))], T2)
    assert s.walls == ()


def test_assemble_rejects_non_tangent_direction():
    cx = quadrant_complex()
    with pytest.raises(InadmissibleWallDirection):
        assemble_canonical(cx, [count_entry(u=(1, 0))], T2)


def test_assembled_wall_error_names_chart_and_support():
    """An assembled wall that fails its grading check is named by its chart
    and support; the error keeps its class."""
    with pytest.raises(WallError) as info:
        assemble_canonical(quadrant_complex(), [count_entry()], T2,
                           grading=[[0], [0]])
    assert type(info.value) is WallError
    assert str(info.value) == (
        "wall in chart (0, 1) with support [[1, 1]]: monomial t^[1] "
        "z^[-1, -1] has nonzero weight -1 on divisor D0")


def test_wall_support_must_be_simplicial():
    """A wall support has n - 1 generators, not just rank n - 1: doubling a
    generator is rejected by ``check_wall`` and by a walls file."""
    cx = quadrant_complex()
    f = quadrant_wall().walls[0].function
    for support in (((1, 1), (2, 2)), ((1, 1), (1, 1), (3, 3))):
        with pytest.raises(WallError, match=r"has n-1 = 1 generators, "
                                            rf"not {len(support)}$"):
            check_wall(cx, Wall(cone=(0, 1), support=support, function=f))
    data = quadrant_wall().to_json()
    data["walls"][0]["support"] = [[1, 1], [2, 2]]
    with pytest.raises(WallError) as info:
        WallStructure.from_json(data, cx, T2)
    assert str(info.value) == ("wall 0 in chart (0, 1): a simplicial wall "
                               "support has n-1 = 1 generators, not 2")


def test_assemble_merges_decorated_entries():
    # two decorated families on the same (support, u, A) aggregate W/|Aut|
    cx = quadrant_complex()
    t1 = Truncation.degree(1, 1)
    e1 = count_entry(W="1/2")
    e2 = count_entry(W="1")
    e2["aut"] = 2
    s = assemble_canonical(cx, [e1, e2], t1)
    assert s.walls[0].function.coefficient((1,), (-1, -1)) == 1


# -- refinement --------------------------------------------------------------

def test_refine_merges_coincident_supports():
    s = quadrant_wall()
    w = s.walls[0]
    doubled = s.with_walls([w, Wall(w.cone, ((2, 2),), w.function)])
    r = refine(doubled)
    assert len(r.walls) == 1
    assert r.walls[0].function == w.function.mul(w.function)


def test_planar_chambers_of_quadrant():
    assert len(planar_chambers(quadrant_wall())) == 2


# -- crossing ----------------------------------------------------------------

def ray_wall(exponent=(1, 0), support=((1, 0),), trunc=T2):
    cx = quadrant_complex()
    f = RingElement.one((0, 1), trunc, 2).add(
        RingElement.monomial((1,), exponent, 1, (0, 1), trunc))
    return Wall(cone=(0, 1), support=support, function=f)


def test_cross_wall_tangent_monomial_fixed():
    w = ray_wall()
    z = RingElement.monomial((0,), (1, 0), 1, (0, 1), T2)
    assert cross_wall(z, w, source_side=(0, 1)) == z


def test_cross_wall_positive_pairing():
    w = ray_wall()
    z = RingElement.monomial((0,), (0, 1), 1, (0, 1), T2)
    got = cross_wall(z, w, source_side=(0, 1))
    assert got == w.function.mul(z)


def test_cross_wall_negative_pairing_inverts():
    w = ray_wall()
    z = RingElement.monomial((0,), (0, -1), 1, (0, 1), T2)
    got = cross_wall(z, w, source_side=(0, 1))
    expected = RingElement.from_json(
        [{"A": [0], "m": [0, -1], "c": "1"},
         {"A": [1], "m": [1, -1], "c": "-1"},
         {"A": [2], "m": [2, -1], "c": "1"}], (0, 1), T2, 2)
    assert got == expected


def test_cross_wall_round_trip_identity():
    w = ray_wall()
    f = RingElement.from_json(
        [{"A": [0], "m": [0, 1], "c": "1"},
         {"A": [1], "m": [2, -1], "c": "2/3"}], (0, 1), T2, 2)
    there = cross_wall(f, w, source_side=(0, 1))
    back = cross_wall(there, w, source_side=(0, -1))
    assert back == f


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2),
                          st.integers(-2, 2),
                          st.fractions(min_value=-2, max_value=2)),
                max_size=3))
def test_property_crossing_is_automorphism(spec):
    w = ray_wall()
    f = RingElement.zero((0, 1), T2, 2)
    g = RingElement.one((0, 1), T2, 2)
    for a, m1, m2, c in spec:
        f = f.add(RingElement.monomial((a,), (m1, m2), c, (0, 1), T2))
    g = g.add(f)
    fg = f.mul(g)
    assert cross_wall(fg, w, (0, 1)) == \
        cross_wall(f, w, (0, 1)).mul(cross_wall(g, w, (0, 1)))


# -- slab crossing -----------------------------------------------------------

SLAB_TERMS = [(0, 0), (2, 0), (0, 1), (1, 2), (-1, 3), (1, -1)]


def slab_crossing(number, a, b, target, trunc):
    """t^0 z^(a,b), b >= 0, carried over the slab 1 + t z^(1,0) of the
    two-cell complex, in closed form: the transition z^(a,b) ->
    t^b z^(a-kb,-b) (the same from either chart), times (1 + t z^(1,0))^b."""
    out = RingElement.zero(target, trunc, 2)
    for j in range(b + 1):
        out = out.add(RingElement.monomial(
            (b + j,), (a - number * b + j, -b), math.comb(b, j), target,
            trunc))
    return out


def slab_function(chart, trunc):
    return RingElement.one(chart, trunc, 2).add(
        RingElement.monomial((1,), (1, 0), 1, chart, trunc))


def test_slab_zplus_localizes_to_transversal():
    """A Z+ term of chart (0,1), with exponent e >= 0 off the slab,
    reaches chart (0,2) bent by t^e and times the slab function to the e."""
    t3 = Truncation.degree(1, 3)
    f = slab_function((0, 2), t3)
    for number in (-1, 0, 1):
        cx = two_cell_complex(number=number, kink=(1,))
        for a, b in SLAB_TERMS:
            plus = _from(RingElement.monomial((0,), (a, b), 1, (0, 1), t3),
                         1, 0)
            assert plus.is_zero() == (b < 0)
            assert _across_slab(cx, plus, (0, 2), f) == \
                (slab_crossing(number, a, b, (0, 2), t3) if b >= 0
                 else RingElement.zero((0, 2), t3, 2))


def test_slab_zminus_localizes_with_kink_and_function():
    """A Z- term of chart (0,2), with exponent e > 0 off the slab, reaches
    chart (0,1) with the kink t^e and the slab function to the e."""
    t3 = Truncation.degree(1, 3)
    f = slab_function((0, 1), t3)
    for number in (-1, 0, 1):
        cx = two_cell_complex(number=number, kink=(1,))
        for a, b in SLAB_TERMS:
            minus = _from(RingElement.monomial((0,), (a, b), 1, (0, 2), t3),
                          1, 1)
            assert minus.is_zero() == (b <= 0)
            assert _across_slab(cx, minus, (0, 1), f) == \
                (slab_crossing(number, a, b, (0, 1), t3) if b > 0
                 else RingElement.zero((0, 1), t3, 2))


# -- blowup threefold fixture ------------------------------------------------

def test_blowup_five_walls_assemble_and_grade():
    cx = load_geometry(os.path.join(FIXTURES, "blowup_threefold.json"))
    with open(os.path.join(FIXTURES, "blowup_counts.json")) as fh:
        counts = counts_from_json(json.load(fh))
    with open(os.path.join(FIXTURES, "blowup_truncation.json")) as fh:
        trunc = truncation_from_json(json.load(fh))
    with open(os.path.join(FIXTURES, "blowup_grading.json")) as fh:
        grading = json.load(fh)["pairings"]
    s = assemble_canonical(cx, counts, trunc, grading=grading)
    assert len(s.walls) == 5
    for w in s.walls:
        assert w.rho is not None  # every canonical wall is a slab here
        # binomial shape: 1 + t^A z^-u
        assert len(w.function.terms) == 2
        assert w.function.constant_coefficient() == 1


# -- wall conormals ----------------------------------------------------------

def _laplace_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _laplace_det([r[:j] + r[j + 1:]
                                             for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _signed_cross_product(rows):
    """The conormal of n-1 vectors of Z^n by signed maximal minors, made
    primitive with its last nonzero coordinate positive."""
    c = [(-1) ** i * _laplace_det([r[:i] + r[i + 1:] for r in rows])
         for i in range(len(rows[0]))]
    g = math.gcd(*c)
    if g == 0:
        return None
    if next(x for x in reversed(c) if x) < 0:
        g = -g
    return tuple(x // g for x in c)


def test_normal_is_the_signed_primitive_cross_product():
    """Seeded supports in dimensions two and three, some with an extra
    generator in their span: the normal is the signed cross product of
    independent generators, sign included."""
    rng = random.Random(301)
    checked = 0
    for n in (2, 3):
        for trial in range(400):
            rows = [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(n - 1)]
            oracle = _signed_cross_product(rows)
            if oracle is None:
                continue
            if trial % 3 == 0:   # n generators of rank n - 1
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append([a * x + b * y
                             for x, y in zip(rows[0], rows[-1])])
            cone = tuple(range(n))
            wall = Wall(cone=cone, support=tuple(map(tuple, rows)),
                        function=RingElement.one(cone, T2, n))
            assert wall.normal == oracle, rows
            checked += 1
    assert checked > 600


_entry = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.tuples(_entry, _entry)),
    st.tuples(st.tuples(_entry, _entry, _entry),
              st.tuples(_entry, _entry, _entry))))
def test_normal_matches_minors(support):
    oracle = _signed_cross_product([list(g) for g in support])
    assume(oracle is not None)  # the support spans a hyperplane
    n = len(support[0])
    cone = tuple(range(n))
    wall = Wall(cone=cone, support=support,
                function=RingElement.one(cone, T2, n))
    normal = wall.normal
    assert math.gcd(*normal) == 1
    assert all(sum(a * b for a, b in zip(normal, g)) == 0 for g in support)
    assert normal == oracle
