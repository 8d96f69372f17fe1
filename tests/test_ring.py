"""Truncated monoid ring tests: arithmetic, series, transport, admissibility."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.errors import (
    ConeMismatch,
    NonNilpotentArgument,
    NotUnipotent,
    TruncationError,
)
from wallcross.ring import (
    InteriorCodim1,
    RingElement,
    Truncation,
    admissible_at,
    exp_truncated,
    invert,
    log_unipotent,
)
from wallcross.geometry import DivisorTable, build_complex
from wallcross.walls import apply_theta

T3 = Truncation.degree(curve_rank=1, bound=3)
T2 = Truncation.degree(curve_rank=1, bound=2)
CONE = "sigma"


def mono(A, m, c=1, trunc=T3, cone=CONE):
    return RingElement.monomial(A, m, c, cone, trunc)


def one(trunc=T3, n=2, cone=CONE):
    return RingElement.one(cone, trunc, n)


# -- truncation --------------------------------------------------------------

def test_truncation_modes():
    t = Truncation.degree(curve_rank=2, bound=2, weights=(1, 2))
    assert not t.in_ideal((2, 0))
    assert t.in_ideal((1, 1))
    g = Truncation.from_generators(2, [(2, 0), (0, 2)])
    assert not g.in_ideal((1, 1))
    assert g.in_ideal((2, 1))


def test_truncation_rejects_infinite_complement():
    with pytest.raises(TruncationError):
        Truncation.from_generators(2, [(2, 0)])  # axis 2 never truncated
    with pytest.raises(TruncationError):
        Truncation.from_generators(2, [(0, 0)])
    with pytest.raises(TruncationError):
        Truncation(curve_rank=1, weights=(0,), bound=2)


# -- multiplication ----------------------------------------------------------

def test_multiply_unit():
    f = one().add(mono((1,), (1, 0)))
    assert f.mul(one()) == f


def test_multiply_difference_of_squares_truncates():
    # (1 + t z^u)(1 - t z^u) = 1 - t^2 z^2u, which dies when cutoff excludes 2
    t1 = Truncation.degree(1, 1)
    u = (1, 0)
    f = RingElement.one(CONE, t1, 2).add(mono((1,), u, 1, t1))
    g = RingElement.one(CONE, t1, 2).add(mono((1,), u, -1, t1))
    assert f.mul(g) == RingElement.one(CONE, t1, 2)
    # with cutoff 2 the square term survives
    f2 = one(T2).add(mono((1,), u, 1, T2))
    g2 = one(T2).add(mono((1,), u, -1, T2))
    assert f2.mul(g2) == one(T2).add(mono((2,), (2, 0), -1, T2))


def test_exponents_add():
    assert mono((0,), (1, 2)).mul(mono((0,), (3, -1))) == \
        mono((0,), (4, 1))


def test_cone_mismatch_raises():
    with pytest.raises(ConeMismatch):
        mono((0,), (1, 0)).mul(mono((0,), (1, 0), cone="other"))


# -- exp / invert ------------------------------------------------------------

def test_exp_zero_is_one():
    assert exp_truncated(RingElement.zero(CONE, T3, 2)) == one()


def test_exp_log_wall_identity():
    # exp(sum_k (-1)^(k-1)/k * t^k z^{-k u}) = 1 + t z^{-u}: the logarithm
    # series in disguise, the engine of the canonical wall functions.
    u = (1, 1)
    arg = RingElement.zero(CONE, T3, 2)
    for k in range(1, 4):
        arg = arg.add(mono((k,), (-k, -k), Fraction((-1) ** (k - 1), k)))
    expected = one().add(mono((1,), (-1, -1)))
    assert exp_truncated(arg) == expected


def test_exp_quadratic_term():
    t2 = Truncation.degree(1, 2)
    got = exp_truncated(mono((1,), (-1, 0), 1, t2))
    expected = one(t2).add(mono((1,), (-1, 0), 1, t2)) \
                      .add(mono((2,), (-2, 0), Fraction(1, 2), t2))
    assert got == expected


def test_exp_requires_nilpotent():
    with pytest.raises(NonNilpotentArgument):
        exp_truncated(one())


def test_invert_one():
    assert invert(one()) == one()


def test_invert_geometric_series():
    u = (1, 0)
    f = one(T2).add(mono((1,), u, 1, T2))
    expected = one(T2).add(mono((1,), u, -1, T2)).add(mono((2,), (2, 0), 1, T2))
    assert invert(f) == expected


def test_invert_two_terms_first_order():
    t1 = Truncation.degree(1, 1)
    f = RingElement.one(CONE, t1, 2).add(mono((1,), (1, 0), 1, t1)) \
                                    .add(mono((1,), (0, 1), 1, t1))
    expected = RingElement.one(CONE, t1, 2) \
        .add(mono((1,), (1, 0), -1, t1)).add(mono((1,), (0, 1), -1, t1))
    assert invert(f) == expected


def test_invert_requires_unipotent():
    with pytest.raises(NotUnipotent):
        invert(mono((0,), (1, 0)))


def test_series_need_nilpotent_classes():
    """A class of weight <= 0 under a degree cutoff, or with a negative
    entry under generators, has powers that never reach the ideal: exp,
    inversion and log refuse it instead of summing forever."""
    t11 = Truncation.degree(2, 3, weights=(1, 1))
    gens = Truncation.from_generators(2, [(2, 0), (0, 2)])
    for trunc, A in ((T3, (-1,)), (t11, (1, -1)), (gens, (1, -1))):
        g = mono(A, (1, 0), 1, trunc)
        with pytest.raises(NonNilpotentArgument):
            exp_truncated(g)
        with pytest.raises(NotUnipotent):
            invert(one(trunc).add(g))
        with pytest.raises(NotUnipotent):
            log_unipotent(one(trunc).add(g))
    # (2, -1) has weight 1 at weights (1, 1): nilpotent, so accepted
    f = one(t11).add(mono((2, -1), (1, 0), 1, t11))
    assert invert(f).mul(f) == one(t11)
    assert log_unipotent(exp_truncated(mono((2, -1), (1, 0), 1, t11))) \
        == mono((2, -1), (1, 0), 1, t11)


# -- logarithm ---------------------------------------------------------------

@pytest.mark.parametrize("bound", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [(1, 0), (-1, -1), (2, -3)])
def test_log_closed_form(bound, m):
    # log(1 + t z^m) = sum_k (-1)^(k+1) t^k z^(km) / k, cut at the bound
    trunc = Truncation.degree(1, bound)
    f = one(trunc).add(mono((1,), m, 1, trunc))
    expected = RingElement.zero(CONE, trunc, 2)
    for k in range(1, bound + 1):
        expected = expected.add(mono((k,), tuple(k * x for x in m),
                                     Fraction((-1) ** (k + 1), k), trunc))
    assert log_unipotent(f) == expected


def test_log_of_one_is_zero():
    assert log_unipotent(one()).is_zero()


def test_log_requires_unipotent():
    with pytest.raises(NotUnipotent):
        log_unipotent(one().scale(2))
    with pytest.raises(NotUnipotent):
        log_unipotent(one().add(mono((0,), (1, 0))))


# -- transport ---------------------------------------------------------------

SRC, DST = (0, 1), (0, 2)


def flip_pair(kink=(1,)):
    """Two quadrants glued along ray 0 with intersection number 0: crossing
    from SRC to DST fixes the shared ray, reverses the other, and bends a
    class by ``kink`` per unit of pairing with the conormal (0, 1)."""
    return build_complex(
        DivisorTable(names=("D0", "D1", "D2"), a_coeffs=(0, 0, 0)),
        [SRC, DST], intersections={(0,): (0,)}, kinks={(0,): kink},
        curve_rank=len(kink))


def test_transport_tangent_exponent_keeps_class():
    f = mono((1,), (2, 0), cone=SRC)
    got = flip_pair().transport_element(f, SRC, DST)
    assert got == mono((1,), (2, 0), cone=DST)


def test_transport_picks_up_kink():
    f = mono((0,), (1, 1), cone=SRC)  # pairing with (0,1) is 1
    got = flip_pair((2,)).transport_element(f, SRC, DST)
    assert got == mono((2,), (1, -1), cone=DST)


def test_transport_round_trip_group_level():
    # the exponent pairs to -2 with the conormal: the class goes negative
    f = one(cone=SRC).add(mono((1,), (1, -2), cone=SRC))
    cx = flip_pair()
    fwd = cx.transport_element(f, SRC, DST)
    assert fwd == one(cone=DST).add(mono((-1,), (1, 2), cone=DST))
    assert cx.transport_element(fwd, DST, SRC) == f


def test_transport_is_ring_homomorphism():
    f = one(cone=SRC).add(mono((1,), (1, 1), cone=SRC))
    g = one(cone=SRC).add(mono((1,), (2, 0), Fraction(1, 2), cone=SRC))
    cx = flip_pair()

    def move(e):
        return cx.transport_element(e, SRC, DST)

    assert move(f.mul(g)) == move(f).mul(move(g))


def test_transport_drops_classes_in_the_ideal():
    # t z^(0,1) pairs to 1: its class 1 + 3 is past the bound 3
    f = one(cone=SRC).add(mono((1,), (0, 1), cone=SRC))
    got = flip_pair((3,)).transport_element(f, SRC, DST)
    assert got == one(cone=DST)


# -- admissibility -----------------------------------------------------------

def test_admissible_interior_codim1_kink_shift():
    # pairing -1 needs one kink's worth of curve class in stock
    loc = InteriorCodim1(normal=(0, 1), kink=(1,))
    assert admissible_at((1,), (0, -1), loc)
    assert not admissible_at((0,), (0, -1), loc)
    assert admissible_at((0,), (4, 0), loc)


# -- serialization -----------------------------------------------------------

def test_json_round_trip():
    f = one().add(mono((1,), (1, -1), Fraction(3, 7)))
    data = f.to_json()
    assert all(set(d) == {"A", "m", "c"} for d in data)
    back = RingElement.from_json(data, CONE, T3, 2)
    assert back == f


# -- properties --------------------------------------------------------------

term_strategy = st.tuples(
    st.tuples(st.integers(0, 2)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.fractions(min_value=-3, max_value=3))


def build(terms, trunc=T3):
    f = RingElement.zero(CONE, trunc, 2)
    for A, m, c in terms:
        f = f.add(RingElement.monomial(A, m, c, CONE, trunc))
    return f


elem_strategy = st.lists(term_strategy, max_size=4).map(build)


@settings(max_examples=80, deadline=None)
@given(elem_strategy, elem_strategy, elem_strategy)
def test_property_ring_laws(f, g, h):
    assert f.mul(g) == g.mul(f)
    assert f.mul(g).mul(h) == f.mul(g.mul(h))
    assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))


# Every stored coefficient is an int (never a bool) or a Fraction with
# denominator > 1, under degree and generator truncations alike.
INVARIANT_TRUNCS = (Truncation.degree(2, 4, weights=(1, 2)),
                    Truncation.from_generators(2, ((3, 0), (1, 1), (0, 2))))

coeff_strategy = st.one_of(
    st.integers(-6, 6), st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)))


def terms_strategy(nilpotent):
    cls = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.lists(st.tuples(cls.filter(any) if nilpotent else cls,
                              st.tuples(st.integers(-2, 2),
                                        st.integers(-2, 2)),
                              coeff_strategy), max_size=4)


def in_stored_form(e: RingElement) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in e.terms.values())


def oracle_mul(f: RingElement, g: RingElement) -> dict:
    """The product's terms by plain dictionaries, filtered by in_ideal."""
    out = {}
    for (A1, m1), c1 in f.terms.items():
        for (A2, m2), c2 in g.terms.items():
            A = tuple(a + b for a, b in zip(A1, A2))
            if not f.trunc.in_ideal(A):
                m = tuple(a + b for a, b in zip(m1, m2))
                out[(A, m)] = out.get((A, m), Fraction(0)) + \
                    Fraction(c1) * Fraction(c2)
    return {k: c for k, c in out.items() if c}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(INVARIANT_TRUNCS), terms_strategy(False),
       terms_strategy(True), terms_strategy(True), coeff_strategy)
def test_property_coefficients_stay_in_stored_form(trunc, f_terms, g_terms,
                                                   w_terms, c):
    f, g, w = (build(t, trunc) for t in (f_terms, g_terms, w_terms))
    u = RingElement.one(CONE, trunc, 2).add(g)
    wall = RingElement.one(CONE, trunc, 2).add(w)
    results = [
        RingElement.monomial((1, 0), (1, 1), c, CONE, trunc),
        f, g, f.add(g), f.sub(g), f.sub(f), f.scale(c), f.mul(g), f.mul(u),
        f.mul(f), u.pow_int(-1), u.pow_int(-2), u.pow_int(3), f.pow_int(2),
        exp_truncated(g), log_unipotent(u), invert(u),
        flip_pair((1, 0)).transport_element(f, SRC, DST),
        apply_theta(wall, (1, -1), f), apply_theta(wall, (-2, 1), u),
        RingElement.from_json(f.to_json(), CONE, trunc, 2),
    ]
    for e in results:
        assert in_stored_form(e), e.terms
    for a, b in ((f, g), (f, u), (u, f), (f, f), (wall, u)):
        assert a.mul(b).terms == oracle_mul(a, b)


nilpotent_strategy = st.lists(
    st.tuples(st.tuples(st.integers(1, 2)),
              st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
              st.fractions(min_value=-2, max_value=2)),
    max_size=3).map(build)


@settings(max_examples=60, deadline=None)
@given(nilpotent_strategy, nilpotent_strategy)
def test_property_exp_additivity(a, b):
    assert exp_truncated(a.add(b)) == \
        exp_truncated(a).mul(exp_truncated(b))


@settings(max_examples=60, deadline=None)
@given(nilpotent_strategy)
def test_property_invert_involution(g):
    f = RingElement.one(CONE, T3, 2).add(g)
    assert invert(invert(f)) == f
    assert f.mul(invert(f)) == RingElement.one(CONE, T3, 2)


@settings(max_examples=60, deadline=None)
@given(nilpotent_strategy)
def test_property_log_exp_round_trips(g):
    assert log_unipotent(exp_truncated(g)) == g
    f = RingElement.one(CONE, T3, 2).add(g)
    assert exp_truncated(log_unipotent(f)) == f


# -- powers ------------------------------------------------------------------

def power_cases():
    """(f, exponents) under a degree and a generator truncation, with
    Fraction coefficients: a unipotent f for every exponent in -4..5, and
    a non-unipotent f for 0..5."""
    cases = []
    for trunc in INVARIANT_TRUNCS:
        u = build([((1, 0), (1, 0), Fraction(3, 2)),
                   ((0, 1), (-1, 1), Fraction(-2, 3)),
                   ((1, 1), (0, 2), 5)], trunc)
        cases.append((RingElement.one(CONE, trunc, 2).add(u), range(-4, 6)))
        cases.append((build([((0, 0), (0, 0), Fraction(1, 3)),
                             ((0, 0), (1, -1), 2),
                             ((1, 0), (0, 1), Fraction(-5, 2))], trunc),
                      range(0, 6)))
    return cases


def oracle_chain(f: RingElement, k: int) -> dict:
    """The terms of f^k for k >= 0, as k factors multiplied by oracle_mul."""
    power = RingElement.one(f.cone, f.trunc, f.n)
    for _ in range(k):
        power = RingElement(oracle_mul(power, f), f.cone, f.trunc, f.n)
    return power.terms


@pytest.mark.parametrize("f, exponents", power_cases(),
                         ids=["degree", "degree-non-unipotent", "generators",
                              "generators-non-unipotent"])
def test_pow_int_is_a_chain_of_products(f, exponents):
    one_terms = RingElement.one(f.cone, f.trunc, f.n).terms
    for k in exponents:
        if k >= 0:
            assert f.pow_int(k).terms == oracle_chain(f, k), k
            assert f.pow_nonneg(k).terms == oracle_chain(f, k), k
        else:
            inverse = f.pow_int(-1)
            assert oracle_mul(inverse, f) == one_terms
            assert f.pow_int(k).terms == oracle_chain(inverse, -k), k
        assert in_stored_form(f.pow_int(k))


def test_filling_powers_takes_one_product_each(monkeypatch):
    """Powers 1..K of a fresh element take K - 1 products, whether asked
    for in order or from the top; f^1 is the element itself."""
    products = []
    mul = RingElement.mul

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(RingElement, "mul", counting_mul)
    K = 6
    for order in (range(1, K + 1), range(K, 0, -1)):
        f = one().add(mono((1,), (1, -1), Fraction(3, 2)))
        products.clear()
        for k in order:
            f.pow_int(k)
        assert len(products) == K - 1
        assert f.pow_int(1) is f


def test_high_power_nests_no_calls():
    """f^(+-3000) of f = 1 + c t z^(1,0) at bound 3 is the binomial series
    sum over j <= 3 of binom(k, j) c^j t^j z^(j,0), filled without
    exceeding the recursion limit."""
    c = Fraction(-2, 7)
    f = one().add(mono((1,), (1, 0), c))
    for k in (3000, -3000):
        expected = {}
        binom = Fraction(1)
        for j in range(4):
            expected[((j,), (j, 0))] = binom * c ** j
            binom = binom * (k - j) / (j + 1)
        assert f.pow_int(k).terms == expected


def test_dropped_element_is_freed_by_reference_counting():
    """The kept powers make no reference cycle: with the cyclic collector
    off, an element is freed as soon as its last reference goes."""
    class Referable(RingElement):
        __slots__ = ("__weakref__",)

    f = Referable(one().add(mono((1,), (1, -1), 2)).terms, CONE, T3, 2)
    for k in range(-3, 6):
        f.pow_int(k)
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_pow_nonneg_rejects_a_negative_exponent():
    """Run in a child, so that a hang fails within the budget."""
    code = ("from wallcross.ring import RingElement, Truncation\n"
            "t = Truncation.degree(1, 3)\n"
            "f = RingElement.one('c', t, 2)\n"
            "try:\n"
            "    f.pow_nonneg(-1)\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError"), proc.stdout
