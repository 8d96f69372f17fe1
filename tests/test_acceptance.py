"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package, with an explicit
wall-clock budget asserted inside the test:

1. log-series wall assembly collapses to a single binomial wall function;
2. the blowup-threefold fixture validates, and its five walls pass
   admissibility and grading homogeneity;
3. local scattering completion of two initial lines matches a brute-force
   composition oracle and yields a path-ordered identity;
4. broken-line theta functions on the quadrant fixture take their known
   values and are intertwined by wall crossing;
5. structure constants on a consistency-passing fixture form a commutative,
   associative, unital algebra with chamber-independent coefficients;
6. splitting multiplicities agree with an independent closed form on a
   panel of bend configurations;
7. decorated broken lines round-trip through tropical types, and their
   decoration sum reproduces the theta expansion;
8. Smith normal forms agree with a determinantal-minor oracle on a
   thousand random matrices.

All arithmetic is exact; every comparison below is equality of rationals.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from fractions import Fraction

from wallcross.broken import (
    alpha_trop,
    chambers_containing,
    enumerate_lines,
    decorated_to_type,
    theta,
    type_to_line,
)
from wallcross.consistency import (
    check_structure,
    complete_codim0,
    identity_around,
    path_ordered,
)
from wallcross.geometry import DivisorTable, build_complex, load_geometry, \
    validate_complex
from wallcross.lattice import IntegerMatrix, cokernel_order, \
    smith_normal_form
from wallcross.ring import RingElement, Truncation
from wallcross.walls import assemble_canonical, check_wall, \
    counts_from_json, cross_wall, truncation_from_json

from tests.test_broken import pt, quadrant
from tests.test_consistency import LOCAL_CHART, T12, oracle_is_identity, \
    two_lines
from tests.test_consistency import mono as local_mono
from tests.test_lattice import _minor_det, check_decomposition, \
    oracle_invariant_factors
from tests.test_multiplicity import CODIM0, CODIM1, bend_configuration, \
    expected_multiplicity, splitting_multiplicity

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CONE = (0, 1)


# -- 1. wall functions from enumerative counts --------------------------------

def test_log_series_counts_collapse_to_binomial_wall():
    """Counts W = (-1)^(k-1)/k^2 with index k sum to log(1 + t z^-u)."""
    start = time.monotonic()
    bound = 4
    cx = build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [CONE], curve_rank=1)
    trunc = Truncation.degree(1, bound)
    u = (1, 1)
    entries = [{"max_cone": list(CONE), "support": [[1, 1]],
                "u": [k * c for c in u], "A": [k],
                "W": f"{(-1) ** (k - 1)}/{k * k}", "k": k, "aut": 1}
               for k in range(1, bound + 1)]
    s = assemble_canonical(cx, entries, trunc)
    assert len(s.walls) == 1
    expected = RingElement.one(CONE, trunc, 2).add(
        RingElement.monomial((1,), tuple(-c for c in u), 1, CONE, trunc))
    assert s.walls[0].function == expected
    assert time.monotonic() - start < 1.0


# -- 2. blowup-threefold fixture ----------------------------------------------

def test_threefold_fixture_validates_and_walls_are_graded():
    start = time.monotonic()
    cx = load_geometry(os.path.join(FIXTURES, "blowup_threefold.json"))
    validate_complex(cx)
    with open(os.path.join(FIXTURES, "blowup_counts.json")) as fh:
        counts = counts_from_json(json.load(fh))
    with open(os.path.join(FIXTURES, "blowup_truncation.json")) as fh:
        trunc = truncation_from_json(json.load(fh))
    with open(os.path.join(FIXTURES, "blowup_grading.json")) as fh:
        grading = json.load(fh)["pairings"]
    s = assemble_canonical(cx, counts, trunc, grading=grading)
    assert len(s.walls) == 5
    for w in s.walls:
        # admissibility and degree-zero grading of every monomial
        check_wall(cx, w, grading=grading)
    assert time.monotonic() - start < 5.0


# -- 3. scattering completion vs brute-force oracle ---------------------------

def test_scattering_completion_matches_brute_force_oracle():
    start = time.monotonic()
    inst = two_lines()
    done = complete_codim0(inst, max_weight=2)
    new = [r for r in done.rays
           if not r.function.is_one() and r not in inst.rays]
    assert len(new) == 1
    assert new[0].direction == (-1, -1)
    assert new[0].function == RingElement.one(LOCAL_CHART, T12, 2).add(
        local_mono((1, 1), (1, 1)))
    # the path-ordered product fixes all four coordinate monomials
    for g in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        zg = local_mono((0, 0), g)
        assert path_ordered(done, zg) == zg
    assert identity_around(done) == (True, None)
    # independent composition of truncated automorphisms on plain dicts
    assert oracle_is_identity(done)
    assert not oracle_is_identity(inst)
    assert time.monotonic() - start < 5.0


# -- 4. broken-line theta fixture ---------------------------------------------

def test_quadrant_theta_values_and_intertwining():
    start = time.monotonic()
    s = quadrant()
    above = theta(s, (1, 0), pt(1, 2))
    below = theta(s, (1, 0), pt(2, 1))
    assert above == RingElement.from_json(
        [{"A": [0], "m": [1, 0], "c": "1"},
         {"A": [1], "m": [0, -1], "c": "1"}], CONE, s.trunc, 2)
    assert below == RingElement.monomial((0,), (1, 0), 1, CONE, s.trunc)
    assert cross_wall(below, s.walls[0], source_side=(2, 1)) == above
    assert time.monotonic() - start < 1.0


# -- 5. structure-constant algebra --------------------------------------------

def _structure_constant_algebra(bound):
    """Exact algebra checks for the quadrant fixture at a given order."""
    s = quadrant(bound=bound)
    assert all(r.verdict == "pass" for r in check_structure(s))

    zero = RingElement.zero(CONE, s.trunc, 2)
    one = RingElement.monomial((0,), (0, 0), 1, CONE, s.trunc)
    cache = {}

    def alpha(p, q, r):
        # the empty-exponent theta function is the ring unit
        if p == (0, 0):
            return one if q == r else zero
        if q == (0, 0):
            return one if p == r else zero
        if (p, q, r) not in cache:
            cache[p, q, r] = alpha_trop(s, p, q, r).value
        return cache[p, q, r]

    def candidates(*ps):
        # every bend subtracts the wall exponent (1,1) from the total
        tot = tuple(sum(c) for c in zip(*ps))
        return [(tot[0] - j, tot[1] - j) for j in range(bound + 1)
                if tot[0] - j >= 0 and tot[1] - j >= 0]

    points = [p for p in itertools.product(range(bound + 1), repeat=2)
              if 0 < sum(p) <= bound]

    # unit
    assert theta(s, (0, 0), pt(1, 2)).is_one()

    # symmetry
    for p1, p2 in itertools.product(points, repeat=2):
        for r in candidates(p1, p2):
            assert alpha(p1, p2, r) == alpha(p2, p1, r)

    # chamber independence on the wall ray
    chambers = chambers_containing(s, CONE, (1, 1))
    assert len(chambers) == 2
    values = [alpha_trop(s, (1, 0), (0, 1), (1, 1), chamber=ch).value
              for ch in chambers]
    assert values[0] == values[1]

    # associativity expanded in the theta basis
    for p1, p2, p3 in itertools.product(points, repeat=3):
        for target in candidates(p1, p2, p3):
            lhs = zero
            for r in candidates(p1, p2):
                lhs = lhs.add(alpha(p1, p2, r).mul(alpha(r, p3, target)))
            rhs = zero
            for r in candidates(p2, p3):
                rhs = rhs.add(alpha(p2, p3, r).mul(alpha(p1, r, target)))
            assert lhs == rhs, (p1, p2, p3, target)


def test_structure_constants_form_associative_unital_algebra():
    start = time.monotonic()
    _structure_constant_algebra(bound=2)
    assert time.monotonic() - start < 60.0


def test_structure_constants_third_order():
    start = time.monotonic()
    _structure_constant_algebra(bound=3)
    assert time.monotonic() - start < 60.0


# -- 6. splitting multiplicities ----------------------------------------------

def test_splitting_multiplicity_panel_matches_closed_form():
    start = time.monotonic()
    cx = build_complex(
        DivisorTable(names=("Dx", "Dy"), a_coeffs=(Fraction(0), Fraction(0)),
                     fiber_multiplicities=None),
        [CONE], curve_rank=1)
    checked = 0
    for codim, table in ((0, CODIM0), (1, CODIM1)):
        for u_inc, ks, pinned, frozen in table:
            pieces, glue = bend_configuration(u_inc, ks, codim, pinned)
            res = splitting_multiplicity(pieces, glue, cx)
            assert res.rank_ok and res.dimension_formula_ok
            assert res.multiplicity == frozen
            assert res.multiplicity == expected_multiplicity(
                u_inc, ks, codim, pinned)
            checked += 1
    assert checked >= 10
    assert time.monotonic() - start < 5.0


# -- 7. decorated round trips and the expansion identity ----------------------

def test_decorated_round_trip_and_mu_sum():
    for s, x in [(quadrant(), pt(1, 2)), (quadrant(), pt(2, 1)),
                 (quadrant(bound=2, power=2), pt(1, 3)),
                 (quadrant(bound=2, power=2), pt(3, 4))]:
        decorated = enumerate_lines(s, (1, 0), x, decorated=True)
        assert decorated
        total = RingElement.zero(CONE, s.trunc, 2)
        for d in decorated:
            t = decorated_to_type(d, s)
            assert type_to_line(t, s, x) == d
            total = total.add(d.line.monomial(s.trunc))
        # summing decorated contributions reproduces the theta function
        assert total == theta(s, (1, 0), x)


# -- 8. Smith normal form against the minor oracle ----------------------------

def test_smith_normal_form_thousand_matrices_against_oracle():
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(1000):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        m = IntegerMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        check_decomposition(m, snf)
        assert list(snf.diagonal) == oracle_invariant_factors(rows)
        if r == c:
            det = _minor_det(rows, range(r), range(r))
            if det != 0:
                assert cokernel_order(m) == abs(det)
    assert time.monotonic() - start < 10.0
