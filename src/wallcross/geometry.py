"""Integral affine cone complexes with kinks.

The complex is the dual intersection complex of a log smooth pair: one ray
per good boundary divisor, one cone per good stratum.  All metric work
happens in per-maximal-cone integer charts whose basis vectors are the rays
of the cone in sorted divisor order.  Crossing an interior codimension-one
cell re-coordinatizes by a unimodular transition matrix determined by the
intersection numbers of the corresponding curve stratum, and bends monomials
by the cell's kink class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import ring
from .errors import (
    BadDivisorMeetsGoodCurve,
    DisconnectedGoodBoundary,
    GeometryError,
    MissingNDimCone,
    NonUnimodularChart,
    NotAdjacent,
)
from .linalg import det, mat_vec

ConeId = tuple[int, ...]


@dataclass(frozen=True)
class DivisorTable:
    """Boundary divisors with their log discrepancies and fiber multiplicities.

    A divisor is *good* when its discrepancy coefficient vanishes; only good
    divisors contribute rays to the complex.
    """

    names: tuple[str, ...]
    a_coeffs: tuple[Fraction, ...]
    fiber_multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.a_coeffs) != len(self.names):
            raise GeometryError("a-coefficient count != divisor count")
        if any(a < 0 for a in self.a_coeffs):
            raise GeometryError("discrepancy coefficients must be >= 0")
        if self.fiber_multiplicities is not None:
            if len(self.fiber_multiplicities) != len(self.names):
                raise GeometryError("fiber multiplicity count mismatch")
            if any(b < 0 for b in self.fiber_multiplicities):
                raise GeometryError("fiber multiplicities must be >= 0")

    def __len__(self):
        return len(self.names)

    def is_good(self, i: int) -> bool:
        return self.a_coeffs[i] == 0


@dataclass(frozen=True)
class PointInChart:
    """A rational point in the chart of a maximal cone.

    Its hash is the dataclass hash of (cone, coords, ambient), computed
    once: points key the broken-line data kept on a wall structure, and a
    ``Fraction`` hash costs a modular inverse.
    """

    cone: ConeId
    coords: tuple[Fraction, ...]
    ambient: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(Fraction(c) for c in self.coords))
        if not self.ambient and any(c < 0 for c in self.coords):
            raise GeometryError(
                "point coordinates must be nonnegative inside the cone "
                "(pass ambient=True for ambient-chart points)")
        object.__setattr__(self, "_hash",
                           hash((self.cone, self.coords, self.ambient)))

    def __hash__(self):
        return self._hash


def _faces(index_set: Iterable[int]) -> set[ConeId]:
    items = sorted(index_set)
    out: set[ConeId] = set()
    n = len(items)
    for mask in range(1 << n):
        out.add(tuple(items[i] for i in range(n) if mask >> i & 1))
    return out


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n))


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_unit(n, j) for j in range(n))


@dataclass(frozen=True)
class Crossing:
    """Crossing the interior facet ``rho`` out of a maximal cone.

    ``pos`` is the source chart position of the ray off ``rho`` (its
    conormal positive into the source is e_pos); ``matrix`` maps source
    coordinates to those of ``target``, and ``kink`` is rho's kink class.
    ``vector`` and ``monomial`` are the one place where a chart changes:
    t^A z^m crosses to t^(A + m[pos]·kink) z^(matrix·m).
    """

    rho: ConeId
    pos: int
    target: ConeId
    matrix: tuple[tuple[int, ...], ...]
    kink: tuple[int, ...]

    def vector(self, v: Sequence) -> tuple:
        """A point or an exponent in target coordinates."""
        return mat_vec(self.matrix, v)

    def monomial(self, A: Sequence[int], m: Sequence[int]
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(class, exponent) of t^A z^m in the target chart; the class bends
        by the exponent's pairing with the conormal."""
        k = m[self.pos]
        return (tuple(a + k * b for a, b in zip(A, self.kink)),
                mat_vec(self.matrix, m))


@dataclass(frozen=True)
class ConeComplex:
    """The pair (B, P): cones indexed by good divisor sets, with charts."""

    n: int
    curve_rank: int
    divisors: DivisorTable
    strata: frozenset  # all nonempty strata of the ambient space (face-closed)
    cones: frozenset   # the good ones, P (face-closed)
    intersections: Mapping[ConeId, tuple]  # interior codim-1 -> D.X numbers
    kinks: Mapping[ConeId, tuple[int, ...]]

    # -- derived data --------------------------------------------------------

    @cached_property
    def maximal_cones(self) -> tuple[ConeId, ...]:
        """The cones of full dimension, sorted; taken once per complex."""
        return tuple(sorted(c for c in self.cones if len(c) == self.n))

    def codim1_cones(self) -> list[ConeId]:
        return sorted(c for c in self.cones
                      if len(c) == self.n - 1 and len(c) >= 1)

    def max_cones_containing(self, tau: ConeId) -> list[ConeId]:
        ts = set(tau)
        return [c for c in self.maximal_cones if ts <= set(c)]

    def interior_codim1(self) -> list[ConeId]:
        return [r for r in self.codim1_cones()
                if len(self.max_cones_containing(r)) == 2]

    def boundary_codim1(self) -> list[ConeId]:
        return [r for r in self.codim1_cones()
                if len(self.max_cones_containing(r)) == 1]

    def kink(self, rho: ConeId) -> tuple[int, ...]:
        return self.kinks.get(tuple(sorted(rho)), (0,) * self.curve_rank)

    # -- charts --------------------------------------------------------------

    def normal_into(self, sigma: ConeId, rho: ConeId) -> tuple[int, ...]:
        """Primitive conormal of rho in the sigma-chart, positive into sigma."""
        extra = [i for i in sigma if i not in rho]
        if len(extra) != 1:
            raise NotAdjacent(f"{rho} is not a facet of {sigma}")
        return _unit(self.n, sigma.index(extra[0]))

    def cell_of(self, sigma: ConeId, v: Sequence) -> ConeId:
        """The smallest face of sigma containing v (in sigma's chart): the
        rays at the chart positions where v is nonzero."""
        return tuple(sorted(d for d, x in zip(sigma, v) if x))

    @cached_property
    def _crossing_table(self) -> dict[ConeId, dict[int, Crossing]]:
        """Per maximal cone, its crossings keyed by position; each transition
        matrix is built and checked once.

        Rays of the shared facet map to themselves; the leftover ray of the
        source maps to minus the leftover ray of the target corrected by the
        facet curve's intersection numbers with the facet divisors.
        """
        table: dict[ConeId, dict[int, Crossing]] = {
            sigma: {} for sigma in self.maximal_cones}
        for rho in self.interior_codim1():
            numbers = self.intersections.get(rho)
            if numbers is None:
                raise GeometryError(f"missing intersection numbers for {rho}")
            sides = self.max_cones_containing(rho)
            for src, dst in (sides, sides[::-1]):
                pos = next(j for j, d in enumerate(src) if d not in rho)
                leftover = [0] * self.n
                leftover[next(j for j, d in enumerate(dst)
                              if d not in rho)] = -1
                for d, k in zip(rho, numbers):
                    leftover[dst.index(d)] -= k
                cols = [leftover if j == pos else _unit(self.n, dst.index(d))
                        for j, d in enumerate(src)]
                matrix = tuple(zip(*cols))
                _check_unimodular(matrix)
                table[src][pos] = Crossing(rho=rho, pos=pos, target=dst,
                                           matrix=matrix, kink=self.kink(rho))
        return table

    def crossings(self, sigma: ConeId) -> dict[int, Crossing]:
        """The crossings out of a maximal cone through its interior facets,
        keyed by the chart position of the ray off the facet."""
        try:
            return self._crossing_table[tuple(sigma)]
        except KeyError:
            raise NotAdjacent(f"{sigma} is not a maximal cone") from None

    def crossing_to(self, sigma: ConeId, sigma2: ConeId) -> Crossing:
        """The crossing out of sigma into the adjacent maximal cone sigma2."""
        for c in self.crossings(sigma).values():
            if c.target == tuple(sigma2):
                return c
        raise NotAdjacent(
            f"{sigma} and {sigma2} do not share an interior facet")

    def transport_element(self, f: ring.RingElement, sigma: ConeId,
                          sigma2: ConeId) -> ring.RingElement:
        """f in the sigma2 chart, term by term through ``Crossing.monomial``
        (a monomial may pair negatively with the conormal).  The map is
        injective, so no two terms meet; classes in the ideal are dropped."""
        if tuple(sigma) == tuple(sigma2):
            return f
        c = self.crossing_to(sigma, sigma2)
        in_ideal = f.trunc.in_ideal
        terms = {}
        for (A, m), coeff in f.terms.items():
            A2, m2 = c.monomial(A, m)
            if not in_ideal(A2):
                terms[(A2, m2)] = coeff
        return ring.RingElement._make(terms, c.target, f.trunc, f.n)


def _check_unimodular(matrix):
    d = det(matrix)
    if abs(d) != 1:
        raise NonUnimodularChart(f"transition determinant {d}")


# -- construction / validation -----------------------------------------------

def build_complex(divisors: DivisorTable, good_strata: Iterable[Sequence[int]],
                  intersections: Mapping | Iterable = (),
                  kinks: Mapping | Iterable = (),
                  curve_rank: int | None = None,
                  n: int | None = None) -> ConeComplex:
    """Validate input strata and assemble the cone complex.

    ``good_strata`` lists index sets of nonempty strata of the ambient space
    (maximal ones suffice; faces are closed over).  The complex keeps the
    cones whose divisors are all good; the full list is retained to check
    that good curve strata only lie on good divisors.
    """
    strata: set[ConeId] = set()
    for s in good_strata:
        strata |= _faces(s)
    cones = frozenset(c for c in strata
                      if all(divisors.is_good(i) for i in c))

    if n is None:
        n = max((len(c) for c in cones), default=0)

    # the numbers of a facet belong to its rays in turn: sort them together
    inter = {}
    for rho, numbers in _items(intersections, "rho", "numbers"):
        if len(numbers) != len(rho):
            raise GeometryError(
                f"{len(numbers)} intersection numbers for the facet {rho}")
        pairs = sorted(zip(rho, numbers))
        inter[tuple(d for d, _ in pairs)] = tuple(k for _, k in pairs)
    kk = {tuple(sorted(rho)): c for rho, c in _items(kinks, "rho", "class")}
    if curve_rank is None:
        curve_rank = next((len(v) for v in kk.values()), 0)

    cx = ConeComplex(n=n, curve_rank=curve_rank, divisors=divisors,
                     strata=frozenset(strata), cones=cones,
                     intersections=inter, kinks=kk)
    validate_complex(cx)
    return cx


def _items(data, key_name, val_name) -> list[tuple[ConeId, tuple]]:
    """(cell, integer vector) pairs of a mapping, or of a list of objects
    holding the cell under ``key_name`` and the vector under ``val_name``."""
    pairs = data.items() if isinstance(data, Mapping) else \
        ((item[key_name], item[val_name]) for item in data)
    return [(tuple(k), ring.integer_vector(v)) for k, v in pairs]


def validate_complex(cx: ConeComplex):
    n = cx.n
    if not any(len(c) == n for c in cx.cones):
        raise MissingNDimCone(f"no {n}-dimensional cone of good divisors")

    # good curve strata must avoid bad divisors: an (n-1)-set of good
    # divisors may only extend to n-strata that are themselves good
    for rho in cx.cones:
        if len(rho) != n - 1:
            continue
        rs = set(rho)
        for s in cx.strata:
            if len(s) == n and rs <= set(s) and s not in cx.cones:
                bad = [i for i in s if not cx.divisors.is_good(i)]
                raise BadDivisorMeetsGoodCurve(
                    f"good curve stratum {rho} lies on bad divisor(s) {bad}")

    # pseudomanifold conditions: every cone inside an n-cone, facets in <= 2
    for c in cx.cones:
        if c and not cx.max_cones_containing(c):
            raise MissingNDimCone(
                f"cone {c} is not contained in any maximal cone")
        if len(c) == n - 1 and len(cx.max_cones_containing(c)) > 2:
            raise GeometryError(
                f"facet {c} lies in more than two maximal cones")

    # connectivity of the good boundary of every stratum of dim > 1
    for c in sorted(cx.cones, key=len):
        if len(c) > n - 2:
            continue
        cs = set(c)
        verts = [i for i in range(len(cx.divisors))
                 if i not in cs and tuple(sorted(cs | {i})) in cx.cones]
        if len(verts) <= 1:
            if not verts and len(c) < n:
                raise DisconnectedGoodBoundary(
                    f"stratum {c} has empty good boundary")
            continue
        adj = {v: set() for v in verts}
        for i in verts:
            for j in verts:
                if i < j and tuple(sorted(cs | {i, j})) in cx.cones:
                    adj[i].add(j)
                    adj[j].add(i)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(verts):
            raise DisconnectedGoodBoundary(
                f"good boundary of stratum {c} is disconnected")

    # interior facets need intersection numbers; transitions must build
    for sigma in cx.maximal_cones:
        for c in cx.crossings(sigma).values():
            back = cx.crossing_to(c.target, sigma)
            if any(back.vector(c.vector(e)) != e for e in _identity(n)):
                raise NonUnimodularChart(
                    f"transitions across {c.rho} do not invert each other")


# -- JSON interface ----------------------------------------------------------

_GEOMETRY_KEYS = {"schema", "n", "curve_rank", "divisors", "good_strata",
                  "intersections", "kinks", "relative"}


def geometry_from_json(data: Mapping) -> ConeComplex:
    """The complex that ``geometry_to_json`` wrote.  A ``"relative"`` key
    is accepted only as false: no relative (fibration) setting is
    implemented."""
    unknown = set(data) - _GEOMETRY_KEYS
    if unknown:
        raise GeometryError(f"unknown geometry keys: {sorted(unknown)}")
    if "relative" in data and data["relative"] is not False:
        raise GeometryError(
            f"geometry key 'relative' must be false, got "
            f"{data['relative']!r}: no relative setting is implemented")
    div_names = []
    a_coeffs = []
    b_mults = []
    for d in data["divisors"]:
        extra = set(d) - {"name", "a", "b"}
        if extra:
            raise GeometryError(f"unknown divisor keys: {sorted(extra)}")
        div_names.append(str(d["name"]))
        a_coeffs.append(Fraction(str(d.get("a", 0))))
        b_mults.append(d.get("b", 0))
    has_b = any("b" in d for d in data["divisors"])
    table = DivisorTable(
        names=tuple(div_names), a_coeffs=tuple(a_coeffs),
        fiber_multiplicities=ring.integer_vector(b_mults) if has_b else None)
    n, curve_rank = (None if data.get(k) is None else ring.integer(data[k])
                     for k in ("n", "curve_rank"))
    return build_complex(
        divisors=table,
        good_strata=[tuple(s) for s in data["good_strata"]],
        intersections=data.get("intersections", ()),
        kinks=data.get("kinks", ()),
        curve_rank=curve_rank,
        n=n)


def geometry_to_json(cx: ConeComplex) -> dict:
    divisors = []
    for i, name in enumerate(cx.divisors.names):
        d = {"name": name, "a": str(cx.divisors.a_coeffs[i])}
        if cx.divisors.fiber_multiplicities is not None:
            d["b"] = cx.divisors.fiber_multiplicities[i]
        divisors.append(d)
    return {
        "schema": "wallcross/1",
        "n": cx.n,
        "curve_rank": cx.curve_rank,
        "divisors": divisors,
        "good_strata": [list(s) for s in sorted(cx.strata, key=lambda c:
                                                (len(c), c)) if s],
        "intersections": [{"rho": list(k), "numbers": list(v)}
                          for k, v in sorted(cx.intersections.items())],
        "kinks": [{"rho": list(k), "class": list(v)}
                  for k, v in sorted(cx.kinks.items())],
    }


def load_geometry(path) -> ConeComplex:
    with open(path) as fh:
        return geometry_from_json(json.load(fh))
