"""Walls and wall structures.

A wall is a codimension-one rational cone inside a maximal cell, carrying a
function congruent to 1 modulo the curve-class maximal ideal whose exponents
are tangent to the support.  Structures are assembled from enumerative count
data, refined, and crossed by monomial automorphisms.  A slab is a wall
lying inside a codimension-one cell of the complex; it is seen from both
adjacent charts, its function reaching the other one through
``ConeComplex.transport_element``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Sequence

from . import linalg, ring
from .errors import (
    ClassInIdeal,
    InadmissibleWallDirection,
    UnsupportedDimension,
    WallError,
)
from .geometry import ConeComplex, ConeId
from .lattice import IntegerMatrix, kernel_basis
from .ring import RingElement, Truncation, _product_by_exponent


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    v = [int(x) for x in v]
    g = gcd(*v)
    if g == 0:
        raise WallError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class Wall:
    """Support cone (simplicial, dim n-1) with its attached function."""

    cone: ConeId                      # chart of the maximal cell
    support: tuple[tuple[int, ...], ...]
    function: RingElement
    rho: ConeId | None = None         # codim-1 cell of the complex, if a slab

    @property
    def n(self) -> int:
        return len(self.support[0])

    @cached_property
    def normal(self) -> tuple[int, ...]:
        """The primitive integer conormal of the support's hyperplane: the
        saturated integer kernel of the support rows, with its last nonzero
        coordinate positive, so that it depends on the hyperplane alone."""
        basis = kernel_basis(IntegerMatrix.from_rows(self.support))
        if len(basis) != 1:
            raise WallError("support does not span a hyperplane")
        [v] = basis
        return v if next(x for x in reversed(v) if x) > 0 \
            else tuple(-x for x in v)


@dataclass(frozen=True)
class WallStructure:
    """Walls on a complex; the data derived from them is computed once, on
    first use, and kept on the instance."""

    complex: ConeComplex
    trunc: Truncation
    walls: tuple[Wall, ...]
    dropped_trivial: int = 0

    def with_walls(self, walls: Iterable[Wall]) -> "WallStructure":
        return replace(self, walls=tuple(walls))

    @cached_property
    def chambers(self) -> tuple["Chamber", ...]:
        """Chambers of the refined decomposition (two-dimensional only)."""
        return planar_chambers(self)

    @cached_property
    def _store(self) -> dict:
        return {}

    def _kept(self, key, compute):
        """``compute()``, computed once per structure and key.

        The keys kept are

        - ``("logs", chart)``: ``wall_logs``;
        - ``("slab", chart, rho)``: ``slab_function``;
        - ``("slab logs", chart, rho)``: ``slab_logs``;
        - ``("candidates", p chart, p)``: an asymptotic's candidate
          monomials;
        - ``("hyperplanes", chart, candidates)``: the lines through the
          origin that a generic endpoint avoids;
        - ``("lines", p chart, p, x, decorated)``: a line family, as a
          tuple;
        - ``("sample", chamber, candidates, seed)``: a chamber's sample
          point;
        - ``("point", chart, numerators)``: a sample point by value, so that
          samples of one value are one object, and line-family keys holding
          it compare by identity, not by ``Fraction`` equality;
        - ``("containing", r chart, r)``: the chambers holding r, as a
          tuple.

        A check that guards a key (the endpoint genericity of a line family)
        runs inside ``compute``, so only when the key is computed: the key
        fixes what the check reads.  The store lives on the frozen
        structure, so ``replace`` and ``with_walls`` start an empty one; an
        error raised by ``compute`` is not kept, so it is raised again on
        every call.
        """
        store = self._store
        if key not in store:
            store[key] = compute()
        return store[key]

    def wall_logs(self, chart: ConeId) -> dict[int, list]:
        """Log terms of every wall visible in ``chart``, in that chart.

        Keyed by wall index, in index order; each value is the sorted list
        of ((class, exponent), coefficient) terms.  A wall is visible in
        its own chart and, if it is a slab, in every chart containing its
        cell.
        """
        chart = tuple(chart)
        return self._kept(("logs", chart), lambda: {
            i: ring.log_unipotent(self.complex.transport_element(
                w.function, w.cone, chart)).sorted_terms()
            for i, w in enumerate(self.walls)
            if w.cone == chart
            or (w.rho is not None and set(w.rho) <= set(chart))})

    def slab_function(self, chart: ConeId, rho: ConeId
                      ) -> tuple[RingElement, int | None]:
        """(f, the index of the first slab on rho): f is the product of the
        functions of the slabs on the cell rho, in ``chart``, a chart
        containing rho.  On a bare ray f = 1, with no index.

        The product does not depend on the chart it is formed in:
        ``check_wall`` makes slab exponents tangent to rho, so
        ``Crossing.monomial`` leaves their classes alone and transport is
        multiplicative.  It does not depend on where a broken line crosses
        rho either: on a surface a slab's support is its whole ray, so
        ``broken._holds`` passes for every slab at every point of rho.  A
        slab of a threefold may hold only part of its cell, and there the
        product must be taken per crossing point.
        """
        chart, rho = tuple(chart), tuple(rho)

        def compute():
            f = RingElement.one(chart, self.trunc, self.complex.n)
            first = None
            for i, w in enumerate(self.walls):
                if w.rho == rho:
                    f = f.mul(self.complex.transport_element(
                        w.function, w.cone, chart))
                    first = i if first is None else first
            return f, first

        return self._kept(("slab", chart, rho), compute)

    def slab_logs(self, chart: ConeId, rho: ConeId) -> list:
        """The sorted log terms of the slab product on rho in ``chart``
        (``slab_function``).  Only decorated lines read them, so they are
        taken on first read, not with the product."""
        chart, rho = tuple(chart), tuple(rho)
        f, _first = self.slab_function(chart, rho)
        return self._kept(("slab logs", chart, rho),
                          lambda: ring.log_unipotent(f).sorted_terms())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "wallcross/1",
            "walls": [{
                "max_cone": list(w.cone),
                "support": [list(g) for g in w.support],
                "rho": list(w.rho) if w.rho is not None else None,
                "function": w.function.to_json(),
            } for w in self.walls],
            "dropped_trivial": self.dropped_trivial,
        }

    @classmethod
    def from_json(cls, data: Mapping, cx: ConeComplex,
                  trunc: Truncation) -> "WallStructure":
        """The structure ``to_json`` wrote; every wall must pass
        ``check_wall``."""
        walls = []
        for i, item in enumerate(data["walls"]):
            cone = tuple(item["max_cone"])
            f = RingElement.from_json(item["function"], cone, trunc, cx.n)
            rho = tuple(item["rho"]) if item.get("rho") is not None else None
            wall = Wall(cone=cone,
                        support=tuple(ring.integer_vector(g)
                                      for g in item["support"]),
                        function=f, rho=rho)
            check_wall(cx, wall, label=f"wall {i} in chart {cone}")
            walls.append(wall)
        return cls(complex=cx, trunc=trunc, walls=tuple(walls),
                   dropped_trivial=ring.integer(
                       data.get("dropped_trivial", 0)))


# -- assembly ----------------------------------------------------------------

def minimal_cell(cx: ConeComplex, cone: ConeId, support) -> ConeId:
    """Smallest cell of the complex containing the support cone."""
    if any(x < 0 for g in support for x in g):
        raise WallError("support generators must lie in the chart's cone")
    cell = cx.cell_of(cone, [sum(col) for col in zip(*support)])
    if cell not in cx.cones:
        raise WallError(f"support spans {cell}, not a cell of the complex")
    return cell


def check_wall(cx: ConeComplex, wall: Wall,
               grading: Sequence[Sequence[int]] | None = None,
               label: str | None = None):
    """Validate a simplicial support of dimension n-1, tangency,
    admissibility and grading.

    A ``WallError`` keeps its class and names the wall: its message starts
    with ``label`` (``wall 0 in chart (0, 1)``), or else with the wall's
    chart and support.
    """
    try:
        _check_wall(cx, wall, grading)
    except WallError as exc:
        if label is None:
            label = (f"wall in chart {wall.cone} with support "
                     f"{[list(g) for g in wall.support]}")
        raise type(exc)(f"{label}: {exc}") from exc


def _check_wall(cx: ConeComplex, wall: Wall, grading):
    n = cx.n
    if len(wall.cone) != n or tuple(wall.cone) not in cx.cones:
        raise WallError(f"{wall.cone} is not a maximal cone")
    if len(wall.support) != n - 1:
        raise WallError(f"a simplicial wall support has n-1 = {n - 1} "
                        f"generators, not {len(wall.support)}")
    if linalg.rank([list(g) for g in wall.support]) != n - 1:
        raise WallError("wall support must have dimension n-1")
    normal = wall.normal

    cell = minimal_cell(cx, wall.cone, wall.support)
    if len(cell) <= n - 2:
        raise WallError("wall support lies in the singular skeleton")

    location = None
    if len(cell) == n - 1:
        if wall.rho is not None and tuple(wall.rho) != cell:
            raise WallError("stored slab cell disagrees with the support")
        adjacent = cx.max_cones_containing(cell)
        if len(adjacent) == 1:
            raise WallError(
                "wall support contained in the boundary of the complex")
        location = ring.InteriorCodim1(
            normal=cx.normal_into(wall.cone, cell), kink=cx.kink(cell))

    # function: unipotent, exponents tangent and admissible
    if wall.function.constant_coefficient() != 1:
        raise WallError("wall function must be 1 modulo the maximal ideal")
    for (A, m), _c in wall.function.terms.items():
        if any(m):
            pairing = sum(a * b for a, b in zip(normal, m))
            if pairing != 0:
                raise InadmissibleWallDirection(
                    f"exponent {m} not tangent to the wall support")
            if location is not None and not ring.admissible_at(A, m, location):
                raise InadmissibleWallDirection(
                    f"monomial t^{list(A)} z^{list(m)} inadmissible on the "
                    f"cell {cell}")
        if grading is not None:
            _check_homogeneous(cx, wall.cone, A, m, grading)


def _check_homogeneous(cx: ConeComplex, cone: ConeId, A, m, grading):
    """Torus-weight homogeneity: divisor degree of t^A z^m must vanish."""
    for i in range(len(cx.divisors)):
        deg = sum(grading[i][k] * A[k] for k in range(len(A)))
        if i in cone:
            deg += m[cone.index(i)]
        if deg != 0:
            raise WallError(
                f"monomial t^{list(A)} z^{list(m)} has nonzero weight {deg} "
                f"on divisor {cx.divisors.names[i]}")


def assemble_canonical(cx: ConeComplex, counts: Iterable[Mapping],
                       trunc: Truncation,
                       grading: Sequence[Sequence[int]] | None = None
                       ) -> WallStructure:
    """Build the wall structure attached to a list of enumerative counts.

    Each count entry carries a support cone, a tangent direction u, a curve
    class A, a rational weight W, an optional lattice index k (defaulting to
    the divisibility of u) and an optional automorphism order.  Entries
    sharing (support, u, A) aggregate by summing W divided by the
    automorphism order; each aggregate contributes exp(k·W·t^A z^{-u}), and
    walls sharing a support multiply.  Weight-zero aggregates are dropped.
    """
    n = cx.n
    grouped: dict[tuple, Fraction] = {}
    kvals: dict[tuple, int] = {}
    for entry in counts:
        cone = tuple(entry["max_cone"])
        support = tuple(ring.integer_vector(g) for g in entry["support"])
        u = ring.integer_vector(entry["u"])
        A = ring.integer_vector(entry["A"])
        if not any(u):
            raise InadmissibleWallDirection("wall direction must be nonzero")
        if all(a == 0 for a in A):
            raise ClassInIdeal(f"class {list(A)} is trivial")
        if trunc.in_ideal(A):
            # invisible at this truncation order
            continue
        # u must be tangent to the support
        if linalg.rank([list(g) for g in support] + [list(u)]) != \
                linalg.rank([list(g) for g in support]):
            raise InadmissibleWallDirection(
                f"direction {list(u)} not tangent to the support")
        k = _positive(entry, "k", gcd(*u))
        aut = _positive(entry, "aut", 1)
        key = (cone, support, u, A)
        grouped[key] = grouped.get(key, Fraction(0)) + \
            Fraction(str(entry["W"])) / aut
        prev = kvals.setdefault(key, k)
        if prev != k:
            raise WallError("conflicting lattice indices for one family")

    by_support: dict[tuple, RingElement] = {}
    dropped = 0
    for (cone, support, u, A), w in sorted(grouped.items()):
        if w == 0:
            dropped += 1
            continue
        k = kvals[(cone, support, u, A)]
        g = RingElement.monomial(A, tuple(-x for x in u), k * w, cone, trunc)
        factor = ring.exp_truncated(g)
        skey = (cone, support)
        if skey in by_support:
            by_support[skey] = by_support[skey].mul(factor)
        else:
            by_support[skey] = factor

    walls = []
    for (cone, support), f in sorted(by_support.items()):
        if f.is_one():
            dropped += 1
            continue
        cell = minimal_cell(cx, cone, support)
        rho = cell if len(cell) == n - 1 else None
        wall = Wall(cone=cone, support=support, function=f, rho=rho)
        check_wall(cx, wall, grading=grading)
        walls.append(wall)
    return WallStructure(complex=cx, trunc=trunc, walls=tuple(walls),
                         dropped_trivial=dropped)


def _positive(entry: Mapping, key: str, default: int) -> int:
    """A count entry's optional positive integer field."""
    value = entry.get(key)
    if value is None:
        return default
    value = ring.integer(value)
    if value < 1:
        raise ValueError(f"count field {key!r} must be at least 1, "
                         f"got {value}")
    return value


def counts_from_json(data) -> list[dict]:
    if isinstance(data, Mapping):
        data = data["counts"]
    allowed = {"max_cone", "support", "u", "A", "W", "k", "aut"}
    for entry in data:
        unknown = set(entry) - allowed
        if unknown:
            raise WallError(f"unknown count keys: {sorted(unknown)}")
    return list(data)


def truncation_from_json(data: Mapping) -> Truncation:
    mode = data.get("mode", "degree")
    if mode == "degree":
        weights = data.get("weights")
        return Truncation.degree(
            ring.integer(data["curve_rank"]), ring.integer(data["bound"]),
            None if weights is None else ring.integer_vector(weights))
    if mode == "generators":
        return Truncation.from_generators(ring.integer(data["curve_rank"]),
                                          data["generators"])
    raise WallError(f"unknown truncation mode {mode!r}")


def truncation_to_json(trunc: Truncation) -> dict:
    out: dict = {"schema": "wallcross/1", "curve_rank": trunc.curve_rank}
    if trunc.weights is not None:
        out.update(mode="degree", weights=list(trunc.weights),
                   bound=trunc.bound)
    else:
        out.update(mode="generators",
                   generators=[list(g) for g in trunc.generators])
    return out


# -- refinement --------------------------------------------------------------

@dataclass(frozen=True)
class Chamber:
    """Maximal cell of the refined decomposition of a planar complex.

    Bounded by two rays (primitive, in the chart of ``cone``), with
    ``lower`` preceding ``upper`` clockwise: det(lower, upper) < 0.
    """

    cone: ConeId
    lower: tuple[int, int]
    upper: tuple[int, int]


def refine(s: WallStructure) -> WallStructure:
    """Merge coincident-support walls; deterministic ordering.  A refined
    structure is returned as it is, keeping the data cached on it."""
    merged: dict[tuple, Wall] = {}
    for w in sorted(s.walls, key=lambda w: (w.cone, w.support)):
        key = (w.cone, _cone_key(w.support))
        if key in merged:
            prev = merged[key]
            merged[key] = replace(prev, function=prev.function.mul(w.function))
        else:
            merged[key] = w
    walls = sorted((w for w in merged.values() if not w.function.is_one()),
                   key=lambda w: (w.cone, w.support))
    if len(walls) == len(s.walls) and all(
            a is b for a, b in zip(walls, s.walls)):
        return s
    return s.with_walls(walls)


def _cone_key(support):
    return tuple(sorted(primitive(g) for g in support))


def planar_chambers(s: WallStructure) -> tuple[Chamber, ...]:
    """Chamber decomposition of a two-dimensional structure."""
    cx = s.complex
    if cx.n != 2:
        raise UnsupportedDimension(
            "chamber decomposition implemented for 2-dimensional complexes")
    s = refine(s)
    chambers = []
    for cone in cx.maximal_cones:
        rays = {(1, 0), (0, 1)}
        for w in s.walls:
            if w.cone == cone:
                rays.add(primitive(w.support[0]))
        ordered = sorted(rays, key=lambda r: Fraction(r[0], r[0] + r[1]))
        # sort by angle within the first quadrant: x/(x+y) increases from
        # the vertical ray (0,1) to the horizontal ray (1,0)
        for lo, hi in zip(ordered, ordered[1:]):
            chambers.append(Chamber(cone=cone, lower=lo, upper=hi))
    return tuple(chambers)


# -- crossing ----------------------------------------------------------------

def apply_theta(f_wall: RingElement, normal: Sequence[int],
                f: RingElement, *, cap: int | None = None) -> RingElement:
    """The crossing automorphism z^m -> f_wall^<normal, m> z^m applied to f;
    with a ``cap``, only its terms of weight at most ``cap``."""
    if f.terms:
        f_wall._check_compatible(f)
    return _product_by_exponent(
        f, lambda m: f_wall.pow_int(sum(map(operator.mul, normal, m))), cap)


def cross_wall(f: RingElement, wall: Wall, source_side: Sequence[int]
               ) -> RingElement:
    """Cross ``wall`` out of the chamber containing direction source_side.

    ``source_side``: any vector on the source-chamber side of the wall's
    hyperplane (in the wall's chart).  The conormal is normalized positive
    on that side.
    """
    normal = wall.normal
    pairing = sum(Fraction(a) * Fraction(b)
                  for a, b in zip(normal, source_side))
    if pairing == 0:
        raise WallError("source direction lies on the wall")
    if pairing < 0:
        normal = tuple(-x for x in normal)
    return apply_theta(wall.function, normal, f)
