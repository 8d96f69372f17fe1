"""Tropical types: universal cones, classification, splitting multiplicities.

A tropical type is a tree decorated with cells of a cone complex and
integral contact orders.  The module computes the universal family of
tropical maps of a type by exact polyhedral algebra in a single chart,
classifies types (wall / broken-line / degenerate / product) and computes
lattice-index multiplicities of vertex splittings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from typing import Sequence

from . import linalg
from .errors import (
    RankDeficient,
    TropicalError,
    UnsupportedDimension,
    Unrealizable,
)
from .geometry import ConeComplex
from .lattice import (
    IntegerMatrix,
    cokernel_order,
    invariant_factors,
    kernel_basis,
)
from .ring import integer, integer_vector

ConeId = tuple

ROLES = ("out", "inc", "in1", "in2")


@dataclass(frozen=True)
class Vertex:
    cone: ConeId                      # cell of the complex (divisor tuple)
    A: tuple[int, ...] | None = None  # optional curve-class decoration
    # optional finer constraint: generators (chart coords) of a subcone the
    # vertex position must lie in (relative interior); used for vertices on
    # walls, whose supports are not cells of the complex
    rays: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Edge:
    v: tuple[int, int]        # tail, head vertex indices
    u: tuple[int, ...]        # contact order, oriented tail -> head


@dataclass(frozen=True)
class Leg:
    v: int
    u: tuple[int, ...]
    role: str | None = None   # "out" | "inc" | "in1" | "in2" | None


@dataclass(frozen=True)
class TropicalType:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    legs: tuple[Leg, ...]
    # (complex, cone) of the last solve, set by ``universal_cone``
    _cone: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        nv = len(self.vertices)
        for e in self.edges:
            if len(e.v) != 2:
                raise ValueError(f"edge {list(e.v)} does not join two "
                                 "vertices")
            if not (0 <= e.v[0] < nv and 0 <= e.v[1] < nv):
                raise TropicalError("edge endpoint out of range")
        for l in self.legs:
            if not 0 <= l.v < nv:
                raise TropicalError("leg vertex out of range")
            if l.role is not None and l.role not in ROLES:
                raise TropicalError(f"unknown leg role {l.role!r}")
        # genus 0: connected tree
        if self.edges or nv > 1:
            if len(self.edges) != nv - 1:
                raise TropicalError("graph is not a tree")
            seen = {0}
            frontier = [0]
            adj = {i: [] for i in range(nv)}
            for e in self.edges:
                adj[e.v[0]].append(e.v[1])
                adj[e.v[1]].append(e.v[0])
            while frontier:
                w = frontier.pop()
                for nb in adj[w]:
                    if nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            if len(seen) != nv:
                raise TropicalError("graph is not connected")

    def leg_with_role(self, role: str) -> tuple[int, Leg] | None:
        for i, l in enumerate(self.legs):
            if l.role == role:
                return i, l
        return None

    def to_json(self) -> dict:
        verts = []
        for v in self.vertices:
            d = {"cone": list(v.cone)}
            if v.A is not None:
                d["A"] = list(v.A)
            if v.rays is not None:
                d["rays"] = [list(r) for r in v.rays]
            verts.append(d)
        return {
            "vertices": verts,
            "edges": [{"v": list(e.v), "u": list(e.u)} for e in self.edges],
            "legs": [
                {"v": l.v, "u": list(l.u)} if l.role is None else
                {"v": l.v, "u": list(l.u), "role": l.role}
                for l in self.legs],
        }

    @classmethod
    def from_json(cls, data) -> "TropicalType":
        """A type read from JSON; a non-integral index or entry is a
        ``ValueError``, and so is an edge that does not join two vertices.
        Vector lengths are checked by ``check_lengths``."""
        return cls(
            vertices=tuple(
                Vertex(cone=integer_vector(v["cone"]),
                       A=integer_vector(v["A"]) if "A" in v else None,
                       rays=tuple(integer_vector(r) for r in v["rays"])
                       if "rays" in v else None)
                for v in data["vertices"]),
            edges=tuple(Edge(v=integer_vector(e["v"]),
                             u=integer_vector(e["u"]))
                        for e in data["edges"]),
            legs=tuple(Leg(v=integer(l["v"]), u=integer_vector(l["u"]),
                           role=l.get("role"))
                       for l in data["legs"]),
        )

    def check_lengths(self, n: int, curve_rank: int) -> None:
        """Raise ``ValueError`` unless every contact order and ray has
        length n and every class curve_rank."""
        vectors = [e.u for e in self.edges] + [l.u for l in self.legs] + \
            [r for v in self.vertices for r in v.rays or ()]
        for u in vectors:
            if len(u) != n:
                raise ValueError(f"type vector {list(u)} does not have "
                                 f"length {n}")
        for v in self.vertices:
            if v.A is not None and len(v.A) != curve_rank:
                raise ValueError(f"curve class {list(v.A)} does not have "
                                 f"length {curve_rank}")


# -- chart selection ---------------------------------------------------------

def _containing_chart(t: TropicalType, cx: ConeComplex) -> ConeId:
    """A maximal cone whose faces contain every cell of the type."""
    cells = [set(v.cone) for v in t.vertices]
    for sigma in cx.maximal_cones:
        s = set(sigma)
        if all(c <= s for c in cells):
            return sigma
    raise UnsupportedDimension(
        "type spans several charts; only single-chart types are supported")


# -- exact feasibility (Fourier-Motzkin) -------------------------------------

def _fm_feasible(rows) -> bool:
    """Feasibility of constraints sum(c*t)+const >= 0 (or > 0 if strict).

    Each row is (integer coeffs, integer const, strict bool).  Eliminating
    a variable combines a positive and a negative row with positive
    integer factors; each combined row is divided by the gcd of its
    entries and constant, which keeps its sign and its strictness.
    """
    rows = [(list(c), k, s) for c, k, s in rows]
    nvar = len(rows[0][0]) if rows else 0
    for var in range(nvar):
        pos, neg, rest = [], [], []
        for c, k, s in rows:
            if c[var] > 0:
                pos.append((c, k, s))
            elif c[var] < 0:
                neg.append((c, k, s))
            else:
                rest.append((c, k, s))
        new = rest
        for cp, kp, sp in pos:
            for cn, kn, sn in neg:
                a, b = cp[var], -cn[var]
                c = [b * x + a * y for x, y in zip(cp, cn)]
                k = b * kp + a * kn
                g = gcd(*c, k)
                if g > 1:
                    c = [x // g for x in c]
                    k //= g
                new.append((c, k, sp or sn))
        rows = new
    return all((k > 0 if s else k >= 0) for _c, k, s in rows)


def _substitute(row, basis):
    """Rewrite a constraint over x as a constraint over kernel coords."""
    coeffs, const, strict = row
    nonzero = [(j, c) for j, c in enumerate(coeffs) if c]
    return [sum(c * b[j] for j, c in nonzero) for b in basis], const, strict


# -- universal cone ----------------------------------------------------------

@dataclass(frozen=True)
class UniversalCone:
    """The moduli cone of a type, solved in one chart.

    ``lattice`` is a basis of the saturated integer kernel of the
    equalities, taken from one Smith form.  It is the only kernel of the
    cone: ``dim_type`` is its length, ``dim_out`` the rank of its image
    under the out-leg evaluation, the inequalities are tested for
    feasibility in its coordinates, and ``_leg_lattice`` extends it by
    free leg parameters.
    """

    chart: ConeId
    nvars: int                       # vertex-position coords then edge lengths
    vertex_offset: tuple[int, ...]
    equalities: tuple[tuple[int, ...], ...]   # rows: sum c*x = 0
    dim_type: int
    dim_out: int
    lattice: tuple[tuple[int, ...], ...]


def _build_system(t: TropicalType, cx: ConeComplex):
    chart = _containing_chart(t, cx)
    n = cx.n
    nv = len(t.vertices)
    ne = len(t.edges)
    # variables: vertex positions, edge lengths, then barycentric
    # parameters of ray-constrained vertices
    voff = tuple(n * i for i in range(nv))
    eoff = tuple(n * nv + i for i in range(ne))
    nvars = n * nv + ne
    roff = {}
    for vi, v in enumerate(t.vertices):
        if v.rays is not None:
            roff[vi] = nvars
            nvars += len(v.rays)
    eqs = []
    ineqs = []  # (row, strict)

    def unit(j):
        r = [0] * nvars
        r[j] = 1
        return r

    # edge matching: h(head) - h(tail) - l_E * u = 0
    for ei, e in enumerate(t.edges):
        for j in range(n):
            row = [0] * nvars
            row[voff[e.v[1]] + j] += 1
            row[voff[e.v[0]] + j] -= 1
            row[eoff[ei]] -= e.u[j]
            eqs.append(row)
        ineqs.append((unit(eoff[ei]), True))   # honest edges: length > 0
    # vertex membership (relative interior of the cell or the ray subcone)
    for vi, v in enumerate(t.vertices):
        if v.rays is not None:
            # h(v) = sum lambda_k * ray_k, lambda_k > 0
            for j in range(n):
                row = unit(voff[vi] + j)
                for k, g in enumerate(v.rays):
                    row[roff[vi] + k] -= g[j]
                eqs.append(row)
            for k in range(len(v.rays)):
                ineqs.append((unit(roff[vi] + k), True))
            continue
        positions = {chart.index(d) for d in v.cone}
        for j in range(n):
            row = unit(voff[vi] + j)
            if j in positions:
                ineqs.append((row, True))
            else:
                eqs.append(row)
    return chart, nvars, voff, eqs, ineqs


def universal_cone(t: TropicalType, cx: ConeComplex) -> UniversalCone:
    """Solve the tropical-map constraints of a type exactly.

    The cone is kept on the type, with the complex it was solved in, so a
    type is solved once however often it is classified or glued; a call
    with another complex (compared by identity) solves afresh.  Nothing is
    kept for an unrealizable type, which raises on every call.
    """
    if t._cone is not None and t._cone[0] is cx:
        return t._cone[1]
    chart, nvars, voff, eqs, ineqs = _build_system(t, cx)
    n = cx.n
    lattice = kernel_basis(IntegerMatrix.from_rows(eqs or [[0] * nvars]))
    rows = [_substitute((row, 0, strict), lattice) for row, strict in ineqs]
    if not _fm_feasible(rows):
        raise Unrealizable("the constraint system has no honest solution")
    # dim of the image swept by the out-leg (or the first leg)
    out = t.leg_with_role("out") or ((0, t.legs[0]) if t.legs else None)
    if out is not None:
        _i, leg = out
        proj = [[b[voff[leg.v] + j] for j in range(n)] for b in lattice]
        proj.append(list(leg.u))
        dim_out = linalg.rank(proj)
    else:
        dim_out = 0
    uc = UniversalCone(chart=chart, nvars=nvars, vertex_offset=voff,
                       equalities=tuple(tuple(r) for r in eqs),
                       dim_type=len(lattice), dim_out=dim_out,
                       lattice=tuple(lattice))
    object.__setattr__(t, "_cone", (cx, uc))
    return uc


# -- classification ----------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    kind: str                  # wall | broken-line | degenerate | product | none
    dim_type: int
    dim_out: int
    k_tau: int
    decoration_admissible: bool
    d_values: tuple
    spine_vertices: tuple[int, ...]


def _k_tau(t: TropicalType, cx: ConeComplex, uc: UniversalCone) -> int:
    """Torsion cokernel order of out-evaluation into the target lattice."""
    n = cx.n
    out = t.leg_with_role("out") or ((0, t.legs[0]) if t.legs else None)
    if out is None:
        return 1
    _i, leg = out
    images = [_leg_point(uc, b, leg, uc.nvars, n)
              for b in _leg_lattice(uc, 1)]
    if not images:
        return 1
    mat = IntegerMatrix.from_rows([[img[j] for img in images]
                                   for j in range(n)])
    return cokernel_order(mat, torsion_only=True)


def _leg_lattice(uc: UniversalCone, k: int):
    """Integral basis of the solutions of the type's equalities, with k
    free leg parameters appended after the universal-cone variables.

    The cone's kernel padded by k zeros, then the k unit vectors: the
    Smith form of the equalities padded by k zero columns never touches
    those columns, so this is the kernel basis of the padded system.
    """
    return [b + (0,) * k for b in uc.lattice] + \
        [(0,) * (uc.nvars + i) + (1,) + (0,) * (k - 1 - i) for i in range(k)]


def _leg_point(uc: UniversalCone, vec, leg: Leg, pos: int, n: int):
    """The point of ``leg`` at the parameter vec[pos] along it."""
    return [vec[uc.vertex_offset[leg.v] + j] + vec[pos] * leg.u[j]
            for j in range(n)]


def _spine(t: TropicalType):
    """Minimal connected subtree containing every leg-bearing vertex."""
    nv = len(t.vertices)
    leggy = {l.v for l in t.legs}
    adj = {i: set() for i in range(nv)}
    for ei, e in enumerate(t.edges):
        adj[e.v[0]].add((e.v[1], ei))
        adj[e.v[1]].add((e.v[0], ei))
    alive = set(range(nv))
    edges = set(range(len(t.edges)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            if i in leggy:
                continue
            incident = [(nb, ei) for nb, ei in adj[i]
                        if nb in alive and ei in edges]
            if len(incident) <= 1:
                alive.discard(i)
                for _nb, ei in incident:
                    edges.discard(ei)
                changed = True
    if not alive and nv:
        alive = {min(leggy) if leggy else 0}
    return tuple(sorted(alive)), tuple(sorted(edges))


def spine(t: TropicalType):
    """Spine subtree; for two-leg types also the leg-to-leg vertex path."""
    verts, edges = _spine(t)
    sequence = ()
    if len(t.legs) == 2 and verts:
        adj = {i: [] for i in verts}
        for ei in edges:
            a, b = t.edges[ei].v
            adj[a].append(b)
            adj[b].append(a)
        start, goal = t.legs[0].v, t.legs[1].v
        path = [start]
        prev = None
        while path[-1] != goal:
            nxt = [w for w in adj[path[-1]] if w != prev]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
        sequence = tuple(path)
    return verts, edges, sequence


def _decoration_check(t: TropicalType, cx: ConeComplex, chart: ConeId):
    """Admissibility of A: zero over maximal cells, d*[X_rho] over codim 1.

    Only spine vertices are checked; returns (ok, d-values per vertex).
    """
    n = cx.n
    spine_verts, _ = _spine(t)
    ok = True
    dvals = {}
    for i in spine_verts:
        v = t.vertices[i]
        A = v.A
        if len(v.cone) == n:
            if A is not None and any(A):
                ok = False
            dvals[i] = 0
            continue
        if len(v.cone) != n - 1:
            continue
        rho = tuple(sorted(v.cone))
        normal = cx.normal_into(chart, rho)
        pair_vals = set()
        for e in t.edges:
            if i in e.v:
                p = abs(sum(a * b for a, b in zip(normal, e.u)))
                if p:
                    pair_vals.add(p)
        for l in t.legs:
            if l.v == i:
                p = abs(sum(a * b for a, b in zip(normal, l.u)))
                if p:
                    pair_vals.add(p)
        if len(pair_vals) > 1:
            ok = False
            dvals[i] = None
            continue
        d = pair_vals.pop() if pair_vals else 0
        dvals[i] = d
        if A is not None:
            kink = cx.kink(rho)
            if tuple(A) != tuple(d * k for k in kink):
                ok = False
    return ok, tuple(sorted(dvals.items()))


def classify(t: TropicalType, cx: ConeComplex) -> Classification:
    """Classify a realizable type by leg roles and dimension pair."""
    uc = universal_cone(t, cx)
    n = cx.n
    roles = sorted(l.role for l in t.legs if l.role)
    dims = (uc.dim_type, uc.dim_out)
    kind = "none"
    out = t.leg_with_role("out")
    inc = t.leg_with_role("inc")
    trivial = (roles == ["inc", "out"] and not t.edges
               and len(t.vertices) == 1 and out is not None
               and tuple(out[1].u) == tuple(-x for x in inc[1].u))
    if trivial:
        # an unbent segment: one free vertex carrying both legs
        kind = "broken-line"
    elif out is not None and any(out[1].u):
        if roles == ["out"]:
            if dims == (n - 2, n - 1):
                kind = "wall"
        elif roles == ["inc", "out"]:
            if dims == (n - 1, n):
                kind = "broken-line"
            elif dims == (n - 2, n - 1):
                kind = "degenerate"
        elif roles == ["in1", "in2", "out"]:
            if dims == (n, n):
                kind = "product"
    ktau = _k_tau(t, cx, uc)
    dec_ok, dvals = _decoration_check(t, cx, uc.chart)
    spine_verts, _, seq = spine(t) if t.legs else ((), (), ())
    return Classification(kind=kind, dim_type=uc.dim_type,
                          dim_out=uc.dim_out, k_tau=ktau,
                          decoration_admissible=dec_ok, d_values=dvals,
                          spine_vertices=seq or spine_verts)


# -- splitting multiplicities ------------------------------------------------

@dataclass(frozen=True)
class SplitPiece:
    """One piece of a vertex splitting, with marked gluing legs."""

    type: TropicalType
    gluing_legs: tuple[int, ...]


@dataclass(frozen=True)
class GluingEdge:
    """A gluing edge between two pieces with its stratum lattice.

    ``ends`` are (piece index, leg index) pairs; ``lattice`` is a tuple of
    integer basis vectors of the gluing-stratum lattice in chart coords.
    """

    ends: tuple[tuple[int, int], tuple[int, int]]
    lattice: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MultiplicityResult:
    multiplicity: int
    rank_ok: bool
    dimension_formula_ok: bool
    epsilon: tuple  # the integer matrix rows of the difference map


def _difference_columns(pieces: Sequence[SplitPiece],
                        edges: Sequence[GluingEdge], cx: ConeComplex):
    """The gluing difference map on the pieces' enlarged lattice bases.

    Each piece's enlarged lattice has the universal-cone variables, then
    one parameter per gluing leg.  One column per domain basis vector
    (block per piece): for each gluing edge, the first leg point minus the
    second, counting only legs on the vector's own piece.
    """
    n = cx.n
    columns = []
    for bi, piece in enumerate(pieces):
        uc = universal_cone(piece.type, cx)
        for vec in _leg_lattice(uc, len(piece.gluing_legs)):
            col = []
            for e in edges:
                contrib = [0] * n
                for sign, (pi, li) in zip((1, -1), e.ends):
                    if pi != bi:
                        continue
                    pos = uc.nvars + piece.gluing_legs.index(li)
                    pt = _leg_point(uc, vec, piece.type.legs[li], pos, n)
                    contrib = [a + sign * b for a, b in zip(contrib, pt)]
                col.append(contrib)
            columns.append(col)
    return columns


def splitting_multiplicity(pieces: Sequence[SplitPiece],
                           edges: Sequence[GluingEdge],
                           cx: ConeComplex) -> MultiplicityResult:
    """Lattice index of the gluing difference map of a vertex splitting.

    For each gluing edge, the evaluation difference of the two leg points
    must land in the edge's stratum lattice; the multiplicity is the index
    of the image of the assembled integer map in the product of those
    lattices.
    """
    columns = _difference_columns(pieces, edges, cx)
    # each edge's differences, expressed in the edge lattice basis; with no
    # domain columns the map is one zero column
    rows = []
    for ei, e in enumerate(edges):
        coords = _in_lattice_basis([col[ei] for col in columns], e.lattice)
        rows += [[c[i] for c in coords] or [0] for i in range(len(e.lattice))]
    total = len(columns)
    target_dim = len(rows)
    nonzero = [d for d in invariant_factors(IntegerMatrix.from_rows(rows))
               if d != 0]
    rk = len(nonzero)
    rank_ok = rk == target_dim
    if not rank_ok:
        raise RankDeficient(
            "the gluing difference map is not surjective over the rationals")
    # dimension formula: sum of enlarged dims = glued dim + sum of ranks
    glued_dim = total - rk
    dim_ok = total == glued_dim + target_dim
    return MultiplicityResult(multiplicity=prod(nonzero), rank_ok=rank_ok,
                              dimension_formula_ok=dim_ok,
                              epsilon=tuple(tuple(r) for r in rows))


def _in_lattice_basis(vecs, lattice):
    """Coordinates of integer vectors in a stratum-lattice basis, all from
    one fraction-free elimination: each is its numerator divided by the
    common pivot, which must leave no remainder."""
    if not vecs:
        return []
    basis = [[b[j] for b in lattice] for j in range(len(vecs[0]))]
    pivots, d, nums = linalg.gauss_jordan(basis, vecs)
    out = []
    for vec, col in zip(vecs, nums):
        if col is None:
            raise TropicalError(
                f"evaluation difference {vec} leaves the stratum lattice span")
        coords = [0] * len(lattice)
        for p, num in zip(pivots, col):
            q, rem = divmod(num, d)
            if rem:
                raise TropicalError(
                    f"evaluation difference {vec} is not in the stratum "
                    "lattice")
            coords[p] = q
        out.append(coords)
    return out
