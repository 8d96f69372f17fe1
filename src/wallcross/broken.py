"""Broken lines, theta functions, and tropical structure constants.

Enumeration runs backward from the endpoint: the state is a point together
with the monomial of the segment through it, the predecessor ray is the
point translated along the exponent direction, and branching inverts the
wall-crossing transport by enumerating wall-function term choices.  Every
nontrivial bend strictly decreases the remaining curve class, so tracing
terminates under truncation.

Tracing runs on integers: a point is a vector of integer numerators over
one positive denominator, a crossing time is an integer fraction compared
by cross-multiplication, and a ``Fraction`` point is built only where a
``Bend`` stores it.  A structure constant sums the products of final
coefficients per curve class, pairing each line with the lines of the
complementary exponent only.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import (
    BrokenLineError,
    EndpointOutsideFamily,
    InadmissibleType,
    NonGenericEndpoint,
    NotAdjacent,
    UnsupportedDimension,
    WallError,
)
from .geometry import PointInChart
from .linalg import det
from .ring import RingElement, Truncation
from .tropical import Edge, Leg, TropicalType, Vertex
from .walls import Chamber, Wall, WallStructure, _cone_key, primitive

ConeId = tuple

_TRACE_LIMIT = 64


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- domain types ------------------------------------------------------------

@dataclass(frozen=True)
class Bend:
    """One bend of a broken line.

    ``delta_class``/``delta_exponent`` are what the bend adds to the
    monomial going toward the endpoint; ``mu`` (decorated lines only) lists
    (log-term index, multiplicity) pairs into the bend's ``_bend_logs``.
    """

    cone: ConeId
    point: tuple
    cell: tuple                      # wall support key, or the codim-1 cell
    wall_index: int
    pairing: int
    delta_class: tuple[int, ...]
    delta_exponent: tuple[int, ...]
    coeff: int | Fraction
    mu: tuple | None = None
    on_slab: bool = False


@dataclass(frozen=True)
class BrokenLine:
    """A broken line with endpoint ``x`` and asymptotic exponent ``p``.

    ``segments`` lists (chart, class, exponent, coefficient) from the
    asymptotic segment to the final one; the first coefficient is 1.
    """

    x: PointInChart
    p: tuple[int, ...]
    p_cone: ConeId
    bends: tuple[Bend, ...]
    segments: tuple[tuple, ...]
    trace: tuple

    @property
    def a_beta(self) -> Fraction:
        return self.segments[-1][3]

    @property
    def m_beta(self) -> tuple[int, ...]:
        return self.segments[-1][2]

    @property
    def class_beta(self) -> tuple[int, ...]:
        return self.segments[-1][1]

    @property
    def final_cone(self) -> ConeId:
        return self.segments[-1][0]

    def monomial(self, trunc: Truncation) -> RingElement:
        cone, A, m, a = self.segments[-1]
        return RingElement.monomial(A, m, a, cone, trunc)


@dataclass(frozen=True)
class DecoratedBrokenLine:
    line: BrokenLine


# -- bend choices ------------------------------------------------------------

def _decorated_choices(logs, pairing: int, A_avail, n: int):
    out = []

    def rec(j, dA, dm, coeff, mu):
        if j == len(logs):
            if any(m for _i, m in mu):
                out.append((tuple(dA), tuple(dm), coeff,
                            ("mu", tuple(mu)), tuple(mu)))
            return
        (A_j, e_j), c_j = logs[j]
        mult = 0
        while True:
            nA = [a + mult * b for a, b in zip(dA, A_j)]
            if any(nA[i] > A_avail[i] for i in range(len(A_avail))):
                break
            nm = [a + mult * b for a, b in zip(dm, e_j)]
            ncoeff = coeff * (pairing * c_j) ** mult \
                / math.factorial(mult)
            rec(j + 1, nA, nm, ncoeff,
                mu + [(j, mult)] if mult else mu)
            mult += 1

    zero = [0] * len(A_avail)
    rec(0, zero, [0] * n, Fraction(1), [])
    return out


def _bends(f, pairing, A, m, logs):
    """The bends across the function f of a segment of class A and exponent
    m, going back from the endpoint: (trace id, class and exponent before
    the bend, the fields of its ``Bend`` that do not place it).

    A bend is decorated by the log terms ``logs`` of f if they are given,
    else by a term of f^pairing; none takes more class than A has.
    """
    if logs is not None:
        choices = _decorated_choices(logs, pairing, A, f.n)
    else:
        choices = [(dA, dm, c, ("t", dA, dm), None)
                   for (dA, dm), c in f.pow_int(pairing).sorted_terms()
                   if (any(dA) or any(dm))
                   and all(d <= a for d, a in zip(dA, A))]
    return [(cid, tuple(a - b for a, b in zip(A, dA)),
             tuple(a - b for a, b in zip(m, dm)),
             dict(pairing=pairing, delta_class=dA, delta_exponent=dm,
                  coeff=c, mu=mu))
            for dA, dm, c, cid, mu in choices]


# -- candidate monomials and genericity --------------------------------------

def _candidate_monomials(s: WallStructure, p_cone, p):
    """Superset of reachable segment monomials, per chart, under truncation."""
    cx, trunc = s.complex, s.trunc
    zero = (0,) * cx.curve_rank
    seen = {(tuple(p_cone), zero, tuple(p))}
    frontier = list(seen)
    while frontier:
        chart, A, m = frontier.pop()
        for logs in s.wall_logs(chart).values():
            for (A_j, e_j), _c in logs:
                A2 = tuple(a + b for a, b in zip(A, A_j))
                if trunc.in_ideal(A2):
                    continue
                state = (chart, A2, tuple(a + b for a, b in zip(m, e_j)))
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        for c in cx.crossings(chart).values():
            A2, m2 = c.monomial(A, m)
            if any(a < 0 for a in A2) or trunc.in_ideal(A2):
                continue
            state = (c.target, A2, m2)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(seen)


def genericity_hyperplanes(s: WallStructure, chart, candidates):
    """Homogeneous hyperplanes a generic endpoint must avoid, computed once
    per structure, chart and candidate set."""
    def compute():
        hps = {w.normal for w in s.walls if w.cone == chart}
        hps.update(primitive((-m[1], m[0])) for ch, _A, m in candidates
                   if ch == chart and any(m))
        return tuple(sorted(hps))

    return s._kept(("hyperplanes", chart, candidates), compute)


def _numerators(x: PointInChart):
    """(integer numerators, denominator) of x over the lcm of its
    coordinates' denominators."""
    den = math.lcm(*(c.denominator for c in x.coords))
    return tuple(c.numerator * (den // c.denominator) for c in x.coords), den


def _ensure_generic(s: WallStructure, x: PointInChart, candidates):
    """Raise ``NonGenericEndpoint`` unless x is in the open cone and off
    every genericity hyperplane, tested on the integer multiple
    lcm(denominators)·x."""
    xs, _den = _numerators(x)
    if any(c <= 0 for c in xs):
        raise NonGenericEndpoint(
            f"endpoint in chart {x.cone} must lie in the open chamber "
            "interior")
    for h in genericity_hyperplanes(s, x.cone, candidates):
        if _dot(h, xs) == 0:
            raise NonGenericEndpoint(
                f"endpoint in chart {x.cone} lies on the hyperplane {h}",
                hyperplane=h)


# -- enumeration -------------------------------------------------------------

def _along(nums, den, m, t):
    """The point nums/den + t·m, for t = (tn, td), as reduced (numerators,
    denominator): (nums·td + tn·den·m) / (den·td)."""
    tn, td = t
    qden = den * td
    step = tn * den
    qnums = [a * td + step * b for a, b in zip(nums, m)]
    g = math.gcd(qden, *qnums)
    return tuple(a // g for a in qnums), qden // g


def _holds(w: Wall, q) -> bool:
    """Whether the surface wall w holds the point q of its support's line.

    The support of a wall of a surface is one ray g, so for q on g's line
    this is ⟨q, g⟩ ≥ 0; it reads only the sign, so q may be any positive
    multiple of the point, such as its integer numerators.
    """
    return _dot(q, w.support[0]) >= 0


def _time_order(e1, e2):
    """Compare events (t, wall index, ...) by t, then by wall index."""
    (tn1, td1), (tn2, td2) = e1[0], e2[0]
    return (tn1 * td2 - tn2 * td1) or e1[1] - e2[1]


def _ray_events(s: WallStructure, chart, nums, den, m):
    """Wall crossings along nums/den + t·m (t > 0) before leaving the cone.

    The point is integer numerators ``nums`` over one positive ``den``; a
    time t is a pair (tn, td) with td > 0, compared by cross-multiplication.
    Returns (events, exit) where events are (t, wall index, wall, crossing
    point as (numerators, denominator)) sorted by (t, wall index), and exit
    is None or (t, coordinate position).
    """
    exit_t, exit_pos = None, None
    for j, mj in enumerate(m):
        if mj < 0:
            t = (nums[j], -den * mj)
            if exit_t is None or t[0] * exit_t[1] < exit_t[0] * t[1]:
                exit_t, exit_pos = t, j
    events = []
    for i, w in enumerate(s.walls):
        if w.cone != chart or w.rho is not None:
            continue
        d = w.normal
        pairing = _dot(d, m)
        if pairing == 0:
            continue
        # crossing time: <d, nums/den + t m> = 0
        tn, td = -_dot(d, nums), den * pairing
        if td < 0:
            tn, td = -tn, -td
        if tn <= 0 or (exit_t is not None
                       and tn * exit_t[1] >= exit_t[0] * td):
            continue
        q = _along(nums, den, m, (tn, td))
        if _holds(w, q[0]):
            events.append(((tn, td), i, w, q))
    events.sort(key=cmp_to_key(_time_order))
    return events, (None if exit_t is None else (exit_t, exit_pos))


def _bend_logs(s: WallStructure, chart, wall_index, rho=None):
    """The log terms that a decorated bend's ``mu`` indexes: those of its
    wall in ``chart``, or for a bend on the slab cell ``rho``, those of the
    slab product there (``WallStructure.slab_logs``)."""
    if rho is None:
        return s.wall_logs(chart)[wall_index]
    return s.slab_logs(chart, rho)


def _same_asymptotic(cx, chart, m, p_cone, p):
    if tuple(chart) == tuple(p_cone):
        return tuple(m) == tuple(p)
    try:
        c = cx.crossing_to(chart, p_cone)
    except NotAdjacent:
        return False
    return m[c.pos] == 0 and c.vector(m) == tuple(p)


def _point(nums, den) -> tuple:
    """The ``Fraction`` coordinates of the point nums/den."""
    return tuple(Fraction(a, den) for a in nums)


def _trace(s, chart, nums, den, A, m, p_cone, p, decorated, depth):
    """The paths from the segment of class A and exponent m through the
    point nums/den back to the asymptotic exponent p of ``p_cone``.

    The point is integer numerators over one positive denominator, as
    ``_ray_events`` takes it; only a ``Bend`` stores it as ``Fraction``
    coordinates.  Each path is a tuple of steps (trace record, bend or
    None, state (chart, class, exponent) after the step), ordered from the
    endpoint back.
    """
    cx = s.complex
    if depth > _TRACE_LIMIT:
        raise WallError("broken-line tracing did not terminate")
    if not any(m):
        return
    events, exit_info = _ray_events(s, chart, nums, den, m)
    straight = tuple((("wall", chart, _cone_key(w.support), "straight"),
                      None, (chart, A, m)) for _t, _i, w, _q in events)
    # bend at event k, passing straight through the earlier ones
    for k, (_t, i, w, q) in enumerate(events):
        cell = _cone_key(w.support)
        logs = _bend_logs(s, chart, i) if decorated else None
        bends = _bends(w.function, abs(_dot(w.normal, m)), A, m, logs)
        point = _point(*q) if bends else None
        for cid, A2, m2, fields in bends:
            step = (("wall", chart, cell, cid),
                    Bend(cone=chart, point=point, cell=cell, wall_index=i,
                         **fields), (chart, A2, m2))
            for rest in _trace(s, chart, *q, A2, m2, p_cone, p, decorated,
                               depth + 1):
                yield straight[:k] + (step,) + rest
    if exit_info is None:
        # the predecessor ray escapes to infinity inside this chart
        if not any(A) and _same_asymptotic(cx, chart, m, p_cone, p):
            yield straight
        return
    exit_t, pos = exit_info
    c = cx.crossings(chart).get(pos)
    if c is None:
        return  # the ray leaves through the boundary of B
    q_nums, q_den = _along(nums, den, m, exit_t)
    f, first = s.slab_function(chart, c.rho)
    bends = [("straight", A, m, None)] + _bends(
        f, -m[pos], A, m, s.slab_logs(chart, c.rho) if decorated else None)
    point = _point(q_nums, q_den) if len(bends) > 1 else None
    target_nums = c.vector(q_nums)
    for cid, A2, m2, fields in bends:
        # backward transport into the neighbouring chart
        A3, m3 = c.monomial(A2, m2)
        if any(a < 0 for a in A3):
            continue
        bend = None if fields is None else Bend(
            cone=chart, point=point, cell=c.rho, wall_index=first,
            on_slab=True, **fields)
        step = (("rho", c.rho, cid), bend, (c.target, A3, m3))
        for rest in _trace(s, c.target, target_nums, q_den, A3, m3,
                           p_cone, p, decorated, depth + 1):
            yield straight + (step,) + rest


def _exponent(p, cone):
    """(chart, integer vector) of p, a PointInChart or a vector in cone."""
    if isinstance(p, PointInChart):
        return tuple(p.cone), tuple(int(c) for c in p.coords)
    return cone, tuple(int(c) for c in p)


def _asymptotic(s: WallStructure, p, cone):
    """(chart, exponent, candidate monomials) of the asymptotic exponent p,
    a PointInChart or a vector in ``cone``."""
    if s.complex.n != 2:
        raise UnsupportedDimension(
            "broken-line enumeration is implemented for surfaces")
    p_cone, p_vec = _exponent(p, tuple(cone))
    return p_cone, p_vec, s._kept(
        ("candidates", p_cone, p_vec),
        lambda: _candidate_monomials(s, p_cone, p_vec))


def enumerate_lines(s: WallStructure, p, x: PointInChart,
                    decorated: bool = False):
    """All broken lines with asymptotic exponent p and endpoint x."""
    return _lines(s, _asymptotic(s, p, x.cone), x, decorated)


def _lines(s: WallStructure, asymptotic, x: PointInChart, decorated):
    """``enumerate_lines`` given the result of ``_asymptotic``."""
    p_cone, p_vec, candidates = asymptotic
    if not any(p_vec):
        raise BrokenLineError("the asymptotic exponent must be nonzero")
    if any(c < 0 for c in p_vec):
        raise BrokenLineError(
            "the asymptotic exponent must lie in its chart cone")

    def compute():
        _ensure_generic(s, x, candidates)
        return _trace_family(s, asymptotic, x, decorated)

    return list(s._kept(("lines", p_cone, p_vec, x, decorated), compute))


def _trace_family(s: WallStructure, asymptotic, x: PointInChart, decorated):
    """The lines of ``_lines``, traced from the endpoint x, as a tuple.

    A line's segments run from the asymptotic one to the final one; each
    but the final one is the state after a bend going back.  The
    asymptotic coefficient is 1 and each bend multiplies it.
    """
    p_cone, p_vec, candidates = asymptotic
    nums, den = _numerators(x)
    raw = []
    for final in sorted(candidates):
        chart, A, m = final
        if chart != tuple(x.cone) or not any(m):
            continue
        for path in _trace(s, chart, nums, den, A, m, p_cone, p_vec,
                           decorated, 0):
            path = path[::-1]
            bends = tuple(b for _r, b, _st in path if b is not None)
            states = [st for _r, b, st in path if b is not None] + [final]
            coeffs = itertools.accumulate((b.coeff for b in bends),
                                          operator.mul, initial=Fraction(1))
            raw.append(BrokenLine(
                x=x, p=tuple(p_vec), p_cone=tuple(p_cone), bends=bends,
                segments=tuple((tuple(ch), tuple(A_), tuple(m_), a)
                               for (ch, A_, m_), a in zip(states, coeffs)),
                trace=tuple(r for r, _b, _st in path)))
    raw.sort(key=lambda line: (len(line.bends), repr(line.trace)))
    if decorated:
        return tuple(DecoratedBrokenLine(line=line) for line in raw)
    return tuple(raw)


def theta(s: WallStructure, p, x: PointInChart) -> RingElement:
    """Sum of final monomials of all broken lines for (p, x)."""
    return _theta(s, _asymptotic(s, p, x.cone), x)


def _theta(s: WallStructure, asymptotic, x: PointInChart):
    """``theta`` given the result of ``_asymptotic``."""
    cx, trunc = s.complex, s.trunc
    if not any(asymptotic[1]):
        return RingElement.one(tuple(x.cone), trunc, cx.n)
    total = RingElement.zero(tuple(x.cone), trunc, cx.n)
    for line in _lines(s, asymptotic, x, False):
        total = total.add(line.monomial(trunc))
    return total


def theta_in_chamber(s: WallStructure, ch: Chamber, p, *seeds):
    """(theta of p, sample point) at one point of the chamber ``ch`` per
    seed; each point is generic for p's candidate monomials."""
    asymptotic = _asymptotic(s, p, ch.cone)
    xs = [_sample_in_chamber(s, ch, asymptotic[2], seed) for seed in seeds]
    return [(_theta(s, asymptotic, x), x) for x in xs]


# -- structure constants -----------------------------------------------------

@dataclass(frozen=True)
class AlphaResult:
    value: RingElement          # exponent part zero: a curve-class element
    chamber: Chamber
    x: PointInChart


def chambers_containing(s: WallStructure, r_cone, r):
    """The chambers of chart ``r_cone`` whose closed cone holds r, found
    once per structure, chart and r.

    By Cramer's rule r = a·lower + b·upper with a = det(r, upper)/D and
    b = det(lower, r)/D, where D = det(lower, upper).
    """
    r_cone, r = tuple(r_cone), tuple(r)

    def compute():
        out = []
        for ch in s.chambers:
            if tuple(ch.cone) == r_cone:
                D = det((ch.lower, ch.upper))
                if det((r, ch.upper)) * D >= 0 and \
                        det((ch.lower, r)) * D >= 0:
                    out.append(ch)
        return tuple(out)

    return list(s._kept(("containing", r_cone, r), compute))


def _sample_in_chamber(s, ch: Chamber, cands: frozenset, seed):
    """A point of ``ch`` generic for the candidate monomials ``cands``."""
    return s._kept(("sample", ch, cands, seed),
                   lambda: _draw_in_chamber(s, ch, cands, seed))


def _draw_in_chamber(s, ch: Chamber, cands, seed):
    """(n1/997)·lower + (n2/1009)·upper for seeded n1, n2, tested on its
    integer numerators n1·1009·lower + n2·997·upper."""
    rng = random.Random(seed)
    hps = genericity_hyperplanes(s, tuple(ch.cone), cands)
    for _ in range(128):
        n1 = 1009 * rng.randint(1, 996)
        n2 = 997 * rng.randint(1, 1008)
        nums = [n1 * a + n2 * b for a, b in zip(ch.lower, ch.upper)]
        if all(c > 0 for c in nums) and all(_dot(h, nums) != 0
                                            for h in hps):
            cone = tuple(ch.cone)
            return s._kept(("point", cone, tuple(nums)),
                           lambda: PointInChart(
                               cone=cone, ambient=True,
                               coords=tuple(Fraction(c, 997 * 1009)
                                            for c in nums)))
    raise NonGenericEndpoint(
        f"no generic point found in the chamber {ch.lower}, {ch.upper} "
        f"of chart {tuple(ch.cone)}")


def alpha_trop(s: WallStructure, p1, p2, r, seed: int = 0,
               chamber: Chamber | None = None) -> AlphaResult:
    """Structure constant: paired broken-line count with exponent sum r."""
    cx, trunc = s.complex, s.trunc
    if cx.n != 2:
        raise UnsupportedDimension("structure constants need a surface")
    # a plain vector r lives in p1's chart, or else in the first chart
    r_cone, r_vec = _exponent(r, _exponent(p1, cx.maximal_cones[0])[0])
    chs = [chamber] if chamber is not None \
        else chambers_containing(s, r_cone, r_vec)
    if not chs:
        raise BrokenLineError(f"no chamber contains {r_vec}")
    ch = chs[0]
    asym1 = _asymptotic(s, p1, ch.cone)
    asym2 = _asymptotic(s, p2, ch.cone)
    x = _sample_in_chamber(s, ch, asym1[2] | asym2[2], seed)
    lines1 = _lines(s, asym1, x, False)
    by_exponent = {}
    for l2 in _lines(s, asym2, x, False):
        by_exponent.setdefault(l2.m_beta, []).append(l2)
    # the coefficient of t^A: products over the pairs with exponent sum r
    coeffs = {}
    for l1 in lines1:
        m2 = tuple(a - b for a, b in zip(r_vec, l1.m_beta))
        for l2 in by_exponent.get(m2, ()):
            A = tuple(a + b for a, b in zip(l1.class_beta, l2.class_beta))
            coeffs[A] = coeffs.get(A, 0) + l1.a_beta * l2.a_beta
    zero_m = (0,) * cx.n
    total = RingElement._make(
        {(A, zero_m): c for A, c in coeffs.items() if not trunc.in_ideal(A)},
        tuple(ch.cone), trunc, cx.n)
    return AlphaResult(value=total, chamber=ch, x=x)


# -- correspondence with tropical types --------------------------------------

def decorated_to_type(d: DecoratedBrokenLine,
                      s: WallStructure) -> TropicalType:
    """Tropical type of a decorated broken line.

    Spine vertices are the bends; bends on codim-one cells are decorated by
    the pairing times the kink class, interior bends by zero.  Each wall
    contribution of multiplicity mu contributes mu leaf vertices carrying
    the log-term curve class, attached by edges with the log-term exponent.
    """
    cx = s.complex
    line = d.line
    zero_A = (0,) * cx.curve_rank
    if not line.bends:
        chart = line.final_cone
        v = Vertex(cone=tuple(sorted(chart)), A=zero_A)
        return TropicalType(
            vertices=(v,),
            edges=(),
            legs=(Leg(v=0, u=tuple(line.p), role="inc"),
                  Leg(v=0, u=tuple(-x for x in line.m_beta), role="out")))
    vertices = []
    edges = []
    legs = []
    # spine vertices, ordered from the asymptotic end to the endpoint
    for b in line.bends:
        if b.on_slab:
            A_dec = tuple(b.pairing * k for k in cx.kink(b.cell))
            vertices.append(Vertex(cone=tuple(b.cell), A=A_dec))
        else:
            vertices.append(Vertex(cone=tuple(sorted(b.cone)), A=zero_A,
                                   rays=tuple(b.cell)))
    for i in range(len(line.bends) - 1):
        m_seg = line.segments[i + 1][2]
        edges.append(Edge(v=(i, i + 1), u=tuple(-x for x in m_seg)))
    legs.append(Leg(v=0, u=tuple(line.p), role="inc"))
    legs.append(Leg(v=len(line.bends) - 1,
                    u=tuple(-x for x in line.m_beta), role="out"))
    # wall-contribution leaves
    for bi, b in enumerate(line.bends):
        if b.mu is None:
            continue
        logs = _bend_logs(s, b.cone, b.wall_index,
                          b.cell if b.on_slab else None)
        for j, mult in b.mu:
            (A_j, e_j), _c = logs[j]
            for _copy in range(mult):
                # the contributing wall piece emanates from the origin (the
                # deepest stratum) opposite to its monomial exponent
                w_idx = len(vertices)
                vertices.append(Vertex(cone=(), A=tuple(A_j), rays=()))
                edges.append(Edge(v=(w_idx, bi),
                                  u=tuple(-x for x in e_j)))
    return TropicalType(vertices=tuple(vertices), edges=tuple(edges),
                        legs=tuple(legs))


def type_to_line(t: TropicalType, s: WallStructure,
                 x: PointInChart) -> DecoratedBrokenLine:
    """The decorated broken line ending at x whose type is ``t``.

    The inverse of ``decorated_to_type``: ``t`` must be given as that
    function writes it, in the same vertex and edge order.  The candidates
    are the decorated lines with the inc leg's exponent as asymptotic
    exponent; the first whose type equals ``t`` is returned.
    """
    out = t.leg_with_role("out")
    inc = t.leg_with_role("inc")
    if out is None or inc is None:
        raise InadmissibleType("a broken-line type needs inc and out legs")
    m_final = tuple(-u for u in out[1].u)
    for d in enumerate_lines(s, tuple(inc[1].u), x, decorated=True):
        if d.line.m_beta == m_final and decorated_to_type(d, s) == t:
            return d
    raise EndpointOutsideFamily(
        "no broken line of this type reaches the endpoint")
