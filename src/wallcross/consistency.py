"""Joint-by-joint consistency verification and local scattering completion.

A joint is a codimension-two cell of the refined decomposition.  Around a
joint that lies inside a maximal cell, consistency is the statement that the
path-ordered product of crossing automorphisms is the identity; this module
represents that local picture as a planar scattering diagram with exact
truncated arithmetic, checks it, and can complete an inconsistent diagram
order by order.  On a surface, consistency is checked by theta patching:
each theta is constant on chamber interiors, intertwined by each wall's
crossing, and carried across each slab by ``ConeComplex.transport_element``
followed by the crossing automorphism of the slab product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import takewhile

from . import linalg
from .broken import theta_in_chamber
from .errors import (
    BoundaryJoint,
    ConsistencyError,
    InadmissibleWallDirection,
    NonConvergent,
    NotUnipotent,
    UnsupportedDimension,
)
from .geometry import ConeComplex, PointInChart
from .lattice import IntegerMatrix, smith_row_transform
from .ring import (Coefficient, RingElement, Truncation, exp_truncated,
                   integer, integer_vector)
from .walls import (
    WallStructure,
    apply_theta,
    cross_wall,
    primitive,
    refine,
    truncation_from_json,
    truncation_to_json,
)

LOCAL_CHART = ("local",)


# -- planar scattering instances ---------------------------------------------

@dataclass(frozen=True)
class LocalRay:
    """One ray of a planar scattering diagram.

    ``direction`` is a primitive integer vector in the two transverse
    coordinates; the attached function must be 1 plus terms whose transverse
    exponent part is a negative multiple of the direction (incoming).
    """

    direction: tuple[int, int]
    function: RingElement


@dataclass(frozen=True)
class LocalInstance:
    """Scattering diagram around a single joint.

    Exponents live in Z^2, optionally extended by invariant coordinates
    (appended last) that crossing automorphisms never pair against; these
    appear when a higher-dimensional joint is localized and the directions
    along the joint become invariant.

    Construction validates every ray (``_validate_ray``); ``_with_rays``
    swaps in rays that already passed it.  The angular
    order of the rays is computed on first use and kept on the instance.
    """

    trunc: Truncation
    rays: tuple[LocalRay, ...]
    invariant_rank: int = 0

    def __post_init__(self):
        for ray in self.rays:
            _validate_ray(ray, self.n_exp)

    def _with_rays(self, rays) -> "LocalInstance":
        """This instance with ``rays``, each of which passed
        ``_validate_ray`` for ``n_exp``, without checking them again."""
        inst = object.__new__(LocalInstance)
        object.__setattr__(inst, "trunc", self.trunc)
        object.__setattr__(inst, "rays", tuple(rays))
        object.__setattr__(inst, "invariant_rank", self.invariant_rank)
        return inst

    @property
    def n_exp(self) -> int:
        return 2 + self.invariant_rank

    @cached_property
    def _ordered(self) -> tuple[LocalRay, ...]:
        return tuple(sorted(
            self.rays, key=cmp_to_key(lambda r1, r2: _angle_cmp(
                r1.direction, r2.direction))))

    def to_json(self) -> dict:
        return {
            "trunc": truncation_to_json(self.trunc),
            "invariant_rank": self.invariant_rank,
            "rays": [{"direction": list(r.direction),
                      "function": r.function.to_json()}
                     for r in self.rays],
        }

    @classmethod
    def from_json(cls, data) -> "LocalInstance":
        trunc = truncation_from_json(data["trunc"])
        inv = integer(data.get("invariant_rank", 0))
        if inv < 0:
            raise ValueError(f"invariant_rank must be >= 0, got {inv}")
        rays = tuple(
            LocalRay(direction=integer_vector(r["direction"]),
                     function=RingElement.from_json(
                         r["function"], LOCAL_CHART, trunc, 2 + inv))
            for r in data["rays"])
        return cls(trunc=trunc, rays=rays, invariant_rank=inv)


def _validate_ray(ray: LocalRay, n_exp: int):
    d = ray.direction
    if d == (0, 0):
        raise InadmissibleWallDirection("ray direction must be nonzero")
    if primitive(d) != tuple(d):
        raise InadmissibleWallDirection(f"ray direction {d} is not primitive")
    for (A, m), c in ray.function.terms.items():
        if len(m) != n_exp:
            raise InadmissibleWallDirection(
                "function exponent length does not match the instance")
        if not any(A):
            if any(m) or c != 1:
                raise InadmissibleWallDirection(
                    "ray function must be 1 modulo the curve-class ideal")
            continue
        if not ray.function.trunc.nilpotent(A):
            # 1 + t^A z^m would have no inverse series: the loop never ends
            raise NotUnipotent(
                f"class {list(A)} of exponent {list(m)} is not nilpotent")
        mt = (m[0], m[1])
        # exponents must run along the ray: emitted rays carry incoming
        # (negative) multiples, halves of initial lines may carry either
        if mt == (0, 0):
            raise InadmissibleWallDirection(
                f"exponent {m} has no transverse part")
        q, r = divmod(mt[0], d[0]) if d[0] else divmod(mt[1], d[1])
        if q == 0 or r or mt != (q * d[0], q * d[1]):
            raise InadmissibleWallDirection(
                f"exponent {m} is not parallel to {d}")


def _half(d) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2pi)
    return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1


def _angle_cmp(a, b) -> int:
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def ordered_rays(inst: LocalInstance) -> tuple[LocalRay, ...]:
    """Rays in angular crossing order, rays of one direction in the order
    of ``inst.rays``; sorted once per instance."""
    return inst._ordered


def _normal(direction, n_exp: int):
    # conormal oriented against the direction of travel: this is the
    # orientation under which two basis lines scatter with coefficient +1
    return (direction[1], -direction[0]) + (0,) * (n_exp - 2)


def path_ordered(inst: LocalInstance, g: RingElement, *,
                 cap: int | None = None) -> RingElement:
    """Apply the crossing automorphisms of one counterclockwise loop to
    ``g``, in the order ``ordered_rays`` keeps on the instance.

    With a ``cap``, each crossing keeps only the terms of weight at most
    ``cap``; those are exact, as every class of a ray function is nilpotent
    (``_validate_ray``) and so has positive weight.
    """
    for ray in ordered_rays(inst):
        g = apply_theta(ray.function, _normal(ray.direction, inst.n_exp), g,
                        cap=cap)
    return g


def generators(inst: LocalInstance) -> list[RingElement]:
    """z^(e1) and z^(e2).

    The loop is a ring automorphism, so it fixes z^(-e) exactly when it
    fixes z^e, modulo any weight cap; the invariant coordinates pair to
    zero with every conormal and are fixed by every crossing.
    """
    zero_A = (0,) * inst.trunc.curve_rank
    return [RingElement.monomial(zero_A,
                                 tuple(int(j == i) for j in range(inst.n_exp)),
                                 1, LOCAL_CHART, inst.trunc)
            for i in range(2)]


def identity_around(inst: LocalInstance, max_weight: int | None = None):
    """Is the path-ordered loop the identity, through weight ``max_weight``
    if given?  Returns (ok, witness)."""
    for g in generators(inst):
        diff = path_ordered(inst, g, cap=max_weight).sub(g)
        if not diff.is_zero():
            (A, m), c = diff.sorted_terms()[0]
            gen_m = next(iter(g.terms))[1]
            return False, {"generator": list(gen_m), "A": list(A),
                           "m": list(m), "coefficient": str(c)}
    return True, None


# -- joint reports -----------------------------------------------------------

@dataclass(frozen=True)
class JointReport:
    joint: object
    codim: int
    boundary: bool
    verdict: str               # "pass" | "fail"
    witness: object = None

    def __post_init__(self):
        if self.verdict == "pass" and self.witness is not None:
            raise ConsistencyError("a passing report cannot carry a witness")

    def to_json(self) -> dict:
        return {"joint": _joint_json(self.joint), "codim": self.codim,
                "boundary": self.boundary, "verdict": self.verdict,
                "witness": self.witness}


def _joint_json(j):
    if isinstance(j, tuple):
        return [list(x) if isinstance(x, tuple) else x for x in j]
    return j


# -- patching checks ---------------------------------------------------------

@dataclass(frozen=True)
class PatchingItem:
    name: str                  # chamber-invariance | intertwining | slab-lift
    p: tuple
    location: object
    verdict: str
    witness: object = None


@dataclass(frozen=True)
class PatchingReport:
    passed: bool
    items: tuple[PatchingItem, ...]

    def first_failure(self) -> PatchingItem | None:
        for item in self.items:
            if item.verdict != "pass":
                return item
        return None


def default_p_set(s: WallStructure) -> dict:
    """Per chart: primitive chamber-ray generators and their pairwise sums."""
    per_chart: dict[tuple, set] = {}
    for ch in s.chambers:
        per_chart.setdefault(tuple(ch.cone), set()).update(
            (primitive(ch.lower), primitive(ch.upper)))
    out = {}
    for cone, gens in per_chart.items():
        gens = sorted(gens)
        sums = {tuple(a + b for a, b in zip(g1, g2))
                for g1 in gens for g2 in gens}
        out[cone] = tuple(sorted(set(gens) | {x for x in sums if any(x)}))
    return out


def _item(name: str, p, location, diff: RingElement) -> PatchingItem:
    """A passing item when ``diff`` vanishes, else a failing one whose
    witness is its first term."""
    if diff.is_zero():
        return PatchingItem(name, tuple(p), location, "pass")
    (A, m), c = diff.sorted_terms()[0]
    return PatchingItem(name, tuple(p), location, "fail",
                        {"A": list(A), "m": list(m), "coefficient": str(c)})


def patching_check(s: WallStructure, seed: int = 0) -> PatchingReport:
    """Theta-patching verification on a two-dimensional structure.

    For each p of ``default_p_set``: (1) theta is constant on chamber
    interiors, (2) thetas of adjacent chambers are intertwined by the wall
    crossing, (3) the thetas on the two sides of each slab are carried onto
    each other across it (``_slab_lift_items``).
    """
    if s.complex.n != 2:
        raise UnsupportedDimension("patching checks need a surface")
    s = refine(s)
    p_set = default_p_set(s)
    items = []
    # (1) chamber-interior invariance
    for ch in s.chambers:
        for p in p_set.get(tuple(ch.cone), ()):
            (t1, _), (t2, _) = theta_in_chamber(s, ch, p, seed, seed + 1)
            items.append(_item("chamber-invariance", p,
                               (tuple(ch.cone), ch.lower, ch.upper),
                               t1.sub(t2)))
    # (2) intertwining across interior codim-0 walls
    for w in s.walls:
        if w.rho is not None:
            continue
        ray = primitive(w.support[0])
        below = _adjacent_chamber(s, w.cone, ray, "lower")
        above = _adjacent_chamber(s, w.cone, ray, "upper")
        if below is None or above is None:
            continue
        for p in p_set.get(tuple(w.cone), ()):
            [(t_src, x_src)] = theta_in_chamber(s, above, p, seed)
            [(t_dst, _)] = theta_in_chamber(s, below, p, seed)
            crossed = cross_wall(t_src, w, source_side=x_src.coords)
            items.append(_item("intertwining", p, (tuple(w.cone), ray),
                               crossed.sub(t_dst)))
    # (3) slab lifts, one set per ray carrying slabs, from the chart of its
    # first slab
    slabs: dict[tuple, tuple] = {}
    for w in s.walls:
        if w.rho is not None:
            slabs.setdefault(tuple(sorted(w.rho)), tuple(w.cone))
    for rho, side_u in slabs.items():
        items.extend(_slab_lift_items(s, rho, side_u, p_set, seed))
    passed = all(i.verdict == "pass" for i in items)
    return PatchingReport(passed=passed, items=tuple(items))


def _adjacent_chamber(s, cone, ray, side):
    """The chamber of ``cone`` having ``ray`` as lower/upper boundary."""
    for ch in s.chambers:
        if tuple(ch.cone) != tuple(cone):
            continue
        if side == "lower" and ch.lower == ray:
            return ch
        if side == "upper" and ch.upper == ray:
            return ch
    return None


def _slab_lift_items(s: WallStructure, rho, side_u, p_set, seed):
    """Each theta on the two sides of the ray ``rho``, against the other
    side's theta carried across it, for p in ``p_set`` of the chart
    ``side_u``.

    In the chart of the Z+ side u, let e be a term's exponent at the
    position of the ray off the slab (in the chart of the Z- side u2, the
    same for u2's ray).  Then theta_u = theta_u[e >= 0] +
    T(theta_u2[e > 0]) and theta_u2 = theta_u2[e > 0] + T(theta_u[e >= 0]),
    where T carries t^A z^m across the slab by ``Crossing.monomial`` and
    multiplies it by f^e, f the slab product on rho in the target chart
    (``WallStructure.slab_function``), as a broken line crossing rho bends
    by it (``_across_slab``).
    """
    cx = s.complex
    crossing = next((c for c in cx.crossings(side_u).values()
                     if c.rho == rho), None)
    if crossing is None:
        return []
    side_u2 = crossing.target
    f_u, f_u2 = (s.slab_function(side, rho)[0] for side in (side_u, side_u2))
    # chart positions of the ray off the slab, then of the slab's ray
    extra_u = crossing.pos
    extra_u2 = cx.crossing_to(side_u2, side_u).pos
    pos_u, pos_u2 = 1 - extra_u, 1 - extra_u2
    ray_u = tuple(1 if j == pos_u else 0 for j in range(2))
    ray_u2 = tuple(1 if j == pos_u2 else 0 for j in range(2))
    # chambers hugging the slab from either side
    ch_u = (_adjacent_chamber(s, side_u, ray_u, "lower")
            or _adjacent_chamber(s, side_u, ray_u, "upper"))
    ch_u2 = (_adjacent_chamber(s, side_u2, ray_u2, "lower")
             or _adjacent_chamber(s, side_u2, ray_u2, "upper"))
    if ch_u is None or ch_u2 is None:
        return []
    loc = ("slab", crossing.rho)
    items = []
    for p in p_set.get(side_u, ()):
        [(theta_u, _)] = theta_in_chamber(s, ch_u, p, seed)
        # same global asymptotic direction, evaluated from the far chamber
        p_pic = PointInChart(side_u, [Fraction(c) for c in p], ambient=True)
        [(theta_u2, _)] = theta_in_chamber(s, ch_u2, p_pic, seed)
        plus = _from(theta_u, extra_u, 0)       # theta_u[e >= 0]
        minus = _from(theta_u2, extra_u2, 1)    # theta_u2[e > 0]
        diff = plus.sub(theta_u).add(_across_slab(cx, minus, side_u, f_u))
        diff2 = minus.sub(theta_u2).add(
            _across_slab(cx, plus, side_u2, f_u2))
        items.append(_item("slab-lift", p, loc,
                           diff if not diff.is_zero() else diff2))
    return items


def _from(g: RingElement, pos: int, least: int) -> RingElement:
    """The terms of g whose exponent at ``pos`` is at least ``least``."""
    return RingElement._make({k: c for k, c in g.terms.items()
                              if k[1][pos] >= least}, g.cone, g.trunc, g.n)


def _across_slab(cx: ConeComplex, g: RingElement, target,
                 f: RingElement) -> RingElement:
    """Each term t^A z^m of g, with e >= 0 its exponent at the position of
    the ray off the slab, carried into the adjacent chart ``target`` and
    multiplied by f^e there.

    Transport takes that exponent e to -e at the position ``back.pos`` of
    the target's ray off the slab, so this is the crossing automorphism of
    f with conormal -e_(back.pos), applied after transport.
    """
    back = cx.crossing_to(target, g.cone)
    normal = tuple(-int(j == back.pos) for j in range(g.n))
    return apply_theta(f, normal, cx.transport_element(g, g.cone, target))


# -- joint checks ------------------------------------------------------------

def localize_at_joint(s: WallStructure, joint) -> LocalInstance:
    """Planar instance of the structure around an interior joint.

    The joint is a pair (chart, ray) naming a ray inside a chart of a
    structure with n >= 3 (``check_joint`` sends the apex to the global
    patching check instead); directions along the ray become invariant
    exponent coordinates and walls containing the ray contribute their
    tangent cones.  A ray in the boundary raises ``BoundaryJoint``.
    """
    cx = s.complex
    chart, ray = tuple(joint[0]), tuple(int(x) for x in joint[1])
    n = cx.n
    if n < 3:
        raise UnsupportedDimension(
            "non-apex joints require a structure of dimension >= 3")
    ray = primitive(ray)
    if _boundary_facets(cx, chart, ray):
        raise BoundaryJoint(f"ray {ray} lies in the boundary")
    # unimodular coordinates, first coordinate along the ray:
    # U * ray = (1, 0, ..., 0)
    u_rows = smith_row_transform(
        IntegerMatrix.from_rows([[x] for x in ray])).to_rows()
    inv_rank = 1
    order = list(range(1, n)) + [0]   # transverse first, invariant last
    rows = [u_rows[i] for i in order]
    rays = []
    for w in s.walls:
        if tuple(w.cone) != chart:
            continue
        if linalg.cone_coords(w.support, ray) is None:
            continue
        dirs = set()
        for g in w.support:
            d = linalg.mat_vec(rows, g)[:2]
            if any(d):
                dirs.add(primitive(d))
        if len(dirs) != 1:
            continue  # the wall is not a half-plane along the joint
        direction = dirs.pop()
        func = RingElement(
            {(A, linalg.mat_vec(rows, m)): c
             for (A, m), c in w.function.terms.items()},
            LOCAL_CHART, s.trunc, 2 + inv_rank)
        rays.append(LocalRay(direction=direction, function=func))
    return LocalInstance(trunc=s.trunc, rays=tuple(rays),
                         invariant_rank=inv_rank)


def check_joint(s: WallStructure, joint, seed: int = 0) -> JointReport:
    """Consistency verdict of a structure at one joint.

    The joint ``"apex"`` dispatches to the global patching check, whose
    first failing item gives the witness: its check, p, location and
    detail; (chart, ray) joints of higher-dimensional structures are
    localized first.
    Boundary joints verify that every wall exponent is tangent to the
    boundary.
    """
    if joint == "apex":
        report = patching_check(s, seed=seed)
        fail = report.first_failure()
        witness = None
        if fail is not None:
            witness = {"check": fail.name, "p": list(fail.p),
                       "location": fail.location, "detail": fail.witness}
        boundary = bool(s.complex.boundary_codim1())
        return JointReport(joint="apex", codim=2, boundary=boundary,
                           verdict="pass" if report.passed else "fail",
                           witness=witness)
    try:
        inst = localize_at_joint(s, joint)
    except BoundaryJoint:
        return _boundary_joint_report(s, joint)
    codim = min(s.complex.n - len(s.complex.cell_of(*joint)), 2)
    ok, witness = identity_around(inst)
    return JointReport(joint=joint, codim=codim, boundary=False,
                       verdict="pass" if ok else "fail", witness=witness)


def _boundary_facets(cx: ConeComplex, chart, ray) -> list[int]:
    """The chart positions j at which ``chart`` has a boundary facet (its
    rays but the j-th) containing ``ray``, i.e. one with ray[j] = 0."""
    cell = cx.cell_of(chart, ray)
    return [j for j, d in enumerate(chart)
            if d not in cell and j not in cx.crossings(chart)]


def _boundary_joint_report(s: WallStructure, joint) -> JointReport:
    """Boundary joints: every wall exponent must be tangent to the boundary.

    Tangency means the exponent lies in the span of some boundary facet
    containing the joint ray (the tangent cone of the boundary there).
    """
    cx = s.complex
    chart, ray = tuple(joint[0]), tuple(int(x) for x in joint[1])
    facets = _boundary_facets(cx, chart, ray)
    for w in s.walls:
        if tuple(w.cone) != chart \
                or linalg.cone_coords(w.support, ray) is None:
            continue
        for (A, m), _c in w.function.terms.items():
            if not any(A):
                continue
            if all(m[j] for j in facets):
                return JointReport(
                    joint=joint, codim=2, boundary=True, verdict="fail",
                    witness={"A": list(A), "m": list(m)})
    return JointReport(joint=joint, codim=2, boundary=True, verdict="pass")


def _candidate_joints(s: WallStructure):
    """Ray joints where walls can meet: primitive support generators."""
    joints, seen = [], set()
    for w in s.walls:
        for g in w.support:
            j = (tuple(w.cone), primitive(g))
            if j not in seen:
                seen.add(j)
                joints.append(j)
    return joints


def check_structure(s: WallStructure, level: str = "all",
                    seed: int = 0) -> list[JointReport]:
    """All joint reports of a structure, sorted deterministically."""
    reports = []
    lv = str(level)
    if s.complex.n >= 3:
        for j in _candidate_joints(s):
            rep = check_joint(s, j, seed=seed)
            if lv == "all" or str(rep.codim) == lv:
                reports.append(rep)
    elif lv in ("2", "all"):
        reports.append(check_joint(s, "apex", seed=seed))
    return sorted(reports, key=lambda r: str(r.joint))


# -- local scattering completion ---------------------------------------------

def _merge_ray(rays: list[LocalRay], direction, factor: RingElement,
               n_exp: int):
    """Multiply ``factor`` into the ray of ``direction``, or append it as a
    new ray; the ray made is checked by ``_validate_ray``."""
    direction = tuple(direction)
    for i, r in enumerate(rays):
        if r.direction == direction:
            rays[i] = ray = replace(r, function=r.function.mul(factor))
            break
    else:
        ray = LocalRay(direction=direction, function=factor)
        rays.append(ray)
    _validate_ray(ray, n_exp)


def _discrepancy(inst: LocalInstance, g: RingElement,
                 w: int) -> RingElement:
    """theta(g)·g^(-1) - 1 through weight w, for the loop theta and a
    monomial g."""
    zero_A = (0,) * inst.trunc.curve_rank
    gm = next(iter(g.terms))[1]
    inv = RingElement.monomial(zero_A, tuple(-x for x in gm), 1,
                               LOCAL_CHART, inst.trunc)
    return path_ordered(inst, g, cap=w).mul(inv).sub(
        RingElement.one(LOCAL_CHART, inst.trunc, inst.n_exp))


def _failing(inst: LocalInstance, w: int) -> dict:
    """The weight-w terms t^A z^m of the loop's discrepancy, each with the
    first of the ``generators`` z^(e1), z^(e2) whose discrepancy carries it
    and the coefficient there; ``NonConvergent`` if a lower weight fails.

    At the first failing weight D_(-e) = -D_e, since the loop is a ring
    automorphism and so takes z^(-e) to the inverse of its image of z^e:
    the discrepancies of z^(-e1) and z^(-e2) hold no other term.
    """
    failing = {}
    for g in generators(inst):
        for (A, m), c in _discrepancy(inst, g, w).terms.items():
            weight = inst.trunc.weight_of(A)
            if weight < w:
                raise NonConvergent(
                    f"completion did not settle at weight {weight}")
            failing.setdefault((A, m), (g, c))
    return failing


def _response(inst: LocalInstance, A, m, direction, g: RingElement,
              w: int) -> Coefficient:
    """The change that a factor exp(t^A z^m) on the ray ``direction`` makes
    to g's discrepancy at t^A z^m, of weight w, once lower weights vanish.

    Any other crossing on the loop adds positive weight to that factor's
    terms, so the change is the coefficient of t^A z^(m+e) in the factor's
    one crossing of g = z^e.
    """
    e = next(iter(g.terms))[1]
    factor = exp_truncated(RingElement.monomial(A, m, 1, LOCAL_CHART,
                                                inst.trunc))
    crossed = apply_theta(factor, _normal(direction, inst.n_exp), g, cap=w)
    return crossed.coefficient(A, tuple(a + b for a, b in zip(m, e)))


def _order_key(key):
    A, m = key
    d = primitive((-m[0], -m[1])) if (m[0], m[1]) != (0, 0) else (0, 0)
    slope = Fraction(d[0], abs(d[0]) + abs(d[1])) if any(d) else Fraction(0)
    return (_half(d), slope, A, m)


def complete_codim0(inst: LocalInstance,
                    max_weight: int | None = None) -> LocalInstance:
    """Insert outgoing rays until the loop is the identity, order by order.

    Deterministic: lowest curve-class weight first, then angular order of
    the emitted directions.  Each weight w takes two loops, on z^(e1) and
    z^(e2), each capped at weight w (``_failing``).  Once the loop is the
    identity below weight w, a factor exp(c t^A z^m) of weight w changes
    its weight-w part only in the term t^A z^m, by c times the response of
    one crossing (``_response``); each coefficient is solved for exactly
    from that response, so the sign conventions of the crossing
    automorphism are never hard-coded.  The final check is
    ``identity_around`` through ``max_weight``: two more loops, capped
    there.

    Each ray is validated once: the input's when ``inst`` was built, and
    each emitted or merged ray by ``_merge_ray`` as it is made; the
    instances of each weight and the result reuse those checked rays.  A
    negative ``max_weight`` is a ``ValueError``: it would cap away the
    rays' own terms, so no loop could pass.
    """
    if max_weight is None:
        max_weight = inst.trunc.max_weight()
    if max_weight < 0:
        raise ValueError(f"completion weight must be >= 0, got {max_weight}")
    if max_weight > inst.trunc.max_weight():
        raise NonConvergent(
            f"completion weight {max_weight} exceeds the truncation order "
            f"{inst.trunc.max_weight()}")
    trunc = inst.trunc
    rays = list(inst.rays)
    for w in range(1, max_weight + 1):
        cur = inst._with_rays(rays)
        failing = _failing(cur, w)
        keys = sorted(failing, key=_order_key)
        # each term before the first one without a transverse part
        emit = [(A, m, primitive((-m[0], -m[1]))) for A, m in
                takewhile(lambda key: any(key[1][:2]), keys)]
        factors = []
        for A, m, direction in emit:
            g0, eps0 = failing[(A, m)]
            denom = _response(cur, A, m, direction, g0, w)
            if denom == 0:
                raise NonConvergent(
                    f"no ray along {direction} can absorb t^{list(A)} "
                    f"z^{list(m)}")
            factors.append((direction, exp_truncated(RingElement.monomial(
                A, m, Fraction(-eps0) / denom, LOCAL_CHART, trunc))))
        if len(emit) < len(keys):
            A, m = keys[len(emit)]
            raise NonConvergent(
                f"discrepancy t^{list(A)} z^{list(m)} has no "
                "transverse direction to emit")
        for direction, factor in factors:
            _merge_ray(rays, direction, factor, inst.n_exp)
    done = inst._with_rays(rays)
    ok, witness = identity_around(done, max_weight=max_weight)
    if not ok:
        raise NonConvergent(f"loop still fails: {witness}")
    return done
