"""The benchmark's four workloads: scatter, algebra, lattice and cli.

Each workload builds its passes from the seed alone.  Pass k holds a fixed
list of operations of the same kinds and sizes as every other pass, on
inputs drawn afresh from (workload, seed, k), so that no pass repeats the
inputs of an earlier one and a cache of results cannot be warm.  The
runner times a pass one operation at a time; ``check`` then compares its
results with the independent oracles frozen under ``tests/``, outside the
timed interval.

Library calls go through module attributes (``consistency.complete_codim0``
rather than a name bound at import), so the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

from wallcross import (broken, consistency, geometry, lattice, ring,
                       tropical, walls)

CONE = (0, 1)
FIXTURES = ("blowup_threefold.json", "blowup_truncation.json",
            "blowup_counts.json", "blowup_grading.json")


class OpError:
    """Result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def canonical(self):
        return {"raised": self.kind, "message": self.message}


class Pass:
    """The operations of one pass and, for each, what the checks need."""

    def __init__(self, k: int):
        self.k = k
        self.ops = []                  # callables without arguments
        self.meta = []                 # per operation, for canonical/check
        self.inputs = []               # canonical JSON of generated inputs

    def add(self, meta, op, inputs=None):
        self.meta.append(meta)
        self.ops.append(op)
        if inputs is not None:
            self.inputs.append(inputs)

    def shuffle(self, rng):
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        self.ops = [self.ops[i] for i in order]
        self.meta = [self.meta[i] for i in order]


class Workload:
    """Base class: passes of operations, canonical outputs, oracle checks."""

    name = ""

    def __init__(self, seed: int, root: str, workdir: str, size: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.size = size

    def pass_rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def build(self, k: int) -> Pass:
        """Pass k, its inputs drawn from (workload, seed, k)."""
        raise NotImplementedError

    def canonical(self, p: Pass, i: int, result):
        """JSON-able form of operation i's result, for hashing."""
        if isinstance(result, OpError):
            return result.canonical()
        return self._canonical(p.meta[i], result)

    def _canonical(self, meta, result):
        raise NotImplementedError

    def failed(self, p: Pass, i: int, result) -> bool:
        return isinstance(result, OpError)

    def check(self, p: Pass, results) -> list:
        """Oracle errors for one pass's results, as (op index, message).

        The index is None for a law that no single operation owns.
        """
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_traced(self, tracer, run_pass):
        """One pass of the operations with ``tracer`` installed."""
        tracer.install()
        try:
            return run_pass()
        finally:
            tracer.uninstall()

    def fixture_digests(self) -> dict:
        return {}


def signed(rng, lo: int, hi: int) -> int:
    """A random integer of absolute value in [lo, hi], of random sign."""
    return rng.choice((1, -1)) * rng.randint(lo, hi)


def sha256_json(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return hashlib.sha256(data).hexdigest()


def oracle_modules(root: str):
    """The oracles and fixture builders frozen under ``tests/``."""
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests import test_consistency, test_lattice, test_multiplicity
    return test_consistency, test_lattice, test_multiplicity


def _errors_from(fn, *args) -> list[str]:
    """Run a test helper that asserts; report a failed assert as an error."""
    try:
        fn(*args)
    except AssertionError as exc:
        return [f"{fn.__name__}: {exc}"]
    return []


# -- scatter --------------------------------------------------------------------

# (l1, l2, max_weight): every pair l1 <= l2 once with one shared parameter
# and once with two, so that every pass holds the same amount of work; the
# orientation, the coefficients and the order are drawn for each pass
SCATTER_CLASSES = {
    "full": [(1, 1, 5), (1, 2, 4), (1, 3, 3), (2, 2, 4), (2, 3, 3),
             (3, 3, 3)],
    "smoke": [(1, 1, 3), (2, 2, 2)],
}
# |c1|, |c2|: two digits, so that instances of a class differ between
# passes while their coefficients keep the same size
SCATTER_COEFF = (10, 99)


def two_lines(l1, l2, shared, c1, c2, weight):
    """(1 + c1 t1 x)^l1 and (1 + c2 t2 y)^l2 as a local instance."""
    rank = 1 if shared else 2
    trunc = ring.Truncation.degree(rank, weight)
    rays = []
    for i, (a, l, c) in enumerate((((1, 0), l1, c1), ((0, 1), l2, c2))):
        A = (1,) if shared else tuple(int(j == i) for j in range(2))
        f = ring.RingElement.one(consistency.LOCAL_CHART, trunc, 2).add(
            ring.RingElement.monomial(A, a, c, consistency.LOCAL_CHART,
                                      trunc)).pow_nonneg(l)
        rays += [consistency.LocalRay(a, f),
                 consistency.LocalRay(tuple(-x for x in a), f)]
    return consistency.LocalInstance(trunc=trunc, rays=tuple(rays))


class Scatter(Workload):
    """consistency.complete_codim0 on seed-drawn two-line instances."""

    name = "scatter"

    def build(self, k):
        rng = self.pass_rng(k)
        p = Pass(k)
        for l1, l2, w in SCATTER_CLASSES[self.size]:
            for shared in (True, False):
                a1, a2 = (l2, l1) if rng.random() < 0.5 else (l1, l2)
                spec = {"l1": a1, "l2": a2, "weight": w, "shared": shared,
                        "c1": signed(rng, *SCATTER_COEFF),
                        "c2": signed(rng, *SCATTER_COEFF)}
                inst = two_lines(a1, a2, shared, spec["c1"], spec["c2"], w)
                p.add((spec, inst),
                      lambda inst=inst, w=w:
                      consistency.complete_codim0(inst, max_weight=w),
                      inst.to_json())
        p.shuffle(rng)
        return p

    def _canonical(self, meta, result):
        return result.to_json()

    def check(self, p, results):
        test_consistency, _, _ = oracle_modules(self.root)
        errors = []
        for i, ((spec, inst), done) in enumerate(zip(p.meta, results)):
            label = json.dumps(spec, sort_keys=True)
            if isinstance(done, OpError):
                errors.append((i, f"{label}: raised {done.kind}"))
                continue
            # independent plain-dict composition of the loop
            if not test_consistency.oracle_is_identity(done):
                errors.append((i, f"{label}: loop is not the identity"))
            if {spec["l1"], spec["l2"]} == {2}:
                errors += [(i, e) for e in gps_central_ray(spec, done)]
        return errors


def gps_central_ray(spec, done) -> list[str]:
    """Central ray of l1 = l2 = 2: (1 - c1 c2 t1 t2 xy)^(-4).

    Gross-Pandharipande-Siebert (arXiv:0902.0779): the coefficient of
    (t1 t2 xy)^k is binomial(k+3, 3), the scaling x -> c1 x, y -> c2 y
    multiplies it by (c1 c2)^k.
    """
    rays = [r for r in done.rays if r.direction == (-1, -1)]
    if len(rays) != 1:
        return [f"GPS: {len(rays)} rays along (-1,-1)"]
    cc = spec["c1"] * spec["c2"]
    expected = {}
    for k in range(spec["weight"] // 2 + 1):
        A = (2 * k,) if spec["shared"] else (k, k)
        expected[(A, (k, k))] = Fraction(math.comb(k + 3, 3) * cc ** k)
    if rays[0].function.terms != expected:
        return [f"GPS: central ray {rays[0].function!r} != {expected}"]
    return []


# -- algebra --------------------------------------------------------------------

def quadrant(bound: int, power: int, coeff=1) -> walls.WallStructure:
    """One wall (1 + c t z^(-1,-1))^power on the ray (1,1) of the quadrant."""
    cx = geometry.build_complex(
        geometry.DivisorTable(names=("Dx", "Dy"),
                              a_coeffs=(Fraction(0), Fraction(0)),
                              fiber_multiplicities=None),
        [CONE], curve_rank=1)
    trunc = ring.Truncation.degree(1, bound)
    f = ring.RingElement.one(CONE, trunc, 2).add(
        ring.RingElement.monomial((1,), (-1, -1), coeff, CONE, trunc))
    wall = walls.Wall(cone=CONE, support=((1, 1),),
                      function=f.pow_nonneg(power))
    return walls.WallStructure(complex=cx, trunc=trunc, walls=(wall,))


def exponents(bound):
    return [p for p in itertools.product(range(bound + 1), repeat=2)
            if 0 < sum(p) <= bound]


def targets(bound, *ps):
    """Exponents r that alpha(p..., r) can reach: each bend adds (-1,-1)."""
    tot = tuple(sum(c) for c in zip(*ps))
    return [(tot[0] - j, tot[1] - j) for j in range(bound + 1)
            if tot[0] - j >= 0 and tot[1] - j >= 0]


def generic_point(rng, above: bool) -> geometry.PointInChart:
    """An integer point above or below the wall ray (1,1), off every line
    through 0 whose primitive normal has entries below 1000."""
    while True:
        a, b = rng.randint(1000, 9999), rng.randint(1000, 9999)
        if math.gcd(a, b) == 1 and (b > a) == above:
            return geometry.PointInChart(CONE, (Fraction(a), Fraction(b)),
                                         ambient=True)


def next_to_wall(a: int, above: bool) -> geometry.PointInChart:
    """(a, a+1) or (a+1, a) for a > 1000: in the cell of the arrangement
    of genericity lines (normals below 1000) that touches the wall ray."""
    xy = (a, a + 1) if above else (a + 1, a)
    return geometry.PointInChart(CONE, tuple(Fraction(c) for c in xy),
                                 ambient=True)


def reference_point(above: bool) -> geometry.PointInChart:
    return next_to_wall(2000, above)


# alphas: every reachable (p1, p2, r) at the bound; theta and the round
# trips run at seed-drawn points next to the wall, where the number of
# broken lines, and so the cost, does not depend on the draw.  Each pass
# draws its own wall coefficient c, so its structures are new.
ALGEBRA_SIZES = {"full": dict(bound=3, assoc=10),
                 "smoke": dict(bound=2, assoc=4)}
ALGEBRA_COEFF = (10, 99)


class Algebra(Workload):
    """Structure constants, theta functions and decorated round trips."""

    name = "algebra"

    def __init__(self, *args):
        super().__init__(*args)
        size = ALGEBRA_SIZES[self.size]
        self.bound = size["bound"]
        self.assoc = size["assoc"]

    def build(self, k):
        rng = self.pass_rng(k)
        p = Pass(k)
        bound = self.bound
        p.coeffs = [signed(rng, *ALGEBRA_COEFF) for _ in range(2)]
        p.structures = [quadrant(bound, power, c)
                        for power, c in zip((1, 2), p.coeffs)]
        p.inputs.append(["coeffs", p.coeffs])
        points = exponents(bound)
        for si, s in enumerate(p.structures):
            population = [(p1, p2, r)
                          for p1, p2 in itertools.product(points, repeat=2)
                          for r in targets(bound, p1, p2)]
            for p1, p2, r in population:
                self._add(p, "alpha", si, (p1, p2, r),
                          lambda s=s, a=(p1, p2, r): broken.alpha_trop(s, *a))
            for q in points:
                for above in (True, False):
                    x = next_to_wall(rng.randint(1001, 9999), above)
                    self._add(p, "theta", si, (q, x),
                              lambda s=s, q=q, x=x: broken.theta(s, q, x))
                x = next_to_wall(rng.randint(1001, 9999), rng.random() < 0.5)
                self._add(p, "decorated", si, (q, x),
                          lambda s=s, q=q, x=x: round_trip(s, q, x))
        p.shuffle(rng)
        return p

    def _add(self, p, kind, si, args, fn):
        p.add((kind, si, args), fn,
              [kind, si, [a if not isinstance(a, geometry.PointInChart)
                          else [str(c) for c in a.coords] for a in args]])

    def canonical(self, p, i, result):
        if isinstance(result, OpError):
            return result.canonical()
        kind, si, _ = p.meta[i]
        if kind == "alpha":
            ch = result.chamber
            return {"value": result.value.to_json(),
                    "chamber": [list(ch.cone), list(ch.lower),
                                list(ch.upper)]}
        if kind == "theta":
            return result.to_json()
        lines, types, _back = result
        return [[t.to_json(), d.line.monomial(
            p.structures[si].trunc).to_json()]
            for d, t in zip(lines, types)]

    def check(self, p, results):
        errors = []
        # structure constants of the pass, completed on demand
        tables = [{} for _ in p.structures]
        for (kind, si, args), res in zip(p.meta, results):
            if kind == "alpha" and not isinstance(res, OpError):
                tables[si][args] = res.value

        def alpha(si, p1, p2, r):
            s = p.structures[si]
            if (0, 0) in (p1, p2):      # theta_0 is the unit
                one = ring.RingElement.one(CONE, s.trunc, 2)
                other = p2 if p1 == (0, 0) else p1
                return one if other == r else one.scale(0)
            key = (p1, p2, r)
            if key not in tables[si]:
                tables[si][key] = broken.alpha_trop(s, p1, p2, r).value
            return tables[si][key]

        # the algebra laws hold on consistent structures only; the squared
        # wall function on the quadrant fails the joint check
        consistent = [all(r.verdict == "pass"
                          for r in consistency.check_structure(s))
                      for s in p.structures]
        rng = random.Random(f"check:{self.seed}:{p.k}")
        refs = {}
        for i, ((kind, si, args), res) in enumerate(zip(p.meta, results)):
            errors += [(i, e) for e in self._check_one(
                p, kind, si, args, res, alpha, refs, consistent[si], rng)]
        for si, s in enumerate(p.structures):
            if consistent[si]:
                errors += [(None, e) for e in self._algebra_laws(
                    p, si, s, alpha, rng)]
        return errors

    def _check_one(self, p, kind, si, args, res, alpha, refs, consistent,
                   rng) -> list[str]:
        errors = []
        if isinstance(res, OpError):
            return [f"{kind} {args}: raised {res.kind}"]
        s = p.structures[si]
        if kind == "alpha":
            p1, p2, r = args
            if res.value != alpha(si, p2, p1, r):
                errors.append(f"alpha{args}: not commutative")
            # on a consistent structure, independent of the generic point
            # (a seed-drawn quarter of the alphas, to bound the check time)
            if consistent and rng.random() < 0.25 and \
                    res.value != broken.alpha_trop(s, p1, p2, r,
                                                   seed=1).value:
                errors.append(f"alpha{args}: depends on the point")
        elif kind == "theta":
            q, x = args
            above = x.coords[1] > x.coords[0]
            key = (si, q, above)
            if key not in refs:
                refs[key] = broken.theta(s, q, reference_point(above))
            # constant on the cell next to the wall
            if res != refs[key]:
                errors.append(f"theta{args}: not constant on its cell")
        else:
            q, x = args
            lines, types, back = res
            if back != lines:
                errors.append(f"round trip {args}: lines differ")
            total = ring.RingElement.zero(CONE, s.trunc, 2)
            for d in lines:
                total = total.add(d.line.monomial(s.trunc))
            if total != broken.theta(s, q, x):
                errors.append(f"round trip {args}: sum != theta")
        return errors

    def _algebra_laws(self, p, si, s, alpha, rng) -> list[str]:
        """Unit, intertwining and associativity on seed-drawn triples."""
        errors = []
        if not broken.theta(s, (0, 0), reference_point(True)).is_one():
            errors.append(f"structure {si}: theta_0 is not the unit")
        for q in exponents(self.bound):
            above = broken.theta(s, q, reference_point(True))
            below = broken.theta(s, q, reference_point(False))
            if walls.cross_wall(below, s.walls[0], (2, 1)) != above:
                errors.append(f"structure {si}: theta_{q} not intertwined")
        zero = ring.RingElement.zero(CONE, s.trunc, 2)
        points = exponents(self.bound)
        for _ in range(self.assoc):
            p1, p2, p3 = (rng.choice(points) for _ in range(3))
            for target in targets(self.bound, p1, p2, p3):
                lhs = rhs = zero
                for r in targets(self.bound, p1, p2):
                    lhs = lhs.add(alpha(si, p1, p2, r).mul(
                        alpha(si, r, p3, target)))
                for r in targets(self.bound, p2, p3):
                    rhs = rhs.add(alpha(si, p2, p3, r).mul(
                        alpha(si, p1, r, target)))
                if lhs != rhs:
                    errors.append(f"structure {si}: not associative at "
                                  f"{p1},{p2},{p3} -> {target}")
        return errors


def round_trip(s, p, x):
    lines = broken.enumerate_lines(s, p, x, decorated=True)
    types = [broken.decorated_to_type(d, s) for d in lines]
    back = [broken.type_to_line(t, s, x) for t in types]
    return lines, types, back


# -- lattice --------------------------------------------------------------------

# every pass draws the same number of matrices of each shape and of bend
# configurations of each kind (codimension, wall pieces, pinned), so that
# the work, and the heaviest operations, do not depend on the draw
LATTICE_SIZES = {"full": dict(per_shape=48, per_kind=8, max_dim=5),
                 "smoke": dict(per_shape=1, per_kind=1, max_dim=3)}
BEND_KINDS = [(codim, walls_, pinned) for codim in (0, 1)
              for walls_ in range(4) for pinned in (False, True)]


def draw_bend(rng, codim, n_walls, pinned, f_codim0, f_codim1):
    """A bend configuration the closed form of test_multiplicity covers."""
    f = f_codim0 if codim == 0 else f_codim1
    while True:
        # codimension one: the incoming line runs towards the ray x = 0
        u = (rng.randint(-9, 9) if codim == 0 else rng.randint(-9, -1),
             rng.randint(-9, 9))
        if f[0] * u[1] - f[1] * u[0] != 0:
            break
    ks = tuple(rng.randint(1, 5) for _ in range(n_walls))
    return u, ks, codim, pinned


class Lattice(Workload):
    """Smith normal forms, splitting multiplicities and classification."""

    name = "lattice"

    def __init__(self, *args):
        super().__init__(*args)
        _, _, self.test_multiplicity = oracle_modules(self.root)
        self.cx = quadrant(1, 1).complex
        signal.signal(signal.SIGALRM, _snf_time_limit)

    def build(self, k):
        rng = self.pass_rng(k)
        p = Pass(k)
        size = LATTICE_SIZES[self.size]
        tm = self.test_multiplicity
        dims = range(1, size["max_dim"] + 1)
        shapes = [(r, c) for r in dims for c in dims] * size["per_shape"]
        for r, c in shapes:
            rows = [[rng.randint(-9, 9) for _ in range(c)]
                    for _ in range(r)]
            m = lattice.IntegerMatrix.from_rows(rows)
            p.add(("snf", rows), lambda m=m: snf_op(m), ["snf", rows])
        for kind in BEND_KINDS * size["per_kind"]:
            bend = draw_bend(rng, *kind, tm.F_CODIM0, tm.F_CODIM1)
            pieces, glue = tm.bend_configuration(*bend)
            p.inputs.append(["bend", bend])
            p.add(("multiplicity", bend),
                  lambda q=pieces, g=glue:
                  tropical.splitting_multiplicity(q, g, self.cx))
            p.add(("classify", bend),
                  lambda q=pieces: [tropical.classify(x.type, self.cx)
                                    for x in q])
        p.shuffle(rng)
        return p

    def _canonical(self, meta, result):
        kind = meta[0]
        if kind == "snf":
            # hexadecimal: U and V entries can pass the 4300-digit limit of
            # int-to-decimal conversion (42520 bits on one 5x5 draw)
            snf, coker = result
            return {"U": [[hex(x) for x in row] for row in snf.U.to_rows()],
                    "D": [hex(x) for x in snf.diagonal],
                    "V": [[hex(x) for x in row] for row in snf.V.to_rows()],
                    "coker": hex(coker) if isinstance(coker, int)
                    else str(coker)}
        if kind == "multiplicity":
            return [result.multiplicity, result.rank_ok,
                    result.dimension_formula_ok]
        return [dataclasses.asdict(c) for c in result]

    def check(self, p, results):
        _, test_lattice, test_multiplicity = oracle_modules(self.root)
        errors = []
        for i, ((kind, args), res) in enumerate(zip(p.meta, results)):
            if isinstance(res, OpError) and \
                    res.kind == SnfTimeLimit.__name__:
                continue               # counted as failed, gave no output
            if isinstance(res, OpError):
                errors.append((i, f"{kind} {args}: raised {res.kind}"))
            elif kind == "snf":
                rows = args
                snf, coker = res
                m = lattice.IntegerMatrix.from_rows(rows)
                errors += [(i, e) for e in _errors_from(
                    test_lattice.check_decomposition, m, snf)]
                if list(snf.diagonal) != \
                        test_lattice.oracle_invariant_factors(rows):
                    errors.append((i, f"snf {rows}: invariant factors"))
                if len(rows) == len(rows[0]):
                    det = test_lattice._minor_det(rows, range(len(rows)),
                                                  range(len(rows)))
                    if det != 0 and coker != abs(det):
                        errors.append((i, f"cokernel {rows}: {coker}"))
            elif kind == "multiplicity":
                expected = test_multiplicity.expected_multiplicity(*args)
                if not (res.rank_ok and res.dimension_formula_ok
                        and res.multiplicity == expected):
                    errors.append((i, f"multiplicity {args}: "
                                      f"{res.multiplicity} != {expected}"))
        return errors


# Smith normal forms above take at most 0.2 s; about one random 5x5 draw in
# 40000 runs for more than 100 s.  The run must end, so such an operation
# is given up after SNF_LIMIT_S and counted as failed, not as wrong.
SNF_LIMIT_S = 2.0


class SnfTimeLimit(Exception):
    """Raised in an SNF operation that passed SNF_LIMIT_S."""


def _snf_time_limit(signum, frame):
    raise SnfTimeLimit(f"smith_normal_form ran past {SNF_LIMIT_S} s")


def snf_op(m):
    signal.setitimer(signal.ITIMER_REAL, SNF_LIMIT_S)
    try:
        return lattice.smith_normal_form(m), lattice.cokernel_order(m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- cli ------------------------------------------------------------------------

@dataclasses.dataclass
class CliResult:
    argv: list
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes              # the -o file, when the command writes one
    json_in_bytes: int


class Cli(Workload):
    """The wallcross command as child processes, one after another."""

    name = "cli"

    def __init__(self, *args):
        super().__init__(*args)
        fx = os.path.join(self.root, "tests", "fixtures")
        self.fixtures = {n: os.path.join(fx, n) for n in FIXTURES}
        self.child_prefix = [sys.executable, "-m", "wallcross.cli"]
        self.tracing = False
        self.trace_files = []
        self.maxrss = 0
        self.env = dict(os.environ)
        self.env.pop("WALLCROSS_SEED", None)
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        _, _, self.test_multiplicity = oracle_modules(self.root)

    def build(self, k):
        """Pass k: its own input files in its own directory."""
        rng = self.pass_rng(k)
        p = Pass(k)
        p.dir = os.path.join(self.workdir, f"pass-{k}")
        os.makedirs(p.dir)
        self._write_inputs(p, rng)
        self._plan(p, rng)
        return p

    def _write(self, p, name, payload):
        p.inputs.append([name, payload])
        with open(os.path.join(p.dir, name), "w") as fh:
            json.dump(payload, fh, sort_keys=True)

    def _write_inputs(self, p, rng):
        tm = self.test_multiplicity
        # sizes fixed, so that every pass costs the same: bound 3, the plain
        # wall, two lines (1, 2) with two parameters
        p.bundle = quadrant(3, 1, signed(rng, 10, 99))
        self._write(p, "geometry.json",
                    geometry.geometry_to_json(p.bundle.complex))
        self._write(p, "trunc.json",
                    walls.truncation_to_json(p.bundle.trunc))
        self._write(p, "walls.json", p.bundle.to_json())
        l1, l2 = (1, 2) if rng.random() < 0.5 else (2, 1)
        p.scatter_spec = (l1, l2, False, signed(rng, 10, 99),
                          signed(rng, 10, 99), 3)
        self._write(p, "instance.json", two_lines(*p.scatter_spec).to_json())
        p.bend = draw_bend(rng, *rng.choice(BEND_KINDS), tm.F_CODIM0,
                           tm.F_CODIM1)
        pieces, glue = tm.bend_configuration(*p.bend)
        self._write(p, "pieces.json", {
            "pieces": [{"type": q.type.to_json(),
                        "gluing_legs": list(q.gluing_legs)} for q in pieces],
            "edges": [{"ends": [list(e.ends[0]), list(e.ends[1])],
                       "lattice": [list(v) for v in e.lattice]}
                      for e in glue]})

    def _plan(self, p, rng):
        fx = self.fixtures

        def path(name):
            return os.path.join(p.dir, name)

        three = ["-g", fx["blowup_threefold.json"],
                 "-t", fx["blowup_truncation.json"]]
        quad = ["-g", path("geometry.json"), "-t", path("trunc.json"),
                "-w", path("walls.json")]
        bound = p.bundle.trunc.max_weight()

        def vec(v):
            return ",".join(str(c) for c in v)

        def point():
            x = generic_point(rng, rng.random() < 0.5)
            return vec(int(c) for c in x.coords)

        points = exponents(bound)
        plan = [
            ("validate", ["validate", "-g", fx["blowup_threefold.json"]]),
            ("walls", ["walls", *three, "-c", fx["blowup_counts.json"],
                       "--grading", fx["blowup_grading.json"],
                       "-o", path("threefold_walls.json")]),
            ("consistency", ["consistency", *three,
                             "-w", path("threefold_walls.json")]),
        ]
        for _ in range(2):
            plan.append(("theta", ["theta", *quad, "--p",
                                   vec(rng.choice(points)), "--x", point()]))
        plan.append(("broken-lines",
                     ["broken-lines", *quad, "--p", vec(rng.choice(points)),
                      "--x", point(), "--decorated"]))
        for _ in range(2):
            p1, p2 = rng.choice(points), rng.choice(points)
            r = rng.choice(targets(bound, p1, p2))
            plan.append(("alpha", ["alpha", *quad, "--p1", vec(p1),
                                   "--p2", vec(p2), "--r", vec(r)]))
        plan += [
            ("scatter", ["scatter", "--instance", path("instance.json"),
                         "--max-weight", "3"]),
            ("multiplicity", ["tropical", "multiplicity",
                              "-g", path("geometry.json"),
                              "--pieces", path("pieces.json")]),
        ]
        # file arguments by name: fixture and pass file names are distinct,
        # and the digest must not depend on the working directory
        p.inputs.append(["plan", [[kind, [os.path.basename(a) for a in argv]]
                                  for kind, argv in plan]])
        for kind, argv in plan:
            p.add((kind, argv),
                  lambda argv=argv, d=p.dir: self._run(argv, d))

    def _run(self, argv, cwd) -> CliResult:
        """Run one child to completion; wait4 gives its own peak RSS."""
        out_path = argv[argv.index("-o") + 1] if "-o" in argv else None
        in_bytes = sum(os.path.getsize(a) for a in argv
                       if a.endswith(".json") and a != out_path)
        cmd = list(self.child_prefix)
        if self.tracing:           # one trace file per traced child
            trace = os.path.join(self.workdir,
                                 f"trace-{len(self.trace_files)}.json")
            self.trace_files.append(trace)
            cmd.append(trace)
        with open(os.path.join(cwd, "stdout"), "w+b") as so, \
                open(os.path.join(cwd, "stderr"), "w+b") as se:
            proc = subprocess.Popen(cmd + argv, stdout=so, stderr=se,
                                    cwd=cwd, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read(), se.read()
        output = b""
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                output = fh.read()
        self.maxrss = max(self.maxrss, usage.ru_maxrss)
        return CliResult(argv, proc.returncode, stdout, stderr, output,
                         in_bytes)

    def peak_rss_kb(self):
        return self.maxrss

    def failed(self, p, i, result):
        return isinstance(result, OpError) or result.code != 0

    def _canonical(self, meta, result):
        return {"code": result.code,
                "stdout": hashlib.sha256(result.stdout).hexdigest(),
                "stderr": hashlib.sha256(result.stderr).hexdigest(),
                "output": hashlib.sha256(result.output).hexdigest()}

    def run_traced(self, tracer, run_pass):
        """Run each child under perfbench/cli_child.py and merge traces."""
        here = os.path.dirname(os.path.abspath(__file__))
        untraced = self.child_prefix
        self.child_prefix = [sys.executable,
                             os.path.join(here, "cli_child.py")]
        self.tracing, self.trace_files = True, []
        try:
            results = run_pass()
        finally:
            self.child_prefix, self.tracing = untraced, False
        for path in self.trace_files:
            with open(path) as fh:
                tracer.merge(json.load(fh))
        return results

    def fixture_digests(self):
        out = {}
        for name, path in self.fixtures.items():
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def check(self, p, results):
        test_consistency, _, test_multiplicity = oracle_modules(self.root)
        errors = []
        for i, ((kind, argv), res) in enumerate(zip(p.meta, results)):
            if isinstance(res, OpError):
                errors.append((i, f"{kind}: raised {res.kind}"))
                continue
            errors += [(i, f"{kind}: {e}") for e in self._check_one(
                p, kind, argv, res, test_consistency, test_multiplicity)]
        return errors

    def _check_one(self, p, kind, argv, res, test_consistency,
                   test_multiplicity) -> list[str]:
        # documented exit codes: 0 success, 1 a domain error with a JSON
        # diagnostic on stderr; consistency also exits 1 on a failed verdict
        if res.code not in (0, 1) or (res.code == 1
                                      and kind != "consistency"):
            return [f"exit {res.code}: {res.stderr[-300:]!r}"]
        if res.code == 1:
            try:
                diag = json.loads(res.stderr or res.stdout)
            except ValueError:
                return ["exit 1 without a JSON diagnostic"]
            if "error" not in diag and diag.get("passed") is not False:
                return ["exit 1 without an error or a failed verdict"]
            return []
        payload = json.loads(res.output or res.stdout)
        s = p.bundle
        arg = dict(zip(argv, argv[1:]))

        def vec(key):
            return tuple(int(v) for v in arg[key].split(","))

        def pt(key):
            return geometry.PointInChart(
                CONE, tuple(Fraction(v) for v in arg[key].split(",")),
                ambient=True)

        if kind == "validate" and payload.get("valid") is not True:
            return ["fixture does not validate"]
        if kind == "walls":
            with open(self.fixtures["blowup_truncation.json"]) as fh:
                trunc = walls.truncation_from_json(json.load(fh))
            got = walls.WallStructure.from_json(
                payload, geometry.load_geometry(
                    self.fixtures["blowup_threefold.json"]), trunc)
            if len(got.walls) != 5:
                return [f"{len(got.walls)} walls, expected 5"]
        if kind == "theta":
            want = broken.theta(s, vec("--p"), pt("--x"))
            if payload["theta"] != want.to_json():
                return ["theta differs from the library value"]
        if kind == "broken-lines":
            want = broken.enumerate_lines(s, vec("--p"), pt("--x"),
                                          decorated=True)
            if len(payload["lines"]) != len(want):
                return ["line count differs from the library"]
        if kind == "alpha":
            want = broken.alpha_trop(s, vec("--p1"), vec("--p2"), vec("--r"))
            if payload["alpha"] != want.value.to_json():
                return ["alpha differs from the library value"]
        if kind == "scatter":
            done = consistency.LocalInstance.from_json(payload)
            if not test_consistency.oracle_is_identity(done):
                return ["completed instance is not consistent"]
        if kind == "multiplicity":
            want = test_multiplicity.expected_multiplicity(*p.bend)
            if payload["multiplicity"] != want:
                return [f"multiplicity {payload['multiplicity']} != {want}"]
        return []

    def startup_ms(self, samples: int = 5) -> float:
        """Median of (import wallcross.cli) minus a bare interpreter."""
        def median_run(code):
            times = []
            for _ in range(samples):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               cwd=self.workdir, check=True)
                times.append(time.perf_counter() - t0)
            return sorted(times)[samples // 2]
        return 1000 * (median_run("import wallcross.cli") - median_run("pass"))


WORKLOADS = {w.name: w for w in (Scatter, Algebra, Lattice, Cli)}
