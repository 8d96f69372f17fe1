"""Command-line front end.

File I/O and orchestration for geometry validation, wall assembly, broken
lines, theta functions, structure constants, consistency checks, local
scattering completion, tropical classification, and 2D SVG rendering.  All
JSON outputs carry ``"schema": "wallcross/1"`` and record the seed used for
generic-point sampling.  Exit status: 0 on success (for ``consistency``,
only if every verdict passes), 1 on validation errors, 2 on usage errors,
missing files or unparsable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .broken import alpha_trop, enumerate_lines, theta
from .consistency import (
    LocalInstance,
    check_structure,
    complete_codim0,
    ordered_rays,
)
from .errors import NonPlanarSlice, WallcrossError
from .geometry import PointInChart, load_geometry, validate_complex
from .ring import integer_vector
from .tropical import (
    GluingEdge,
    SplitPiece,
    TropicalType,
    classify,
    splitting_multiplicity,
)
from .walls import (
    WallStructure,
    assemble_canonical,
    counts_from_json,
    truncation_from_json,
)

SCHEMA = "wallcross/1"


# -- helpers ------------------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _vector(text):
    return tuple(int(v) for v in text.replace("(", "").replace(")", "")
                 .split(","))


def _point(args, name, n):
    """The vector of the option ``--name``, which must have n entries."""
    text = getattr(args, name)
    v = _vector(text)
    if len(v) != n:
        raise ValueError(f"--{name} {text} has length {len(v)}, not the "
                         f"dimension {n} of the complex")
    return v


def _structure(args) -> WallStructure:
    cx = load_geometry(args.geometry)
    trunc = truncation_from_json(_load_json(args.truncation))
    return WallStructure.from_json(_load_json(args.walls), cx, trunc)


def _chart(args, cx):
    if getattr(args, "chart", None):
        return _vector(args.chart)
    return tuple(cx.maximal_cones[0])


def _emit(args, payload, binary=False):
    if args.output:
        mode = "wb" if binary else "w"
        with open(args.output, mode) as fh:
            if binary:
                fh.write(payload)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    else:
        if binary:
            sys.stdout.buffer.write(payload)
        else:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")


def _line_json(line):
    cone, A, m, a = line.segments[-1]
    return {
        "p": list(line.p),
        "final_chart": list(cone),
        "class": list(A),
        "exponent": list(m),
        "coefficient": str(a),
        "bends": [{
            "point": [str(c) for c in b.point],
            "wall_index": b.wall_index,
            "pairing": b.pairing,
            "delta_class": list(b.delta_class),
            "delta_exponent": list(b.delta_exponent),
            "coefficient": str(b.coeff),
            "mu": [list(pair) for pair in b.mu] if b.mu is not None else None,
        } for b in line.bends],
    }


# -- subcommand handlers ------------------------------------------------------

def _cmd_validate(args):
    cx = load_geometry(args.geometry)
    validate_complex(cx)
    _emit(args, {"schema": SCHEMA, "valid": True,
                 "n": cx.n, "cones": sorted(list(c) for c in cx.cones)})
    return 0


def _cmd_walls(args):
    cx = load_geometry(args.geometry)
    trunc = truncation_from_json(_load_json(args.truncation))
    counts = counts_from_json(_load_json(args.counts))
    grading = None
    if args.grading:
        g = _load_json(args.grading)
        grading = g["pairings"] if isinstance(g, dict) else g
    s = assemble_canonical(cx, counts, trunc, grading=grading)
    out = s.to_json()
    out["seed"] = args.seed
    _emit(args, out)
    return 0


def _p_and_x(args, cx):
    """``--p`` and ``--x``, the endpoint x in the chart of ``--chart``."""
    x = _point(args, "x", cx.n)
    return _point(args, "p", cx.n), x, PointInChart(_chart(args, cx), x,
                                                    ambient=True)


def _cmd_theta(args):
    s = _structure(args)
    p, xv, x = _p_and_x(args, s.complex)
    value = theta(s, p, x)
    _emit(args, {"schema": SCHEMA, "seed": args.seed, "p": list(p),
                 "x": list(xv), "chart": list(x.cone),
                 "theta": value.to_json()})
    return 0


def _cmd_broken_lines(args):
    s = _structure(args)
    p, xv, x = _p_and_x(args, s.complex)
    lines = enumerate_lines(s, p, x, decorated=args.decorated)
    payload = [_line_json(d.line if args.decorated else d) for d in lines]
    _emit(args, {"schema": SCHEMA, "seed": args.seed,
                 "p": list(p), "x": list(xv),
                 "decorated": bool(args.decorated), "lines": payload})
    return 0


def _cmd_alpha(args):
    s = _structure(args)
    p1, p2, r = (_point(args, name, s.complex.n)
                 for name in ("p1", "p2", "r"))
    res = alpha_trop(s, p1, p2, r, seed=args.seed)
    _emit(args, {"schema": SCHEMA, "seed": args.seed,
                 "p1": list(p1), "p2": list(p2),
                 "r": list(r), "alpha": res.value.to_json(),
                 "chamber": {"cone": list(res.chamber.cone),
                             "lower": list(res.chamber.lower),
                             "upper": list(res.chamber.upper)}})
    return 0


def _cmd_consistency(args):
    s = _structure(args)
    reports = check_structure(s, level=args.level, seed=args.seed)
    ok = all(r.verdict == "pass" for r in reports)
    _emit(args, {"schema": SCHEMA, "seed": args.seed, "level": args.level,
                 "passed": ok, "reports": [r.to_json() for r in reports]})
    return 0 if ok else 1


def _cmd_scatter(args):
    inst = LocalInstance.from_json(_load_json(args.instance))
    done = complete_codim0(inst, max_weight=args.max_weight)
    out = done.to_json()
    out["added_rays"] = len(done.rays) - len(inst.rays)
    _emit(args, out)
    return 0


def _cmd_tropical_classify(args):
    cx = load_geometry(args.geometry)
    t = _tropical_type(_load_json(args.type), cx)
    cls = classify(t, cx)
    _emit(args, {"schema": SCHEMA, "kind": cls.kind,
                 "dim_type": cls.dim_type, "dim_out": cls.dim_out,
                 "k_tau": cls.k_tau,
                 "decoration_admissible": cls.decoration_admissible,
                 "spine_vertices": list(cls.spine_vertices)})
    return 0


def _cmd_tropical_multiplicity(args):
    cx = load_geometry(args.geometry)
    data = _load_json(args.pieces)
    pieces = [_split_piece(p, cx) for p in data["pieces"]]
    edges = [_gluing_edge(item, pieces, cx.n) for item in data["edges"]]
    res = splitting_multiplicity(pieces, edges, cx)
    _emit(args, {"schema": SCHEMA, "multiplicity": res.multiplicity,
                 "rank_ok": res.rank_ok,
                 "dimension_formula_ok": res.dimension_formula_ok})
    return 0


def _tropical_type(data, cx) -> TropicalType:
    t = TropicalType.from_json(data)
    t.check_lengths(cx.n, cx.curve_rank)
    return t


def _split_piece(data, cx) -> SplitPiece:
    t = _tropical_type(data["type"], cx)
    legs = integer_vector(data["gluing_legs"])
    for leg in legs:
        if not 0 <= leg < len(t.legs):
            raise ValueError(f"gluing leg {leg} is not a leg of its piece")
    return SplitPiece(type=t, gluing_legs=legs)


def _gluing_edge(data, pieces, n) -> GluingEdge:
    ends = tuple(integer_vector(e) for e in data["ends"])
    if len(ends) != 2 or any(len(e) != 2 for e in ends):
        raise ValueError(f"gluing edge ends {data['ends']} are not two "
                         "(piece, leg) pairs")
    for piece, leg in ends:
        if not (0 <= piece < len(pieces)
                and leg in pieces[piece].gluing_legs):
            raise ValueError(f"gluing edge end {[piece, leg]} is not a "
                             "gluing leg of a piece")
    lattice = tuple(integer_vector(v) for v in data["lattice"])
    for v in lattice:
        if len(v) != n:
            raise ValueError(f"stratum lattice vector {list(v)} does not "
                             f"have length {n}")
    return GluingEdge(ends=ends, lattice=lattice)


# -- rendering ----------------------------------------------------------------

_CANVAS = 400
_MARGIN = 24


def _svg_open(parts):
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">')
    parts.append(f'<rect x="0" y="0" width="{_CANVAS}" height="{_CANVAS}" '
                 'fill="white"/>')


def _mapper(world):
    scale = Fraction(_CANVAS - 2 * _MARGIN, world)

    def to_px(pt):
        x = _MARGIN + float(Fraction(pt[0]) * scale)
        y = _CANVAS - _MARGIN - float(Fraction(pt[1]) * scale)
        return f"{x:.2f}", f"{y:.2f}"
    return to_px


def _clip_ray(direction, world):
    """Largest multiple of ``direction`` inside the [0, world]^2 box."""
    t = None
    for c in direction:
        if c:
            bound = Fraction(world, abs(c))
            t = bound if t is None else min(t, bound)
    if t is None:
        return (0, 0)
    return tuple(Fraction(c) * t for c in direction)


def render_svg(s: WallStructure | None, lines=(), instance=None) -> bytes:
    """Deterministic SVG of a planar slice.

    Draws the wall rays and shaded chambers of a two-dimensional structure,
    broken lines as polylines with bend markers, or the rays of a localized
    joint instance in angular order.
    """
    parts = []
    _svg_open(parts)
    if instance is not None:
        world = max(2, max(abs(c) for r in instance.rays
                           for c in r.direction[:2]) if instance.rays else 2)
        to_px = _mapper(2 * world)
        shift = world  # origin at the center
        ox, oy = to_px((shift, shift))
        for i, ray in enumerate(ordered_rays(instance)):
            tip = _clip_ray(ray.direction[:2], world)
            tx, ty = to_px((tip[0] + shift, tip[1] + shift))
            parts.append(f'<line x1="{ox}" y1="{oy}" x2="{tx}" y2="{ty}" '
                         'stroke="black" stroke-width="1.5"/>')
            parts.append(f'<text x="{tx}" y="{ty}" font-size="10">r{i}</text>')
        parts.append("</svg>")
        return "\n".join(parts).encode()

    if s.complex.n != 2:
        raise NonPlanarSlice("rendering needs a two-dimensional structure")
    world = 4
    for line in lines:
        for b in line.bends:
            world = max(world, *(int(abs(Fraction(c))) + 1 for c in b.point))
        world = max(world, *(int(abs(c)) + 1 for c in line.x.coords))
    to_px = _mapper(world)
    ox, oy = to_px((0, 0))
    # chambers, shaded alternately
    for i, ch in enumerate(s.chambers):
        lo = _clip_ray(ch.lower, world)
        hi = _clip_ray(ch.upper, world)
        pts = [to_px((0, 0)), to_px(lo), to_px(hi)]
        fill = "#eeeeee" if i % 2 == 0 else "#dddddd"
        path = " ".join(f"{x},{y}" for x, y in pts)
        parts.append(f'<polygon points="{path}" fill="{fill}" '
                     'stroke="none"/>')
    # axes
    ax, _ = to_px((world, 0))
    _, ay = to_px((0, world))
    parts.append(f'<line x1="{ox}" y1="{oy}" x2="{ax}" y2="{oy}" '
                 'stroke="#888888" stroke-width="1"/>')
    parts.append(f'<line x1="{ox}" y1="{oy}" x2="{ox}" y2="{ay}" '
                 'stroke="#888888" stroke-width="1"/>')
    # wall rays
    for wi, w in enumerate(s.walls):
        for g in w.support:
            tip = _clip_ray(g, world)
            tx, ty = to_px(tip)
            parts.append(f'<line x1="{ox}" y1="{oy}" x2="{tx}" y2="{ty}" '
                         'stroke="crimson" stroke-width="2"/>')
            parts.append(f'<text x="{tx}" y="{ty}" font-size="10" '
                         f'fill="crimson">w{wi}</text>')
    # broken lines with bend markers
    for line in lines:
        pts = [tuple(Fraction(c) for c in line.x.coords)]
        for b in reversed(line.bends):
            pts.append(tuple(Fraction(c) for c in b.point))
        tail = pts[-1]
        direction = line.segments[0][2]
        t = None
        for c, d in zip(tail, direction):
            if d > 0:
                bound = Fraction(world - c, d)
            elif d < 0:
                bound = Fraction(0 - c, d)
            else:
                continue
            t = bound if t is None else min(t, bound)
        if t:
            pts.append(tuple(c + t * d for c, d in zip(tail, direction)))
        path = " ".join("{},{}".format(*to_px(p)) for p in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     'stroke="navy" stroke-width="1.5"/>')
        for b in line.bends:
            bx, by = to_px(tuple(Fraction(c) for c in b.point))
            parts.append(f'<circle cx="{bx}" cy="{by}" r="3" fill="navy"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode()


def _cmd_render(args):
    if args.instance:
        inst = LocalInstance.from_json(_load_json(args.instance))
        _emit(args, render_svg(None, instance=inst), binary=True)
        return 0
    missing = [f"--{name}" for name in ("geometry", "truncation", "walls")
               if getattr(args, name) is None]
    if missing:
        return _diagnose("UsageError", "render needs --instance or "
                         + ", ".join(missing), 2)
    if (args.p is None) != (args.x is None):
        return _diagnose("UsageError", "render draws broken lines from "
                         "--p and --x together", 2)
    s = _structure(args)
    lines = ()
    if args.p is not None:
        p, _, x = _p_and_x(args, s.complex)
        lines = enumerate_lines(s, p, x)
    _emit(args, render_svg(s, lines=lines), binary=True)
    return 0


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a usage line and the JSON
    diagnostic, then exits 2; subcommand parsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_diagnose("UsageError", message, 2))


def _build_parser():
    parser = _Parser(
        prog="wallcross",
        description="Exact wall structures, broken lines and theta "
                    "functions on integral affine cone complexes.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generic-point sampling "
                             "(WALLCROSS_SEED overrides)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def geom(p):
        p.add_argument("-g", "--geometry", required=True)

    def bundle(p):
        geom(p)
        p.add_argument("-t", "--truncation", required=True)
        p.add_argument("-w", "--walls", required=True)
        p.add_argument("--chart", default=None)

    def out(p):
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("validate", help="validate a cone-complex geometry")
    geom(p)
    out(p)

    p = sub.add_parser("walls", help="assemble walls from counts")
    geom(p)
    p.add_argument("-t", "--truncation", required=True)
    p.add_argument("-c", "--counts", required=True)
    p.add_argument("--grading", default=None)
    out(p)

    p = sub.add_parser("theta", help="theta function at a point")
    bundle(p)
    p.add_argument("--p", required=True)
    p.add_argument("--x", required=True)
    out(p)

    p = sub.add_parser("broken-lines", help="enumerate broken lines")
    bundle(p)
    p.add_argument("--p", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--decorated", action="store_true")
    out(p)

    p = sub.add_parser("alpha", help="structure constant")
    bundle(p)
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--r", required=True)
    out(p)

    p = sub.add_parser("consistency", help="joint-by-joint consistency")
    bundle(p)
    p.add_argument("--level", choices=["0", "1", "2", "all"], default="all")
    out(p)

    p = sub.add_parser("scatter", help="complete a local joint instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-weight", type=int, default=None)
    out(p)

    p = sub.add_parser("render", help="render a planar slice as SVG")
    p.add_argument("-g", "--geometry")
    p.add_argument("-t", "--truncation")
    p.add_argument("-w", "--walls")
    p.add_argument("--chart", default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--x", default=None)
    out(p)

    p = sub.add_parser("tropical", help="tropical types")
    tsub = p.add_subparsers(dest="tropical_command", required=True)
    pc = tsub.add_parser("classify")
    geom(pc)
    pc.add_argument("--type", required=True)
    out(pc)
    pm = tsub.add_parser("multiplicity")
    geom(pm)
    pm.add_argument("--pieces", required=True)
    out(pm)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "walls": _cmd_walls,
    "theta": _cmd_theta,
    "broken-lines": _cmd_broken_lines,
    "alpha": _cmd_alpha,
    "consistency": _cmd_consistency,
    "scatter": _cmd_scatter,
    "render": _cmd_render,
}


def _diagnose(error: str, message: str, code: int) -> int:
    print(json.dumps({"schema": SCHEMA, "error": error, "message": message}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.subcommand == "tropical":
        handler = (_cmd_tropical_classify
                   if args.tropical_command == "classify"
                   else _cmd_tropical_multiplicity)
    else:
        handler = _HANDLERS[args.subcommand]
    try:
        env_seed = os.environ.get("WALLCROSS_SEED")
        if env_seed is not None:
            args.seed = int(env_seed)
        return handler(args)
    except FileNotFoundError as exc:
        return _diagnose("FileNotFound", str(exc), 2)
    except KeyError as exc:
        # input JSON without a required key
        return _diagnose("MissingKey", f"missing key {exc}", 2)
    except TypeError as exc:
        # input JSON of the wrong shape, e.g. a list where an object is due
        return _diagnose("WrongShape", str(exc), 2)
    except (ValueError, ZeroDivisionError) as exc:
        # unparsable JSON (JSONDecodeError), a malformed vector argument, a
        # non-integral vector entry or a coefficient with denominator 0
        return _diagnose(type(exc).__name__, str(exc), 2)
    except WallcrossError as exc:
        return _diagnose(type(exc).__name__, str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
