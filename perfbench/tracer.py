"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each ``wallcross``
layer from outside the package: methods are patched on their class, module
functions in every ``wallcross.*`` namespace that bound them with
``from .x import y``.  Each call opens a span (name, start, end, parent on
the stack of open spans).  On close the span is folded into per-name
aggregates: calls and self time, the span's time minus the time covered by
its child spans.  Folding on close keeps memory flat on
workloads that make millions of ring calls.

A few counters measure work where it happens (``HOOKS``): term pairs per
ring multiplication, rays inserted by completion, broken lines found,
the bit size of Smith transforms and bytes of wall-structure JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ring", "walls", "consistency", "broken", "linalg", "geometry",
          "lattice", "tropical")

# methods whose name starts with "_" but whose calls are a layer metric
PRIVATE_METHODS = {("ring", "RingElement", "__init__"): "ring.construct"}


def _term_pairs(tracer, args, kwargs, result):
    tracer.counts["ring.mul.term_pairs"] += \
        len(args[0].terms) * len(args[1].terms)


def _rays_inserted(tracer, args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    tracer.counts["consistency.rays_inserted"] += \
        sum(1 for r in result.rays if r not in inst.rays)


def _lines_found(tracer, args, kwargs, result):
    tracer.counts["broken.lines_found"] += len(result)


def _snf_bits(tracer, args, kwargs, result):
    bits = max((abs(x).bit_length()
                for m in (result.U, result.V) for x in m.entries), default=0)
    tracer.maxima["lattice.snf.max_entry_bits"] = max(
        tracer.maxima["lattice.snf.max_entry_bits"], bits)


def _json_bytes(tracer, args, kwargs, result):
    tracer.counts["walls.json_out_bytes"] += \
        len(json.dumps(result, sort_keys=True))


HOOKS = {
    "ring.RingElement.mul": _term_pairs,
    "consistency.complete_codim0": _rays_inserted,
    "broken.enumerate_lines": _lines_found,
    "lattice.smith_normal_form": _snf_bits,
    "walls.WallStructure.to_json": _json_bytes,
}


class Tracer:
    """Collects per-span aggregates while installed; see module docstring."""

    def __init__(self):
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._restore = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, fn, name, layer):
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0]            # time covered by child spans
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - span[0]
                self.calls[name] += 1
                self.self_time[name] += own
                self.layer_self[layer] += own
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every loaded wallcross layer; undo with ``uninstall``."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules.get("wallcross." + layer)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif (inspect.isfunction(obj) and not attr.startswith("_")
                      and not inspect.isgeneratorfunction(obj)):
                    replaced[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        # rebind module functions wherever ``from .x import y`` copied them
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wallcross"
                                   or modname.startswith("wallcross.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])

    def _patch_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            key = PRIVATE_METHODS.get((layer, cls.__name__, attr))
            if attr.startswith("_") and key is None:
                continue
            name = key or f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                if inspect.isgeneratorfunction(raw.__func__):
                    continue
                new = type(raw)(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw) and \
                    not inspect.isgeneratorfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue        # properties, attributes, nested classes
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        return {"calls": dict(self.calls), "self": dict(self.self_time),
                "layer_self": dict(self.layer_self),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def merge(self, data: dict):
        """Add the aggregates of another tracer (a traced child process)."""
        self.calls.update(data["calls"])
        for src, dst in (("self", self.self_time),
                         ("layer_self", self.layer_self)):
            for k, v in data[src].items():
                dst[k] += v
        self.counts.update(data["counts"])
        for k, v in data["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)

    def deterministic(self) -> dict:
        """Counters that must repeat exactly for the same inputs."""
        return {"calls": dict(sorted(self.calls.items())),
                "counts": dict(sorted(self.counts.items())),
                "maxima": dict(sorted(self.maxima.items()))}

    def layer_metrics(self) -> dict:
        """The per-layer metrics listed in BENCHMARK.json, by name."""
        c, s = self.calls, self.self_time
        path_ordered = c["consistency.path_ordered"]
        enumerations = c["broken.enumerate_lines"]
        lines = self.counts["broken.lines_found"]
        rays = self.counts["consistency.rays_inserted"]
        return {
            "ring.mul.calls": c["ring.RingElement.mul"],
            "ring.mul.term_pairs": self.counts["ring.mul.term_pairs"],
            "ring.construct.calls": c["ring.construct"],
            "ring.pow_int.calls": c["ring.RingElement.pow_int"],
            "ring.invert.calls": c["ring.invert"],
            "ring.exp_truncated.calls": c["ring.exp_truncated"],
            "ring.self_s": self.layer_self["ring"],
            "walls.apply_theta.calls": c["walls.apply_theta"],
            "walls.apply_theta.self_s": s["walls.apply_theta"],
            "walls.span_normal.calls": c["walls.Wall.span_normal"],
            "walls.planar_chambers.calls": c["walls.planar_chambers"],
            "walls.self_s": self.layer_self["walls"],
            "walls.assemble_canonical.self_s": s["walls.assemble_canonical"],
            "walls.json_out_bytes": self.counts["walls.json_out_bytes"],
            "consistency.path_ordered.calls": path_ordered,
            "consistency.complete_codim0.self_s":
                s["consistency.complete_codim0"],
            "consistency.rays_inserted": rays,
            "consistency.rays_per_loop":
                rays / path_ordered if path_ordered else 0.0,
            "broken.enumerate_lines.calls": enumerations,
            "broken.lines_found": lines,
            "broken.lines_per_enumerate":
                lines / enumerations if enumerations else 0.0,
            "broken.alpha_trop.calls": c["broken.alpha_trop"],
            "broken.theta.calls": c["broken.theta"],
            "broken.self_s": self.layer_self["broken"],
            "linalg.nullspace.calls": c["linalg.nullspace"],
            "linalg.self_s": self.layer_self["linalg"],
            "geometry.chart_transition.calls":
                c["geometry.ConeComplex.chart_transition"],
            "geometry.validate_complex.self_s": s["geometry.validate_complex"],
            "geometry.self_s": self.layer_self["geometry"],
            "lattice.smith_normal_form.calls": c["lattice.smith_normal_form"],
            "lattice.smith_normal_form.self_s": s["lattice.smith_normal_form"],
            "lattice.snf.max_entry_bits":
                self.maxima["lattice.snf.max_entry_bits"],
            "tropical.splitting_multiplicity.calls":
                c["tropical.splitting_multiplicity"],
            "tropical.classify.calls": c["tropical.classify"],
            "tropical.self_s": self.layer_self["tropical"],
        }

    def top_self(self, k: int = 12) -> list:
        """The k span names with the most self time, for the record."""
        return [[n, round(t, 6), self.calls[n]] for n, t in
                sorted(self.self_time.items(), key=lambda kv: -kv[1])[:k]]
