"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of ocpoly's modules for the length of
the traced run and restores them afterwards; ocpoly's own files are not
changed.  A function is rebound wherever a loaded ocpoly module holds it,
so calls between modules (roots -> scalars.central_roots) are recorded as
child spans of their caller.  Spans stay in memory until the run ends.
Spans are timed in process CPU time, like the benchmark's queries, so that
time the host gives to other processes is not counted.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

CLOCK = time.process_time


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "error",
                 "outer", "info", "at")

    def __init__(self, name, parent, query, outer):
        self.name, self.parent, self.query, self.outer = (name, parent,
                                                          query, outer)
        self.start = self.end = 0.0
        self.error = None
        self.info = None
        self.at = 0.0          # wall clock (perf_counter) at the start

    @property
    def dur(self):
        return self.end - self.start


def _central_roots_info(args, result):
    return {"deg": args[0].degree}


def _roots_info(args, rs):
    if rs is None:
        return None
    found = len(rs.isolated) + len(rs.spherical) + len(rs.anomalies)
    return {"found": found, "resolved": found - len(rs.anomalies)}


def _escape_info(args, steps):
    if steps is None:
        return None
    max_iter = args[1].max_iter
    return {"pixel_iters": int((steps + (steps == 0) * max_iter).sum()),
            "pixels": int(steps.size), "bounded": int((steps == 0).sum())}


# (span name, module, class or None, attribute, info hook)
TARGETS = [
    ("algebra.conjugating_element", "ocpoly.algebra", None,
     "conjugating_element", None),
    ("opoly.companion", "ocpoly.opoly", "OPolynomial", "companion", None),
    ("opoly.eval", "ocpoly.opoly", "OPolynomial", "eval", None),
    ("scalars.central_roots", "ocpoly.scalars", None, "central_roots",
     _central_roots_info),
    ("roots.roots", "ocpoly.roots", None, "roots", _roots_info),
    ("roots.reduce_linear", "ocpoly.roots", None, "reduce_linear", None),
    ("roots.rmr_witness", "ocpoly.roots", None, "rmr_witness", None),
    ("roots.multiple_root", "ocpoly.roots", None, "multiple_root", None),
    ("roots.lmr_describe_class", "ocpoly.roots", None, "lmr_describe_class",
     None),
    ("roots.lmr_sample_detailed", "ocpoly.roots", None,
     "lmr_sample_detailed",
     lambda args, out: out and {"points": len(out)}),
    ("roots.lmr_contains", "ocpoly.roots", None, "lmr_contains", None),
    ("dynamics.fixed_points", "ocpoly.dynamics", None, "fixed_points", None),
    ("dynamics.classify_fixed", "ocpoly.dynamics", None, "classify_fixed",
     None),
    ("dynamics.orbit", "ocpoly.dynamics", None, "orbit",
     lambda args, rec: rec and {"steps": len(rec.iterates) - 1}),
    ("dynamics.detect_pseudo_period", "ocpoly.dynamics", None,
     "detect_pseudo_period", None),
    ("render.escape_steps", "ocpoly.render", None, "escape_steps",
     _escape_info),
    ("render.lattice", "ocpoly.render", "SliceSpec", "lattice", None),
    ("render.write_pgm", "ocpoly.render", None, "write_pgm", None),
]

# Stages roots() runs, in order: companion, central_roots, reduce_linear and
# the verification eval.
ROOT_STAGES = ("opoly.companion", "scalars.central_roots",
               "roots.reduce_linear", "opoly.eval")


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._depth = {}
        self._query = None
        self._patches = []

    def _wrap(self, name, fn, hook):
        spans, stack, depth = self.spans, self._stack, self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self._query,
                        depth[name] == 0)
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            result = None
            span.start = CLOCK()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = CLOCK()
                stack.pop()
                depth[name] -= 1
                if hook is not None:
                    span.info = hook(args, result)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ocpoly" or n.startswith("ocpoly.")]
        for name, modname, cls, attr, hook in TARGETS:
            owner = importlib.import_module(modname)
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, hook)
            holders = [owner] if cls is not None else \
                [m for m in modules if any(v is fn for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    @contextmanager
    def query(self, qid, kind):
        """Top-level span of one query; spans opened inside carry its id."""
        self._query = qid
        span = Span("query." + kind, -1, qid, True)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.at = time.perf_counter()
        span.start = CLOCK()
        try:
            yield span
        finally:
            span.end = CLOCK()
            self._stack.pop()
            self._query = None


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer figures from the spans of one traced pass."""
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.dur for s in by_name.get(name, ()) if s.outer)

    def fails(name):
        return sum(s.error is not None for s in by_name.get(name, ()))

    out = {}
    for name in ("algebra.conjugating_element", "roots.rmr_witness",
                 "scalars.central_roots"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".busy_s"] = (busy(name), "s")
        out[name + ".fail"] = (fails(name), "count")
    for name in ("opoly.companion", "opoly.eval", "roots.reduce_linear",
                 "roots.lmr_describe_class", "roots.lmr_contains"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".busy_s"] = (busy(name), "s")
    for name in ("roots.multiple_root", "dynamics.fixed_points",
                 "dynamics.classify_fixed", "dynamics.orbit",
                 "dynamics.detect_pseudo_period", "render.escape_steps",
                 "render.lattice", "render.write_pgm"):
        out[name + ".busy_s"] = (busy(name), "s")

    central = by_name.get("scalars.central_roots", ())
    for deg in (2, 4, 6, 8, 10, 12):
        durs = [s.dur * 1e3 for s in central if s.info["deg"] == deg]
        out[f"scalars.central_roots.deg{deg}.p50_ms"] = (_p50(durs), "ms")

    infos = [s.info for s in by_name.get("roots.roots", ()) if s.info]
    found = sum(i["found"] for i in infos)
    resolved = sum(i["resolved"] for i in infos)
    out["roots.classes_resolved_ratio"] = (
        resolved / found if found else 0.0, "frac")

    detailed = by_name.get("roots.lmr_sample_detailed", ())
    points = sum(s.info["points"] for s in detailed if s.info)
    out["roots.lmr_sample.us_per_point"] = (
        busy("roots.lmr_sample_detailed") / points * 1e6 if points else 0.0,
        "us")
    out["dynamics.orbit.steps"] = (
        sum(s.info["steps"] for s in by_name.get("dynamics.orbit", ())
            if s.info), "count")

    esc = [s.info for s in by_name.get("render.escape_steps", ()) if s.info]
    iters = sum(i["pixel_iters"] for i in esc)
    pixels = sum(i["pixels"] for i in esc)
    esc_busy = busy("render.escape_steps")
    out["render.pixel_iters"] = (iters, "count")
    out["render.pixel_iters_per_s"] = (
        iters / esc_busy if esc_busy else 0.0, "1/s")
    out["render.bounded_frac"] = (
        sum(i["bounded"] for i in esc) / pixels if pixels else 0.0, "frac")

    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def stage_seconds(tracer):
    """Per query id, the time of the ROOT_STAGES spans directly under a
    roots() call made by the query itself."""
    spans = tracer.spans
    top_roots = {idx for idx, s in enumerate(spans)
                 if s.name == "roots.roots" and s.parent >= 0
                 and spans[s.parent].name.startswith("query.")}
    out = {}
    for s in spans:
        if s.name in ROOT_STAGES and s.parent in top_roots:
            out[s.query] = out.get(s.query, 0.0) + s.dur
    return out
