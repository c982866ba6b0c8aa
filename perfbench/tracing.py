"""Spans around the public aglucas functions that callers reach through
module globals, and the per-layer metrics derived from them.

The program is not edited: ``Tracer.install`` replaces names such as
``aglucas.engine.critical_points`` with timing wrappers, so every call that
goes through that global records a span (name, start, end, parent).  Spans
stay in memory; ``per_layer`` turns them into per-operation figures when the
run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, global name, span name); one span name may cover several globals
WRAPPED = (
    ("aglucas", "agl_report", "engine.agl_report"),
    ("aglucas", "certify", "certifier.certify"),
    ("aglucas", "search_psi", "extremal.search_psi"),
    ("aglucas.engine", "critical_points", "rational.critical_points"),
    ("aglucas.extremal", "critical_points", "rational.critical_points"),
    ("aglucas.rational", "poly_roots", "rational.poly_roots"),
    ("aglucas.extremal", "poly_roots", "extremal.arc_roots"),
    ("aglucas.engine", "distances", "regions.distances"),
    ("aglucas.certifier", "distances", "regions.distances"),
    ("aglucas.extremal", "distances", "regions.distances"),
    ("aglucas.certifier", "distance", "regions.distance"),
    ("aglucas.extremal", "distance", "regions.distance"),
    ("aglucas.certifier", "offset_contour", "regions.offset_contour"),
    ("aglucas.certifier", "split_instance", "certifier.split_instance"),
    ("aglucas.certifier", "perturb_to_simple", "certifier.perturb_to_simple"),
    ("aglucas.certifier", "find_contour", "certifier.find_contour"),
    ("aglucas.certifier", "rouche_margin", "certifier.rouche_margin"),
    ("aglucas.extremal", "minimize", "extremal.minimize"),
    ("aglucas.extremal", "minimize_scalar", "extremal.minimize"),
)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "rational.critical_points.calls": ("calls/op", "lower"),
    "rational.critical_points.ms": ("ms/op", "lower"),
    "rational.critical_points.self_ms": ("ms/op", "lower"),
    "rational.critical_points.nonconvergence": ("calls/op", "lower"),
    "rational.poly_roots.calls": ("calls/op", "lower"),
    "rational.poly_roots.ms": ("ms/op", "lower"),
    "regions.distances.calls": ("calls/op", "lower"),
    "regions.distances.ms": ("ms/op", "lower"),
    "regions.distance.calls": ("calls/op", "lower"),
    "regions.distance.ms": ("ms/op", "lower"),
    "regions.offset_contour.calls": ("calls/op", "lower"),
    "regions.offset_contour.ms": ("ms/op", "lower"),
    "regions.offset_contour.samples": ("samples/op", "lower"),
    "certifier.split_instance.ms": ("ms/op", "lower"),
    "certifier.perturb_to_simple.ms": ("ms/op", "lower"),
    "certifier.find_contour.ms": ("ms/op", "lower"),
    "certifier.find_contour.candidates": ("calls/op", "lower"),
    "certifier.rouche_margin.ms": ("ms/op", "lower"),
    "certifier.certify.self_ms": ("ms/op", "lower"),
    "certifier.doublings": ("count/op", "lower"),
    "certifier.certified_ratio": ("ratio", "higher"),
    "engine.agl_report.self_ms": ("ms/op", "lower"),
    "extremal.evaluations": ("calls/op", "lower"),
    "extremal.arc_roots.calls": ("calls/op", "lower"),
    "extremal.arc_roots.ms": ("ms/op", "lower"),
    "extremal.minimize.self_ms": ("ms/op", "lower"),
}


class Tracer:
    """Span recorder.  A span is [name, parent index, start, end, outcome];
    outcome is the exception's type name, the sample count of a returned
    contour, or None."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[3] = clock()
                span[4] = type(exc).__name__
                raise
            else:
                span[3] = clock()
                if hasattr(result, "samples"):
                    span[4] = len(result.samples)
                return result
            finally:
                open_.pop()

        return traced

    def per_layer(self, operations: int, evaluations: int) -> dict:
        """Per-operation totals over every span recorded so far."""
        spans = self.spans
        nested = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                nested[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        count = defaultdict(int)
        nested_roots_s = 0.0
        for index, (name, parent, start, end, outcome) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - nested[index]
            caller = spans[parent][0] if parent >= 0 else None
            if outcome == "NonConvergence":
                count[name + ".nonconvergence"] += 1
            elif name == "regions.offset_contour":
                count["samples"] += outcome
                count[caller + ".offset_contour"] += 1
            elif name == "certifier.certify" and outcome is None:
                count["issued"] += 1
            if name == "rational.poly_roots" and \
                    caller == "rational.critical_points":
                count["nested_roots"] += 1
                nested_roots_s += end - start

        per_op = 1.0 / operations
        ms = 1000.0 * per_op
        attempts = calls["certifier.certify"]
        return {
            "rational.critical_points.calls":
                calls["rational.critical_points"] * per_op,
            "rational.critical_points.ms":
                busy["rational.critical_points"] * ms,
            "rational.critical_points.self_ms":
                own["rational.critical_points"] * ms,
            "rational.critical_points.nonconvergence":
                count["rational.critical_points.nonconvergence"] * per_op,
            "rational.poly_roots.calls": count["nested_roots"] * per_op,
            "rational.poly_roots.ms": nested_roots_s * ms,
            "regions.distances.calls": calls["regions.distances"] * per_op,
            "regions.distances.ms": busy["regions.distances"] * ms,
            "regions.distance.calls": calls["regions.distance"] * per_op,
            "regions.distance.ms": busy["regions.distance"] * ms,
            "regions.offset_contour.calls":
                calls["regions.offset_contour"] * per_op,
            "regions.offset_contour.ms": busy["regions.offset_contour"] * ms,
            "regions.offset_contour.samples": count["samples"] * per_op,
            "certifier.split_instance.ms":
                busy["certifier.split_instance"] * ms,
            "certifier.perturb_to_simple.ms":
                busy["certifier.perturb_to_simple"] * ms,
            "certifier.find_contour.ms": busy["certifier.find_contour"] * ms,
            "certifier.find_contour.candidates":
                count["certifier.find_contour.offset_contour"] * per_op,
            "certifier.rouche_margin.ms":
                busy["certifier.rouche_margin"] * ms,
            "certifier.certify.self_ms": own["certifier.certify"] * ms,
            "certifier.doublings":
                count["certifier.certify.offset_contour"] * per_op,
            "certifier.certified_ratio":
                count["issued"] / attempts if attempts else 0.0,
            "engine.agl_report.self_ms": own["engine.agl_report"] * ms,
            "extremal.evaluations": evaluations * per_op,
            "extremal.arc_roots.calls": calls["extremal.arc_roots"] * per_op,
            "extremal.arc_roots.ms": busy["extremal.arc_roots"] * ms,
            "extremal.minimize.self_ms": own["extremal.minimize"] * ms,
        }
