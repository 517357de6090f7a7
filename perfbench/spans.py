"""Spans around the calls one layer of halfsquares makes into the next.

The program has no tracing of its own, so the benchmark records spans from
outside: for the traced run it replaces the module and class attributes
through which the layers call each other with timing wrappers, and puts the
originals back afterwards.  The untraced run installs nothing.

A span is (name, start, end, parent span, pass id).  Spans stay in memory
until the run ends; a layer's self time is its span's duration minus the
durations of its direct children, so the self times of all spans in a pass,
the pass's own span included, add up to the pass's traced time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import weakref
from collections import defaultdict

PASS_SPAN = "harness.pass"


def _repeat_counter():
    """Amount for GeneralPolytope.member: 1 when this hull saw the point before."""
    seen = weakref.WeakKeyDictionary()

    def amount(args, result):
        hull, point = args[0], tuple(args[1])
        points = seen.setdefault(hull, set())
        if point in points:
            return 1
        points.add(point)
        return 0

    return amount


def _length(args, result):
    return len(result)


def _size(args, result):
    return int(result.size)


def _first_arg_length(args, result):
    return len(args[0])


# (module, attribute path, span name, factory of the per-call amount or None).
# Each entry is the attribute the calling layer looks up, so a name that one
# layer imported from another is wrapped in the importing module.
TRACED = (
    ("halfsquares.polytope", "GeneralPolytope.member", "polytope.member", _repeat_counter),
    ("halfsquares.polytope", "SimplexPolytope.barycentric", "polytope.SimplexPolytope.barycentric", None),
    ("halfsquares.ratmat", "solve_rectangular", "ratmat.solve_rectangular", None),
    ("halfsquares.ratmat", "det", "ratmat.det", None),
    ("halfsquares.certificates", "certify_not_sos", "certificates.certify_not_sos", None),
    ("halfsquares.generate", "certify_not_sos", "certificates.certify_not_sos", None),
    ("halfsquares.certificates", "discover_certificate", "certificates.discover_certificate", None),
    ("halfsquares.certificates", "verify_certificate", "certificates.verify_certificate", None),
    ("halfsquares.generate", "direct_search", "generate.direct_search", lambda: _length),
    ("halfsquares.generate", "make_instance", "generate.make_instance", None),
    ("halfsquares.generate", "homogenize_lift", "generate.homogenize_lift", None),
    ("halfsquares.exactpoly", "SparsePolynomial.evaluate", "exactpoly.evaluate", None),
    ("halfsquares.decompose", "control_field", "holder.control_field", None),
    ("halfsquares.finitediff", "directional_derivative", "finitediff.directional_derivative", None),
    ("halfsquares.decompose", "check_slow_variation", "holder.check_slow_variation", None),
    ("halfsquares.decompose", "estimate_seminorm", "holder.estimate_seminorm", None),
    ("halfsquares.decompose", "build_cover", "cover.build_cover", lambda: _length),
    ("halfsquares.decompose", "partition_functions", "cover.partition_functions", None),
    ("halfsquares.cover", "color_classes", "cover.color_classes", lambda: _first_arg_length),
    ("halfsquares.decompose", "overlap_counts", "cover.overlap_counts", None),
    ("halfsquares.decompose", "decompose", "decompose.decompose", None),
    # the spline class decompose builds its fibers with; its ev is the fiber evaluation
    ("halfsquares.decompose", "RectBivariateSpline.ev", "decompose.fiber_eval", lambda: _size),
    ("halfsquares.decompose", "evaluate_1d_squares", "decompose.evaluate_1d_squares", None),
    ("halfsquares.decompose", "partial_decompose", "decompose.partial_decompose", None),
    ("halfsquares.decompose", "verify", "decompose.verify", None),
)


class Tracer:
    """Installs the wrappers, records spans and restores the program."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, pass id)
        self.amounts: dict[int, int] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list = []
        self._origin = time.perf_counter()

    def traced(self, name, fn, amount=None):
        spans, amounts, stack, clock = self.spans, self.amounts, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if amount is not None:
                amounts[index] = amount(args, result)
            return result

        return wrapper

    def run_pass(self, pass_id, fn):
        """Run one benchmark pass inside its root span."""
        self.pass_id = pass_id
        return self.traced(PASS_SPAN, fn)()

    def install(self):
        for module_name, path, name, make_amount in TRACED:
            module = importlib.import_module(module_name)
            amount = make_amount() if make_amount else None
            cls_name, _, attr = path.rpartition(".")
            if not cls_name:
                self._patch(module, attr, self.traced(name, getattr(module, attr), amount))
                continue
            cls = getattr(module, cls_name)
            method = self.traced(name, getattr(cls, attr), amount)
            if cls.__module__ == module_name:
                self._patch(cls, attr, method)
            else:
                # a class from outside halfsquares: trace only this module's use of
                # it, through a subclass put where the module looks the class up
                self._patch(module, cls_name, type(cls.__name__, (cls,), {attr: method}))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_stats(self, clock=None) -> dict[int, "PassStats"]:
        """Per-pass aggregates: calls, self and outermost total time, amounts.

        ``clock`` maps the spans' wall-clock readings to the time they are
        reported in (quiet seconds, see speed.py); wall seconds without it.
        """
        spans = self.spans
        if clock is not None:
            spans = [(name, clock(start), clock(end), parent, p) for name, start, end, parent, p in spans]
        cost = span_cost()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[int, PassStats] = defaultdict(lambda: PassStats(cost))
        for index, (name, start, end, parent, pass_id) in enumerate(spans):
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            stats[pass_id].add(
                name, end - start, end - start - child_time[index], self.amounts.get(index, 0), ancestors
            )
        return dict(stats)

    def dump(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [
            [ids[name], round(start - self._origin, 7), round(end - self._origin, 7), parent, pass_id,
             self.amounts.get(i, 0)]
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans)
        ]
        doc = {
            **meta,
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "pass", "amount"],
            "spans": rows,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def span_cost(calls=200_000):
    """Seconds a wrapper adds to one call, measured on a no-op."""

    def noop():
        pass

    wrapped = Tracer().traced("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    middle = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - middle) - (middle - start)) / calls


class PassStats:
    def __init__(self, span_cost):
        self.span_cost = span_cost  # seconds one wrapper adds to a call
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # spans not nested in one of the same name
        self.amount = defaultdict(int)
        self.under = defaultdict(int)  # (name, ancestor name) -> calls

    def add(self, name, duration, self_time, amount, ancestors):
        self.calls[name] += 1
        self.self_s[name] += self_time
        self.amount[name] += amount
        if name not in ancestors:
            self.total_s[name] += duration
        for ancestor in ancestors:
            self.under[name, ancestor] += 1

    def layer_spans(self):
        return sum(self.calls.values()) - self.calls[PASS_SPAN]


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(name):
    return "count", "lower", lambda s: s.calls[name]


def _self(name):
    return "s", "lower", lambda s: s.self_s[name]


def _total(name):
    return "s", "lower", lambda s: s.total_s[name]


def _amount(name):
    return "count", "lower", lambda s: s.amount[name]


# metric name -> (unit, better, value from one pass's PassStats)
LAYER_METRICS = {
    "polytope.member.calls": _calls("polytope.member"),
    "polytope.member.self_s": _self("polytope.member"),
    # repeated queries, which the hull's own cache answers: redundant calls
    "polytope.member.hit_ratio": (
        "ratio", "lower", lambda s: _ratio(s.amount["polytope.member"], s.calls["polytope.member"])
    ),
    "polytope.SimplexPolytope.barycentric.calls": _calls("polytope.SimplexPolytope.barycentric"),
    "polytope.SimplexPolytope.barycentric.self_s": _self("polytope.SimplexPolytope.barycentric"),
    "ratmat.solve_rectangular.calls": _calls("ratmat.solve_rectangular"),
    "ratmat.solve_rectangular.self_s": _self("ratmat.solve_rectangular"),
    "ratmat.det.calls": _calls("ratmat.det"),
    "ratmat.det.self_s": _self("ratmat.det"),
    "certificates.certify_not_sos.calls": _calls("certificates.certify_not_sos"),
    "certificates.certify_not_sos.total_s": _total("certificates.certify_not_sos"),
    "certificates.discover_certificate.calls": _calls("certificates.discover_certificate"),
    "certificates.discover_certificate.self_s": _self("certificates.discover_certificate"),
    "certificates.verify_certificate.calls": _calls("certificates.verify_certificate"),
    "certificates.verify_certificate.self_s": _self("certificates.verify_certificate"),
    "generate.direct_search.total_s": _total("generate.direct_search"),
    "generate.direct_search.examined": (
        "count", "lower", lambda s: s.under["generate.make_instance", "generate.direct_search"]
    ),
    "generate.direct_search.tuples": (
        "count", "lower", lambda s: s.under["ratmat.det", "generate.direct_search"]
    ),
    "generate.direct_search.hit_ratio": (
        "ratio", "higher",
        lambda s: _ratio(
            s.amount["generate.direct_search"], s.under["generate.make_instance", "generate.direct_search"]
        ),
    ),
    "generate.homogenize_lift.total_s": _total("generate.homogenize_lift"),
    "exactpoly.evaluate.calls": _calls("exactpoly.evaluate"),
    "exactpoly.evaluate.self_s": _self("exactpoly.evaluate"),
    "holder.control_field.calls": _calls("holder.control_field"),
    "holder.control_field.self_s": _self("holder.control_field"),
    "finitediff.directional_derivative.calls": _calls("finitediff.directional_derivative"),
    "finitediff.directional_derivative.self_s": _self("finitediff.directional_derivative"),
    "holder.check_slow_variation.calls": _calls("holder.check_slow_variation"),
    "holder.check_slow_variation.self_s": _self("holder.check_slow_variation"),
    "holder.estimate_seminorm.calls": _calls("holder.estimate_seminorm"),
    "holder.estimate_seminorm.self_s": _self("holder.estimate_seminorm"),
    "cover.build_cover.calls": _calls("cover.build_cover"),
    "cover.build_cover.self_s": _self("cover.build_cover"),
    "cover.build_cover.balls": _amount("cover.build_cover"),
    "cover.partition_functions.self_s": _self("cover.partition_functions"),
    "cover.color_classes.calls": _calls("cover.color_classes"),
    "cover.color_classes.self_s": _self("cover.color_classes"),
    "cover.color_classes.balls": _amount("cover.color_classes"),
    "cover.overlap_counts.self_s": _self("cover.overlap_counts"),
    "decompose.decompose.calls": _calls("decompose.decompose"),
    "decompose.decompose.self_s": _self("decompose.decompose"),
    "decompose.fiber_eval.calls": _calls("decompose.fiber_eval"),
    "decompose.fiber_eval.self_s": _self("decompose.fiber_eval"),
    "decompose.fiber_eval.points": _amount("decompose.fiber_eval"),
    "decompose.evaluate_1d_squares.self_s": _self("decompose.evaluate_1d_squares"),
    "decompose.partial_decompose.self_s": _self("decompose.partial_decompose"),
    "decompose.verify.self_s": _self("decompose.verify"),
    # the pass's own span: its total is the traced wall time of a pass, its self
    # time the harness's own input handling and output checks
    "harness.pass.total_s": _total(PASS_SPAN),
    "harness.pass.self_s": _self(PASS_SPAN),
    "harness.spans": ("count", "lower", lambda s: s.layer_spans()),
    # what the wrappers add to a pass: spans times the measured cost of one
    "harness.span_overhead_s": ("s", "lower", lambda s: s.layer_spans() * s.span_cost),
}


def layer_metrics(stats: dict[int, PassStats]) -> dict[str, dict]:
    """Median over passes of every per-layer metric."""
    out = {}
    for name, (unit, _, value) in LAYER_METRICS.items():
        out[name] = {"value": statistics.median(value(s) for s in stats.values()), "unit": unit}
    return out
