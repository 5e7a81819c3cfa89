"""Per-layer tracing from outside the program.

While a traced round runs, the public functions of each mvslab module are
replaced, in the namespace of the module that calls them, by wrappers that
record a span (name, parent span, round, start, end, counters). Geometry
functions are wrapped separately in each calling module, so their time is
reported per caller. Nothing in the program changes; the originals are put
back when the round ends.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _points(args, kwargs, result):
    return {"points": args[1].size // 2}


def _cloud_queries(args, kwargs, result):
    return {"queries": len(args[0]) + len(args[1])}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _bytes_read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _evaluate_name(args, kwargs):
    with_grad = kwargs["with_grad"] if "with_grad" in kwargs else args[3]
    return "depthopt.evaluate_grad" if with_grad else "depthopt.evaluate_value"


# (module that holds the name, attribute, span name or function of the call's
# arguments, counter function or None)
WRAPS = [
    ("synth", "gen_scene", "synth.gen_scene", None),
    ("synth", "save_scene", "synth.save_scene", None),
    ("synth", "load_scene", "synth.load_scene", None),
    ("synth", "build_branch_samples", "synth.build_branch_samples", None),
    ("planesweep", "cascade_infer", "planesweep.cascade_infer", None),
    ("depthopt", "cascade_infer", "planesweep.cascade_infer", None),
    ("depthopt", "refresh_confidence", "planesweep.refresh_confidence", None),
    ("planesweep", "extract_features", "planesweep.extract_features", None),
    ("planesweep", "build_feature_volume", "planesweep.build_feature_volume", None),
    ("planesweep", "groupwise_correlation", "planesweep.groupwise_correlation", None),
    ("planesweep", "regularize_and_softmax", "planesweep.regularize_and_softmax", None),
    ("planesweep", "probability_and_confidence",
     "planesweep.probability_and_confidence", None),
    ("planesweep", "bilinear_sample", "planesweep.bilinear_sample", _points),
    ("planesweep", "project_with_depth", "planesweep.project_with_depth", None),
    ("depthopt", "bilinear_sample", "depthopt.bilinear_sample", _points),
    ("depthopt", "bilinear_sample_grad", "depthopt.bilinear_sample_grad", None),
    ("depthopt", "project_with_depth", "depthopt.project_with_depth", None),
    ("fusion", "project_with_depth", "fusion.project_with_depth", None),
    ("depthopt", "photometric_consistency_arrays",
     "losses.photometric_consistency_arrays", None),
    ("depthopt", "ssim_loss_arrays", "losses.ssim_loss_arrays", None),
    ("depthopt", "smoothness_loss", "losses.smoothness_loss", None),
    ("depthopt", "branch_consistency", "losses.branch_consistency", None),
    ("depthopt", "optimize_joint", "depthopt.optimize_joint", None),
    ("depthopt", "_evaluate", _evaluate_name, None),
    ("depthopt", "loss_grad_wrt_depth", "depthopt.loss_grad_wrt_depth", None),
    ("depthopt", "_multi_values", "depthopt.multi_values", None),
    ("depthopt", "finite_diff_grad_multi", "depthopt.finite_diff_grad_multi", None),
    ("depthopt", "audit_case", "depthopt.audit_case", None),
    ("fusion", "geometric_consistency_filter", "fusion.geometric_consistency_filter", None),
    ("fusion", "fuse_point_cloud", "fusion.fuse_point_cloud", None),
    ("fusion", "cloud_metrics", "fusion.cloud_metrics", _cloud_queries),
    ("fusion", "depth_metrics", "fusion.depth_metrics", None),
    ("fileio", "write_pfm", "fileio.write_pfm", _bytes_written),
    ("fileio", "read_pfm", "fileio.read_pfm", _bytes_read),
    ("fileio", "write_ply", "fileio.write_ply", _bytes_written),
    ("fileio", "read_ply", "fileio.read_ply", _bytes_read),
]

CLI_COMMANDS = ("gen-synth", "infer", "fuse", "eval", "optimize", "grad-check")

# Spans whose self time is reported next to their total: those with wrapped
# callees.
SELF_TIMED = [f"cli.{c}" for c in CLI_COMMANDS] + [
    "synth.save_scene", "synth.load_scene",
    "planesweep.cascade_infer", "planesweep.refresh_confidence",
    "planesweep.build_feature_volume",
    "depthopt.optimize_joint", "depthopt.evaluate_grad", "depthopt.evaluate_value",
    "depthopt.multi_values", "depthopt.audit_case",
    "fusion.geometric_consistency_filter", "fusion.fuse_point_cloud",
]

# Counts read from the commands' outputs rather than from spans.
OUTPUT_COUNTS = [
    ("depthopt.audit.checked", "count", "higher"),
    ("depthopt.audit.checked_frac", "frac", "higher"),
    ("fusion.survivors", "count", "higher"),
    ("fusion.points", "count", "higher"),
]


def _span_names() -> list[str]:
    names = [f"cli.{c}" for c in CLI_COMMANDS]
    for _, _, name, _ in WRAPS:
        for n in ([name] if isinstance(name, str)
                  else ["depthopt.evaluate_grad", "depthopt.evaluate_value"]):
            if n not in names:
                names.append(n)
    return names


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in _span_names():
        specs.append((f"{name}.s", "s", "lower"))
        if name in SELF_TIMED:
            specs.append((f"{name}.self_s", "s", "lower"))
        specs.append((f"{name}.calls", "count", "lower"))
    specs += [("planesweep.bilinear_sample.points", "count", "lower"),
              ("depthopt.bilinear_sample.points", "count", "lower"),
              ("fusion.cloud_metrics.queries", "count", "lower"),
              ("fileio.bytes_written", "bytes", "lower"),
              ("fileio.bytes_read", "bytes", "lower")]
    specs += OUTPUT_COUNTS
    specs.append(("trace_overhead_s", "s", "lower"))
    return specs


class Tracer:
    """Spans kept in memory; one Tracer per traced round."""

    def __init__(self, round_id: int):
        self.round_id = round_id
        self.spans: list[tuple] = []  # (id, parent, round, name, start, end, counters)
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[sid] = (sid, parent, self.round_id, name, start, perf_counter(), None)
            self._stack.pop()
        if counter is not None:
            self.spans[sid] = self.spans[sid][:6] + (counter(args, kwargs, result),)
        return result

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            return self.call(span, fn, args, kwargs, counter)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every WRAPS entry that exists in `modules` until exit."""
        saved = []
        for mod_name, attr, name, counter in WRAPS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Totals over spans: <name>.s, <name>.self_s, <name>.calls and summed
    counters, keyed as per-layer metric names."""
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, name, start, end, _ in spans:
        child_time[parent] += end - start
    for sid, parent, _, name, start, end, counts in spans:
        dur = end - start
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child_time[sid]
        out[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            if key.startswith("bytes"):
                out[f"fileio.{key}"] += value
            else:
                out[f"{name}.{key}"] += value
    return out
