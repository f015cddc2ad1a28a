"""Span tracer for the linset benchmark.

``Tracer.install`` wraps the public functions named in ``SPANS``.  A plain
function is replaced at every module of the ``linset`` package that holds it
by name (``cli.iterate_trace``, ``analysis.apply_linear_op``, ...), so no
call site is missed; ``EPSet`` methods are replaced on the class.

Each wrapped call records a span (name, start, end, parent span, item id).
Self time is the span's duration minus the durations of its direct child
spans.  Calls, self times and the size counters in ``SIZES`` accumulate per
pass; spans are kept in memory for the first pass and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, function) pairs; "EPSet.<method>" names a method of linset.epset.EPSet
SPANS = (
    ("epset", "EPSet.__init__"), ("epset", "EPSet.dilate"), ("epset", "EPSet.negate"),
    ("epset", "EPSet.minkowski"), ("epset", "EPSet.union"),
    ("epset", "EPSet.restrict_nonnegative"), ("epset", "EPSet.to_expr"),
    ("linops", "apply_linear_op"), ("linops", "compose_coefficients"),
    ("stability", "iterate_trace"), ("stability", "full_periodicity_onset"),
    ("stability", "verify_stabilization"),
    ("residue", "cardinality_sweep"), ("residue", "gamma_mod"),
    ("residue", "period_shift"), ("residue", "residue_orbit"),
    ("residue", "decompose_equality_case"),
    ("analysis", "dplus"), ("analysis", "stability_time"),
    ("constructions", "bohr_truncation"), ("constructions", "finite_gamma"),
    ("cli", "parse_set_expression"), ("cli", "parse_ops"), ("cli", "render_json"),
)


def _width(s):
    return max(0, s.hi - s.lo + 1)


def _minkowski(args, result):
    s, t = args[0], args[1]
    return {"max_width": max(_width(s), _width(t)),
            "max_period": max(s.period, t.period),
            "window_bits": s.window.bit_count() + t.window.bit_count()}


def _sweep_masks(args, result):
    masks = args[3] if len(args) > 3 else None
    return {"masks": (1 << args[0]) if masks is None else len(masks)}


# size counters: span name -> (stats, function(args, result) -> {stat: value})
SIZES = {
    "epset.minkowski": (("max_width", "max_period", "window_bits"), _minkowski),
    "linops.compose_coefficients": (("terms",), lambda args, res: {"terms": len(res.terms)}),
    "stability.iterate_trace": (("steps",), lambda args, res: {"steps": len(res.iterates) - 1}),
    "residue.cardinality_sweep": (("masks",), _sweep_masks),
    "residue.residue_orbit": (("states",), lambda args, res: {"states": len(res.states)}),
}
# stats aggregated by maximum; every other size stat is summed
MAX_STATS = {"max_width", "max_period", "terms"}


def span_name(module: str, func: str) -> str:
    return "%s.%s" % (module, func.split(".")[-1])


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for module, func in SPANS:
        base = span_name(module, func)
        names += [base + ".calls", base + ".self_s"]
    for base, (stats, _) in SIZES.items():
        names += [base + "." + stat for stat in stats]
    return names


class Tracer:
    def __init__(self):
        self.names = [span_name(m, f) for m, f in SPANS]
        self.item = -1
        self.keep_spans = True
        self._stack = []        # open spans: [span id, start, child time]
        self._next_id = 0
        self._spans = {k: array("q") for k in ("id", "parent", "item", "name")}
        self._times = {k: array("d") for k in ("start", "end")}
        self.reset()

    def reset(self):
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.sizes = {}

    def _wrap(self, idx, fn):
        stack = self._stack
        name = self.names[idx]
        sizer = SIZES[name][1] if name in SIZES else None
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[idx] += dur - frame[2]
                tracer.calls[idx] += 1
                if stack:
                    stack[-1][2] += dur
                if tracer.keep_spans:
                    tracer._record(sid, parent, idx, frame[1], end)
            if sizer is not None:
                for stat, value in sizer(args, result).items():
                    key = name + "." + stat
                    old = tracer.sizes.get(key, 0)
                    tracer.sizes[key] = max(old, value) if stat in MAX_STATS else old + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, sid, parent, idx, start, end):
        s = self._spans
        s["id"].append(sid)
        s["parent"].append(parent)
        s["item"].append(self.item)
        s["name"].append(idx)
        self._times["start"].append(start)
        self._times["end"].append(end)

    def install(self):
        package = [m for n, m in sys.modules.items()
                   if n == "linset" or n.startswith("linset.")]
        for idx, (module, func) in enumerate(SPANS):
            mod = importlib.import_module("linset." + module)
            if func.startswith("EPSet."):
                cls, meth = mod.EPSet, func.split(".", 1)[1]
                setattr(cls, meth, self._wrap(idx, cls.__dict__[meth]))
                continue
            orig = getattr(mod, func)
            wrapped = self._wrap(idx, orig)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

    def snapshot(self) -> dict:
        """Per-layer values accumulated since the last reset."""
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[idx]
            out[name + ".self_s"] = self.self_s[idx]
        for key in metric_names():
            if key not in out:
                out[key] = self.sizes.get(key, 0)
        return out

    def span_count(self) -> int:
        return len(self._spans["id"])

    def write_spans(self, path):
        """Write the kept spans as gzip-compressed tab-separated rows."""
        s, t = self._spans, self._times
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for i in range(len(s["id"])):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    s["id"][i], s["parent"][i], s["item"][i],
                    self.names[s["name"][i]], t["start"][i], t["end"][i]))
