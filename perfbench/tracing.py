"""Timing wrappers around the package's public module functions.

Only the traced run installs them; timed runs carry no wrappers.  Each
wrapped call records a span (name, start, end, parent).  Because the
package calls across modules through module attributes (``tiling.expand``,
``process.sample_many``, ...), replacing those attributes routes calls
between layers through the wrappers too.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span's duration
minus the time covered by its child spans.

``groups`` is deliberately not wrapped: it is called ~10^5 times per op, so
a wrapper would dominate; its time lands in the self time of its callers.
The tracer keeps one span stack, so traced runs use one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _variant_label(spec, *args, **kwargs) -> str:
    return {"Bernoulli": "bernoulli", "MarkovLine": "markov_line",
            "PeriodicOverlay": "periodic_overlay"}.get(type(spec).__name__, "other")


def _ratio_label(spec, F, K) -> str:
    # The package switches from set arithmetic to packed arrays above
    # |F| * |K| = 20000; the two sides are reported apart.
    return "small" if len(F) * len(K) <= 20000 else "large"


# (module, function, span namer or None).  A namer maps the call's
# arguments to a span label, so one function can report several layers.
WRAPPED = (
    ("tiling", "sample_address", None),
    ("tiling", "sample_straight_address", None),
    ("tiling", "expand", None),
    ("orders", "to_increments", None),
    ("orders", "from_increments", None),
    ("orders", "act", None),
    ("orders", "interval", None),
    ("process", "sample_many", _variant_label),
    ("process", "sample", None),
    ("entropy", "mc_integral", None),
    ("entropy", "remote_past_mi", None),
    ("entropy", "successor_consistency", None),
    ("entropy", "make_frame", None),
    ("entropy", "successor_step", None),
    ("folner", "invariance_ratio", _ratio_label),
    ("folner", "full_tile_records", None),
    ("cli", "main", None),
)

# Spans reported as per-layer metrics, with the figures kept for each:
# "calls" (count) and "self_ms" (ms).  Every figure is per timed op.
SPAN_METRICS = (
    ("tiling.sample_address", ("calls", "self_ms")),
    ("tiling.sample_straight_address", ("self_ms",)),
    ("tiling.expand", ("self_ms",)),
    ("orders.to_increments", ("self_ms",)),
    ("orders.from_increments", ("self_ms",)),
    ("orders.act", ("calls", "self_ms")),
    ("orders.interval", ("calls", "self_ms")),
    ("process.sample_many.markov_line", ("self_ms",)),
    ("process.sample_many.bernoulli", ("self_ms",)),
    ("process.sample_many.periodic_overlay", ("self_ms",)),
    ("process.sample", ("self_ms",)),
    ("entropy.mc_integral", ("self_ms",)),
    ("entropy.remote_past_mi", ("self_ms",)),
    ("entropy.successor_consistency", ("self_ms",)),
    ("entropy.make_frame", ("self_ms",)),
    ("entropy.successor_step", ("calls", "self_ms")),
    ("folner.invariance_ratio.small", ("calls", "self_ms")),
    ("folner.invariance_ratio.large", ("calls", "self_ms")),
    ("folner.full_tile_records", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
COUNTERS = (
    ("tiling.expand.cells", "count"),
    ("process.sample_many.draws", "count"),
    ("cli.report_bytes", "bytes"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    out = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{span}.{kind}"] = "count" if kind == "calls" else "ms"
    out["tiling.address_accept_ratio"] = "accepted/drawn"
    for name, unit in COUNTERS:
        out[name] = unit
    return out


def _label(namer, args, kwargs) -> str:
    try:
        return namer(*args, **kwargs)
    except TypeError:  # the wrapped signature changed; keep tracing
        return "other"


class Tracer:
    """Span recorder that patches module functions while installed."""

    def __init__(self):
        self.names: list = []          # span name per span
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []        # index of the parent span, or -1
        self._stack: list = []         # [span index, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.addresses_drawn = 0
        self.addresses_accepted = 0
        self.absent: list = []
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, namer in WRAPPED:
            try:
                module = importlib.import_module(f"multiorder.{mod_name}")
            except ImportError:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            self._saved.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn, namer))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._saved):
            setattr(module, fn_name, fn)
        self._saved.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up op)."""
        for seq in (self.names, self.starts, self.ends, self.parents):
            seq.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.addresses_drawn = self.addresses_accepted = 0

    def _wrap(self, base: str, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = base if namer is None else f"{base}.{_label(namer, args, kwargs)}"
            idx = len(tracer.names)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.names.append(name)
            tracer.parents.append(parent)
            start = time.perf_counter()
            tracer.starts.append(start)
            tracer.ends.append(start)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.ends[idx] = end
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            tracer._count(base, name, args, result)
            return result

        return wrapper

    def _count(self, base: str, name: str, args, result) -> None:
        if base == "tiling.expand":
            self.counts["tiling.expand.cells"] += len(result)
        elif base == "tiling.sample_straight_address":
            self.addresses_accepted += 1
            self.addresses_drawn += int(result[1]) + 1
        elif name in ("process.sample_many.bernoulli", "process.sample_many.markov_line"):
            # symbols drawn; the overlay's base draws are counted by its
            # nested base call.
            self.counts["process.sample_many.draws"] += int(result.size)

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] += value

    # -- reporting --------------------------------------------------------

    def metrics(self, ops: int, factor: float = 1.0) -> dict:
        """Per-op figures for every per-layer metric (0 where not reached);
        times are multiplied by the run's speed-correction factor."""
        ops = max(ops, 1)
        units = metric_units()
        out = {}
        for span, kinds in SPAN_METRICS:
            for kind in kinds:
                if kind == "calls":
                    value = self.calls.get(span, 0) / ops
                else:
                    value = self.self_s.get(span, 0.0) * 1e3 * factor / ops
                out[f"{span}.{kind}"] = value
        out["tiling.address_accept_ratio"] = (
            self.addresses_accepted / self.addresses_drawn if self.addresses_drawn else 0.0
        )
        for name, _ in COUNTERS:
            out[name] = self.counts.get(name, 0) / ops
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}

    def write(self, path) -> None:
        """Write the spans, one JSON object per line, times relative to the
        first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start_ms": round((self.starts[i] - t0) * 1e3, 6),
                    "end_ms": round((self.ends[i] - t0) * 1e3, 6),
                }) + "\n")
