"""Spans recorded from outside the package, and the per-layer metrics built from them.

``install`` replaces the traced public functions of every ``hamshadow``
module with timing wrappers, including the copies bound into other modules
by ``from .x import y`` (for example ``estimators.swap_operator``). Spans
(id, name, start, end, parent) stay in memory until the process writes them.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, function) -> span name. Functions marked True also record the
# tracemalloc peak of the call; they are the top-level memory stages.
TRACED = {
    ("shadowmap", "diagnose_detection"): ("shadowmap.diagnose_detection", False),
    ("shadowmap", "build_inverter"): ("shadowmap.build_inverter", False),
    ("shadowmap", "finite_time_choi"): ("shadowmap.finite_time_choi", True),
    ("sampler", "run_batch"): ("sampler.run_batch", False),
    ("sampler", "substream"): ("sampler.substream", False),
    ("sampler", "born_probabilities"): ("sampler.born_probabilities", False),
    ("sampler", "save_snapshots"): ("sampler.save_snapshots", False),
    ("sampler", "load_snapshots"): ("sampler.load_snapshots", False),
    ("estimators", "snapshot_amplitudes"): ("estimators.snapshot_amplitudes", False),
    ("estimators", "estimate_linear"): ("estimators.estimate_linear", False),
    ("estimators", "estimate_nonlinear"): ("estimators.estimate_nonlinear", True),
    ("qmatrix", "swap_operator"): ("qmatrix.swap_operator", False),
    ("variance", "second_moment_exact"): ("variance.second_moment_exact", False),
    ("variance", "variance_approx_nonlinear"): ("variance.variance_approx_nonlinear", False),
    ("variance", "shadow_norm_sq"): ("variance.shadow_norm_sq", True),
    ("rdu", "frame_potential_finite_time"): ("rdu.frame_potential_finite_time", False),
}

# Spans the benchmark opens around its own calls into a layer.
OWN_SPANS = ["models.build"]

# Counted per round because they run inside a per-shot or per-estimate loop.
COUNTED = ["sampler.substream", "sampler.born_probabilities",
           "qmatrix.swap_operator", "estimators.snapshot_amplitudes"]
PEAKED = [name for name, peak in TRACED.values() if peak]


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in BENCHMARK.json order."""
    out = [("import.hamshadow_s", "s")]
    for name in OWN_SPANS + [n for n, _ in TRACED.values()]:
        out.append((f"{name}_s", "s"))
        out.append((f"{name}_self_s", "s"))
        if name in COUNTED:
            out.append((f"{name}_calls", "count"))
        if name in PEAKED:
            out.append((f"{name}_peak_mb", "MB"))
    out += [("sampler.snapshot_file_bytes", "bytes"),
            ("cli.simulate_s", "s"), ("cli.estimate_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.spans = []     # [id, name, start, end, parent, peak_bytes]
        self._stack = []
        self.recording = True

    @contextmanager
    def span(self, name: str, peak: bool = False):
        if not self.recording:
            yield
            return
        rec = [len(self.spans), name, 0.0, 0.0,
               self._stack[-1] if self._stack else None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        started = peak and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        elif peak:
            tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0] if peak else 0
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            if peak:
                rec[5] = tracemalloc.get_traced_memory()[1] - base
                if started:
                    tracemalloc.stop()
            self._stack.pop()

    def wrap(self, name: str, fn, peak: bool):
        def traced(*args, **kwargs):
            with self.span(name, peak):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


class NullTracer:
    recording = False

    @contextmanager
    def span(self, name: str, peak: bool = False):
        yield


def install(tracer: Tracer) -> None:
    """Replace each traced function wherever a hamshadow module binds it."""
    import hamshadow

    modules = [m for k, m in sys.modules.items()
               if k == "hamshadow" or k.startswith("hamshadow.")]
    for (mod, fn_name), (span_name, peak) in TRACED.items():
        original = getattr(getattr(hamshadow, mod), fn_name)
        wrapper = tracer.wrap(span_name, original, peak)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def layer_metrics(spans: list) -> dict:
    """Total, self time, calls and peak per span name for one round."""
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    out = {}
    for s in spans:
        name, dur = s[1], s[3] - s[2]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
        out[f"{name}_self_s"] = (out.get(f"{name}_self_s", 0.0)
                                 + dur - child_time.get(s[0], 0.0))
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        if s[5] is not None:
            out[f"{name}_peak_mb"] = max(out.get(f"{name}_peak_mb", 0.0),
                                         s[5] / 2**20)
    return out
