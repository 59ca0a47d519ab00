"""In-memory span tracer that wraps fibershift from the outside.

``Tracer.installed()`` replaces every public function of every fibershift
module except the CLI front end (each CLI operation's root span stands for
it), plus ``numpy.linalg.svd``/``eigh``/``eigvalsh``/``qr``, with a
wrapper that records one span per call: name, trace id, span id, parent,
start and end (process CPU seconds, like every benchmark timing) and,
inside the layers of ``Tracer.peak_layers``, the tracemalloc peak above the
span's starting allocation. Functions imported into other modules by name
are replaced there too, so intra-package calls are seen. On exit every original is put back.

Spans stay in memory; ``write_jsonl`` dumps them when the benchmark ends and
``layer_metrics`` folds one pass of spans into per-layer numbers: busy time,
self time (duration minus the time covered by child spans), call counts and
computed bytes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import pkgutil
import time
import tracemalloc

import numpy as np

# layers whose peak memory is reported. tracemalloc runs only inside them,
# because tracing every allocation costs more than the traced work itself,
# and only in a pass of its own: inside range_from_generators it still
# slows desk-analyze by about a third, too much for the pass that is timed
PEAK_LAYERS = {"ranges.range_from_generators", "factorization.verify_decomposition",
               "fileio.load_decomposition"}

# numpy.linalg entry points fibershift calls, and the layer each counts under
LINALG = {"svd": "subspaces.svd", "eigh": "subspaces.eigh",
          "eigvalsh": "subspaces.eigh", "qr": "subspaces.qr"}


class Span:
    __slots__ = ("name", "trace_id", "span_id", "parent", "start", "end",
                 "peak_bytes", "_abs_peak", "_start_mem", "_owns_tracing")

    def __init__(self, name, trace_id, span_id, parent):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.start = self.end = 0.0
        self.peak_bytes = 0
        self._abs_peak = 0
        self._start_mem = 0
        self._owns_tracing = False

    def as_dict(self) -> dict:
        return {"name": self.name, "trace": self.trace_id, "id": self.span_id,
                "parent": self.parent, "start": self.start, "end": self.end,
                "peak_bytes": self.peak_bytes}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self._trace_id = ""
        self._next_id = 0
        self.peak_layers: frozenset[str] = frozenset()   # tracemalloc inside

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> Span:
        self._next_id += 1
        span = Span(name, self._trace_id, self._next_id,
                    self._stack[-1].span_id if self._stack else None)
        if name in self.peak_layers and not tracemalloc.is_tracing():
            tracemalloc.start()
            span._owns_tracing = True
        if tracemalloc.is_tracing():
            # the parent's peak so far is kept before this span resets it
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent._abs_peak = max(parent._abs_peak, peak)
            tracemalloc.reset_peak()
            span._start_mem = span._abs_peak = cur
        self._stack.append(span)
        span.start = time.process_time()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.process_time()
        self._stack.pop()
        if tracemalloc.is_tracing():
            span._abs_peak = max(span._abs_peak, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span._abs_peak - span._start_mem
            if self._stack:
                parent = self._stack[-1]
                parent._abs_peak = max(parent._abs_peak, span._abs_peak)
            tracemalloc.reset_peak()
        if span._owns_tracing:
            tracemalloc.stop()
        self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def root(self, name: str, trace_id: str):
        """Span around one benchmark operation; its calls share trace_id."""
        self._trace_id = trace_id
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "subspaces.svd" and any(
                    s.name == "subspaces.op_norm" for s in tracer._stack):
                tracer.count("subspaces.svd.values_only")
            span = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                if name == "subspaces.svd":
                    tracer.count("subspaces.svd.retries")
                raise
            finally:
                tracer._exit(span)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap fibershift and numpy.linalg for the duration of the block."""
        import fibershift

        modules = [fibershift] + [
            importlib.import_module(f"fibershift.{info.name}")
            for info in pkgutil.iter_modules(fibershift.__path__)]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            if mod.__name__ == "fibershift.cli":
                continue        # the root span of each CLI operation covers it
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj,
                                               _AFTER.get(f"{short}.{attr}"))
        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for attr, layer in LINALG.items():
            orig = getattr(np.linalg, attr)
            patched.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._wrap(layer, orig))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, directly or in sequences."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return sum(_array_bytes(v) for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, (np.ndarray, tuple, list)))


def _field_bytes(tracer, args, kwargs, out):
    tracer.count("factorization.field_bytes", _array_bytes(out.field))


def _fshd_bytes(tracer, args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.count("fileio.fshd_bytes", os.path.getsize(path))


def _closure_size(tracer, args, kwargs, out):
    tracer.count("shifts.closure_generators", len(out))


# computed facts recorded when a wrapped call returns
_AFTER = {
    "factorization.decompose_range": _field_bytes,
    "fileio.save_decomposition": _fshd_bytes,
    "shifts.shat_closure": _closure_size,
}

# span names reported under one layer name
ALIASES = {"fileio.render_text": "fileio.render",
           "fileio.render_csv": "fileio.render"}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers for one pass.

    For each span name: ``.calls``, ``.s`` (busy time: the union of the
    layer's spans, so recursion is not counted twice), ``.self_s`` (each
    span's duration minus the part covered by its direct children) and
    ``.peak_mb`` for ``PEAK_LAYERS`` (largest tracemalloc peak of one call).
    Counters recorded by the wrappers are passed through.
    ``trace.self_sum_s`` is the total self time, which equals the time
    inside root spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(ALIASES.get(s.name, s.name), []).append(s)
    out: dict[str, float] = {}
    self_total = 0.0
    for name, group in by_name.items():
        self_s = sum((s.end - s.start) - _covered(children.get(s.span_id, []))
                     for s in group)
        self_total += self_s
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = _covered([(s.start, s.end) for s in group])
        out[f"{name}.self_s"] = self_s
        if name in PEAK_LAYERS:
            out[f"{name}.peak_mb"] = max(s.peak_bytes for s in group) / 1e6
    out.update(counters)
    svd_calls = out.get("subspaces.svd.calls", 0)
    out["subspaces.svd.values_only_ratio"] = (
        counters.get("subspaces.svd.values_only", 0) / svd_calls if svd_calls else 0.0)
    out["trace.self_sum_s"] = self_total
    return out
