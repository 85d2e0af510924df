"""Timing wrappers around the public functions of each fabius layer.

Spans are recorded from outside the program: :meth:`Tracer.install` replaces each
traced function by a wrapper in every fabius module that holds a reference
to it (the defining module, modules that bound it with ``from ... import``,
and the package namespace), so calls between modules are traced as well as
calls from the client.  The originals are kept in ``Tracer.originals`` so
that ``cache_info()`` of the lru-cached ones stays readable.

``core`` gets no spans: its functions take microseconds and run inside the
loops of ``exact``, so a span there would mostly time the tracer.  Its cost
shows up in the self time of the ``exact`` spans that call it.

Standard library only, so tracing adds no imports to the traced process.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# (layer, public function); "CoefficientTable.build" is a classmethod.
TARGETS = (
    ("cli", "main"),
    ("cli", "level_denominator"),
    ("cli", "render_table"),
    ("exact", "phi_exact"),
    ("exact", "phi_derivative"),
    ("exact", "taylor_at"),
    ("exact", "level_denominator_bound"),
    ("coefficients", "phi_near_one"),
    ("coefficients", "series_coefficients"),
    ("coefficients", "exp_moment_coefficients"),
    ("coefficients", "moment"),
    ("coefficients", "CoefficientTable.build"),
    ("spectral", "fourier_coefficients"),
    ("spectral", "phi_fourier"),
    ("stochastic", "mc_phi"),
    ("approximants", "step_function"),
    ("approximants", "partition_polynomial"),
)

LAYERS = ("cli", "exact", "coefficients", "spectral", "stochastic", "approximants")

# lru-cached public functions whose cache_info() feeds the cache metrics
CACHED = ("series_coefficients", "exp_moment_coefficients", "phi_near_one")


def fold_key(t) -> tuple[int, int] | None:
    """The point phi_exact actually evaluates after its evenness and reflection
    folds, or None outside (-1, 1) where no work is done."""
    if hasattr(t, "exp"):
        q, n = t.num, t.exp
    else:
        f = Fraction(t)
        q, n = f.numerator, f.denominator.bit_length() - 1
    q = abs(q)
    if q >= 1 << n:
        return None
    if 2 * q > 1 << n:
        q = (1 << n) - q
    return q, n


class Tracer:
    """Spans in memory: ``[name_id, start_ns, end_ns, parent_index, op]``,
    times relative to the tracer's creation, written once by :meth:`dump`.
    ``op`` is the client op being served; the caller sets it."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter_ns()
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.originals: dict[str, object] = {}
        self.phi_points: set = set()
        self.mc_samples = 0
        self.install_s = 0.0
        self.op = 0
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter_ns, self.t0

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            span = [name_id, 0, 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock() - t0
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock() - t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _phi_hook(self, args, kwargs):
        t = args[0] if args else kwargs["t"]
        key = fold_key(t)
        if key is not None:
            self.phi_points.add(key)

    def _mc_hook(self, args, kwargs):
        self.mc_samples += args[1] if len(args) > 1 else kwargs["samples"]

    def install(self) -> None:
        """Wrap every target in every loaded fabius module that refers to it.
        Targets in modules the process never imported are left out."""
        start = time.perf_counter()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fabius" or name.startswith("fabius."))]
        hooks = {"phi_exact": self._phi_hook, "mc_phi": self._mc_hook}
        for layer, name in TARGETS:
            home = sys.modules.get(f"fabius.{layer}")
            if home is None:
                continue
            if name == "CoefficientTable.build":
                cls = home.CoefficientTable
                original = cls.__dict__["build"].__func__
                self.originals[name] = original
                cls.build = classmethod(self.wrap(f"{layer}.{name}", original))
                continue
            original = getattr(home, name)
            self.originals[name] = original
            traced = self.wrap(f"{layer}.{name}", original, hooks.get(name))
            for module in modules:
                if module.__dict__.get(name) is original:
                    setattr(module, name, traced)
        self.install_s = time.perf_counter() - start

    def cache_counts(self) -> dict[str, int]:
        counts = {"entries": 0, "hits": 0, "misses": 0}
        for name in CACHED:
            original = self.originals.get(name)
            if original is None:
                continue
            info = original.cache_info()
            counts["entries"] += info.currsize
            counts["hits"] += info.hits
            counts["misses"] += info.misses
        return counts

    def record(self) -> dict:
        """A snapshot; later calls add no spans to it."""
        return {
            "names": list(self.names),
            "spans": list(self.spans),
            "phi_points": len(self.phi_points),
            "mc_samples": self.mc_samples,
            "cache": self.cache_counts(),
            "install_s": self.install_s,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(), fh, separators=(",", ":"))


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost one span adds to a call, on this machine, now."""
    def noop():
        return None

    samples = []
    for _ in range(3):
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - plain) / calls)
    samples.sort()
    return max(samples[1], 0.0)


def summarize(records: list[dict], op_wall_s: float, span_cost: float) -> dict[str, tuple]:
    """Per-layer metrics ``name -> (value, unit)`` from the records of every
    traced process of one run.  ``op_wall_s`` is the traced ops' total wall
    time, the base of each layer's share.  A ratio whose base is zero is None.

    A span's self time is its duration minus the durations of its direct
    children; a layer's ``.s`` counts only its outermost spans, so time a
    layer spends inside itself is not counted twice.
    """
    per_fn = {f"{layer}.{name}": [0, 0, 0] for layer, name in TARGETS}  # calls, ns, self ns
    layer_ns = dict.fromkeys(LAYERS, 0)
    layer_self_ns = dict.fromkeys(LAYERS, 0)
    spans_total = phi_points = mc_samples = 0
    install_s = 0.0
    cache = {"entries": 0, "hits": 0, "misses": 0}
    for rec in records:
        names, spans = rec["names"], rec["spans"]
        layer_of = [n.split(".", 1)[0] for n in names]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_id, start, end, parent, _) in enumerate(spans):
            dur = end - start
            acc = per_fn[names[name_id]]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child_ns[i]
            layer = layer_of[name_id]
            layer_self_ns[layer] += dur - child_ns[i]
            if parent < 0 or layer_of[spans[parent][0]] != layer:
                layer_ns[layer] += dur
        spans_total += len(spans)
        phi_points += rec["phi_points"]
        mc_samples += rec["mc_samples"]
        install_s += rec["install_s"]
        for key in cache:
            cache[key] += rec["cache"][key]

    def ratio(a, b):
        return a / b if b else None

    out: dict[str, tuple] = {}
    for fn, (calls, ns, self_ns) in per_fn.items():
        out[f"{fn}.calls"] = (calls, "count")
        out[f"{fn}.s"] = (ns / 1e9, "s")
        out[f"{fn}.self_s"] = (self_ns / 1e9, "s")
    for layer in LAYERS:
        out[f"{layer}.s"] = (layer_ns[layer] / 1e9, "s")
        out[f"{layer}.self_s"] = (layer_self_ns[layer] / 1e9, "s")
        out[f"{layer}.self_share"] = (100 * ratio(layer_self_ns[layer] / 1e9, op_wall_s), "%")
    phi_calls = per_fn["exact.phi_exact"][0]
    out["exact.phi_exact.distinct"] = (phi_points, "count")
    out["exact.phi_exact.distinct_ratio"] = (ratio(phi_points, phi_calls), "ratio")
    out["coefficients.cache_entries"] = (cache["entries"], "count")
    out["coefficients.cache_hits"] = (cache["hits"], "count")
    out["coefficients.cache_hit_ratio"] = (
        ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    mc_ns = per_fn["stochastic.mc_phi"][1]
    out["stochastic.samples"] = (mc_samples, "count")
    out["stochastic.samples_per_s"] = (ratio(mc_samples, mc_ns / 1e9), "1/s")
    out["trace.spans"] = (spans_total, "count")
    out["trace.overhead_s"] = (spans_total * span_cost + install_s, "s")
    return out
