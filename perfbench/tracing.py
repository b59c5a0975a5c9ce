"""Spans around the calls between stein_shrink's layers, recorded from outside.

The program is not changed: `Tracer.install` replaces public functions at the
import bindings through which one layer calls another (in `stein_shrink.cli`,
`stein_shrink.acceptance` and `stein_shrink.exact_risk`), plus the entry points
`cli.run` and `acceptance.run_all`, with wrappers that record a span per call.
`uninstall` restores the originals, so untraced runs execute no wrapper.

`core`, `conditional`, `geometry` and `svgplot` are not wrapped: they are
closed forms taking microseconds per call, and their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("special", "exact_risk", "estimators", "monte_carlo", "cli", "acceptance")
BINDING_MODULES = ("cli", "acceptance", "exact_risk")
ENTRY_POINTS = (("cli", "run"), ("acceptance", "run_all"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "via", "n")

    def __init__(self, name, start, parent, op, via, n):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.via, self.n = parent, op, via, n

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # set by the caller before each top-level invocation
        self._stack = []
        self._saved = []

    def _wrap(self, module, attr, fn, layer, via):
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)
        counts_n = "n" in sig.parameters  # the Monte Carlo replication count
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = sig.bind(*args, **kwargs).arguments["n"] if counts_n else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent, tracer.op, via, n)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def install(self):
        modules = {m: importlib.import_module(f"stein_shrink.{m}") for m in LAYERS}
        for via in BINDING_MODULES:
            module = modules[via]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rsplit(".", 1)[-1]
                if layer in LAYERS and layer != via:
                    self._wrap(module, attr, obj, layer, via)
        for layer, attr in ENTRY_POINTS:
            module = modules[layer]
            self._wrap(module, attr, getattr(module, attr), layer, layer)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "op": s.op, "via": s.via, "n": s.n,
                }) + "\n")


def layer_metrics(all_spans, batch):
    """Per-layer counts and times over the spans of one batch.

    busy: time inside the layer, each interval counted once (a span counts
    only when no ancestor belongs to the same layer).  self: busy time minus
    the time covered by the layer's direct child spans in other layers.
    """
    picked = [i for i, s in enumerate(all_spans) if s.op is not None and s.op[0] == batch]
    child_time = {}
    for i in picked:
        parent = all_spans[i].parent
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + all_spans[i].duration
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i in picked:
        s = all_spans[i]
        self_time[s.layer] += s.duration - child_time.get(i, 0.0)
        ancestor = s.parent
        while ancestor >= 0 and all_spans[ancestor].layer != s.layer:
            ancestor = all_spans[ancestor].parent
        if ancestor < 0:
            busy[s.layer] += s.duration
    spans = [all_spans[i] for i in picked]
    mc = [s for s in spans if s.layer == "monte_carlo"]
    return {
        "special.inv_moment.calls": sum(
            1 for s in spans
            if s.name == "special.inv_noncentral_chisq_mean" and s.via == "exact_risk"),
        "exact_risk.busy_s": busy["exact_risk"],
        "exact_risk.self_s": self_time["exact_risk"],
        "monte_carlo.calls": len(mc),
        "monte_carlo.replications": sum(s.n or 0 for s in mc),
        "monte_carlo.busy_s": busy["monte_carlo"],
        "cli.self_s": self_time["cli"],
        "trace.spans": len(spans),
    }


def median_metrics(per_batch):
    return {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
