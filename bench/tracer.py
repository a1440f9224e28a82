"""In-memory span tracer that wraps dmage's public functions from outside.

Every public function defined in a layer module is replaced, at each name
under which a ``dmage`` module holds it, by a wrapper that counts the call
and records a span ``[name, parent, start, end]``.  Callers that look the
name up at call time (``dmage.training.fused_loss``, a local ``from .x
import y``, ``dmage.train`` from this benchmark) therefore reach the
wrapper; the library itself is not edited.

A call made inside two or more enclosing spans of its own layer is counted
but gets no span of its own: its time stays in the enclosing span.  That
keeps ``calibrate_all``'s per-row bisection (hundreds of thousands of
``t_kernel`` calls) from dominating the trace while still giving
``train -> precompute`` and ``calibrate_all`` spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "graph",
    "distances",
    "similarity",
    "container",
    "augmentation",
    "network",
    "losses",
    "training",
    "evaluation",
)
# same-layer nesting depth from which calls are counted but not spanned
SPAN_DEPTH = 2


class Tracer:
    """Context manager: patch on enter, restore every patched name on exit.

    ``observers`` maps a qualified name such as ``"augmentation.augment"`` to
    ``fn(args, kwargs, result)``, called after each successful call.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []
        self.calls = Counter()
        self._stack = []
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dmage.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        try:
            for module in [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "dmage"]:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, qual, layer, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter
        observer = self.observers.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            top = stack[-1] if stack else None
            depth = top[2] + 1 if top is not None and top[1] == layer else 0
            if depth >= SPAN_DEPTH:
                stack.append((top[0], layer, depth))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
            else:
                span = [qual, top[0] if top is not None else None, clock(), None]
                stack.append((len(spans), layer, depth))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[3] - s[2]
        return own

    def summary(self):
        """``(inclusive_s, self_s)`` keyed by qualified name and by layer."""
        inclusive, own = defaultdict(float), defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            inclusive[span[0]] += span[3] - span[2]
            own[span[0]] += self_s
            own[span[0].split(".")[0]] += self_s
        return inclusive, own

    def write(self, path):
        """Spans as JSON lines, start/end relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "parent": parent, "start": start - t0, "end": end - t0}
                    )
                    + "\n"
                )



def call_costs(repeats: int = 20000):
    """Seconds the wrapper adds to one spanned and to one counted-only call.

    Each is the median of five timings of ``repeats`` calls to a wrapped
    no-op, less the same calls unwrapped.
    """

    def noop():
        return None

    def per_call(tracer, wrapped):
        costs = []
        for _ in range(5):
            del tracer.spans[:]
            t0 = time.perf_counter()
            for _ in range(repeats):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(repeats):
                noop()
            costs.append((2 * t1 - t0 - time.perf_counter()) / repeats)
        return sorted(costs)[2]

    tracer = Tracer()
    wrapped = tracer._wrap("bench.noop", "bench", noop)
    spanned = per_call(tracer, wrapped)
    # two enclosing same-layer frames put calls past SPAN_DEPTH
    tracer._stack.extend([(None, "bench", 0), (None, "bench", 1)])
    counted = per_call(tracer, wrapped)
    return spanned, counted
