"""Layer attribution by rebinding public functions in the traced process.

The program carries no instrumentation of its own, so the traced run
replaces each layer's public entry points — module functions in every
``repro`` module namespace that imported them, methods on their classes —
with wrappers that open a span per call.  A :class:`Tracer` keeps the spans
on a stack and accumulates, per span name, the call count and the *self
time*: the span's duration minus the part its child spans cover.  The
benchmark opens one root span around the whole timed pass, so its self
time is the residual spent outside every traced layer, and the self times
of all spans add up to the traced wall time.

Spans of a layer nest only at its outermost call (``abstract_eval``
recursing into its children, ``demo_consistent`` delegating to
``demo_consistent_many``): inner calls run untraced inside the outer span.
Only the thread that created the tracer records; pool threads and forked
worker processes run the wrappers as pass-throughs, so parallel and
served runs are attributed parent-side.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable

#: (span name, module, function) — module-level functions, rebound in
#: every loaded ``repro`` module that holds a reference to them.
FUNCTIONS = (
    ("synthesis.skeletons", "repro.synthesis.skeletons",
     "construct_skeletons"),
    ("synthesis.shape", "repro.synthesis.shape", "shape_feasible"),
    ("synthesis.domains", "repro.synthesis.domains", "hole_domain"),
    ("lang.holes.fill", "repro.lang.holes", "fill"),
    ("abstraction.consistency.def3", "repro.abstraction.consistency",
     "abstract_consistent"),
    ("synthesis.stop.same_output", "repro.synthesis.equivalence",
     "same_output"),
    ("synthesis.ranking", "repro.synthesis.ranking", "rank_queries"),
    ("parallel.run_payloads", "repro.parallel.executor", "run_payloads"),
    ("parallel.merge", "repro.parallel.merge", "replay_merge"),
)

#: (span name, module, class, methods) — rebound on the class.
METHODS = (
    ("abstraction.provenance_abs.abstract_eval",
     "repro.abstraction.provenance_abs", "ProvenanceAnalyzer",
     ("abstract_eval",)),
    ("abstraction.type_abs.feasible", "repro.abstraction.type_abs",
     "TypeAbstraction", ("feasible",)),
    ("abstraction.value_abs.feasible", "repro.abstraction.value_abs",
     "ValueAbstraction", ("feasible",)),
    ("engine.columnar.eval", "repro.engine.columnar", "ColumnarEngine",
     ("evaluate", "evaluate_tracking", "evaluate_many",
      "evaluate_tracking_many", "tracked_columns_many")),
    ("provenance.incremental.def1", "repro.provenance.incremental",
     "ConsistencyChecker", ("demo_consistent", "demo_consistent_many")),
    ("parallel.planner", "repro.parallel.planner", "ShardPlanner",
     ("plan", "plan_weighted")),
    ("synthesis.session.loop", "repro.synthesis.session",
     "SynthesisSession", ("step", "run")),
    ("serve.submit", "repro.serve.service", "SynthesisService",
     ("submit",)),
)

#: Coroutine methods, counted per call: their awaited time overlaps other
#: requests, so they open no span (request latency covers the wait).
WAITS = (
    ("serve.result", "repro.serve.service", "RequestHandle", "result"),
)

#: Counted ``__hash__`` calls (the abstract layer's cache-key cost).
HASHES = (
    ("abstraction.cells.table_hashes", "repro.abstraction.cells",
     "AbstractTable"),
    ("abstraction.cells.cell_hashes", "repro.abstraction.cells",
     "AbstractCell"),
)

#: Spans whose boolean result is a pruning verdict: ``False`` answers are
#: counted as ``<name>.false``.
VERDICTS = frozenset({"abstraction.consistency.def3",
                      "abstraction.type_abs.feasible",
                      "abstraction.value_abs.feasible"})

#: Root span around one timed pass; its self time is the residual.
ROOT = "bench"


def abstract_eval_tier(args) -> str:
    """Tier of an outermost ``abstract_eval(query, ...)`` call, read from
    the holes of the query's top operator.

    ``weak`` — the grouping/partition keys (or arithmetic columns) are a
    hole; ``strong`` — they are set and the child is concrete, so the key
    values are known; ``unresolved`` — set over a partial child (medium or
    strong, depending on the child's abstract table); ``other`` — any other
    top operator.
    """
    from repro.lang import ast
    from repro.lang.holes import Hole, is_concrete

    query = args[1]
    if isinstance(query, (ast.Group, ast.Partition)):
        param = query.keys
    elif isinstance(query, ast.Arithmetic):
        param = query.cols
    else:
        return "other"
    if isinstance(param, Hole):
        return "weak"
    return "strong" if is_concrete(query.child) else "unresolved"


#: The span split into tiers by :func:`abstract_eval_tier`.
TIERED = "abstraction.provenance_abs.abstract_eval"


class Tracer:
    """Per-name self time, call counts and plain counters of nested spans.

    ``clock`` is injectable so the self-time arithmetic can be checked on
    synthetic spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.thread = threading.get_ident()
        self._stack: list[list] = []        # [name, start, child time]
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def _recording(self) -> bool:
        return self.active and threading.get_ident() == self.thread

    # ---------------------------------------------------------- wrappers
    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with one span per outermost call into ``layer``."""
        label = abstract_eval_tier if layer == TIERED else None
        verdict = layer in VERDICTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[layer] or not tracer._recording():
                return fn(*args, **kwargs)
            name = f"{layer}.{label(args)}" if label else layer
            tracer._open[layer] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                tracer._open[layer] -= 1
            if verdict and result is False:
                tracer.counts[name + ".false"] += 1
            return result

        return traced

    def wrap_wait(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def counted(*args, **kwargs):
            if tracer._recording():
                tracer.calls[name] += 1
            return await fn(*args, **kwargs)

        return counted

    def wrap_hash(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(obj):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(obj)

        return counted

    # ------------------------------------------------------- (un)install
    def install(self) -> None:
        """Rebind every layer boundary to a traced wrapper.  Imports the
        layer modules first, so every namespace holding a reference to a
        rebound function is already loaded."""
        import importlib

        for _, module, *_ in FUNCTIONS + METHODS + WAITS + HASHES:
            importlib.import_module(module)
        loaded = [mod for name, mod in list(sys.modules.items())
                  if name == "repro" or name.startswith("repro.")]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(layer, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for method in methods:
                self._set(cls, method, self.wrap(layer, cls.__dict__[method]))
        for name, module, cls_name, method in WAITS:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, method, self.wrap_wait(name, cls.__dict__[method]))
        for name, module, cls_name in HASHES:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, "__hash__", self.wrap_hash(name, cls.__hash__))
        # Forked workers inherit the wrappers; they must not record.
        os.register_at_fork(after_in_child=self._forked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _forked(self) -> None:
        self.active = False
