"""Span tracer for the benchmark's traced pass.

Every span comes from a wrapper this module puts around a *public* call
of the program; the program itself knows nothing about tracing. Spans
are kept in memory (flat arrays, one entry per call) and reduced to
per-layer numbers when the pass ends. A layer's self time is its spans'
duration minus the time their child spans cover; busy time is the
duration of a layer's outermost spans (a layer re-entering itself, like
``RaggedDecoder.prefill`` calling ``add_rows`` or ``PagedKVCache.fork``
calling ``BlockAllocator.share``, is not counted twice).

The class-level wrappers exist only inside :func:`traced`; leaving the
``with`` block puts every original attribute back.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.autoscale import Autoscaler
from repro.engine import DenseLatencyModel, GenerationSession, Scheduler
from repro.engine.costs import StepCostModel
from repro.fleet import Router
from repro.model.paged_kv import BlockAllocator, PagedKVCache
from repro.model.ragged import RaggedDecoder
from repro.simcore.trace import Timeline
import repro.engine.tuner as _tuner_mod
import repro.fleet.sim as _fleet_sim_mod

_perf = time.perf_counter


def module_of(span_name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span store plus named counters.

    A span is *outer* when no enclosing span belongs to the same layer
    (see :func:`module_of`)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._module_of: list[int] = []
        self._modules: dict[str, int] = {}
        self._layer = array("i")
        self._parent = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counts: dict[str, float] = {}

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
            module = module_of(name)
            if module not in self._modules:
                self._modules[module] = len(self._depth)
                self._depth.append(0)
            self._module_of.append(self._modules[module])
        return lid

    def enter(self, lid: int) -> int:
        idx = len(self._layer)
        self._layer.append(lid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        mid = self._module_of[lid]
        self._outer.append(self._depth[mid] == 0)
        self._depth[mid] += 1
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(_perf())
        return idx

    def exit(self, idx: int) -> None:
        self._end[idx] = _perf()
        self._stack.pop()
        self._depth[self._module_of[self._layer[idx]]] -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.enter(self.layer_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call; ``after(args,
        kwargs, result)`` may add counters."""
        lid = self.layer_id(name)

        def wrapper(*args, **kwargs):
            idx = self.enter(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    @property
    def num_spans(self) -> int:
        return len(self._layer)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``outer_calls`` and ``busy_s`` (outer
        spans only) and ``self_s`` (duration minus child spans)."""
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        n = len(self._layer)
        layer = np.array(self._layer, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        outer = np.array(self._outer, dtype=bool)
        dur = np.array(self._end) - np.array(self._start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(layer, minlength=k)
        outer_calls = np.bincount(layer, weights=outer, minlength=k)
        busy = np.bincount(layer, weights=dur * outer, minlength=k)
        self_s = np.bincount(layer, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "outer_calls": int(outer_calls[i]),
                   "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def chrome_events(self) -> list[dict]:
        """The spans as chrome-trace ``X`` events (microseconds)."""
        if not len(self._layer):
            return []
        t0 = min(self._start)
        return [
            {"name": self.names[self._layer[i]], "ph": "X", "pid": 0,
             "tid": 0, "ts": (self._start[i] - t0) * 1e6,
             "dur": (self._end[i] - self._start[i]) * 1e6}
            for i in range(len(self._layer))
        ]


class TracedCosts(StepCostModel):
    """Delegating :class:`StepCostModel`: every pricing call becomes a
    ``costs`` span around the wrapped model, with prompt/run/step
    counters. Prices are the inner model's, untouched."""

    def __init__(self, inner: StepCostModel, tracer: Tracer) -> None:
        self.inner = inner
        self._prompt = tracer.wrap(
            "costs", inner.prompt_cost,
            lambda a, k, r: tracer.count("costs.prompt_calls"))
        self._decode = tracer.wrap(
            "costs", inner.decode_cost,
            lambda a, k, r: tracer.count("costs.decode_steps"))

        def count_run(args, kwargs, result):
            tracer.count("costs.decode_run_calls")
            tracer.count("costs.decode_steps", len(result))

        self._run = tracer.wrap("costs", inner.decode_run_cost, count_run)

    def prompt_cost(self, state, request):
        return self._prompt(state, request)

    def decode_cost(self, state):
        return self._decode(state)

    def decode_run_cost(self, state, steps):
        return self._run(state, steps)


def _public_methods(cls) -> list[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)]


def _targets(tracer: Tracer):
    """``(owner, attribute, span name, after-hook)`` for every wrapper."""
    def sched_advance(args, kwargs, result):
        tracer.count("sim.steps")

    def sched_record_tokens(args, kwargs, result):
        steps = args[1] if len(args) > 1 else kwargs["steps"]
        tracer.count("sim.steps", steps)

    def epoch_actions(args, kwargs, result):
        tracer.count("autoscale.actions", len(result[1]))

    hooks = {"advance": sched_advance, "record_tokens": sched_record_tokens}
    yield DenseLatencyModel, "step_time", "latency", None
    for name in _public_methods(Scheduler):
        yield Scheduler, name, "scheduler", hooks.get(name)
    yield Timeline, "record", "timeline", None
    yield Router, "route", "router", None
    yield Autoscaler, "epoch", "autoscale", epoch_actions
    yield RaggedDecoder, "prefill", "decoder.prefill", None
    yield RaggedDecoder, "add_rows", "decoder.prefill", None
    yield RaggedDecoder, "step", "decoder.step", None
    yield PagedKVCache, "fork", "paged_kv.fork", None
    for name in ("alloc", "share", "free"):
        yield BlockAllocator, name, "paged_kv.block", None
    yield GenerationSession, "step", "session", None
    # The public entry points the tuner and the functional fleet call
    # through their own module globals.
    yield _tuner_mod, "simulate_serving", "serving", None
    yield _fleet_sim_mod, "simulate_fleet", "fleet", None


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after in _targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_attributes() -> list[str]:
    """Names of program attributes that currently hold a tracer wrapper
    (empty outside :func:`traced`)."""
    found = []
    for owner, attr, _, _ in _targets(Tracer()):
        if hasattr(vars(owner)[attr], "perfbench_span"):
            found.append(f"{owner.__name__}.{attr}")
    return found
