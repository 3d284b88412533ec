"""In-memory span tracing around each layer's public entry points.

A :class:`Tracer` keeps spans as small lists in memory and writes them
once, at the end of a traced run, as Chrome trace-event JSON (stdlib
``json``; opens in Perfetto or ``chrome://tracing``).  :func:`install`
wraps the public functions the benchmark calls into, so spans nest as
request -> ``serving.step`` -> ``models`` / ``session.compile`` (->
``executor.compile``) / ``session.run`` -> ``node``.  Node spans come
from :class:`TimedEngine`, an execution engine that times each
``dispatch_step`` of a compiled program.

Tracing is installed only in ``--trace 1`` runs; the end-to-end numbers
come from runs where none of this is loaded into the call path.
"""

from __future__ import annotations

import itertools
import json
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.core.engine import SerialEngine, dispatch_step
from repro.core.executor import Executor
from repro.core.session import CompiledProgram, Session
from repro.models import transformer
from repro.serving import scheduler as scheduler_mod

#: Span layout: ``[id, parent_id, category, name, start_ns, end_ns, args]``.
ID, PARENT, CAT, NAME, START, END, ARGS = range(7)

_clock = time.perf_counter_ns


class Tracer:
    """Collects closed spans; the open-span stack supplies parent ids."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = [0]
        self._ids = itertools.count(1)
        #: every CompiledProgram a traced ``Session.compile`` returned
        self.compiled: "weakref.WeakSet[CompiledProgram]" = weakref.WeakSet()

    @property
    def current(self) -> int:
        return self._stack[-1]

    def open(self, cat: str, name: str, args: Optional[dict] = None) -> list:
        span = [next(self._ids), self._stack[-1], cat, name, _clock(), 0, args]
        self._stack.append(span[ID])
        return span

    def close(self, span: list) -> None:
        span[END] = _clock()
        self._stack.pop()
        self.spans.append(span)

    def record(self, cat: str, name: str, start_ns: int, end_ns: int,
               parent: int, args: Optional[dict] = None) -> list:
        span = [next(self._ids), parent, cat, name, start_ns, end_ns, args]
        self.spans.append(span)
        return span

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as Chrome trace events: complete (``X``) events on one
        thread track, requests as async (``b``/``e``) pairs beside it."""
        t0 = min((s[START] for s in self.spans), default=0)
        events = []
        for span in self.spans:
            args = {"id": span[ID], "parent": span[PARENT], **(span[ARGS] or {})}
            ts = (span[START] - t0) / 1e3
            if span[CAT] == "request":
                common = {"name": span[NAME], "cat": "request", "id": span[ID],
                          "pid": 1, "tid": 1}
                events.append({**common, "ph": "b", "ts": ts, "args": args})
                events.append({**common, "ph": "e",
                               "ts": (span[END] - t0) / 1e3})
            else:
                events.append({"name": span[NAME], "cat": span[CAT], "ph": "X",
                               "ts": ts, "dur": (span[END] - span[START]) / 1e3,
                               "pid": 1, "tid": 1, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": metadata}

    def write_chrome_trace(self, path, metadata: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)


def duration_ms(span: list) -> float:
    return (span[END] - span[START]) / 1e6


def child_ms(spans: List[list]) -> Dict[int, Dict[str, float]]:
    """parent id -> category -> summed duration (ms) of its direct children."""
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        out[span[PARENT]][span[CAT]] += duration_ms(span)
    return out


class TimedEngine(SerialEngine):
    """The serial dispatch loop with one ``node`` span per dispatched step.

    Step ``i`` of a compiled program runs node ``plan.order[i]`` of the
    planned graph, which is how spans get their node names.
    """

    name = "serial-timed"

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def execute(self, steps, plan=None, context=None) -> None:
        work = plan.fused_program if plan.fused_program is not None \
            else context.program
        names = [work.nodes[i].name for i in plan.order]
        parent = self.tracer.current
        record = self.tracer.record
        for name, step in zip(names, steps):
            start = _clock()
            dispatch_step(step)
            record("node", name, start, _clock(), parent)
        self.runs += 1
        self.steps_dispatched += len(steps)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layers' public entry points with spans; returns the
    function that puts the originals back."""
    originals = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    built_uids = set()

    def models(original):
        def encoder_stack_program(*args, **kwargs):
            span = tracer.open("models", "encoder_stack_program")
            try:
                program = original(*args, **kwargs)
            finally:
                tracer.close(span)
            span[ARGS] = {"built": program.uid not in built_uids}
            built_uids.add(program.uid)
            return program
        return encoder_stack_program

    def session_compile(original):
        def compile(self, program, signature=None):
            before = self.program_compiles
            span = tracer.open("session.compile", program.name)
            try:
                compiled = original(self, program, signature=signature)
            finally:
                tracer.close(span)
            span[ARGS] = {"miss": self.program_compiles != before}
            tracer.compiled.add(compiled)
            return compiled
        return compile

    def executor_compile(original):
        def compile(self, *args, **kwargs):
            span = tracer.open("executor.compile", original.__name__)
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(span)
        return compile

    def program_run(original):
        def run(self, *args, **kwargs):
            span = tracer.open("session.run", self.program.name)
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(span)
                span[ARGS] = {"flops": self.flops}
        return run

    def scheduler_step(original):
        def step(self):
            span = tracer.open("serving.step", "step")
            try:
                return original(self)
            finally:
                tracer.close(span)
        return step

    # The scheduler imported encoder_stack_program by name, so both module
    # attributes are wrapped; the benchmark's offline loop calls it
    # through ``repro.models.transformer``.
    patch(transformer, "encoder_stack_program", models)
    patch(scheduler_mod, "encoder_stack_program", models)
    patch(Session, "compile", session_compile)
    patch(Executor, "compile", executor_compile)
    patch(Executor, "compile_fused", executor_compile)
    patch(CompiledProgram, "run", program_run)
    patch(scheduler_mod.BatchScheduler, "step", scheduler_step)

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
