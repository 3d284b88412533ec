"""The execution engine: how a compiled program's steps are run.

The :class:`~repro.core.session.CompiledProgram` knows *what* to execute:
a flat list of pre-resolved dispatch steps, in the
:class:`~repro.core.planner.ProgramPlan`'s order, with every buffer
bound at compile time.  :class:`SerialEngine` runs them with one flat
loop -- CoRa's split of fixed, compiled code from the per-batch run.

One engine instance (owned by a :class:`~repro.core.session.Session`)
executes every compiled program of that session and accumulates
dispatch statistics across runs.  ``execute`` receives the plan and the
owning :class:`~repro.core.session.CompiledProgram` as ``context`` so
subclasses (a timing engine, say) can label the steps they run.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

#: Step kinds, as stored in ``CompiledProgram._steps``.
KERNEL_STEP = 0
HOST_STEP = 1


def dispatch_step(step: Tuple) -> None:
    """Execute one pre-resolved dispatch step.

    A kernel step zero-fills its output buffer (reproducing the fresh
    ``RaggedTensor.zeros`` semantics of op-by-op execution) and calls the
    generated kernel over its pre-bound buffers; a host step optionally
    pre-zeroes outputs the host function does not promise to fill, then
    calls it over the materialised value wrappers.
    """
    kind, fn, args, aux, out_flat = step
    if kind == KERNEL_STEP:
        out_flat.fill(0.0)
        fn(args, aux)
    else:
        if aux is not None:  # host outputs needing pre-zeroing
            for buf in aux:
                buf.fill(0.0)
        fn(*args)


class SerialEngine:
    """The flat dispatch loop: steps run one after another in plan order."""

    name = "serial"

    def __init__(self) -> None:
        self.runs = 0
        self.steps_dispatched = 0

    def execute(self, steps: Sequence[Tuple], plan=None, context=None) -> None:
        for step in steps:
            dispatch_step(step)
        self.runs += 1
        self.steps_dispatched += len(steps)

    def close(self) -> None:
        """No-op: the serial loop holds no resources."""

    def reset_stats(self) -> None:
        """Zero the dispatch counters (``Session.reset`` calls this)."""
        self.runs = 0
        self.steps_dispatched = 0

    def stats(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "runs": self.runs,
            "steps_dispatched": self.steps_dispatched,
        }


def get_engine(engine: Union[str, SerialEngine, None]) -> SerialEngine:
    """Resolve an engine argument: an instance, ``"serial"`` or ``None``.

    ``None`` and ``"serial"`` give a fresh :class:`SerialEngine`; an
    instance is returned as is.
    """
    if engine is None:
        return SerialEngine()
    if isinstance(engine, SerialEngine):
        return engine
    if isinstance(engine, str):
        if engine.lower() == "serial":
            return SerialEngine()
        raise ValueError(
            f"unknown engine {engine!r}; expected 'serial' or a "
            "SerialEngine instance")
    raise TypeError(f"engine must be a name or SerialEngine, got "
                    f"{type(engine).__name__}")
