"""Per-layer host-time spans, installed around the simulator from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each layer's public entry points (the calls the engine and the node
router make into a layer) with timing wrappers at runtime, and puts the
originals back on :meth:`Tracer.remove`.  Untraced passes therefore run
the unmodified code.

Every wrapper opens a span on one shared stack.  When a span closes, its
duration minus the time its child spans covered is its *self* time,
charged to the span's layer; its whole duration is added to the parent's
child time.  The self times of all spans under one root therefore sum to
the root's duration, so per-layer self times add up to the traced wall
time of a pass.

While installed, the tracer also counts engine events by the callback
that produced them (``dir_step``, ``cpu_step``, ``net_deliver``,
``timeout``, ``other``), classified when the callback is scheduled.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

LAYERS = (
    "sim",
    "directory",
    "network",
    "processor",
    "memory",
    "workloads",
    "verify",
    "core",
    "faults",
)

PRODUCERS = ("dir_step", "cpu_step", "net_deliver", "timeout", "other")

#: ``PrivateHierarchy`` methods the processor calls: accesses, fills,
#: coherence actions and the transaction commit/abort boundaries.
HIERARCHY_METHODS = (
    "load",
    "store",
    "fill",
    "peek",
    "invalidate",
    "invalidate_words",
    "flushed",
    "extract_for_writeback",
    "written_lines",
    "read_lines",
    "commit_speculative",
    "abort_speculative",
    "read_set_bytes",
    "write_set_bytes",
)


class SpanRecorder:
    """A span stack that accumulates self time by layer and calls by key."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        # One child-time accumulator per open span.
        self._stack: List[List[float]] = []

    def reset(self) -> None:
        """Forget all totals (in place: wrappers hold these objects)."""
        if self._stack:
            raise RuntimeError("reset while spans are open")
        self.self_s.clear()
        self.calls.clear()

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.calls)

    def wrap(self, layer: str, fn: Callable, key: str = "") -> Callable:
        """``fn`` inside a span of ``layer``; calls counted under ``key``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        key = key or layer

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[key] = calls.get(key, 0) + 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced


class _TracedSchedule:
    """A workload schedule whose every ``next`` is a ``workloads`` span."""

    __slots__ = ("_it", "_next")

    def __init__(self, iterator: Any, traced_next: Callable) -> None:
        self._it = iterator
        self._next = traced_next

    def __iter__(self) -> "_TracedSchedule":
        return self

    def __next__(self) -> Any:
        return self._next(self._it)


class Tracer:
    """Installs and removes the span wrappers; owns one recorder."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.events: Dict[str, int] = {}
        # (owner, attribute, original or None when inherited)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def reset(self) -> None:
        self.recorder.reset()
        self.events.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Imported here so that importing this module needs no simulator.
        import repro.verify.invariants as invariants
        from repro.core.system import ScalableTCCSystem
        from repro.directory.controller import DirectoryController
        from repro.faults.injector import FaultInjector
        from repro.memory.hierarchy import PrivateHierarchy
        from repro.network.interconnect import Interconnect
        from repro.processor.core import TCCProcessor
        from repro.sim.engine import Engine
        from repro.sim.events import Event, Timeout
        from repro.sim.process import Process
        from repro.verify.serializability import SerializabilityChecker
        from repro.workloads.synthetic import SyntheticWorkload

        wrap = self.recorder.wrap
        events = self.events

        original_step = Process._step
        dir_step = wrap("directory", original_step, "dir_step")
        cpu_step = wrap("processor", original_step, "cpu_step")
        other_step = wrap("sim", original_step, "other_step")

        def step(process: Any, value: Any) -> None:
            name = process.name
            if name.startswith("dir"):
                return dir_step(process, value)
            if name.startswith("cpu"):
                return cpu_step(process, value)
            return other_step(process, value)

        deliver = wrap("network", Interconnect._deliver, "net_deliver")
        fire = wrap("sim", Event.fire, "fire")

        def producer(fn: Any) -> str:
            func = getattr(fn, "__func__", None)
            if func is step:
                name = fn.__self__.name
                if name.startswith("dir"):
                    return "dir_step"
                if name.startswith("cpu"):
                    return "cpu_step"
            elif func is deliver:
                return "net_deliver"
            elif func is fire and isinstance(fn.__self__, Timeout):
                return "timeout"
            return "other"

        schedule_call = wrap("sim", Engine.schedule_call, "schedule_call")
        schedule_many = wrap("sim", Engine.schedule_many, "schedule_many")

        def counted_call(engine: Any, delay: int, fn: Any, *arg: Any) -> None:
            kind = producer(fn)
            events[kind] = events.get(kind, 0) + 1
            return schedule_call(engine, delay, fn, *arg)

        def counted_many(engine: Any, delay: int, fns: Any, *arg: Any) -> None:
            fns = list(fns)
            for fn in fns:
                kind = producer(fn)
                events[kind] = events.get(kind, 0) + 1
            return schedule_many(engine, delay, fns, *arg)

        traced_next = wrap("workloads", next, "schedule_next")
        original_schedule = SyntheticWorkload.schedule

        def schedule(workload: Any, proc: int, n_procs: int) -> _TracedSchedule:
            return _TracedSchedule(
                original_schedule(workload, proc, n_procs), traced_next
            )

        patches = [
            (Engine, "run", wrap("sim", Engine.run, "engine_run")),
            (Engine, "schedule_call", counted_call),
            (Engine, "schedule_many", counted_many),
            (Event, "fire", fire),
            (Process, "_step", step),
            (Interconnect, "send", wrap("network", Interconnect.send, "send")),
            (Interconnect, "_deliver", deliver),
            (
                DirectoryController,
                "deliver",
                wrap("directory", DirectoryController.deliver, "dir_msg"),
            ),
            (
                TCCProcessor,
                "deliver",
                wrap("processor", TCCProcessor.deliver, "cpu_msg"),
            ),
            (
                FaultInjector,
                "dispatch",
                wrap("faults", FaultInjector.dispatch, "dispatch"),
            ),
            (SyntheticWorkload, "schedule", schedule),
            (
                invariants,
                "check_system_invariants",
                wrap("verify", invariants.check_system_invariants, "invariants"),
            ),
            (
                SerializabilityChecker,
                "check",
                wrap("verify", SerializabilityChecker.check, "replay"),
            ),
            (
                ScalableTCCSystem,
                "__init__",
                wrap("core", ScalableTCCSystem.__init__, "build"),
            ),
        ]
        patches += [
            (
                PrivateHierarchy,
                name,
                wrap("memory", getattr(PrivateHierarchy, name), f"mem_{name}"),
            )
            for name in HIERARCHY_METHODS
        ]
        try:
            for owner, name, replacement in patches:
                self._patch(owner, name, replacement)
        except BaseException:
            self.remove()
            raise
