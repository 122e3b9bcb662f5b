"""Discrete-event simulation kernel.

A minimal, dependency-free event simulator, sized for architectural
simulation: an :class:`~repro.sim.engine.Engine` owns the event queue and
the clock (measured in CPU cycles) and runs scheduled callbacks;
coroutine :class:`~repro.sim.process.Process` objects model the agents
that run a program (the processors); :mod:`repro.sim.resources` provides
the commit token of the token backend and the workloads' barrier.
Agents that never block mid-handler, like the directory controllers,
are plain callback servers on :meth:`Engine.schedule_call`.

Everything in :mod:`repro` runs on this kernel, so its semantics are the
semantics of the whole simulator:

* Time is an integer cycle count; events scheduled for the same cycle fire
  in FIFO scheduling order (deterministic).
* A process is a Python generator that ``yield``-s :class:`Event` objects
  (or uses ``yield from`` for sub-routines); it resumes when the yielded
  event fires, receiving the event's value.
* Firing an event schedules its callbacks at the *current* cycle; there is
  no zero-delay cascade limit, but cycles never go backwards (``run``
  rejects an ``until`` bound before the current cycle).
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Barrier, Resource

__all__ = [
    "Barrier",
    "Engine",
    "Event",
    "Process",
    "Resource",
    "Timeout",
]
