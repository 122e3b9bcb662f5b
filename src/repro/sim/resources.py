"""Synchronization primitives built on events.

These model the *shared* hardware resources in the simulated machine:

* :class:`Resource` — a single server with FIFO queueing; the token
  commit backend (the bus-TCC foil) models its global commit token with
  it.
* :class:`Barrier` — a reusable cyclic barrier; the workloads in the paper
  are barrier-structured (code between barriers becomes transactions).
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Engine
from repro.sim.events import Event


class Resource:
    """A single server with FIFO queueing.

    ``acquire()`` returns an event that fires when the caller holds the
    resource; the holder must call ``release()``.  ``busy_cycles``
    accumulates total held time (the server's occupancy).
    """

    def __init__(self, engine: Engine, name: str = "resource") -> None:
        self.engine = engine
        self.name = name
        self._held = False
        self._waiters: deque[Event] = deque()
        self._acquired_at = 0
        self.busy_cycles = 0
        self.total_acquisitions = 0

    @property
    def held(self) -> bool:
        return self._held

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        event = Event(self.engine)
        if not self._held:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if not self._held:
            raise RuntimeError(f"release of un-held resource {self.name!r}")
        self._held = False
        self.busy_cycles += self.engine.now - self._acquired_at
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, event: Event) -> None:
        self._held = True
        self._acquired_at = self.engine.now
        self.total_acquisitions += 1
        event.fire(self)


class Barrier:
    """A cyclic barrier across ``parties`` processes.

    ``wait()`` returns an event that fires when all parties have arrived;
    the barrier then resets for the next phase.  Arrival/release times are
    recorded so callers can attribute idle (load-imbalance) cycles the way
    Figure 6/7 of the paper do.
    """

    def __init__(self, engine: Engine, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.engine = engine
        self.parties = parties
        self.name = name
        self._waiting: list[Event] = []
        self.generations = 0

    def wait(self) -> Event:
        event = Event(self.engine)
        self._waiting.append(event)
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            self.generations += 1
            for waiter in waiting:
                waiter.fire(self.generations)
        return event
