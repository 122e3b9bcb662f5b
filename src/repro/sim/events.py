"""Events: the unit of synchronization between simulated agents."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine, SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`fire` transitions it to *fired* and
    schedules all subscribed callbacks at the current cycle with the
    event's value.  Subscribing to an already-fired event schedules the
    callback immediately, so there is no fire/subscribe race.
    """

    __slots__ = ("engine", "_fired", "_value", "_callbacks")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._fired = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("event value read before fire()")
        return self._value

    def fire(self, value: Any = None) -> "Event":
        """Mark the event as having happened, waking all waiters."""
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        if callbacks:
            self.engine.schedule_many(0, callbacks, self._value)
        return self

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when (or if already) fired."""
        if self._fired:
            self.engine.schedule_call(0, callback, self._value)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed delay — ``yield Timeout(engine, n)``."""

    __slots__ = ()

    def __init__(self, engine: Engine, delay: int, value: Any = None) -> None:
        super().__init__(engine)
        engine.schedule_call(delay, self.fire, value)
