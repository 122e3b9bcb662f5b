"""Unit tests for events and timeouts."""

import pytest

from repro.sim import Engine, Event, Timeout
from repro.sim.engine import SimulationError


def test_event_fire_wakes_subscriber_with_value():
    engine = Engine()
    event = Event(engine)
    seen = []
    event.subscribe(seen.append)
    event.fire("payload")
    engine.run()
    assert seen == ["payload"]


def test_subscribe_after_fire_still_delivers():
    engine = Engine()
    event = Event(engine)
    event.fire(17)
    seen = []
    event.subscribe(seen.append)
    engine.run()
    assert seen == [17]


def test_double_fire_rejected():
    engine = Engine()
    event = Event(engine)
    event.fire()
    with pytest.raises(SimulationError):
        event.fire()


def test_value_before_fire_rejected():
    event = Event(Engine())
    with pytest.raises(SimulationError):
        _ = event.value


def test_timeout_fires_after_delay():
    engine = Engine()
    timeout = Timeout(engine, 8, value="t")
    engine.run()
    assert timeout.fired
    assert timeout.value == "t"
    assert engine.now == 8
