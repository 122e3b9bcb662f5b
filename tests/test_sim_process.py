"""Unit tests for generator processes."""

import pytest

from repro.sim import Engine, Event, Process, Timeout
from repro.sim.engine import SimulationError


def test_process_runs_and_returns_value():
    engine = Engine()

    def worker():
        yield Timeout(engine, 5)
        return "done"

    proc = Process(engine, worker())
    engine.run()
    assert proc.fired
    assert proc.value == "done"
    assert engine.now == 5


def test_yield_expression_receives_event_value():
    engine = Engine()
    seen = []

    def worker():
        got = yield Timeout(engine, 2, value=42)
        seen.append(got)

    Process(engine, worker())
    engine.run()
    assert seen == [42]


def test_yield_none_is_cooperative_yield():
    engine = Engine()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    Process(engine, a())
    Process(engine, b())
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert engine.now == 0


def test_processes_can_join_each_other():
    engine = Engine()

    def child():
        yield Timeout(engine, 7)
        return "child-result"

    results = []

    def parent():
        value = yield Process(engine, child(), name="child")
        results.append((engine.now, value))

    Process(engine, parent(), name="parent")
    engine.run()
    assert results == [(7, "child-result")]


def test_yield_from_subroutine_composes():
    engine = Engine()

    def delay_twice(n):
        yield Timeout(engine, n)
        yield Timeout(engine, n)
        return n * 2

    totals = []

    def main():
        total = yield from delay_twice(4)
        totals.append((engine.now, total))

    Process(engine, main())
    engine.run()
    assert totals == [(8, 8)]


def test_process_waits_on_plain_event():
    engine = Engine()
    gate = Event(engine)
    log = []

    def waiter():
        value = yield gate
        log.append((engine.now, value))

    Process(engine, waiter())
    engine.schedule_call(30, lambda: gate.fire("open"))
    engine.run()
    assert log == [(30, "open")]


def test_two_processes_waiting_on_same_event():
    engine = Engine()
    gate = Event(engine)
    woken = []

    def waiter(tag):
        yield gate
        woken.append(tag)

    Process(engine, waiter("x"))
    Process(engine, waiter("y"))
    engine.schedule_call(1, gate.fire)
    engine.run()
    assert sorted(woken) == ["x", "y"]


def test_non_generator_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Process(engine, lambda: None)  # type: ignore[arg-type]


def test_bad_yield_type_raises():
    engine = Engine()

    def worker():
        yield 123  # not an Event

    Process(engine, worker())
    with pytest.raises(SimulationError):
        engine.run()


def test_exception_in_process_propagates():
    engine = Engine()

    def worker():
        yield Timeout(engine, 1)
        raise ValueError("architectural bug")

    Process(engine, worker())
    with pytest.raises(ValueError, match="architectural bug"):
        engine.run()
