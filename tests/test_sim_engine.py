"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine
from repro.sim.engine import SimulationError


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_advances_clock():
    engine = Engine()
    fired = []
    engine.schedule_call(10, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [10]
    assert engine.now == 10


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule_call(5, lambda: order.append("b"))
    engine.schedule_call(1, lambda: order.append("a"))
    engine.schedule_call(9, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_cycle_events_run_fifo():
    engine = Engine()
    order = []
    for label in "abc":
        engine.schedule_call(3, lambda lab=label: order.append(lab))
    engine.run()
    assert order == ["a", "b", "c"]


def test_zero_delay_runs_after_current_queue_entries():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule_call(0, lambda: order.append("nested"))

    engine.schedule_call(0, first)
    engine.schedule_call(0, lambda: order.append("second"))
    engine.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_call(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule_call(10, lambda: fired.append("early"))
    engine.schedule_call(100, lambda: fired.append("late"))
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    engine.run()
    assert fired == ["early", "late"]
    assert engine.now == 100


def test_run_until_includes_boundary_events():
    engine = Engine()
    fired = []
    engine.schedule_call(50, lambda: fired.append("boundary"))
    engine.run(until=50)
    assert fired == ["boundary"]


def test_run_on_empty_queue_leaves_clock_at_last_event():
    engine = Engine()
    engine.run(until=42)
    assert engine.now == 0
    engine.schedule_call(7, lambda: None)
    engine.run(until=42)
    assert engine.now == 7


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []
    engine.schedule_call(1, lambda: engine.schedule_call(5, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [6]


def test_peek_reports_next_event_time():
    engine = Engine()
    assert engine.peek() is None
    engine.schedule_call(7, lambda: None)
    assert engine.peek() == 7


def test_events_executed_counter():
    engine = Engine()
    for _ in range(5):
        engine.schedule_call(1, lambda: None)
    engine.run()
    assert engine.events_executed == 5


def test_schedule_call_without_argument():
    engine = Engine()
    fired = []
    engine.schedule_call(3, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [3]


def test_schedule_call_passes_argument():
    engine = Engine()
    fired = []
    engine.schedule_call(2, fired.append, "payload")
    engine.schedule_call(2, fired.append, None)  # None is a real argument
    engine.run()
    assert fired == ["payload", None]


def test_schedule_many_preserves_order_and_shares_argument():
    engine = Engine()
    order = []
    callbacks = [lambda v, lab=label: order.append((lab, v)) for label in "abc"]
    engine.schedule_many(4, callbacks, "x")
    engine.run()
    assert order == [("a", "x"), ("b", "x"), ("c", "x")]


def test_schedule_many_zero_delay_interleaves_with_schedule():
    engine = Engine()
    order = []

    def kickoff():
        engine.schedule_many(0, [lambda: order.append("m1"), lambda: order.append("m2")])
        engine.schedule_call(0, lambda: order.append("s"))

    engine.schedule_call(1, kickoff)
    engine.run()
    assert order == ["m1", "m2", "s"]


def test_run_until_before_now_rejected():
    engine = Engine()
    engine.schedule_call(10, lambda: None)
    engine.schedule_call(20, lambda: None)
    engine.run(until=15)
    with pytest.raises(SimulationError):
        engine.run(until=14)
    # The refused run moved nothing: the clock stays, the queue is intact.
    assert engine.now == 15
    assert engine.peek() == 20
    engine.run()
    assert engine.now == 20
