"""Unit tests for the Resource and Barrier primitives."""

import pytest

from repro.sim import Barrier, Engine, Process, Resource, Timeout


def test_resource_grants_immediately_when_free():
    engine = Engine()
    res = Resource(engine)
    granted = []

    def worker():
        yield res.acquire()
        granted.append(engine.now)
        res.release()

    Process(engine, worker())
    engine.run()
    assert granted == [0]


def test_resource_serializes_holders_fifo():
    engine = Engine()
    res = Resource(engine)
    log = []

    def worker(tag, hold):
        yield res.acquire()
        log.append((tag, engine.now))
        yield Timeout(engine, hold)
        res.release()

    Process(engine, worker("a", 10))
    Process(engine, worker("b", 5))
    Process(engine, worker("c", 1))
    engine.run()
    assert log == [("a", 0), ("b", 10), ("c", 15)]


def test_resource_busy_cycles_accumulate():
    engine = Engine()
    res = Resource(engine)

    def hold(cycles):
        yield res.acquire()
        yield Timeout(engine, cycles)
        res.release()

    def worker():
        yield from hold(12)
        yield Timeout(engine, 100)
        yield from hold(3)

    Process(engine, worker())
    engine.run()
    assert res.busy_cycles == 15
    assert res.total_acquisitions == 2


def test_release_without_hold_raises():
    res = Resource(Engine())
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_length_visible():
    engine = Engine()
    res = Resource(engine)

    def holder():
        yield res.acquire()
        yield Timeout(engine, 10)
        res.release()

    def waiter():
        yield res.acquire()
        res.release()

    Process(engine, holder())
    Process(engine, waiter())
    engine.run(until=5)
    assert res.queue_length == 1
    engine.run()
    assert res.queue_length == 0


def test_barrier_releases_all_parties_together():
    engine = Engine()
    barrier = Barrier(engine, parties=3)
    released = []

    def worker(tag, arrive_at):
        yield Timeout(engine, arrive_at)
        yield barrier.wait()
        released.append((tag, engine.now))

    Process(engine, worker("a", 1))
    Process(engine, worker("b", 5))
    Process(engine, worker("c", 9))
    engine.run()
    assert sorted(released) == [("a", 9), ("b", 9), ("c", 9)]
    assert barrier.generations == 1


def test_barrier_is_cyclic():
    engine = Engine()
    barrier = Barrier(engine, parties=2)
    phases = []

    def worker(tag, delays):
        for delay in delays:
            yield Timeout(engine, delay)
            generation = yield barrier.wait()
            phases.append((tag, generation, engine.now))

    Process(engine, worker("a", [1, 1]))
    Process(engine, worker("b", [4, 10]))
    engine.run()
    assert ("a", 1, 4) in phases and ("b", 1, 4) in phases
    assert ("a", 2, 14) in phases and ("b", 2, 14) in phases


def test_barrier_single_party_never_blocks():
    engine = Engine()
    barrier = Barrier(engine, parties=1)
    done = []

    def worker():
        yield barrier.wait()
        done.append(engine.now)

    Process(engine, worker())
    engine.run()
    assert done == [0]


def test_barrier_rejects_zero_parties():
    with pytest.raises(ValueError):
        Barrier(Engine(), parties=0)
