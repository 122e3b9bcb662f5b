"""Focused tests for the token (small-scale TCC) baseline engine."""

import pytest

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.baseline import TokenCommitEngine
from repro.workloads.base import Workload


class Scripted(Workload):
    def __init__(self, schedules):
        self.schedules = schedules

    def schedule(self, proc, n_procs):
        return iter(self.schedules[proc])


def run(schedules, **kwargs):
    kwargs.setdefault("n_processors", len(schedules))
    kwargs.setdefault("commit_backend", "token")
    system = ScalableTCCSystem(SystemConfig(**kwargs))
    result = system.run(Scripted(schedules), max_cycles=50_000_000, keep_state=True)
    return system, result


def test_token_engine_selected_by_config():
    system = ScalableTCCSystem(
        SystemConfig(n_processors=2, commit_backend="token")
    )
    assert all(
        isinstance(p.commit_engine, TokenCommitEngine) for p in system.processors
    )


def test_commit_data_reaches_memory_immediately():
    """Token commits are write-through: memory holds the data right after
    commit; no lines stay dirty, no owners exist."""
    schedules = [[Transaction(1, [("c", 10), ("st", 0, 5)])]]
    system, result = run(schedules)
    assert result.memory_image[0][0] == 5
    for directory in system.directories:
        for entry in directory.state.entries():
            assert not entry.owned


def test_broadcast_invalidation_reaches_every_other_processor():
    """Every processor snoops every commit — including ones that never
    touched the data (no directory filtering on the bus)."""
    from repro.core.messages import TokenInv

    seen = []
    schedules = [
        [Transaction(1, [("c", 10), ("st", 0, 1)])],
        [Transaction(2, [("c", 2000)])],
        [Transaction(3, [("c", 2000)])],
    ]
    system = ScalableTCCSystem(
        SystemConfig(n_processors=3, commit_backend="token")
    )
    originals = [p.commit_engine._on_token_inv for p in system.processors]

    def spy(engine, orig):
        def inner(msg):
            seen.append(engine.proc.node)
            orig(msg)
        return inner

    for proc, orig in zip(system.processors, originals):
        proc.commit_engine._on_token_inv = spy(proc.commit_engine, orig)
    system.run(Scripted(schedules), max_cycles=50_000_000)
    assert sorted(seen) == [1, 2]


def test_conflicting_rmw_exact_under_token():
    schedules = [
        [Transaction(p * 10 + i, [("c", 5), ("add", 0, 1)]) for i in range(6)]
        for p in range(4)
    ]
    system, result = run(schedules)
    assert result.memory_image[0][0] == 24


def test_read_only_transaction_holds_token_briefly():
    schedules = [
        [Transaction(1, [("c", 10), ("ld", 0)])],
        [Transaction(2, [("c", 10), ("ld", 4096)])],
    ]
    system, result = run(schedules)
    assert result.committed_transactions == 2
    assert system.token.total_acquisitions == 2


def test_token_never_left_held():
    schedules = [
        [Transaction(p * 10 + i, [("c", 5), ("add", 0, 1)]) for i in range(4)]
        for p in range(4)
    ]
    system, result = run(schedules)
    assert not system.token.held
    assert system.token.queue_length == 0


def test_violated_waiter_releases_token_without_committing():
    """A processor violated while waiting for the token must release it
    immediately and retry (the check-after-acquire path)."""
    schedules = [
        [Transaction(p * 10 + i, [("c", 2), ("add", 0, 1)]) for i in range(8)]
        for p in range(6)
    ]
    system, result = run(schedules)
    assert result.memory_image[0][0] == 48
    # acquisitions >= commits, with the surplus being aborted holds
    assert system.token.total_acquisitions >= result.committed_transactions


def test_token_mode_unordered_network():
    schedules = [
        [Transaction(p * 10 + i, [("c", 2), ("add", 0, 1)]) for i in range(6)]
        for p in range(4)
    ]
    system, result = run(schedules, ordered_network=False, network_jitter=5)
    assert result.memory_image[0][0] == 24
