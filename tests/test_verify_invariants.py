"""Tests for the machine-wide invariant checker and paranoid mode."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.verify import InvariantViolation, check_system_invariants
from repro.workloads import CounterWorkload, PrivateWorkload


def fresh_system(**kwargs):
    kwargs.setdefault("n_processors", 4)
    return ScalableTCCSystem(SystemConfig(**kwargs))


def test_clean_system_passes():
    system = fresh_system()
    check_system_invariants(system)


def test_post_run_system_passes():
    system = fresh_system()
    system.run(
        CounterWorkload(increments_per_proc=5), max_cycles=50_000_000, keep_state=True
    )
    assert any(p.hierarchy.l2.resident_lines() for p in system.processors)
    check_system_invariants(system)


def test_detects_sm_on_dirty_line():
    system = fresh_system()
    hier = system.processors[0].hierarchy
    hier.fill(0, [0] * 8, dirty=True)
    hier.l2.lookup(0).sm_mask = 1  # corrupt: dirty line with SM
    with pytest.raises(InvariantViolation, match="I3"):
        check_system_invariants(system, strict_sharers=False)


def test_detects_sr_on_invalid_words():
    system = fresh_system()
    hier = system.processors[0].hierarchy
    hier.fill(0, [0] * 8)
    entry = hier.l2.lookup(0)
    entry.valid_mask = 0b1
    entry.sr_mask = 0b10  # SR on an invalid word
    with pytest.raises(InvariantViolation, match="I3"):
        check_system_invariants(system, strict_sharers=False)


def test_detects_owner_not_in_sharers():
    system = fresh_system()
    entry = system.directories[0].state.entry(5)
    entry.owner = 2  # owner without sharer membership
    with pytest.raises(InvariantViolation, match="I1"):
        check_system_invariants(system, strict_sharers=False)


def test_detects_mark_tid_mismatch():
    system = fresh_system()
    entry = system.directories[0].state.entry(5)
    entry.mark(7, 0b1)  # directory is serving TID 1, mark claims 7
    with pytest.raises(InvariantViolation, match="I4"):
        check_system_invariants(system, strict_sharers=False)


def test_detects_nstid_overrun():
    system = fresh_system()
    system.directories[0].skipvec._nstid = 99
    with pytest.raises(InvariantViolation, match="I5"):
        check_system_invariants(system, strict_sharers=False)


def test_detects_uncovered_sharer():
    system = fresh_system()
    hier = system.processors[3].hierarchy
    hier.fill(42, [0] * 8)  # cached but never registered at the home
    with pytest.raises(InvariantViolation, match="I2"):
        check_system_invariants(system, strict_sharers=True)
    # non-strict mode skips I2
    check_system_invariants(system, strict_sharers=False)


def test_paranoid_mode_runs_clean():
    system = fresh_system(paranoid=True, paranoid_interval=200)
    result = system.run(
        CounterWorkload(increments_per_proc=5), max_cycles=50_000_000
    )
    assert result.committed_transactions == 20


def test_paranoid_mode_matches_normal_results():
    results = {}
    for paranoid in (False, True):
        system = fresh_system(paranoid=paranoid, ordered_network=True)
        results[paranoid] = system.run(
            PrivateWorkload(tx_per_proc=4), max_cycles=50_000_000
        )
    assert results[True].cycles == results[False].cycles
    assert results[True].memory_image == results[False].memory_image
