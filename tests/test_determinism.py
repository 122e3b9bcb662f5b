"""Determinism guard: identical seeds must give bit-identical runs.

Every performance optimisation of the simulator kernel (same-cycle FIFO,
memoized routing, cached scan orders, the directory's callback server)
is required to preserve exact event ordering.  This test pins that contract: running
the same seeded workload twice — in fresh systems — must reproduce the
cycle count, commit/violation totals, and traffic byte counts exactly.
"""

import pytest

from repro import ScalableTCCSystem, SystemConfig, app_workload

APP = "barnes"


def _fingerprint(n_processors, seed, **overrides):
    config = SystemConfig(n_processors=n_processors, seed=seed, **overrides)
    system = ScalableTCCSystem(config)
    result = system.run(app_workload(APP, scale=0.25), verify=False)
    stats = system.network.stats
    return {
        "cycles": result.cycles,
        "committed": result.committed_transactions,
        "violations": result.total_violations,
        "instructions": result.committed_instructions,
        "traffic_bytes": stats.total_bytes,
        "bytes_by_class": dict(stats.bytes_by_class),
        "packets": stats.packets,
    }


@pytest.mark.parametrize("n", [8, 32])
def test_repeat_runs_are_bit_identical(n):
    assert _fingerprint(n, seed=0) == _fingerprint(n, seed=0)


def test_different_seeds_differ():
    # Sanity check that the fingerprint is sensitive at all: an unordered
    # network draws jitter from the seed, so cycle counts should move.
    a = _fingerprint(8, seed=0)
    b = _fingerprint(8, seed=12345)
    assert a != b


# Historical fingerprints, pinned.  The fault-injection subsystem and
# the hardened protocol paths must be *bit-inert* when no fault plan is
# configured: if any of these numbers move, a supposedly-gated change
# leaked into the fault-free event stream.
#
# Re-pinned when `repro lint` (det-unordered-iter) replaced raw set
# iteration in the commit engine and directory with sorted() — a
# deliberate, reviewed event-order change that removes the last
# dependence on hash-table layout.
#
# Re-pinned again when the directory began serving each message with one
# scheduled completion (stall + occupancy, started on arrival) instead of
# replaying the deleted generator loop's zero-delay wake-ups: same-cycle
# ties now order differently, so cycles moved 29,208 -> 29,205 (8 CPUs)
# and 11,307 -> 11,313 (32 CPUs); every other field is unchanged.
_PINNED = {
    8: dict(cycles=29_205, committed=64, violations=0,
            instructions=121_032, traffic_bytes=68_681, packets=3_120),
    32: dict(cycles=11_313, committed=64, violations=1,
             instructions=126_353, traffic_bytes=75_583, packets=4_864),
}


@pytest.mark.parametrize("n", [8, 32])
def test_fault_free_runs_match_pinned_fingerprints(n):
    fingerprint = _fingerprint(n, seed=0)
    observed = {key: fingerprint[key] for key in _PINNED[n]}
    assert observed == _PINNED[n]


def _drop_dup_plan(seed):
    from repro.faults import FaultPlan, PacketFault

    return FaultPlan(
        packet_faults=(
            PacketFault("drop", 0.05),
            PacketFault("dup", 0.05, delay=120),
            PacketFault("delay", 0.03, delay=150),
            PacketFault("reorder", 0.03, delay=200),
        ),
        seed=seed,
    )


def test_faulty_runs_are_bit_identical():
    kwargs = {"fault_plan": _drop_dup_plan(11)}
    assert _fingerprint(8, seed=0, **kwargs) == _fingerprint(8, seed=0, **kwargs)


def test_fault_plan_seed_changes_the_run():
    a = _fingerprint(8, seed=0, fault_plan=_drop_dup_plan(11))
    b = _fingerprint(8, seed=0, fault_plan=_drop_dup_plan(12))
    assert a != b
