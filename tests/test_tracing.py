"""Tests for the protocol event log and timeline renderer."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.faults import FaultPlan, PacketFault
from repro.runner.summary import ResultSummary
from repro.tracing import EventLog, render_timeline, tape_report
from repro.workloads import CounterWorkload, PrivateWorkload, app_workload


class TestEventLogUnit:
    def test_log_and_select(self):
        log = EventLog()
        log.log(10, "tx_start", 0, tx=1)
        log.log(20, "tx_commit", 0, tx=1, tid=5)
        log.log(15, "tx_start", 1, tx=2)
        assert len(log) == 3
        assert [e.time for e in log.select(node=0)] == [10, 20]
        assert [e.fields["tx"] for e in log.select(category="tx_start")] == [1, 2]
        assert list(log.select(category="tx_commit", tid=5))

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            EventLog().log(0, "warp_core_breach", 0)

    def test_capacity_cap(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.log(i, "tx_start", 0)
        assert len(log) == 3
        assert log.dropped == 7

    def test_every_renderer_reports_dropped_events(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.log(i, "tx_start", i % 2, tx=i)
        system = ScalableTCCSystem(SystemConfig(n_processors=2, event_log=True))
        system.events = log
        note = "(7 events dropped: log full at 3)"
        assert log.render().endswith(note)
        assert render_timeline(log, 2).endswith(note)
        assert tape_report(system).endswith(note)

    def test_counts(self):
        log = EventLog()
        log.log(0, "tx_start", 0)
        log.log(1, "tx_start", 1)
        log.log(2, "tx_commit", 0)
        assert log.counts() == {"tx_start": 2, "tx_commit": 1}

    def test_render(self):
        log = EventLog()
        log.log(3, "violation", 2, line=7, tid=1)
        text = log.render()
        assert "violation" in text
        assert "line=7" in text


class TestSystemIntegration:
    def test_disabled_by_default(self):
        system = ScalableTCCSystem(SystemConfig(n_processors=2))
        assert system.events is None

    def test_events_recorded_when_enabled(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=5),
            max_cycles=50_000_000,
        )
        log = system.events
        counts = log.counts()
        assert counts["tx_commit"] == result.committed_transactions
        assert counts["tx_start"] == (
            result.committed_transactions + result.total_violations
        )
        assert counts.get("tx_abort", 0) == result.total_violations
        assert counts["dir_commit"] >= 1
        assert counts["load_miss"] >= 1

    def test_violation_events_carry_cause(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=6),
            max_cycles=50_000_000,
        )
        if result.total_violations:
            violations = list(system.events.select(category="violation"))
            assert violations
            assert all("line" in e.fields and "tid" in e.fields
                       for e in violations)

    def test_commit_events_in_tid_order_per_directory(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        system.run(CounterWorkload(increments_per_proc=5),
                   max_cycles=50_000_000)
        by_dir = {}
        for event in system.events.select(category="dir_commit"):
            by_dir.setdefault(event.node, []).append(event.fields["tid"])
        for tids in by_dir.values():
            assert tids == sorted(tids)  # NSTID order at each directory


def _dup_drop_plan():
    return FaultPlan(
        packet_faults=(PacketFault("dup", 0.05), PacketFault("drop", 0.02)),
        seed=3,
    )


def _observed_run(event_log, fault_plan=None):
    system = ScalableTCCSystem(SystemConfig(
        n_processors=8, event_log=event_log, fault_plan=fault_plan,
    ))
    result = system.run(app_workload("volrend", scale=0.3))
    return system, result


def test_every_stale_drop_is_logged():
    system, result = _observed_run(True, _dup_drop_plan())
    stale = result.fault_stats.stale_drops
    assert stale > 0
    assert system.events.counts()["stale"] == stale


@pytest.mark.parametrize("fault_plan", [None, _dup_drop_plan()],
                         ids=["fault_free", "faulty"])
def test_event_log_is_bit_inert(fault_plan):
    plain, logged = (_observed_run(on, fault_plan)[1] for on in (False, True))
    assert (ResultSummary.from_result(plain).fingerprint()
            == ResultSummary.from_result(logged).fingerprint())
    assert plain.memory_image == logged.memory_image
    commits = [
        [(r.tid, r.tx.tx_id, r.proc, r.commit_time, r.reads) for r in log]
        for log in (plain.commit_log, logged.commit_log)
    ]
    assert commits[0] == commits[1]


class TestTimeline:
    def test_empty_log(self):
        assert render_timeline(EventLog(), 2) == "(no events)"

    def test_timeline_shape(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(PrivateWorkload(tx_per_proc=4),
                            max_cycles=50_000_000)
        text = render_timeline(system.events, 4, width=60,
                               end_time=result.cycles)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 lanes
        assert lines[1].startswith("P0")
        assert "C" in text  # commits visible
        # lanes all equal width
        assert len({len(line) for line in lines[1:]}) == 1

    def test_timeline_shows_violations(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=8),
            max_cycles=50_000_000,
        )
        if result.total_violations:
            text = render_timeline(system.events, 4, width=80,
                                   end_time=result.cycles)
            assert "V" in text
