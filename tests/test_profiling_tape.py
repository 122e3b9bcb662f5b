"""Tests for the TAPE view over the protocol event log."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.tracing import tape_report
from repro.workloads import CounterWorkload, PrivateWorkload, StarvationWorkload


def _logged_system():
    """An unrun machine whose event log the test fills by hand."""
    return ScalableTCCSystem(SystemConfig(n_processors=2, event_log=True))


def _abort(log, node, tx=1, label="", wasted=10):
    log.log(100, "tx_abort", node, tx=tx, label=label, wasted=wasted)


class TestUnit:
    def test_empty_profiler_report(self):
        text = tape_report(_logged_system())
        assert "violations          : 0" in text
        assert "hottest conflict lines" not in text

    def test_record_abort_aggregates(self):
        system = _logged_system()
        log = system.events
        log.log(0, "tx_start", 0, tx=1)
        log.log(50, "violation", 0, line=5, tid=3, committer=1)
        _abort(log, 0, label="hot", wasted=500)
        text = tape_report(system)
        assert "line 0x5: 1 violations, 500 wasted cycles" in text
        assert "    hot: 1" in text
        assert "P1 -> P0: 1" in text

    def test_abort_without_cause_is_execution_unknown(self):
        system = _logged_system()
        system.events.log(0, "tx_start", 0, tx=1)
        _abort(system.events, 0, label="cold")
        text = tape_report(system)
        assert "    cold: 1" in text
        assert "hottest conflict lines" not in text  # unknown line (-1)
        assert "committer -> victim" not in text     # unknown committer

    def test_first_cause_wins(self):
        system = _logged_system()
        log = system.events
        log.log(0, "tx_start", 0, tx=1)
        log.log(10, "violation", 0, line=5, tid=3, committer=1)
        log.log(20, "violation", 0, line=9, tid=4, committer=1)  # ignored
        _abort(log, 0)
        text = tape_report(system)
        assert "line 0x5: 1 violations" in text
        assert "line 0x9" not in text

    def test_cause_does_not_outlive_its_attempt(self):
        system = _logged_system()
        log = system.events
        log.log(0, "tx_start", 0, tx=1)
        log.log(10, "violation", 0, line=5, tid=3, committer=1)
        log.log(20, "tx_start", 0, tx=2)
        _abort(log, 0, tx=2)
        assert "line 0x5" not in tape_report(system)

    def test_label_falls_back_to_tx_id(self):
        system = _logged_system()
        _abort(system.events, 1, tx=7)
        assert "    tx7: 1" in tape_report(system)

    def test_needs_the_event_log(self):
        system = ScalableTCCSystem(SystemConfig(n_processors=2))
        with pytest.raises(ValueError, match="event_log"):
            tape_report(system)


def _run(workload, **config):
    system = ScalableTCCSystem(SystemConfig(event_log=True, **config))
    result = system.run(workload, max_cycles=100_000_000)
    return system, result


class TestIntegration:
    def test_conflicting_run_populates_tape(self):
        workload = CounterWorkload(n_counters=1, increments_per_proc=8)
        system, result = _run(workload, n_processors=8)
        wasted = sum(s.violation_cycles for s in result.proc_stats)
        text = tape_report(system)
        assert result.total_violations > 0
        assert f"violations          : {result.total_violations}\n" in text
        assert f"wasted cycles       : {wasted:,}\n" in text
        # the single counter line is the hottest conflict object
        hot = text.split("hottest conflict lines:\n")[1].splitlines()[0]
        assert hot.startswith(f"    line {workload.counter_addr(0) // 32:#x}:")

    def test_conflict_free_run_has_empty_tape(self):
        system, _ = _run(PrivateWorkload(tx_per_proc=4), n_processors=4)
        text = tape_report(system)
        assert "violations          : 0\n" in text
        assert "retained (starving) : 0\n" in text
        assert "most-violated" not in text

    def test_starvation_detected_as_retentions(self):
        system, result = _run(StarvationWorkload(writer_txs=20),
                              n_processors=8, retention_threshold=2)
        retentions = sum(s.tid_retentions for s in result.proc_stats)
        assert retentions > 0
        assert system.events.counts()["retention"] == retentions
        assert f"retained (starving) : {retentions}\n" in tape_report(system)

    def test_committer_victim_pairs_recorded(self):
        system, _ = _run(CounterWorkload(n_counters=1, increments_per_proc=6),
                         n_processors=4)
        assert "committer -> victim pairs:" in tape_report(system)

    def test_truncated_log_keeps_exact_totals(self):
        system = ScalableTCCSystem(SystemConfig(n_processors=8, event_log=True))
        system.events.capacity = 50
        result = system.run(CounterWorkload(n_counters=1, increments_per_proc=8),
                            max_cycles=100_000_000)
        text = tape_report(system)
        assert system.events.dropped > 0
        assert f"violations          : {result.total_violations}\n" in text
        assert text.endswith(f"({system.events.dropped:,} events dropped: "
                             f"log full at 50)")
