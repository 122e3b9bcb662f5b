"""Edge cases in the commit engine and abort paths."""

import pytest

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.workloads.base import BARRIER, Workload

PAGE = 4096


class Scripted(Workload):
    def __init__(self, schedules):
        self.schedules = schedules

    def schedule(self, proc, n_procs):
        return iter(self.schedules[proc])


def run(schedules, **kwargs):
    kwargs.setdefault("n_processors", len(schedules))
    kwargs.setdefault("ordered_network", True)
    system = ScalableTCCSystem(SystemConfig(**kwargs))
    result = system.run(Scripted(schedules), max_cycles=100_000_000, keep_state=True)
    return system, result


class TestReadOnlyAndEmpty:
    def test_many_read_only_transactions(self):
        schedules = [
            [Transaction(p * 10 + i, [("c", 5), ("ld", (p * 8 + i) * 32)])
             for i in range(4)]
            for p in range(4)
        ]
        system, result = run(schedules)
        assert result.committed_transactions == 16
        assert all(d.stats.commits_served == 0 for d in system.directories)

    def test_empty_write_set_leaves_no_marks(self):
        schedules = [[Transaction(1, [("c", 10), ("ld", 0), ("ld", 64)])]]
        system, result = run(schedules)
        for directory in system.directories:
            assert not any(e.marked for e in directory.state.entries())

    def test_pure_compute_transactions_commit_in_tid_order(self):
        schedules = [
            [Transaction(p * 10 + i, [("c", 50)]) for i in range(3)]
            for p in range(3)
        ]
        system, result = run(schedules)
        tids = sorted(record.tid for record in result.commit_log)
        assert tids == list(range(1, 10))


class TestWriteSetShapes:
    def test_single_word_write(self):
        system, result = run([[Transaction(1, [("st", 0, 1)])]])
        assert result.memory_image[0][0] == 1

    def test_write_every_word_of_a_line(self):
        ops = [("st", w * 4, w + 1) for w in range(8)]
        system, result = run([[Transaction(1, ops)]])
        assert result.memory_image[0] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_wide_write_set_across_many_pages(self):
        ops = [("c", 10)]
        for page in range(12):
            ops.append(("st", page * PAGE * 64, page))
        system, result = run([[Transaction(1, ops)], [], [], []])
        for page in range(12):
            line = page * PAGE * 64 // 32
            assert result.memory_image[line][0] == page

    def test_repeated_writes_to_same_word(self):
        ops = [("st", 0, i) for i in range(10)]
        system, result = run([[Transaction(1, ops)]])
        assert result.memory_image[0][0] == 9


class TestConflictLadders:
    def test_chain_of_dependent_rmws_across_procs(self):
        """Each processor increments the same word N times; the total
        must be exact regardless of commit interleaving."""
        n, per = 6, 7
        schedules = [
            [Transaction(p * 100 + i, [("c", 3), ("add", 0, 1)])
             for i in range(per)]
            for p in range(n)
        ]
        system, result = run(schedules)
        assert result.memory_image[0][0] == n * per

    def test_conflict_on_two_directories_simultaneously(self):
        """Transactions whose write-sets span two directories conflict on
        both; parallel commit must still serialize them correctly."""
        a, b = 0, PAGE * 64
        schedules = [
            [Transaction(p * 100 + i,
                         [("c", 5), ("add", a, 1), ("add", b, 10)])
             for i in range(4)]
            for p in range(3)
        ]
        system, result = run(schedules)
        assert result.memory_image[0][0] == 12
        assert result.memory_image[b // 32][0] == 120

    def test_reader_chases_writer_chain(self):
        writer = [Transaction(100 + i, [("c", 20), ("add", 0, 1)])
                  for i in range(8)]
        reader = [Transaction(200 + i, [("c", 10), ("ld", 0)])
                  for i in range(8)]
        system, result = run([writer, reader])
        # Every committed reader observed a prefix value 0..8.
        for record in result.commit_log:
            if record.tx.tx_id >= 200:
                (_, _, value) = record.reads[0]
                assert 0 <= value <= 8


class TestRetentionEdges:
    def test_retained_transaction_with_growing_write_set(self):
        """A retained transaction whose write-set differs between
        attempts must not deadlock (its skips are deferred until
        validation, so no directory passed its TID early)."""
        hot = 0
        # victim: reads hot, then writes a second line; writers hammer hot
        victim = [Transaction(1, [("ld", hot), ("c", 1500),
                                  ("add", hot + 64, 1)])]
        writers = [
            [Transaction(100 * p + i, [("c", 5), ("add", hot, 1)])
             for i in range(10)]
            for p in range(3)
        ]
        system, result = run([victim] + writers, retention_threshold=2)
        assert result.committed_transactions == 1 + 30

    def test_retention_threshold_one_all_transactions(self):
        schedules = [
            [Transaction(p * 100 + i, [("c", 3), ("add", 0, 1)])
             for i in range(6)]
            for p in range(4)
        ]
        system, result = run(schedules, retention_threshold=1)
        assert result.memory_image[0][0] == 24

    def test_no_retention_in_token_mode(self):
        schedules = [
            [Transaction(p * 100 + i, [("c", 3), ("add", 0, 1)])
             for i in range(6)]
            for p in range(4)
        ]
        system, result = run(schedules, commit_backend="token",
                             retention_threshold=1)
        assert sum(s.tid_retentions for s in result.proc_stats) == 0
        assert result.memory_image[0][0] == 24


class TestBarrierCommitInterplay:
    def test_commit_completes_before_barrier_release(self):
        """A value committed before a barrier is visible to reads after
        the barrier, on every processor."""
        flag = 0
        writer = [Transaction(1, [("st", flag, 42)]), BARRIER]
        readers = [
            [BARRIER, Transaction(10 + p, [("ld", flag)])] for p in range(3)
        ]
        system, result = run([writer] + readers)
        for record in result.commit_log:
            if record.tx.tx_id >= 10:
                assert record.reads[0] == (0, 0, 42)

    def test_alternating_barrier_phases(self):
        addr = 0
        schedules = []
        for p in range(4):
            items = []
            for phase in range(3):
                items.append(
                    Transaction(p * 100 + phase, [("c", 5), ("add", addr, 1)])
                )
                items.append(BARRIER)
            schedules.append(items)
        system, result = run(schedules)
        assert result.memory_image[0][0] == 12
