"""Serial-replay serializability checking.

The protocol's claim (OCC condition 3, Section 2.1) is that committed
transactions are serializable **in TID order**.  We verify it directly:

1. During simulation every processor logs, for each *committing* attempt,
   the sequence of values its loads observed (:class:`CommitRecord`).
2. After the run, the checker replays every committed transaction's ops,
   in ascending TID order, against a fresh memory image.
3. The replay recomputes each load from the replay memory and compares it
   with what the real (concurrent, speculative, message-racing) machine
   observed.  Any divergence — a stale read, a lost write, a partial
   commit — surfaces as a :class:`ReplayMismatch`.
4. Finally the machine's drained memory image must equal the replay's.

Because workload transactions include data-dependent read-modify-writes
(``add`` ops), this is a strong end-to-end check: classic bugs like
lost updates or write skew change the observed read values or the final
memory image and are caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.memory.address import AddressMap
from repro.workloads.base import Transaction


@dataclass(slots=True)
class CommitRecord:
    """What one committed transaction did and saw (final attempt only)."""

    tid: int
    tx: Transaction
    proc: int
    reads: List[Tuple[int, int, int]]  # (line, word, value) in op order
    commit_time: int = 0


class ReplayMismatch(AssertionError):
    """The concurrent execution diverged from the serial replay."""


class _ReplayMemory:
    """Flat word store keyed by (line, word); zeros when untouched."""

    def __init__(self) -> None:
        self.words: Dict[Tuple[int, int], int] = {}

    def read(self, line: int, word: int) -> int:
        return self.words.get((line, word), 0)

    def write(self, line: int, word: int, value: int) -> None:
        self.words[(line, word)] = value


class SerializabilityChecker:
    """Replays a commit log and compares against observed behaviour."""

    def __init__(self, amap: AddressMap) -> None:
        self.amap = amap

    def replay(self, log: Sequence[CommitRecord]) -> _ReplayMemory:
        """Replay commits in TID order, checking every observed read.

        Returns the replay memory for final-state comparison.
        """
        memory = _ReplayMemory()
        ordered = sorted(log, key=lambda record: record.tid)
        tids = [record.tid for record in ordered]
        if len(set(tids)) != len(tids):
            raise ReplayMismatch(f"duplicate TIDs in commit log: {tids}")
        for record in ordered:
            self._replay_one(memory, record)
        return memory

    def _replay_one(self, memory: _ReplayMemory, record: CommitRecord) -> None:
        reads = iter(record.reads)
        amap = self.amap
        for op in record.tx.ops:
            kind = op[0]
            if kind == "c":
                continue
            line, word = amap.line_of(op[1]), amap.word_of(op[1])
            if kind == "ld":
                self._check_read(memory, record, reads, line, word)
            elif kind == "st":
                memory.write(line, word, op[2])
            elif kind == "add":
                value = self._check_read(memory, record, reads, line, word)
                memory.write(line, word, value + op[2])

    def _check_read(self, memory, record, reads, line, word) -> int:
        expected = memory.read(line, word)
        try:
            obs_line, obs_word, observed = next(reads)
        except StopIteration:
            raise ReplayMismatch(
                f"tx {record.tx.tx_id} (tid {record.tid}): "
                f"fewer recorded reads than replay expects"
            ) from None
        if (obs_line, obs_word) != (line, word):
            raise ReplayMismatch(
                f"tx {record.tx.tx_id} (tid {record.tid}): read of "
                f"({line},{word}) but recorded ({obs_line},{obs_word})"
            )
        if observed != expected:
            raise ReplayMismatch(
                f"tx {record.tx.tx_id} (tid {record.tid}) on P{record.proc}: "
                f"read line {line} word {word} observed {observed}, "
                f"serial replay expects {expected}"
            )
        return expected

    def check_final_memory(
        self,
        log: Sequence[CommitRecord],
        machine_image: Dict[int, List[int]],
    ) -> None:
        """The drained machine memory must equal the serial replay's.

        ``machine_image`` maps line -> word values (the union of all
        node memories after every dirty line has been written back).
        """
        replayed = self.replay(log)
        for (line, word), value in replayed.words.items():
            machine_line = machine_image.get(line)
            machine_value = machine_line[word] if machine_line else 0
            if machine_value != value:
                raise ReplayMismatch(
                    f"final memory mismatch at line {line} word {word}: "
                    f"machine has {machine_value}, replay has {value}"
                )

    def check(
        self,
        log: Sequence[CommitRecord],
        machine_image: Dict[int, List[int]],
    ) -> None:
        """Full check: read values and final memory."""
        self.check_final_memory(log, machine_image)
