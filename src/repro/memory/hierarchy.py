"""The per-processor private cache hierarchy.

The paper's processors have a 32 KB L1 (1-cycle) and a 512 KB L2
(6-cycle), with every level tracking SR/SM speculative state (Table 2,
Section 3.1).  Because both levels hold identical speculative state and
the protocol engages only when a request leaves the hierarchy, we keep the
*authoritative* state and data in a single :class:`SpeculativeCache` sized
as the L2, and model the L1 as an inclusive tag-only timing filter: an
access that hits the filter costs the L1 latency, an access that hits only
the backing cache costs the L2 latency, anything else leaves the node.

The hierarchy also implements the paper's write-back rule: the dirty bit
is checked on the first speculative write of each transaction, and if set
the committed data must first be flushed home so that main memory retains
the pre-transaction version (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.address import AddressMap
from repro.memory.cache import CacheLine, EvictionNotice, SpeculativeCache

HIT_L1 = "l1"
HIT_L2 = "l2"
MISS = "miss"
FLUSH_FIRST = "flush_first"


@dataclass(slots=True)
class AccessResult:
    """Outcome of a load/store against the private hierarchy."""

    outcome: str
    cycles: int = 0
    value: Optional[int] = None
    flush_line: Optional[int] = None
    flush_words: Optional[Dict[int, int]] = None

    @property
    def hit(self) -> bool:
        return self.outcome in (HIT_L1, HIT_L2)


class _TagFilter:
    """Tag-only set-associative LRU store modelling L1 residency.

    Like the backing cache, a set's bucket is created by its first insert.
    """

    def __init__(self, n_lines: int, ways: int) -> None:
        self.ways = ways
        self.n_sets = max(1, n_lines // ways)
        self._sets: List[Optional[Dict[int, int]]] = [None] * self.n_sets
        self._clock = 0

    def contains(self, line: int, touch: bool = True) -> bool:
        bucket = self._sets[line % self.n_sets]
        if not bucket or line not in bucket:
            return False
        if touch:
            self._clock += 1
            bucket[line] = self._clock
        return True

    def insert(self, line: int) -> None:
        index = line % self.n_sets
        bucket = self._sets[index]
        if bucket is None:
            bucket = self._sets[index] = {}
        self._clock += 1
        if line not in bucket and len(bucket) >= self.ways:
            victim = min(bucket, key=bucket.get)
            del bucket[victim]
        bucket[line] = self._clock

    def invalidate(self, line: int) -> None:
        bucket = self._sets[line % self.n_sets]
        if bucket:
            bucket.pop(line, None)

    def clear(self) -> None:
        self._sets = [None] * self.n_sets


class PrivateHierarchy:
    """L1 timing filter over an authoritative speculative L2."""

    def __init__(
        self,
        amap: AddressMap,
        l1_size: int = 32 * 1024,
        l1_ways: int = 4,
        l1_latency: int = 1,
        l2_size: int = 512 * 1024,
        l2_ways: int = 8,
        l2_latency: int = 6,
        granularity: str = "word",
        name: str = "hier",
    ) -> None:
        self.amap = amap
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.l1 = _TagFilter(l1_size // amap.line_size, l1_ways)
        self.l2 = SpeculativeCache(amap, l2_size, l2_ways, granularity, name=f"{name}.l2")
        self.granularity = granularity

    # -- timing helper ---------------------------------------------------

    def _latency(self, line: int) -> int:
        if self.l1.contains(line):
            return self.l1_latency
        self.l1.insert(line)
        return self.l2_latency

    # -- accesses ---------------------------------------------------------

    def load(self, line: int, word: int, speculative: bool = True) -> AccessResult:
        value = self.l2.read(line, word, speculative=speculative)
        if value is None:
            self.l1.invalidate(line)
            return AccessResult(MISS)
        cycles = self._latency(line)
        outcome = HIT_L1 if cycles == self.l1_latency else HIT_L2
        return AccessResult(outcome, cycles=cycles, value=value)

    def store(self, line: int, word: int, value: int, speculative: bool = True) -> AccessResult:
        entry = self.l2.lookup(line)
        if entry is None:
            self.l1.invalidate(line)
            return AccessResult(MISS)
        if speculative and entry.dirty and not entry.sm_mask:
            # Paper rule: committed (dirty) data must reach home memory
            # before the first speculative overwrite in a new transaction.
            return AccessResult(
                FLUSH_FIRST,
                flush_line=line,
                flush_words=entry.valid_words(),
            )
        self.l2.write(line, word, value, speculative=speculative)
        cycles = self._latency(line)
        outcome = HIT_L1 if cycles == self.l1_latency else HIT_L2
        return AccessResult(outcome, cycles=cycles, value=value)

    def fill(self, line: int, data: List[int], dirty: bool = False) -> List[EvictionNotice]:
        """Install a remotely fetched line; returns dirty lines forced out."""
        notice = self.l2.fill(line, data, dirty=dirty)
        self.l1.insert(line)
        if notice is None:
            return []
        self.l1.invalidate(notice.line)
        return [notice] if notice.dirty else []

    # -- external coherence actions ---------------------------------------

    def peek(self, line: int) -> Optional[CacheLine]:
        """The resident line without touching LRU state."""
        return self.l2.lookup(line, touch=False)

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Drop a line (inclusion victim etc.); returns its old state."""
        self.l1.invalidate(line)
        return self.l2.invalidate(line)

    def invalidate_words(self, line: int, word_mask: int) -> Optional[CacheLine]:
        """Word-granularity invalidation (remote commit); the line survives
        if it retains valid words.  Returns the updated/removed entry."""
        entry = self.l2.invalidate_words(line, word_mask)
        if entry is None or not entry.valid_mask:
            self.l1.invalidate(line)
        return entry

    def flushed(self, line: int) -> None:
        """The line's dirty data has reached home; keep it, now clean."""
        self.l2.clear_dirty(line)

    def extract_for_writeback(self, line: int) -> Optional[Dict[int, int]]:
        """Valid words for a write-back that removes the line from cache."""
        entry = self.l2.invalidate(line)
        self.l1.invalidate(line)
        return None if entry is None else entry.valid_words()

    # -- transaction boundaries --------------------------------------------

    def written_lines(self) -> List[CacheLine]:
        return self.l2.written_lines()

    def read_lines(self) -> List[CacheLine]:
        return self.l2.read_lines()

    def commit_speculative(self) -> List[int]:
        return self.l2.commit_speculative()

    def abort_speculative(self) -> List[int]:
        dropped = self.l2.abort_speculative()
        for line in dropped:
            self.l1.invalidate(line)
        return dropped

    def clear(self) -> None:
        """Empty both levels; the statistics stay."""
        self.l1.clear()
        self.l2.clear()

    # -- statistics ---------------------------------------------------------

    @property
    def stats(self):
        return self.l2.stats

    def read_set_bytes(self) -> int:
        """Current transaction read-set size in bytes (for Table 3)."""
        return sum(
            bin(entry.sr_mask).count("1") * self.amap.word_size
            for entry in self.l2.read_lines()
        )

    def write_set_bytes(self) -> int:
        """Current transaction write-set size in bytes (for Table 3)."""
        return sum(
            bin(entry.sm_mask).count("1") * self.amap.word_size
            for entry in self.l2.written_lines()
        )
