"""Per-node physical memory holding actual word values.

We model data values (not just addresses) so that the serializability
checker in :mod:`repro.verify` can compare the machine's final state and
every transactional read against a serial replay.  Untouched words read as
zero, so memory is stored sparsely.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.address import AddressMap


class MainMemory:
    """Sparse word-addressable memory for one node's physical address slice.

    The directory is the only agent that reads/writes this in the scalable
    system; latency is modelled by the directory controller (Table 2: 100
    cycles), not here — this class is pure state.
    """

    def __init__(self, amap: AddressMap) -> None:
        self.amap = amap
        self._lines: Dict[int, List[int]] = {}
        self.reads = 0
        self.writes = 0

    def read_line(self, line: int) -> List[int]:
        """Copy of the line's words (zeros if never written)."""
        self.reads += 1
        data = self._lines.get(line)
        if data is None:
            return [0] * self.amap.words_per_line
        return list(data)

    def write_line(self, line: int, data: List[int]) -> None:
        """Replace the whole line."""
        if len(data) != self.amap.words_per_line:
            raise ValueError(
                f"line write needs {self.amap.words_per_line} words, got {len(data)}"
            )
        self.writes += 1
        self._lines[line] = list(data)

    def write_words(self, line: int, words: Dict[int, int]) -> None:
        """Merge individual word values into the line (write-through commits)."""
        self.writes += 1
        data = self._lines.setdefault(line, [0] * self.amap.words_per_line)
        for word, value in words.items():
            data[word] = value

    def read_word(self, line: int, word: int) -> int:
        data = self._lines.get(line)
        return 0 if data is None else data[word]

    def clear(self) -> None:
        """Forget every stored line; the access counters stay."""
        self._lines = {}

    def snapshot(self) -> Dict[int, List[int]]:
        """Deep copy of all stored lines (for verification)."""
        return {line: list(words) for line, words in self._lines.items()}

    @property
    def resident_lines(self) -> int:
        return len(self._lines)
