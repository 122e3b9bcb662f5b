"""Structured protocol event log."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Event categories emitted by the instrumented system.
CATEGORIES = (
    "tx_start",      # processor begins a transaction attempt
    "tx_commit",     # attempt committed (fields: tid, tx)
    "tx_abort",      # attempt violated and rolled back (fields: tx, label, wasted)
    "violation",     # invalidation that violated an attempt (fields: line, tid, committer)
    "retention",     # attempt crossed the TID-retention threshold (fields: tx)
    "load_miss",     # remote load issued (fields: line, home)
    "load_retry",    # load/invalidate race retry (fields: line)
    "commit_start",  # commit phase entered (fields: tx)
    "dir_commit",    # directory finished applying a commit (fields: tid)
    "dir_abort",     # directory gang-cleared marks (fields: tid)
    "writeback",     # directory accepted or dropped a write-back
    "fault",         # injected packet fault (fields: kind, msg, dst)
    "stale",         # duplicate/stale protocol message ignored
    "watchdog",      # progress watchdog diagnostic (fields: kind, ...)
)


@dataclass(slots=True)
class ProtocolEvent:
    """One logged protocol event."""

    time: int
    category: str
    node: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"{self.time:>8}  {self.category:<12} node={self.node} {details}"


class EventLog:
    """Append-only event store with filtering and rendering."""

    def __init__(self, capacity: int = 200_000) -> None:
        self.capacity = capacity
        self.events: List[ProtocolEvent] = []
        self.dropped = 0

    def log(self, time: int, category: str, node: int, **fields: Any) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown event category {category!r}")
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(ProtocolEvent(time, category, node, fields))

    def __len__(self) -> int:
        return len(self.events)

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        **field_filters: Any,
    ) -> Iterator[ProtocolEvent]:
        """Events matching all the given criteria, in time order."""
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if node is not None and event.node != node:
                continue
            if any(event.fields.get(k) != v for k, v in field_filters.items()):
                continue
            yield event

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.category] = totals.get(event.category, 0) + 1
        return totals

    def dropped_note(self) -> List[str]:
        """A one-line truncation warning, or nothing if the log is whole."""
        if not self.dropped:
            return []
        return [f"  ({self.dropped:,} events dropped: log full at "
                f"{self.capacity:,})"]

    def render(self, limit: int = 50, **filters: Any) -> str:
        """A plain-text dump of the (filtered) first ``limit`` events."""
        lines = [str(e) for i, e in enumerate(self.select(**filters)) if i < limit]
        suffix = [] if len(lines) < limit else ["  ..."]
        return "\n".join(lines + suffix + self.dropped_note())
