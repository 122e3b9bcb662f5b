"""The Scalable TCC coherence message set (Table 1 of the paper).

Every message knows its payload size in bytes and its Figure 9 traffic
class so the interconnect can account for it.  Sizes follow the usual DSM
conventions: 4-byte addresses/TIDs, full cache lines for data messages,
per-line address+flag records for commit marks.

| Paper message | Here |
| ------------- | ---- |
| Load Request  | :class:`LoadRequest` |
| TID Request   | :class:`TidRequest` / :class:`TidReply` |
| Skip Message  | :class:`SkipMsg` |
| NSTID Probe   | :class:`ProbeRequest` / :class:`ProbeReply` |
| Mark          | :class:`MarkMsg` (+ :class:`MarkAck`) |
| Commit        | :class:`CommitMsg` (+ :class:`CommitAck`) |
| Abort         | :class:`AbortMsg` |
| Write Back    | :class:`WriteBackMsg` (remove=True) |
| Flush         | :class:`WriteBackMsg` (remove=False) |
| Flush Data Request | :class:`FlushRequest` |
| (invalidate)  | :class:`Invalidation` / :class:`InvAck` |

The explicit ``MarkAck`` is our concession to the modelled *unordered*
network: the paper assumes a transaction "completes marking" before it
commits; acknowledging marks is the simplest way to establish that order
without assuming point-to-point FIFO delivery.

Hardening (``repro.faults``): messages whose class sets ``retryable =
True`` are protected end-to-end — the sender re-issues them on a timeout
until the matching reply/ack arrives, so the fault injector may drop
them outright.  Messages without the attribute (invalidations, their
acks, write-backs, flush requests, token traffic) carry data or
side-effects with no end-to-end retry, so a selected drop is downgraded
to a delay (modelling link-level retransmission).  ``seq`` / ``attempt``
fields let receivers recognize duplicates and stale retries; they add no
modelled payload bytes (a real header would carry them in existing
slack), keeping fault-free traffic accounting bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.message import (
    CLASS_COMMIT,
    CLASS_MISS,
    CLASS_OVERHEAD,
    CLASS_WRITEBACK,
)

ADDR_BYTES = 4
TID_BYTES = 4
FLAG_BYTES = 1  # per-line word flags (8 words -> 1 byte)


@dataclass(slots=True)
class LoadRequest:
    """Fetch a cache line from its home directory."""

    requester: int
    line: int
    seq: int  # processor-local sequence, for load/invalidate race detection

    payload_bytes = ADDR_BYTES
    traffic_class = CLASS_OVERHEAD
    retryable = True


@dataclass(slots=True)
class LoadReply:
    """Full line data back to the requester."""

    line: int
    data: List[int]
    seq: int

    traffic_class = CLASS_MISS
    retryable = True

    @property
    def payload_bytes(self) -> int:
        return ADDR_BYTES + 4 * len(self.data)


@dataclass(slots=True)
class TidRequest:
    """Ask the global vendor for the next transaction ID.

    ``seq`` (hardened protocol only) identifies the request so retries
    reach the vendor idempotently: the vendor caches the last
    ``(seq, tid)`` per requester and never issues a second TID for a
    re-sent seq — the gap-free contract survives duplicated requests.
    """

    requester: int
    seq: int = 0

    payload_bytes = 0
    traffic_class = CLASS_OVERHEAD
    retryable = True


@dataclass(slots=True)
class TidReply:
    tid: int
    seq: int = 0

    payload_bytes = TID_BYTES
    traffic_class = CLASS_OVERHEAD
    retryable = True


@dataclass(slots=True)
class SkipMsg:
    """Tell a directory this TID has nothing to commit there.

    ``committer >= 0`` (hardened protocol) asks the directory to
    acknowledge with :class:`SkipAck` so the sender's background retry
    can stop; directories re-ack stale/duplicate skips.
    """

    tid: int
    committer: int = -1

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class SkipAck:
    """Hardened protocol only: a directory saw the skip (or already had)."""

    directory: int
    tid: int

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class ProbeRequest:
    """Ask a directory for its NSTID; the directory defers the reply until
    NSTID >= tid (the paper's "directory does not respond until the
    required TID is being serviced" optimization)."""

    requester: int
    tid: int
    writing: bool

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class ProbeReply:
    directory: int
    tid: int
    nstid: int
    writing: bool

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class MarkMsg:
    """Pre-commit the write-set lines homed at one directory.

    ``lines`` maps line -> word flags (full mask at line granularity).
    In the write-through ablation, ``data`` carries the written word
    values (line -> {word -> value}) and is charged as commit traffic —
    the very cost the write-back design avoids.
    """

    committer: int
    tid: int
    lines: Dict[int, int]
    data: Optional[Dict[int, Dict[int, int]]] = None
    attempt: int = 0

    traffic_class = CLASS_COMMIT
    retryable = True

    @property
    def payload_bytes(self) -> int:
        size = TID_BYTES + len(self.lines) * (ADDR_BYTES + FLAG_BYTES)
        if self.data:
            size += sum(4 * len(words) for words in self.data.values())
        return size


@dataclass(slots=True)
class MarkAck:
    directory: int
    tid: int
    attempt: int = 0

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class CommitMsg:
    """Gang-upgrade this TID's marked lines to owned."""

    committer: int
    tid: int
    attempt: int = 0

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class CommitAck:
    directory: int
    tid: int
    attempt: int = 0

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class AbortMsg:
    """Gang-clear this TID's marks.

    Normally the abort also counts as a skip so the directory can advance
    past the TID.  A *retained* abort (starvation avoidance, Section 3.3)
    clears the marks but keeps the TID unserved: the transaction will
    retry its commit under the same TID, which ages into the lowest TID in
    the system and therefore cannot be violated forever.
    """

    committer: int
    tid: int
    retain: bool = False
    attempt: int = 0
    want_ack: bool = False

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class AbortAck:
    """Hardened protocol only: a directory cleared (or had already
    cleared) the attempt's marks."""

    directory: int
    tid: int
    attempt: int = 0

    payload_bytes = TID_BYTES
    traffic_class = CLASS_COMMIT
    retryable = True


@dataclass(slots=True)
class Invalidation:
    """A committed write: sharers drop the words and check for violation.

    ``committer`` is carried for profiling (it is logged with the
    ``violation`` event, and the TAPE view attributes violations to the
    committing processor); the hardware message needs only the TID.
    """

    directory: int
    line: int
    word_mask: int
    tid: int
    committer: int = -1

    payload_bytes = ADDR_BYTES + TID_BYTES + FLAG_BYTES
    traffic_class = CLASS_COMMIT


@dataclass(slots=True)
class InvAck:
    """Acknowledgement; carries write-back data when the invalidated line
    was dirty at the previous owner (so its non-overwritten words are not
    lost when ownership moves)."""

    sharer: int
    line: int
    tid: int
    wb_words: Optional[Dict[int, int]] = None  # word -> value
    wb_tid: int = 0

    traffic_class = CLASS_COMMIT

    @property
    def payload_bytes(self) -> int:
        base = ADDR_BYTES + TID_BYTES
        if self.wb_words:
            base += 4 * len(self.wb_words) + FLAG_BYTES
        return base


@dataclass(slots=True)
class WriteBackMsg:
    """Committed data returning home.

    ``remove=True`` is the paper's *Write Back* (line leaves the cache,
    e.g. on eviction or a flush-data request); ``remove=False`` is *Flush*
    (data goes home but the line stays cached clean, e.g. the
    write-back-before-first-speculative-write rule).
    """

    writer: int
    line: int
    words: Dict[int, int]  # valid word -> value
    tid: int
    remove: bool

    traffic_class = CLASS_WRITEBACK

    @property
    def payload_bytes(self) -> int:
        return ADDR_BYTES + TID_BYTES + FLAG_BYTES + 4 * len(self.words)


@dataclass(slots=True)
class FlushRequest:
    """Directory asks the owner to write a line back (true sharing)."""

    directory: int
    line: int

    payload_bytes = ADDR_BYTES
    traffic_class = CLASS_OVERHEAD


# ---------------------------------------------------------------------------
# Small-scale TCC baseline messages (token-serialized, write-through,
# broadcast commit — Section 2.2's "condition 2" design)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TokenInv:
    """Broadcast commit-address snoop: every other processor checks its
    speculative state against these lines/word flags."""

    committer: int
    tid: int
    lines: Dict[int, int]  # line -> word flags

    traffic_class = CLASS_COMMIT

    @property
    def payload_bytes(self) -> int:
        return TID_BYTES + len(self.lines) * (ADDR_BYTES + FLAG_BYTES)


@dataclass(slots=True)
class TokenInvAck:
    node: int
    tid: int

    payload_bytes = TID_BYTES
    traffic_class = CLASS_OVERHEAD


@dataclass(slots=True)
class TokenWrite:
    """Write-through commit data to one home memory."""

    committer: int
    tid: int
    lines: Dict[int, Dict[int, int]]  # line -> {word -> value}

    traffic_class = CLASS_COMMIT

    @property
    def payload_bytes(self) -> int:
        return TID_BYTES + sum(
            ADDR_BYTES + FLAG_BYTES + 4 * len(words) for words in self.lines.values()
        )


@dataclass(slots=True)
class TokenWriteAck:
    directory: int
    tid: int

    payload_bytes = TID_BYTES
    traffic_class = CLASS_OVERHEAD
