"""The Scalable TCC directory controller.

One controller per node, serving the node's slice of physical memory.
All protocol messages for the slice funnel through a single FIFO
server (modelling directory-cache occupancy, 10 cycles per message); memory
reads for load fills are overlapped — the controller snapshots state and
schedules the reply ``memory_latency`` cycles later without blocking.

Responsibilities (Sections 2.2 and 3 of the paper):

* serve one committing transaction at a time, in gap-free TID order
  (:class:`~repro.directory.skipvector.SkipVector`);
* defer probe replies until ``NSTID >= probe.tid`` (the paper's
  "directory does not respond until the required TID is serviced");
* buffer Mark messages, gang-upgrade them to Owned on Commit, gang-clear
  them on Abort;
* fan out invalidations to sharers (except the committer) and hold the
  NSTID until every invalidation is acknowledged — this is the race
  elimination rule that makes probe replies a reliable validation signal;
* stall loads that hit Marked lines until the commit resolves
  (optimizing for commit success);
* forward loads of Owned lines to the owner via Flush-Data requests, and
  merge returning write-backs into memory, dropping stale ones by TID tag.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.messages import (
    AbortAck,
    AbortMsg,
    CommitAck,
    CommitMsg,
    FlushRequest,
    InvAck,
    Invalidation,
    LoadReply,
    LoadRequest,
    MarkAck,
    MarkMsg,
    ProbeReply,
    ProbeRequest,
    SkipAck,
    SkipMsg,
    TokenWrite,
    TokenWriteAck,
    WriteBackMsg,
)
from repro.directory.skipvector import SkipVector
from repro.directory.state import DirectoryState
from repro.memory.address import AddressMap
from repro.memory.mainmem import MainMemory
from repro.network.interconnect import Interconnect
from repro.sim import Engine


class ProtocolError(RuntimeError):
    """An invariant of the commit protocol was broken — always a bug."""


@dataclass
class _CommitContext:
    """Book-keeping for the commit currently being applied.

    ``pending`` holds one ``(line, sharer)`` key per outstanding
    invalidation, so a duplicated InvAck (delayed copy on a faulty
    fabric) cannot double-count an acknowledgement.
    """

    tid: int
    committer: int
    pending: set
    started_at: int
    attempt: int = 0


@dataclass
class DirectoryStats:
    """Per-directory counters for Table 3 / Figure 9."""

    loads_served: int = 0
    loads_stalled: int = 0
    loads_forwarded: int = 0
    commits_served: int = 0
    aborts_served: int = 0
    invalidations_sent: int = 0
    writebacks_accepted: int = 0
    writebacks_dropped: int = 0
    writebacks_merged: int = 0  # late write-backs salvaged word-by-word
    skips_processed: int = 0
    occupancy_samples: List[int] = field(default_factory=list)
    busy_cycles: int = 0
    dir_cache_hits: int = 0
    dir_cache_misses: int = 0

    @property
    def dir_cache_hit_rate(self) -> float:
        total = self.dir_cache_hits + self.dir_cache_misses
        return self.dir_cache_hits / total if total else 1.0


class _DirectoryCache:
    """LRU tag store over directory entries — a timing model only.

    The authoritative per-line state always lives in
    :class:`~repro.directory.state.DirectoryState` (conceptually backed
    by memory); this cache decides whether a message pays the 10-cycle
    directory-cache latency alone or an extra memory access to fetch the
    entry (Table 2's "directory cache").
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("directory cache needs at least one entry")
        self.capacity = capacity
        self._entries: dict[int, int] = {}
        self._clock = 0

    def access(self, line: int) -> bool:
        """Touch the line's entry; True on hit, False on miss+fill."""
        self._clock += 1
        if line in self._entries:
            self._entries[line] = self._clock
            return True
        if len(self._entries) >= self.capacity:
            victim = min(self._entries, key=self._entries.get)
            del self._entries[victim]
        self._entries[line] = self._clock
        return False


class DirectoryController:
    """Coherence controller for one node's memory slice."""

    def __init__(
        self,
        node: int,
        engine: Engine,
        network: Interconnect,
        memory: MainMemory,
        amap: AddressMap,
        config: SystemConfig,
    ) -> None:
        self.node = node
        self.engine = engine
        self.network = network
        self.memory = memory
        self.amap = amap
        self.config = config
        self.skipvec = SkipVector()
        self.state = DirectoryState()
        self.stats = DirectoryStats()

        # FIFO server state: the queue and the message in service.
        self._inbox: deque[Any] = deque()
        self._busy = False
        self._pending_probes: List[ProbeRequest] = []
        self._stalled_loads: Dict[int, List[LoadRequest]] = defaultdict(list)
        self._pending_forwards: Dict[int, List[LoadRequest]] = defaultdict(list)
        self._flush_requested: set[int] = set()
        self._active_commit: Optional[_CommitContext] = None
        self._first_contact: Dict[int, int] = {}
        self._dir_cache = (
            _DirectoryCache(config.directory_cache_entries)
            if config.directory_cache_entries
            else None
        )
        # Write-through ablation: data travelling with marks, per tid.
        self._wt_data: Dict[int, Dict[int, Dict[int, int]]] = defaultdict(dict)
        # sharer -> expanded group-target tuple (coarse sharer vectors).
        self._group_ranges: Dict[int, tuple] = {}

        # Hardened-protocol state (repro.faults); inert when
        # ``config.protocol_hardened`` is False.
        self._hardened = config.protocol_hardened
        #: tid -> highest attempt whose marks were gang-cleared by a
        #: *retained* abort: a duplicated mark from that attempt must not
        #: pollute a newer attempt's mark set at the same TID.
        self._aborted_attempt: Dict[int, int] = {}
        #: tid -> highest attempt that has marked here: a retried abort
        #: from an older attempt must not clear the newer attempt's marks.
        self._mark_attempt: Dict[int, int] = {}
        #: line -> word -> (tid, committer) of the last write-back commit
        #: that marked the word: the architectural version of every word.
        self._word_committer: Dict[int, Dict[int, tuple]] = {}
        #: line -> words whose latest committed value has not yet reached
        #: home memory (it still rides a write-back or an InvAck).  While
        #: non-empty, serving the line from memory would hand out a stale
        #: word, so loads park in ``_pending_forwards`` instead.
        self._awaiting: Dict[int, set] = {}
        self.fault_injector: Optional[Any] = None
        self.fault_stats: Optional[Any] = None

        #: Optional structured event log (set by the system when
        #: ``config.event_log`` is enabled).
        self.event_log = None

        self._dispatch = self._serve()

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def deliver(self, msg: Any) -> None:
        """Entry point: the node router drops directory messages here.

        The directory is a single FIFO server: a message that arrives
        while it is busy waits in the inbox.
        """
        if self._busy:
            self._inbox.append(msg)
        else:
            self._busy = True
            self._start(msg)

    @property
    def nstid(self) -> int:
        return self.skipvec.nstid

    # ------------------------------------------------------------------
    # FIFO server
    # ------------------------------------------------------------------

    def _serve(self) -> Dict[type, Any]:
        """The FIFO server's dispatch table: message type -> handler.

        Each message costs one engine event: :meth:`_start` schedules
        :meth:`_handle` after any active ``dir_stall`` window plus the
        occupancy (``directory_latency`` and the directory-cache
        penalty), and :meth:`_handle` runs the handler and starts the
        next queued message.
        """
        return {
            LoadRequest: self._handle_load,
            SkipMsg: self._handle_skip,
            ProbeRequest: self._handle_probe,
            MarkMsg: self._handle_mark,
            CommitMsg: self._handle_commit,
            AbortMsg: self._handle_abort,
            InvAck: self._handle_inv_ack,
            WriteBackMsg: self._handle_writeback,
            TokenWrite: self._handle_token_write,
        }

    def _start(self, msg: Any) -> None:
        pause = 0
        injector = self.fault_injector
        if injector is not None and injector.has_dir_stalls:
            # Node fault: the controller goes dark until the window
            # ends; queued messages wait it out.
            pause = injector.dir_stall_pause(self.node, self.engine.now)
        service = self.config.directory_latency + self._dir_cache_penalty(msg)
        self.stats.busy_cycles += service
        # Scheduled even at zero delay, so a load that
        # _release_stalled_loads re-delivers never re-enters a handler.
        self.engine.schedule_call(pause + service, self._handle, msg)

    def _handle(self, msg: Any) -> None:
        handler = self._dispatch.get(type(msg))
        if handler is None:
            raise ProtocolError(f"directory {self.node} got unknown message {msg!r}")
        handler(msg)
        if self._inbox:
            self._start(self._inbox.popleft())
        else:
            self._busy = False

    def _dir_cache_penalty(self, msg: Any) -> int:
        """Extra cycles to fetch uncached directory entries from memory.

        Concurrent entry fetches are overlapped: a message touching
        several uncached lines pays one memory access.
        """
        if self._dir_cache is None:
            return 0
        lines = getattr(msg, "lines", None)
        if lines is not None:
            touched = list(lines)
        else:
            line = getattr(msg, "line", None)
            touched = [line] if line is not None else []
        missed = False
        for line in touched:
            if not self._dir_cache.access(line):
                missed = True
        if not touched:
            return 0
        if missed:
            self.stats.dir_cache_misses += 1
            return self.config.memory_latency
        self.stats.dir_cache_hits += 1
        return 0

    # ------------------------------------------------------------------
    # outgoing helpers
    # ------------------------------------------------------------------

    def _send(self, dst: int, msg: Any) -> None:
        self.network.send(self.node, dst, msg, msg.payload_bytes, msg.traffic_class)

    def _send_later(self, dst_msg: tuple) -> None:
        dst, msg = dst_msg
        self.network.send(self.node, dst, msg, msg.payload_bytes, msg.traffic_class)

    # ------------------------------------------------------------------
    # loads and data movement
    # ------------------------------------------------------------------

    def _handle_load(self, msg: LoadRequest) -> None:
        entry = self.state.entry(msg.line)
        if entry.marked:
            # Optimize for commit success: stall rather than serve data
            # that is about to be overwritten (Section 3.3).
            self._stalled_loads[msg.line].append(msg)
            self.stats.loads_stalled += 1
            return
        if entry.owned:
            # Owner holds the only current copy: recall it.
            self._pending_forwards[msg.line].append(msg)
            self.stats.loads_forwarded += 1
            if msg.line not in self._flush_requested:
                self._flush_requested.add(msg.line)
                self._send(entry.owner, FlushRequest(self.node, msg.line))
            return
        if self._hardened and self._awaiting.get(msg.line):
            # Unowned, but a committed word's only copy is still in
            # flight (a delayed write-back or InvAck ride); serving now
            # would hand out a stale word.  Drops of data-carrying
            # messages are downgraded to delays, so the words are
            # guaranteed to land and release these waiters.
            self._pending_forwards[msg.line].append(msg)
            self.stats.loads_forwarded += 1
            return
        self._serve_load_from_memory(entry, msg)

    def _serve_load_from_memory(self, entry, msg: LoadRequest) -> None:
        entry.sharers.add(msg.requester)
        data = self.memory.read_line(msg.line)
        self.stats.loads_served += 1
        # Memory access proceeds off the directory's critical path.  The
        # reply is handed to the network only when the read completes:
        # sending now would hold this node's egress port meanwhile.
        self.engine.schedule_call(
            self.config.memory_latency, self._send_later,
            (msg.requester, LoadReply(msg.line, data, msg.seq)),
        )

    def _handle_writeback(self, msg: WriteBackMsg) -> None:
        entry = self.state.entry(msg.line)
        acceptable = (
            entry.owned
            and entry.owner == msg.writer
            and msg.tid >= entry.tid_tag
        )
        if not acceptable:
            if self._hardened:
                self._merge_late_writeback(entry, msg)
                return
            # Stale or unexpected write-back: the TID-tag race rule.
            self.stats.writebacks_dropped += 1
            if self.event_log is not None:
                self.event_log.log(self.engine.now, "writeback", self.node,
                                   line=msg.line, writer=msg.writer,
                                   accepted=False)
            return
        self.memory.write_words(msg.line, msg.words)
        self.stats.writebacks_accepted += 1
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "writeback", self.node,
                               line=msg.line, writer=msg.writer,
                               accepted=True)
        entry.release_ownership()
        if msg.remove:
            entry.sharers.discard(msg.writer)
        self._flush_requested.discard(msg.line)
        if self._hardened:
            self._clear_awaiting(msg.line, msg.words, msg.writer, msg.tid)
            self._service_forwards(msg.line)
            return
        waiters = self._pending_forwards.pop(msg.line, [])
        for load in waiters:
            self._handle_load(load)

    def _merge_late_writeback(self, entry, msg: WriteBackMsg) -> None:
        """Salvage a write-back the TID-tag rule would drop.

        On an unreliable fabric a flush can arrive *after* a later
        commit already transferred the line's ownership; dropping it
        whole loses the only copy of every word that newer commit did
        not overwrite.  A word is still fresh exactly when its writer is
        the committer of its current architectural version and the
        write-back's tag covers that version — a stale flush from a
        processor that merely read the word (and was invalidated after
        sending) never passes, whatever its tag says.
        """
        versions = self._word_committer.get(msg.line, {})
        fresh = {}
        for word, value in msg.words.items():
            ver = versions.get(word)
            if ver is None or (ver[1] == msg.writer and msg.tid >= ver[0]):
                fresh[word] = value
        if not fresh:
            self.stats.writebacks_dropped += 1
            self._count_stale()
            if self.event_log is not None:
                self.event_log.log(self.engine.now, "writeback", self.node,
                                   line=msg.line, writer=msg.writer,
                                   accepted=False)
        else:
            self.memory.write_words(msg.line, fresh)
            self.stats.writebacks_merged += 1
            if self.event_log is not None:
                self.event_log.log(self.engine.now, "writeback", self.node,
                                   line=msg.line, writer=msg.writer,
                                   accepted=True, merged=len(fresh))
            # Ownership and sharers stay untouched: the writer is not
            # (or no longer) the registered owner, and a duplicated
            # eviction must not unregister a re-sharing processor.
            self._clear_awaiting(msg.line, fresh, msg.writer, msg.tid)
            self._service_forwards(msg.line)
        if entry.owned and self._pending_forwards.get(msg.line):
            # The write-back meant to satisfy these forwards was
            # overtaken by the owner's next commit of the same line;
            # recall the line again from the current owner or the
            # forwards wedge forever.
            self._send(entry.owner, FlushRequest(self.node, msg.line))

    def _clear_awaiting(self, line: int, words: Dict[int, int],
                        writer: int, tid: int) -> None:
        """Mark words whose committed value just reached memory."""
        waiting = self._awaiting.get(line)
        if not waiting:
            return
        versions = self._word_committer.get(line, {})
        for word in list(waiting):
            if word not in words:
                continue
            ver = versions.get(word)
            if ver is None or (ver[1] == writer and tid >= ver[0]):
                waiting.discard(word)
        if not waiting:
            del self._awaiting[line]

    def _service_forwards(self, line: int) -> None:
        """Re-dispatch parked loads once memory holds the whole line."""
        if not self._pending_forwards.get(line):
            return
        if self._awaiting.get(line):
            return
        entry = self.state.entry(line)
        if entry.owned:
            return  # a recall to the owner is in progress
        waiters = self._pending_forwards.pop(line, [])
        for load in waiters:
            self._handle_load(load)

    def _handle_token_write(self, msg: TokenWrite) -> None:
        """Small-scale TCC baseline: write-through commit data to memory."""
        for line, words in msg.lines.items():
            self.memory.write_words(line, words)
            entry = self.state.entry(line)
            entry.tid_tag = msg.tid
        self.stats.commits_served += 1
        self._send(msg.committer, TokenWriteAck(self.node, msg.tid))

    # ------------------------------------------------------------------
    # commit protocol
    # ------------------------------------------------------------------

    def _count_stale(self) -> None:
        if self.fault_stats is not None:
            self.fault_stats.stale_drops += 1
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "stale", self.node)

    def _handle_skip(self, msg: SkipMsg) -> None:
        self.stats.skips_processed += 1
        if self._active_commit is not None and msg.tid == self._active_commit.tid:
            raise ProtocolError(
                f"dir {self.node}: skip from TID {msg.tid} while it is committing"
            )
        # The skip vector is naturally idempotent: duplicate and stale
        # skips are absorbed (the bit is already set / already shifted out).
        if self.skipvec.skip(msg.tid):
            self._after_advance()
        if msg.committer >= 0:
            # Hardened protocol: always ack — including for stale
            # duplicates, whose original ack may have been the loss.
            self._send(msg.committer, SkipAck(self.node, msg.tid))

    def _handle_probe(self, msg: ProbeRequest) -> None:
        if self.nstid >= msg.tid:
            self._reply_probe(msg)
        else:
            if self._hardened:
                for pending in self._pending_probes:
                    if (
                        pending.requester == msg.requester
                        and pending.tid == msg.tid
                        and pending.writing == msg.writing
                    ):
                        self._count_stale()
                        return  # duplicate of an already-deferred probe
            self._pending_probes.append(msg)

    def _reply_probe(self, msg: ProbeRequest) -> None:
        self._send(
            msg.requester,
            ProbeReply(self.node, msg.tid, self.nstid, msg.writing),
        )

    def _handle_mark(self, msg: MarkMsg) -> None:
        if msg.tid != self.nstid:
            if self._hardened and msg.tid < self.nstid:
                # This TID already finished here; a late duplicate of a
                # mark it once sent.  The committer cannot still be
                # waiting (it drove the NSTID past the TID itself).
                self._count_stale()
                return
            raise ProtocolError(
                f"dir {self.node}: mark from TID {msg.tid} while serving {self.nstid}"
            )
        if self._hardened:
            if msg.attempt <= self._aborted_attempt.get(msg.tid, -1):
                # Duplicated mark from an attempt a retained abort already
                # gang-cleared; applying it would corrupt the live
                # attempt's mark set at the same TID.
                self._count_stale()
                return
            if msg.attempt > self._mark_attempt.get(msg.tid, -1):
                self._mark_attempt[msg.tid] = msg.attempt
        self._first_contact.setdefault(msg.tid, self.engine.now)
        for line, word_mask in msg.lines.items():
            self.state.mark_line(line, msg.tid, word_mask)
        if msg.data:
            self._wt_data[msg.tid].update(msg.data)
        self._send(msg.committer, MarkAck(self.node, msg.tid, msg.attempt))

    def _handle_commit(self, msg: CommitMsg) -> None:
        if msg.tid != self.nstid:
            if self._hardened and msg.tid < self.nstid:
                # The commit already applied here (only this committer's
                # own commit can have advanced the NSTID past its TID);
                # its ack may have been the loss — re-send it.
                self._count_stale()
                self._send(
                    msg.committer, CommitAck(self.node, msg.tid, msg.attempt)
                )
                return
            raise ProtocolError(
                f"dir {self.node}: commit from TID {msg.tid} while serving {self.nstid}"
            )
        if self._active_commit is not None:
            if self._hardened and self._active_commit.tid == msg.tid:
                # Duplicate while invalidations are outstanding; the ack
                # follows from _finish_commit.
                self._count_stale()
                return
            raise ProtocolError(f"dir {self.node}: overlapping commits")
        marked = self.state.marked_for(msg.tid)
        if not marked:
            raise ProtocolError(
                f"dir {self.node}: commit from TID {msg.tid} with no marked lines"
            )
        word_granularity = self.config.granularity == "word"
        pending = set()
        for entry in marked:
            invalidatees = self._invalidation_targets(entry) - {msg.committer}
            for sharer in sorted(invalidatees):
                self._send(
                    sharer,
                    Invalidation(
                        self.node, entry.line, entry.marked_words,
                        msg.tid, msg.committer,
                    ),
                )
                pending.add((entry.line, sharer))
            self.stats.invalidations_sent += len(invalidatees)
            if not word_granularity:
                # Line granularity: the invalidation drops the whole line,
                # so invalidated processors stop being sharers (the paper's
                # policy).  At word granularity they may retain other valid
                # words and must keep receiving invalidations.
                entry.sharers -= invalidatees
        started = self._first_contact.pop(msg.tid, self.engine.now)
        self._active_commit = _CommitContext(
            msg.tid, msg.committer, pending, started, msg.attempt
        )
        if not pending:
            self._finish_commit()

    def _invalidation_targets(self, entry) -> set:
        """Who a commit to this line must invalidate.

        With the paper's full bit vector this is exactly the sharers; a
        coarse vector (``sharer_group_size`` > 1) only remembers groups,
        so the whole group of every sharer is invalidated — the extra
        targets just acknowledge (spurious invalidations are harmless,
        Section 3.3).
        """
        group = self.config.sharer_group_size
        if group <= 1 or not entry.sharers:
            return set(entry.sharers)
        n = self.config.n_processors
        targets = set()
        ranges = self._group_ranges
        for sharer in entry.sharers:
            expanded = ranges.get(sharer)
            if expanded is None:
                base = (sharer // group) * group
                expanded = tuple(range(base, min(base + group, n)))
                ranges[sharer] = expanded
            targets.update(expanded)
        return targets

    def _handle_inv_ack(self, msg: InvAck) -> None:
        ctx = self._active_commit
        if ctx is None or msg.tid != ctx.tid:
            if self._hardened:
                self._count_stale()  # duplicate after the commit finished
                self._salvage_ack_ride(msg)
                return
            raise ProtocolError(
                f"dir {self.node}: unexpected InvAck tid={msg.tid} "
                f"(active={ctx.tid if ctx else None})"
            )
        key = (msg.line, msg.sharer)
        if key not in ctx.pending:
            if self._hardened:
                self._count_stale()  # duplicated InvAck for this commit
                self._salvage_ack_ride(msg)
                return
            raise ProtocolError(
                f"dir {self.node}: InvAck for unexpected {key} (tid {msg.tid})"
            )
        if msg.wb_words:
            # The invalidated previous owner returned its surviving words;
            # they must land in memory before ownership transfers.
            self.memory.write_words(msg.line, msg.wb_words)
            entry = self.state.entry(msg.line)
            if entry.owner == msg.sharer:
                entry.release_ownership()
                if self._hardened:
                    self._flush_requested.discard(msg.line)
            if self._hardened:
                self._clear_awaiting(
                    msg.line, msg.wb_words, msg.sharer, msg.wb_tid
                )
        ctx.pending.discard(key)
        if not ctx.pending:
            self._finish_commit()

    def _salvage_ack_ride(self, msg: InvAck) -> None:
        """A stale/duplicated InvAck can still carry the current owner's
        only copy of a line (the flush rode the ack).  Dropping the ack is
        right; dropping the data is not — route it through the ordinary
        write-back acceptance rule instead."""
        if msg.wb_words:
            self._handle_writeback(
                WriteBackMsg(
                    msg.sharer, msg.line, msg.wb_words, msg.wb_tid,
                    remove=False,
                )
            )

    def _finish_commit(self) -> None:
        ctx = self._active_commit
        assert ctx is not None
        write_through = self._wt_data.pop(ctx.tid, None)
        for entry in self.state.marked_for(ctx.tid):
            if self.config.write_through_commit:
                words = (write_through or {}).get(entry.line, {})
                self.memory.write_words(entry.line, words)
                entry.tid_tag = ctx.tid
                if self.config.granularity == "word":
                    entry.sharers.add(ctx.committer)
                else:
                    entry.sharers = {ctx.committer}
                entry.owner = None
                entry.clear_mark()
            else:
                if self._hardened:
                    self._note_commit_words(
                        entry.line, entry.marked_words, ctx.tid, ctx.committer
                    )
                entry.commit_to(
                    ctx.committer,
                    ctx.tid,
                    keep_sharers=self.config.granularity == "word",
                )
                if self._hardened and self._pending_forwards.get(entry.line):
                    # Loads were parked on a recall to the *previous*
                    # owner, whose data rode home on the InvAcks instead
                    # of answering the flush; re-recall from the new
                    # owner or the forwards wedge forever.
                    self._flush_requested.add(entry.line)
                    self._send(
                        ctx.committer, FlushRequest(self.node, entry.line)
                    )
        self.stats.commits_served += 1
        self.stats.occupancy_samples.append(self.engine.now - ctx.started_at)
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "dir_commit", self.node,
                               tid=ctx.tid, committer=ctx.committer)
        self._send(ctx.committer, CommitAck(self.node, ctx.tid, ctx.attempt))
        self.state.drop_marks(ctx.tid)
        self._active_commit = None
        self.skipvec.complete_current()
        self._after_advance()

    def _note_commit_words(self, line: int, word_mask: int,
                           tid: int, committer: int) -> None:
        """Record the new architectural version of every committed word.

        Write-back commit: the data stays in the committer's cache, so
        each word joins ``_awaiting`` until a write-back (or InvAck
        ride) from its committer lands it in home memory.
        """
        versions = self._word_committer.setdefault(line, {})
        waiting = self._awaiting.setdefault(line, set())
        word = 0
        while word_mask:
            if word_mask & 1:
                versions[word] = (tid, committer)
                waiting.add(word)
            word_mask >>= 1
            word += 1

    def _handle_abort(self, msg: AbortMsg) -> None:
        ctx = self._active_commit
        if ctx is not None and ctx.tid == msg.tid:
            raise ProtocolError(
                f"dir {self.node}: abort from TID {msg.tid} after its commit message"
            )
        if self._hardened:
            if msg.tid < self.nstid:
                # The TID already finished here; just re-ack (the first
                # ack may have been the loss the retry is covering).
                self._count_stale()
                if msg.want_ack:
                    self._send(
                        msg.committer, AbortAck(self.node, msg.tid, msg.attempt)
                    )
                return
            if msg.attempt < self._mark_attempt.get(msg.tid, -1):
                # A retried abort from an older attempt must not clear
                # the newer attempt's marks at the same (retained) TID.
                self._count_stale()
                if msg.want_ack:
                    self._send(
                        msg.committer, AbortAck(self.node, msg.tid, msg.attempt)
                    )
                return
            if msg.retain and msg.attempt > self._aborted_attempt.get(msg.tid, -1):
                self._aborted_attempt[msg.tid] = msg.attempt
        for entry in self.state.marked_for(msg.tid):
            entry.clear_mark()
        self.state.drop_marks(msg.tid)
        self._wt_data.pop(msg.tid, None)
        self._first_contact.pop(msg.tid, None)
        self.stats.aborts_served += 1
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "dir_abort", self.node,
                               tid=msg.tid, retain=msg.retain)
        if msg.want_ack:
            self._send(msg.committer, AbortAck(self.node, msg.tid, msg.attempt))
        if not msg.retain and self.skipvec.skip(msg.tid):
            self._after_advance()
        else:
            self._release_stalled_loads()

    # ------------------------------------------------------------------
    # post-advance housekeeping
    # ------------------------------------------------------------------

    def _after_advance(self) -> None:
        nstid = self.nstid
        if self._hardened and (self._aborted_attempt or self._mark_attempt):
            # Attempt-staleness records for passed TIDs can never match a
            # live message again (tid < nstid is caught first); drop them.
            for table in (self._aborted_attempt, self._mark_attempt):
                for tid in [t for t in table if t < nstid]:
                    del table[tid]
        if self._pending_probes:
            ready = [p for p in self._pending_probes if nstid >= p.tid]
            if ready:
                self._pending_probes = [
                    p for p in self._pending_probes if nstid < p.tid
                ]
                for probe in ready:
                    self._reply_probe(probe)
        self._release_stalled_loads()

    def _release_stalled_loads(self) -> None:
        if not self._stalled_loads:
            return
        released_lines = [
            line
            for line, waiting in self._stalled_loads.items()
            if waiting and not self.state.entry(line).marked
        ]
        for line in released_lines:
            waiting = self._stalled_loads.pop(line)
            for load in waiting:
                # Back through the server so each released load pays
                # directory occupancy again.
                self.deliver(load)

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------

    def quiescent_check(self) -> None:
        """Raise if protocol state is still in flight (hang diagnosis)."""
        problems = []
        if self._active_commit is not None:
            problems.append(f"active commit {self._active_commit.tid}")
        if self._pending_probes:
            problems.append(f"{len(self._pending_probes)} pending probes")
        stalled = sum(len(v) for v in self._stalled_loads.values())
        if stalled:
            problems.append(f"{stalled} stalled loads")
        forwards = sum(len(v) for v in self._pending_forwards.values())
        if forwards:
            problems.append(f"{forwards} pending forwards")
        awaiting = sum(len(v) for v in self._awaiting.values())
        if awaiting:
            problems.append(f"{awaiting} committed words not yet home")
        if problems:
            raise ProtocolError(f"dir {self.node} not quiescent: {', '.join(problems)}")
