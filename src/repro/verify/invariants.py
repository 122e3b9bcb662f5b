"""Machine-wide protocol invariants, checkable at any quiescent instant.

These are the structural properties the Scalable TCC protocol maintains;
violating any of them is a bug even if no workload has (yet) observed
wrong data.  The system checks them at the end of every run, and in
*paranoid mode* (``SystemConfig(paranoid=True)``) periodically during
the run, which catches transient corruption long before it surfaces as
a serializability failure.

Checked invariants:

I1  single owner — each directory entry names at most one owner (by
    construction) and an owner is always also a sharer-visible node;
I2  sharer coverage — every processor holding valid words of a line is
    in the line's home-directory sharers list (so future commits can
    invalidate it); the list may be conservative (extra members), never
    missing one;
I3  speculative-bits containment — SR and SM masks only cover valid
    words, and SM implies the line is not dirty (the
    flush-before-first-speculative-write rule);
I4  mark consistency — a marked line's marking TID equals its home
    directory's Now-Serving TID;
I5  NSTID bound — no directory serves a TID beyond the highest the
    vendor has issued, plus one.

I2 can be transiently violated by messages in flight (a LoadReply fills
a cache a few cycles after the directory registered the sharer — never
the unsafe direction — but an Invalidation may be between the directory
(sharer already implicitly dropped at line granularity) and the cache),
so the periodic checker only runs between event batches at quiescent
points for the lines it can prove stable; the end-of-run check is exact.
"""

from __future__ import annotations

from typing import List


class InvariantViolation(AssertionError):
    """A structural protocol invariant does not hold."""


def check_system_invariants(system, strict_sharers: bool = True) -> None:
    """Raise :class:`InvariantViolation` on any broken invariant.

    ``strict_sharers`` enables I2, which requires no invalidations in
    flight; pass False when checking mid-run.
    """
    problems: List[str] = []
    _check_caches(system, problems)
    _check_directories(system, problems)
    if strict_sharers:
        _check_sharer_coverage(system, problems)
    if problems:
        raise InvariantViolation(
            "protocol invariants violated:\n  " + "\n  ".join(problems)
        )


def _check_caches(system, problems: List[str]) -> None:
    for proc in system.processors:
        for bucket in proc.hierarchy.l2.buckets():
            for entry in bucket.values():
                if entry.sr_mask & ~entry.valid_mask:
                    problems.append(
                        f"I3: P{proc.node} line {entry.line}: SR bits on "
                        f"invalid words ({entry.sr_mask:#x} vs valid "
                        f"{entry.valid_mask:#x})"
                    )
                if entry.sm_mask & ~entry.valid_mask:
                    problems.append(
                        f"I3: P{proc.node} line {entry.line}: SM bits on "
                        f"invalid words"
                    )
                if entry.sm_mask and entry.dirty:
                    problems.append(
                        f"I3: P{proc.node} line {entry.line}: dirty with SM "
                        f"(flush-before-speculation rule broken)"
                    )


def _check_directories(system, problems: List[str]) -> None:
    highest = system.vendor.highest_issued
    for directory in system.directories:
        if directory.nstid > highest + 1:
            problems.append(
                f"I5: dir {directory.node} serving TID {directory.nstid} "
                f"beyond highest issued {highest}"
            )
        for entry in directory.state.entries():
            if entry.owner is not None and entry.owner not in entry.sharers:
                problems.append(
                    f"I1: dir {directory.node} line {entry.line}: owner "
                    f"{entry.owner} not in sharers {sorted(entry.sharers)}"
                )
            if entry.marked:
                if entry.marked_by != directory.nstid:
                    problems.append(
                        f"I4: dir {directory.node} line {entry.line}: marked "
                        f"by TID {entry.marked_by} while serving "
                        f"{directory.nstid}"
                    )


def _check_sharer_coverage(system, problems: List[str]) -> None:
    for proc in system.processors:
        for bucket in proc.hierarchy.l2.buckets():
            for entry in bucket.values():
                if not entry.valid_mask:
                    continue
                home = system.mapping.home(entry.line)
                dir_entry = system.directories[home].state.peek(entry.line)
                if dir_entry is None or proc.node not in dir_entry.sharers:
                    problems.append(
                        f"I2: P{proc.node} caches line {entry.line} but is "
                        f"not a sharer at dir {home}"
                    )
