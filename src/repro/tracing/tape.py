"""TAPE: violation attribution and pathology report over the event log.

The paper (Section 3.3) points programmers at TAPE, the TCC group's
Transactional Application Profiling Environment, to "quickly detect the
occurrence" of rare pathologies such as starving transactions.  Hardware
knows at violation time which line and which committer killed an
attempt, and at abort time how much work was discarded; the processor
logs both (``violation`` and ``tx_abort`` events), and this view joins
them.  Each abort is attributed to the first violation on its node since
that node's last ``tx_start``; an abort with no logged violation counts
under an unknown line and committer (-1), which the report leaves out.

The totals come from the processor and cache counters, so they are
exact even when the log was truncated.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Tuple


def tape_report(system: Any, top: int = 8) -> str:
    """The TAPE text for a system built with ``SystemConfig(event_log=True)``."""
    log = system.events
    if log is None:
        raise ValueError("tape_report needs SystemConfig(event_log=True)")
    by_line: Counter = Counter()
    wasted_by_line: Counter = Counter()
    by_label: Counter = Counter()
    by_pair: Counter = Counter()  # (committer, victim)
    cause: Dict[int, Tuple[int, int]] = {}  # node -> (line, committer)
    for event in log.events:
        category = event.category
        if category == "tx_start":
            cause.pop(event.node, None)
        elif category == "violation":
            fields = event.fields
            cause.setdefault(event.node, (fields["line"], fields["committer"]))
        elif category == "tx_abort":
            fields = event.fields
            line, committer = cause.pop(event.node, (-1, -1))
            by_line[line] += 1
            wasted_by_line[line] += fields["wasted"]
            by_label[fields["label"] or f"tx{fields['tx']}"] += 1
            by_pair[(committer, event.node)] += 1

    stats = [p.stats for p in system.processors]
    overflows = sum(
        p.hierarchy.stats.speculative_overflows for p in system.processors
    )
    lines: List[str] = [
        "TAPE report",
        f"  violations          : {sum(s.violations for s in stats)}",
        f"  wasted cycles       : {sum(s.violation_cycles for s in stats):,}",
        f"  retained (starving) : {sum(s.tid_retentions for s in stats)}",
        f"  buffer overflows    : {overflows}",
    ]
    hot = [(line, n) for line, n in by_line.most_common(top) if line >= 0]
    if hot:
        lines.append("  hottest conflict lines:")
        for line, count in hot:
            lines.append(
                f"    line {line:#x}: {count} violations, "
                f"{wasted_by_line[line]:,} wasted cycles"
            )
    if by_label:
        lines.append("  most-violated transactions:")
        for label, count in by_label.most_common(top):
            lines.append(f"    {label}: {count}")
    pairs = [(pair, n) for pair, n in by_pair.most_common(top) if pair[0] >= 0]
    if pairs:
        lines.append("  committer -> victim pairs:")
        for (committer, victim), count in pairs:
            lines.append(f"    P{committer} -> P{victim}: {count}")
    return "\n".join(lines + log.dropped_note())
