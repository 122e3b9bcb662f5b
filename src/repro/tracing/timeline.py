"""ASCII per-processor transaction timeline.

Renders an event log as one lane per processor with a character per
time bucket:

    P0 |=====C..====C=======V===C|
    P1 |====C====C...=====C======|

``=`` executing, ``C`` commit completed in the bucket, ``V`` violation,
``.`` idle.  Good enough to *see* serialization, violation storms, and
barrier convoys at a glance.
"""

from __future__ import annotations

from typing import Dict, List

from repro.tracing.eventlog import EventLog

EXEC = "="
COMMIT = "C"
VIOLATION = "V"
IDLE = "."


def render_timeline(
    log: EventLog,
    n_procs: int,
    width: int = 100,
    end_time: int = 0,
) -> str:
    """Render one lane per processor over ``width`` time buckets."""
    if not log.events and not end_time:
        return "(no events)"
    horizon = end_time or max(e.time for e in log.events) + 1
    bucket = max(1, (horizon + width - 1) // width)
    lanes: List[List[str]] = [[IDLE] * width for _ in range(n_procs)]

    # Mark execution spans from tx_start to the matching commit/abort.
    open_start: Dict[int, int] = {}
    for event in log.events:
        node = event.node
        if node >= n_procs:
            continue
        slot = min(width - 1, event.time // bucket)
        lane = lanes[node]
        if event.category == "tx_start":
            open_start[node] = slot
        elif event.category in ("tx_commit", "tx_abort"):
            start = open_start.pop(node, slot)
            for i in range(start, slot + 1):
                if lane[i] == IDLE:
                    lane[i] = EXEC
            marker = COMMIT if event.category == "tx_commit" else VIOLATION
            lane[slot] = marker
        elif event.category == "violation":
            lane[slot] = VIOLATION

    header = (
        f"timeline: {horizon:,} cycles, {bucket:,} cycles/char "
        f"({EXEC} exec, {COMMIT} commit, {VIOLATION} violation, {IDLE} idle)"
    )
    rows = [header]
    for node, lane in enumerate(lanes):
        rows.append(f"P{node:<3}|{''.join(lane)}|")
    return "\n".join(rows + log.dropped_note())
