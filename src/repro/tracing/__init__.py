"""Protocol-level event tracing and the views over it.

Enable with ``SystemConfig(event_log=True)``: the system then records a
structured log of protocol events (transaction boundaries, violations,
retentions, commit phases, directory actions) that can be filtered
programmatically, rendered as a per-processor ASCII timeline — the tool
you want when a protocol change misbehaves — or summarized as a TAPE
violation profile.
"""

from repro.tracing.eventlog import EventLog, ProtocolEvent
from repro.tracing.tape import tape_report
from repro.tracing.timeline import render_timeline

__all__ = ["EventLog", "ProtocolEvent", "render_timeline", "tape_report"]
