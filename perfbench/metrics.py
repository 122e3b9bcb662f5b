"""What the benchmark knows about each metric beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root gives every metric's name,
unit and direction.  This module adds its clock, host time (``H``: what
the simulator takes on this machine), simulated (``S``: what the
modelled hardware would take) or neither (``-``: a count or ratio), and
for a per-layer metric the end-to-end metric and workload a change there
should move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str
    moves: str


_SIM = "wall_s, sim_kips on commit-bound"
_DIR = "wall_s on commit-bound, less on bulk"
_NET = "wall_s on commit-bound and faults"
_PROC_S = "sim_cycles on every workload"
_MEM = "wall_s on bulk, slightly on commit-bound"
_FAULTS = "wall_s on faults only; no change elsewhere"

#: name -> (clock, what it should move).
ROLES: Dict[str, Tuple[str, str]] = {
    "wall_s": ("H", ""),
    "setup_s": ("H", ""),
    "sim_kips": ("H", ""),
    "peak_rss_mb": ("H", ""),
    "sim_cycles": ("S", ""),
    "sim.self_s": ("H", _SIM),
    "sim.events": ("-", _SIM),
    "sim.events_per_s": ("H", _SIM),
    "sim.events.dir_step": ("-", _SIM),
    "sim.events.cpu_step": ("-", _SIM),
    "sim.events.net_deliver": ("-", _SIM),
    "sim.events.timeout": ("-", _SIM),
    "sim.events.other": ("-", _SIM),
    "directory.self_s": ("H", _DIR),
    "directory.msgs": ("-", _DIR),
    "directory.skips": ("-", _DIR),
    "directory.loads_stalled": ("-", _DIR),
    "directory.busy_cycles": ("S", "sim_cycles"),
    "network.self_s": ("H", _NET),
    "network.sends": ("-", _NET),
    "network.packets": ("-", _NET),
    "network.bytes.commit": ("-", "sim_cycles"),
    "network.bytes.miss": ("-", "sim_cycles"),
    "network.bytes.writeback": ("-", "sim_cycles"),
    "network.bytes.overhead": ("-", "sim_cycles"),
    "processor.self_s": ("H", "wall_s on bulk"),
    "processor.msgs": ("-", "wall_s on bulk"),
    "processor.attempts": ("-", _PROC_S),
    "processor.commit_ratio": ("-", _PROC_S),
    "processor.frac.useful": ("S", _PROC_S),
    "processor.frac.miss": ("S", _PROC_S),
    "processor.frac.idle": ("S", _PROC_S),
    "processor.frac.commit": ("S", _PROC_S),
    "processor.frac.violation": ("S", _PROC_S),
    "processor.commit.tid": ("S", _PROC_S),
    "processor.commit.probe": ("S", _PROC_S),
    "processor.commit.ack": ("S", _PROC_S),
    "memory.self_s": ("H", _MEM),
    "memory.accesses": ("-", _MEM),
    "memory.hit_rate": ("-", _MEM),
    "memory.spec_overflows": ("-", _MEM),
    "workloads.self_s": ("H", "wall_s on bulk"),
    "verify.self_s": ("H", "wall_s, most on bulk"),
    "core.self_s": ("H", "wall_s on every workload"),
    "core.build_s": ("H", "setup_s, most on commit-bound"),
    "core.cycles_overshoot": ("S", "none: a reporting gap"),
    "faults.self_s": ("H", _FAULTS),
    "faults.injected": ("-", _FAULTS),
    "faults.retries": ("-", _FAULTS),
    "faults.retry_ratio": ("-", _FAULTS),
    "faults.stale_drops": ("-", _FAULTS),
    "trace.wall_s": ("H", "none: the traced pass"),
    "trace.overhead": ("H", "none: tracing cost"),
}


def load(kind: str) -> Tuple[Metric, ...]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    spec = json.loads(SPEC.read_text())
    return tuple(
        Metric(m["name"], m["unit"], m["better"], *ROLES[m["name"]])
        for m in spec[kind]
    )
