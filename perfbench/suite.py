"""The benchmark's workloads and one checked pass over a workload.

A pass runs the workload's applications one after another in this
process (a closed loop with one client and no pool).  Each application
is timed from ``SystemConfig`` to a checked ``SimulationResult``: system
build, workload construction, engine run, drain, strict invariants and
serial replay.  After the timed window, the result is diffed against the
independent reference machine (``repro.oracle``) and fingerprinted.

Host time (``*_s``, measured on this machine) and simulated time
(``*cycles``, what the modelled hardware would take) are kept apart in
every name.  Modelled caches start empty.  The model has no reference
measurements from real hardware, so it is unvalidated and no error
figure is given.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.conform.differ import diff_run
from repro.conform.program import ConformProgram
from repro.core.config import SystemConfig
from repro.core.system import ScalableTCCSystem, SimulationResult
from repro.faults.plan import FaultPlan, NodeFault, PacketFault
from repro.workloads.apps import APP_PROFILES
from repro.workloads.synthetic import SyntheticWorkload

#: Generous simulated-cycle bound: the slowest app (radix at 8 CPUs)
#: finishes near 1.05M cycles, so only a runaway run reaches it.
MAX_CYCLES = 20_000_000

@dataclass(frozen=True)
class BenchWorkload:
    name: str
    apps: Tuple[str, ...]
    n_processors: int
    faults: bool

    def config(self, seed: int) -> SystemConfig:
        return SystemConfig(
            n_processors=self.n_processors,
            seed=seed,
            fault_plan=FAULT_PLAN if self.faults else None,
        )

    def workload(self, app: str) -> SyntheticWorkload:
        """The application's own program: its profile fixes its seed."""
        return SyntheticWorkload(APP_PROFILES[app])


#: What each workload stresses is said in ``BENCHMARK.json``.
WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload("commit-bound", ("volrend", "equake"), 32, False),
        BenchWorkload("bulk", ("swim", "svm_classify", "radix"), 8, False),
        BenchWorkload("faults", ("volrend", "equake"), 16, True),
    )
}


#: The ``faults`` workload's plan: drops, duplicates and reorders on all
#: traffic, delayed write-backs and one directory stall.  It is fixed;
#: ``--seed`` varies the network jitter it meets.
FAULT_PLAN = FaultPlan(
    packet_faults=(
        PacketFault("drop", 0.02),
        PacketFault("dup", 0.02, delay=100),
        PacketFault("reorder", 0.02, delay=200),
        PacketFault("delay", 0.10, traffic_classes=("writeback",), delay=300),
    ),
    node_faults=(NodeFault("dir_stall", 3, start_cycle=5000, duration=3000),),
    seed=1,
)


def completion_cycle(result: SimulationResult) -> int:
    """Latest per-processor finish (simulated cycles).

    ``SimulationResult.cycles`` is the engine clock at the end of the run;
    with the progress watchdog armed it includes the watchdog's last
    tick, which can land well after the last processor finished.
    """
    return max(stats.total_cycles for stats in result.proc_stats)


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(result: SimulationResult) -> Dict[str, object]:
    """Simulated outcome of one app, for bit-exact comparison."""
    return {
        "cycles": result.cycles,
        "completion_cycles": completion_cycle(result),
        "commits": result.committed_transactions,
        "violations": result.total_violations,
        "commit_log": _digest(
            [(r.tid, r.tx.tx_id, r.proc, r.commit_time, r.reads)
             for r in result.commit_log]
        ),
        "memory_image": _digest(sorted(result.memory_image.items())),
        "traffic": result.traffic.bytes_by_class,
        "packets": result.traffic.packets,
        "events": result.events_executed,
    }


def oracle_problems(
    bench: BenchWorkload, app: str, result: SimulationResult
) -> List[str]:
    """Differences between ``result`` and the reference machine running
    the same program, rebuilt from a fresh workload."""
    n = bench.n_processors
    workload = bench.workload(app)
    program = ConformProgram(n, [list(workload.schedule(p, n)) for p in range(n)])
    return [f"{m.kind}: {m.detail}" for m in diff_run(program, result)]


@dataclass
class AppRun:
    """One application inside one pass."""

    app: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    build_s: float = 0.0
    setup_s: float = 0.0
    #: High-water resident size of the process during the timed window.
    peak_rss_mb: float = 0.0
    result: Optional[SimulationResult] = None
    system: Optional[ScalableTCCSystem] = None
    problems: List[str] = field(default_factory=list)


def run_app(
    bench: BenchWorkload,
    app: str,
    seed: int,
    around: Optional[Callable[[Callable], Callable]] = None,
) -> AppRun:
    """Build, run and verify one application; never raises for a failed
    simulation (the failure is recorded in ``problems``).

    ``around`` wraps the timed body (the tracer's root span).
    """
    run = AppRun(app)

    def timed() -> SimulationResult:
        cpu_start = time.process_time()
        start = time.perf_counter()
        system = run.system = ScalableTCCSystem(bench.config(seed))
        built = time.perf_counter()
        workload = bench.workload(app)
        ready = time.perf_counter()
        result = system.run(workload, max_cycles=MAX_CYCLES)
        run.wall_s = time.perf_counter() - start
        run.cpu_s = time.process_time() - cpu_start
        run.build_s = built - start
        run.setup_s = ready - start
        return result

    body = around(timed) if around is not None else timed
    gc.collect()
    reset_peak_rss()
    try:
        run.result = body()
    except Exception as exc:  # a failed pass is a measurement, not a crash
        first = f"{type(exc).__name__}: {exc}".splitlines()[0]
        run.problems.append(f"{app}: {first}")
    run.peak_rss_mb = peak_rss_mb()
    return run


def reset_peak_rss() -> None:
    """Restart the kernel's high-water mark at the current resident size.

    Where ``/proc/self/clear_refs`` cannot be written, the mark keeps
    covering the whole process so far.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """High-water resident size since the last ``reset_peak_rss`` (MiB)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def check_app(bench: BenchWorkload, run: AppRun) -> None:
    """Oracle diff, outside any timed window; appends to ``run.problems``."""
    if run.result is None:
        return
    try:
        problems = oracle_problems(bench, run.app, run.result)
    except Exception as exc:  # noqa: BLE001 - a broken check fails the pass
        problems = [f"oracle check raised {type(exc).__name__}: {exc}"]
    run.problems += [f"{run.app}: {p}" for p in problems[:3]]
