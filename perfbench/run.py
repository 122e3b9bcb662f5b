"""The repository benchmark for the Scalable TCC simulator.

    python3 perfbench/run.py --workload commit-bound --seed 0 --seconds 35 --trace 0

Runs one workload (see ``suite.WORKLOADS``) from the source tree next to
this directory, pass after pass in this one process, for ``--seconds``
seconds.  Every pass is checked: strict invariants and serial replay
inside the simulator, then, outside the timed window, a diff against the
independent reference machine and a simulated fingerprint that every
pass of the run must repeat exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes, then installs the span wrappers of ``spans.py`` and runs
traced passes, and reports the per-layer metrics.  The human-readable
report goes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed`` selects the network jitter stream only.  The transaction
programs are the applications' own, fixed by their profiles, and the
``faults`` workload's fault plan is fixed.  Seed 0 is the configuration
the rest of the repository pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Share of a traced run's time spent on untraced passes (the baseline
#: for ``trace.overhead`` and ``sim.events_per_s``).
UNTRACED_SHARE = 0.4


def load_simulator() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))


@dataclass
class PassRecord:
    """One pass over a workload: host times, simulated outcome, checks."""

    wall_s: float
    cpu_s: float
    setup_s: float
    build_s: float
    problems: List[str]
    #: Largest high-water resident size of the apps' timed windows.
    peak_rss_mb: float = 0.0
    fingerprint: List[Dict[str, object]] = field(default_factory=list)
    #: Simulation-derived totals over the apps (identical on every pass
    #: of one seed).
    sim: Dict[str, float] = field(default_factory=dict)
    layer_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def simulated_values(run) -> Dict[str, float]:
    """One app's totals over its result and private hierarchies."""
    from suite import completion_cycle

    result = run.result
    completion = completion_cycle(result)
    faults = result.fault_stats
    caches = [p.hierarchy.stats for p in run.system.processors]
    dirs = result.directory_stats
    out: Dict[str, float] = {
        "instructions": result.committed_instructions,
        "sim_cycles": completion,
        "overshoot": result.cycles - completion,
        "events": result.events_executed,
        "committed": result.committed_transactions,
        "violations": result.total_violations,
        "packets": result.traffic.packets,
        "proc_cycles": completion * len(result.proc_stats),
        "mem_hits": sum(c.hits for c in caches),
        "mem_accesses": sum(c.accesses for c in caches),
        "spec_overflows": sum(c.speculative_overflows for c in caches),
        "dir_skips": sum(d.skips_processed for d in dirs),
        "dir_loads_stalled": sum(d.loads_stalled for d in dirs),
        "dir_busy_cycles": sum(d.busy_cycles for d in dirs),
        "injected": faults.injected_total if faults else 0,
        "retries": faults.retries if faults else 0,
        "stale_drops": faults.stale_drops if faults else 0,
        "packets_seen": faults.packets_seen if faults else 0,
    }
    for cls in ("commit", "miss", "writeback", "overhead"):
        out["bytes_" + cls] = result.traffic.bytes_by_class.get(cls, 0)
    for stats in result.proc_stats:
        _add(out, {"cyc_" + k: v for k, v in stats.breakdown().items()})
        _add(out, {"cyc_" + k: v
                   for k, v in stats.commit_phase_breakdown().items()})
        # A processor that finished early idles until the last one
        # does; its timeline ends at its own finish.
        _add(out, {"cyc_idle": completion - stats.total_cycles})
    return out


def run_pass(bench, seed: int, tracer=None) -> PassRecord:
    """All apps of ``bench`` once, each checked; spans when ``tracer``.

    An app's system and result are summarised and dropped before the
    next app starts, so no timed window holds an earlier app's memory.
    """
    from suite import check_app, fingerprint, run_app

    record = PassRecord(0.0, 0.0, 0.0, 0.0, [])
    for app in bench.apps:
        around = None
        if tracer is not None:
            tracer.reset()
            around = lambda body: tracer.recorder.wrap("core", body, "pass")
        run = run_app(bench, app, seed, around=around)
        if tracer is not None:
            layer_s, calls = tracer.recorder.snapshot()
            _add(record.layer_s, layer_s)
            _add(record.calls, calls)
            _add(record.events, tracer.events)
        check_app(bench, run)
        record.problems += run.problems
        record.wall_s += run.wall_s
        record.cpu_s += run.cpu_s
        record.setup_s += run.setup_s
        record.build_s += run.build_s
        record.peak_rss_mb = max(record.peak_rss_mb, run.peak_rss_mb)
        if run.result is not None:
            record.fingerprint.append({"app": app, **fingerprint(run.result)})
            _add(record.sim, simulated_values(run))
        run.system = run.result = None
    return record


def _add(total: Dict, part: Dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def measure(bench, seed: int, seconds: float, tracer=None) -> List[PassRecord]:
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    passes: List[PassRecord] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(bench, seed, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def check_repeats(passes: Sequence[PassRecord]) -> None:
    """A pass whose simulated fingerprint differs from the first good
    pass's fails: the simulator must be deterministic, traced or not."""
    reference = next((p.fingerprint for p in passes if p.ok), None)
    for number, record in enumerate(passes):
        if record.ok and record.fingerprint != reference:
            record.problems.append(
                f"pass {number}: simulated fingerprint differs from the first good pass"
            )


def fail_rate(passes: Sequence[PassRecord]) -> float:
    return sum(1 for p in passes if not p.ok) / len(passes)


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def end_to_end(passes: Sequence[PassRecord]) -> Dict[str, float]:
    good = [p for p in passes if p.ok]
    return {
        "wall_s": statistics.median([p.wall_s for p in good]),
        "setup_s": statistics.median([p.setup_s for p in good]),
        "sim_kips": statistics.median(
            [p.sim["instructions"] / p.cpu_s / 1000 for p in good]
        ),
        "peak_rss_mb": statistics.median([p.peak_rss_mb for p in good]),
        "sim_cycles": good[0].sim["sim_cycles"],
    }


def per_layer(
    untraced: Sequence[PassRecord], traced: Sequence[PassRecord]
) -> Dict[str, float]:
    from spans import LAYERS, PRODUCERS

    base = [p for p in untraced if p.ok]
    good = [p for p in traced if p.ok]
    sim = good[0].sim
    calls = good[0].calls
    events = good[0].events
    untraced_wall = statistics.median([p.wall_s for p in base])
    traced_wall = statistics.median([p.wall_s for p in good])
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            [p.layer_s.get(layer, 0.0) for p in good]
        )
    attempts = sim["committed"] + sim["violations"]
    proc_cycles = sim["proc_cycles"]
    metrics.update({
        "sim.events": sim["events"],
        "sim.events_per_s": sim["events"] / untraced_wall,
        **{f"sim.events.{kind}": events.get(kind, 0) for kind in PRODUCERS},
        "directory.msgs": calls.get("dir_msg", 0),
        "directory.skips": sim["dir_skips"],
        "directory.loads_stalled": sim["dir_loads_stalled"],
        "directory.busy_cycles": sim["dir_busy_cycles"],
        "network.sends": calls.get("send", 0),
        "network.packets": sim["packets"],
        **{f"network.bytes.{cls}": sim["bytes_" + cls]
           for cls in ("commit", "miss", "writeback", "overhead")},
        "processor.msgs": calls.get("cpu_msg", 0),
        "processor.attempts": attempts,
        "processor.commit_ratio": sim["committed"] / attempts,
        **{f"processor.frac.{key}": sim["cyc_" + key] / proc_cycles
           for key in ("useful", "miss", "idle", "commit", "violation")},
        **{f"processor.commit.{key}": sim["cyc_" + key]
           for key in ("tid", "probe", "ack")},
        "memory.accesses": sim["mem_accesses"],
        "memory.hit_rate": (
            sim["mem_hits"] / sim["mem_accesses"] if sim["mem_accesses"] else 0.0
        ),
        "memory.spec_overflows": sim["spec_overflows"],
        "core.build_s": statistics.median([p.build_s for p in base]),
        "core.cycles_overshoot": sim["overshoot"],
        "faults.injected": sim["injected"],
        "faults.retries": sim["retries"],
        "faults.retry_ratio": (
            sim["retries"] / sim["packets_seen"] if sim["packets_seen"] else 0.0
        ),
        "faults.stale_drops": sim["stale_drops"],
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    })
    return metrics


def trace_problems(traced: Sequence[PassRecord]) -> List[str]:
    """The tracer's own accounting must close."""
    problems = []
    for number, record in enumerate(traced):
        if not record.ok:
            continue
        spans = sum(record.layer_s.values())
        if abs(spans - record.wall_s) > 0.01 * record.wall_s:
            problems.append(
                f"traced pass {number}: layer self times sum to {spans:.4f} s, "
                f"pass took {record.wall_s:.4f} s"
            )
        scheduled = sum(record.events.values())
        if scheduled != record.sim["events"]:
            problems.append(
                f"traced pass {number}: {scheduled} events counted by "
                f"producer, engine executed {record.sim['events']:.0f}"
            )
    return problems


def provenance() -> Dict[str, object]:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha: Optional[str] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_before": None,
        "loadavg_after": None,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_simulator()
    from metrics import load as load_metrics
    from spans import Tracer
    from suite import WORKLOADS

    bench = WORKLOADS.get(args.workload)
    if bench is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    info = provenance()
    info["loadavg_before"] = list(os.getloadavg())

    if args.trace:
        untraced = measure(bench, args.seed, args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(
                bench, args.seed, args.seconds * (1 - UNTRACED_SHARE), tracer
            )
        finally:
            tracer.remove()
        passes = untraced + traced
    else:
        untraced, traced = [], []
        passes = measure(bench, args.seed, args.seconds)
    check_repeats(passes)
    info["loadavg_after"] = list(os.getloadavg())

    problems = [msg for p in passes for msg in p.problems]
    measured = any(p.ok for p in untraced) and any(p.ok for p in traced)
    if args.trace and measured:
        problems += trace_problems(traced)
        values, table = per_layer(untraced, traced), load_metrics("per_layer")
    elif not args.trace and any(p.ok for p in passes):
        values, table = end_to_end(passes), load_metrics("end_to_end")
    else:
        values, table = {}, ()

    print(f"perfbench {bench.name}: {', '.join(bench.apps)} at "
          f"{bench.n_processors} CPUs, {'seeded fault plan' if bench.faults else 'fault-free'}; "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("closed loop, one thread; modelled caches start empty; the model "
          "has no hardware reference, so it is unvalidated (no error figure)")
    print("provenance " + json.dumps(info, sort_keys=True))
    reference = next((p.fingerprint for p in passes if p.ok), None)
    if reference:
        print("fingerprint " + json.dumps(reference, sort_keys=True))
    failed = sum(1 for p in passes if not p.ok)
    print(f"passes: {len(passes)} attempted, {failed} failed, "
          f"fail_rate {fail_rate(passes):.4f}")
    good = [p for p in (untraced if args.trace else passes) if p.ok]
    if good:
        print(f"untraced wall_s {_quartiles([p.wall_s for p in good])}; "
              f"cpu_s {_quartiles([p.cpu_s for p in good])}; "
              f"setup_s {_quartiles([p.setup_s for p in good])}")
    for metric in table:
        clock = {"H": "host", "S": "simulated", "-": ""}[metric.clock]
        moves = f"  -> {metric.moves}" if metric.moves else ""
        print(f"  {metric.name:<26} {values[metric.name]:>16.6g} "
              f"{metric.unit:<9} {clock:<9} {metric.better} is better{moves}")
    for message in problems[:10]:
        print("FAIL " + message)

    result = {
        "correct": not problems and bool(values),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
    }
    print(json.dumps(result))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
