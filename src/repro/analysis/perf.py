"""Wall-clock performance harness for the simulation kernel.

Every optimization PR records its before/after numbers with this
harness so the repo accumulates a performance trajectory next to its
correctness trajectory.  The headline experiment is the Figure 7
scaling workload at 32 CPUs: every application profile, full volume,
one run each.  The metric is *engine events per wall-clock second*
(plus wall time per app); simulated cycle counts are recorded too so a
perf run doubles as a quick determinism check — they must not change
unless the timing model itself changed.

Each application's ``warmup`` untimed and ``repeats`` timed passes run
back-to-back in one process (one :mod:`repro.runner` ``perf`` job);
with ``jobs`` > 1 the applications themselves run concurrently.
Concurrent workers contend for cores, so per-app events/sec is only
comparable between runs at the same ``jobs`` setting — the report
records it.  Perf jobs are never served from the result cache: the
payload *is* a wall-clock measurement.

Usage:

    python -m repro perf                 # full Fig. 7 @ 32 CPUs, 3 repeats
    python -m repro perf --quick         # seconds-long smoke (CI)
    python -m repro perf --jobs 4        # apps across 4 worker processes
    python -m repro perf --out BENCH_kernel.json

or programmatically via :func:`run_perf`.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, Optional, Sequence

from repro.core.config import SystemConfig
from repro.runner import JobSpec, resolve_jobs, run_jobs
from repro.workloads.apps import APP_PROFILES

#: The headline experiment: the Fig. 7 scaling run at 32 CPUs.
FULL_APPS = tuple(sorted(APP_PROFILES))
QUICK_APPS = ("barnes", "equake", "swim")

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def _provenance() -> Dict[str, object]:
    """Where a report was measured: code revision and CPU (the
    interpreter version is the report's top-level ``python``)."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_REPO_ROOT, capture_output=True,
            text=True, timeout=30,
        )
        sha: Optional[str] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
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
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_perf(
    apps: Optional[Sequence[str]] = None,
    n_processors: int = 32,
    scale: float = 1.0,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 0,
    config_overrides: Optional[dict] = None,
    jobs: Optional[int] = 1,
) -> Dict:
    """Run the perf experiment and return the report dict.

    ``repeats`` timed passes over every app (after ``warmup`` untimed
    ones); per-app wall time is the median over repeats, events/sec is
    total events over median total wall time.  ``jobs`` fans apps out
    over worker processes (None = all cores).
    """
    apps = list(apps or FULL_APPS)
    unknown = [a for a in apps if a not in APP_PROFILES]
    if unknown:
        raise ValueError(f"unknown apps: {unknown}")
    overrides = dict(config_overrides or {})
    config = SystemConfig(n_processors=n_processors, seed=seed, **overrides)
    jobs = resolve_jobs(jobs)

    specs = [
        JobSpec(
            kind="perf",
            workload=app,
            workload_args={"scale": scale},
            config=config,
            verify=False,
            repeats=max(1, repeats),
            warmup=warmup,
            cacheable=False,
            label=f"perf {app}",
        )
        for app in apps
    ]
    outcomes, _ = run_jobs(specs, jobs=jobs)
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"perf job {outcome.spec.workload} failed: {outcome.error}"
            )

    per_app = {}
    for outcome in outcomes:
        app = outcome.spec.workload
        walls = outcome.payload["wall_samples_s"]
        summary = outcome.summary()
        wall = statistics.median(walls)
        per_app[app] = {
            "wall_s": round(wall, 4),
            "wall_samples_s": [round(w, 4) for w in walls],
            "events": summary.events_executed,
            "cycles": summary.cycles,
            "committed": summary.committed_transactions,
            "violations": summary.total_violations,
            "traffic_bytes": summary.traffic_bytes,
            "events_per_sec": round(summary.events_executed / wall),
        }

    total_events = sum(v["events"] for v in per_app.values())
    total_wall = sum(v["wall_s"] for v in per_app.values())
    return {
        "bench": "kernel",
        "experiment": {
            "apps": apps,
            "n_processors": n_processors,
            "scale": scale,
            "repeats": repeats,
            "warmup": warmup,
            "seed": seed,
            "config_overrides": overrides,
            "jobs": jobs,
        },
        "python": sys.version.split()[0],
        "provenance": _provenance(),
        "per_app": per_app,
        "total": {
            "events": total_events,
            "wall_s": round(total_wall, 4),
            "events_per_sec": round(total_events / total_wall),
            "cycles": sum(v["cycles"] for v in per_app.values()),
        },
    }


def format_report(report: Dict) -> str:
    """Human-readable table for one harness report."""
    jobs = report["experiment"].get("jobs", 1)
    lines = [
        f"kernel perf — {report['experiment']['n_processors']} CPUs, "
        f"scale {report['experiment']['scale']}, "
        f"{report['experiment']['repeats']} repeats, {jobs} worker(s) "
        f"(python {report['python']})",
        f"{'app':<16} {'events':>10} {'cycles':>10} {'wall s':>8} {'events/s':>10}",
    ]
    for app, row in report["per_app"].items():
        lines.append(
            f"{app:<16} {row['events']:>10,} {row['cycles']:>10,} "
            f"{row['wall_s']:>8.3f} {row['events_per_sec']:>10,}"
        )
    total = report["total"]
    lines.append(
        f"{'TOTAL':<16} {total['events']:>10,} {total['cycles']:>10,} "
        f"{total['wall_s']:>8.3f} {total['events_per_sec']:>10,}"
    )
    return "\n".join(lines)


def save_report(report: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
