"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from metrics import load as load_metrics  # noqa: E402
from spans import LAYERS, PRODUCERS, SpanRecorder, Tracer  # noqa: E402
from suite import BenchWorkload, completion_cycle, peak_rss_mb  # noqa: E402

from repro.workloads.apps import APP_PROFILES  # noqa: E402
from repro.workloads.synthetic import SyntheticWorkload  # noqa: E402


class TinyWorkload(BenchWorkload):
    """A tenth of each app's transactions, so a pass takes milliseconds."""

    def workload(self, app: str) -> SyntheticWorkload:
        return SyntheticWorkload(APP_PROFILES[app].scaled(0.1))


TINY = TinyWorkload("tiny", ("equake",), 4, False)
TINY_FAULTS = replace(TINY, name="tiny-faults", faults=True)


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_subtracts_child_spans():
    now, clock = _fake_clock()
    rec = SpanRecorder(clock)

    def leaf():
        now[0] += 2.0

    leaf_span = rec.wrap("memory", leaf)

    def mid():
        now[0] += 1.0
        leaf_span()
        now[0] += 0.5

    mid_span = rec.wrap("processor", mid)

    def root():
        now[0] += 0.25
        mid_span()
        leaf_span()

    rec.wrap("core", root)()
    assert rec.self_s == {"memory": 4.0, "processor": 1.5, "core": 0.25}
    assert sum(rec.self_s.values()) == now[0]
    assert rec.calls == {"memory": 2, "processor": 1, "core": 1}
    assert rec._stack == []


def test_span_closes_when_the_call_raises():
    now, clock = _fake_clock()
    rec = SpanRecorder(clock)

    def boom():
        now[0] += 3.0
        raise ValueError("x")

    boom_span = rec.wrap("verify", boom)

    def root():
        now[0] += 1.0
        with pytest.raises(ValueError):
            boom_span()

    rec.wrap("core", root)()
    assert rec.self_s == {"verify": 3.0, "core": 1.0}
    assert rec._stack == []
    rec.reset()
    assert rec.self_s == {} and rec.calls == {}


def test_tracer_removes_every_wrapper():
    from repro.sim.engine import Engine
    from repro.sim.process import Process

    engine_run, step = Engine.run, Process._step
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert len(patched) > 20
        assert Engine.run is not engine_run and Process._step is not step
        bench_run.run_pass(TINY, 0, tracer)
        assert tracer.recorder.calls and tracer.events
    finally:
        tracer.remove()
    assert tracer._patches == []
    for owner, name, original in patched:
        assert owner.__dict__.get(name) is original, (owner, name)
    assert Engine.run is engine_run and Process._step is step
    # Nothing records once removed.
    tracer.reset()
    bench_run.run_pass(TINY, 0)
    assert tracer.recorder.calls == {} and tracer.events == {}


def test_traced_pass_is_bit_identical_and_its_accounting_closes():
    plain = bench_run.run_pass(TINY, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench_run.run_pass(TINY, 0, tracer)
    finally:
        tracer.remove()
    assert plain.ok and traced.ok, plain.problems + traced.problems
    assert traced.fingerprint == plain.fingerprint
    assert set(traced.layer_s) <= set(LAYERS)
    assert sum(traced.layer_s.values()) == pytest.approx(traced.wall_s, rel=0.01)
    assert set(traced.events) <= set(PRODUCERS)
    assert sum(traced.events.values()) == plain.sim["events"]
    assert "faults" not in traced.layer_s
    metrics = bench_run.per_layer([plain], [traced])
    assert {m.name for m in load_metrics("per_layer")} == set(metrics)
    assert metrics["faults.retries"] == 0 and metrics["faults.self_s"] == 0


def test_fail_rate_counts_a_corrupted_commit_witness(monkeypatch):
    from repro.core.system import ScalableTCCSystem

    good = bench_run.run_pass(TINY, 0)
    original = ScalableTCCSystem.run

    def corrupted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        first = result.commit_log[0]
        result.commit_log[0] = replace(first, proc=(first.proc + 1) % 4)
        return result

    monkeypatch.setattr(ScalableTCCSystem, "run", corrupted)
    bad = bench_run.run_pass(TINY, 0)
    assert good.ok
    assert not bad.ok and "equake" in bad.problems[0]
    assert bench_run.fail_rate([good, bad]) == 0.5


def test_a_pass_with_another_fingerprint_fails():
    first = bench_run.run_pass(TINY, 0)
    second = bench_run.run_pass(TINY, 0)
    second.fingerprint[0]["cycles"] += 1
    bench_run.check_repeats([first, second])
    assert first.ok and not second.ok


def test_sim_cycles_take_the_latest_processor_finish():
    result = SimpleNamespace(
        cycles=200_000,
        proc_stats=[SimpleNamespace(total_cycles=c) for c in (165_658, 90_000)],
    )
    assert completion_cycle(result) == 165_658

    clean = bench_run.run_pass(TINY, 0)
    assert clean.sim["overshoot"] == 0
    # The armed watchdog's trailing tick lands after the last finish.
    faulty = bench_run.run_pass(TINY_FAULTS, 0)
    assert faulty.ok, faulty.problems
    finish = faulty.fingerprint[0]["completion_cycles"]
    assert faulty.sim["sim_cycles"] == finish
    assert faulty.sim["overshoot"] == faulty.fingerprint[0]["cycles"] - finish > 0


def test_end_to_end_covers_every_listed_metric():
    record = bench_run.run_pass(TINY, 0)
    assert record.ok, record.problems
    metrics = bench_run.end_to_end([record])
    assert {m.name for m in load_metrics("end_to_end")} == set(metrics)
    assert all(value > 0 for value in metrics.values())


def test_peak_rss_covers_each_timed_window_only(monkeypatch):
    """A high-water mark set before a pass does not count, and each app's
    system and result are dropped before the next app starts."""
    import suite

    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    before = peak_rss_mb()
    del ballast
    runs, run_app = [], suite.run_app

    def keep(*args, **kwargs):
        assert all(r.system is None and r.result is None for r in runs)
        runs.append(run_app(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(suite, "run_app", keep)
    record = bench_run.run_pass(replace(TINY, apps=("equake", "volrend")), 0)
    assert record.ok, record.problems
    assert len(runs) == 2 and runs[-1].system is None
    assert 0 < record.peak_rss_mb < before - 32
    assert record.peak_rss_mb == max(r.peak_rss_mb for r in runs)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
