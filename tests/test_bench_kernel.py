"""The committed ``BENCH_kernel.json`` must describe the current simulator.

Its wall times are host-specific, but its simulated ``cycles`` and engine
``events`` are exact.  Re-simulating the quick subset with the recorded
experiment turns a stale baseline into a failing test: re-record it with
``python -m repro perf --out BENCH_kernel.json`` whenever a change moves
either figure on purpose.
"""

import json
import pathlib

import pytest

from repro.analysis.perf import QUICK_APPS, run_perf

BENCH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(BENCH.read_text())


def test_recording_has_provenance(recorded):
    assert recorded["python"]
    assert set(recorded["provenance"]) == {"git_sha", "cpu_count", "cpu_model"}


@pytest.mark.parametrize("app", QUICK_APPS)
def test_recorded_cycles_and_events_match_the_code(recorded, app):
    experiment = recorded["experiment"]
    report = run_perf(
        apps=[app],
        n_processors=experiment["n_processors"],
        scale=experiment["scale"],
        repeats=1,
        warmup=0,
        seed=experiment["seed"],
        config_overrides=experiment["config_overrides"],
        jobs=1,
    )
    now, then = report["per_app"][app], recorded["per_app"][app]
    assert (now["cycles"], now["events"]) == (then["cycles"], then["events"]), (
        f"{BENCH.name} is stale for {app}: re-record it with "
        "`python -m repro perf --out BENCH_kernel.json`"
    )
