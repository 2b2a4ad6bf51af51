"""Self-test of the perf ledger: every workload at the ``tiny`` size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run prints every metric ``BENCHMARK.json`` names, with
its unit; that two untraced runs and the traced run agree on the
virtual-output digest; that a corrupted expected digest fails the run;
that a lease left on a received message fails the run-end check; and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    """One benchmark run; returns (detail line, result line) as dicts."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--size", "tiny",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = [run(workload), run(workload),
                               run(workload, trace=1)]
        return cache[workload]

    return get


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(runs, workload):
    (_, first), (_, second), (_, traced) = runs(workload)
    for result in (first, second):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == units("end_to_end")
        assert all(v["value"] > 0 for v in result["metrics"].values())
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == units("per_layer")
    for result in (first, second, traced):
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_across_runs_and_tracing(runs, workload):
    details = [detail for detail, _ in runs(workload)]
    assert details[0]["digest"] is not None
    assert len({d["digest"] for d in details}) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_correct(runs, workload):
    for detail, result in runs(workload):
        assert result["correct"], detail["problems"]
        assert result["metrics"]


def test_lease_on_a_received_message_is_a_leak():
    """A lease still out after the run fails the check unless a message
    nobody received holds it."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from repro.core import Simulation
        from workloads import check_world
    finally:
        del sys.path[:2]

    sim = Simulation()
    sim.client(lambda ctx: None, host="HOST_1", name="idle")
    sim.run()
    problems = []
    assert check_world(sim, problems) == 0 and not problems
    sim.world.transport.buffer_pool.acquire(64)
    assert check_world(sim, problems) == 0
    assert problems == ["1 buffer-pool leases outstanding after run on "
                        "received messages (0 more on undelivered ones)"]


def test_corrupted_digest_fails_the_run():
    detail, result = run("overload", "--expect-digest", "0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("digest" in p for p in detail["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
