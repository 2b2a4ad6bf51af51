"""Benchmark configuration.

Every benchmark here runs a *deterministic virtual-time simulation*: the
numbers that reproduce the paper's figures are virtual seconds, reported
in each benchmark's ``extra_info`` and printed as tables; pytest-benchmark
additionally measures the wall-clock cost of running the simulation.
Simulations are deterministic, so one round is meaningful.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run a simulation benchmark exactly once (deterministic)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
