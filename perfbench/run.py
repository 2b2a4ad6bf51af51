#!/usr/bin/env python3
"""Perf ledger for the PARDIS reproduction.

Runs one workload for a fixed host time, checks its virtual-time outputs
and prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics (host time divided by the
host's measured slowness, tracing off).
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics.  Run it from the repository root; it imports the
package from ``src/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import sys

# Host environment, fixed before numpy loads: one BLAS/OpenMP thread, and
# the whole process (simulated threads and setup probes) on one CPU, the
# lowest this process may use.  Affinity moves the figures a lot, so
# every run uses the same one and reports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from a "
             "checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
#: setup probes per run: setup_s is their median
PROBES = {"full": 9, "tiny": 1}
#: host seconds of one reference_work() call at reference speed.  Fixed
#: for good: it is the unit every end-to-end time is normalised to, so
#: changing it moves every recorded median.
REFERENCE_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
    "call_p99_us": "us",
    "payload_mb_per_s": "MB/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="workload scale; 'tiny' is for the self-test")
    ap.add_argument("--expect-digest",
                    help="check against this digest instead of the "
                         "recorded one")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def reference_work() -> int:
    """Fixed interpreter work (integer arithmetic and dict stores), the
    yardstick for the host's current speed."""
    acc, table = 0, {}
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return acc


def host_slowness() -> float:
    """How many times slower than reference speed the host runs now: the
    median of three timed :func:`reference_work` calls over REFERENCE_S.

    The CPU this process gets is shared, and its speed swings by up to 2x
    over tens of seconds to minutes.  Every end-to-end time is divided by
    the slowness measured around it, so runs made at different host speeds
    compare; the raw times are printed beside them."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


def measure(workload, seconds: float, problems: list, tracer=None,
            between=None):
    """Run episodes until ``seconds`` of host time have passed (at least
    one).  Returns the episodes, each episode's layer delta (with a
    tracer) and the host slowness during each episode: the mean of the
    readings just before and just after it.  ``between(elapsed_share)``
    runs after each episode, outside its timing."""
    episodes, deltas, slowness = [], [], []
    baseline = threading.active_count()
    start = time.perf_counter()
    last = host_slowness()
    while True:
        gc.collect()
        before = tracer.snapshot() if tracer else None
        try:
            ep = workload.episode()
        except Exception as exc:  # a crashed episode fails the run
            problems.append(f"episode raised {exc!r}")
            break
        if tracer:
            deltas.append(layers.delta(tracer.snapshot(), before))
        now = host_slowness()
        slowness.append((last + now) / 2)
        last = now
        stray = threading.active_count() - baseline
        if stray:
            ep.problems.append(f"{stray} stray OS threads after an episode")
        problems.extend(p for p in ep.problems if p not in problems)
        episodes.append(ep)
        elapsed = time.perf_counter() - start
        if between:
            between(elapsed / seconds)
        if elapsed >= seconds:
            break
    return episodes, deltas, slowness


def expected_digest(args) -> str:
    """The recorded digest; every workload's is the same for all seeds."""
    if args.expect_digest:
        return args.expect_digest
    return json.loads(DIGESTS.read_text())[args.size][args.workload]


def check_digests(args, runs: list, problems: list) -> str | None:
    """All episodes (traced or not) must agree, and match the record."""
    seen = sorted({ep.digest for ep in runs})
    if len(seen) > 1:
        problems.append(f"virtual outputs differ between episodes: {seen}")
    got = seen[0] if seen else None
    want = expected_digest(args)
    if got is not None and got != want:
        problems.append(f"digest {got} != recorded {want}")
    return got


class SetupProbes:
    """Host seconds from process start to the first invocation, in fresh
    interpreters: imports, compile_idl, input generation, world build.

    The host's speed drifts over tens of seconds, so the probes are spread
    evenly over the measured window (called between episodes) instead of
    bunched at its end."""

    def __init__(self, args, problems: list) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--probe-setup", "--workload", args.workload,
                    "--seed", str(args.seed), "--size", args.size]
        self.total = PROBES[args.size]
        self.problems = problems
        #: (raw host seconds, slowness read right after the probe)
        self.setups: list = []
        self.tried = 0

    def __call__(self, share: float) -> None:
        """Probe until ``share`` of the planned probes have run."""
        while self.tried < min(self.total, int(share * self.total) + 1):
            self.probe()

    def probe(self) -> None:
        self.tried += 1
        t0 = time.monotonic()
        try:
            out = subprocess.run(self.cmd, capture_output=True, text=True,
                                 timeout=120, check=True)
            raw = float(out.stdout.split()[-1]) - t0
            self.setups.append((raw, host_slowness()))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            self.problems.append(f"setup probe failed: {exc!r}")


def run_probe(args) -> None:
    """Child side of :class:`SetupProbes`: set up, run, and exit at the
    first stub call with the monotonic clock on stdout."""
    from repro.core.stubapi import ProxyBase

    def first_invocation(*_args, **_kwargs):
        print(repr(time.monotonic()), flush=True)
        os._exit(0)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    workload.setup()
    ProxyBase._invoke = ProxyBase._invoke_nb = first_invocation
    workload.episode()
    sys.exit("perfbench: the workload made no invocation")


def percentile_us(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e6


def end_to_end(episodes: list, slowness: list,
               setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the samples behind them.  Each host
    time is divided by the host slowness measured around it; ``raw``
    repeats the host-time metrics undivided."""
    values = host_time_metrics(episodes, slowness, setups)
    raw = host_time_metrics(episodes, [1.0] * len(episodes),
                            [(t, 1.0) for t, _ in setups])
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    values["ok_ratio"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    samples = {"latency_samples": sum(len(ep.latencies_s)
                                      for ep in episodes),
               "raw": raw,
               "host_slowness": [round(x, 4) for x in slowness],
               "episode_wall_s": [ep.wall_s for ep in episodes],
               "setup_probes_s": [t for t, _ in setups]}
    return values, samples


def host_time_metrics(episodes: list, slowness: list, setups: list) -> dict:
    walls = [ep.wall_s / k for ep, k in zip(episodes, slowness)]
    total_wall = sum(walls)
    attempted = sum(ep.attempted for ep in episodes)
    lat = [x / k for ep, k in zip(episodes, slowness)
           for x in ep.latencies_s]
    values = {
        "wall_s": statistics.median(walls),
        "calls_per_s": attempted / total_wall,
        "call_p50_us": percentile_us(lat, 50),
        "call_p90_us": percentile_us(lat, 90),
        "call_p99_us": percentile_us(lat, 99),
        "payload_mb_per_s": sum(ep.wire_bytes for ep in episodes)
        / total_wall / 1e6,
    }
    if setups:
        values["setup_s"] = statistics.median(t / k for t, k in setups)
    return values


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        run_probe(args)
    workload = WORKLOADS[args.workload](args.seed, args.size)
    workload.setup()
    problems: list = []
    detail = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "env": environment()}

    # One unmeasured episode first: lazy imports, schedule caches and the
    # allocator's adaptive thresholds settle before timing starts.
    warmup, _, _ = measure(workload, 0.0, problems)
    if args.trace == 0:
        probes = SetupProbes(args, problems)
        episodes, _, slowness = measure(workload, args.seconds, problems,
                                        between=probes)
        probes(1.0)
        runs = warmup + episodes
    else:
        plain, _, _ = measure(workload, args.seconds / 2, problems)
        tracer = layers.LayerTracer().install()
        start = tracer.snapshot()
        traced, deltas, _ = measure(workload, args.seconds / 2, problems,
                                    tracer)
        total = layers.delta(tracer.snapshot(), start)
        runs = warmup + plain + traced
        episodes = traced
    detail["digest"] = check_digests(args, runs, problems)
    # Teardown state is virtual-time state too: it must repeat exactly.
    stranded = sorted({ep.undelivered_leases for ep in runs})
    if len(stranded) > 1:
        problems.append(f"undelivered leases differ between episodes: "
                        f"{stranded}")
    detail["undelivered_leases"] = stranded

    metrics = {}
    if episodes and (args.trace == 0 or plain):
        if args.trace == 0:
            values, samples = end_to_end(episodes, slowness, probes.setups)
            metrics = {name: {"value": values[name],
                              "unit": END_TO_END_UNITS[name]}
                       for name in END_TO_END_UNITS if name in values}
            detail.update(samples)
        else:
            if len({json.dumps(layers.counts(d), sort_keys=True)
                    for d in deltas}) > 1:
                problems.append("layer counts differ between episodes")
            total["episodes"] = len(deltas)
            overhead = (statistics.median(ep.wall_s for ep in traced)
                        / statistics.median(ep.wall_s for ep in plain)
                        - 1.0) * 100.0
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.layer_metrics(
                           total, workload.compile_s, overhead).items()}
            # Leases on fragments nobody received before teardown, per
            # episode: not a leak by the pool's rule, but not a clean
            # run-end state either.
            metrics["cdr.undelivered_leases"] = {
                "value": traced[-1].undelivered_leases, "unit": "count"}
    detail["episodes"] = len(runs)
    detail["problems"] = problems
    print(json.dumps(detail))

    # A run that fails any check counts every invocation it made as failed.
    correct = not problems and bool(metrics)
    attempted = max(sum(ep.attempted for ep in runs), 1)
    failed = sum(ep.failed for ep in runs) if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
