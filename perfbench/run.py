"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rpc-open --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed``; rounds of the identical input are repeated for about
``--seconds`` host seconds (after one warm-up round) and every round's
outputs are checked.  Lines starting with ``#`` are for people; the last
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host speed,
set-up time, memory, and the simulated results); with ``--trace 1`` they
are the per-layer ones, from a separate run that records spans around the
program's public methods (see ``spans.py``).  NOTES.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, measured with tracing off.
END_TO_END = (
    ("host_msgs_per_s", "msg/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_pct", "%"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_mbps", "Mbit/s"),
    ("paper_err_pct", "%"),
    ("sim_makespan_ms", "ms"),
)

#: Counters reported by the traced run, as (name, unit).
LAYER_COUNTS = (
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("hw.vme_dma_bytes", "B"),
    ("hw.vme_pio_bytes", "B"),
    ("hw.crc_errors", "count"),
    ("cab.interrupts", "count"),
    ("cab.context_switches", "count"),
    ("cab.cpu_busy_pct", "%"),
    ("runtime.mailbox_msgs", "count"),
    ("runtime.alloc_stalls", "count"),
    ("runtime.cached_alloc_ratio", "ratio"),
    ("protocols.retransmits", "count"),
    ("protocols.nmp_repairs", "count"),
    ("protocols.duplicates", "count"),
    ("protocols.goodput_ratio", "ratio"),
    ("hub.frames_forwarded", "count"),
    ("hub.frames_stalled", "count"),
    ("hub.frames_dropped", "count"),
    ("hub.mcast_frames", "count"),
    ("buf.memcpy_bytes_per_msg", "B/msg"),
    ("buf.memcpy_calls", "count"),
    ("buf.live_buffers_end", "count"),
    ("cluster.barriers", "count"),
    ("cluster.handoffs", "count"),
    ("cluster.ring_bytes", "B"),
    ("cluster.pickle_bytes", "B"),
    ("faults.fires", "count"),
    ("telemetry.trace_events", "count"),
    ("telemetry.tax_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
)

#: Measured rounds a run makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 2
#: The percentiles of the timed units' rates and of the set-up times that
#: ``host_msgs_per_s`` and ``setup_s`` report (see :func:`rate`).
RATE_PERCENTILE, SETUP_PERCENTILE = 90, 10
#: Iterations and repeats of the calibration loop.
CALIBRATION_LOOPS, CALIBRATION_REPEATS = 300_000, 5


def per_layer_metrics():
    """(name, unit) of every per-layer metric, self times first."""
    from spans import LAYERS

    return tuple((f"{layer}.self_s", "s") for layer in LAYERS) + LAYER_COUNTS


def machine() -> dict:
    """Fingerprint of the host, plus the calibration loop's score."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "calib_mloops_per_s": calibrate(),
    }


def calibrate() -> float:
    """Million iterations per second of a fixed pure-Python loop (median)."""
    scores = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) & 0xFFFF
        scores.append(CALIBRATION_LOOPS / (time.perf_counter() - started) / 1e6)
    return statistics.median(scores)


def run_rounds(workload, seconds: float, at_least: int = MIN_ROUNDS) -> list:
    """Rounds until the next would end past ``seconds`` (``at_least`` of them)."""
    rounds = []
    started = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(workload.run_round())
        elapsed = time.perf_counter() - started
        if len(rounds) >= at_least and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def rate(rounds) -> float:
    """Operations completed per host second: a high percentile of the rates of
    the rounds' timed units.

    A shared machine's speed swings between levels some 35% apart within
    seconds, and the share of a run spent at each level decides a mean or
    a median.  Noise only slows a unit, so the fast units' rate is the one
    that repeats; a program change that costs time slows them too.
    """
    return percentile(sorted(unit for r in rounds for unit in r.rates), RATE_PERCENTILE)


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Checks:
    """Failed output checks, and rounds whose simulated results drifted.

    Every round replays the first round's input, so its simulated results
    should repeat exactly.  On a workload with TCP, a round that does not
    is reported as drift rather than as a wrong output: the TCP connection
    id defect can cause it, its deliveries were still checked one by one,
    and the reported figures come from the first round, which is what a
    fresh process computes (NOTES.md, known limits).  On a workload with
    no TCP (``exact_replay``), any difference is a failed check.
    """

    def __init__(self):
        self.failures: list = []
        self.drift: list = []

    def add(self, label: str, workload, reference, rounds) -> None:
        expected = reference.digest()
        for index, result in enumerate(rounds):
            self.failures.extend(f"{label} round {index}: {line}" for line in result.failures)
            if result.digest() != expected:
                late = self.failures if workload.exact_replay else self.drift
                late.append(f"{label} round {index}: simulated results differ from the first round")


def warm_up(workload, checks: Checks):
    """The first round: the reference for every later one, not timed."""
    started = time.perf_counter()
    warm = workload.run_round()
    checks.add(f"{workload.name} warm-up", workload, warm, [warm])
    return warm, time.perf_counter() - started


def end_to_end(workload, seconds: float, checks: Checks):
    """The untraced run: (rounds incl. warm-up, metrics)."""
    warm, spent = warm_up(workload, checks)
    rounds = run_rounds(workload, seconds - spent)
    checks.add(workload.name, workload, warm, rounds)
    latencies = sorted(warm.latencies_ns)
    metrics = {
        "host_msgs_per_s": rate(rounds),
        "setup_s": percentile(sorted(s for r in rounds for s in r.setup_s), SETUP_PERCENTILE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "delivered_pct": 100.0
        * sum(r.completed for r in rounds + [warm])
        / sum(r.attempted for r in rounds + [warm]),
        "sim_p50_us": percentile(latencies, 50) / 1e3,
        "sim_p99_us": percentile(latencies, 99) / 1e3,
        "sim_mbps": warm.sim["sim_mbps"],
        "paper_err_pct": warm.sim["paper_err_pct"],
        "sim_makespan_ms": warm.sim["sim_makespan_ms"],
    }
    return [warm] + rounds, metrics


def traced(workload, seconds: float, checks: Checks, spans_path: Path):
    """The traced run: (rounds, per-layer metrics, top spans, spans kept).

    A third of the time goes to untraced rounds (the overhead baseline),
    a third to plain ``rpc-open`` rounds on ``rpc-observed`` (the
    telemetry tax), and the rest to traced rounds; one round of each at
    least.  These figures have no bound, so one round is enough.
    """
    from spans import LAYERS, Spans
    from workloads import RpcOpen

    budget = seconds / 3
    warm, spent = warm_up(workload, checks)
    untraced = run_rounds(workload, budget - spent, at_least=1)
    checks.add(workload.name, workload, warm, untraced)
    tax = 0.0
    if workload.observed:
        bare = RpcOpen(workload.seed)
        plain = run_rounds(bare, budget, at_least=1)
        checks.add(f"{bare.name} (telemetry off)", bare, plain[0], plain)
        tax = 100.0 * (rate(plain) / rate(untraced) - 1)
    traced_rounds, self_s, unattributed = [], {layer: [] for layer in LAYERS}, []
    with Spans() as spans:
        deadline = time.perf_counter() + budget
        while not traced_rounds or time.perf_counter() < deadline:
            gc.collect()
            spans.reset_totals()
            started = time.perf_counter_ns()
            traced_rounds.append(workload.run_round())
            wall = time.perf_counter_ns() - started
            for layer in LAYERS:
                self_s[layer].append(spans.self_ns[layer] / 1e9)
            unattributed.append((wall - spans.covered_ns) / 1e9)
    checks.add(f"{workload.name} traced", workload, warm, traced_rounds)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    kept = spans.write_chrome(spans_path)

    metrics = {f"{layer}.self_s": statistics.median(self_s[layer]) for layer in LAYERS}
    metrics.update(
        {name: warm.counts.get(name, 0) for name, _unit in LAYER_COUNTS}
    )
    metrics["sim.host_ns_per_event"] = statistics.median(
        r.run_s * 1e9 / r.counts["sim.events"] for r in untraced
    )
    metrics["telemetry.tax_pct"] = tax
    metrics["trace.overhead_pct"] = 100.0 * (rate(untraced) / rate(traced_rounds) - 1)
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    return [warm] + untraced + traced_rounds, metrics, spans.top(), kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})"
        )
    workload = WORKLOADS[args.workload](args.seed)
    host = machine()
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("# machine " + json.dumps(host, sort_keys=True))

    checks = Checks()
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        rounds, values, top, kept = traced(workload, args.seconds, checks, spans_path)
        units = dict(per_layer_metrics())
        print(f"# spans: first {kept} written to {spans_path.relative_to(ROOT)}")
        for name, ns in top:
            print(f"# top self time: {name} {ns / 1e9:.4f} s")
    else:
        rounds, values = end_to_end(workload, args.seconds, checks)
        units = dict(END_TO_END)
        first = rounds[0]
        extra = "".join(f", {key} {value:g}" for key, value in sorted(first.sim.items()) if key not in values)
        print(
            f"# rounds: {len(rounds) - 1} measured + 1 warm-up; {first.attempted} "
            f"operations and {len(first.latencies_ns)} latency samples per round{extra}"
        )
        print(
            f"# calibrated host_msgs_per_s: "
            f"{values['host_msgs_per_s'] / host['calib_mloops_per_s']:.2f} "
            f"msg per million calibration-loop iterations"
        )
    for line in checks.failures:
        print(f"# FAILED CHECK: {line}")
    for line in checks.drift:
        print(f"# DETERMINISM DRIFT: {line}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")

    failed = sum(r.failed for r in rounds)
    report = {
        "correct": not checks.failures and failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
