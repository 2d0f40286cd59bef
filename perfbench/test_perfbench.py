"""Tests of the benchmark itself: determinism, tracing, contract, failure accounting.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Simulated results are compared between fresh processes: the program keeps
one process-wide counter (TCP connection ids, see NOTES.md), so a rig
built later in a process is not guaranteed to replay a fresh one exactly.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.cluster.fleet import line_fleet  # noqa: E402
from repro.cluster.workload import Flow, WorkloadSpec  # noqa: E402
from repro.faults.scenarios import lossy_link  # noqa: E402

import run as bench  # noqa: E402
from workloads import WORKLOADS, RoundResult, SeededFlow, run_fleet  # noqa: E402

_ROUND = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}]({seed})
if {traced}:
    from spans import Spans
    with Spans():
        result = workload.run_round()
else:
    result = workload.run_round()
print(json.dumps({{"digest": result.digest(), "failures": result.failures}}))
"""


def fresh_round(name: str, seed: int, traced: bool = False) -> dict:
    """One round of a workload in a fresh interpreter: digest and failures."""
    code = _ROUND.format(
        src=str(ROOT / "src"), here=str(HERE), name=name, seed=seed, traced=traced
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    """Each workload's round at seed 1, in a fresh process."""
    return {name: fresh_round(name, 1) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_results(name, untraced):
    assert WORKLOADS[name](1).inputs() == WORKLOADS[name](1).inputs()
    again = fresh_round(name, 1)
    assert again == untraced[name]
    assert untraced[name]["failures"] == []
    digest = untraced[name]["digest"]
    assert digest["failed"] == 0
    assert digest["counts"]["buf.live_buffers_end"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_different_inputs(name):
    assert WORKLOADS[name](1).inputs() != WORKLOADS[name](2).inputs()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_matches_untraced(name, untraced):
    assert fresh_round(name, 1, traced=True) == untraced[name]


def test_observed_changes_no_simulated_figure(untraced):
    open_digest = untraced["rpc-open"]["digest"]
    observed = untraced["rpc-observed"]["digest"]
    assert observed["latencies_ns"] == open_digest["latencies_ns"]
    assert observed["sim"] == open_digest["sim"]
    assert observed["counts"]["telemetry.trace_events"] > 0


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_and_metrics_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        bench.per_layer_metrics()
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declaration(trace):
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            "stream-8k",
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    printed = {name: m["unit"] for name, m in report["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_aborted_fleet_counts_every_operation_as_failed():
    # Known defect: an RPC out of tries raises out of the workload's client
    # and aborts Conductor.run(); the harness must record, not crash.
    fleet = line_fleet(4, 16, hub_ports=18)
    run = run_fleet(fleet, WorkloadSpec(seed=0), lossy_link(24), workers=4)
    assert run.attempted > 0
    assert run.failed == run.attempted
    assert any("ProtocolError" in line for line in run.failures)


def test_drift_fails_only_where_replay_must_be_exact():
    first = RoundResult(attempted=1, sim={"sim_mbps": 1.0})
    later = RoundResult(attempted=1, sim={"sim_mbps": 2.0})
    for name, exact in (("rpc-open", True), ("stream-8k", False)):
        checks = bench.Checks()
        checks.add(name, WORKLOADS[name], first, [first, later])
        assert WORKLOADS[name].exact_replay is exact
        assert len(checks.failures if exact else checks.drift) == 1
        assert len(checks.drift if exact else checks.failures) == 0


_SENT = set()


@dataclass(frozen=True)
class _FlippedOnSend(SeededFlow):
    """Flips the last byte of each body the first time it is asked for,
    which is when the sender sends it; later asks get the true body."""

    def payload(self, message_index: int) -> bytes:
        body = super().payload(message_index)
        if (self.kind, message_index) in _SENT:
            return body
        _SENT.add((self.kind, message_index))
        return body[:-1] + bytes([body[-1] ^ 0xFF])


@pytest.mark.parametrize("kind", ["rmp", "rpc", "tcp", "mcast"])
def test_fleet_check_catches_wrong_bytes(kind):
    fleet = line_fleet(2, 3, hub_ports=6)
    cabs = fleet.cab_names()
    members = tuple(cabs[1:4]) if kind == "mcast" else ()
    flow = Flow(
        index=0, kind=kind, src=cabs[0], dst=cabs[-1], messages=3, size=64,
        members=members,
    )
    good = SeededFlow.seeded(flow, random.Random(1))
    clean = run_fleet(fleet, WorkloadSpec(explicit_flows=(good,)), None, workers=2)
    assert clean.attempted > 0
    assert (clean.failed, clean.failures) == (0, [])
    bad = _FlippedOnSend(**vars(good))
    run = run_fleet(fleet, WorkloadSpec(explicit_flows=(bad,)), None, workers=2)
    assert run.failed == run.attempted
    assert run.failures and all("not" in line for line in run.failures)
