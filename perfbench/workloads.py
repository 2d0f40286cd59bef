"""The benchmark's workloads: seeded inputs, one measured round, its checks.

Every workload turns ``--seed`` into a complete input (schedules, sizes,
payload bytes, fault seeds) when it is constructed; :meth:`run_round`
then builds a fresh rig, runs it to quiescence and checks the outputs.
Repeated rounds replay the identical input, so every simulated figure of
a round should equal the first round's; the harness reports a round that
differs as determinism drift.

The program is driven only through its public API: ``NectarSystem``,
``SocketLibrary``, ``Conductor``, ``FaultPlan``, ``enable_telemetry()``,
and the ``StatsRegistry`` / ``CopyMeter`` counters.  The fleet's shard
systems are built inside ``Conductor.run()``, so :func:`observe_fleet`
records each ``NectarSystem`` as it is constructed, the time of the first
``Simulator.run`` call (the end of set-up), and the bytes every flow
endpoint received.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.conductor import Conductor
from repro.cluster.fleet import line_fleet
from repro.cluster.workload import Flow, WorkloadSpec
from repro.faults.plan import DROP, FaultPlan, FaultSpec
from repro.host.machine import HostedNode
from repro.host.sockets import SocketLibrary
from repro.protocols.headers import NectarTransportHeader
from repro.protocols.nectar.reqresp import RequestResponseProtocol
from repro.runtime.mailbox import Mailbox
from repro.sim.core import Simulator
from repro.system import NectarSystem
from repro.units import throughput_mbps

__all__ = ["WORKLOADS", "RoundResult", "run_fleet"]

#: Paper reference points (Table 1 and Figs. 7-8 of the paper).
PAPER_CAB_RTT_US = 179.0
PAPER_RMP_8K_MBPS = 90.0
PAPER_HOST_TCP_MBPS = 24.0


@dataclass
class RoundResult:
    """One round: what was attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    #: host seconds of each set-up of the workload's rigs in the round
    setup_s: List[float] = field(default_factory=list)
    #: host seconds of the run phase (set-up and checks excluded)
    run_s: float = 0.0
    #: operations completed per host second, one figure per timed unit of
    #: the run phase (a slice of simulated time, a fleet, or the round)
    rates: List[float] = field(default_factory=list)
    #: simulated latencies (ns) of the round's timed operations
    latencies_ns: List[int] = field(default_factory=list)
    #: simulated end-to-end figures (deterministic for a given seed)
    sim: Dict[str, float] = field(default_factory=dict)
    #: simulated and host-copy counters (deterministic for a given seed)
    counts: Dict[str, float] = field(default_factory=dict)
    #: failed output checks, one line each
    failures: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def digest(self) -> dict:
        """Everything that must repeat exactly for a fixed seed."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies_ns": list(self.latencies_ns),
            "sim": dict(self.sim),
            "counts": dict(self.counts),
        }


def _payload(rng: random.Random, seq: int, size: int) -> bytes:
    """A message body: 4-byte sequence number, then seeded bytes."""
    return seq.to_bytes(4, "big") + rng.randbytes(size - 4)


def _two_cabs(observed: bool = False):
    system = NectarSystem()
    if observed:
        system.enable_telemetry()
    hub = system.add_hub("hub0")
    node_a = system.add_node("cab-a", hub, 0)
    node_b = system.add_node("cab-b", hub, 1)
    return system, node_a, node_b


def layer_counts(systems, ops: int, payload_bytes: int) -> Dict[str, float]:
    """The per-layer counters of finished systems, summed over the systems.

    ``ops`` and ``payload_bytes`` are the operations completed and the
    application payload they delivered, the bases of the per-message and
    goodput ratios.
    """
    counts = {
        "sim.events": 0,
        "cab.interrupts": 0,
        "cab.context_switches": 0,
        "runtime.mailbox_msgs": 0,
        "runtime.alloc_stalls": 0,
        "protocols.retransmits": 0,
        "protocols.nmp_repairs": 0,
        "protocols.duplicates": 0,
        "hw.vme_dma_bytes": 0,
        "hw.vme_pio_bytes": 0,
        "hw.crc_errors": 0,
        "hub.frames_forwarded": 0,
        "hub.frames_stalled": 0,
        "hub.frames_dropped": 0,
        "hub.mcast_frames": 0,
        "buf.memcpy_calls": 0,
        "buf.live_buffers_end": 0,
        "faults.fires": 0,
        "telemetry.trace_events": 0,
    }
    busy_ns = cab_ns = cached = heap = cab_bytes = memcpy_bytes = 0
    for system in systems:
        counts["sim.events"] += system.sim.events_scheduled
        network = system.network.stats
        for name in ("frames_forwarded", "frames_stalled", "frames_dropped", "mcast_frames"):
            counts[f"hub.{name}"] += network.value(name)
        meter = system.copy_meter
        memcpy_bytes += meter.memcpy_bytes
        counts["buf.memcpy_calls"] += meter.memcpy_calls
        counts["buf.live_buffers_end"] += meter.live_buffers
        if system.faults is not None:
            counts["faults.fires"] += sum(system.faults.stats.snapshot().values())
        if system.telemetry is not None:
            counts["telemetry.trace_events"] += len(system.telemetry.recorder.events)
        for node in system.nodes.values():
            cpu, stats = node.cab.cpu, node.runtime.stats
            counts["cab.interrupts"] += cpu.stats.value("interrupts_serviced")
            counts["cab.context_switches"] += cpu.stats.value("context_switches")
            busy_ns += cpu.busy_ns
            cab_ns += system.sim.now
            counts["hw.crc_errors"] += node.cab.stats.value("crc_errors")
            cab_bytes += node.cab.stats.value("bytes_sent")
            for mailbox in node.runtime.mailboxes.values():
                counts["runtime.mailbox_msgs"] += mailbox.stats.value("messages_queued")
                counts["runtime.alloc_stalls"] += mailbox.stats.value("alloc_stalls")
                cached += mailbox.stats.value("cached_allocs")
                heap += mailbox.stats.value("heap_allocs")
            counts["protocols.retransmits"] += (
                stats.value("rmp_retransmits")
                + stats.value("rpc_retries")
                + stats.value("tcp_retransmits")
            )
            counts["protocols.nmp_repairs"] += stats.value("nmp_repairs_out")
            counts["protocols.duplicates"] += (
                stats.value("rmp_duplicates")
                + stats.value("tcp_duplicates")
                + stats.value("nmp_duplicates")
                + stats.value("rpc_duplicate_requests")
            )
    counts["cab.cpu_busy_pct"] = 100.0 * busy_ns / cab_ns if cab_ns else 0.0
    counts["runtime.cached_alloc_ratio"] = cached / (cached + heap) if cached + heap else 0.0
    counts["protocols.goodput_ratio"] = payload_bytes / cab_bytes if cab_bytes else 0.0
    counts["buf.memcpy_bytes_per_msg"] = memcpy_bytes / ops if ops else 0.0
    return counts


def _add_vme(counts: Dict[str, float], hosted_nodes) -> None:
    for hosted in hosted_nodes:
        counts["hw.vme_dma_bytes"] += hosted.vme.stats.value("dma_bytes")
        counts["hw.vme_pio_bytes"] += hosted.vme.stats.value("pio_bytes")


def _check_drained(result: RoundResult, systems) -> None:
    """Require zero live packet buffers once the rig has run to quiescence."""
    for index, system in enumerate(systems):
        live = system.copy_meter.live_buffers
        if live:
            result.failures.append(
                f"system {index}: {live} packet buffers still live after run()"
            )


# ===================================================================== rpc-open


class RpcOpen:
    """Open-loop small-message load on one HUB, all CAB-resident.

    Independent users on CAB ``a`` issue a seeded mix of datagram echoes
    and request-response calls (32-256 B) to CAB ``b`` at seeded Poisson
    due times.  A user whose previous operation is still outstanding
    issues late; every latency is timed from the due time, so simulated
    CPU queueing shows in the tail.
    """

    name = "rpc-open"
    observed = False
    #: No TCP, so every replayed round must repeat the first one exactly.
    exact_replay = True
    USERS = 16
    OPS = 6000
    WARMUP = 100
    #: About 70% of the ~4k round trips per simulated second that eight
    #: closed-loop 32-B echo users reach on this rig.
    RATE_PER_S = 2800.0
    SIZES = (32, 256)
    PROBE_DUE_NS = 1_000_000
    #: Simulated time per timed unit of the run phase (about 20 a round).
    SLICE_NS = 100_000_000

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"rpc:{seed}")
        self.schedule: List[list] = [[] for _ in range(self.USERS)]
        # Operation 0 is a lone 32-B echo once every thread has started:
        # the rig's unloaded round trip, compared with the paper's.
        probe_ns = self.PROBE_DUE_NS
        self.schedule[0].append((probe_ns, "echo", 0, _payload(rng, 0, 32)))
        due_s = 2 * probe_ns / 1e9
        for seq in range(1, self.OPS):
            due_s += rng.expovariate(self.RATE_PER_S)
            user = rng.randrange(self.USERS)
            kind = "echo" if rng.random() < 0.5 else "rpc"
            size = rng.randint(*self.SIZES)
            self.schedule[user].append(
                (round(due_s * 1e9), kind, seq, _payload(rng, seq, size))
            )

    def inputs(self) -> list:
        """The generated schedule (what the program receives)."""
        return self.schedule

    def _build(self, done: Dict[int, tuple], served: Dict[str, int]):
        """A fresh rig with every user, echo thread and RPC server forked.

        Completed operations land in ``done`` (seq -> latency, lateness,
        kind); requests each server saw are counted in ``served``.
        """
        system, node_a, node_b = _two_cabs(self.observed)
        client_port, echo_port, rpc_port = 100, 600, 0x2000

        def client(user, inbox):
            for due, kind, seq, payload in self.schedule[user]:
                now = system.now
                if due > now:
                    yield from node_a.runtime.ops.sleep(due - now)
                issued = system.now
                if kind == "echo":
                    yield from node_a.datagram.send(
                        client_port + user, node_b.node_id, echo_port + user, payload
                    )
                    message = yield from inbox.begin_get()
                    reply = message.read()
                    yield from inbox.end_get(message)
                else:
                    reply = yield from node_a.rpc.request(
                        0x3000 + user, node_b.node_id, rpc_port + user, payload
                    )
                if reply == payload and seq not in done:
                    done[seq] = (system.now - due, issued - due, kind)

        def echo(user, inbox):
            while True:
                message = yield from inbox.begin_get()
                data = message.read()
                yield from inbox.end_get(message)
                served["echo"] += 1
                yield from node_b.datagram.send(
                    echo_port + user, node_a.node_id, client_port + user, data
                )

        def server(service):
            while True:
                message = yield from service.begin_get()
                header = NectarTransportHeader.unpack(
                    message.read(0, NectarTransportHeader.SIZE)
                )
                body = message.read(NectarTransportHeader.SIZE)
                yield from service.end_get(message)
                served["rpc"] += 1
                yield from node_b.rpc.respond(header, body)

        for user in range(self.USERS):
            a_inbox = node_a.runtime.mailbox(f"client-{user}")
            b_inbox = node_b.runtime.mailbox(f"echo-{user}")
            service = node_b.runtime.mailbox(f"rpc-{user}")
            node_a.datagram.bind(client_port + user, a_inbox)
            node_b.datagram.bind(echo_port + user, b_inbox)
            node_b.rpc.serve(rpc_port + user, service)
            node_a.runtime.fork_application(client(user, a_inbox), f"user-{user}")
            node_b.runtime.fork_system(echo(user, b_inbox), f"echo-{user}")
            node_b.runtime.fork_system(server(service), f"rpc-{user}")
        return system

    def _timed_build(self, result: RoundResult, done, served):
        gc.collect()  # see Stream8k._rmp
        started = time.perf_counter()
        system = self._build(done, served)
        result.setup_s.append(time.perf_counter() - started)
        return system

    def run_round(self) -> RoundResult:
        result = RoundResult(attempted=self.OPS)
        done: Dict[int, tuple] = {}
        served = {"echo": 0, "rpc": 0}
        system = self._timed_build(result, done, served)
        # The run goes in slices of simulated time up to the last due time,
        # each a host-rate sample, then on to quiescence.  Between slices a
        # spare rig is built, timed and dropped: a set-up takes about a
        # millisecond, and samples spread over the round see the machine's
        # fast and slow spells alike (NOTES.md).
        last_due = max(op[0] for user in self.schedule for op in user)
        try:
            until = self.SLICE_NS
            while until < last_due:
                started, before = time.perf_counter(), len(done)
                system.run(until)
                elapsed = time.perf_counter() - started
                result.run_s += elapsed
                result.rates.append((len(done) - before) / elapsed)
                self._timed_build(result, {}, {"echo": 0, "rpc": 0})
                until += self.SLICE_NS
            started = time.perf_counter()
            system.run()
        except Exception as exc:  # an aborted run fails every operation it owed
            result.failures.append(f"run aborted: {type(exc).__name__}: {exc}")
        result.run_s += time.perf_counter() - started

        result.failed = self.OPS - len(done)
        kinds = [kind for user in self.schedule for _d, kind, _s, _p in user]
        for kind in ("echo", "rpc"):
            if served[kind] != kinds.count(kind):
                result.failures.append(
                    f"{kind}: served {served[kind]} requests, sent {kinds.count(kind)}"
                )
        _check_drained(result, [system])
        timed = [done[seq] for seq in sorted(done) if seq >= self.WARMUP]
        result.latencies_ns = [latency for latency, _late, _kind in timed]
        lateness = [late for _lat, late, _kind in timed]
        delivered = sum(len(p) for user in self.schedule for _d, _k, s, p in user if s in done)
        sim_ns = max(1, system.now)
        result.sim = {
            "sim_mbps": 2 * delivered * 8 * 1e3 / sim_ns,
            "paper_err_pct": (
                100.0
                * abs((done[0][0] - done[0][1]) / 1e3 - PAPER_CAB_RTT_US)
                / PAPER_CAB_RTT_US
                if 0 in done
                else 100.0
            ),
            "sim_makespan_ms": system.now / 1e6,
            "max_lateness_us": max(lateness, default=0) / 1e3,
        }
        result.counts = layer_counts([system], len(done), 2 * delivered)
        return result


class RpcObserved(RpcOpen):
    """``rpc-open``'s inputs with the telemetry plane attached."""

    name = "rpc-observed"
    observed = True


# ==================================================================== stream-8k


class Stream8k:
    """8 KB messages on two rigs: CAB-to-CAB RMP and host-to-host TCP.

    The RMP rig is Fig. 7's 8 KB point (fiber/DMA-bound; the data starts
    in CAB memory, so no send-side copy is charged, as in Fig. 7).  The
    TCP rig is Fig. 8's: host processes stream through the socket library
    and both VME buses (bus- and checksum-bound).  Throughput is taken
    from the delivery of the last warm-up message to the last delivery.
    """

    name = "stream-8k"
    observed = False
    #: A later TCP rig in the process can replay differently (NOTES.md).
    exact_replay = False
    SIZE = 8192
    WARMUP = 3
    #: Seeded stream lengths.  Both senders send back to back; a latency
    #: runs from the send call to delivery, so on TCP it includes the wait
    #: in the socket's send buffer.
    RMP_MESSAGES = (96, 104)
    TCP_MESSAGES = (192, 208)

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"stream:{seed}")
        rmp_count = rng.randint(*self.RMP_MESSAGES)
        tcp_count = rng.randint(*self.TCP_MESSAGES)
        self.rmp_payloads = [_payload(rng, k, self.SIZE) for k in range(rmp_count)]
        self.tcp_payloads = [_payload(rng, k, self.SIZE) for k in range(tcp_count)]

    def inputs(self) -> list:
        return [self.rmp_payloads, self.tcp_payloads]

    def _rmp(self):
        # Collect the garbage of whatever ran before, so that no set-up pays
        # for a collection its predecessor's allocations triggered.
        gc.collect()
        started = time.perf_counter()
        system, node_a, node_b = _two_cabs()
        payloads = self.rmp_payloads
        inbox = node_b.runtime.mailbox("stream-in")
        channel = node_a.rmp.open(21, node_b.node_id, 22)
        node_b.rmp.open(22, node_a.node_id, 21, deliver_mailbox=inbox)
        due: List[int] = []
        got: List[tuple] = []

        def sender():
            for payload in payloads:
                due.append(system.now)
                yield from node_a.rmp.send(channel, payload, charge_copy=False)

        def receiver():
            for _ in payloads:
                message = yield from inbox.begin_get()
                got.append((system.now, message.read()))
                yield from inbox.end_get(message)

        node_a.runtime.fork_application(sender(), "rmp-sender")
        node_b.runtime.fork_application(receiver(), "rmp-receiver")
        return started, system, [], due, got

    def _tcp(self):
        gc.collect()
        started = time.perf_counter()
        system, node_a, node_b = _two_cabs()
        hosted_a, hosted_b = HostedNode(system, node_a), HostedNode(system, node_b)
        lib_a, lib_b = SocketLibrary(hosted_a), SocketLibrary(hosted_b)
        payloads = self.tcp_payloads
        due: List[int] = []
        got: List[tuple] = []

        def server():
            yield from lib_b.init()
            sock = lib_b.socket()
            listener = yield from sock.listen(7000)
            yield from sock.accept(listener)
            for _ in payloads:
                data = yield from sock.recv(self.SIZE)
                got.append((system.now, bytes(data)))

        def client():
            yield from lib_a.init()
            sock = lib_a.socket()
            yield from sock.connect(hosted_b.node.ip_address, 7000, 6000)
            for payload in payloads:
                due.append(system.now)
                yield from sock.send(payload)

        hosted_b.host.fork_process(server(), "tcp-server")
        hosted_a.host.fork_process(client(), "tcp-client")
        return started, system, [hosted_a, hosted_b], due, got

    def run_round(self) -> RoundResult:
        result = RoundResult(
            attempted=len(self.rmp_payloads) + len(self.tcp_payloads)
        )
        systems, hosted_all, mbps, completed, delivered = [], [], [], 0, 0
        makespan = setup_s = 0
        for build, payloads, label in (
            (self._rmp, self.rmp_payloads, "rmp"),
            (self._tcp, self.tcp_payloads, "tcp"),
        ):
            started, system, hosted, due, got = build()
            ready = time.perf_counter()
            setup_s += ready - started
            try:
                system.run()
            except Exception as exc:
                result.failures.append(f"{label} run aborted: {type(exc).__name__}: {exc}")
            result.run_s += time.perf_counter() - ready
            systems.append(system)
            hosted_all.extend(hosted)
            ok = 0
            for index, (when, data) in enumerate(got):
                if index < len(payloads) and data == payloads[index]:
                    ok += 1
                    result.latencies_ns.append(when - due[index])
            if len(got) != len(payloads):
                result.failures.append(
                    f"{label}: {len(got)} messages delivered, {len(payloads)} sent"
                )
            result.failed += len(payloads) - ok
            completed += ok
            delivered += ok * self.SIZE
            if len(got) > self.WARMUP:
                first, last = got[self.WARMUP - 1][0], got[-1][0]
                mbps.append(throughput_mbps(self.SIZE * (len(got) - self.WARMUP), last - first))
            else:
                mbps.append(0.0)
            makespan = max(makespan, system.now)
        _check_drained(result, systems)
        result.setup_s = [setup_s]
        result.rates = [result.completed / result.run_s]
        rmp_mbps, tcp_mbps = mbps
        result.sim = {
            "sim_mbps": (rmp_mbps + tcp_mbps) / 2,
            "rmp_mbps": rmp_mbps,
            "tcp_mbps": tcp_mbps,
            "paper_err_pct": 100.0
            * max(
                abs(rmp_mbps - PAPER_RMP_8K_MBPS) / PAPER_RMP_8K_MBPS,
                abs(tcp_mbps - PAPER_HOST_TCP_MBPS) / PAPER_HOST_TCP_MBPS,
            ),
            "sim_makespan_ms": makespan / 1e6,
        }
        result.counts = layer_counts(systems, completed, delivered)
        _add_vme(result.counts, hosted_all)
        return result


# ================================================================== fleet-lossy


@contextmanager
def observe_fleet(mailboxes=()):
    """Record every ``NectarSystem`` built, when a simulator first runs, and
    what the flow endpoints received.

    Yields a dict with ``systems`` (construction order), ``first_run``
    (``time.perf_counter()`` of the first ``Simulator.run`` call, or None),
    ``taken`` (mailbox name -> the bytes of each message a reader took from
    a mailbox named in ``mailboxes``, in order) and ``replies`` (request
    bytes -> the bytes of each reply an RPC client got for it).  Messages
    are copied through ``Message.view``, which the copy meter does not
    count, so the program's counters are unchanged.
    """
    seen = {
        "systems": [],
        "first_run": None,
        "taken": {name: [] for name in mailboxes},
        "replies": {},
    }
    taken, replies = seen["taken"], seen["replies"]
    original_init, original_run = NectarSystem.__init__, Simulator.run
    original_get, original_request = Mailbox.begin_get, RequestResponseProtocol.request

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        seen["systems"].append(self)

    def run(self, *args, **kwargs):
        if seen["first_run"] is None:
            seen["first_run"] = time.perf_counter()
        return original_run(self, *args, **kwargs)

    def begin_get(self):
        message = yield from original_get(self)
        if self.name in taken:
            taken[self.name].append(bytes(message.view()))
        return message

    def request(self, client_port, dst_node, dst_port, data, *args, **kwargs):
        reply = yield from original_request(
            self, client_port, dst_node, dst_port, data, *args, **kwargs
        )
        replies.setdefault(bytes(data), []).append(bytes(reply))
        return reply

    patched = [
        (NectarSystem, "__init__", init, original_init),
        (Simulator, "run", run, original_run),
        (Mailbox, "begin_get", begin_get, original_get),
        (RequestResponseProtocol, "request", request, original_request),
    ]
    for cls, name, wrapper, _original in patched:
        setattr(cls, name, wrapper)
    try:
        yield seen
    finally:
        for cls, name, _wrapper, original in patched:
            setattr(cls, name, original)


@dataclass(frozen=True)
class SeededFlow(Flow):
    """A fleet flow that sends bodies generated from the benchmark's seed.

    ``Flow.payload`` repeats one fill byte; these bodies carry a 4-byte
    sequence number and seeded bytes, so a reordered, duplicated or
    corrupted message cannot pass the delivery check.
    """

    bodies: tuple = field(default=(), repr=False)

    @classmethod
    def seeded(cls, flow: Flow, rng: random.Random) -> "SeededFlow":
        count = 1 if flow.kind == "tcp" else flow.messages
        bodies = tuple(_payload(rng, k, flow.size) for k in range(count))
        return cls(**vars(flow), bodies=bodies)

    def payload(self, message_index: int) -> bytes:
        return self.bodies[message_index]


class FleetLossy:
    """Many 64-CAB fleets under seeded 2% frame drop, through the Conductor.

    Four HUBs in a line (18 ports: 16 CABs each plus the line's fibers)
    carry a seeded ``WorkloadSpec`` mix of :attr:`MIX` RMP, RPC, TCP and
    NMP multicast flows while every link drops 2% of frames; the Conductor
    runs four inline shards.  Every message body is seeded
    (:class:`SeededFlow`).  No barrier flows: collectives assume a
    fault-free fabric.

    Loss makes one fleet's completion times heavy-tailed (a lost TCP
    segment waits out a ~50 ms retransmission timeout), so one round is
    :attr:`FLEETS` independent fleets, each with its own workload and
    fault seed drawn from ``--seed``, and the simulated figures are
    medians and pooled percentiles over all of them.  Each fleet also
    carries an 8-call RPC probe between two otherwise idle CABs on the
    first HUB: the fleet's unloaded round trip, for the paper check.  The
    probe counts as operations but stays out of the completion figures.
    """

    name = "fleet-lossy"
    observed = False
    exact_replay = False
    FLEETS = 48
    WORKERS = 4
    DROP_PROBABILITY = 0.02
    #: About half of WorkloadSpec's default unicast flow counts, plus two
    #: multicast flows.  With the full defaults most fleets lose a frame on
    #: some flow, and the median makespan flips between the unharmed and
    #: the once-retransmitted mode from seed to seed (NOTES.md).
    MIX = dict(rmp_flows=4, rpc_flows=3, tcp_flows=2, mcast_flows=2)

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"fleet:{seed}")
        self.fleet = line_fleet(4, 16, hub_ports=18)
        self.runs = []
        for _ in range(self.FLEETS):
            flows = WorkloadSpec(seed=rng.getrandbits(32), **self.MIX).flows(self.fleet)
            flows += (self._probe(flows),)
            seeded = tuple(SeededFlow.seeded(flow, rng) for flow in flows)
            spec = WorkloadSpec(explicit_flows=seeded)
            plan = FaultPlan(
                seed=rng.getrandbits(32),
                specs=(
                    FaultSpec(kind=DROP, where="*", probability=self.DROP_PROBABILITY),
                ),
            )
            self.runs.append((spec, plan, seeded[-1].name))

    def _probe(self, flows) -> Flow:
        busy = {name for flow in flows for name in (flow.src, flow.dst, *flow.members)}
        idle = [name for name in self.fleet.cabs_on(["hub00"]) if name not in busy]
        return Flow(
            index=len(flows), kind="rpc", src=idle[0], dst=idle[1], messages=8, size=32
        )

    def inputs(self) -> list:
        return self.runs

    def run_round(self) -> RoundResult:
        result = RoundResult()
        makespans, mbps, probes, counts = [], [], [], []
        for spec, plan, probe in self.runs:
            run = run_fleet(self.fleet, spec, plan, self.WORKERS, probe)
            result.attempted += run.attempted
            result.failed += run.failed
            result.setup_s.append(run.setup_s)
            result.run_s += run.run_s
            result.rates.append((run.attempted - run.failed) / run.run_s)
            result.failures.extend(run.failures)
            result.latencies_ns.extend(run.per_op_ns)
            if run.completions_ns:
                makespans.append(max(run.completions_ns))
                mbps.append(run.payload_bytes * 8 * 1e3 / max(run.completions_ns))
            if run.probe_call_ns is not None:
                probes.append(run.probe_call_ns)
            counts.append(run.counts)
        # Counts add up over the fleets; ratios are the median fleet's.
        for key in counts[0]:
            values = [c[key] for c in counts]
            ratio = key.endswith(("_pct", "_ratio", "_per_msg"))
            result.counts[key] = statistics.median(values) if ratio else sum(values)
        result.sim = {
            "sim_mbps": statistics.median(mbps) if mbps else 0.0,
            "paper_err_pct": (
                100.0 * abs(min(probes) / 1e3 - PAPER_CAB_RTT_US) / PAPER_CAB_RTT_US
                if probes
                else 100.0
            ),
            "sim_makespan_ms": statistics.median(makespans) / 1e6 if makespans else 0.0,
        }
        return result


@dataclass
class FleetRun:
    """One fleet through the Conductor: its accounting and measurements."""

    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    payload_bytes: int = 0
    completions_ns: List[int] = field(default_factory=list)
    #: simulated time per message of each message flow (completion / messages);
    #: a TCP flow is one byte-stream transfer with no per-message latency
    per_op_ns: List[float] = field(default_factory=list)
    #: per-call simulated time of the unloaded RPC probe, when it completed
    probe_call_ns: Optional[float] = None
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def _expected_records(flows) -> Dict[str, tuple]:
    """flow record name -> (flow, operations, payload bytes, receiving mailbox).

    The mailbox is the one the flow's observing endpoint reads, under the
    name ``cluster.workload`` gives it.
    """
    expected = {}
    for flow in flows:
        if flow.kind == "mcast":
            for member in flow.members:
                expected[f"{flow.name}@{member}"] = (
                    flow,
                    flow.messages,
                    flow.messages * flow.size,
                    f"{flow.name}-inbox-{member}",
                )
        elif flow.kind == "tcp":
            expected[flow.name] = (flow, 1, flow.size, f"{flow.name}-srv")
        else:
            mailbox = f"{flow.name}-service" if flow.kind == "rpc" else f"{flow.name}-inbox"
            expected[flow.name] = (flow, flow.messages, flow.messages * flow.size, mailbox)
    return expected


def _wrong_bytes(flow: Flow, ops: int, mailbox: str, seen: dict) -> Optional[str]:
    """Why the bytes a flow's endpoint received are not the bytes sent, or None.

    RMP and multicast receivers must take each body once, in order; the TCP
    server's segments must join to the one body; an RPC server must take
    each request once, in order, and the client must get each back once.
    """
    sent = [flow.payload(k) for k in range(ops)]
    got = seen["taken"][mailbox]
    if flow.kind == "tcp":
        got = [b"".join(got)]
    elif flow.kind == "rpc":
        got = [body[NectarTransportHeader.SIZE :] for body in got]
        if [seen["replies"].get(body) for body in sent] != [[body] for body in sent]:
            return "replies are not the requests' bytes, each once"
    if got != sent:
        return f"received {len(got)} bodies that are not the {ops} sent, once each in order"
    return None


def run_fleet(
    fleet,
    spec: WorkloadSpec,
    plan: Optional[FaultPlan],
    workers: int,
    probe: Optional[str] = None,
) -> FleetRun:
    """Run one fleet to quiescence and account every flow it owed.

    An exception out of ``Conductor.run()`` (for example an RPC that ran
    out of tries) aborts the whole run: it is caught here and every
    operation of the run is counted as failed.  The flow named ``probe``
    counts as operations but stays out of the completion statistics.
    """
    run = FleetRun()
    expected = _expected_records(spec.flows(fleet))
    run.attempted = sum(ops for _flow, ops, _bytes, _mailbox in expected.values())
    # A fleet leaves ~100 MB of cyclic garbage; collect it before timing
    # the next one so no fleet pays for its predecessor.
    gc.collect()
    started = time.perf_counter()
    with observe_fleet(mailbox for *_rest, mailbox in expected.values()) as seen:
        conductor = Conductor(
            fleet, spec, n_workers=workers, mode="inline", fault_plan=plan
        )
        try:
            outcome = conductor.run()
        except Exception as exc:
            outcome = None
            run.failures.append(f"fleet run aborted: {type(exc).__name__}: {exc}")
    finished = time.perf_counter()
    ready = seen["first_run"] if seen["first_run"] is not None else finished
    run.setup_s = ready - started
    run.run_s = finished - ready
    delivered = 0
    if outcome is None:
        run.failed = run.attempted
    else:
        if outcome.incomplete:
            run.failures.append(f"incomplete flows: {', '.join(outcome.incomplete)}")
        for name, (flow, ops, nbytes, mailbox) in expected.items():
            record = outcome.flows.get(name)
            if record is None or record["messages"] != ops or record["bytes"] != nbytes:
                run.failed += ops
                continue
            wrong = _wrong_bytes(flow, ops, mailbox, seen)
            if wrong:
                run.failures.append(f"{name}: {wrong}")
                run.failed += ops
                continue
            delivered += ops
            if name == probe:
                run.probe_call_ns = record["completed_ns"] / ops
                continue
            run.payload_bytes += nbytes
            run.completions_ns.append(record["completed_ns"])
            if flow.kind != "tcp":
                run.per_op_ns.append(record["completed_ns"] / ops)
        unexpected = sorted(set(outcome.flows) - set(expected))
        if unexpected:
            run.failures.append(f"unexpected flow records: {', '.join(unexpected)}")
        _check_drained(run, seen["systems"])
    run.counts = layer_counts(seen["systems"], delivered, run.payload_bytes)
    for name in ("barriers", "handoffs", "ring_bytes", "pickle_bytes"):
        run.counts[f"cluster.{name}"] = getattr(outcome, name, 0)
    return run


WORKLOADS = {
    cls.name: cls for cls in (RpcOpen, Stream8k, FleetLossy, RpcObserved)
}
