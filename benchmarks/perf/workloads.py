"""The four workloads, one *unit* at a time.

A unit is one request for a scored topology, built from scratch: set-up
(build + prefill + attach, or service start), then the timed region (first
preprocess/snapshot call -> scored result; for ``service_jobs`` first
submit -> last job done). A run repeats units with seeds derived from
``--seed`` and reports medians over them, so one run averages over several
generated networks.

Every input is derived from the seed through sorted structures only
(``PYTHONHASHSEED`` must not leak into the simulated world), and handed to
the program as plain specs. Layers are driven through public functions;
span boundaries are the ``tracer.span(...)`` blocks below — with the
untraced ``NULL_TRACER`` they are no-ops.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import parallel_exec
from repro.core.campaign import TopoShot
from repro.core.monitor import TopologyMonitor, rewire_random_links
from repro.core.parallel_exec import CampaignReplica, CampaignSpec, ShardSpec
from repro.core.results import NetworkMeasurement
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import NetworkSpec, generate_network, ropsten_like
from repro.netgen.workloads import SHAPES, BatchedWorkload, prefill_mempools
from repro.service import (
    MeasurementService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    TenantQuota,
)
from repro.sim.faults import FaultPlan, RpcFaultPlan

from benchmarks.perf.trace import NULL_TRACER

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Sizes were fitted to the driver's budget (4 + 22 x 4 runs inside 3420 s,
# so ~25 s a run): several few-second units per run instead of the issue's
# single 30 s campaign. ``unit_s`` is the measured wall of one unit on the
# 2-core reference box; a run does ``round(seconds / unit_s)`` units, which
# keeps the work — and with it every count-valued metric — a function of
# (seed, seconds) alone.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "testnet_full": {
        "full": {"unit_s": 2.1, "nodes": 32, "targets": 24},
        "smoke": {"unit_s": 1.0, "nodes": 16, "targets": 12},
    },
    "mainnet_subset": {
        "full": {"unit_s": 2.3, "nodes": 512, "propagate_txs": 12, "targets": 6},
        "smoke": {"unit_s": 1.5, "nodes": 192, "propagate_txs": 6, "targets": 5},
    },
    "monitor_churn_rpc": {
        "full": {
            "unit_s": 2.7, "nodes": 64, "targets": 16, "rounds": 2,
            "load_window": 10.0, "load_rate": 50_000.0,
        },
        "smoke": {
            "unit_s": 1.5, "nodes": 40, "targets": 10, "rounds": 1,
            "load_window": 5.0, "load_rate": 20_000.0,
        },
    },
    "service_jobs": {
        "full": {
            "unit_s": 2.9, "clients": 2, "jobs_per_client": 7,
            "job_nodes": (10, 12, 14, 16), "replays": 3,
        },
        "smoke": {
            "unit_s": 2.0, "clients": 2, "jobs_per_client": 3,
            "job_nodes": (8, 10), "replays": 1,
        },
    },
}


def derive_seed(*parts: object) -> int:
    """A 31-bit seed from ``parts``, independent of ``PYTHONHASHSEED``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def sorted_edges(edges) -> List[Tuple[str, str]]:
    return sorted(tuple(sorted(e)) for e in edges)


def fingerprint(*parts: object) -> str:
    """sha256 over the simulated outcome (events, messages, txs, edges)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass
class UnitResult:
    """What one unit measured; times in seconds, everything else counts."""

    setup_s: float
    topology_s: float
    pairs: int  # pairs probed in the timed region
    txs: int  # measurement transactions the API reported ...
    txs_pairs: int  # ... and the pairs they were spent on
    tp: int
    fp: int
    fn: int
    attempted: int  # pairs (campaign workloads) or jobs (service_jobs)
    hard_failures: int  # produced no answer: iteration errors, timeouts, non-done jobs
    soft_failures: int  # answered, but degraded: setup failures, degraded probes
    events: int  # engine events in the phase events_per_s is taken over
    events_wall_s: float
    job_latencies_s: List[float]
    jobs_wall_s: float  # closed-loop wall the jobs above were completed in
    fingerprint: str
    mismatches: int = 0  # service results that differ from the library's
    # Layer counters read from public state after the unit (traced run).
    counts: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    profiler: Dict[str, Dict[str, float]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _hard_failures(measurement: NetworkMeasurement) -> int:
    return measurement.send_timeouts + sum(
        1 for f in measurement.failures if f.kind != "rpc_degraded"
    )


def _degraded_iterations(measurement: NetworkMeasurement) -> int:
    """Iterations with probes answered over a degraded RPC plane."""
    return sum(1 for f in measurement.failures if f.kind == "rpc_degraded")


def _campaign(
    shot: TopoShot, candidates: Sequence[str], n_targets: int, tracer
) -> NetworkMeasurement:
    """Preprocess, then the full hardened campaign over a fixed-size target
    list (a fixed problem size keeps run-to-run spread about the code, not
    about how many candidates a seed's preprocessing happened to reject)."""
    with tracer.span("core.preprocess.preprocess"):
        report = shot.preprocess(candidates)
    targets = report.accepted[:n_targets]
    with tracer.span("core.campaign.measure_network"):
        progress, close = _iteration_spans(tracer)
        try:
            measurement = shot.measure_network(
                targets=targets, preprocess=False, progress=progress
            )
        finally:
            close()
    measurement.skipped_nodes = list(report.rejected)
    return measurement


def _iteration_spans(tracer) -> Tuple[Optional[Callable], Callable[[], None]]:
    """Schedule-iteration spans from the public ``progress=`` callback.

    The callback fires when an iteration's probes are in, so iteration
    ``i+1``'s span starts there and owns the pool refresh that precedes its
    probes; after the last one the remainder of ``measure_network`` is the
    harden + validate tail.
    """
    if tracer is NULL_TRACER:
        return None, lambda: None
    current = [tracer.begin("core.parallel.iteration")]

    def progress(index: int, total: int, _iteration, _report) -> None:
        tracer.end(current[0])
        last = index + 1 >= total
        current[0] = tracer.begin(
            "core.campaign.harden_validate" if last else "core.parallel.iteration"
        )

    return progress, lambda: tracer.end(current[0])


def _pool_stats(network: Network) -> Dict[str, float]:
    """Admission outcomes summed over every pool's public ``stats``."""
    total: Dict[str, int] = {}
    for node_id in network.node_ids:
        for key, value in network.node(node_id).mempool.stats.items():
            total[key] = total.get(key, 0) + value
    admitted = total.get("admitted_pending", 0) + total.get("admitted_future", 0)
    rejected = sum(v for k, v in total.items() if k.startswith("rejected_"))
    return {
        "pool_admitted": admitted,
        "pool_replaced": total.get("replaced", 0),
        "pool_evicted": total.get("evictions", 0),
        "pool_rejected": rejected,
    }


_CUMULATIVE = (
    "messages", "dropped", "events",
    "pool_admitted", "pool_replaced", "pool_evicted", "pool_rejected",
)


def _built(network: Network) -> Tuple[int, int]:
    """(nodes, links) of a freshly generated overlay, before a supernode joins."""
    return len(network), network.link_count


def _network_counts(network: Network, built: Tuple[int, int]) -> Dict[str, float]:
    counts = {
        "nodes": built[0],
        "edges": built[1],
        "messages": network.messages_sent,
        "dropped": network.messages_dropped,
        "events": network.sim.executed_events,
    }
    counts.update(_pool_stats(network))
    return counts


def _campaign_counts(measurement: NetworkMeasurement) -> Dict[str, float]:
    n = len(measurement.node_ids)
    return {
        "accepted": n,
        "rejected": len(measurement.skipped_nodes),
        "iterations": measurement.iterations,
        "pairs": n * (n - 1) // 2,
        "measured_edges": len(measurement.edges),
        "quarantined": len(measurement.quarantined),
    }


def _attach_profiler(network: Network, tracer):
    return None if tracer is NULL_TRACER else network.sim.attach_profiler()


def _profile(profiler) -> Dict[str, Dict[str, float]]:
    return {} if profiler is None else profiler.as_dict()


def _campaign_result(
    network: Network,
    measurement: NetworkMeasurement,
    setup_s: float,
    topology_s: float,
    events: int,
    events_wall_s: float,
    counts: Dict[str, float],
    profiler,
) -> UnitResult:
    """The unit record of a workload that ends in one full campaign."""
    score = measurement.score
    counts.update(_campaign_counts(measurement))
    pairs = int(counts["pairs"])
    return UnitResult(
        setup_s=setup_s,
        topology_s=topology_s,
        pairs=pairs,
        txs=measurement.transactions_sent,
        txs_pairs=pairs,
        tp=score.true_positives,
        fp=score.false_positives,
        fn=score.false_negatives,
        attempted=pairs,
        hard_failures=_hard_failures(measurement),
        soft_failures=measurement.setup_failures + _degraded_iterations(measurement),
        events=events,
        events_wall_s=events_wall_s,
        job_latencies_s=[setup_s + topology_s],
        jobs_wall_s=setup_s + topology_s,
        fingerprint=fingerprint(
            network.sim.executed_events,
            network.messages_sent,
            measurement.transactions_sent,
            sorted_edges(measurement.edges),
        ),
        counts=counts,
        profiler=_profile(profiler),
    )


# ----------------------------------------------------------------------
# testnet_full
# ----------------------------------------------------------------------
def testnet_full(seed: int, size: Dict[str, object], tracer=NULL_TRACER) -> UnitResult:
    start = perf_counter()
    with tracer.span("netgen.ethereum.build"):
        network = generate_network(ropsten_like(seed=seed, n_nodes=size["nodes"]))
    built = _built(network)
    profiler = _attach_profiler(network, tracer)
    with tracer.span("netgen.workloads.prefill"):
        prefilled = prefill_mempools(network)
    with tracer.span("eth.supernode.join"):
        shot = TopoShot.attach(network)
    setup_s = perf_counter() - start

    events_before = network.sim.executed_events
    start = perf_counter()
    measurement = _campaign(
        shot, network.measurable_node_ids(), size["targets"], tracer
    )
    topology_s = perf_counter() - start

    counts = _network_counts(network, built)
    counts["prefill_txs"] = len(prefilled)
    return _campaign_result(
        network,
        measurement,
        setup_s,
        topology_s,
        events=network.sim.executed_events - events_before,
        events_wall_s=topology_s,
        counts=counts,
        profiler=profiler,
    )


# ----------------------------------------------------------------------
# mainnet_subset
# ----------------------------------------------------------------------
def bfs_ball(network: Network, start: str, size: int) -> List[str]:
    """The first ``size`` nodes of a BFS from ``start`` over *sorted*
    neighbour lists. ``ground_truth_edges()`` is a set of frozensets:
    walking it unsorted makes the target list — and with it every engine
    event count — depend on ``PYTHONHASHSEED``."""
    neighbours: Dict[str, List[str]] = {}
    for a, b in sorted_edges(network.ground_truth_edges()):
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    ball = [start]
    seen = {start}
    cursor = 0
    while cursor < len(ball) and len(ball) < size:
        for peer in sorted(neighbours.get(ball[cursor], ())):
            if peer not in seen and len(ball) < size:
                seen.add(peer)
                ball.append(peer)
        cursor += 1
    return ball


def mainnet_subset(seed: int, size: Dict[str, object], tracer=NULL_TRACER) -> UnitResult:
    rng = random.Random(seed)
    start = perf_counter()
    with tracer.span("netgen.ethereum.build"):
        network = generate_network(
            NetworkSpec(
                n_nodes=size["nodes"],
                seed=seed,
                name="mainnet",
                outbound_dials=6,
                max_peers=25,
                routing_table_capacity=64,
                wiring="fast",
            )
        )
    build_s = perf_counter() - start
    built = _built(network)
    profiler = _attach_profiler(network, tracer)

    # Propagate phase: a fixed number of transactions flooded through empty
    # pools — the ROADMAP's events/s yardstick, free of mempool pressure.
    node_ids = network.node_ids
    wallet = Wallet("propagate")
    factory = TransactionFactory()
    submissions = [
        (
            node_ids[rng.randrange(len(node_ids))],
            factory.transfer(
                wallet.fresh_account(prefix="prop"), gas_price=gwei(1.0) + index
            ),
        )
        for index in range(size["propagate_txs"])
    ]
    events_before = network.sim.executed_events
    start = perf_counter()
    with tracer.span("eth.node.propagate"):
        for node_id, tx in submissions:
            network.node(node_id).submit_transaction(tx)
        network.settle()
    propagate_s = perf_counter() - start
    propagate_events = network.sim.executed_events - events_before

    ball = bfs_ball(network, node_ids[rng.randrange(len(node_ids))], size["targets"])
    start = perf_counter()
    with tracer.span("netgen.workloads.prefill"):
        prefilled = prefill_mempools(network)
    with tracer.span("eth.supernode.join"):
        shot = TopoShot.attach(network, targets=ball)
    setup_s = build_s + (perf_counter() - start)

    start = perf_counter()
    measurement = _campaign(shot, ball, len(ball), tracer)
    topology_s = perf_counter() - start

    counts = _network_counts(network, built)
    counts["prefill_txs"] = len(prefilled)
    counts["propagate_events"] = propagate_events
    counts["propagate_node_txs"] = len(node_ids) * len(submissions)
    return _campaign_result(
        network,
        measurement,
        setup_s,
        topology_s,
        events=propagate_events,
        events_wall_s=propagate_s,
        counts=counts,
        profiler=profiler,
    )


# ----------------------------------------------------------------------
# monitor_churn_rpc
# ----------------------------------------------------------------------
def monitor_churn_rpc(
    seed: int, size: Dict[str, object], tracer=NULL_TRACER
) -> UnitResult:
    start = perf_counter()
    with tracer.span("netgen.ethereum.build"):
        network = generate_network(
            NetworkSpec(
                n_nodes=size["nodes"], seed=seed, outbound_dials=4, mempool_capacity=160
            )
        )
    built = _built(network)
    profiler = _attach_profiler(network, tracer)
    network.install_fee_market()
    network.install_faults(FaultPlan(rpc=RpcFaultPlan.uniform(0.2)))
    with tracer.span("netgen.workloads.prefill"):
        prefilled = prefill_mempools(network)
    with tracer.span("eth.supernode.join"):
        shot = TopoShot.attach(network)
    shot.config = shot.config.with_repeats(2)
    workload = BatchedWorkload(
        network, SHAPES["nft-mint-storm"](rate_per_second=size["load_rate"])
    )
    monitor = TopologyMonitor(shot)
    setup_s = perf_counter() - start

    targets = list(network.measurable_node_ids())[: size["targets"]]
    target_set = set(targets)
    events_before = network.sim.executed_events
    start = perf_counter()
    with tracer.span("core.monitor.snapshot"):
        progress, close = _iteration_spans(tracer)
        try:
            base = monitor.take_snapshot(
                targets=targets, preprocess=False, progress=progress
            )
        finally:
            close()
    for _ in range(size["rounds"]):
        with tracer.span("netgen.workloads.load"):
            workload.start()
            network.sim.run(until=network.sim.now + size["load_window"])
            workload.stop()
        with tracer.span("core.monitor.restore_ambient"):
            shot.restore_ambient()
        removed, added = rewire_random_links(network, 0.02)
        for node_id in sorted({n for e in removed | added for n in e}):
            monitor.note_churn_hint(node_id)
        with tracer.span("core.monitor.delta_round"):
            monitor.delta_round()
    topology_s = perf_counter() - start

    truth = {e for e in network.ground_truth_edges() if set(e) <= target_set}
    tracked = monitor.current_edges
    savings = monitor.probe_savings
    base_m = base.measurement
    base_pairs = len(targets) * (len(targets) - 1) // 2
    pairs = base_pairs + savings["probed_pairs"]
    rpc = network.rpc_client().counters()
    counts = _network_counts(network, built)
    counts.update(_campaign_counts(base_m))
    counts.update(
        prefill_txs=len(prefilled),
        probed_pairs=savings["probed_pairs"],
        universe_pairs=savings["universe_pairs"],
        offered=workload.stats["offered"],
        load_admitted=workload.stats["admitted"],
        load_attempts=workload.stats["materialized"] * workload.fanout,
    )
    counts.update({f"rpc_{key}": value for key, value in rpc.items()})
    return UnitResult(
        setup_s=setup_s,
        topology_s=topology_s,
        pairs=pairs,
        # measure_pairs (delta rounds) reports no transaction count, so the
        # cost axis is taken over the base snapshot, where the API has one.
        txs=base_m.transactions_sent,
        txs_pairs=base_pairs,
        tp=len(tracked & truth),
        fp=len(tracked - truth),
        fn=len(truth - tracked),
        attempted=pairs,
        hard_failures=_hard_failures(base_m),
        soft_failures=base_m.setup_failures + rpc["degraded_lookups"],
        events=network.sim.executed_events - events_before,
        events_wall_s=topology_s,
        job_latencies_s=[setup_s + topology_s],
        jobs_wall_s=setup_s + topology_s,
        fingerprint=fingerprint(
            network.sim.executed_events,
            network.messages_sent,
            base_m.transactions_sent,
            sorted_edges(tracked),
        ),
        counts=counts,
        profiler=_profile(profiler),
    )


# ----------------------------------------------------------------------
# service_jobs
# ----------------------------------------------------------------------
class ServiceThread:
    """A :class:`MeasurementService` on its own event loop in a thread,
    using only the public ``start()`` / ``shutdown()``."""

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.service: Optional[MeasurementService] = None
        self._thread = threading.Thread(
            target=self._run, name="service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error is not None:
            raise RuntimeError(f"service thread failed to start: {self._error}")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __init__/stop, then re-raised
            self._error = exc
            self._ready.set()
            raise

    async def _main(self) -> None:
        self.service = MeasurementService(self._config)
        await self.service.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.shutdown()

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop within 60 s")


def _service_config(state_dir: Path) -> ServiceConfig:
    # Quotas far above the offered load: the workload measures scheduling
    # and execution, not admission control (no submission may be refused).
    quota = TenantQuota(
        jobs_per_second=1000.0, job_burst=1000.0,
        node_seconds_per_second=1e6, node_seconds_burst=1e6, max_queued=1000,
    )
    return ServiceConfig(
        state_dir=state_dir,
        max_concurrent=2,
        max_running_per_tenant=2,
        default_quota=quota,
        global_jobs_per_second=5000.0,
        global_job_burst=5000.0,
        max_queued_total=5000,
        journal_fsync=False,
    )


def _job_spec(n_nodes: int, seed: int) -> CampaignSpec:
    return CampaignSpec(network=NetworkSpec(n_nodes=n_nodes, seed=seed), n_shards=4)


def _replay(spec: CampaignSpec, tracer) -> Dict[str, object]:
    """Run one job's campaign directly on a :class:`CampaignReplica`.

    The service promises the library's result bit for bit, so this is the
    workload's correctness oracle; it is also the only place the engine
    under a job-sized world can be observed from outside (events, wall).
    """
    replica = CampaignReplica(spec)
    network = replica.network
    built = _built(network)
    profiler = _attach_profiler(network, tracer)
    # Every shard starts from the post-setup snapshot — event, message and
    # pool counters included — so totals are set-up + per-shard deltas.
    base = _network_counts(network, built)
    counts = dict(base)
    plan = parallel_exec.build_shard_plan(len(replica.schedule), spec.n_shards)
    edges = set()
    events = 0
    wall = 0.0
    for index, (lo, hi) in enumerate(plan):
        shard = ShardSpec(
            campaign=spec, index=index, n_shards=len(plan), start=lo, stop=hi
        )
        start = perf_counter()
        result = replica.run_shard(shard)
        wall += perf_counter() - start
        after = _network_counts(network, built)
        for key in _CUMULATIVE:
            counts[key] += after[key] - base[key]
        events += after["events"] - base["events"]
        edges |= result.edges
    return {
        "edges": [list(pair) for pair in sorted_edges(edges)],
        "events": events,
        "wall_s": wall,
        "counts": counts,
        "profiler": _profile(profiler),
    }


def _client_loop(
    state_dir: Path, seed: int, client_index: int, size: Dict[str, object], tracer
) -> List[Dict[str, object]]:
    """One closed-loop client: submit, wait for the result, repeat."""
    client = ServiceClient.from_state_dir(state_dir)
    sizes = size["job_nodes"]
    done: List[Dict[str, object]] = []
    for index in range(size["jobs_per_client"]):
        spec = _job_spec(
            sizes[(client_index + index) % len(sizes)],
            derive_seed(seed, "job", client_index, index),
        )
        entry: Dict[str, object] = {"spec": spec, "record": None}
        start = perf_counter()
        with tracer.span("service.client.job"):
            try:
                job = client.submit(
                    tenant=f"client-{client_index}",
                    kind="measure",
                    params={"campaign": spec.to_dict(), "workers": 1},
                )
            except ServiceClientError:
                done.append(entry)  # refused: counts as a failed job
                continue
            entry["submit_rtt_s"] = perf_counter() - start
            entry["record"] = client.wait(
                job["spec"]["job_id"], timeout=120.0, poll=0.02
            )
        entry["latency_s"] = perf_counter() - start
        done.append(entry)
    return done


def service_jobs(seed: int, size: Dict[str, object], tracer=NULL_TRACER) -> UnitResult:
    from concurrent.futures import ThreadPoolExecutor

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    state_dir = Path(tempfile.mkdtemp(prefix="service-state-", dir=RESULTS_DIR))
    try:
        start = perf_counter()
        with tracer.span("service.server.start"):
            harness = ServiceThread(_service_config(state_dir))
        try:
            # One warm-up job finishes the lazy imports and first-use caches
            # a long-lived service has long since paid for.
            with tracer.span("service.server.warmup"):
                client = ServiceClient.from_state_dir(state_dir)
                spec = _job_spec(size["job_nodes"][0], derive_seed(seed, "warmup"))
                warm = client.submit(
                    tenant="warmup", kind="measure",
                    params={"campaign": spec.to_dict(), "workers": 1},
                )
                client.wait(warm["spec"]["job_id"], timeout=120.0, poll=0.02)
            setup_s = perf_counter() - start

            n_clients = size["clients"]
            start = perf_counter()
            with tracer.span("service.client.closed_loop"):
                with ThreadPoolExecutor(
                    max_workers=n_clients, thread_name_prefix="client"
                ) as pool:
                    futures = [
                        pool.submit(_client_loop, state_dir, seed, index, size, tracer)
                        for index in range(n_clients)
                    ]
                    per_client = [future.result() for future in futures]
            topology_s = perf_counter() - start
            journal_appends = harness.service.journal.appends_total
        finally:
            harness.stop()
        journal_bytes = (state_dir / "journal.jsonl").stat().st_size
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    entries = [entry for client_entries in per_client for entry in client_entries]
    finished = [e for e in entries if e["record"] and e["record"]["state"] == "done"]
    tp = fp = fn = pairs = txs = soft = 0
    outcome = []
    for entry in finished:
        m = entry["record"]["result"]["measurement"]
        n = len(m["node_ids"])
        pairs += n * (n - 1) // 2
        txs += m["transactions_sent"]
        tp += m["score"]["true_positives"]
        fp += m["score"]["false_positives"]
        fn += m["score"]["false_negatives"]
        soft += m["setup_failures"]
        outcome.append((m["transactions_sent"], m["edges"]))

    # Oracle + engine yardstick: replay the first job of each size directly.
    with tracer.span("core.parallel_exec.replays"):
        replays = [
            _replay(entry["spec"], tracer) for entry in per_client[0][: size["replays"]]
        ]
    mismatches = sum(
        1
        for entry, replay in zip(per_client[0], replays)
        if not entry["record"]
        or entry["record"]["state"] != "done"
        or entry["record"]["result"]["measurement"]["edges"] != replay["edges"]
    )

    counts: Dict[str, float] = {}
    profile: Dict[str, Dict[str, float]] = {}
    for replay in replays:
        for key, value in replay["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for category, row in replay["profiler"].items():
            merged = profile.setdefault(category, {"seconds": 0.0, "events": 0})
            merged["seconds"] += row["seconds"]
            merged["events"] += row["events"]
    counts.update(
        iterations=sum(
            e["record"]["result"]["measurement"]["iterations"] for e in finished
        ),
        pairs=pairs,
        measured_edges=sum(
            len(e["record"]["result"]["measurement"]["edges"]) for e in finished
        ),
        jobs_rejected=sum(1 for e in entries if e["record"] is None),
        journal_appends=journal_appends,
        journal_bytes=journal_bytes,
    )
    records = [e["record"] for e in finished]
    return UnitResult(
        setup_s=setup_s,
        topology_s=topology_s,
        pairs=pairs,
        txs=txs,
        txs_pairs=pairs,
        tp=tp,
        fp=fp,
        fn=fn,
        attempted=len(entries),
        hard_failures=len(entries) - len(finished),
        soft_failures=soft,
        events=sum(r["events"] for r in replays),
        events_wall_s=sum(r["wall_s"] for r in replays),
        job_latencies_s=[e["latency_s"] for e in finished],
        jobs_wall_s=topology_s,
        fingerprint=fingerprint(
            sum(r["events"] for r in replays),
            sum(r["counts"]["messages"] for r in replays),
            txs,
            outcome,
        ),
        mismatches=mismatches,
        counts=counts,
        samples={
            "submit_rtt_s": [e["submit_rtt_s"] for e in finished],
            "queue_wait_s": [r["started_at"] - r["submitted_at"] for r in records],
            "run_s": [r["finished_at"] - r["started_at"] for r in records],
            "overhead_s": [
                e["latency_s"] - (e["record"]["finished_at"] - e["record"]["started_at"])
                for e in finished
            ],
        },
        profiler=profile,
    )


UNITS: Dict[str, Callable[..., UnitResult]] = {
    "testnet_full": testnet_full,
    "mainnet_subset": mainnet_subset,
    "monitor_churn_rpc": monitor_churn_rpc,
    "service_jobs": service_jobs,
}
