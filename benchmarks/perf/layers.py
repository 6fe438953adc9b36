"""The traced run: which public functions get wrapped, and how spans and
counters turn into the ``<module>.<metric>`` per-layer numbers.

Wrappers are installed and removed by the benchmark (:func:`install`);
nothing under ``src/`` is edited. A layer a workload does not exercise
reports 0.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

import repro.eth.network as eth_network
import repro.io as repro_io
import repro.netgen.workloads as netgen_workloads
from repro.core import parallel_exec
from repro.core.campaign import TopoShot
from repro.eth.account import Wallet
from repro.eth.fee_market import FeeMarket
from repro.eth.mempool import Mempool
from repro.eth.network import Network
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY
from repro.eth.rpc import ResilientRpcClient
from repro.eth.supernode import Supernode
from repro.eth.transaction import Transaction, TransactionFactory, gwei
from repro.sim.engine import Simulator

from benchmarks.perf.metrics import ENGINE_CATEGORIES, PER_LAYER_UNITS
from benchmarks.perf.trace import Tracer
from benchmarks.perf.workloads import UnitResult

_MESSAGE_CATEGORIES = ENGINE_CATEGORIES[:4]


def install(tracer: Tracer) -> None:
    """Wrap the hot calls (aggregated) and the cold calls the unit code
    cannot bracket itself (they happen inside the program)."""
    hot = tracer.wrap_hot
    hot(Simulator, "run", "sim.engine.run")
    hot(Network, "send_batch", "eth.network.send_batch")
    hot(Mempool, "add", "eth.mempool.add")
    hot(Mempool, "add_batch", "eth.mempool.add_batch", units=lambda a: len(a[1]))
    for method in ("refresh", "floor_for", "quote_for"):
        hot(FeeMarket, method, "eth.fee_market.refresh")
    hot(
        Supernode, "send_transactions", "eth.supernode.send",
        units=lambda a: len(a[2]),
    )
    hot(eth_network, "capture_simulator", "sim.snapshot.capture")
    hot(eth_network, "restore_simulator", "sim.snapshot.restore")
    hot(repro_io, "measurement_to_dict", "io.measurement_to_dict")
    spanned = tracer.wrap_span
    # campaign.py / supervisor.py import these at call time, so patching
    # the defining module reaches them.
    spanned(netgen_workloads, "refresh_mempools", "netgen.workloads.refresh")
    spanned(ResilientRpcClient, "call", "eth.rpc.call")
    spanned(parallel_exec, "run_campaign", "core.parallel_exec.run_campaign")
    spanned(parallel_exec, "generate_network", "netgen.ethereum.build")
    spanned(
        parallel_exec.CampaignReplica, "__init__", "core.parallel_exec.replica_build"
    )
    spanned(parallel_exec.CampaignReplica, "run_shard", "core.parallel_exec.shard_run")
    spanned(TopoShot, "restore_state", "core.parallel_exec.reset")


def _p50(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer,
    tid: int,
    unit: UnitResult,
    micro: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit, by name.

    Times come from thread ``tid`` (the unit's own), where the counters in
    ``unit.counts`` were read too; only ``service_jobs`` has other threads —
    its jobs run inside the service, so their ``core.parallel_exec`` /
    ``sim.snapshot`` / ``io`` calls are folded in from every thread while
    the world layers (``sim.engine``, ``eth.*``, ``netgen.*``) describe the
    direct replica drive.
    """
    own = tracer.totals(tid)
    everywhere = tracer.totals()
    counts = unit.counts

    def row(name: str) -> Dict[str, float]:
        shared = name.startswith(("core.parallel_exec.", "sim.snapshot.", "io."))
        return (everywhere if shared else own).get(name, {})

    def busy(name: str) -> float:
        return row(name).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return row(name).get("count", 0)

    def work(name: str) -> float:
        return row(name).get("units", 0)

    def self_s(name: str) -> float:
        return row(name).get("self_s", 0.0)

    def count(key: str) -> float:
        return counts.get(key, 0)

    cat_s = {c: 0.0 for c in ENGINE_CATEGORIES}
    cat_events = {c: 0 for c in ENGINE_CATEGORIES}
    for category, cell in unit.profiler.items():
        bucket = category if category in cat_s else "other"
        cat_s[bucket] += cell["seconds"]
        cat_events[bucket] += cell["events"]
    message_s = sum(cat_s[c] for c in _MESSAGE_CATEGORIES)

    offers = sum(
        count(k) for k in ("pool_admitted", "pool_replaced", "pool_rejected")
    )
    iterations = tracer.durations("core.parallel.iteration")
    out: Dict[str, float] = {
        "netgen.ethereum.build_s": busy("netgen.ethereum.build"),
        "netgen.ethereum.nodes": count("nodes"),
        "netgen.ethereum.edges": count("edges"),
        "netgen.ethereum.us_per_edge": _ratio(
            busy("netgen.ethereum.build") * 1e6, count("edges")
        ),
        "netgen.workloads.prefill_s": busy("netgen.workloads.prefill"),
        "netgen.workloads.prefill_txs": count("prefill_txs"),
        "netgen.workloads.refresh_s": busy("netgen.workloads.refresh"),
        "netgen.workloads.refresh_calls": calls("netgen.workloads.refresh"),
        "netgen.workloads.load_s": busy("netgen.workloads.load"),
        "netgen.workloads.offered": count("offered"),
        "netgen.workloads.admitted": count("load_admitted"),
        "netgen.workloads.admit_ratio": _ratio(
            count("load_admitted"), count("load_attempts")
        ),
        "sim.engine.run_s": busy("sim.engine.run"),
        "sim.engine.events": count("events"),
        "sim.engine.us_per_event": _ratio(busy("sim.engine.run") * 1e6, count("events")),
        "eth.network.send_batch_s": busy("eth.network.send_batch"),
        "eth.network.messages": count("messages"),
        "eth.network.dropped": count("dropped"),
        # Handler time net of the admission it triggers; flush time net of
        # the transport hand-off (derived: the profiler sees whole callbacks).
        "eth.node.gossip_s": max(
            0.0,
            message_s - tracer.busy_inside("eth.mempool.add", "sim.engine.run", tid),
        ),
        "eth.node.flush_s": max(0.0, cat_s["flush"] - busy("eth.network.send_batch")),
        "eth.node.events_per_node_tx": _ratio(
            count("propagate_events"), count("propagate_node_txs")
        ),
        "eth.mempool.add_s": busy("eth.mempool.add"),
        "eth.mempool.add_calls": calls("eth.mempool.add"),
        "eth.mempool.us_per_add": _ratio(
            busy("eth.mempool.add") * 1e6, calls("eth.mempool.add")
        ),
        "eth.mempool.add_batch_s": busy("eth.mempool.add_batch"),
        "eth.mempool.add_batch_txs": work("eth.mempool.add_batch"),
        "eth.mempool.admitted": count("pool_admitted"),
        "eth.mempool.replaced": count("pool_replaced"),
        "eth.mempool.evicted": count("pool_evicted"),
        "eth.mempool.rejected": count("pool_rejected"),
        "eth.mempool.admit_ratio": _ratio(
            count("pool_admitted") + count("pool_replaced"), offers
        ),
        "eth.fee_market.refresh_calls": calls("eth.fee_market.refresh"),
        "eth.fee_market.refresh_s": busy("eth.fee_market.refresh"),
        "eth.supernode.send_s": busy("eth.supernode.send"),
        "eth.supernode.sent_txs": work("eth.supernode.send"),
        "eth.rpc.call_s": busy("eth.rpc.call"),
        "eth.rpc.calls": count("rpc_calls"),
        "eth.rpc.attempts": count("rpc_attempts"),
        "eth.rpc.retries": count("rpc_retries"),
        "eth.rpc.hedges": count("rpc_hedges"),
        "eth.rpc.exhausted": count("rpc_exhausted"),
        "eth.rpc.degraded_lookups": count("rpc_degraded_lookups"),
        "eth.rpc.useful_ratio": _ratio(count("rpc_calls"), count("rpc_attempts")),
        "core.preprocess.preprocess_s": busy("core.preprocess.preprocess"),
        "core.preprocess.accepted": count("accepted"),
        "core.preprocess.rejected": count("rejected"),
        "core.schedule.iterations": count("iterations"),
        "core.schedule.pairs": count("pairs"),
        "core.parallel.iteration_s_p50": _p50(iterations),
        "core.parallel.iteration_s_total": sum(iterations),
        "core.parallel.self_s": self_s("core.parallel.iteration"),
        "core.campaign.harden_validate_s": busy("core.campaign.harden_validate"),
        "core.campaign.edges": count("measured_edges"),
        "core.campaign.quarantined": count("quarantined"),
        "core.monitor.snapshot_s": busy("core.monitor.snapshot"),
        "core.monitor.delta_round_s_p50": _p50(
            tracer.durations("core.monitor.delta_round")
        ),
        "core.monitor.restore_ambient_s": busy("core.monitor.restore_ambient"),
        "core.monitor.probed_pairs": count("probed_pairs"),
        "core.monitor.universe_pairs": count("universe_pairs"),
        "core.monitor.probe_ratio": _ratio(
            count("universe_pairs"), count("probed_pairs")
        ),
        "core.parallel_exec.replica_build_s": busy("core.parallel_exec.replica_build"),
        "core.parallel_exec.shard_run_s": busy("core.parallel_exec.shard_run"),
        "core.parallel_exec.reset_s": busy("core.parallel_exec.reset"),
        "core.parallel_exec.merge_s": self_s("core.parallel_exec.run_campaign"),
        "core.parallel_exec.shards": calls("core.parallel_exec.shard_run"),
        "sim.snapshot.capture_s": busy("sim.snapshot.capture"),
        "sim.snapshot.restore_s": busy("sim.snapshot.restore"),
        "service.server.submit_rtt_s_p50": _p50(unit.samples.get("submit_rtt_s", ())),
        "service.server.queue_wait_s_p50": _p50(unit.samples.get("queue_wait_s", ())),
        "service.server.run_s_p50": _p50(unit.samples.get("run_s", ())),
        "service.server.overhead_s_p50": _p50(unit.samples.get("overhead_s", ())),
        "service.server.rejected": count("jobs_rejected"),
        "service.journal.appends": count("journal_appends"),
        "service.journal.bytes": count("journal_bytes"),
        "io.measurement_to_dict_s": busy("io.measurement_to_dict"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for category in ENGINE_CATEGORIES:
        out[f"sim.engine.cat_s.{category}"] = cat_s[category]
        out[f"sim.engine.cat_events.{category}"] = cat_events[category]
    out.update(micro)
    missing = set(PER_LAYER_UNITS) - set(out)
    extra = set(out) - set(PER_LAYER_UNITS)
    if missing or extra:
        raise RuntimeError(f"per-layer names drifted: {missing=} {extra=}")
    return out


# ----------------------------------------------------------------------
# Isolated mempool micro-drive
# ----------------------------------------------------------------------
_MICRO_CAPACITY = 512
_MICRO_PRESETS = (GETH, PARITY, NETHERMIND, BESU, ALETH)


def _pending_fill(rng: random.Random, wallet: Wallet, count: int) -> List[Transaction]:
    factory = TransactionFactory()
    return [
        factory.transfer(
            wallet.fresh_account(prefix="fill"),
            gas_price=gwei(1.0) + rng.randrange(gwei(1.0)),
        )
        for _ in range(count)
    ]


def mempool_micro(seed: int, rounds: int) -> Dict[str, float]:
    """Admission throughput on a bare :class:`Mempool`, per client preset,
    away from engine and gossip: a future-tx flood into a full pool (the
    ``testnet_full`` pattern), an ``add_batch`` refill (the refresh
    pattern) and same-sender/nonce price bumps (the replacement race).

    Streams are generated from ``seed`` before the clock starts; each is
    ``rounds`` x ``_MICRO_CAPACITY`` transactions per preset.
    """
    rng = random.Random(seed)
    factory = TransactionFactory()
    spent = {"flood": 0.0, "batch": 0.0, "replace": 0.0}
    offered = {"flood": 0, "batch": 0, "replace": 0}
    for preset in _MICRO_PRESETS:
        policy = preset.scaled(_MICRO_CAPACITY)
        wallet = Wallet(f"micro-{preset.name}")
        per_account = policy.future_limit_per_account or _MICRO_CAPACITY
        for _ in range(rounds):
            fill = _pending_fill(rng, wallet, _MICRO_CAPACITY)
            flood = [
                factory.future(account, gas_price=gwei(3.0), index=index)
                for account in wallet.fresh_accounts(
                    -(-_MICRO_CAPACITY // per_account), prefix="flood"
                )
                for index in range(per_account)
            ][:_MICRO_CAPACITY]
            bumps = [
                factory.replacement(tx, policy.replace_bump + 0.01) for tx in fill
            ]

            pool = Mempool(policy=policy)
            start = perf_counter()
            pool.add_batch(fill)
            spent["batch"] += perf_counter() - start
            offered["batch"] += len(fill)

            start = perf_counter()
            for tx in bumps:
                pool.add(tx)
            spent["replace"] += perf_counter() - start
            offered["replace"] += len(bumps)

            start = perf_counter()
            for tx in flood:
                pool.add(tx)
            spent["flood"] += perf_counter() - start
            offered["flood"] += len(flood)
    return {
        f"eth.mempool.micro_{kind}_adds_per_s": _ratio(offered[kind], spent[kind])
        for kind in spent
    }
