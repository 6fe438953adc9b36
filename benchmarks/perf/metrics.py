"""Metric names, units, directions and regression bounds — the single
source for ``BENCHMARK.json`` (``run.py --print-manifest``), the README
glossary and the smoke test's schema check.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    (
        "testnet_full",
        "paper 6.2 campaign: all pairs among 24 targets of a dense 32-node Ropsten-like "
        "net; flood admission into full mempools and campaign logic do most of the work",
    ),
    (
        "mainnet_subset",
        "paper 6.3 shape: 6-node BFS ball inside a sparse 512-node overlay; engine, gossip, "
        "fast wiring and whole-network pool refresh dominate, flood admission is small",
    ),
    (
        "monitor_churn_rpc",
        "continuous monitor under a 50k tx/s mint storm, fee market and 20% RPC faults: "
        "add_batch admission, measure_pairs deltas, the only one where the RPC client retries",
    ),
    (
        "service_jobs",
        "100 tiny campaigns through the loopback job service from 2 closed-loop clients: "
        "replica build, snapshot restore, journal, scheduler, HTTP; bypasses long-campaign work",
    ),
]

# (name, unit, better, bound). ``bound`` is the share of the parent's median
# by which the metric may worsen. Wall-clock metrics carry the contract's
# maximum (25 %): three times their widest ten-seed spread is 18-23 %, and a
# 3-repeat self-check has disagreed by 18 % on ``service_jobs``. The others
# are three times their widest spread, rounded up — see README "Bounds".
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("time_to_topology_s", "s", "lower", 0.25),
    ("ms_per_pair", "ms", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("txs_per_pair", "count", "lower", 0.05),
    ("precision", "ratio", "higher", 0.05),
    ("recall", "ratio", "higher", 0.15),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_latency_p50_s", "s", "lower", 0.25),
]

#: Engine-profiler categories reported by name; everything else is ``other``.
ENGINE_CATEGORIES = (
    "Transactions",
    "NewPooledTransactionHashes",
    "PooledTransactions",
    "GetPooledTransactions",
    "flush",
    "other",
)

# (name, unit, better). A layer a workload does not exercise reports 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("netgen.ethereum.build_s", "s", "lower"),
    ("netgen.ethereum.nodes", "count", "higher"),
    ("netgen.ethereum.edges", "count", "higher"),
    ("netgen.ethereum.us_per_edge", "us", "lower"),
    ("netgen.workloads.prefill_s", "s", "lower"),
    ("netgen.workloads.prefill_txs", "count", "higher"),
    ("netgen.workloads.refresh_s", "s", "lower"),
    ("netgen.workloads.refresh_calls", "count", "lower"),
    ("netgen.workloads.load_s", "s", "lower"),
    ("netgen.workloads.offered", "count", "higher"),
    ("netgen.workloads.admitted", "count", "higher"),
    ("netgen.workloads.admit_ratio", "ratio", "higher"),
    ("sim.engine.run_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    *[(f"sim.engine.cat_s.{c}", "s", "lower") for c in ENGINE_CATEGORIES],
    *[(f"sim.engine.cat_events.{c}", "count", "lower") for c in ENGINE_CATEGORIES],
    ("eth.network.send_batch_s", "s", "lower"),
    ("eth.network.messages", "count", "lower"),
    ("eth.network.dropped", "count", "lower"),
    ("eth.node.gossip_s", "s", "lower"),
    ("eth.node.flush_s", "s", "lower"),
    ("eth.node.events_per_node_tx", "ratio", "lower"),
    ("eth.mempool.add_s", "s", "lower"),
    ("eth.mempool.add_calls", "count", "lower"),
    ("eth.mempool.us_per_add", "us", "lower"),
    ("eth.mempool.add_batch_s", "s", "lower"),
    ("eth.mempool.add_batch_txs", "count", "lower"),
    ("eth.mempool.admitted", "count", "higher"),
    ("eth.mempool.replaced", "count", "higher"),
    ("eth.mempool.evicted", "count", "lower"),
    ("eth.mempool.rejected", "count", "lower"),
    ("eth.mempool.admit_ratio", "ratio", "higher"),
    ("eth.mempool.micro_flood_adds_per_s", "1/s", "higher"),
    ("eth.mempool.micro_batch_adds_per_s", "1/s", "higher"),
    ("eth.mempool.micro_replace_adds_per_s", "1/s", "higher"),
    ("eth.fee_market.refresh_calls", "count", "lower"),
    ("eth.fee_market.refresh_s", "s", "lower"),
    ("eth.supernode.send_s", "s", "lower"),
    ("eth.supernode.sent_txs", "count", "lower"),
    ("eth.rpc.call_s", "s", "lower"),
    ("eth.rpc.calls", "count", "lower"),
    ("eth.rpc.attempts", "count", "lower"),
    ("eth.rpc.retries", "count", "lower"),
    ("eth.rpc.hedges", "count", "lower"),
    ("eth.rpc.exhausted", "count", "lower"),
    ("eth.rpc.degraded_lookups", "count", "lower"),
    ("eth.rpc.useful_ratio", "ratio", "higher"),
    ("core.preprocess.preprocess_s", "s", "lower"),
    ("core.preprocess.accepted", "count", "higher"),
    ("core.preprocess.rejected", "count", "lower"),
    ("core.schedule.iterations", "count", "lower"),
    ("core.schedule.pairs", "count", "higher"),
    ("core.parallel.iteration_s_p50", "s", "lower"),
    ("core.parallel.iteration_s_total", "s", "lower"),
    ("core.parallel.self_s", "s", "lower"),
    ("core.campaign.harden_validate_s", "s", "lower"),
    ("core.campaign.edges", "count", "higher"),
    ("core.campaign.quarantined", "count", "lower"),
    ("core.monitor.snapshot_s", "s", "lower"),
    ("core.monitor.delta_round_s_p50", "s", "lower"),
    ("core.monitor.restore_ambient_s", "s", "lower"),
    ("core.monitor.probed_pairs", "count", "lower"),
    ("core.monitor.universe_pairs", "count", "higher"),
    ("core.monitor.probe_ratio", "ratio", "higher"),
    ("core.parallel_exec.replica_build_s", "s", "lower"),
    ("core.parallel_exec.shard_run_s", "s", "lower"),
    ("core.parallel_exec.reset_s", "s", "lower"),
    ("core.parallel_exec.merge_s", "s", "lower"),
    ("core.parallel_exec.shards", "count", "lower"),
    ("sim.snapshot.capture_s", "s", "lower"),
    ("sim.snapshot.restore_s", "s", "lower"),
    ("service.server.submit_rtt_s_p50", "s", "lower"),
    ("service.server.queue_wait_s_p50", "s", "lower"),
    ("service.server.run_s_p50", "s", "lower"),
    ("service.server.overhead_s_p50", "s", "lower"),
    ("service.server.rejected", "count", "lower"),
    ("service.journal.appends", "count", "lower"),
    ("service.journal.bytes", "B", "lower"),
    ("io.measurement_to_dict_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

# Written down before measuring (issue 11): which end-to-end metric each
# layer metric should move, on which workload. Shipped in the README; the
# driver's BENCHMARK.json schema has no slot for it.
PREDICTIONS: List[Tuple[str, str]] = [
    (
        "eth.mempool.us_per_add",
        "time_to_topology_s / ms_per_pair on testnet_full (~58% of the run); ~40% on "
        "mainnet_subset but through add_batch (netgen.workloads.refresh_s); must not move "
        "events_per_s on mainnet_subset (empty pools) and must not worsen monitor_churn_rpc",
    ),
    (
        "sim.engine.us_per_event, eth.network.send_batch_s, eth.node.gossip_s",
        "events_per_s and ~45% of time_to_topology_s on mainnet_subset; <=15% on "
        "testnet_full; ~0 on service_jobs",
    ),
    (
        "netgen.workloads.refresh_s",
        "time_to_topology_s on mainnet_subset (cost scales with network size, not target "
        "count); ~22% on testnet_full",
    ),
    (
        "netgen.ethereum.build_s, netgen.workloads.prefill_s",
        "setup_s on mainnet_subset only; work moved into setup shows there, not in "
        "time_to_topology_s",
    ),
    (
        "core.monitor.*, netgen.workloads.load_s, eth.fee_market.*",
        "time_to_topology_s on monitor_churn_rpc only",
    ),
    (
        "eth.rpc.useful_ratio, eth.rpc.exhausted",
        "recall and eth.rpc.degraded_lookups on monitor_churn_rpc; elsewhere no change "
        "(no fault plan = passthrough)",
    ),
    (
        "core.parallel_exec.replica_build_s, sim.snapshot.restore_s, "
        "service.server.overhead_s_p50",
        "jobs_per_s, job_latency_p90_s on service_jobs; with 2 concurrent jobs on one GIL, "
        "queue wait rises before throughput falls",
    ),
    (
        "known-tx tables + pools",
        "peak_rss_mb on mainnet_subset (largest of the four)",
    ),
]


def manifest(command: List[str], paths: List[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document, with exactly the driver's keys."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
