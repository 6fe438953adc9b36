"""The metric catalog, and pull-based instrumentation of the stack.

Every ``toposhot_*`` series is declared here and only here: one
:class:`~repro.obs.metrics.Metric` per name, carrying its type, help text
and label keys (``docs/observability.md`` renders the same table for
operators; ``tests/obs/test_wiring.py`` holds the two together). To add a
metric, declare it below, then look it up by its constant —
``obs.metrics.counter(wiring.MY_METRIC).inc()`` at a push site, a
``put(MY_METRIC, value)`` row in a collector — and add its row to the docs.

All wiring here is **pull**: collectors registered on the registry read
counters the engine, transport, mempools and fault injector maintain
anyway, and copy them into instruments at collect/export time. The
instrumented hot paths therefore run the same machine code whether
observability is attached or not — which is what keeps the golden
determinism fingerprints and the engine-throughput bench untouched.

Push-style instrumentation (events that deserve a log record the moment
they happen: faults, message drops, campaign iterations, monitor
snapshots) lives at the call sites in :mod:`repro.sim.faults`,
:mod:`repro.eth.network`, :mod:`repro.core.campaign` and
:mod:`repro.core.monitor`, guarded by ``obs.enabled``.
"""

from __future__ import annotations

import collections
from functools import partial
from typing import TYPE_CHECKING

from repro.obs.metrics import Metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.eth.network import Network
    from repro.obs import Observability
    from repro.service.server import MeasurementService
    from repro.sim.engine import Simulator


_counter, _gauge, _histogram = (
    partial(Metric, kind=kind) for kind in ("counter", "gauge", "histogram")
)

SIM_TIME = _gauge("toposhot_sim_time_seconds", "Current simulated clock")
SIM_EVENTS_EXECUTED = _counter(
    "toposhot_sim_events_executed_total", "Events executed by the discrete-event engine"
)
SIM_EVENTS_PENDING = _gauge(
    "toposhot_sim_events_pending", "Events still queued (including cancelled)"
)

MESSAGES_SENT = _counter("toposhot_messages_sent_total", "Messages handed to transport")
MESSAGES_BY_KIND = _counter(
    "toposhot_messages_total", "Messages sent by message kind", "kind"
)
MESSAGES_DROPPED = _counter(
    "toposhot_messages_dropped_total", "Messages that never reached their target"
)
DROPS_BY_REASON = _counter(
    "toposhot_message_drops_total", "Message drops by reason", "reason"
)
NODES = _gauge("toposhot_nodes", "Nodes attached to the network")
NODES_CRASHED = _gauge("toposhot_nodes_crashed", "Nodes currently down")
LINKS = _gauge("toposhot_links", "Active overlay links")

MEMPOOL_TRANSACTIONS = _gauge(
    "toposhot_mempool_transactions", "Buffered transactions across all pools", "node"
)
MEMPOOL_PENDING = _gauge(
    "toposhot_mempool_pending_transactions", "Executable transactions across all pools"
)
MEMPOOL_OUTCOMES = _counter(
    "toposhot_mempool_outcomes_total", "Mempool admission outcomes", "outcome"
)
MEMPOOL_EVICTIONS = _counter(
    "toposhot_mempool_evictions_total", "Transactions evicted from full pools", "node"
)
MEMPOOL_REPLACEMENTS = _counter(
    "toposhot_mempool_replacements_total",
    "Transactions replaced in a node's pool",
    "node",
)

SUPERNODE_OBSERVATIONS = _counter(
    "toposhot_supernode_observations_total",
    "Supernode possession observations by evidence kind",
    "kind",
)

FAULTS_FIRED = _counter("toposhot_faults_total", "Fault events fired by kind", "kind")
FAULT_MESSAGES_DROPPED = _counter(
    "toposhot_fault_messages_dropped_total", "Deliveries dropped by injected loss"
)
FAULT_SEND_TIMEOUTS = _counter(
    "toposhot_fault_send_timeouts_total", "Supernode injections timed out"
)
FAULT_CRASHES = _counter(
    "toposhot_fault_crashes_total", "Nodes crashed by fault injection"
)
FAULT_CHURN = _counter(
    "toposhot_fault_churn_events_total", "Links churned by fault injection"
)

RPC_FAULTS_INJECTED = _counter(
    "toposhot_rpc_faults_injected_total", "RPC-plane faults injected, by kind", "kind"
)
RPC_CALLS = _counter(
    "toposhot_rpc_calls_total", "Logical RPC calls issued by the client"
)
RPC_ATTEMPTS = _counter(
    "toposhot_rpc_attempts_total", "Physical RPC attempts (incl. retries)"
)
RPC_RETRIES = _counter(
    "toposhot_rpc_retries_total", "RPC attempts beyond the first, per call"
)
RPC_HEDGES = _counter(
    "toposhot_rpc_hedged_attempts_total", "Hedged re-attempts after a timed-out read"
)
RPC_RATE_LIMITED = _counter(
    "toposhot_rpc_rate_limited_total", "Attempts deferred by endpoint throttling"
)
RPC_BREAKER_REJECTIONS = _counter(
    "toposhot_rpc_breaker_rejections_total",
    "Calls refused because the endpoint breaker was open",
)
RPC_EXHAUSTED = _counter(
    "toposhot_rpc_exhausted_total", "Calls that ran out of attempts"
)
RPC_DEGRADED_LOOKUPS = _counter(
    "toposhot_rpc_degraded_lookups_total",
    "Pool lookups that returned unknown (degraded plane)",
)
RPC_ENDPOINT_HEALTH = _gauge(
    "toposhot_rpc_endpoint_health",
    "EMA health score per RPC endpoint (1 = healthy)",
    "node",
)

CAMPAIGN_ITERATIONS = _counter(
    "toposhot_campaign_iterations_total", "Completed schedule iterations"
)
CAMPAIGN_EDGES = _gauge(
    "toposhot_campaign_edges_detected", "Distinct edges detected so far"
)
CAMPAIGN_TXS = _counter(
    "toposhot_campaign_transactions_sent_total", "Measurement transactions injected"
)
CAMPAIGN_FLOOD_TRIMMED = _counter(
    "toposhot_campaign_flood_trimmed_total", "Flood futures a full pool was spared"
)
CAMPAIGN_FLOOD_SHORT = _counter(
    "toposhot_campaign_flood_short_total", "Floods into a pool with room beyond Z"
)
CAMPAIGN_SETUP_FAILURES = _counter(
    "toposhot_campaign_setup_failures_total", "Per-link setups that failed"
)
CAMPAIGN_SEND_TIMEOUTS = _counter(
    "toposhot_campaign_send_timeouts_total", "Supernode injections timed out"
)
CAMPAIGN_FAILURES = _counter(
    "toposhot_campaign_failures_total", "Campaign failures by kind", "kind"
)
CAMPAIGN_ITER_SIM_SECONDS = _histogram(
    "toposhot_campaign_iteration_sim_seconds",
    "Simulated seconds consumed per iteration",
)
CAMPAIGN_ITER_WALL_SECONDS = _histogram(
    "toposhot_campaign_iteration_wall_seconds", "Wall-clock seconds spent per iteration"
)
CAMPAIGN_CROSS_VALIDATIONS = _counter(
    "toposhot_campaign_cross_validations_total",
    "Suspect edges re-probed by cross-validation",
)
CAMPAIGN_QUARANTINED = _counter(
    "toposhot_campaign_quarantined_edges_total",
    "Edges quarantined after failed cross-validation",
)

ARENA_PROTOCOLS_RUN = _counter(
    "toposhot_arena_protocols_run_total", "Arena protocol executions", "protocol"
)
ARENA_PREDICTED_EDGES = _gauge(
    "toposhot_arena_predicted_edges",
    "Edges predicted by each edge-measuring protocol",
    "protocol",
)
ARENA_PROBE_TXS = _counter(
    "toposhot_arena_probe_transactions_total",
    "Probe transactions sent per protocol",
    "protocol",
)
ARENA_PROBE_MESSAGES = _counter(
    "toposhot_arena_probe_messages_total",
    "Network messages attributable to each protocol's run",
    "protocol",
)
ARENA_SIM_SECONDS = _histogram(
    "toposhot_arena_protocol_sim_seconds",
    "Simulated seconds per protocol run",
    "protocol",
)
ARENA_WALL_SECONDS = _histogram(
    "toposhot_arena_protocol_wall_seconds",
    "Wall-clock seconds per protocol run",
    "protocol",
)

BEHAVIORS_INSTALLED = _gauge(
    "toposhot_byzantine_nodes",
    "Nodes currently running each Byzantine behavior",
    "kind",
)
BEHAVIOR_ACTIONS = _counter(
    "toposhot_byzantine_actions_total",
    "Misbehaving actions taken, by behavior kind",
    "kind",
)
INVARIANT_VIOLATIONS = _counter(
    "toposhot_invariant_violations_total",
    "Runtime invariant violations, by invariant",
    "invariant",
)

MONITOR_SNAPSHOTS = _counter(
    "toposhot_monitor_snapshots_total", "Topology snapshots taken"
)
MONITOR_LAST_EDGES = _gauge(
    "toposhot_monitor_last_edges", "Edges in the latest snapshot"
)
MONITOR_LAST_CHURN = _gauge(
    "toposhot_monitor_last_churn_rate", "Churn rate between the two latest snapshots"
)
MONITOR_EDGES_ADDED = _counter(
    "toposhot_monitor_edges_added_total",
    "Edges that appeared between consecutive snapshots",
)
MONITOR_EDGES_REMOVED = _counter(
    "toposhot_monitor_edges_removed_total",
    "Edges that vanished between consecutive snapshots",
)
MONITOR_DELTA_ROUNDS = _counter(
    "toposhot_monitor_delta_rounds_total", "Incremental monitor rounds"
)
MONITOR_DELTA_PROBED = _counter(
    "toposhot_monitor_delta_probed_pairs_total", "Pairs re-probed by incremental rounds"
)
MONITOR_DELTA_SAVED = _counter(
    "toposhot_monitor_delta_saved_pairs_total",
    "Pairs a full re-snapshot would have probed but delta mode skipped",
)

FEEMARKET_FLOOR = _gauge(
    "toposhot_feemarket_floor_wei", "Current fee-market admission floor (wei)"
)
FEEMARKET_SURGE = _gauge(
    "toposhot_feemarket_surge_multiplier", "Current surge multiplier"
)
FEEMARKET_OCCUPANCY = _gauge(
    "toposhot_feemarket_sampled_occupancy", "Mean sampled pool occupancy"
)
FEEMARKET_UPDATES = _counter(
    "toposhot_feemarket_updates_total", "Fee-market floor recomputations"
)
FEEMARKET_REJECTED = _counter(
    "toposhot_feemarket_rejected_total",
    "Transactions rejected below the fee-market floor",
)

WORKLOAD_TICKS = _counter(
    "toposhot_workload_ticks_total", "Workload ticks executed", "shape"
)
WORKLOAD_OFFERED = _counter(
    "toposhot_workload_offered_total", "Transactions offered by the workload", "shape"
)
WORKLOAD_FLOOR_REJECTED = _counter(
    "toposhot_workload_floor_rejected_total",
    "Offered transactions statistically rejected below the floor",
    "shape",
)
WORKLOAD_MATERIALIZED = _counter(
    "toposhot_workload_materialized_total",
    "Transactions actually constructed and inserted",
    "shape",
)
WORKLOAD_REPLACEMENTS = _counter(
    "toposhot_workload_replacements_total",
    "Replacement transactions submitted (MEV races)",
    "shape",
)
WORKLOAD_OFFERED_RATE = _gauge(
    "toposhot_workload_offered_tx_per_second", "Mean offered tx/s so far", "shape"
)

SERVICE_QUEUE_DEPTH = _gauge(
    "toposhot_service_queue_depth", "Jobs queued across all tenants", "tenant"
)
SERVICE_RUNNING = _gauge("toposhot_service_running_jobs", "Jobs currently executing")
SERVICE_JOBS_BY_STATE = _gauge(
    "toposhot_service_jobs", "Jobs by lifecycle state", "state"
)
SERVICE_ADMITTED = _counter(
    "toposhot_service_admitted_total", "Jobs that passed admission control"
)
SERVICE_REJECTED = _counter(
    "toposhot_service_rejected_total", "Typed admission rejections, by reason", "reason"
)
SERVICE_RECOVERED = _counter(
    "toposhot_service_recovered_jobs_total", "Jobs requeued by journal recovery"
)
SERVICE_RETRIES = _counter(
    "toposhot_service_retries_total", "Attempt retries performed by the supervisor"
)
SERVICE_TENANT_TOKENS = _gauge(
    "toposhot_service_tenant_tokens",
    "Remaining tenant tokens, by currency",
    "tenant",
    "currency",
)
SERVICE_BREAKER_STATE = _gauge(
    "toposhot_service_breaker_state",
    "Circuit breaker state (0=closed, 1=half_open, 2=open)",
)
SERVICE_BREAKER_TRIPS = _counter(
    "toposhot_service_breaker_trips_total", "Times the circuit breaker opened"
)
SERVICE_JOURNAL_APPENDS = _counter(
    "toposhot_service_journal_appends_total", "Durable journal appends"
)
SERVICE_QUEUE_SECONDS = _histogram(
    "toposhot_service_queue_seconds",
    "Seconds from submission to first execution",
    "tenant",
)
SERVICE_RUN_SECONDS = _histogram(
    "toposhot_service_run_seconds",
    "Seconds spent executing (including retries)",
    "tenant",
)
SERVICE_TOTAL_SECONDS = _histogram(
    "toposhot_service_total_seconds",
    "Seconds from submission to terminal state",
    "tenant",
)


def instrument_simulator(obs: "Observability", sim: "Simulator") -> None:
    """Mirror the engine's own counters into the registry at collect time."""
    if not obs.enabled:
        return
    put = obs.metrics.put

    def collect() -> None:
        put(SIM_TIME, sim.now)
        put(SIM_EVENTS_EXECUTED, sim.executed_events)
        put(SIM_EVENTS_PENDING, sim.pending_events)

    obs.metrics.add_collector(collect)


def instrument_service(obs: "Observability", service: "MeasurementService") -> None:
    """Mirror :meth:`MeasurementService.stats` into the registry.

    Pull-style like the rest of the stack: queue depths, admission and
    shed counters, per-tenant token levels and breaker state are read at
    collect/export time from the same view ``/v1/metrics`` serves.  The
    submit-to-result latency *histograms* (``SERVICE_*_SECONDS``) are the
    push exception — completions are cold events, observed directly in
    :meth:`MeasurementService._observe_completion`.
    """
    if not obs.enabled:
        return
    put = obs.metrics.put
    breaker_levels = {"closed": 0, "half_open": 1, "open": 2}

    def collect() -> None:
        stats = service.stats()
        put(SERVICE_QUEUE_DEPTH, stats["queued"])
        for tenant, depth in stats["queued_by_tenant"].items():
            put(SERVICE_QUEUE_DEPTH, depth, tenant=tenant)
        put(SERVICE_RUNNING, stats["running"])
        put(SERVICE_ADMITTED, stats["admitted_total"])
        for reason, count in stats["rejected"].items():
            put(SERVICE_REJECTED, count, reason=reason)
        for tenant, levels in stats["tokens"].items():
            for currency, value in levels.items():
                put(SERVICE_TENANT_TOKENS, value, tenant=tenant, currency=currency)
        for state, count in stats["jobs_by_state"].items():
            put(SERVICE_JOBS_BY_STATE, count, state=state)
        put(SERVICE_RECOVERED, stats["recovered_jobs"])
        put(SERVICE_RETRIES, stats["retries_total"])
        breaker = stats["breaker"]
        put(SERVICE_BREAKER_STATE, breaker_levels.get(breaker["state"], 0))
        put(SERVICE_BREAKER_TRIPS, breaker["trips_total"])
        put(SERVICE_JOURNAL_APPENDS, stats["journal"]["appends_total"])

    obs.metrics.add_collector(collect)


def instrument_network(
    obs: "Observability", network: "Network", per_node: bool = False
) -> None:
    """Wire transport, mempool, supernode and fault-injector counters.

    ``per_node=True`` additionally exports per-node pool sizes and
    replacement/eviction counts (the paper's per-target view) — bounded
    label cardinality is the operator's responsibility at large N.
    """
    if not obs.enabled:
        return
    instrument_simulator(obs, network.sim)
    put = obs.metrics.put

    def collect() -> None:
        put(MESSAGES_SENT, network.messages_sent)
        put(MESSAGES_DROPPED, network.messages_dropped)
        put(NODES, len(network.nodes))
        put(NODES_CRASHED, network._crashed_count)
        put(LINKS, network.link_count)
        for kind, count in network.messages_by_kind.items():
            put(MESSAGES_BY_KIND, count, kind=kind)
        for reason, count in network.drops_by_reason.items():
            put(DROPS_BY_REASON, count, reason=reason)

        # Mempool admission/replacement/eviction, aggregated over nodes
        # (the paper's replaced/evicted-per-target counters, §5.3).
        totals: collections.Counter = collections.Counter()
        pool_size = 0
        pool_pending = 0
        observations: collections.Counter = collections.Counter()
        for node in network.nodes.values():
            pool = node.mempool
            pool_size += len(pool)
            pool_pending += pool.pending_count
            totals.update(pool.stats)
            observations.update(getattr(node, "observation_counts", None) or {})
            if per_node:
                put(MEMPOOL_TRANSACTIONS, len(pool), node=node.id)
                put(MEMPOOL_REPLACEMENTS, pool.stats.get("replaced", 0), node=node.id)
                put(MEMPOOL_EVICTIONS, pool.stats.get("evictions", 0), node=node.id)
        put(MEMPOOL_TRANSACTIONS, pool_size)
        put(MEMPOOL_PENDING, pool_pending)
        for key, value in totals.items():
            if key == "evictions":
                put(MEMPOOL_EVICTIONS, value)
            else:
                put(MEMPOOL_OUTCOMES, value, outcome=key)
        for kind, value in observations.items():
            put(SUPERNODE_OBSERVATIONS, value, kind=kind)

        faults = network.faults
        if faults is not None:
            put(FAULT_MESSAGES_DROPPED, faults.messages_dropped)
            put(FAULT_SEND_TIMEOUTS, faults.send_timeouts)
            put(FAULT_CRASHES, faults.crashes)
            put(FAULT_CHURN, faults.churn_events)
            rpc_faults = faults.rpc
            if rpc_faults is not None:
                put(RPC_FAULTS_INJECTED, rpc_faults.timeouts, kind="timeout")
                put(RPC_FAULTS_INJECTED, rpc_faults.transient_errors, kind="error")
                put(RPC_FAULTS_INJECTED, rpc_faults.rate_limited, kind="rate_limit")
                put(RPC_FAULTS_INJECTED, rpc_faults.flaps, kind="flap")

        # Resilient RPC client counters (only materialized once someone
        # actually called through the client — reading the private slot
        # avoids creating a client as an instrumentation side effect).
        client = getattr(network, "_rpc_client", None)
        if client is not None:
            put(RPC_CALLS, client.calls_total)
            put(RPC_ATTEMPTS, client.attempts_total)
            put(RPC_RETRIES, client.retries_total)
            put(RPC_HEDGES, client.hedges_total)
            put(RPC_RATE_LIMITED, client.rate_limited_total)
            put(RPC_BREAKER_REJECTIONS, client.breaker_rejections_total)
            put(RPC_EXHAUSTED, client.exhausted_total)
            put(RPC_DEGRADED_LOOKUPS, client.degraded_lookups_total)
            for node_id, score in client.health_report().items():
                put(RPC_ENDPOINT_HEALTH, score, node=node_id)

        behaviors = network.behaviors
        if behaviors is not None:
            for kind, count in behaviors.kind_counts().items():
                put(BEHAVIORS_INSTALLED, count, kind=kind)
            for kind, count in behaviors.counts.items():
                put(BEHAVIOR_ACTIONS, count, kind=kind)

        checker = network.invariants
        if checker is not None:
            for name, count in checker.counts.items():
                put(INVARIANT_VIOLATIONS, count, invariant=name)

        market = network.fee_market
        if market is not None:
            put(FEEMARKET_FLOOR, market.floor)
            put(FEEMARKET_SURGE, market.surge)
            put(FEEMARKET_OCCUPANCY, market.occupancy)
            put(FEEMARKET_UPDATES, market.updates)
            put(FEEMARKET_REJECTED, totals.get("rejected_fee_floor", 0))

    obs.metrics.add_collector(collect)


def instrument_workload(obs: "Observability", workload) -> None:
    """Mirror a :class:`~repro.netgen.workloads.BatchedWorkload`'s tick
    accounting into the registry (pull-based, like the rest)."""
    if not obs.enabled:
        return
    put = obs.metrics.put
    shape = workload.shape.name

    def collect() -> None:
        stats = workload.stats
        put(WORKLOAD_TICKS, stats["ticks"], shape=shape)
        put(WORKLOAD_OFFERED, stats["offered"], shape=shape)
        put(WORKLOAD_FLOOR_REJECTED, stats["floor_rejected"], shape=shape)
        put(WORKLOAD_MATERIALIZED, stats["materialized"], shape=shape)
        put(WORKLOAD_REPLACEMENTS, stats["replacements"], shape=shape)
        put(WORKLOAD_OFFERED_RATE, workload.offered_rate(), shape=shape)

    obs.metrics.add_collector(collect)
