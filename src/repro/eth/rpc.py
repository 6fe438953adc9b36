"""The measurement plane: per-node RPC, fault injection, and a hardened client.

Mirrors the queries the paper actually issues:

- ``eth_getTransactionByHash`` — validation that ``txC`` was evicted (§6.1);
- ``txpool_status`` / ``txpool_content`` — mempool inspection;
- ``admin_peers`` — ground-truth neighbour list on locally controlled nodes
  (the ``peer_list`` query of §5.2.3's pre-processing phase);
- ``web3_clientVersion`` — service backend discovery on the mainnet (§6.3);
- ``eth_sendRawTransaction`` — local submission.

Three layers:

:class:`RpcServer`
    The always-correct per-node dispatcher (the seed behavior). Nodes
    configured with ``responds_to_rpc=False`` model the unresponsive
    targets the pre-processing phase skips.
:class:`RpcEndpoint`
    One node's listener as seen over an *unreliable* transport. When the
    network's fault plan carries an :class:`~repro.sim.faults.RpcFaultPlan`
    it injects seed-driven call timeouts, transient errors, token-bucket
    rate limits, stale/truncated txpool snapshots and connection flaps;
    with no RPC fault plan it is a zero-cost passthrough to the server.
:class:`ResilientRpcClient`
    The measurer's side: per-method deadlines, retry with deterministic
    jitter, hedged reads for snapshot-critical queries, per-endpoint
    circuit breaking + health scoring (the PR 6 breaker), client-side
    rate-limit compliance, and snapshot plausibility validation. Its
    tri-state helpers (``True`` / ``False`` / ``None`` = *unknown*) are
    what lets the inference stack degrade to ``suspect`` instead of
    recording false negatives when the plane misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import (
    ReproError,
    RpcConnectionError,
    RpcError,
    RpcExhaustedError,
    RpcMethodNotFoundError,
    RpcRateLimitedError,
    RpcTimeoutError,
    RpcTransientError,
    RpcUnavailableError,
)
from repro.eth.node import Node
from repro.eth.transaction import Transaction
from repro.resilience import CircuitBreaker, backoff_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network
    from repro.sim.faults import RpcFaultState

__all__ = [
    "RpcServer",
    "RpcEndpoint",
    "RpcClientPolicy",
    "ResilientRpcClient",
    "PoolSnapshot",
    "HARDENED_POLICY",
    "RAW_POLICY",
    "rpc_faults_active",
    "rpc_tx_in_pool",
]

SNAPSHOT_OK = "ok"
SNAPSHOT_STALE = "stale"
SNAPSHOT_TRUNCATED = "truncated"
SNAPSHOT_FAILED = "failed"


class RpcServer:
    """Dispatches RPC method calls against one node."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self._methods = {
            "web3_clientVersion": self._client_version,
            "eth_getTransactionByHash": self._get_transaction,
            "eth_blockNumber": self._block_number,
            "eth_sendRawTransaction": self._send_raw_transaction,
            "txpool_status": self._txpool_status,
            "txpool_content": self._txpool_content,
            "admin_peers": self._admin_peers,
            "admin_nodeInfo": self._node_info,
        }

    @property
    def methods(self) -> List[str]:
        return sorted(self._methods)

    def call(self, method: str, *params: Any) -> Any:
        """Invoke ``method`` with ``params``.

        Raises :class:`~repro.errors.RpcUnavailableError` when the node has
        RPC disabled, and :class:`~repro.errors.RpcMethodNotFoundError` for
        unknown methods.
        """
        if not self.node.config.responds_to_rpc:
            raise RpcUnavailableError(f"node {self.node.id} has RPC disabled")
        if method not in self._methods:
            raise RpcMethodNotFoundError(method)
        return self._methods[method](*params)

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    def _client_version(self) -> str:
        return self.node.config.client_version

    def _get_transaction(self, tx_hash: str) -> Optional[Dict[str, Any]]:
        tx = self.node.mempool.get(tx_hash)
        if tx is None:
            return None
        return {
            "hash": tx.hash,
            "from": tx.sender,
            "to": tx.to,
            "nonce": tx.nonce,
            "gasPrice": tx.gas_price,
            "gas": tx.gas_limit,
            "value": tx.value,
            "pending": self.node.mempool.is_pending(tx.hash),
        }

    def _block_number(self) -> int:
        return self.node.head_number

    def _send_raw_transaction(self, tx: Transaction) -> str:
        result = self.node.submit_transaction(tx)
        if not result.admitted:
            raise ReproError(f"transaction rejected: {result.outcome.value}")
        return tx.hash

    def _txpool_status(self) -> Dict[str, int]:
        return {
            "pending": self.node.mempool.pending_count,
            "queued": self.node.mempool.future_count,
        }

    def _txpool_content(self) -> Dict[str, Dict[str, List[str]]]:
        pending: Dict[str, List[str]] = {}
        queued: Dict[str, List[str]] = {}
        for tx in self.node.mempool.pending_transactions():
            pending.setdefault(tx.sender, []).append(tx.hash)
        for tx in self.node.mempool.future_transactions():
            queued.setdefault(tx.sender, []).append(tx.hash)
        return {"pending": pending, "queued": queued}

    def _admin_peers(self) -> List[str]:
        return self.node.peer_ids

    def _node_info(self) -> Dict[str, Any]:
        return {
            "id": self.node.id,
            "client": self.node.config.client_version,
            "network": self.node.config.network_id,
            "maxPeers": self.node.config.max_peers,
            "activePeers": self.node.degree,
        }


# ----------------------------------------------------------------------
# Fault-injecting endpoint
# ----------------------------------------------------------------------
def rpc_faults_active(network: "Network") -> bool:
    """True when the installed fault plan degrades the RPC plane."""
    injector = network.faults
    return injector is not None and injector.rpc is not None


#: Methods whose responses come from the (possibly lagged) snapshot bundle:
#: a caching proxy serves pool state and head number from one consistent
#: but stale view, which is exactly what the plausibility checks look for.
_BUNDLE_METHODS = frozenset({"txpool_status", "txpool_content", "eth_blockNumber"})


class RpcEndpoint:
    """One node's RPC listener as seen over an unreliable transport.

    With no :class:`~repro.sim.faults.RpcFaultPlan` installed this is a
    pure passthrough to :class:`RpcServer` — no RNG draws, no simulated
    time, byte-identical to the seed behavior. With one installed, every
    call runs the fault gauntlet in a fixed order: connection flap (no
    draw), token bucket (no draw), one transport draw (timeout/error),
    then per-snapshot staleness and truncation draws.
    """

    def __init__(self, network: "Network", node_id: str) -> None:
        self.network = network
        self.node_id = node_id
        self._server = RpcServer(network.node(node_id))

    @property
    def faults(self) -> Optional["RpcFaultState"]:
        injector = self.network.faults
        return injector.rpc if injector is not None else None

    def call(self, method: str, *params: Any, deadline: float = 0.0) -> Any:
        faults = self.faults
        if faults is None:
            return self._server.call(method, *params)
        if not self._server.node.config.responds_to_rpc:
            # Permanent condition: surface it before burning fault draws.
            raise RpcUnavailableError(f"node {self.node_id} has RPC disabled")
        if faults.endpoint_down(self.node_id):
            raise RpcConnectionError(
                f"connection to {self.node_id} refused (listener flapping)"
            )
        retry_after = faults.consume_token(self.node_id)
        if retry_after is not None:
            raise RpcRateLimitedError(self.node_id, retry_after)
        fate = faults.transport_fault(self.node_id)
        if fate == "timeout":
            raise RpcTimeoutError(self.node_id, method, deadline)
        if fate == "error":
            raise RpcTransientError(
                f"RPC {method} to {self.node_id} failed transiently"
            )
        if method in _BUNDLE_METHODS:
            return self._bundled(method, faults)
        return self._server.call(method, *params)

    def _bundled(self, method: str, faults: "RpcFaultState") -> Any:
        fresh = {
            "status": self._server.call("txpool_status"),
            "content": self._server.call("txpool_content"),
            "head": self._server.call("eth_blockNumber"),
        }
        bundle = faults.lagged_bundle(self.node_id, fresh)
        if method == "eth_blockNumber":
            return bundle["head"]
        if method == "txpool_status":
            return dict(bundle["status"])
        content = {
            "pending": {k: list(v) for k, v in bundle["content"]["pending"].items()},
            "queued": {k: list(v) for k, v in bundle["content"]["queued"].items()},
        }
        if faults.should_truncate(self.node_id):
            keep = faults.plan.truncate_keep_fraction
            content["pending"] = _truncate_groups(content["pending"], keep)
            content["queued"] = _truncate_groups(content["queued"], keep)
        return content


def _truncate_groups(
    groups: Dict[str, List[str]], keep_fraction: float
) -> Dict[str, List[str]]:
    """Drop the tail page of a sender-grouped dump (insertion order)."""
    keep = int(len(groups) * keep_fraction)
    truncated: Dict[str, List[str]] = {}
    for index, (sender, hashes) in enumerate(groups.items()):
        if index >= keep:
            break
        truncated[sender] = hashes
    return truncated


# ----------------------------------------------------------------------
# Resilient client
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RpcClientPolicy:
    """Every knob of the hardened client, in one validated bundle.

    Attributes
    ----------
    max_attempts:
        Total tries per logical call (first attempt + retries).
    deadline:
        Default per-attempt deadline in simulated seconds; a timed-out
        attempt burns this much waiting.
    method_deadlines:
        Per-method overrides (``txpool_content`` dumps are slow).
    backoff_base / backoff_factor / backoff_max / jitter_frac:
        Exponential backoff between attempts, with deterministic jitter
        seeded from ``(endpoint, method, attempt)`` — same seed, same
        waits, bit-identical reruns.
    hedge_methods / hedge_delay:
        Snapshot-critical reads race a hedged second request after
        ``hedge_delay`` instead of waiting out the full deadline, so a
        timeout costs ``hedge_delay`` rather than ``deadline``.
    breaker_threshold / breaker_cooldown:
        Per-endpoint circuit breaker (the PR 6 three-state machine run on
        simulated time): after ``breaker_threshold`` consecutive
        failures the endpoint is skipped for ``breaker_cooldown`` seconds.
    health_alpha / min_health:
        EMA health score per endpoint (1 = perfect); endpoints under
        ``min_health`` land on skip lists and lose candidate priority.
    comply_with_rate_limits:
        Honor 429 ``retry_after`` hints (wait, never hammer).
    validate_snapshots / min_pool_shrink_fraction:
        Plausibility checks on pool snapshots: content-vs-status count
        mismatch flags truncation, a head number behind the last known or
        a pending count collapsing below ``min_pool_shrink_fraction`` of
        the last trusted value flags staleness; flagged reads are retried
        once (hedged) before being surfaced.
    failure_means_negative:
        The *unhardened* stance: an unanswerable lookup is reported as
        ``False`` (the silent false negative this PR exists to kill)
        instead of ``None`` (unknown → degrade to suspect).
    """

    max_attempts: int = 4
    deadline: float = 2.0
    method_deadlines: Mapping[str, float] = field(
        default_factory=lambda: {"txpool_content": 5.0}
    )
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 4.0
    jitter_frac: float = 0.5
    hedge_methods: Tuple[str, ...] = (
        "txpool_status",
        "txpool_content",
        "eth_blockNumber",
        "eth_getTransactionByHash",
    )
    hedge_delay: float = 0.5
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    health_alpha: float = 0.3
    min_health: float = 0.2
    comply_with_rate_limits: bool = True
    validate_snapshots: bool = True
    min_pool_shrink_fraction: float = 0.5
    failure_means_negative: bool = False

    def __post_init__(self) -> None:
        from repro.errors import MeasurementError

        if self.max_attempts < 1:
            raise MeasurementError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline <= 0:
            raise MeasurementError(f"deadline must be positive, got {self.deadline}")
        for name in ("backoff_base", "backoff_factor", "backoff_max", "hedge_delay"):
            if getattr(self, name) <= 0:
                raise MeasurementError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise MeasurementError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}"
            )
        if not 0.0 < self.health_alpha <= 1.0:
            raise MeasurementError(
                f"health_alpha must be in (0, 1], got {self.health_alpha}"
            )

    def deadline_for(self, method: str) -> float:
        return self.method_deadlines.get(method, self.deadline)


#: The default stance: measure *through* the weather.
HARDENED_POLICY = RpcClientPolicy()

#: The seed's implicit stance, made explicit for A/B benchmarks: one
#: attempt, no hedging, no validation, and a failed lookup silently
#: becomes a negative.
RAW_POLICY = RpcClientPolicy(
    max_attempts=1,
    hedge_methods=(),
    comply_with_rate_limits=False,
    validate_snapshots=False,
    failure_means_negative=True,
    breaker_threshold=1_000_000_000,
)


@dataclass
class PoolSnapshot:
    """A validated txpool view with its plausibility verdict attached."""

    node_id: str
    taken_at: float
    status: Dict[str, int]
    content: Dict[str, Dict[str, List[str]]]
    head: int
    verdict: str = SNAPSHOT_OK
    hedged: bool = False

    @property
    def ok(self) -> bool:
        return self.verdict == SNAPSHOT_OK

    @property
    def pending_count(self) -> int:
        return int(self.status.get("pending", 0))

    def content_pending_count(self) -> int:
        return sum(len(v) for v in self.content.get("pending", {}).values())


class ResilientRpcClient:
    """The measurer's RPC stack: deadlines, retries, hedging, compliance.

    One instance per network (see ``Network.rpc_client``). With no RPC
    fault plan installed every call short-circuits to the bare server —
    no RNG, no simulated time, no bookkeeping — so golden fingerprints
    are untouched. All resilience state (breakers, health, pacing) keys
    on simulated time, making reruns bit-identical.
    """

    def __init__(
        self, network: "Network", policy: Optional[RpcClientPolicy] = None
    ) -> None:
        self.network = network
        self.policy = policy if policy is not None else HARDENED_POLICY
        self._endpoints: Dict[str, RpcEndpoint] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._health: Dict[str, float] = {}
        self._next_allowed: Dict[str, float] = {}
        self._last_head: Dict[str, int] = {}
        self._last_pending: Dict[str, int] = {}
        # Counters (exported as toposhot_rpc_* — see repro.obs.wiring).
        self.calls_total = 0
        self.attempts_total = 0
        self.retries_total = 0
        self.hedges_total = 0
        self.rate_limited_total = 0
        self.breaker_rejections_total = 0
        self.exhausted_total = 0
        self.degraded_lookups_total = 0
        self.snapshot_verdicts: Dict[str, int] = {}

    # -- plumbing ------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when an RPC fault plan is installed (resilient path)."""
        return rpc_faults_active(self.network)

    def endpoint(self, node_id: str) -> RpcEndpoint:
        ep = self._endpoints.get(node_id)
        if ep is None:
            ep = self._endpoints[node_id] = RpcEndpoint(self.network, node_id)
        return ep

    def breaker(self, node_id: str) -> CircuitBreaker:
        br = self._breakers.get(node_id)
        if br is None:
            br = self._breakers[node_id] = CircuitBreaker(
                failure_threshold=self.policy.breaker_threshold,
                cooldown=self.policy.breaker_cooldown,
                clock=self.network.sim.clock,
            )
        return br

    def health(self, node_id: str) -> float:
        return self._health.get(node_id, 1.0)

    def health_report(self) -> Dict[str, float]:
        return {nid: self._health[nid] for nid in sorted(self._health)}

    def unhealthy_endpoints(self) -> List[str]:
        """Endpoints below the health floor or with an open breaker —
        pre-processing skip lists and candidate de-prioritization."""
        flagged = set()
        for nid, score in self._health.items():
            if score < self.policy.min_health:
                flagged.add(nid)
        for nid, br in self._breakers.items():
            if br.state != CircuitBreaker.CLOSED:
                flagged.add(nid)
        return sorted(flagged)

    def _bump_health(self, node_id: str, outcome: float) -> None:
        alpha = self.policy.health_alpha
        prev = self._health.get(node_id, 1.0)
        self._health[node_id] = (1.0 - alpha) * prev + alpha * outcome

    def _sleep(self, delay: float) -> None:
        if delay > 0:
            self.network.run(delay)

    def _backoff_delay(self, node_id: str, method: str, attempt: int) -> float:
        p = self.policy
        return backoff_delay(
            p.backoff_base,
            p.backoff_factor,
            p.backoff_max,
            p.jitter_frac,
            attempt,
            f"{node_id}:{method}:{attempt}",
        )

    # -- the call path -------------------------------------------------
    def call(self, node_id: str, method: str, *params: Any) -> Any:
        """One logical call: retries, hedging, compliance, breaking.

        Raises :class:`~repro.errors.RpcUnavailableError` /
        :class:`~repro.errors.RpcMethodNotFoundError` immediately
        (permanent conditions), :class:`~repro.errors.RpcExhaustedError`
        when the retry budget or the circuit breaker gives out.
        """
        endpoint = self.endpoint(node_id)
        if not self.active:
            return endpoint.call(method, *params)

        policy = self.policy
        breaker = self.breaker(node_id)
        self.calls_total += 1
        if not breaker.allow():
            self.breaker_rejections_total += 1
            self.exhausted_total += 1
            raise RpcExhaustedError(
                node_id,
                method,
                0,
                RpcConnectionError(
                    f"circuit open for {node_id} "
                    f"(retry after {breaker.retry_after():g}s)"
                ),
            )
        if policy.comply_with_rate_limits:
            self._sleep(self._next_allowed.get(node_id, 0.0) - self.network.sim.now)

        deadline = policy.deadline_for(method)
        last: Optional[RpcError] = None
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            self.attempts_total += 1
            try:
                result = endpoint.call(method, *params, deadline=deadline)
            except (RpcUnavailableError, RpcMethodNotFoundError):
                # Permanent: not weather, don't burn the breaker on it.
                breaker.release_probe()
                raise
            except RpcRateLimitedError as exc:
                last = exc
                self.rate_limited_total += 1
                # Throttling is endpoint *health*, not sickness: comply,
                # don't trip the breaker.
                if policy.comply_with_rate_limits:
                    self._next_allowed[node_id] = (
                        self.network.sim.now + exc.retry_after
                    )
                    self._sleep(exc.retry_after)
                continue
            except RpcTimeoutError as exc:
                last = exc
                breaker.record_failure()
                self._bump_health(node_id, 0.0)
                if method in policy.hedge_methods and policy.hedge_delay < deadline:
                    # The hedged twin was already in flight: we only paid
                    # the hedge delay, and the next attempt goes now.
                    self.hedges_total += 1
                    self._sleep(policy.hedge_delay)
                    continue
                self._sleep(deadline)
            except (RpcTransientError, RpcConnectionError) as exc:
                last = exc
                breaker.record_failure()
                self._bump_health(node_id, 0.0)
            else:
                breaker.record_success()
                self._bump_health(node_id, 1.0)
                return result
            if attempt < policy.max_attempts:
                self.retries_total += 1
                self._sleep(self._backoff_delay(node_id, method, attempt))
        self.exhausted_total += 1
        raise RpcExhaustedError(node_id, method, attempt, last)

    # -- tri-state helpers for the inference stack ---------------------
    def tx_in_pool(self, node_id: str, tx_hash: str) -> Optional[bool]:
        """Is ``tx_hash`` in ``node_id``'s pool? ``None`` means *unknown*.

        The §6.1 cross-check. Unknown (exhausted retries, open breaker)
        must never masquerade as a negative — unless the policy is the
        deliberately unhardened :data:`RAW_POLICY`, whose
        ``failure_means_negative`` reproduces the naive client's silent
        false negatives for A/B benchmarks. Targets without RPC fall
        back to the simulator's direct pool view, mirroring the seed's
        omniscient oracle.
        """
        if not self.active:
            return tx_hash in self.network.node(node_id).mempool
        try:
            return self.call(node_id, "eth_getTransactionByHash", tx_hash) is not None
        except RpcUnavailableError:
            return tx_hash in self.network.node(node_id).mempool
        except RpcError:
            self.degraded_lookups_total += 1
            return False if self.policy.failure_means_negative else None

    def peer_count(self, node_id: str) -> Optional[int]:
        """``len(admin_peers)``, or ``None`` when the plane won't answer
        (or the target serves no RPC at all)."""
        if not self.active:
            try:
                return len(self.endpoint(node_id).call("admin_peers"))
            except RpcUnavailableError:
                return None
        try:
            return len(self.call(node_id, "admin_peers"))
        except RpcError:
            self.degraded_lookups_total += 1
            return None

    def _record_verdict(self, verdict: str) -> None:
        self.snapshot_verdicts[verdict] = self.snapshot_verdicts.get(verdict, 0) + 1

    def pool_snapshot(self, node_id: str) -> PoolSnapshot:
        """Fetch and validate one txpool view.

        A flagged (stale/truncated) read is refetched once — the hedged
        second opinion — before the verdict is surfaced; only ``ok``
        snapshots update the per-endpoint plausibility baselines.
        """
        snapshot = self._fetch_snapshot(node_id)
        if (
            self.policy.validate_snapshots
            and not snapshot.ok
            and snapshot.verdict != SNAPSHOT_FAILED
        ):
            retry = self._fetch_snapshot(node_id)
            retry.hedged = True
            if retry.ok or retry.verdict == snapshot.verdict:
                snapshot = retry
        if snapshot.ok:
            self._last_head[node_id] = snapshot.head
            self._last_pending[node_id] = snapshot.pending_count
        self._record_verdict(snapshot.verdict)
        return snapshot

    def _fetch_snapshot(self, node_id: str) -> PoolSnapshot:
        now = self.network.sim.now
        try:
            head = self.call(node_id, "eth_blockNumber")
            status = self.call(node_id, "txpool_status")
            content = self.call(node_id, "txpool_content")
        except RpcError:
            self.degraded_lookups_total += 1
            return PoolSnapshot(
                node_id, now, {}, {"pending": {}, "queued": {}}, -1, SNAPSHOT_FAILED
            )
        snapshot = PoolSnapshot(node_id, now, status, content, head)
        if self.policy.validate_snapshots:
            snapshot.verdict = self._validate(node_id, snapshot)
        return snapshot

    def _validate(self, node_id: str, snapshot: PoolSnapshot) -> str:
        content_count = snapshot.content_pending_count()
        if content_count < snapshot.pending_count:
            return SNAPSHOT_TRUNCATED
        last_head = self._last_head.get(node_id)
        if last_head is not None and snapshot.head < last_head:
            return SNAPSHOT_STALE
        last_pending = self._last_pending.get(node_id)
        if (
            last_pending is not None
            and last_pending > 0
            and snapshot.pending_count
            < self.policy.min_pool_shrink_fraction * last_pending
        ):
            return SNAPSHOT_STALE
        return SNAPSHOT_OK

    def counters(self) -> Dict[str, int]:
        """Flat counter view (the toposhot_rpc_* metric payload)."""
        payload = {
            "calls": self.calls_total,
            "attempts": self.attempts_total,
            "retries": self.retries_total,
            "hedges": self.hedges_total,
            "rate_limited": self.rate_limited_total,
            "breaker_rejections": self.breaker_rejections_total,
            "exhausted": self.exhausted_total,
            "degraded_lookups": self.degraded_lookups_total,
        }
        for verdict, count in sorted(self.snapshot_verdicts.items()):
            payload[f"snapshots_{verdict}"] = count
        return payload


# ----------------------------------------------------------------------
# Inference-stack entry point
# ----------------------------------------------------------------------
def rpc_tx_in_pool(network: "Network", node_id: str, tx_hash: str) -> Optional[bool]:
    """The cross-check every verdict leans on, routed through the plane
    (:meth:`ResilientRpcClient.tx_in_pool`): the seed's direct pool
    membership test with no RPC fault plan installed, otherwise possibly
    ``None`` (*unknown*), which callers must degrade to suspect/re-probe,
    never to a negative.
    """
    return network.rpc_client().tx_in_pool(node_id, tx_hash)
