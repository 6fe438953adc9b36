"""Exception hierarchy for the TopoShot reproduction package.

All package-specific exceptions derive from :class:`ReproError` so callers can
catch everything raised by this library with a single ``except`` clause.
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Every subclass pickles — so it crosses a process boundary as itself:
    the copy is rebuilt from ``args`` and ``__dict__`` without re-running
    the subclass ``__init__``, whose signature is not ``args`` (the default
    ``Exception`` reduction would call ``cls(*args)``, which fails for
    constructors taking several fields and formats a message twice for the
    rest).
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class NetworkError(ReproError):
    """Invalid network construction or wiring (unknown node, bad link...)."""


class NodeDetachedError(NetworkError):
    """A node operation required network attachment but the node has none."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"node {node_id} is not attached to a network")
        self.node_id = node_id


class UnknownNodeError(NetworkError):
    """A node id was referenced that is not part of the network."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class LinkExistsError(NetworkError):
    """Attempted to connect two nodes that are already linked."""


class NotConnectedError(NetworkError):
    """An operation required a link between two nodes that does not exist."""


class SendTimeoutError(NetworkError):
    """A supernode-side injection timed out before reaching the target.

    Models the RPC/DevP2P send timeouts the real tool hits against live
    peers; the measurement stack converts it into a failed set-up
    (``EdgeEvidence.setup_ok`` false) and retries with backoff rather than
    aborting.
    """

    def __init__(self, peer_id: str, detail: str = "") -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(f"send to {peer_id!r} timed out{suffix}")
        self.peer_id = peer_id


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (negative rate, bad probability)."""


class BehaviorPlanError(ReproError):
    """A Byzantine behavior mix is malformed (bad fraction, unknown kind)."""


class InvariantViolationError(SimulationError):
    """A runtime invariant failed on a node with no installed misbehavior.

    Only raised in the checker's strict mode, and only for violations by
    *honest* nodes: a Byzantine node breaking protocol invariants is the
    behavior model working as intended, so those are recorded and counted
    but never fatal.
    """


class SnapshotError(SimulationError):
    """Network/simulator state cannot be snapshotted or restored.

    Raised when a snapshot is requested at a non-quiescent instant (live
    events still queued), while a fault plan is armed, or when a restore
    targets a world that has structurally diverged from the snapshot
    (nodes added or removed, chain advanced by a miner).
    """


class ObservabilityError(ReproError):
    """Invalid metrics/trace usage (type conflict, negative counter step...)."""


class TransactionError(ReproError):
    """Invalid transaction construction or signing."""


class MempoolError(ReproError):
    """Invalid mempool operation (not admission rejections, real misuse)."""


class MeasurementError(ReproError):
    """TopoShot measurement could not be carried out as requested."""


class UnsupportedClientError(MeasurementError):
    """The target runs a client TopoShot cannot measure (R == 0).

    The paper (Section 5.1) shows that Nethermind and Aleth set the
    replacement price bump R to zero, which removes the price band TopoShot
    needs to enforce isolation; those clients are not measurable.
    """


class CheckpointError(MeasurementError):
    """A campaign checkpoint could not be read, or does not match the run."""


class AnalysisError(ReproError):
    """Graph analysis could not be computed (e.g. metrics on an empty graph)."""


# ----------------------------------------------------------------------
# Measurement-service taxonomy (repro.service)
# ----------------------------------------------------------------------
class ServiceError(ReproError):
    """Base class for measurement-service failures (repro.service).

    Every subclass carries a stable ``code`` used as the machine-readable
    error type in API responses and journal records, so clients and the
    recovery path dispatch on ``code`` rather than parsing messages.
    """

    code = "service_error"
    #: HTTP-ish status the API layer maps this error to.
    http_status = 500

    def to_dict(self) -> dict:
        return {"type": self.code, "detail": str(self)}


class BadRequest(ServiceError):
    """The client's request is malformed (bad job spec, unknown job kind,
    unparsable HTTP request or body) — a 400, not a server fault."""

    code = "bad_request"
    http_status = 400


class NotFound(ServiceError):
    """The referenced job id is unknown to this service incarnation
    (never submitted, or already evicted by terminal-record retention)."""

    code = "not_found"
    http_status = 404


class AdmissionRejected(ServiceError):
    """Base for typed 429-style load-shedding rejections.

    ``retry_after`` is the server's hint (in seconds) for when a retry
    could succeed — the token-bucket refill horizon for quota rejections,
    a fixed pushback for full queues.
    """

    code = "admission_rejected"
    http_status = 429

    def __init__(self, detail: str, retry_after: float = 1.0) -> None:
        super().__init__(detail)
        self.retry_after = float(retry_after)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["retry_after"] = self.retry_after
        return payload


class QuotaExceeded(AdmissionRejected):
    """A tenant's token-bucket quota (jobs/s or node-seconds/s) ran dry."""

    code = "quota_exceeded"


class QueueFull(AdmissionRejected):
    """A bounded queue (global or per-tenant) is at capacity: load is shed
    instead of growing the queue without bound."""

    code = "queue_full"


class JobTimeout(ServiceError):
    """A job exceeded its deadline; completed shards survive as a partial
    result (checkpointed at shard granularity)."""

    code = "job_timeout"
    http_status = 504


class JobCancelled(ServiceError):
    """A job was cancelled (by the client, or requeued by a service drain)."""

    code = "job_cancelled"
    http_status = 409

    def __init__(self, detail: str = "job cancelled", requeue: bool = False) -> None:
        super().__init__(detail)
        #: Drain-time cancellations requeue the job instead of killing it.
        self.requeue = requeue


class CircuitOpen(ServiceError):
    """The worker-pool circuit breaker is open: execution is failing fast
    instead of hammering a broken pool. Jobs are requeued, not failed."""

    code = "circuit_open"
    http_status = 503

    def __init__(self, detail: str, retry_after: float = 0.0) -> None:
        super().__init__(detail)
        self.retry_after = float(retry_after)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["retry_after"] = self.retry_after
        return payload


# ----------------------------------------------------------------------
# RPC transport taxonomy (repro.eth.rpc)
# ----------------------------------------------------------------------
class RpcError(ReproError):
    """Base class for RPC transport failures against a target endpoint.

    Every subclass carries a stable ``code`` so the resilient client and
    the degraded-mode inference path dispatch on the error *kind* (retry?
    back off? comply with a rate limit? give up?) instead of parsing
    messages. ``retryable`` tells the client whether another attempt at
    the same endpoint can ever succeed.
    """

    code = "rpc_error"
    retryable = False


class RpcUnavailableError(RpcError):
    """The target node does not expose an RPC interface.

    A *permanent* condition of the target's configuration
    (``responds_to_rpc=False``): retrying cannot help, so the client
    re-raises immediately and pre-processing rejects the target.
    """

    code = "rpc_unavailable"


class RpcMethodNotFoundError(RpcError, KeyError):
    """The endpoint does not implement the requested method.

    Subclasses :class:`KeyError` for backward compatibility with callers
    that caught the bare ``KeyError`` :meth:`RpcServer.call` used to
    raise; new code should catch this type (or :class:`RpcError`).
    """

    code = "rpc_method_not_found"

    def __init__(self, method: str) -> None:
        super().__init__(f"unknown RPC method {method!r}")
        self.method = method

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class RpcTimeoutError(RpcError):
    """A call exceeded its per-attempt deadline (slow or wedged endpoint).

    The client has already waited the deadline out when this surfaces;
    retrying (or hedging, for snapshot-critical reads) may succeed.
    """

    code = "rpc_timeout"
    retryable = True

    def __init__(self, node_id: str, method: str, deadline: float) -> None:
        super().__init__(
            f"RPC {method} to {node_id} timed out after {deadline:g}s"
        )
        self.node_id = node_id
        self.method = method
        self.deadline = float(deadline)


class RpcTransientError(RpcError):
    """The endpoint answered with a transient server-side failure (a 5xx:
    overloaded worker, internal error). Retrying after backoff may succeed."""

    code = "rpc_transient"
    retryable = True


class RpcConnectionError(RpcError):
    """The endpoint's transport is down (connection refused / flapping).

    Distinct from :class:`RpcUnavailableError`: the target *does* serve
    RPC, but its listener is currently unreachable — retrying after the
    flap heals may succeed."""

    code = "rpc_connection"
    retryable = True


class RpcRateLimitedError(RpcError):
    """The endpoint rejected the call with a 429-style throttle.

    ``retry_after`` is the server's refill hint in (simulated) seconds; a
    compliant client waits at least that long instead of hammering."""

    code = "rpc_rate_limited"
    retryable = True

    def __init__(self, node_id: str, retry_after: float) -> None:
        super().__init__(
            f"RPC to {node_id} rate-limited, retry after {retry_after:g}s"
        )
        self.node_id = node_id
        self.retry_after = float(retry_after)


class RpcExhaustedError(RpcError):
    """The resilient client gave up on a call: every attempt within the
    retry budget failed, or the endpoint's circuit breaker is open.

    Carries the last transport error so diagnostics keep the root cause;
    degraded-mode inference maps this to *unknown*, never to a negative."""

    code = "rpc_exhausted"

    def __init__(
        self,
        node_id: str,
        method: str,
        attempts: int,
        last_error: "RpcError | None" = None,
    ) -> None:
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"RPC {method} to {node_id} failed after {attempts} attempt(s){detail}"
        )
        self.node_id = node_id
        self.method = method
        self.attempts = int(attempts)
        self.last_error = last_error
