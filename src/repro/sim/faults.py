"""Deterministic fault injection for simulated measurement campaigns.

The seed network is perfectly reliable, so the reproduction never exercised
the failure modes the paper's live deployment fought (Sections 6-7): lossy
links, peers churning in and out, nodes restarting with empty mempools, and
send timeouts on the measurement node itself. This module adds all of them
behind a single seed-driven :class:`FaultPlan`:

- **message loss** — every delivery is dropped with a per-link probability;
- **extra delay** — an exponential delay term added on top of the latency
  model (congestion, slow peers);
- **link churn** — a Poisson process disconnects a random live link and
  reconnects it after a downtime (the <5% unstable peers of Section 6.1);
- **node crash/restart** — a Poisson process crashes a random target; while
  down it neither sends nor receives, and on restart its mempool and
  per-peer known-transaction state are wiped (a rebooted Geth with the
  transaction journal disabled, the paper's testnet configuration);
- **send timeouts** — the supernode's direct injections fail with a
  probability, surfacing as :class:`~repro.errors.SendTimeoutError`;
- **RPC-plane faults** — the measurer's own JSON-RPC calls time out, fail
  transiently, hit a rate limit or find the listener flapped away
  (:class:`RpcFaultPlan`, drawn from its own ``"rpc"`` stream).

The wire faults sample from one named RNG stream (``"faults"``), and
everything runs through the simulator's event queue, so a (seed, FaultPlan)
pair fully determines the run: same seed + same plan = byte-identical
measurement results. With no plan installed the network behaves exactly as
before, and a plan that cannot drop or delay a link message (RPC faults
only, say) adds no per-message work: the transport never consults its loss
and delay hooks.

Typical usage::

    plan = FaultPlan(loss_rate=0.05, churn_rate=0.01, crash_rate=0.002)
    network.install_faults(plan)
    shot = TopoShot.attach(network)
    measurement = shot.measure_network()   # now survives the weather
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.errors import FaultPlanError
from repro.obs import wiring
from repro.resilience import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise FaultPlanError(f"{name} must be non-negative, got {value}")


class _FieldCodec:
    """JSON codec derived from the dataclass fields, so a field added to
    a plan cannot be forgotten by its serialized form (campaign specs and
    their fingerprints carry plans across processes)."""

    def to_dict(self) -> dict:
        return asdict(self)  # type: ignore[call-overload]

    @classmethod
    def from_dict(cls, payload: dict):
        return cls(**payload)


@dataclass(frozen=True)
class LinkFaults(_FieldCodec):
    """Per-link override of the plan-wide loss/delay behaviour."""

    loss_rate: float = 0.0
    extra_delay_mean: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("loss_rate", self.loss_rate)
        _check_non_negative("extra_delay_mean", self.extra_delay_mean)


@dataclass(frozen=True)
class RpcFaultPlan(_FieldCodec):
    """Adversity on the *measurement plane*: the JSON-RPC calls themselves.

    The wire faults above degrade the network under measurement; this plan
    degrades the measurer's view of it — the throttled public endpoints,
    timed-out calls and flapping connections a live deployment fights
    (Section 6). Installed as the ``rpc`` field of a :class:`FaultPlan`,
    consulted by :class:`repro.eth.rpc.RpcEndpoint` on every call, and
    sampled from its own named RNG stream (``"rpc"``) so composing it with
    wire faults never perturbs their draw sequences.

    Attributes
    ----------
    timeout_rate:
        Probability any single call attempt times out (the client burns its
        per-method deadline waiting). Drawn together with ``error_rate``
        from one uniform sample, so the two must sum to at most 1.
    error_rate:
        Probability any single call attempt fails with a transient
        server-side error (a 5xx).
    rate_limit_per_second:
        Token-bucket refill rate per endpoint; once the bucket runs dry
        calls are rejected with a 429-style error carrying the refill
        horizon as ``retry_after``. 0 disables rate limiting.
    rate_limit_burst:
        Bucket capacity (maximum burst of back-to-back calls).
    flap_rate:
        Expected connection flaps per simulated second (Poisson). Each
        flap takes one random RPC-serving target's listener down for
        ``flap_downtime`` seconds; calls fail with a connection error.
    flap_downtime:
        Seconds a flapped endpoint stays unreachable.
    """

    timeout_rate: float = 0.0
    error_rate: float = 0.0
    rate_limit_per_second: float = 0.0
    rate_limit_burst: int = 8
    flap_rate: float = 0.0
    flap_downtime: float = 3.0

    def __post_init__(self) -> None:
        _check_probability("timeout_rate", self.timeout_rate)
        _check_probability("error_rate", self.error_rate)
        if self.timeout_rate + self.error_rate > 1.0:
            raise FaultPlanError(
                "timeout_rate + error_rate must not exceed 1, got "
                f"{self.timeout_rate + self.error_rate}"
            )
        _check_non_negative("rate_limit_per_second", self.rate_limit_per_second)
        _check_non_negative("flap_rate", self.flap_rate)
        if self.rate_limit_per_second > 0 and self.rate_limit_burst < 1:
            raise FaultPlanError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )
        if self.flap_downtime <= 0:
            raise FaultPlanError(
                f"flap_downtime must be positive, got {self.flap_downtime}"
            )

    @property
    def enabled(self) -> bool:
        """True if any RPC fault can ever fire under this plan."""
        return bool(
            self.timeout_rate
            or self.error_rate
            or self.rate_limit_per_second
            or self.flap_rate
        )

    @classmethod
    def uniform(cls, rate: float, **overrides: object) -> "RpcFaultPlan":
        """A plan where every call fails in transport with probability
        ``rate``, split evenly between timeouts and transient errors. The
        benchmark's "X% per-call fault rate" knob."""
        _check_probability("rate", rate)
        params: dict = {
            "timeout_rate": rate / 2.0,
            "error_rate": rate / 2.0,
        }
        params.update(overrides)  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan(_FieldCodec):
    """A complete, validated description of the adversity to inject.

    Attributes
    ----------
    loss_rate:
        Probability that any single delivery is silently dropped.
    extra_delay_mean:
        Mean of an exponential delay added to every surviving delivery
        (0 disables it).
    link_overrides:
        Map of undirected link (``frozenset({a, b})``) to a
        :class:`LinkFaults` that replaces the plan-wide loss/delay on that
        link only.
    churn_rate:
        Expected link-churn events per simulated second (Poisson process).
        Each event disconnects one random live target-target link and
        reconnects it ``churn_downtime`` seconds later.
    churn_downtime:
        Seconds a churned link stays down.
    churn_supernode_links:
        Whether the supernode's own links are eligible for churn (default
        no: the paper's measurement node keeps stable connections).
    crash_rate:
        Expected node crashes per simulated second (Poisson process). Each
        event crashes one random non-supernode node for
        ``crash_downtime`` seconds; restart wipes its mempool and
        known-transaction state.
    crash_downtime:
        Seconds a crashed node stays down.
    send_timeout_rate:
        Probability that one ``Supernode.send_transactions`` call times out
        (raises :class:`~repro.errors.SendTimeoutError`) instead of sending.
    rpc:
        Optional :class:`RpcFaultPlan` degrading the measurement plane
        itself (call timeouts, transient errors, rate limits, connection
        flaps). Samples from its own ``"rpc"`` RNG stream, so it composes
        with the wire faults above without perturbing their sequences.
    """

    loss_rate: float = 0.0
    extra_delay_mean: float = 0.0
    link_overrides: Dict[FrozenSet[str], LinkFaults] = field(default_factory=dict)
    churn_rate: float = 0.0
    churn_downtime: float = 5.0
    churn_supernode_links: bool = False
    crash_rate: float = 0.0
    crash_downtime: float = 10.0
    send_timeout_rate: float = 0.0
    rpc: Optional[RpcFaultPlan] = None

    def __post_init__(self) -> None:
        _check_probability("loss_rate", self.loss_rate)
        _check_probability("send_timeout_rate", self.send_timeout_rate)
        _check_non_negative("extra_delay_mean", self.extra_delay_mean)
        _check_non_negative("churn_rate", self.churn_rate)
        _check_non_negative("crash_rate", self.crash_rate)
        if self.churn_downtime <= 0:
            raise FaultPlanError(
                f"churn_downtime must be positive, got {self.churn_downtime}"
            )
        if self.crash_downtime <= 0:
            raise FaultPlanError(
                f"crash_downtime must be positive, got {self.crash_downtime}"
            )

    @property
    def enabled(self) -> bool:
        """True if any fault can ever fire under this plan."""
        return bool(
            self.loss_rate
            or self.extra_delay_mean
            or self.link_overrides
            or self.churn_rate
            or self.crash_rate
            or self.send_timeout_rate
            or (self.rpc is not None and self.rpc.enabled)
        )

    def to_dict(self) -> dict:
        payload = super().to_dict()  # nested plans are already plain dicts
        payload["link_overrides"] = sorted(
            [sorted(link), faults]
            for link, faults in payload["link_overrides"].items()
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        values = dict(payload)
        values["link_overrides"] = {
            frozenset(link): LinkFaults.from_dict(faults)
            for link, faults in payload.get("link_overrides", ())
        }
        if payload.get("rpc") is not None:
            values["rpc"] = RpcFaultPlan.from_dict(payload["rpc"])
        return cls(**values)

    def link_faults(self, a: str, b: str) -> Tuple[float, float]:
        """(loss_rate, extra_delay_mean) effective on link a--b."""
        override = self.link_overrides.get(frozenset((a, b)))
        if override is not None:
            return override.loss_rate, override.extra_delay_mean
        return self.loss_rate, self.extra_delay_mean


def _log_fault(network: "Network", kind: str, detail: str) -> None:
    """Record one fired fault: a ``(time, "fault", kind, detail)`` event
    plus the ``FAULTS_FIRED`` counter, in the network's bundle.

    ``kind`` is ``loss``, ``churn_down``, ``churn_up``, ``crash``,
    ``restart``, ``send_timeout``, ``rpc_timeout``, ``rpc_error``,
    ``rpc_rate_limit``, ``rpc_flap_down`` or ``rpc_flap_up``.
    """
    obs = network.obs
    if obs.enabled:
        obs.emit(network.sim.now, "fault", kind, detail)
        obs.metrics.counter(wiring.FAULTS_FIRED, labels={"kind": kind}).inc()


class RpcFaultState:
    """Runtime state of an :class:`RpcFaultPlan` (owned by the injector).

    Consulted by :class:`repro.eth.rpc.RpcEndpoint` on every call. All
    randomness comes from the ``"rpc"`` stream; the draw order per call is
    fixed (flap check — no draw; token bucket — no draw; one transport
    draw), so a (seed, plan, call sequence) triple fully determines the
    faults that fire.
    """

    def __init__(self, network: "Network", plan: RpcFaultPlan) -> None:
        # No reference back to the injector: it holds this state, so a
        # back-reference would make every discarded injector a cycle.
        self.network = network
        self.plan = plan
        self._rng = self.network.sim.rng.stream("rpc")
        self._active = True
        self._buckets: Dict[str, TokenBucket] = {}
        self._down_until: Dict[str, float] = {}
        self.timeouts = 0
        self.transient_errors = 0
        self.rate_limited = 0
        self.flaps = 0
        if plan.flap_rate > 0:
            self._schedule_next_flap()

    # -- per-call hooks (called by RpcEndpoint) ------------------------
    def endpoint_down(self, node_id: str) -> bool:
        """True while ``node_id``'s listener is flapped away (no draw)."""
        return self.network.sim.now < self._down_until.get(node_id, 0.0)

    def consume_token(self, node_id: str) -> Optional[float]:
        """Take one token from ``node_id``'s bucket.

        Returns ``None`` when admitted, else the ``retry_after`` horizon
        (seconds until one token refills). Deterministic — no RNG draw.
        """
        if self.plan.rate_limit_per_second <= 0:
            return None
        bucket = self._buckets.get(node_id)
        if bucket is None:
            bucket = self._buckets[node_id] = TokenBucket(
                self.plan.rate_limit_per_second,
                self.plan.rate_limit_burst,
                clock=self.network.sim.clock,
            )
        if bucket.try_take():
            return None
        self.rate_limited += 1
        _log_fault(self.network, "rpc_rate_limit", node_id)
        return bucket.retry_after()

    def transport_fault(self, node_id: str) -> Optional[str]:
        """One uniform draw deciding this attempt's transport fate.

        Returns ``"timeout"``, ``"error"``, or ``None`` (call goes
        through). No draw at all when both rates are zero.
        """
        timeout, error = self.plan.timeout_rate, self.plan.error_rate
        if timeout <= 0.0 and error <= 0.0:
            return None
        sample = self._rng.random()
        if sample < timeout:
            self.timeouts += 1
            _log_fault(self.network, "rpc_timeout", node_id)
            return "timeout"
        if sample < timeout + error:
            self.transient_errors += 1
            _log_fault(self.network, "rpc_error", node_id)
            return "error"
        return None

    # -- connection flaps (Poisson over RPC-serving targets) -----------
    def _schedule_next_flap(self) -> None:
        delay = self._rng.expovariate(self.plan.flap_rate)
        self.network.sim.schedule(
            delay, self._flap_once, label="fault:rpc_flap", daemon=True
        )

    def _flap_once(self) -> None:
        if not self._active:
            return
        now = self.network.sim.now
        victims = sorted(
            nid
            for nid in self.network.measurable_node_ids()
            if self.network.node(nid).config.responds_to_rpc
            and not self.endpoint_down(nid)
        )
        if victims:
            victim = self._rng.choice(victims)
            self._down_until[victim] = now + self.plan.flap_downtime
            self.flaps += 1
            _log_fault(self.network, "rpc_flap_down", victim)
            self.network.sim.schedule(
                self.plan.flap_downtime,
                lambda: _log_fault(self.network, "rpc_flap_up", victim),
                label=f"fault:rpc_flap_up:{victim}",
                daemon=True,
            )
        self._schedule_next_flap()

    def stop(self) -> None:
        """Disarm: no new faults, and flapped listeners come back up so a
        stopped injector leaves no endpoint unreachable."""
        self._active = False
        self._down_until.clear()


class FaultInjector:
    """Runtime binding of a :class:`FaultPlan` to one network.

    Created by :meth:`repro.eth.network.Network.install_faults`. All
    randomness comes from the simulator's ``"faults"`` stream; churn and
    crash processes self-reschedule through daemon events so they never keep
    ``settle()`` from terminating.
    """

    def __init__(self, network: "Network", plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self._rng = network.sim.rng.stream("faults")
        self.messages_dropped = 0
        self.send_timeouts = 0
        self.crashes = 0
        self.churn_events = 0
        self._active = True
        # Whether the plan can drop or delay a link message, read once:
        # Network._transmit consults the per-message hooks only if so.
        self.drops_or_delays = bool(plan.loss_rate or plan.extra_delay_mean) or any(
            o.loss_rate or o.extra_delay_mean for o in plan.link_overrides.values()
        )
        self.rpc: Optional[RpcFaultState] = (
            RpcFaultState(network, plan.rpc)
            if plan.rpc is not None and plan.rpc.enabled
            else None
        )
        if plan.churn_rate > 0:
            self._schedule_next_churn()
        if plan.crash_rate > 0:
            self._schedule_next_crash()

    # ------------------------------------------------------------------
    # Per-delivery hooks (called by Network._transmit if drops_or_delays)
    # ------------------------------------------------------------------
    def should_drop(self, from_id: str, to_id: str) -> bool:
        """Sample the loss coin for one delivery on link from--to."""
        loss, _ = self.plan.link_faults(from_id, to_id)
        if loss <= 0.0:
            return False
        if self._rng.random() >= loss:
            return False
        self.messages_dropped += 1
        _log_fault(self.network, "loss", f"{from_id}->{to_id}")
        return True

    def extra_delay(self, from_id: str, to_id: str) -> float:
        """Sample the additional delivery delay for link from--to."""
        _, mean = self.plan.link_faults(from_id, to_id)
        if mean <= 0.0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def send_times_out(self, peer_id: str) -> bool:
        """Sample the timeout coin for one supernode injection."""
        rate = self.plan.send_timeout_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.send_timeouts += 1
        _log_fault(self.network, "send_timeout", peer_id)
        return True

    # ------------------------------------------------------------------
    # Link churn (Poisson process over live links)
    # ------------------------------------------------------------------
    def _schedule_next_churn(self) -> None:
        delay = self._rng.expovariate(self.plan.churn_rate)
        self.network.sim.schedule(
            delay, self._churn_once, label="fault:churn", daemon=True
        )

    def _churn_once(self) -> None:
        if not self._active:
            return
        link = self._pick_churnable_link()
        if link is not None:
            a, b = sorted(link)
            self.network.disconnect(a, b)
            self.churn_events += 1
            _log_fault(self.network, "churn_down", f"{a}--{b}")
            self.network.sim.schedule(
                self.plan.churn_downtime,
                lambda: self._reconnect(a, b),
                label=f"fault:reconnect:{a}--{b}",
                daemon=True,
            )
        self._schedule_next_churn()

    def _pick_churnable_link(self) -> Optional[FrozenSet[str]]:
        supernodes = self.network.supernode_ids
        candidates = sorted(
            (tuple(sorted(link)) for link in self.network.links()
             if self.plan.churn_supernode_links or not (link & supernodes)),
        )
        if not candidates:
            return None
        return frozenset(self._rng.choice(candidates))

    def _reconnect(self, a: str, b: str) -> None:
        # Heals run even after stop(): a disarmed injector must not leave
        # the network in the broken state it created.
        if a in self.network and b in self.network and not self.network.are_connected(a, b):
            self.network.connect(a, b, force=True)
            _log_fault(self.network, "churn_up", f"{a}--{b}")

    # ------------------------------------------------------------------
    # Crash/restart (Poisson process over non-supernode nodes)
    # ------------------------------------------------------------------
    def _schedule_next_crash(self) -> None:
        delay = self._rng.expovariate(self.plan.crash_rate)
        self.network.sim.schedule(
            delay, self._crash_once, label="fault:crash", daemon=True
        )

    def _crash_once(self) -> None:
        if not self._active:
            return
        victims = [
            nid for nid in self.network.measurable_node_ids()
            if not self.network.node(nid).crashed
        ]
        if victims:
            victim = self._rng.choice(sorted(victims))
            self.network.node(victim).crash()
            self.crashes += 1
            _log_fault(self.network, "crash", victim)
            self.network.sim.schedule(
                self.plan.crash_downtime,
                lambda: self._restart(victim),
                label=f"fault:restart:{victim}",
                daemon=True,
            )
        self._schedule_next_crash()

    def _restart(self, node_id: str) -> None:
        # Heals run even after stop(), like _reconnect.
        if node_id in self.network:
            self.network.node(node_id).restart()
            _log_fault(self.network, "restart", node_id)

    # ------------------------------------------------------------------
    # Lifecycle / bookkeeping
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Disarm the injector: no new faults fire, but pending heals
        (reconnects, restarts) still run so nothing stays broken."""
        self._active = False
        if self.rpc is not None:
            self.rpc.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(dropped={self.messages_dropped}, "
            f"churn={self.churn_events}, crashes={self.crashes}, "
            f"send_timeouts={self.send_timeouts})"
        )
