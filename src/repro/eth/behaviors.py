"""Byzantine per-node misbehavior policies.

The paper's live campaigns (Sections 6-7) ran against peers that do not
follow the reference client's transaction-propagation contract: the R=0
equal-price replacement flaw (EXPERIMENTS.md caveat 3), censoring or lazy
relays, and stale clients running pre-1.9.11 policy tables. TxProbe
documents how such "invisible" peers corrupt topology inference, and
DEthna claims robustness against exactly this noise. This module makes
those peers reproducible: a :class:`BehaviorMix` assigns one misbehavior
*kind* to a seed-determined subset of nodes, so ``(seed, mix)`` fully
determines a run, composing with :class:`~repro.sim.faults.FaultPlan`
(network weather) and with ``capture_state``/``restore_state`` snapshots.

Behavior catalog (one kind per node):

``censor``
    Admits transactions normally but never relays the ones matching a
    deterministic hash predicate — the selective-censorship relay that
    turns into false *negatives* downstream.
``lazy_relay``
    Announces everything it admits but never serves transaction bodies
    (drops ``GetPooledTransactions``), burning its peers' announcement
    hold windows — TxProbe's "invisible peer".
``spoof_relay``
    Forwards every transaction it receives, including ones its own pool
    rejected (underpriced replacements, future floods). This is the
    precision killer: it re-propagates ``txA`` past the price band and
    strips ``txC`` eviction shields off honest neighbours.
``nonconforming_replacer``
    Runs with R=0 (the equal-price replacement flaw): any equal-or-better
    price replaces, so ``txA`` replaces ``txC`` on a node that was never
    probed — breaking TopoShot's isolation invariant.
``duplicate_spammer``
    Ignores known-transaction suppression and re-pushes bodies its peers
    already have, wasting bandwidth and tripping the duplicate-push
    invariant.
``stale_client``
    An old policy table: pushes to *all* peers (pre-Geth-1.9.11) and
    forwards future transactions (the misbehavior Section 6.2.1's
    pre-processing filters out).

Installation patches node *instances* only — dispatch-table entries,
the ``broadcast_transaction`` attribute, the node config, the mempool
policy — so the
hot paths of uninstalled nodes are untouched, and
:meth:`BehaviorSet.uninstall_all` (via
:meth:`repro.eth.network.Network.clear_behaviors`) restores the
originals exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import BehaviorPlanError
from repro.eth.mempool import Mempool
from repro.eth.messages import GetPooledTransactions, Message, PooledTransactions, Transactions
from repro.eth.node import KnownTxCache, Node
from repro.eth.policies import MempoolPolicy
from repro.eth.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network

#: Assignment order — fixed, so a mix draws the same nodes for any seed.
BEHAVIOR_KINDS: Tuple[str, ...] = (
    "censor",
    "lazy_relay",
    "spoof_relay",
    "nonconforming_replacer",
    "duplicate_spammer",
    "stale_client",
)

#: Cap on retained per-action event records (counters stay exact).
MAX_BEHAVIOR_EVENTS = 2000

#: FIFO bound for per-node runtime caches (spoofed/censored hashes).
_RUNTIME_CACHE_LIMIT = 32768


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise BehaviorPlanError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class BehaviorMix:
    """Per-kind population fractions of Byzantine nodes.

    Fractions are of the network's *eligible* nodes (supernodes are never
    Byzantine) and must sum to <= 1; the remainder stays honest. Which
    node draws which kind comes from the simulator's ``"behaviors"``
    named RNG stream, so the assignment is a pure function of
    ``(seed, mix)``.
    """

    censor: float = 0.0
    lazy_relay: float = 0.0
    spoof_relay: float = 0.0
    nonconforming_replacer: float = 0.0
    duplicate_spammer: float = 0.0
    stale_client: float = 0.0
    # Knobs shared by the installed behaviors.
    censor_selectivity: float = 0.5  # fraction of tx hashes a censor drops
    spam_rate: float = 0.25  # per-received-tx re-push probability
    spam_fanout: int = 2  # peers per duplicate re-push

    def __post_init__(self) -> None:
        for kind in BEHAVIOR_KINDS:
            _check_fraction(kind, getattr(self, kind))
        _check_fraction("censor_selectivity", self.censor_selectivity)
        _check_fraction("spam_rate", self.spam_rate)
        if self.spam_fanout < 1:
            raise BehaviorPlanError(
                f"spam_fanout must be >= 1, got {self.spam_fanout!r}"
            )
        total = sum(getattr(self, kind) for kind in BEHAVIOR_KINDS)
        if total > 1.0 + 1e-9:
            raise BehaviorPlanError(
                f"behavior fractions sum to {total:.3f} > 1"
            )

    @property
    def enabled(self) -> bool:
        return any(getattr(self, kind) > 0.0 for kind in BEHAVIOR_KINDS)

    @property
    def total_fraction(self) -> float:
        return sum(getattr(self, kind) for kind in BEHAVIOR_KINDS)

    @classmethod
    def uniform(cls, fraction: float, **knobs: object) -> "BehaviorMix":
        """Spread ``fraction`` of the population evenly over all kinds."""
        _check_fraction("fraction", fraction)
        share = fraction / len(BEHAVIOR_KINDS)
        return cls(**{kind: share for kind in BEHAVIOR_KINDS}, **knobs)  # type: ignore[arg-type]

    @classmethod
    def from_spec(cls, spec: str) -> "BehaviorMix":
        """Parse ``"kind:frac,kind:frac"`` (the CLI's ``--byzantine-mix``)."""
        values: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, raw = part.partition(":")
            kind = kind.strip()
            if not sep or kind not in BEHAVIOR_KINDS:
                raise BehaviorPlanError(
                    f"bad mix entry {part!r}; expected one of "
                    f"{', '.join(BEHAVIOR_KINDS)} as 'kind:fraction'"
                )
            try:
                values[kind] = float(raw)
            except ValueError as exc:
                raise BehaviorPlanError(
                    f"bad fraction in mix entry {part!r}"
                ) from exc
        if not values:
            raise BehaviorPlanError(f"empty behavior mix spec: {spec!r}")
        return cls(**values)  # type: ignore[arg-type]

    @classmethod
    def from_flags(
        cls, spec: Optional[str], fraction: Optional[float]
    ) -> Optional["BehaviorMix"]:
        """The mix a ``--byzantine-mix`` / ``--byzantine-frac`` pair asks
        for (``None`` when neither is given; giving both is an error)."""
        if spec and fraction is not None:
            raise ValueError("--byzantine-mix and --byzantine-frac are mutually exclusive")
        if spec:
            return cls.from_spec(spec)
        if fraction is not None:
            return cls.uniform(fraction)
        return None

    def scaled(self, factor: float) -> "BehaviorMix":
        """Same relative kind weights at ``factor`` times the fractions."""
        if factor < 0:
            raise BehaviorPlanError(f"scale factor must be >= 0, got {factor!r}")
        changes = {
            kind: getattr(self, kind) * factor for kind in BEHAVIOR_KINDS
        }
        return replace(self, **changes)

    def describe(self) -> str:
        parts = [
            f"{kind}={getattr(self, kind):.3f}"
            for kind in BEHAVIOR_KINDS
            if getattr(self, kind) > 0.0
        ]
        return ", ".join(parts) if parts else "all-honest"


@dataclass(frozen=True)
class BehaviorEvent:
    """One recorded Byzantine action (bounded; counters stay exact)."""

    time: float
    kind: str
    node: str
    detail: str


def _censored(tx_hash: str, selectivity: float) -> bool:
    """Deterministic hash predicate: same tx censored on every censor."""
    return (zlib.crc32(tx_hash.encode("ascii")) % 10000) < selectivity * 10000


class BehaviorSet:
    """Runtime registry of installed behaviors on one network.

    Stored at ``network.behaviors`` by
    :meth:`repro.eth.network.Network.install_behaviors`. Holds the
    node->kind assignment, the nodes' original policies (the invariant
    checker's conformance reference), exact per-kind action counters and
    a bounded event trace, plus the per-node runtime caches that
    participate in network snapshots.
    """

    def __init__(self, network: "Network", mix: BehaviorMix) -> None:
        self.network = network
        self.mix = mix
        self.assignments: Dict[str, str] = {}
        self.original_policies: Dict[str, MempoolPolicy] = {}
        self.counts: Dict[str, int] = {}
        self.events: List[BehaviorEvent] = []
        self.total_actions = 0
        # kind -> node -> bounded cache of already-acted-on tx hashes.
        self._runtime_caches: Dict[str, KnownTxCache] = {}
        self._saved: Dict[str, Dict[str, object]] = {}
        self._rng = network.sim.rng.stream("behaviors-runtime")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def conforming_policy(self, node_id: str) -> Optional[MempoolPolicy]:
        """The policy this node *claims* to run (pre-install original)."""
        return self.original_policies.get(node_id)

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """Stable identity of the installed assignment, for snapshots."""
        return tuple(sorted(self.assignments.items()))

    def kind_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for kind in self.assignments.values():
            out[kind] = out.get(kind, 0) + 1
        return out

    def _note(self, kind: str, node_id: str, detail: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.total_actions += 1
        if len(self.events) < MAX_BEHAVIOR_EVENTS:
            self.events.append(
                BehaviorEvent(self.network.sim.now, kind, node_id, detail)
            )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install_on(self, node: Node, kind: str) -> None:
        if kind not in BEHAVIOR_KINDS:
            raise BehaviorPlanError(f"unknown behavior kind: {kind!r}")
        if node.id in self.assignments:
            raise BehaviorPlanError(
                f"node {node.id!r} already runs {self.assignments[node.id]!r}"
            )
        if node.id in self.network.supernode_ids:
            raise BehaviorPlanError(
                f"refusing to install {kind!r} on supernode {node.id!r}"
            )
        saved: Dict[str, object] = {
            "dispatch": dict(node._dispatch),
            "config": node.config,
            "policy": node.mempool.policy,
            "forwards_future": node._forwards_future,
            "broadcast": node.__dict__.get("broadcast_transaction"),
        }
        installer = getattr(self, f"_install_{kind}")
        installer(node)
        self.assignments[node.id] = kind
        self.original_policies[node.id] = saved["policy"]  # type: ignore[assignment]
        self._saved[node.id] = saved
        node.behavior = kind

    def uninstall_all(self) -> None:
        """Restore every patched node to its pre-install shape."""
        for node_id, saved in self._saved.items():
            node = self.network.node(node_id)
            node._dispatch = saved["dispatch"]  # type: ignore[assignment]
            node.config = saved["config"]  # type: ignore[assignment]
            node._forwards_future = saved["forwards_future"]  # type: ignore[assignment]
            node.mempool.set_policy(saved["policy"])  # type: ignore[arg-type]
            if saved["broadcast"] is None:
                node.__dict__.pop("broadcast_transaction", None)
            else:  # pragma: no cover - nested wrap, not produced here
                node.broadcast_transaction = saved["broadcast"]  # type: ignore[assignment]
            node.behavior = None
        self.assignments.clear()
        self.original_policies.clear()
        self._saved.clear()
        self._runtime_caches.clear()

    # -- censor --------------------------------------------------------
    def _install_censor(self, node: Node) -> None:
        original = node.broadcast_transaction
        selectivity = self.mix.censor_selectivity
        note = self._note
        node_id = node.id

        def censoring_broadcast(tx: Transaction) -> None:
            if _censored(tx.hash, selectivity):
                note("censor", node_id, tx.hash)
                return
            original(tx)

        node.broadcast_transaction = censoring_broadcast  # type: ignore[method-assign]

    # -- lazy relay ----------------------------------------------------
    def _install_lazy_relay(self, node: Node) -> None:
        # The node's own announce-only path (every unaware peer gets the
        # hash, nobody a body) plus never serving the bodies it announced.
        note = self._note
        node_id = node.id

        def drop_tx_request(from_id: str, msg: Message) -> None:
            note("lazy_relay", node_id, f"dropped request from {from_id}")

        node.config = replace(node.config, announce_only=True)
        node._dispatch[GetPooledTransactions] = drop_tx_request

    # -- spoofing relay ------------------------------------------------
    def _install_spoof_relay(self, node: Node) -> None:
        original = node._dispatch[Transactions]
        note = self._note
        node_id = node.id
        spoofed = self._runtime_caches.setdefault(
            f"spoof:{node_id}", KnownTxCache()
        )
        # Bounded against the node's own known-tx budget: a spoof cache
        # larger than what the node itself is allowed to remember is pure
        # unpruned growth on long adversarial runs.
        cache_limit = _RUNTIME_CACHE_LIMIT
        node_limit = node._known_tx_limit
        if node_limit is not None and node_limit < cache_limit:
            cache_limit = node_limit

        def spoofing_handle_txs(from_id: str, msg: Message) -> None:
            original(from_id, msg)
            pool_txs = node.mempool._by_hash
            for tx in msg.txs:
                tx_hash = tx.hash
                if tx_hash in pool_txs or tx_hash in spoofed:
                    continue
                # Forward a body the pool just rejected: the price band /
                # future filter no longer protects downstream peers.
                spoofed[tx_hash] = None
                if len(spoofed) > cache_limit:
                    spoofed.prune(cache_limit)
                note("spoof_relay", node_id, tx_hash)
                node.broadcast_transaction(tx)

        node._dispatch[Transactions] = spoofing_handle_txs
        node._dispatch[PooledTransactions] = spoofing_handle_txs

    # -- nonconforming replacer ----------------------------------------
    def _install_nonconforming_replacer(self, node: Node) -> None:
        # The R=0 flaw (EXPERIMENTS.md caveat 3): an equal price replaces.
        flawed = node.mempool.policy.with_bump(0.0)
        node.mempool.set_policy(flawed)
        node.config = replace(node.config, policy=flawed)
        self._note("nonconforming_replacer", node.id, "policy R=0 installed")

    # -- duplicate spammer ---------------------------------------------
    def _install_duplicate_spammer(self, node: Node) -> None:
        original = node._dispatch[Transactions]
        note = self._note
        node_id = node.id
        rng = self._rng
        rate = self.mix.spam_rate
        fanout = self.mix.spam_fanout

        def spamming_handle_txs(from_id: str, msg: Message) -> None:
            original(from_id, msg)
            network = node.network
            if network is None:  # pragma: no cover - defensive
                return
            pool_txs = node.mempool._by_hash
            for tx in msg.txs:
                if tx.hash not in pool_txs or rng.random() >= rate:
                    continue
                # Re-push ignoring per-peer known-tx suppression.
                peers = sorted(node.peers)
                targets = rng.sample(peers, min(fanout, len(peers)))
                for peer_id in targets:
                    network.send(node_id, peer_id, Transactions(txs=(tx,)))
                note("duplicate_spammer", node_id, tx.hash)

        node._dispatch[Transactions] = spamming_handle_txs
        node._dispatch[PooledTransactions] = spamming_handle_txs

    # -- stale client --------------------------------------------------
    def _install_stale_client(self, node: Node) -> None:
        # Pre-1.9.11 policy table: push everything to everyone and relay
        # future transactions (the Section 6.2.1 misbehavior).
        node.config = replace(
            node.config, push_to_all=True, forwards_future=True
        )
        node._forwards_future = True
        self._note("stale_client", node.id, "pre-1.9.11 policy table")

    def reset_runtime_caches(self) -> None:
        """Wipe per-behavior runtime caches (between measurement iterations).

        ``Network.forget_known_transactions`` calls this in lockstep with
        the nodes' own known-tx wipe: the cache *objects* are shared with
        the installed closures, so they are cleared in place, never
        replaced.
        """
        for cache in self._runtime_caches.values():
            cache.clear()

    # ------------------------------------------------------------------
    # Snapshot participation (see Network.snapshot/restore)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        return {
            "signature": self.signature(),
            "caches": {
                key: dict(cache)
                for key, cache in self._runtime_caches.items()
            },
            "counts": dict(self.counts),
            "total_actions": self.total_actions,
            "n_events": len(self.events),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        for key, cache in self._runtime_caches.items():
            cache.clear()
            cache.update(state["caches"].get(key, {}))  # type: ignore[union-attr]
        self.counts = dict(state["counts"])  # type: ignore[arg-type]
        self.total_actions = state["total_actions"]  # type: ignore[assignment]
        del self.events[state["n_events"] :]  # type: ignore[misc]


def assign_behaviors(
    network: "Network", mix: BehaviorMix
) -> Dict[str, str]:
    """Draw the node->kind assignment from the ``"behaviors"`` stream.

    Iterates eligible nodes in sorted-id order (supernodes excluded) and
    draws one uniform variate per node against the mix's cumulative
    fractions — a pure function of ``(seed, mix)``.
    """
    rng = network.sim.rng.stream("behaviors")
    assignment: Dict[str, str] = {}
    eligible = sorted(
        node_id
        for node_id in network.node_ids
        if node_id not in network.supernode_ids
    )
    for node_id in eligible:
        draw = rng.random()
        cumulative = 0.0
        for kind in BEHAVIOR_KINDS:
            cumulative += getattr(mix, kind)
            if draw < cumulative:
                assignment[node_id] = kind
                break
    return assignment
