"""Network container: nodes, links, message transport and ground truth.

The :class:`Network` owns the simulator, the latency model and the canonical
chain, wires nodes together, and — because it knows the true overlay graph —
provides the ground truth against which TopoShot's measured topology is
scored (the simulator-equivalent of the paper's local-node validation).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import (
    LinkExistsError,
    NetworkError,
    NotConnectedError,
    SnapshotError,
    UnknownNodeError,
)
from repro.eth.chain import Chain
from repro.eth.messages import Message
from repro.eth.node import Node, NodeConfig
from repro.obs import NULL, Observability, wiring
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.idmap import IdMap
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.snapshot import capture_simulator, restore_simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    import networkx as nx

    from repro.eth.behaviors import BehaviorMix, BehaviorSet
    from repro.eth.policies import MempoolPolicy
    from repro.sim.invariants import InvariantChecker


class Network:
    """A simulated Ethereum P2P network (one blockchain overlay).

    Parameters
    ----------
    sim:
        Discrete-event engine; a fresh one is created from ``seed`` if
        omitted.
    latency:
        One-way link latency model (default: uniform 20-120 ms).
    chain:
        Canonical chain shared by the network's miners.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        latency: Optional[LatencyModel] = None,
        chain: Optional[Chain] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim or Simulator(seed=seed)
        self.latency = latency or UniformLatency()
        self.chain = chain or Chain()
        self.nodes: Dict[str, Node] = {}
        # SoA core: strings at the API, ints inside. The intern table
        # assigns each node id a dense index in add_node order (stable per
        # generation seed — see repro.sim.idmap); `_node_list` and `_adj`
        # are index-aligned arrays the transport walks instead of
        # string-keyed dicts. `ids.names`/`ids.index` are bound once as
        # `_names`/`_index` for the per-message lookups.
        self.ids = IdMap()
        self._names: List[str] = self.ids.names  # index -> node id
        self._index: Dict[str, int] = self.ids.index  # node id -> index
        self._node_list: List[Node] = []  # index -> Node
        self._adj: List[Set[int]] = []  # index -> neighbor indices
        self._link_count = 0
        # Cached id tuples (satellite of the SoA refactor: node_ids and
        # measurable_node_ids used to rebuild O(N) lists inside campaign
        # hot loops). Invalidated on add_node; the length keys make the
        # caches self-healing if supernode_ids is mutated directly.
        self._node_ids_cache: Optional[Tuple[str, ...]] = None
        self._measurable_cache: Optional[
            Tuple[Tuple[int, int], Tuple[str, ...]]
        ] = None
        # Topology/liveness epoch. Bumped by connect/disconnect and node
        # crash/restart; a message delivered under the epoch it was sent in
        # cannot have lost its link or target, so delivery skips the guard
        # chain entirely in the (overwhelmingly common) quiet case.
        self._epoch = 0
        # Nodes currently down. The delivery fast path additionally
        # requires this to be zero: an *already* crashed target has the
        # same epoch at send and delivery time, yet must still drop.
        self._crashed_count = 0
        self._latency_rng = self.sim.rng.stream("latency")
        # Bound once: these run once per message.
        self._latency_random = self._latency_rng.random
        self._deliver_cb = self._deliver
        self.supernode_ids: Set[str] = set()
        self.messages_sent = 0
        self.messages_by_kind: Dict[str, int] = {}
        self.messages_dropped = 0
        self.drops_by_reason: Dict[str, int] = {}
        self.faults: Optional[FaultInjector] = None
        # Byzantine behavior registry (repro.eth.behaviors) and runtime
        # invariant checker (repro.sim.invariants). Both None by default:
        # behaviors patch node instances at install time and the checker
        # replaces _deliver_cb, so an uninstalled network runs the exact
        # hot-path code either way (the repro.obs zero-cost argument).
        self.behaviors: Optional["BehaviorSet"] = None
        self.invariants: Optional["InvariantChecker"] = None
        # Observability hook. NULL (the shared disabled bundle) makes every
        # ``self.obs.emit(...)`` site free; install_observability swaps in a
        # live bundle and registers the pull collectors.
        self.obs: Observability = NULL
        # Live fee market (repro.eth.fee_market). None by default: pools
        # only consult an attached market, so the uninstalled network runs
        # the exact seed admission path (golden fingerprints).
        self.fee_market = None
        # Lazily-built resilient RPC client (repro.eth.rpc). With no
        # RpcFaultPlan armed it forwards straight to the node's server.
        self._rpc_client = None

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node, supernode: bool = False) -> Node:
        """Attach a node; ``supernode`` marks measurement infrastructure
        excluded from ground-truth graphs."""
        if node.id in self.nodes:
            raise NetworkError(f"duplicate node id {node.id!r}")
        node.network = self
        self.nodes[node.id] = node
        node.index = self.ids.intern(node.id)
        self._node_list.append(node)
        self._adj.append(set())
        self._node_ids_cache = None
        self._measurable_cache = None
        if node.crashed:
            self._crashed_count += 1
        if supernode:
            self.supernode_ids.add(node.id)
        return node

    def create_node(
        self, node_id: str, config: Optional[NodeConfig] = None
    ) -> Node:
        """Create, attach and return a plain node."""
        return self.add_node(Node(node_id, self.sim, config))

    def node(self, node_id: str) -> Node:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        return self.nodes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> Tuple[str, ...]:
        """All node ids, add order (cached; nodes are never removed)."""
        cache = self._node_ids_cache
        if cache is None or len(cache) != len(self._names):
            cache = self._node_ids_cache = tuple(self._names)
        return cache

    def measurable_node_ids(self) -> Tuple[str, ...]:
        """All non-supernode node ids (cached against both set sizes)."""
        key = (len(self._names), len(self.supernode_ids))
        cached = self._measurable_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        supers = self.supernode_ids
        ids = tuple(nid for nid in self._names if nid not in supers)
        self._measurable_cache = (key, ids)
        return ids

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def connect(self, a: str, b: str, force: bool = False) -> None:
        """Create the active link a--b.

        Without ``force``, both endpoints must have a free peer slot.
        Supernodes connect with ``force=True`` (the paper's measurement node
        "is set up without bounds on its neighbors").
        """
        if a == b:
            raise NetworkError("cannot connect a node to itself")
        node_a, node_b = self.node(a), self.node(b)
        ia, ib = node_a.index, node_b.index
        adj = self._adj
        if ib in adj[ia]:
            raise LinkExistsError(f"link {a}--{b} already exists")
        if not force and not (node_a.can_accept_peer() and node_b.can_accept_peer()):
            raise NetworkError(f"no free peer slot for link {a}--{b}")
        adj[ia].add(ib)
        adj[ib].add(ia)
        self._link_count += 1
        self._epoch += 1
        node_a.add_peer(b)
        node_b.add_peer(a)

    def disconnect(self, a: str, b: str) -> None:
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None or ib not in self._adj[ia]:
            raise NotConnectedError(f"no link {a}--{b}")
        self._adj[ia].discard(ib)
        self._adj[ib].discard(ia)
        self._link_count -= 1
        self._epoch += 1
        self.node(a).remove_peer(b)
        self.node(b).remove_peer(a)

    def are_connected(self, a: str, b: str) -> bool:
        ia = self._index.get(a)
        if ia is None:
            return False
        ib = self._index.get(b)
        return ib is not None and ib in self._adj[ia]

    def neighbors(self, node_id: str) -> List[str]:
        return self.node(node_id).peer_ids

    @property
    def link_count(self) -> int:
        return self._link_count

    def _iter_links(self) -> Iterator[Tuple[str, str]]:
        """Each link once as ``(a, b)`` ids, lower intern index first."""
        names = self._names
        for ia, peers in enumerate(self._adj):
            a = names[ia]
            for ib in peers:
                if ia < ib:
                    yield a, names[ib]

    def links(self) -> List[FrozenSet[str]]:
        return [frozenset(link) for link in self._iter_links()]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a :class:`~repro.sim.faults.FaultPlan` on this network.

        Every subsequent delivery consults the plan (loss, extra delay) and
        its churn/crash processes start running through the event queue.
        Installing a second plan disarms the first.
        """
        if self.faults is not None:
            self.faults.stop()
        self.faults = FaultInjector(self, plan)
        return self.faults

    def clear_faults(self) -> None:
        """Disarm fault injection; the network is perfectly reliable again."""
        if self.faults is not None:
            self.faults.stop()
            self.faults = None

    def rpc_client(self, policy=None):
        """The network-wide resilient RPC client (lazily built, cached).

        Passing a :class:`~repro.eth.rpc.RpcClientPolicy` replaces the
        cached client (fresh breakers/health); passing ``None`` returns
        the existing one, creating a default-policy client on first use.
        """
        from repro.eth.rpc import ResilientRpcClient

        if policy is not None:
            self._rpc_client = ResilientRpcClient(self, policy)
        elif self._rpc_client is None:
            self._rpc_client = ResilientRpcClient(self)
        return self._rpc_client

    # ------------------------------------------------------------------
    # Live fee market (repro.eth.fee_market)
    # ------------------------------------------------------------------
    def install_fee_market(
        self,
        market=None,
        sample=None,
    ):
        """Attach a shared :class:`~repro.eth.fee_market.FeeMarket`.

        Binds the market to sampled pools and hands the same instance to
        every node's mempool, so the admission floor is consistent
        network-wide. The market is pull-based (no daemon events), which
        is why it composes with :meth:`snapshot`/:meth:`restore` — its
        state rides along in the capture. Pass a pre-configured
        :class:`~repro.eth.fee_market.FeeMarket` (or None for defaults)
        and optionally an explicit ``sample`` node-id list.
        """
        from repro.eth.fee_market import FeeMarket

        if market is None:
            market = FeeMarket()
        market.bind(self, sample=sample)
        self.fee_market = market
        # Supernodes are exempt (the Geth "locals" carve-out): measurement
        # infrastructure prices its own pool; targets enforce the floor.
        supers = self.supernode_ids
        for node in self._node_list:
            if node.id not in supers:
                node.mempool.fee_market = market
        return market

    # ------------------------------------------------------------------
    # Byzantine behaviors (repro.eth.behaviors)
    # ------------------------------------------------------------------
    def install_behaviors(self, mix: "BehaviorMix") -> "BehaviorSet":
        """Install a seed-determined Byzantine behavior assignment.

        Draws the node->kind map from the ``"behaviors"`` RNG stream and
        patches the drawn node instances. Composes with an armed
        :class:`~repro.sim.faults.FaultPlan`; composes with
        :meth:`snapshot`/:meth:`restore` as long as the same behavior set
        stays installed (the snapshot records its signature).
        """
        from repro.eth.behaviors import BehaviorSet, assign_behaviors

        if self.behaviors is not None:
            self.behaviors.uninstall_all()
        behavior_set = BehaviorSet(self, mix)
        for node_id, kind in assign_behaviors(self, mix).items():
            behavior_set.install_on(self.nodes[node_id], kind)
        self.behaviors = behavior_set
        obs = self.obs
        if obs.enabled:
            obs.emit(
                self.sim.now,
                "behaviors",
                "installed",
                f"{len(behavior_set.assignments)} nodes ({mix.describe()})",
            )
        return behavior_set

    def clear_behaviors(self) -> None:
        """Restore every patched node; the network is all-honest again."""
        if self.behaviors is not None:
            self.behaviors.uninstall_all()
            self.behaviors = None

    def conforming_policy(self, node_id: str) -> "MempoolPolicy":
        """The policy ``node_id`` *claims* to run.

        For a node with an installed misbehavior this is its pre-install
        original (the invariant checker's conformance reference); for an
        honest node, its live policy.
        """
        if self.behaviors is not None:
            original = self.behaviors.conforming_policy(node_id)
            if original is not None:
                return original
        return self.node(node_id).mempool.policy

    # ------------------------------------------------------------------
    # Runtime invariants (repro.sim.invariants)
    # ------------------------------------------------------------------
    def install_invariants(
        self, checker: Optional["InvariantChecker"] = None, strict: bool = False
    ) -> "InvariantChecker":
        """Arm a runtime invariant checker on this network's transport.

        Replaces the pre-bound delivery callback with the checker's
        wrapper and registers per-node transaction observers — the
        ``repro.obs`` zero-cost pattern: an uninstalled network executes
        byte-identical hot-path code. Install at a quiescent instant
        (in-flight deliveries keep the previously bound callback).
        """
        from repro.sim.invariants import InvariantChecker

        if self.invariants is not None:
            self.clear_invariants()
        if checker is None:
            checker = InvariantChecker(strict=strict)
        checker.attach(self)
        self._deliver_cb = checker.make_delivery_wrapper(self._deliver)
        self.invariants = checker
        return checker

    def clear_invariants(self) -> None:
        """Disarm the checker; delivery goes back to the direct callback."""
        if self.invariants is not None:
            self.invariants.detach(self)
            self._deliver_cb = self._deliver
            self.invariants = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def install_observability(
        self, obs: Optional[Observability] = None, per_node: bool = False
    ) -> Observability:
        """Attach (and return) an observability bundle for the whole stack.

        Registers pull collectors for the engine, transport, mempools,
        supernode observations and fault injector (see
        :mod:`repro.obs.wiring` for the metric catalog), and arms the cold
        push sites (message drops, fault events).  Installing the same
        bundle twice is a no-op; installing a different one replaces the
        hook but leaves the old bundle's collectors intact.
        """
        if obs is None:
            obs = Observability()
        if obs is self.obs:
            return obs
        self.obs = obs
        wiring.instrument_network(obs, self, per_node=per_node)
        return obs

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, from_id: str, to_id: str, msg: Message) -> None:
        """Deliver ``msg`` over the link after a sampled latency.

        The message can still die en route: a lossy link may drop it at
        send time, and a link or endpoint that disappears while it is in
        flight drops it at delivery time (with a ``drop`` event record).

        A batch of one. It enters :meth:`_transmit` directly, not through
        :meth:`send_batch`: that public name is the flush hand-off, and a
        tracer wrapping it must not count request/reply traffic.
        """
        self._transmit(from_id, ((to_id, msg),))

    def send_batch(
        self, from_id: str, entries: Iterable[Tuple[str, Message]]
    ) -> None:
        """Send several messages from one node in one transport pass.

        Exactly a ``send`` per ``(to_id, msg)`` entry, in order. This is
        the flush path: one call per node per broadcast tick.
        """
        if from_id not in self._index:
            raise UnknownNodeError(from_id)
        self._transmit(from_id, entries)

    def _transmit(
        self, from_id: str, entries: Iterable[Tuple[str, Message]]
    ) -> None:
        """The one transport routine: every message is queued here.

        Per entry, in order: resolve the target, count the message, draw
        its latency from the ``"latency"`` stream, consult the fault hooks
        (loss, then extra delay) if the armed plan can drop or delay a
        link message, and build its heap entry; the engine gets the whole
        pass in one :meth:`~repro.sim.engine.Simulator.push_entries` call.
        A pass that raises queues and counts nothing.
        """
        index = self._index
        fi = index.get(from_id)
        # A sender the network does not know has no links.
        adj = self._adj[fi] if fi is not None else ()
        sender_crashed = fi is not None and self._node_list[fi].crashed
        # Folded into messages_by_kind only once the whole pass is queued.
        by_kind: Dict[str, int] = {}
        # LatencyModel.__call__ expanded in place (same sample, same
        # positivity guard), and the default uniform model expanded once
        # more — the type check is exact so subclasses still get their own
        # sample().
        latency = self.latency
        uniform = type(latency) is UniformLatency
        latency_random = self._latency_random
        deliver_cb = self._deliver_cb
        epoch = self._epoch
        faults = self.faults
        if faults is not None and not faults.drops_or_delays:
            faults = None
        sim = self.sim
        now = sim._now
        # Read per pass, never held: snapshot capture and restore replace
        # the simulator's counter object.
        next_seq = sim._seq.__next__
        sent = 0
        heap_entries = []
        for to_id, msg in entries:
            ti = index.get(to_id)
            if ti is None:
                raise UnknownNodeError(to_id)
            if ti not in adj:
                raise NotConnectedError(
                    f"{from_id} is not connected to {to_id}; "
                    f"cannot send {msg.kind}"
                )
            if sender_crashed:
                self._drop(from_id, to_id, msg, "sender_crashed")
                continue
            sent += 1
            kind = type(msg).__name__
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if uniform:
                delay = latency.low + latency._span * latency_random()
            else:
                delay = latency.sample(self._latency_rng, from_id, to_id)
            if delay <= 0:
                raise ValueError(
                    f"latency model produced non-positive delay {delay}"
                )
            if faults is not None:
                if faults.should_drop(from_id, to_id):
                    self._drop(from_id, to_id, msg, "loss")
                    continue
                delay += faults.extra_delay(from_id, to_id)
            # Deliveries are never cancelled, so the fire-and-forget entry
            # shape (no Event allocation) is safe. The label tuple is built
            # unconditionally — a profiler or event log may attach after this
            # message is queued but before it delivers — and the engine
            # formats it to "kind:from->to" only when someone is observing
            # (see Simulator._observed).
            heap_entries.append(
                (
                    now + delay,
                    next_seq(),
                    deliver_cb,
                    (fi, ti, msg, epoch),
                    (kind, from_id, to_id),
                )
            )
        self.messages_sent += sent
        totals = self.messages_by_kind
        for kind, count in by_kind.items():
            totals[kind] = totals.get(kind, 0) + count
        if heap_entries:
            sim.push_entries(heap_entries)

    def _deliver(self, fi: int, ti: int, msg: Message, epoch: int = -1) -> None:
        """Deliver a message, guarding against a world that changed in flight.

        ``fi``/``ti`` are intern-table indices (the transport resolved the
        strings at send time); handlers still receive the sender's string
        id. ``epoch`` is the network epoch captured at send time. While it
        still matches, no link was torn down and no node crashed or
        restarted since the send, so the guard chain below cannot fire and
        delivery dispatches straight into the target's per-type handler
        table (skipping the generic :meth:`Node.handle_message` frame).
        Direct callers omit ``epoch`` and always take the guarded path.
        """
        if epoch == self._epoch and not self._crashed_count:
            target = self._node_list[ti]
            handler = target._dispatch.get(msg.__class__)
            if handler is not None:
                handler(self._names[fi], msg)
            else:
                target.handle_message(self._names[fi], msg)
            return
        from_id = self._names[fi]
        to_id = self._names[ti]
        if ti not in self._adj[fi]:
            self._drop(from_id, to_id, msg, "link_vanished")
            return
        target = self._node_list[ti]
        if target.crashed:
            self._drop(from_id, to_id, msg, "target_crashed")
            return
        target.handle_message(from_id, msg)

    def _drop(self, from_id: str, to_id: str, msg: Message, reason: str) -> None:
        """Account for a message that never reached its target."""
        self.messages_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        obs = self.obs
        if obs.enabled:
            obs.emit(self.sim.now, "drop", reason, from_id, to_id, msg.kind)

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run_for(duration)

    def settle(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (network quiescent)."""
        self.sim.run(max_events=max_events)

    # ------------------------------------------------------------------
    # Snapshot/reset
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Freeze the whole network at a quiescent instant.

        Preconditions (each raises :class:`SnapshotError`):

        * the event queue is drained — call :meth:`settle` first;
        * no fault plan is armed — snapshots bound the *common* world, a
          shard arms its own plan after restoring (an armed injector keeps
          daemon events and RNG draws in flight that cannot be frozen).

        Restoring the returned snapshot with :meth:`restore` puts every
        behaviour-relevant bit back: simulator clock/sequence/RNG streams,
        per-node mempools and caches, wallet-independent nonce views,
        topology, epoch, and transport counters. The same snapshot object
        can be restored any number of times.
        """
        if self.faults is not None:
            raise SnapshotError(
                "cannot snapshot with a fault plan armed; clear_faults() "
                "first and install the plan after the snapshot"
            )
        if self.invariants is not None:
            raise SnapshotError(
                "cannot snapshot with an invariant checker installed; "
                "clear_invariants() first and re-install after restoring"
            )
        sim_state = capture_simulator(self.sim)
        return {
            "sim": sim_state,
            "chain_height": self.chain.height,
            "nodes": {
                node_id: node.capture_state()
                for node_id, node in self.nodes.items()
            },
            # Integer adjacency by index; the idmap capture pins the
            # str<->int bijection the indices are meaningful under (restore
            # refuses a changed node set, so it can only differ if someone
            # re-ordered creation — exactly the corruption to catch).
            "idmap": self.ids.capture(),
            "adjacency": [set(peers) for peers in self._adj],
            "link_count": self._link_count,
            "epoch": self._epoch,
            "supernode_ids": set(self.supernode_ids),
            "messages_sent": self.messages_sent,
            "messages_by_kind": dict(self.messages_by_kind),
            "messages_dropped": self.messages_dropped,
            "drops_by_reason": dict(self.drops_by_reason),
            # Byzantine behaviors compose with snapshots as long as the
            # installed set is the same at capture and restore time; the
            # signature pins that, the state blob rewinds their runtime
            # caches and counters.
            "behaviors_signature": (
                self.behaviors.signature() if self.behaviors is not None else ()
            ),
            "behaviors_state": (
                self.behaviors.capture_state()
                if self.behaviors is not None
                else None
            ),
            # The fee market is pull-based (no queued events), so its
            # scalar state freezes cleanly alongside the pools it reads.
            "fee_market": (
                self.fee_market.capture_state()
                if self.fee_market is not None
                else None
            ),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Rewind the network to a :meth:`snapshot`.

        The restored world is bit-identical to the captured one for every
        input that influences simulation behaviour, so "restore then run"
        replays exactly what "first run after capture" did. Preconditions
        (each raises :class:`SnapshotError`): no armed fault plan, the same
        node set as at capture time, and an unchanged chain height (mined
        blocks move confirmed nonces outside the snapshot's reach — rebuild
        instead).

        Links and peer sets are written directly rather than through
        :meth:`connect`/:meth:`disconnect`, which would emit Status
        handshakes into the freshly-cleared event queue.
        """
        if self.faults is not None:
            raise SnapshotError(
                "cannot restore with a fault plan armed; clear_faults() first"
            )
        if self.invariants is not None:
            raise SnapshotError(
                "cannot restore with an invariant checker installed; "
                "clear_invariants() first and re-install after restoring"
            )
        current_signature = (
            self.behaviors.signature() if self.behaviors is not None else ()
        )
        if current_signature != snapshot.get("behaviors_signature", ()):
            raise SnapshotError(
                "installed behaviors changed since the snapshot was taken; "
                "a restore would silently mix two adversary models — keep "
                "the same behavior set installed, or rebuild"
            )
        if set(self.nodes) != set(snapshot["nodes"]):
            raise SnapshotError(
                "node set changed since the snapshot was taken; "
                "rebuild the network instead of restoring"
            )
        if self.chain.height != snapshot["chain_height"]:
            raise SnapshotError(
                f"chain advanced since the snapshot (height {self.chain.height} "
                f"!= {snapshot['chain_height']}); rebuild instead of restoring"
            )
        if snapshot["idmap"] != self.ids.capture():
            raise SnapshotError(
                "node id interning table changed since the snapshot was "
                "taken; the captured integer adjacency would be "
                "misinterpreted — rebuild instead of restoring"
            )
        restore_simulator(self.sim, snapshot["sim"])
        for node_id, node_state in snapshot["nodes"].items():
            self.nodes[node_id].restore_state(node_state)
        self._adj = [set(peers) for peers in snapshot["adjacency"]]
        self._link_count = snapshot["link_count"]
        self._epoch = snapshot["epoch"]
        self._crashed_count = sum(
            1 for node in self.nodes.values() if node.crashed
        )
        self.supernode_ids = set(snapshot["supernode_ids"])
        self.messages_sent = snapshot["messages_sent"]
        self.messages_by_kind = dict(snapshot["messages_by_kind"])
        self.messages_dropped = snapshot["messages_dropped"]
        self.drops_by_reason = dict(snapshot["drops_by_reason"])
        if self.behaviors is not None:
            state = snapshot.get("behaviors_state")
            if state is not None:
                self.behaviors.restore_state(state)
        if self.fee_market is not None:
            market_state = snapshot.get("fee_market")
            if market_state is not None:
                self.fee_market.restore_state(market_state)

    # ------------------------------------------------------------------
    # Ground truth & hygiene
    # ------------------------------------------------------------------
    def ground_truth_graph(self, include_supernodes: bool = False) -> nx.Graph:
        """The true overlay graph (the hidden information TopoShot infers)."""
        import networkx as nx

        graph = nx.Graph()
        names = self._names
        supers = self.supernode_ids
        for node_id in names:
            if include_supernodes or node_id not in supers:
                graph.add_node(node_id)
        for a, b in self._iter_links():
            if include_supernodes or (a not in supers and b not in supers):
                graph.add_edge(a, b)
        return graph

    def ground_truth_edges(
        self, among: Optional[Iterable[str]] = None
    ) -> Set[FrozenSet[str]]:
        """True measurable links (both endpoints non-supernode), restricted
        to those with both endpoints in ``among`` when a target set is given."""
        supers = self.supernode_ids
        links = {
            frozenset(link)
            for link in self._iter_links()
            if link[0] not in supers and link[1] not in supers
        }
        if among is None:
            return links
        wanted = set(among)
        return {link for link in links if link <= wanted}

    def forget_known_transactions(self) -> None:
        """Clear every node's known-tx state.

        Called between measurement iterations to bound memory; safe because
        broadcasts only happen on admission events, never retroactively.
        """
        for node in self._node_list:
            node.forget_known_transactions()
        if self.invariants is not None:
            # The checker's per-link push/announce/request bookkeeping
            # mirrors the caches just wiped; keep them in lockstep or
            # re-sent traffic would read as violations.
            self.invariants.reset_transient()
        if self.behaviors is not None:
            # Same lockstep argument for spoof-relay runtime caches: stale
            # per-behavior known-hash state surviving an iteration wipe
            # desyncs from the nodes' freshly-bumped tables.
            self.behaviors.reset_runtime_caches()

    def __repr__(self) -> str:
        return (
            f"Network(nodes={len(self.nodes)}, links={self._link_count}, "
            f"t={self.sim.now:.2f}s)"
        )


def fully_connect(network: Network, node_ids: Iterable[str]) -> None:
    """Create every pairwise link among ``node_ids`` (test helper)."""
    ids = list(node_ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if not network.are_connected(a, b):
                network.connect(a, b, force=True)
