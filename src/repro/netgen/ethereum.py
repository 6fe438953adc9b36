"""Discovery-driven Ethereum-like overlay generation.

Reproduces the neighbour-selection behaviour Section 6.2.2 discusses: every
node keeps a DHT routing table of inactive neighbours; active links are
dialled from a candidate buffer consisting of the node's own table entries
plus its entries' entries (hop-2), with de-duplication against existing
active neighbours. Nodes stop dialling at their outbound quota and stop
accepting at ``max_peers``.

Heterogeneity knobs model the non-default target behaviours the paper
blames for imperfect recall (Section 6.1):

- custom (larger) mempool capacities -> eviction floods sized for the
  default L fail to evict ``txC``;
- custom replacement thresholds R -> ``txA`` cannot replace ``txB``;
- non-relaying nodes -> ``txA`` is never forwarded;
- future-forwarding nodes -> filtered by pre-processing (Section 6.2.1);
- RPC-disabled nodes -> the "unresponsive" targets pre-processing skips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

from repro.eth.discovery import RoutingTable, build_routing_tables
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH, NETHERMIND, PARITY, MempoolPolicy
from repro.sim.latency import GeoLatency, LatencyModel, UniformLatency


@dataclass(frozen=True)
class NetworkSpec:
    """Shape and behaviour of a generated Ethereum-like network."""

    n_nodes: int = 40
    seed: int = 0
    name: str = "testnet"
    mempool_capacity: int = 128  # scaled Geth L; other clients scale too
    max_peers: int = 30
    outbound_dials: int = 8
    routing_table_capacity: int = 96
    parity_fraction: float = 0.0
    nethermind_fraction: float = 0.0
    fraction_custom_capacity: float = 0.0  # pools CUSTOM_CAPACITY_FACTOR x L
    fraction_custom_bump: float = 0.0  # replacement bump CUSTOM_BUMP
    fraction_future_forwarders: float = 0.0
    fraction_future_echoers: float = 0.0  # Rinkeby's bounce-back quirk
    fraction_non_relaying: float = 0.0
    fraction_rpc_disabled: float = 0.0
    n_hubs: int = 0  # globally connected nodes (Goerli's 700-degree nodes)
    push_to_all: bool = False
    announce_only: bool = False  # Bitcoin-style propagation (baselines)
    latency: Optional[LatencyModel] = None
    # Optional geographic structure: region name -> node share. When set
    # (and no explicit latency model is given), nodes are pinned to regions
    # and links use GeoLatency's inter-region base delays.
    region_mix: Optional[Dict[str, float]] = None
    # Wiring algorithm: "legacy" is the original full-population routing
    # fill + unbounded hop-2 candidate union (quadratic, and what every
    # golden fingerprint was baked against); "fast" uses bounded sampling
    # (near-linear — the >=50k unlock) with a *different* seed-deterministic
    # draw sequence; "auto" picks fast at FAST_WIRING_THRESHOLD nodes.
    wiring: str = "auto"

    def node_id(self, index: int) -> str:
        return f"{self.name}-{index:04d}"


#: A custom-capacity node's pool is this many times its client's L; a
#: custom-bump node replaces at this bump instead of its client's R.
CUSTOM_CAPACITY_FACTOR = 2.2
CUSTOM_BUMP = 0.25

#: Node count at which wiring="auto" switches to the fast generator. All
#: golden/fingerprinted topologies (24/40/1k nodes) stay on legacy wiring.
FAST_WIRING_THRESHOLD = 2048


def _use_fast_wiring(spec: NetworkSpec) -> bool:
    if spec.wiring == "legacy":
        return False
    if spec.wiring == "fast":
        return True
    if spec.wiring == "auto":
        return spec.n_nodes >= FAST_WIRING_THRESHOLD
    raise ValueError(
        f"unknown wiring {spec.wiring!r}; expected 'auto', 'legacy' or 'fast'"
    )


def _scaled_policy(base: MempoolPolicy, spec: NetworkSpec) -> MempoolPolicy:
    """Scale a client policy so its L keeps the real-world ratio to Geth's."""
    capacity = max(8, round(spec.mempool_capacity * base.capacity / GETH.capacity))
    return base.scaled(capacity)


def generate_network(spec: NetworkSpec) -> Network:
    """Build a network per ``spec``."""
    network = Network(
        latency=spec.latency or UniformLatency(0.02, 0.12), seed=spec.seed
    )
    rng = network.sim.rng.stream("netgen")
    if spec.latency is None and spec.region_mix:
        network.latency = GeoLatency(_assign_regions(spec, rng))

    geth = _scaled_policy(GETH, spec)
    parity = _scaled_policy(PARITY, spec)
    nethermind = _scaled_policy(NETHERMIND, spec)

    node_ids = [spec.node_id(i) for i in range(spec.n_nodes)]
    hub_ids = set(node_ids[: spec.n_hubs])

    for index, node_id in enumerate(node_ids):
        draw = rng.random()
        if draw < spec.nethermind_fraction:
            policy = nethermind
            version = f"Nethermind/v1.10.{index}"
        elif draw < spec.nethermind_fraction + spec.parity_fraction:
            policy = parity
            version = f"OpenEthereum/v3.2.{index}"
        else:
            policy = geth
            version = f"Geth/v1.9.{index}-stable"
        if rng.random() < spec.fraction_custom_capacity:
            policy = policy.with_capacity(
                int(policy.capacity * CUSTOM_CAPACITY_FACTOR)
            )
        if rng.random() < spec.fraction_custom_bump:
            policy = policy.with_bump(CUSTOM_BUMP)
        config = NodeConfig(
            policy=policy,
            max_peers=None if node_id in hub_ids else spec.max_peers,
            push_to_all=spec.push_to_all,
            announce_only=spec.announce_only,
            relays_transactions=rng.random() >= spec.fraction_non_relaying,
            forwards_future=rng.random() < spec.fraction_future_forwarders,
            echoes_future_to_sender=rng.random() < spec.fraction_future_echoers,
            responds_to_rpc=rng.random() >= spec.fraction_rpc_disabled,
            client_version=version,
        )
        network.create_node(node_id, config)

    _wire_active_links(network, node_ids, hub_ids, spec, rng)
    return network


def _assign_regions(spec: NetworkSpec, rng) -> Dict[str, str]:
    """Pin every node to a region, sampled from the spec's region mix."""
    names = list(spec.region_mix)
    weights = [spec.region_mix[name] for name in names]
    return {
        spec.node_id(i): rng.choices(names, weights=weights)[0]
        for i in range(spec.n_nodes)
    }


def _wire_active_links(
    network: Network,
    node_ids: List[str],
    hub_ids: Set[str],
    spec: NetworkSpec,
    rng,
) -> None:
    """Dial active links out of discovery candidates, then bridge any
    disconnected components."""
    fast = _use_fast_wiring(spec)
    table_capacity = min(spec.routing_table_capacity, max(1, spec.n_nodes - 1))
    tables: Dict[str, RoutingTable] = build_routing_tables(
        node_ids, rng, capacity=table_capacity, fast=fast
    )
    for node_id, table in tables.items():
        network.node(node_id).routing_table = table.entries()

    dial_order = list(node_ids)
    rng.shuffle(dial_order)
    for node_id in dial_order:
        node = network.node(node_id)
        quota = (
            max(spec.outbound_dials, spec.n_nodes - 1)
            if node_id in hub_ids
            else spec.outbound_dials
        )
        # Candidate buffer: own table entries plus hop-2 entries (§6.2.2).
        candidates = list(tables[node_id].entries())
        if fast:
            buffer = _bounded_hop2_buffer(node_id, candidates, tables, quota)
        else:
            hop2: Set[str] = set()
            for entry in candidates:
                hop2.update(tables[entry].entries())
            hop2.discard(node_id)
            buffer = candidates + sorted(hop2 - set(candidates))
        rng.shuffle(buffer)
        dialled = 0
        for candidate in buffer:
            if dialled >= quota or not node.can_accept_peer():
                break
            if network.are_connected(node_id, candidate):
                continue  # de-duplication of already-active neighbours
            target = network.node(candidate)
            if not target.can_accept_peer() and candidate not in hub_ids:
                continue
            network.connect(node_id, candidate, force=candidate in hub_ids)
            dialled += 1

    _bridge_components(network, rng)


def _bounded_hop2_buffer(
    node_id: str,
    candidates: List[str],
    tables: Dict[str, RoutingTable],
    quota: int,
) -> List[str]:
    """Own entries plus hop-2 entries, capped.

    The legacy buffer unions *every* hop-2 table — O(capacity^2) per node,
    the second quadratic term in large-N generation. A dial only consumes
    a handful of candidates, so a buffer a few multiples of the quota deep
    gives the dialling loop the same slack without materializing the
    full hop-2 neighbourhood.
    """
    cap = max(4 * quota, len(candidates)) + 16
    buffer = list(candidates)
    seen = set(candidates)
    seen.add(node_id)
    for entry in candidates:
        if len(buffer) >= cap:
            break
        for hop2 in tables[entry].entries():
            if hop2 not in seen:
                seen.add(hop2)
                buffer.append(hop2)
                if len(buffer) >= cap:
                    break
    return buffer


def _bridge_components(network: Network, rng) -> None:
    """Link each connected component to the next with one random edge.

    Union-find over the integer adjacency. Components are bridged in
    min-name order, each one's names sorted before ``rng.choice``.
    ``NetworkSpec.node_id`` pads indices to four digits, so below 10 000
    nodes min-name order is creation order, the order the golden
    topologies were bridged in (``wiring="auto"`` picks legacy wiring only
    below ``FAST_WIRING_THRESHOLD``)."""
    adj = network._adj
    names = network._names
    n = len(names)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ia, peers in enumerate(adj):
        for ib in peers:
            ra, rb = find(ia), find(ib)
            if ra != rb:
                parent[rb] = ra
    groups: Dict[int, List[str]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(names[i])
    components = sorted(
        (sorted(group) for group in groups.values()), key=lambda g: g[0]
    )
    for previous, current in zip(components, components[1:]):
        network.connect(rng.choice(previous), rng.choice(current), force=True)


def quick_network(n_nodes: int = 40, seed: int = 0, **overrides: object) -> Network:
    """One-liner for examples and tests: a homogeneous Geth testnet."""
    spec = NetworkSpec(n_nodes=n_nodes, seed=seed, **overrides)  # type: ignore[arg-type]
    return generate_network(spec)


# ----------------------------------------------------------------------
# Testnet presets (scaled ~1:10 from the paper's measured sizes)
# ----------------------------------------------------------------------
def ropsten_like(seed: int = 0, **overrides: object) -> NetworkSpec:
    """Ropsten stand-in: 588 nodes / 7496 edges (avg degree ~25) scaled to
    60 nodes with outbound quota preserving the average degree."""
    spec = NetworkSpec(
        n_nodes=60,
        seed=seed,
        name="ropsten",
        mempool_capacity=512,
        max_peers=50,
        outbound_dials=13,
        fraction_custom_capacity=0.05,
        fraction_custom_bump=0.02,
        fraction_non_relaying=0.02,
        fraction_future_forwarders=0.03,
        fraction_rpc_disabled=0.03,
        parity_fraction=0.05,
    )
    return replace(spec, **overrides)  # type: ignore[arg-type]


def rinkeby_like(seed: int = 0, **overrides: object) -> NetworkSpec:
    """Rinkeby stand-in: denser (paper average degree ~69), 446 nodes
    scaled to 46."""
    spec = NetworkSpec(
        n_nodes=46,
        seed=seed,
        name="rinkeby",
        mempool_capacity=512,
        max_peers=44,
        outbound_dials=17,
        fraction_future_echoers=0.08,
        fraction_custom_capacity=0.05,
        fraction_custom_bump=0.02,
        fraction_non_relaying=0.02,
        fraction_future_forwarders=0.03,
        fraction_rpc_disabled=0.03,
        parity_fraction=0.05,
    )
    return replace(spec, **overrides)  # type: ignore[arg-type]


def goerli_like(seed: int = 0, **overrides: object) -> NetworkSpec:
    """Goerli stand-in: 1025 nodes scaled to 100, including globally
    connected hub nodes (the paper found nodes with >700 neighbours)."""
    spec = NetworkSpec(
        n_nodes=100,
        seed=seed,
        name="goerli",
        mempool_capacity=768,
        max_peers=60,
        outbound_dials=15,
        n_hubs=2,
        fraction_custom_capacity=0.05,
        fraction_custom_bump=0.02,
        fraction_non_relaying=0.02,
        fraction_future_forwarders=0.03,
        fraction_rpc_disabled=0.03,
        parity_fraction=0.05,
    )
    return replace(spec, **overrides)  # type: ignore[arg-type]
