"""Mainnet-like overlays with critical service backends (Section 6.3).

The paper discovers nodes behind popular services — one dominant
transaction relay (anonymized SrvR1, relaying 63% of mainnet
transactions), a second relay SrvR2, and six mining pools SrvM1..SrvM6 —
and measures the sub-topology among nine of them. The observed pattern:

- SrvR1 nodes connect to every tested pool and to other SrvR1 nodes, but
  not to SrvR2;
- SrvR2 behaves like a vanilla client (no preferential links);
- pool nodes connect to nodes of the same and other pools and to SrvR1 —
  except SrvM1 nodes, which do not peer with each other.

:func:`mainnet_like` builds a scaled mainnet whose service wiring follows
that bias, so the Table 6 reproduction measures a ground truth with the
same structure the paper inferred. Discovery mirrors the paper's method:
match ``web3_clientVersion`` strings obtained through the service frontend
against handshake versions collected by a supernode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.netgen.ethereum import NetworkSpec, generate_network

# Paper-reported backend-node counts, and the scaled counts we simulate.
PAPER_SERVICE_COUNTS: Dict[str, int] = {
    "SrvR1": 48,
    "SrvR2": 1,
    "SrvM1": 59,
    "SrvM2": 8,
    "SrvM3": 6,
    "SrvM4": 2,
    "SrvM5": 2,
    "SrvM6": 1,
}

SCALED_SERVICE_COUNTS: Dict[str, int] = {
    "SrvR1": 5,
    "SrvR2": 1,
    "SrvM1": 5,
    "SrvM2": 3,
    "SrvM3": 2,
    "SrvM4": 2,
    "SrvM5": 1,
    "SrvM6": 1,
}

#: Pool size of the scaled mainnet's regular nodes.
MAINNET_CAPACITY = 192

RELAY_SERVICES = ("SrvR1", "SrvR2")
POOL_SERVICES = ("SrvM1", "SrvM2", "SrvM3", "SrvM4", "SrvM5", "SrvM6")


@dataclass(frozen=True)
class MainnetSpec:
    """Scaled mainnet: regular nodes plus the service backends of
    :data:`SCALED_SERVICE_COUNTS`."""

    n_regular: int = 70
    seed: int = 0


@dataclass
class ServiceDirectory:
    """Who runs what: service name -> backend node ids, plus the
    frontend-visible client version per service."""

    members: Dict[str, List[str]] = field(default_factory=dict)
    frontend_versions: Dict[str, str] = field(default_factory=dict)

    def service_of(self, node_id: str) -> Optional[str]:
        for service, ids in self.members.items():
            if node_id in ids:
                return service
        return None

    def all_service_nodes(self) -> List[str]:
        return [nid for ids in self.members.values() for nid in ids]

    def frontend_client_version(self, service: str) -> str:
        """What ``web3_clientVersion`` through the service frontend returns
        (the codename-bearing string of Li et al.'s discovery method)."""
        if service not in self.frontend_versions:
            raise NetworkError(f"unknown service {service!r}")
        return self.frontend_versions[service]


def _service_version(service: str, index: int) -> str:
    return f"Geth/v1.10.3-{service}-backend{index}/linux-amd64"


def mainnet_like(spec: Optional[MainnetSpec] = None) -> Tuple[Network, ServiceDirectory]:
    """Build a scaled mainnet with biased service wiring.

    Regular nodes are generated and wired like a testnet; service nodes are
    then added and connected per the bias rules above, plus a handful of
    random links into the regular population so they are not isolated.
    """
    spec = spec or MainnetSpec()
    base = NetworkSpec(
        n_nodes=spec.n_regular,
        seed=spec.seed,
        name="mainnet",
        mempool_capacity=MAINNET_CAPACITY,
    )
    network = generate_network(base)
    rng = network.sim.rng.stream("mainnet-services")

    directory = ServiceDirectory()
    for service, count in SCALED_SERVICE_COUNTS.items():
        ids: List[str] = []
        for index in range(count):
            node_id = f"{service.lower()}-{index}"
            version = _service_version(service, index)
            config = network.node(base.node_id(0)).config
            node = network.create_node(
                node_id,
                NodeConfig(
                    policy=config.policy,
                    max_peers=None,  # services accept many peers
                    push_to_all=config.push_to_all,
                    client_version=version,
                ),
            )
            ids.append(node.id)
        directory.members[service] = ids
        directory.frontend_versions[service] = _service_version(service, 0).rsplit(
            "backend", 1
        )[0]

    _wire_services(network, directory, rng)
    return network, directory


def _wire_services(network: Network, directory: ServiceDirectory, rng) -> None:
    regular = [
        nid
        for nid in network.measurable_node_ids()
        if directory.service_of(nid) is None
    ]

    def connect(a: str, b: str) -> None:
        if a != b and not network.are_connected(a, b):
            network.connect(a, b, force=True)

    srv_r1 = directory.members.get("SrvR1", [])
    srv_r2 = directory.members.get("SrvR2", [])
    pools = {s: directory.members.get(s, []) for s in POOL_SERVICES}

    # SrvR1 nodes: peers with every pool node and with each other.
    for relay in srv_r1:
        for other in srv_r1:
            connect(relay, other)
        for pool_ids in pools.values():
            for pool_node in pool_ids:
                connect(relay, pool_node)

    # Pool nodes: same pool + other pools; SrvM1 nodes avoid each other.
    pool_list = list(pools.items())
    for i, (service_a, ids_a) in enumerate(pool_list):
        if service_a != "SrvM1":
            for x in ids_a:
                for y in ids_a:
                    connect(x, y)
        for service_b, ids_b in pool_list[i + 1 :]:
            for x in ids_a:
                for y in ids_b:
                    connect(x, y)

    # SrvR2: a vanilla node — random regular neighbours only.
    vanilla_degree = 8
    for relay in srv_r2:
        for target in rng.sample(regular, min(vanilla_degree, len(regular))):
            connect(relay, target)

    # Every service node also serves regular users: random regular links.
    for node_id in directory.all_service_nodes():
        if directory.service_of(node_id) == "SrvR2":
            continue
        for target in rng.sample(regular, min(6, len(regular))):
            connect(node_id, target)


def discover_critical_nodes(
    network: Network,
    directory: ServiceDirectory,
    supernode: Optional["Supernode"] = None,
    handshake_wait: float = 2.0,
) -> Dict[str, List[str]]:
    """Re-discover service backends the way the paper does (Section 6.3):
    collect DevP2P Status handshake client versions on a supernode joining
    the network, and match them against the frontend-reported version
    prefix of each service (obtained via ``web3_clientVersion`` through the
    service frontend).

    When no ``supernode`` is passed, a throwaway discovery supernode is
    joined, used, and detached again.
    """
    from repro.eth.supernode import Supernode

    temporary = supernode is None
    if temporary:
        supernode = Supernode.join(
            network, node_id=f"discovery-{len(network.nodes)}"
        )
    network.run(handshake_wait)  # let Status handshakes deliver
    discovered: Dict[str, List[str]] = {service: [] for service in directory.members}
    for node_id, handshake_version in sorted(supernode.peer_versions.items()):
        if node_id not in network.measurable_node_ids():
            continue
        for service in directory.members:
            prefix = directory.frontend_client_version(service)
            if handshake_version.startswith(prefix):
                discovered[service].append(node_id)
    if temporary:
        for peer_id in list(supernode.peer_ids):
            network.disconnect(supernode.id, peer_id)
    return discovered
