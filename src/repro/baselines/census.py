"""Node census — the W1 class of related work (Kim et al., IMC'18).

Method
------
Before TopoShot, Ethereum measurement meant *profiling nodes*: launch a
supernode, collect handshakes, and report network size, client mix,
freshness and reachability. This module reproduces that methodology so
the W1/W2/W3 ladder of the paper's Table 1 is complete in one package:

- W1 (:func:`run_census`): node attributes, no edges;
- W2 (:mod:`repro.baselines.findnode`): inactive edges;
- W3 (:mod:`repro.baselines.timing`, then :mod:`repro.core`): active
  edges — the timing baseline and TopoShot itself, which improves on it.

The census also feeds target selection: :func:`measurable_targets`
filters to client families with a known non-zero replacement bump,
which is where a TopoShot campaign starts (Section 5).

Fidelity caveats vs the source paper
------------------------------------
- Kim et al. crawl the discovery DHT for weeks and geolocate IPs; the
  simulator has no geography, so the census reduces to the parts that
  matter downstream — size, client mix, RPC responsiveness, relay
  behavior.
- Handshake version strings here come from :class:`NodeConfig`, standing
  in for the live network's user-agent diversity.

Config knobs
------------
``handshake_wait``  simulated seconds to wait for Status handshakes
                    before reading peer versions
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import RpcUnavailableError
from repro.eth.network import Network
from repro.eth.rpc import RpcServer
from repro.eth.supernode import Supernode


@dataclass
class NodeCensus:
    """A supernode's view of who is out there (no topology)."""

    network_size: int
    client_families: Dict[str, int] = field(default_factory=dict)
    rpc_responsive: int = 0
    relaying: int = 0
    versions: Dict[str, str] = field(default_factory=dict)

    @property
    def dominant_client(self) -> str:
        if not self.client_families:
            return "unknown"
        return max(self.client_families.items(), key=lambda kv: kv[1])[0]

    def family_share(self, family: str) -> float:
        if self.network_size == 0:
            return 0.0
        return self.client_families.get(family, 0) / self.network_size

    def summary(self) -> str:
        mix = ", ".join(
            f"{family} {count}"
            for family, count in sorted(
                self.client_families.items(), key=lambda kv: -kv[1]
            )
        )
        return (
            f"census: {self.network_size} nodes ({mix}); "
            f"{self.rpc_responsive} RPC-responsive; "
            f"dominant client {self.dominant_client}"
        )


def _family(version: str) -> str:
    """Client family from a handshake version string ('Geth/v1.9' -> geth)."""
    return version.split("/", 1)[0].lower() or "unknown"


def run_census(
    network: Network,
    supernode: Supernode,
    handshake_wait: float = 2.0,
) -> NodeCensus:
    """Collect the W1-style node census via handshakes and RPC probes."""
    network.run(handshake_wait)  # let Status handshakes arrive
    measurable = set(network.measurable_node_ids())
    census = NodeCensus(network_size=len(measurable))
    for node_id in sorted(measurable):
        version = supernode.peer_versions.get(node_id)
        if version is None:
            # Not peered with the supernode: fall back to a dial… which in
            # the simulator means the node is simply not reachable.
            continue
        census.versions[node_id] = version
        family = _family(version)
        census.client_families[family] = census.client_families.get(family, 0) + 1
        node = network.node(node_id)
        if node.config.relays_transactions:
            census.relaying += 1
        try:
            RpcServer(node).call("web3_clientVersion")
            census.rpc_responsive += 1
        except RpcUnavailableError:
            pass
    return census


def measurable_targets(census: NodeCensus, prefixes=("geth",)) -> List[str]:
    """The census-driven target list TopoShot would start from: nodes whose
    client family has a known non-zero replacement bump."""
    return sorted(
        node_id
        for node_id, version in census.versions.items()
        if _family(version) in prefixes
    )
