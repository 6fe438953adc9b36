"""Pre-processing of measurement targets (Sections 5.2.3 and 6.2.1).

Before a campaign, TopoShot:

- keeps only clients it can measure (handshake client-version prefix:
  Geth-like clients with a known non-zero R);
- drops *unresponsive* nodes;
- drops nodes that forward **future** transactions (a non-default setting
  that would break the eviction floods' invisibility) — detected by
  sending each target a throwaway future transaction and watching whether
  the target propagates it back (Section 6.2.1's monitor-node method, with
  the supernode itself as the monitor);
- optionally calibrates the per-target flood size ``Z`` against a locally
  controlled node with known ground truth (Section 5.2.3's speculative B'
  technique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FUTURE_NONCE_GAP, MeasurementConfig
from repro.core.gas_estimator import estimate_y
from repro.core.primitive import cleanup, inject, measure_one_link, probe_wallet
from repro.errors import RpcError, RpcUnavailableError
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory

MEASURABLE_CLIENT_PREFIXES: Tuple[str, ...] = ("Geth",)


@dataclass
class PreprocessReport:
    """Which candidates survived pre-processing, and why others did not."""

    accepted: List[str] = field(default_factory=list)
    rejected_client: List[str] = field(default_factory=list)
    rejected_unresponsive: List[str] = field(default_factory=list)
    rejected_future_forwarders: List[str] = field(default_factory=list)
    # Endpoints the resilient RPC client could not get an answer from (or
    # whose health score / circuit breaker flags them), and candidates
    # whose forwarding probe never left M: skipped for this campaign
    # rather than measured through a plane that will turn their probes
    # into noise.
    rejected_degraded: List[str] = field(default_factory=list)
    z_overrides: Dict[str, int] = field(default_factory=dict)

    @property
    def rejected(self) -> List[str]:
        return (
            self.rejected_client
            + self.rejected_unresponsive
            + self.rejected_future_forwarders
            + self.rejected_degraded
        )

    def summary(self) -> str:
        return (
            f"accepted={len(self.accepted)} "
            f"non-measurable-client={len(self.rejected_client)} "
            f"unresponsive={len(self.rejected_unresponsive)} "
            f"future-forwarders={len(self.rejected_future_forwarders)} "
            f"degraded-endpoint={len(self.rejected_degraded)}"
        )


def preprocess_targets(
    network: Network,
    supernode: Supernode,
    candidates: Sequence[str],
    config: Optional[MeasurementConfig] = None,
    wallet: Optional[Wallet] = None,
    client_prefixes: Sequence[str] = MEASURABLE_CLIENT_PREFIXES,
    check_future_forwarding: bool = True,
    check_responsiveness: bool = True,
    forwarding_probe_wait: float = 2.0,
) -> PreprocessReport:
    """Filter ``candidates`` down to measurable targets."""
    config = config or MeasurementConfig()
    wallet = wallet or Wallet("preprocess")
    factory = TransactionFactory()
    report = PreprocessReport()
    client = network.rpc_client()

    survivors: List[str] = []
    for node_id in candidates:
        node = network.node(node_id)
        # Handshake client version is public information exchanged in the
        # DevP2P Status message; non-Geth-style clients are skipped.
        version = node.config.client_version
        if not any(version.startswith(prefix) for prefix in client_prefixes):
            report.rejected_client.append(node_id)
            continue
        if check_responsiveness:
            # Through the resilient client: transient plane faults get
            # retried instead of condemning a perfectly responsive node.
            try:
                client.call(node_id, "web3_clientVersion")
            except RpcUnavailableError:
                report.rejected_unresponsive.append(node_id)
                continue
            except RpcError:
                report.rejected_degraded.append(node_id)
                continue
        survivors.append(node_id)

    # Endpoints whose health score or circuit breaker already flags them
    # (from earlier traffic through the shared resilient client) are skipped
    # up front: measuring through them yields degraded probes, not data.
    unhealthy = set(client.unhealthy_endpoints())
    if unhealthy:
        report.rejected_degraded.extend(
            nid for nid in survivors if nid in unhealthy
        )
        survivors = [nid for nid in survivors if nid not in unhealthy]

    if check_future_forwarding and survivors:
        forwarders, unprobed = detect_future_forwarders(
            network, supernode, survivors, config, wallet, forwarding_probe_wait
        )
        report.rejected_future_forwarders.extend(forwarders)
        report.rejected_degraded.extend(unprobed)
        dropped = {*forwarders, *unprobed}
        survivors = [nid for nid in survivors if nid not in dropped]

    report.accepted = survivors
    return report


def detect_future_forwarders(
    network: Network,
    supernode: Supernode,
    candidates: Sequence[str],
    config: MeasurementConfig,
    wallet: Wallet,
    wait: float = 2.0,
) -> Tuple[List[str], List[str]]:
    """Send each candidate a throwaway future transaction and watch whether
    it re-propagates (the Section 6.2.1 filter). Returns the forwarders and
    the candidates whose probe could not be injected (send timeout, churned
    supernode link) — not proven harmless, so not to be measured either.

    A node never sends a transaction back to the peer it came from, so the
    measurement node cannot observe the forwarding itself; the paper
    launches "an additional monitor node (to the measurement node) to
    connect to the target node" — we do the same with a throwaway
    supernode, detached again afterwards.
    """
    y = estimate_y(supernode, config)
    factory = TransactionFactory()
    monitor = Supernode.join(
        network,
        node_id=f"monitor-{len(network.nodes)}-{network.sim.now:.3f}",
        targets=candidates,
    )
    probes: Dict[str, str] = {}
    unprobed: List[str] = []
    for node_id in candidates:
        probe = factory.future(
            wallet.fresh_account(prefix="fwdprobe"),
            gas_price=config.price_future(y),
            nonce_gap=FUTURE_NONCE_GAP,
        )
        if inject(supernode, node_id, [probe]):
            probes[node_id] = probe.hash
        else:
            unprobed.append(node_id)
    network.run(wait)
    forwarders = [
        node_id
        for node_id, probe_hash in probes.items()
        if monitor.observed_from(node_id, probe_hash)
    ]
    for node_id in list(monitor.peer_ids):
        network.disconnect(monitor.id, node_id)
    return forwarders, unprobed


def calibrate_future_count(
    network: Network,
    supernode: Supernode,
    target_id: str,
    local_peer_id: str,
    config: MeasurementConfig,
    z_values: Sequence[int],
    wallet: Optional[Wallet] = None,
) -> Optional[int]:
    """Find the smallest flood size Z that detects the known link between
    ``target_id`` and the locally controlled ``local_peer_id``.

    This is the proactive recall fix of Section 5.2.3: the local node's
    true neighbours are known (``admin_peers``), so a false negative at
    some Z implies the remote target runs a larger-than-default mempool;
    the discovered Z is then used for all measurements involving it.
    Returns None when no candidate Z succeeds.
    """
    if not network.are_connected(target_id, local_peer_id):
        raise ValueError(
            "calibration requires a known-true link between the target and "
            "the locally controlled node"
        )
    for z in sorted(z_values):
        attempt = measure_one_link(
            network,
            supernode,
            target_id,
            local_peer_id,
            config.with_future_count(z),
            wallet or probe_wallet(network),
        )
        cleanup(network, supernode)
        if attempt.detected:
            return z
    return None
