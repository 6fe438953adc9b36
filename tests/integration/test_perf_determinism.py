"""Golden-fingerprint determinism tests for the simulation hot path.

The performance work on the engine, node gossip path and mempool is only
acceptable if it is *behaviour-preserving*: the same seed must produce the
same event sequence and the same measured topology, bit for bit. These
tests pin SHA-256 fingerprints of

- the edge set a full TopoShot campaign measures on a 24-node network, and
- the complete event trace of a 25-transaction propagation run on a
  40-node network (time, kind and label of every executed event), read
  from the run's event log.

Any change to event ordering, RNG draw sequence, latency sampling, relay
policy or trace labelling shows up here as a digest mismatch. If you
change behaviour *deliberately* (for example a new relay rule), re-derive
the constants and say so in the commit — never update them to paper over
an unintended diff.

The fingerprints are stable across CPython versions because the simulation
draws only on ``random()``/``getrandbits()``-based Mersenne-Twister
primitives and blake2b hashing, both of which are version-stable.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.campaign import TopoShot
from repro.eth.account import Wallet
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import quick_network
from tests.conftest import record_everything, trace_lines

EDGE_DIGEST = "fe2ce0906b22c34574950815ffbfa79c1a72e2c6d162e096b44f57f2f491a703"
N_EDGES = 184

TRACE_DIGEST = "80ca30d383e2b28292a54049bcbb4c9d0d972b16235ef9f2c456f8b889cb3c7e"
TRACE_LEN = 9262


def campaign_edge_fingerprint(n_nodes: int = 24, seed: int = 7):
    """Digest of the edge set a full measurement campaign recovers."""
    network = quick_network(n_nodes=n_nodes, seed=seed)
    shot = TopoShot.attach(network)
    measurement = shot.measure_network()
    edges = sorted(sorted(edge) for edge in measurement.edges)
    digest = hashlib.sha256(json.dumps(edges).encode("utf-8")).hexdigest()
    return digest, len(edges)


def propagation_trace_fingerprint(n_nodes: int = 40, seed: int = 3, txs: int = 25):
    """Digest of every executed event of a traced propagation scenario."""
    network = quick_network(n_nodes=n_nodes, seed=seed)
    obs = record_everything(network)
    wallet = Wallet("golden")
    factory = TransactionFactory()
    ids = network.measurable_node_ids()
    for index in range(txs):
        network.node(ids[index % len(ids)]).submit_transaction(
            factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0) + index)
        )
    network.settle()
    lines = trace_lines(obs.events)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest, len(lines)


class TestGoldenFingerprints:
    def test_measured_edge_set_is_pinned(self):
        digest, n_edges = campaign_edge_fingerprint()
        assert n_edges == N_EDGES
        assert digest == EDGE_DIGEST

    def test_propagation_trace_is_pinned(self):
        digest, trace_len = propagation_trace_fingerprint()
        assert trace_len == TRACE_LEN
        assert digest == TRACE_DIGEST

    def test_trace_fingerprint_is_reproducible_in_process(self):
        """Two fresh simulations in one process agree byte for byte."""
        first = propagation_trace_fingerprint(n_nodes=20, seed=5, txs=8)
        second = propagation_trace_fingerprint(n_nodes=20, seed=5, txs=8)
        assert first == second
