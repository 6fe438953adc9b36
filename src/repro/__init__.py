"""TopoShot reproduction: Ethereum topology measurement via replacement transactions.

This package reproduces "TopoShot: Uncovering Ethereum's Network Topology
Leveraging Replacement Transactions" (Li et al., ACM IMC 2021).

The package is organized as:

- :mod:`repro.sim` -- deterministic discrete-event simulation engine.
- :mod:`repro.eth` -- a from-scratch Ethereum node substrate (mempool with the
  paper's R/U/P/L model, transaction propagation, mining, discovery, RPC).
- :mod:`repro.netgen` -- topology and workload generators (testnet-like
  overlays, mainnet critical-service overlays, background transactions).
- :mod:`repro.core` -- TopoShot itself: the ``measure_one_link`` primitive,
  the parallel measurement primitive and schedule, pre-processing,
  client profiling, non-interference verification, campaigns and costs.
- :mod:`repro.baselines` -- TxProbe, FIND_NODE crawling and timing inference
  baselines for comparison.
- :mod:`repro.analysis` -- graph-theoretic analysis used by the paper's
  evaluation (Tables 4/5/9/10, degree figures).

Quickstart::

    from repro import quick_network, TopoShot

    net = quick_network(n_nodes=40, seed=7)
    shot = TopoShot.attach(net)
    result = shot.measure_network()
    print(result.graph.number_of_edges(), "edges recovered")
"""

from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.core.results import EdgeEvidence, NetworkMeasurement
from repro.eth.network import Network
from repro.eth.policies import (
    ALETH,
    BESU,
    CLIENT_POLICIES,
    GETH,
    NETHERMIND,
    PARITY,
    MempoolPolicy,
)
from repro.netgen.ethereum import quick_network

__version__ = "1.0.0"

__all__ = [
    "ALETH",
    "BESU",
    "CLIENT_POLICIES",
    "EdgeEvidence",
    "GETH",
    "MeasurementConfig",
    "MempoolPolicy",
    "NETHERMIND",
    "Network",
    "NetworkMeasurement",
    "PARITY",
    "TopoShot",
    "__version__",
    "measure_one_link",
    "quick_network",
]
