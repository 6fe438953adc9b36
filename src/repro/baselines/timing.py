"""Timing-analysis topology inference (Neudecker et al. 2016 style).

Method
------
The W3 baseline the paper calls "limited in terms of low accuracy"
(Neudecker, Andelfinger & Hartenstein, "Timing analysis for inferring
the topology of the Bitcoin peer-to-peer network", 2016): inject probe
transactions at known origins, record each peer's first-observation
time at the supernode, and guess that the earliest responders after the
origin are its neighbours. The heuristic scores every (origin, peer)
pair by rank-weighted votes over many probes and keeps the best-scoring
edges.

Fidelity caveats vs the source paper
------------------------------------
- The original infers Bitcoin links from trickle/diffusion delays with a
  network-wide estimator validated in simulation; this port keeps only
  the core rank-by-first-arrival heuristic, which is what the TopoShot
  paper contrasts against.
- ``neighbor_guess`` plays the role of the paper's degree prior; there
  is no per-link latency calibration, so accuracy here is an upper bound
  on what the method achieves on the live network.
- With a target subset (the arena's ``--targets`` mode) the earliest
  reporters can be two-hop relays through non-target nodes, which costs
  precision — same caveat as :mod:`repro.baselines.dethna`.

Config knobs
------------
``probes_per_node``  probes injected per origin (more → stabler ranks)
``neighbor_guess``   how many earliest reporters earn votes per probe
                     (the degree prior)
``min_votes``        accumulated rank-weighted vote mass needed to
                     predict an edge
``wait``             simulated seconds each probe propagates before the
                     observation log is read
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.results import Edge, ValidationScore, edge, score_edges
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei


@dataclass
class TimingInference:
    """Result of the timing heuristic."""

    predicted: Set[Edge] = field(default_factory=set)
    probes: int = 0
    score_vs_active: Optional[ValidationScore] = None

    def summary(self) -> str:
        v = self.score_vs_active
        scored = (
            f" precision={v.precision:.3f} recall={v.recall:.3f}" if v else ""
        )
        return (
            f"timing inference: {len(self.predicted)} predicted edges from "
            f"{self.probes} probes;{scored}"
        )


def timing_inference(
    network: Network,
    supernode: Supernode,
    probes_per_node: int = 3,
    neighbor_guess: int = 6,
    min_votes: float = 1.0,
    wait: float = 2.0,
    wallet: Optional[Wallet] = None,
    targets: Optional[Sequence[str]] = None,
) -> TimingInference:
    """Run the timing heuristic against ``targets`` (default: every
    measurable node).

    For each probe injected at origin ``o``, the ``neighbor_guess``
    earliest peers to show the transaction (excluding ``o`` itself) each
    get a vote of weight ``1/rank`` for the edge (o, peer). Edges with
    accumulated weight >= ``min_votes`` are predicted. When ``targets``
    is given, probing, voting, and scoring are all restricted to edges
    inside that subset.
    """
    wallet = wallet or Wallet("timing")
    factory = TransactionFactory()
    result = TimingInference()
    votes: Dict[Edge, float] = {}
    subset = targets is not None
    targets = list(targets) if subset else list(network.measurable_node_ids())
    median = supernode.mempool.median_pending_price() or gwei(1.0)

    for origin in targets:
        for _ in range(probes_per_node):
            probe = factory.transfer(
                wallet.fresh_account(prefix="probe"), int(median * 1.2)
            )
            inject_time = network.sim.now
            supernode.send_transactions(origin, [probe])
            network.run(wait)
            result.probes += 1
            arrivals: List[Tuple[float, str]] = []
            for peer in targets:
                if peer == origin:
                    continue
                seen = supernode.first_observation_time(peer, probe.hash)
                if seen is not None:
                    arrivals.append((seen - inject_time, peer))
            arrivals.sort()
            for rank, (_, peer) in enumerate(arrivals[:neighbor_guess], start=1):
                key = edge(origin, peer)
                votes[key] = votes.get(key, 0.0) + 1.0 / rank
        supernode.clear_observations()
        network.forget_known_transactions()

    result.predicted = {e for e, score in votes.items() if score >= min_votes}
    truth = network.ground_truth_edges(among=targets if subset else None)
    result.score_vs_active = score_edges(result.predicted, truth)
    return result
