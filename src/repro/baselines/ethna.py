"""Ethna: passive degree estimation from transaction propagation.

Method
------
Ethna (Wang et al., arXiv:2010.01373) measures Ethereum's topology
*without sending a single probe*: a monitor peers widely, watches
ordinary transaction traffic, and exploits the protocol's fanout rule.
An Ethereum client forwards each newly admitted transaction as a full
body (*push*) to ``ceil(sqrt(d))`` of its ``d`` peers and as a hash
announcement to the rest. From the monitor's seat, the fraction of
transactions a peer chooses to *push* to it (rather than announce) is a
direct function of that peer's degree:

    ``r(d) ≈ ceil(sqrt(d)) / (d - 1)``

(the ``-1`` because the relay only considers peers not already known to
have the transaction — at relay time that is at least the peer it got
the transaction from). Counting pushes vs announcements per peer over
enough organic traffic and inverting ``r`` yields a degree estimate per
peer; no edge identities are learned, so Ethna reports *degrees*, not an
edge set.

Fidelity caveats vs the source paper
------------------------------------
- The paper estimates degree from the eth/65 announce-vs-broadcast split
  of real Geth nodes, exactly the split this simulator's
  ``ceil(sqrt(k))`` batched gossip implements, so the estimator's core
  identity carries over; the paper's additional Markov-chain refinement
  for nodes *not* directly peered with the monitor is out of scope
  (every arena target is peered with the monitor).
- The paper runs on weeks of mainnet traffic; here the organic traffic
  is a seeded :class:`repro.netgen.workloads.BackgroundWorkload`, so
  sample counts per peer are small (tens, not millions). The estimate is
  unbiased but noisy; ``degree_mape`` in the report quantifies it.
- The monitor itself is one of each target's peers, so the true quantity
  the estimator converges to is the target's *gossip* degree including
  the monitor link; the report scores against exactly that.

Config knobs
------------
``observation_txs``  organic transactions to observe before estimating
                     (more → tighter per-peer ratio estimates)
``tx_rate``          background submission rate, transactions per
                     simulated second
``min_samples``      minimum (push + announce) observations from a peer
                     before an estimate is produced for it
``settle``           extra simulated seconds after the last submission
                     so in-flight relays land
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei


@dataclass
class EthnaReport:
    """Per-peer degree estimates and their error against ground truth."""

    degree_estimates: Dict[str, int] = field(default_factory=dict)
    true_degrees: Dict[str, int] = field(default_factory=dict)
    observed_txs: int = 0
    skipped_low_sample: int = 0

    @property
    def degree_mae(self) -> float:
        """Mean absolute error of the degree estimates (0.0 if none)."""
        if not self.degree_estimates:
            return 0.0
        total = sum(
            abs(est - self.true_degrees[peer])
            for peer, est in self.degree_estimates.items()
        )
        return total / len(self.degree_estimates)

    @property
    def degree_mape(self) -> float:
        """Mean absolute percentage error of the estimates (0.0 if none)."""
        if not self.degree_estimates:
            return 0.0
        total = sum(
            abs(est - self.true_degrees[peer]) / self.true_degrees[peer]
            for peer, est in self.degree_estimates.items()
            if self.true_degrees[peer] > 0
        )
        return total / len(self.degree_estimates)

    def summary(self) -> str:
        return (
            f"ethna: degree estimates for {len(self.degree_estimates)} peers "
            f"from {self.observed_txs} observed txs; "
            f"MAE={self.degree_mae:.2f} MAPE={self.degree_mape:.1%}"
        )


def expected_push_ratio(degree: int) -> float:
    """Model: probability a degree-``d`` relay pushes (vs announces) to
    one particular unaware peer, per the ``ceil(sqrt(d))`` fanout rule."""
    if degree <= 1:
        return 1.0
    unaware = degree - 1  # the relay's source already has the tx
    return min(math.ceil(math.sqrt(degree)), unaware) / unaware


def invert_push_ratio(ratio: float, max_degree: int) -> int:
    """Degree whose expected push ratio is closest to the observed one."""
    best_degree, best_gap = 2, float("inf")
    for degree in range(2, max(3, max_degree + 1)):
        gap = abs(expected_push_ratio(degree) - ratio)
        if gap < best_gap:
            best_degree, best_gap = degree, gap
    return best_degree


def run_ethna(
    network: Network,
    supernode: Supernode,
    targets: Optional[Sequence[str]] = None,
    observation_txs: int = 60,
    tx_rate: float = 25.0,
    min_samples: int = 5,
    settle: float = 1.0,
    median_price: Optional[int] = None,
    wallet: Optional[Wallet] = None,
) -> EthnaReport:
    """Observe organic traffic and estimate each target peer's degree.

    Purely passive: the monitor never injects anything itself; a seeded
    :class:`~repro.netgen.workloads.BackgroundWorkload` stands in for the
    live network's organic transaction flow.
    """
    from repro.netgen.workloads import BackgroundWorkload

    if targets is None:
        targets = network.measurable_node_ids()
    targets = list(targets)
    target_set = set(targets)

    supernode.clear_observations()
    workload = BackgroundWorkload(
        network,
        rate_per_second=tx_rate,
        median_price=median_price or gwei(1.0),
        wallet=wallet,
    )
    workload.start()
    while len(workload.submitted) < observation_txs:
        network.run(0.5)
    workload.stop()
    network.run(settle)

    organic = {tx.hash for tx in workload.submitted}
    report = EthnaReport(observed_txs=len(organic))
    pushes: Dict[str, int] = {}
    announces: Dict[str, int] = {}
    for obs in supernode.observations:
        if obs.tx_hash not in organic or obs.peer not in target_set:
            continue
        bucket = pushes if obs.kind == "push" else announces
        bucket[obs.peer] = bucket.get(obs.peer, 0) + 1

    max_degree = len(network.node_ids)
    for peer in targets:
        p = pushes.get(peer, 0)
        a = announces.get(peer, 0)
        if p + a < min_samples:
            report.skipped_low_sample += 1
            continue
        ratio = p / (p + a)
        report.degree_estimates[peer] = invert_push_ratio(ratio, max_degree)
        report.true_degrees[peer] = len(network.node(peer).peers)
    return report
