"""TxProbe adapted to Ethereum (Section 4.1, Appendix A).

Method
------
TxProbe (Delgado-Segura et al., FC'19) infers Bitcoin links by
(1) announcing a marker transaction's hash to every node except the sink
so they burn their announcement-hold window on a body that never
arrives, (2) delivering the marker to the source, and (3) checking
whether it shows up at the sink — the only node free to fetch it from
the source.

On Bitcoin-style **announce-only** propagation this enforces isolation
and the method works. On Ethereum it does not, for the two reasons the
TopoShot paper gives:

- transactions are also *pushed* directly ("no matter how small portion
  it plays"), which bypasses the hold and relays the marker through
  third parties — false positives;
- under the account model the marker cannot be made an orphan the way a
  double-spend-dependent transaction is under UTXO: it carries a valid
  nonce, is merely an (unverifiable) overdraft, and propagates anyway.

:func:`txprobe_survey` measures a pair list and scores it against ground
truth so the benchmark can contrast TxProbe's precision with TopoShot's.

Fidelity caveats vs the source paper
------------------------------------
- The original's marker is a double-spend orphan; Ethereum has no
  equivalent, so the marker here is a plain (relayable) transfer — this
  is the point the port demonstrates, not a shortcut.
- TxProbe probes one directed pair at a time within Bitcoin's 120 s
  inventory window; the port keeps the serial one-pair-at-a-time shape,
  so its probe cost scales with the number of pairs — visible in the
  arena's cost columns.

Config knobs
------------
``blocking``      whether to run the announcement-hold blocking step
                  (turning it off shows the method's floor)
``wait``          seconds to wait for the marker at the sink; must stay
                  below the clients' 5 s announcement hold
``marker_price``  marker gas price (default 1.5x the ambient median so
                  pools admit it everywhere)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

from repro.core.results import Edge, ValidationScore, edge, score_edges
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei


@dataclass
class TxProbeReport:
    """One TxProbe-style probe of a directed pair."""

    a: str
    b: str
    positive: bool


def txprobe_measure_link(
    network: Network,
    supernode: Supernode,
    a_id: str,
    b_id: str,
    wallet: Optional[Wallet] = None,
    marker_price: Optional[int] = None,
    blocking: bool = True,
    wait: float = 3.0,
) -> TxProbeReport:
    """Probe A->B the TxProbe way.

    ``wait`` must stay below the clients' announcement hold (5 s) — beyond
    it even Bitcoin-style blocking expires, exactly as TxProbe must finish
    within Bitcoin's 120 s window.
    """
    wallet = wallet or Wallet(f"txprobe-{network.sim.now:.3f}")
    factory = TransactionFactory()
    if marker_price is None:
        median = supernode.mempool.median_pending_price()
        marker_price = int((median or gwei(1.0)) * 1.5)
    marker = factory.transfer(wallet.fresh_account(prefix="marker"), marker_price)

    if blocking:
        # Announce the marker hash everywhere except the sink; never
        # deliver the body (the announcement-hold blocking trick).
        for peer_id in supernode.peer_ids:
            if peer_id not in (b_id,):
                supernode.announce_hashes(peer_id, [marker.hash])
        network.run(0.5)

    supernode.send_transactions(a_id, [marker])
    network.run(wait)
    return TxProbeReport(
        a=a_id,
        b=b_id,
        positive=supernode.observed_from(b_id, marker.hash),
    )


@dataclass
class TxProbeSurvey:
    """Scored outcome of probing many pairs."""

    detected: Set[Edge] = field(default_factory=set)
    score: Optional[ValidationScore] = None


def txprobe_survey(
    network: Network,
    supernode: Supernode,
    pairs: Sequence[Tuple[str, str]],
    blocking: bool = True,
    wait: float = 3.0,
) -> TxProbeSurvey:
    """Probe each pair serially and score against the true topology."""
    survey = TxProbeSurvey()
    wallet = Wallet("txprobe-survey")
    for a, b in pairs:
        report = txprobe_measure_link(
            network, supernode, a, b, wallet=wallet, blocking=blocking, wait=wait
        )
        if report.positive:
            survey.detected.add(edge(a, b))
        supernode.clear_observations()
        network.forget_known_transactions()
    truth = {
        edge(a, b) for a, b in pairs if network.are_connected(a, b)
    }
    measured_universe = {edge(a, b) for a, b in pairs}
    survey.score = score_edges(survey.detected & measured_universe, truth)
    return survey
