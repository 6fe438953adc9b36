"""Ablation: the isolation price band is what buys 100% precision.

TopoShot prices txA at (1 + R/2)Y — deliberately *between* txB's
(1 - R/2)Y and the (1 + R)Y replacement threshold over txC. This ablation
sweeps txA's bump over Y and shows the band is tight on both sides:

- bump < 4.5% (= (1-R/2)(1+R) - 1): txA can no longer replace txB on the
  sink -> recall dies;
- 4.5% <= bump < R: the working band (precision and recall both perfect);
- bump >= R: txA replaces txC on *third parties* and floods -> false
  positives, precision collapses.
"""

import math

import pytest

from benchmarks.harness import emit, run_once
from repro.core.config import (
    FLOOD_WAIT,
    PROPAGATION_WAIT,
    SETTLE_WAIT,
    MeasurementConfig,
)
from repro.core.gas_estimator import estimate_y
from repro.core.primitive import build_future_flood, rebid
from repro.core.results import edge, score_edges
from repro.eth.account import Wallet
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from tests.conftest import pairs_of

BUMPS = (0.02, 0.04, 0.055, 0.07, 0.09, 0.105, 0.12)


def probe_with_bump(bump: float, pairs, seed=19):
    """measure_one_link with a custom txA price: (1 + bump) * Y."""
    detected = set()
    for a, b in pairs:
        network = quick_network(
            n_nodes=16, seed=seed, outbound_dials=3, max_peers=8
        )
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        config = MeasurementConfig()
        wallet = Wallet(f"ablate-{bump}-{a}-{b}")
        factory = TransactionFactory()
        y = estimate_y(supernode, config)
        tx_c = factory.transfer(wallet.fresh_account(), y)
        supernode.send_transactions(a, [tx_c])
        network.run(FLOOD_WAIT)
        flood = build_future_flood(wallet, factory, config.with_future_count(128), y)
        tx_b = rebid(factory, tx_c, config.price_b(y))
        supernode.send_transactions(b, [*flood, tx_b])
        network.run(SETTLE_WAIT)
        tx_a = rebid(factory, tx_c, int(math.ceil(y * (1.0 + bump))))
        supernode.send_transactions(a, [*flood, tx_a])
        network.run(PROPAGATION_WAIT)
        if supernode.observed_from(b, tx_a.hash):
            detected.add(edge(a, b))
    return detected


def sweep():
    network = quick_network(n_nodes=16, seed=19, outbound_dials=3, max_peers=8)
    truth = network.ground_truth_graph()
    pairs = pairs_of(truth, connected=True, limit=3) + pairs_of(
        truth, connected=False, limit=3
    )
    true_edges = {edge(a, b) for a, b in pairs if truth.has_edge(a, b)}
    rows = []
    for bump in BUMPS:
        detected = probe_with_bump(bump, pairs)
        rows.append((bump, score_edges(detected, true_edges)))
    return rows


@pytest.mark.benchmark(group="ablation-isolation")
def test_ablation_isolation_price_band(benchmark):
    rows = run_once(benchmark, sweep)
    lines = [f"{'txA bump over Y':>16} {'precision':>10} {'recall':>8}  regime"]
    for bump, score in rows:
        # Lower band edge: txA replaces txB iff
        # (1 + bump) >= (1 - R/2)(1 + R) = 1.045 at R = 10%.
        if bump < 0.045:
            regime = "below band: txA cannot replace txB"
            assert score.recall == 0.0, bump
        elif bump < 0.10:
            regime = "working band (TopoShot uses R/2 = 5%)"
            assert score.precision == 1.0 and score.recall == 1.0, bump
        else:
            regime = "above band: txA replaces txC everywhere"
            assert score.precision < 1.0, bump
        lines.append(
            f"{bump:>16.3f} {score.precision:>10.3f} {score.recall:>8.3f}  {regime}"
        )
    lines.append("")
    lines.append(
        "design choice validated: (1+R/2)Y replaces (1-R/2)Y txB "
        "(bump ~10.5% >= R) but never Y-priced txC (bump 5% < R)"
    )
    emit("ablation_isolation", "\n".join(lines))
