"""Figure 7 (Appendix B): recall versus target mempool size.

Paper's local validation: three mutually connected local nodes; node A's
mempool size X is swept (3120..9120) with X' background transactions
pre-loaded; TopoShot (Z = 5120) achieves 100% recall iff X - X' <= 5120,
dropping to 0% beyond — a hard cliff at the flood size.

Reproduction at 1:10 scale: Z = 512, pool sizes swept around it with a
fixed pending load; the recall cliff must sit exactly where
capacity - pending exceeds Z.
"""

import pytest

from benchmarks.harness import emit, run_once
from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools

Z = 512
PENDING = 100
CAPACITIES = (312, 412, 512, 612, 712, 812, 912)
TRIALS = 3


def recall_for_capacity(capacity: int, seed: int) -> bool:
    network = Network(seed=seed)
    base = GETH.scaled(512)
    network.create_node("a", NodeConfig(policy=base.with_capacity(capacity)))
    network.create_node("b", NodeConfig(policy=base))
    network.create_node("c", NodeConfig(policy=base))
    network.connect("a", "b")
    network.connect("b", "c")
    network.connect("a", "c")
    # Background transactions priced well above txC, as in the paper's
    # local setup — txC is then the lowest-priced pending transaction and
    # one eviction flushes it, putting the cliff exactly at
    # capacity - pending = Z.
    prefill_mempools(network, median_price=gwei(2.0), sigma=0.1, count=PENDING)
    supernode = Supernode.join(network)
    config = MeasurementConfig.for_policy(base).with_future_count(Z).with_gas_price(
        gwei(0.5)
    )
    return measure_one_link(network, supernode, "a", "b", config).detected


def sweep():
    rows = []
    for capacity in CAPACITIES:
        hits = sum(
            recall_for_capacity(capacity, seed=100 + trial)
            for trial in range(TRIALS)
        )
        rows.append((capacity, hits / TRIALS))
    return rows


@pytest.mark.benchmark(group="fig7")
def test_fig7_recall_vs_mempool_size(benchmark):
    rows = run_once(benchmark, sweep)
    lines = [
        f"Z = {Z} future txs, {PENDING} pending pre-loaded",
        f"{'mempool size':>13} {'size - pending':>15} {'recall':>8}",
    ]
    for capacity, recall in rows:
        gap = capacity - PENDING
        lines.append(f"{capacity:>13} {gap:>15} {recall:>8.2f}")
        if gap <= Z:
            assert recall == 1.0, (capacity, recall)
        else:
            assert recall == 0.0, (capacity, recall)
    lines.append("")
    lines.append(
        "paper: recall 100% iff mempool_size - pending <= Z (5120), else 0% "
        "— the same cliff, at our scaled Z"
    )
    emit("fig7_recall_vs_mempool", "\n".join(lines))
