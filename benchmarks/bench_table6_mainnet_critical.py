"""Table 6: connections among the mainnet's critical service nodes.

Paper findings (the reproduction targets, per connection type):

- SrvR1 (dominant relay) connects to every tested mining pool and to other
  SrvR1 nodes, but NOT to the other relay SrvR2;
- SrvR2 behaves like a vanilla client: no links to pools or relays;
- pool nodes connect to the same and other pools and to SrvR1 — except
  SrvM1 nodes, which do not peer with each other.

The bench discovers the service backends via client-version matching, runs
the non-interference-extended measurement over all pairs among nine chosen
critical nodes, and checks the measured connection matrix row by row.
"""

import pytest

from benchmarks.harness import emit, run_once
from repro.core.campaign import TopoShot
from repro.core.noninterference import NonInterferenceMonitor
from repro.eth.miner import Miner
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.services import MainnetSpec, discover_critical_nodes, mainnet_like
from repro.netgen.workloads import prefill_mempools

# Paper's Table 6, as (type pair) -> connected?
PAPER_TABLE_6 = {
    ("SrvR1", "SrvR1"): True,
    ("SrvM1", "SrvR1"): True,
    ("SrvM2", "SrvR1"): True,
    ("SrvM3", "SrvR1"): True,
    ("SrvM4", "SrvR1"): True,
    ("SrvR1", "SrvR2"): False,
    ("SrvM1", "SrvR2"): False,
    ("SrvM2", "SrvR2"): False,
    ("SrvM3", "SrvR2"): False,
    ("SrvM4", "SrvR2"): False,
    ("SrvM1", "SrvM1"): False,  # the paper's notable exception
    ("SrvM1", "SrvM2"): True,
    ("SrvM1", "SrvM3"): True,
    ("SrvM1", "SrvM4"): True,
    ("SrvM2", "SrvM2"): True,
    ("SrvM2", "SrvM3"): True,
    ("SrvM2", "SrvM4"): True,
    ("SrvM3", "SrvM4"): True,
}


def run_study():
    network, directory = mainnet_like(MainnetSpec(n_regular=50, seed=11))
    discovered = discover_critical_nodes(network, directory)
    selected = {}
    for service, count in (
        ("SrvR1", 2), ("SrvR2", 1), ("SrvM1", 2), ("SrvM2", 2),
        ("SrvM3", 1), ("SrvM4", 1),
    ):
        selected[service] = discovered[service][:count]
    chosen = [node for nodes in selected.values() for node in nodes]

    # Full pools whose cheap tail sits below Y = 1 gwei (a price under
    # every resident cannot enter a full pool), mining from 2 gwei up.
    prefill_mempools(network, median_price=gwei(1.5))
    network.chain.gas_limit = 6 * INTRINSIC_GAS
    miner = Miner(
        network.node(discovered["SrvM1"][0]),
        network.chain,
        block_interval=13.0,
        min_gas_price=gwei(2.0),
    )
    miner.start()

    shot = TopoShot.attach(network)
    shot.config = shot.config.with_gas_price(gwei(1.0)).with_repeats(2)
    monitor = NonInterferenceMonitor(network.chain, y0=gwei(1.0), expiry=60.0)
    monitor.start(network.sim.now)
    pairs = [
        (chosen[i], chosen[j])
        for i in range(len(chosen))
        for j in range(i + 1, len(chosen))
    ]
    detected = shot.measure_pairs(pairs).edges
    monitor.stop(network.sim.now)
    network.run(60.0)
    return network, selected, detected, monitor.verify()


@pytest.mark.benchmark(group="table6")
def test_table6_mainnet_critical_subnetwork(benchmark):
    network, selected, detected, ni_report = run_study()

    def matrix():
        service_of = {n: s for s, nodes in selected.items() for n in nodes}
        seen = {}
        for e in detected:
            a, b = tuple(e)
            key = tuple(sorted((service_of[a], service_of[b])))
            seen[key] = True
        return seen

    seen = run_once(benchmark, matrix)
    lines = [f"{'type pair':<18} {'measured':>9} {'paper':>7}"]
    mismatches = []
    for (s1, s2), expected in sorted(PAPER_TABLE_6.items()):
        # Only check pairs measurable with the selected node counts.
        if s1 == s2 and len(selected.get(s1, [])) < 2:
            continue
        got = seen.get(tuple(sorted((s1, s2))), False)
        lines.append(
            f"{s1 + ' -- ' + s2:<18} {'X' if got else '-':>9} "
            f"{'X' if expected else '-':>7}"
        )
        if got != expected:
            mismatches.append((s1, s2))
    lines.append("")
    lines.append(f"non-interference: {ni_report.summary()}")
    emit("table6_mainnet_critical", "\n".join(lines))

    assert not mismatches, f"connection-type mismatches: {mismatches}"
    assert ni_report.non_interfering
