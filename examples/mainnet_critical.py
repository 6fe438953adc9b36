#!/usr/bin/env python3
"""Mainnet critical-subnetwork study (the Section 6.3 scenario).

Reproduces the paper's three-step mainnet methodology on a scaled
mainnet-like overlay:

1. discover the nodes behind critical services (mining pools SrvM1..6,
   relays SrvR1/SrvR2) by matching frontend ``web3_clientVersion`` strings
   against handshake versions;
2. run the *non-interference extended* TopoShot over the pairwise links
   among nine selected critical nodes, monitoring conditions V1/V2;
3. report the Table 6 connection matrix and the measurement cost, plus the
   famous "measuring all of mainnet would cost > $60M" extrapolation.

Run:  python examples/mainnet_critical.py
"""

from repro import TopoShot
from repro.core.cost import CostLedger, estimate_from_measured_pair_cost, paper_mainnet_estimate
from repro.core.noninterference import NonInterferenceMonitor
from repro.eth.miner import Miner
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.services import MainnetSpec, discover_critical_nodes, mainnet_like
from repro.netgen.workloads import prefill_mempools


def main() -> None:
    print("== Mainnet critical-subnetwork measurement ==\n")
    network, directory = mainnet_like(MainnetSpec(n_regular=50, seed=11))

    # Step 1: service-backend discovery via client-version matching.
    discovered = discover_critical_nodes(network, directory)
    print("-- Step 1: discovered service backends --")
    for service, nodes in discovered.items():
        print(f"  {service:<6} {len(nodes):>2} node(s)")

    # Pick one or two nodes per service, nine in total, like the paper.
    selected = {}
    for service, count in (
        ("SrvR1", 2), ("SrvR2", 1), ("SrvM1", 2), ("SrvM2", 2),
        ("SrvM3", 1), ("SrvM4", 1),
    ):
        selected[service] = discovered[service][:count]
    chosen = [n for nodes in selected.values() for n in nodes]
    print(f"\nselected {len(chosen)} critical nodes for pairwise measurement")

    # Mainnet realism: full pools, mining above the measurement price —
    # and a cheap tail below it: Y = 1 gwei only gets into a full pool if
    # it sits above the eviction waterline (§6.3). Every refresh between
    # rounds refills to this same level, also after mined blocks.
    prefill_mempools(network, median_price=gwei(1.5))
    network.chain.gas_limit = 6 * INTRINSIC_GAS
    miner = Miner(
        network.node(discovered["SrvM1"][0]),
        network.chain,
        block_interval=13.0,
        min_gas_price=gwei(2.0),
    )
    miner.start()

    shot = TopoShot.attach(network, targets=network.measurable_node_ids())
    shot.config = shot.config.with_gas_price(gwei(1.0)).with_repeats(2)

    # Step 2: extended TopoShot with the non-interference monitor armed.
    monitor = NonInterferenceMonitor(
        network.chain, y0=gwei(1.0), expiry=60.0
    )
    monitor.start(network.sim.now)
    pairs = [
        (chosen[i], chosen[j])
        for i in range(len(chosen))
        for j in range(i + 1, len(chosen))
    ]
    detected = shot.measure_pairs(pairs).edges
    monitor.stop(network.sim.now)
    # The last iteration's seeds stay buffered; as the pool drains, miners
    # eventually pick up the txA transactions (priced (1+R/2)Y > Y0, so V2
    # still holds) — this is where the measurement's Ether actually goes.
    miner.min_gas_price = gwei(1.02)
    network.run(60.0)  # let the expiry window elapse before verifying
    report = monitor.verify()
    print(f"\n-- Step 2: non-interference check --\n  {report.summary()}")

    # Step 3: the Table 6 connection matrix among service *types*.
    print("\n-- Step 3: connections among critical services (Table 6) --")
    service_of = {n: s for s, nodes in selected.items() for n in nodes}
    seen = {}
    for edge in detected:
        a, b = tuple(edge)
        key = tuple(sorted((service_of[a], service_of[b])))
        seen[key] = seen.get(key, 0) + 1
    for i, s1 in enumerate(selected):
        for s2 in list(selected)[i:]:
            key = tuple(sorted((s1, s2)))
            connected = seen.get(key, 0) > 0
            mark = "X" if connected else "-"
            print(f"  {s1:<6} -- {s2:<6} : {mark}")

    # Cost accounting and the full-mainnet extrapolation.
    ledger = CostLedger(network.chain)
    ledger.register("measurement", shot.measurement_senders)
    realized = ledger.spent_ether()
    print("\n-- Costs --")
    print(f"  realized so far  : {realized:.6f} ETH "
          f"({ledger.included_count()} measurement txs mined)")
    if realized == 0:
        print(
        "    (median-priced seeds are outbid by background traffic here;"
        "\n     on the live network they are mined within the 3h window)"
        )
    # Worst case: every pair's txA eventually pays its intrinsic fee.
    per_pair_eth = 1.05 * gwei(1.0) * INTRINSIC_GAS / 1e18
    print(f"  expected per pair: {per_pair_eth:.6f} ETH once seeds are mined")
    if realized > 0:
        scaled = estimate_from_measured_pair_cost(ledger, len(pairs))
        print(f"  extrapolated     : {scaled.summary()}")
    print(f"  paper's estimate : {paper_mainnet_estimate().summary()}")


if __name__ == "__main__":
    main()
