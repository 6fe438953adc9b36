#!/usr/bin/env python3
"""Quickstart: measure the topology of a small simulated Ethereum network.

This is the 60-second tour of the library:

1. generate an Ethereum-like overlay (nodes, mempools, discovery, links);
2. fill the mempools with background traffic (TopoShot needs full pools);
3. attach a measurement supernode and run the full TopoShot campaign;
4. compare the measured topology against the simulator's ground truth.

Run:  python examples/quickstart.py
"""

from repro import TopoShot, quick_network
from repro.analysis.degrees import degree_distribution
from repro.netgen.workloads import prefill_mempools


def main() -> None:
    print("== TopoShot quickstart ==\n")

    # 1. A 24-node Ethereum-like network (Geth clients, scaled mempools).
    network = quick_network(n_nodes=24, seed=7)
    truth = network.ground_truth_graph()
    print(
        f"generated network : {truth.number_of_nodes()} nodes, "
        f"{truth.number_of_edges()} active links (hidden from the tool)"
    )

    # 2. Full mempools are a correctness precondition of the primitive
    #    (Section 5.2.1: "99% of the time ... the mempool is full").
    prefill_mempools(network)

    # 3. Attach the measurement supernode and measure everything.
    shot = TopoShot.attach(network)
    print(
        f"measurement config: Z={shot.config.future_count} future txs, "
        f"R={shot.config.replace_bump:.1%}, "
        f"K={shot.config.group_size_for(24)} group size\n"
    )
    measurement = shot.measure_network()

    # 4. Score against ground truth (only possible in simulation — on the
    #    real network this topology is exactly the hidden information).
    print(measurement.summary())
    print()

    histogram = degree_distribution(measurement.graph)
    print("measured degree distribution:")
    print(histogram.ascii_plot(width=40))

    # A single link can also be probed with the serial primitive:
    a, b = measurement.node_ids[0], measurement.node_ids[1]
    connected = any(record.detected for record in shot.measure_link(a, b))
    print(
        f"\nserial probe {a} -- {b}: "
        f"{'connected' if connected else 'not connected'} "
        f"(ground truth: {truth.has_edge(a, b)})"
    )


if __name__ == "__main__":
    main()
