"""Tests for background workloads and mainnet service overlays."""

import pytest

from repro.eth.transaction import gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.services import (
    SCALED_SERVICE_COUNTS,
    MainnetSpec,
    PAPER_SERVICE_COUNTS,
    discover_critical_nodes,
    mainnet_like,
)
from repro.netgen.workloads import (
    BackgroundWorkload,
    prefill_mempools,
    refresh_mempools,
)


class TestPrefill:
    def test_fills_every_pool(self):
        network = quick_network(n_nodes=10, seed=1)
        prefill_mempools(network, median_price=gwei(1.0))
        for node_id in network.measurable_node_ids():
            assert network.node(node_id).mempool.is_full

    def test_same_content_everywhere(self):
        network = quick_network(n_nodes=6, seed=2)
        txs = prefill_mempools(network)
        first = network.node(network.measurable_node_ids()[0]).mempool
        for node_id in network.measurable_node_ids()[1:]:
            pool = network.node(node_id).mempool
            if len(pool) == len(first):
                assert set(pool.capture_state()["by_hash"]) == set(
                    first.capture_state()["by_hash"]
                )

    def test_all_prefilled_are_pending(self):
        network = quick_network(n_nodes=5, seed=3)
        prefill_mempools(network)
        for node_id in network.measurable_node_ids():
            pool = network.node(node_id).mempool
            assert pool.future_count == 0

    def test_median_price_near_request(self):
        network = quick_network(n_nodes=5, seed=4)
        prefill_mempools(network, median_price=gwei(2.0), sigma=0.3)
        pool = network.node(network.measurable_node_ids()[0]).mempool
        median = pool.median_pending_price()
        assert gwei(1.5) <= median <= gwei(2.7)

    def test_explicit_count(self):
        network = quick_network(n_nodes=4, seed=5)
        txs = prefill_mempools(network, count=10)
        assert len(txs) == 10

    def test_refresh_replaces_content(self):
        network = quick_network(n_nodes=4, seed=6)
        old = prefill_mempools(network)
        new = refresh_mempools(network)
        pool = network.node(network.measurable_node_ids()[0]).mempool
        hashes = set(pool.capture_state()["by_hash"])
        assert hashes.isdisjoint({t.hash for t in old})
        assert hashes <= {t.hash for t in new}


class TestBackgroundWorkload:
    def test_submissions_propagate(self):
        network = quick_network(n_nodes=8, seed=7)
        workload = BackgroundWorkload(network, rate_per_second=10.0)
        workload.start()
        network.run(10.0)
        workload.stop()
        assert len(workload.submitted) > 50
        sample = workload.submitted[0]
        holders = sum(
            1
            for nid in network.measurable_node_ids()
            if sample.hash in network.node(nid).mempool
        )
        assert holders >= len(network.measurable_node_ids()) // 2

    def test_stop_halts_submission(self):
        network = quick_network(n_nodes=4, seed=8)
        workload = BackgroundWorkload(network, rate_per_second=5.0)
        workload.start()
        network.run(2.0)
        workload.stop()
        count = len(workload.submitted)
        network.run(5.0)
        assert len(workload.submitted) == count

    def test_rejects_bad_rate(self):
        network = quick_network(n_nodes=4, seed=9)
        with pytest.raises(ValueError):
            BackgroundWorkload(network, rate_per_second=0)


class TestMainnetServices:
    def test_scaled_counts_follow_paper_ordering(self):
        """SrvM1 and SrvR1 are the biggest services, SrvM6/SrvR2 singletons,
        as in Section 6.3's discovery results."""
        assert PAPER_SERVICE_COUNTS["SrvM1"] == 59
        assert PAPER_SERVICE_COUNTS["SrvR1"] == 48
        assert SCALED_SERVICE_COUNTS["SrvR2"] == 1
        assert SCALED_SERVICE_COUNTS["SrvM6"] == 1

    def test_directory_and_wiring_bias(self):
        network, directory = mainnet_like(MainnetSpec(n_regular=30, seed=1))
        r1 = directory.members["SrvR1"]
        r2 = directory.members["SrvR2"][0]
        m1 = directory.members["SrvM1"]
        m2 = directory.members["SrvM2"]
        # SrvR1 interconnects and reaches every pool node.
        assert network.are_connected(r1[0], r1[1])
        assert all(network.are_connected(r1[0], node) for node in m1 + m2)
        # SrvR2 has no preferential links.
        assert not any(network.are_connected(r2, node) for node in r1 + m1)
        # SrvM1 nodes avoid each other; SrvM2 nodes interconnect.
        assert not network.are_connected(m1[0], m1[1])
        assert network.are_connected(m2[0], m2[1])

    def test_discovery_matches_directory(self):
        network, directory = mainnet_like(MainnetSpec(n_regular=20, seed=2))
        discovered = discover_critical_nodes(network, directory)
        for service, members in directory.members.items():
            assert sorted(discovered[service]) == sorted(members)

    def test_regular_nodes_not_discovered(self):
        network, directory = mainnet_like(MainnetSpec(n_regular=20, seed=3))
        discovered = discover_critical_nodes(network, directory)
        all_discovered = {n for ids in discovered.values() for n in ids}
        regular = set(network.measurable_node_ids()) - set(
            directory.all_service_nodes()
        )
        assert all_discovered.isdisjoint(regular)

    def test_service_of_lookup(self):
        _, directory = mainnet_like(MainnetSpec(n_regular=10, seed=4))
        node = directory.members["SrvM3"][0]
        assert directory.service_of(node) == "SrvM3"
        assert directory.service_of("nobody") is None
