"""Tests for the live fee market: dynamic floor, surge quote, base/tip
split, mempool admission wiring, and snapshot round-trips."""

import pytest

from repro.errors import MempoolError
from repro.eth.fee_market import (
    ADMISSION_DISCOUNT,
    HISTORY_LIMIT,
    MAX_SURGE,
    TARGET_OCCUPANCY,
    FeeMarket,
    FeeMarketConfig,
    min_measurement_y,
)
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.policies import GETH
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools


# Knobs that became constants of ``eth/fee_market.py``: each constant holds
# the range the knob was validated to, and a config naming the knob is
# refused rather than ignored.
RETIRED_KNOBS = {
    "admission_discount": 0 < ADMISSION_DISCOUNT <= 1,
    "target_occupancy": 0 < TARGET_OCCUPANCY < 1,
    "max_surge": MAX_SURGE >= 1.0,
    "history_limit": HISTORY_LIMIT >= 1,
}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_floor": -1},
            {"floor_percentile": 1.0},
            {"floor_percentile": -0.1},
            {"admission_discount": 0.0},
            {"admission_discount": 1.5},
            {"target_occupancy": 0.0},
            {"target_occupancy": 1.0},
            {"max_surge": 0.5},
            {"update_interval": 0.0},
            {"history_limit": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        (knob,) = kwargs
        assert RETIRED_KNOBS.get(knob, True)
        with pytest.raises(TypeError if knob in RETIRED_KNOBS else MempoolError):
            FeeMarketConfig(**kwargs)

    def test_defaults_valid(self):
        config = FeeMarketConfig()
        assert config.min_floor > 0
        assert MAX_SURGE >= 1.0


class TestMinMeasurementY:
    @pytest.mark.parametrize("floor", [1, 17, gwei(0.3), gwei(5.0) + 3])
    @pytest.mark.parametrize("bump", [0.1, 0.15, 0.25])
    def test_cheapest_probe_clears_floor(self, floor, bump):
        y = min_measurement_y(floor, bump)
        # txB under the config builders' integer pricing must be admissible,
        # and y must be minimal for that property.
        assert int(y * (1.0 - bump / 2.0)) >= floor
        assert int((y - 1) * (1.0 - bump / 2.0)) < floor

    def test_degenerate_bump_rejected(self):
        with pytest.raises(MempoolError):
            min_measurement_y(gwei(1.0), 2.0)


class TestAdmissionFloor:
    def _pool_with_market(self, floor):
        market = FeeMarket(FeeMarketConfig(min_floor=floor))
        pool = Mempool(policy=GETH.scaled(64))
        pool.fee_market = market
        return pool, market

    def test_below_floor_rejected(self, wallet):
        pool, _ = self._pool_with_market(gwei(1.0))
        factory = TransactionFactory()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(0.5))
        result = pool.add(tx)
        assert result.outcome is AddOutcome.REJECTED_FEE_FLOOR
        assert not result.admitted
        assert pool.stats["rejected_fee_floor"] == 1
        assert len(pool) == 0

    def test_at_floor_admitted(self, wallet):
        pool, _ = self._pool_with_market(gwei(1.0))
        factory = TransactionFactory()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1.0))
        assert pool.add(tx).admitted

    def test_the_oracle_is_asked_only_where_its_interval_lapses(
        self, monkeypatch, wallet
    ):
        """Between recomputes the pool reads the cached floor; the offer
        at which ``update_interval`` has lapsed asks ``floor_for``."""
        asked = []
        floor_for = FeeMarket.floor_for

        def spy(market, now):
            asked.append(now)
            return floor_for(market, now)

        monkeypatch.setattr(FeeMarket, "floor_for", spy)
        market = FeeMarket(FeeMarketConfig(min_floor=gwei(1.0)))
        clock = [0.0]
        pool = Mempool(policy=GETH.scaled(64), clock=lambda: clock[0])
        pool.fee_market = market
        factory = TransactionFactory()
        for now, price in [(0.0, 2.0), (0.5, 0.5), (0.99, 2.0), (1.0, 0.5),
                           (1.5, 2.0), (2.5, 2.0)]:
            clock[0] = now
            pool.add(factory.transfer(wallet.fresh_account(), gas_price=gwei(price)))
        assert asked == [0.0, 1.0, 2.5]
        assert market.updates == 3
        assert pool.stats["rejected_fee_floor"] == 2

    def test_no_market_means_seed_path(self, wallet):
        pool = Mempool(policy=GETH.scaled(64))
        factory = TransactionFactory()
        tx = factory.transfer(wallet.fresh_account(), gas_price=1)
        assert pool.add(tx).admitted
        assert pool.stats["rejected_fee_floor"] == 0


class TestDynamicFloorAndSurge:
    def _market_network(self, n=10, seed=11, median=gwei(1.0)):
        network = quick_network(n, seed=seed)
        network.install_fee_market()
        prefill_mempools(network, median_price=median)
        return network

    def test_floor_tracks_watermark(self):
        network = self._market_network()
        market = network.fee_market
        # The floor-aware prefill already queried the (then-empty) market;
        # step past the update interval so the query below recomputes.
        floor = market.floor_for(
            network.sim.now + market.config.update_interval
        )
        # Full pools around gwei(1): the discounted low-percentile
        # watermark sits well above the configured minimum.
        assert floor > market.config.min_floor
        assert market.occupancy > TARGET_OCCUPANCY

    def test_surge_prices_the_quote_not_the_floor(self):
        network = self._market_network()
        market = network.fee_market
        now = network.sim.now + market.config.update_interval
        floor = market.floor_for(now)
        quote = market.quote_for(now)
        assert market.surge == pytest.approx(MAX_SURGE)
        assert quote == int(floor * market.surge)
        assert quote > floor

    def test_no_ratchet_across_refills(self):
        """Refilling at the same ambient distribution must not drive the
        floor unboundedly upward (the surged-admission feedback loop)."""
        network = self._market_network()
        market = network.fee_market
        floors = []
        for _ in range(6):
            network.sim.run(until=network.sim.now + 5.0)
            for node_id in network.measurable_node_ids():
                network.node(node_id).mempool.clear()
            prefill_mempools(network, median_price=gwei(1.0))
            floors.append(
                market.floor_for(
                    network.sim.now + market.config.update_interval
                )
            )
        # Bounded: every steady-state floor stays in the ambient band.
        assert max(floors) < 2 * gwei(1.0)

    def test_update_rate_limited(self):
        network = self._market_network()
        market = network.fee_market
        now = network.sim.now
        market.floor_for(now)
        before = market.updates
        market.floor_for(now)
        market.floor_for(now + market.config.update_interval / 2)
        assert market.updates == before
        market.floor_for(now + market.config.update_interval)
        assert market.updates == before + 1

    def test_empty_pools_fall_back_to_min_floor(self):
        network = quick_network(6, seed=3)
        network.install_fee_market()
        for node_id in network.node_ids:
            network.node(node_id).mempool.clear()
        market = network.fee_market
        assert market.floor_for(network.sim.now) == market.config.min_floor
        assert market.surge == 1.0

    def test_history_bounded_and_trajectory_filtered(self):
        network = quick_network(6, seed=3)
        market = FeeMarket(FeeMarketConfig(update_interval=1.0))
        network.install_fee_market(market)
        for step in range(HISTORY_LIMIT + 7):
            market.floor_for(float(step))
        assert len(market.history) == HISTORY_LIMIT
        assert market.history[0][0] == 7.0
        last = float(HISTORY_LIMIT + 6)
        window = market.floor_trajectory(last - 2.0, last - 1.0)
        assert [entry[0] for entry in window] == [last - 2.0, last - 1.0]

    def test_determinism(self):
        def trajectory():
            network = self._market_network(n=8, seed=21)
            market = network.fee_market
            for step in range(5):
                market.floor_for(network.sim.now + float(step))
            return market.history

        assert trajectory() == trajectory()


class TestSplit:
    def test_base_plus_tip(self):
        network = quick_network(4, seed=1)
        network.install_fee_market()
        market = network.fee_market
        base_fee = network.chain.base_fee
        price = base_fee + gwei(2.0)
        base, tip = market.split(price)
        assert base == base_fee
        assert tip == gwei(2.0)
        assert base + tip == price

    def test_price_below_base_fee_has_no_tip(self):
        network = quick_network(4, seed=1)
        network.install_fee_market()
        market = network.fee_market
        if network.chain.base_fee == 0:
            pytest.skip("chain runs without a base fee")
        base, tip = market.split(network.chain.base_fee - 1)
        assert tip == 0
        assert base == network.chain.base_fee - 1


class TestNetworkWiring:
    def test_attached_to_every_pool_except_supernodes(self):
        network = quick_network(8, seed=9)
        from repro.eth.supernode import Supernode

        supernode = Supernode.join(network)
        network.install_fee_market()
        for node_id in network.node_ids:
            node = network.node(node_id)
            if node_id in network.supernode_ids:
                assert node.mempool.fee_market is None
            else:
                assert node.mempool.fee_market is network.fee_market
        assert supernode.mempool.fee_market is None

    def test_snapshot_round_trip(self):
        network = quick_network(8, seed=13)
        network.install_fee_market()
        prefill_mempools(network, median_price=gwei(1.0))
        network.settle()
        market = network.fee_market
        market.floor_for(network.sim.now + market.config.update_interval)
        captured = network.snapshot()
        state = (
            market.floor,
            market.quote,
            market.surge,
            market.updates,
            list(market.history),
        )
        # Disturb the market, then restore.
        for node_id in network.measurable_node_ids():
            network.node(node_id).mempool.clear()
        market.floor_for(network.sim.now + 100.0)
        assert market.floor != state[0]
        network.restore(captured)
        assert (
            market.floor,
            market.quote,
            market.surge,
            market.updates,
            list(market.history),
        ) == state
