"""Tests for workload-adaptive Y selection (Section 6.3) and the
occupancy-driven flood trimming that reads the same pools."""

from dataclasses import replace

import pytest

from repro.core import primitive
from repro.core.adaptive import (
    AdaptiveYController,
    choose_adaptive_y,
    flood_room,
    inclusion_floor,
    pool_waterline,
)
from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.noninterference import check_conditions
from repro.core.primitive import build_future_flood, flood_margin, trim_flood
from repro.errors import MeasurementError
from repro.eth.account import Wallet
from repro.eth.chain import Chain
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH, PARITY
from repro.eth.transaction import INTRINSIC_GAS, Transaction, TransactionFactory, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools


def priced_block(chain, wallet, factory, prices, t=1.0):
    txs = [
        factory.transfer(wallet.fresh_account(), gas_price=p) for p in prices
    ]
    return chain.append("m", t, txs)


@pytest.fixture
def observer(wallet):
    network = Network(seed=71)
    node = network.create_node("obs", NodeConfig(policy=GETH.scaled(64)))
    for price in (gwei(1.0), gwei(2.0), gwei(3.0), gwei(4.0), gwei(5.0)):
        node.mempool.add(
            Transaction(
                sender=wallet.fresh_account().address, nonce=0, gas_price=price
            )
        )
    return node


class TestSignals:
    def test_inclusion_floor_over_window(self, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        priced_block(chain, wallet, factory, [gwei(5), gwei(3)], t=1.0)
        priced_block(chain, wallet, factory, [gwei(4), gwei(2)], t=2.0)
        assert inclusion_floor(chain) == gwei(2)

    def test_floor_ignores_empty_blocks(self, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        chain.append("m", 1.0, [])
        priced_block(chain, wallet, factory, [gwei(3)], t=2.0)
        assert inclusion_floor(chain) == gwei(3)

    def test_floor_none_without_blocks(self):
        assert inclusion_floor(Chain()) is None

    def test_floor_window_limits_lookback(self, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        priced_block(chain, wallet, factory, [gwei(1)], t=1.0)  # old & cheap
        for i in range(10):
            priced_block(chain, wallet, factory, [gwei(5)], t=2.0 + i)
        assert inclusion_floor(chain, window=10) == gwei(5)

    def test_pool_waterline_percentile(self, observer):
        assert pool_waterline(observer, percentile=0.0) == gwei(1.0)
        assert pool_waterline(observer, percentile=0.5) == gwei(3.0)

    def test_waterline_none_on_empty_pool(self):
        network = Network(seed=72)
        node = network.create_node("empty", NodeConfig(policy=GETH.scaled(16)))
        assert pool_waterline(node) is None


class TestChooseY:
    def test_y_below_floor_above_waterline(self, observer, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        priced_block(chain, wallet, factory, [gwei(10), gwei(8)])
        decision = choose_adaptive_y(chain, observer, margin=0.8)
        assert decision.y == int(gwei(8) * 0.8)
        assert decision.inclusion_floor == gwei(8)
        assert "Y=" in decision.summary()
        # The chosen Y keeps V2 verifiable by construction.
        report = check_conditions(chain, 0.0, 10.0, y0=decision.y, expiry=0.0)
        assert report.v2_prices_above_y0

    def test_no_safe_band_raises(self, observer, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        # Miners include down at 1 gwei while the pool floor is ~1 gwei:
        # 80% of the floor dives under the waterline.
        priced_block(chain, wallet, factory, [gwei(1.0)])
        with pytest.raises(MeasurementError):
            choose_adaptive_y(chain, observer, margin=0.8)

    def test_fallback_to_pool_median_without_blocks(self, observer):
        decision = choose_adaptive_y(Chain(), observer)
        assert decision.inclusion_floor is None
        assert decision.y == observer.mempool.median_pending_price()

    def test_empty_everything_raises(self):
        network = Network(seed=73)
        node = network.create_node("empty", NodeConfig(policy=GETH.scaled(16)))
        with pytest.raises(MeasurementError):
            choose_adaptive_y(Chain(), node)

    def test_invalid_margin_rejected(self, observer):
        with pytest.raises(MeasurementError):
            choose_adaptive_y(Chain(), observer, margin=1.5)


class TestController:
    def test_controller_tracks_the_market(self, observer, wallet, factory):
        chain = Chain(gas_limit=3 * INTRINSIC_GAS)
        priced_block(chain, wallet, factory, [gwei(10)], t=1.0)
        controller = AdaptiveYController(chain, observer, margin=0.5, window=2)
        first = controller.next_y()
        # The market heats up: cheaper txs stop being included.
        priced_block(chain, wallet, factory, [gwei(20)], t=2.0)
        priced_block(chain, wallet, factory, [gwei(20)], t=3.0)
        second = controller.next_y()
        assert second > first
        assert len(controller.decisions) == 2
        assert controller.last_decision.y == second


# ----------------------------------------------------------------------
# Per-node flood trimming: a pool is sent the futures it has room for
# (the law itself — trimmed == full flood, state for state — is
# tests/core/test_flood_trim.py)
# ----------------------------------------------------------------------
POLICY = GETH.scaled(64)
FLOOD_CONFIG = MeasurementConfig.for_policy(POLICY)
Y = gwei(2.0)
FLOOD_PRICE = FLOOD_CONFIG.price_future(Y)
MARGIN = flood_margin(FLOOD_CONFIG.future_count)
FLOOD = build_future_flood(Wallet("flood"), TransactionFactory(), FLOOD_CONFIG, Y)


def pool_node(prices, policy=POLICY, seed=74):
    node = Network(seed=seed).create_node("t", NodeConfig(policy=policy))
    wallet = Wallet("flood-size")
    for price in prices:
        result = node.mempool.add(
            Transaction(
                sender=wallet.fresh_account().address, nonce=0, gas_price=price
            )
        )
        assert result.admitted
    return node


def futures_sent(node):
    kept, _ = trim_flood(node, FLOOD)
    assert list(kept) == FLOOD[: len(kept)]
    return len(kept)


class TestAdaptiveFloodSize:
    def test_empty_pool_needs_the_full_static_flood(self):
        node = pool_node([])
        assert flood_room(node, FLOOD_PRICE) == 64
        assert futures_sent(node) == FLOOD_CONFIG.future_count == 64

    def test_storm_residue_above_flood_price_shrinks_z(self):
        """48 of 64 slots hold storm transactions the flood cannot evict:
        only the 16 free slots (plus margin) are worth sending."""
        node = pool_node([gwei(50.0)] * 48)
        assert flood_room(node, FLOOD_PRICE) == 16
        assert futures_sent(node) == 16 + MARGIN < FLOOD_CONFIG.future_count

    def test_cheap_residents_still_need_evicting(self):
        """Residents priced below the flood price are displaced one-for-one
        by admitted futures, so they count as room — a pool full of cheap
        traffic gets no discount."""
        assert gwei(1.0) < FLOOD_PRICE
        node = pool_node([gwei(1.0)] * 48)
        assert flood_room(node, FLOOD_PRICE) == 64
        assert futures_sent(node) == FLOOD_CONFIG.future_count

    def test_a_resident_at_the_flood_price_is_not_evictable(self):
        """A pending victim must bid strictly less (``Mempool._offer``)."""
        node = pool_node([FLOOD_PRICE] * 32 + [FLOOD_PRICE - 1] * 32)
        assert flood_room(node, FLOOD_PRICE) == 32

    def test_saturated_pool_floors_at_the_margin(self):
        node = pool_node([gwei(50.0)] * 64)
        assert flood_room(node, FLOOD_PRICE) == 0
        assert futures_sent(node) == MARGIN

    def test_pending_floor_caps_the_evictable(self):
        """Parity-style P: futures evict only while more than P pending
        transactions are buffered."""
        policy = PARITY.scaled(64)
        floor = policy.eviction_pending_floor
        assert 0 < floor < 40
        node = pool_node([gwei(1.0)] * 40, policy=policy)
        assert flood_room(node, FLOOD_PRICE) == 24 + (40 - floor)

    def test_never_exceeds_the_configured_z(self):
        """A pool larger than the static Z gets the whole flood — and is
        counted as short (the Figure 4a mechanism)."""
        node = pool_node([], policy=GETH.scaled(128))
        kept, short = trim_flood(node, FLOOD)
        assert len(kept) == FLOOD_CONFIG.future_count and short
        assert not trim_flood(pool_node([]), FLOOD)[1]

    def test_a_pool_with_a_smaller_u_gets_the_whole_flood(self):
        """Its own U cuts every account's run short, so what it admits is
        not a prefix of the list: no trimming."""
        policy = replace(POLICY, future_limit_per_account=8)
        node = pool_node([gwei(50.0)] * 60, policy=policy)
        assert flood_room(node, FLOOD_PRICE) == 4
        assert futures_sent(node) == FLOOD_CONFIG.future_count


class TestAdaptiveFloodCampaign:
    def test_storm_residue_shrinks_floods_without_losing_links(self, monkeypatch):
        """Acceptance bar (ROADMAP, PR 9 leftover): after a storm leaves
        the pools mostly full of high-priced residue, the campaign sends
        measurably fewer transactions than one flooding every node with
        the whole static Z, and finds the same edges."""

        def measure():
            network = quick_network(n_nodes=10, seed=55)
            prefill_mempools(network)
            wallet = Wallet("storm-residue")
            for node_id in sorted(network.nodes):
                pool = network.node(node_id).mempool
                while pool.free_slots > pool.policy.capacity // 4:
                    pool.add(
                        Transaction(
                            sender=wallet.fresh_account().address,
                            nonce=0,
                            gas_price=gwei(50.0),
                        )
                    )
            return TopoShot.attach(network).measure_network()

        trimmed = measure()
        monkeypatch.setattr(primitive, "trim_flood", lambda node, flood: (flood, False))
        static = measure()
        assert trimmed.edges == static.edges
        assert str(trimmed.score) == str(static.score)
        assert trimmed.transactions_sent < static.transactions_sent
