"""Property-based tests of TopoShot's core invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MeasurementConfig
from repro.core.campaign import TopoShot
from repro.core.schedule import build_schedule, verify_schedule_coverage
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH, MempoolPolicy


class TestPriceBandProperty:
    @given(
        r=st.floats(min_value=0.01, max_value=0.5),
        y=st.integers(min_value=10**6, max_value=10**12),
    )
    @settings(max_examples=200, deadline=None)
    def test_isolation_band_holds_for_any_r_and_y(self, r, y):
        """For every client bump R and price Y: txA replaces txB but never
        txC — the arithmetic Section 5.2's correctness rests on."""
        policy = MempoolPolicy(
            name="p", replace_bump=r, future_limit_per_account=None,
            eviction_pending_floor=0, capacity=16,
        )
        config = MeasurementConfig(
            replace_bump=r, future_count=16, future_per_account=None
        )
        price_a = config.price_a(y)
        price_b = config.price_b(y)
        price_c = config.price_c(y)
        assert policy.replacement_allowed(price_b, price_a)
        assert not policy.replacement_allowed(price_c, price_a)
        assert not policy.replacement_allowed(price_c, price_b)
        # The flood price dominates everything the measurement plants.
        assert config.price_future(y) >= price_a

    @given(
        r=st.floats(min_value=0.01, max_value=0.5),
        y=st.integers(min_value=10**6, max_value=10**12),
    )
    @settings(max_examples=200, deadline=None)
    def test_flood_cannot_be_replaced_by_txa(self, r, y):
        """txA must never displace the flood's own transactions either."""
        policy = MempoolPolicy(
            name="p", replace_bump=r, future_limit_per_account=None,
            eviction_pending_floor=0, capacity=16,
        )
        config = MeasurementConfig(
            replace_bump=r, future_count=16, future_per_account=None
        )
        assert not policy.replacement_allowed(
            config.price_future(y), config.price_a(y)
        )


class TestScheduleBoundsProperty:
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_iteration_dominates_for_sane_k(self, n, k):
        """For K <= 3N/4 (every practical setting — the budget rule yields
        far smaller K), the first round-1 iteration is the largest, which
        is why K = budget // N keeps a whole schedule within budget. Beyond
        that regime the schedule cuts the oversized iterations."""
        ids = [f"n{i}" for i in range(n)]
        schedule = build_schedule(ids, k)
        if not schedule:
            return
        sizes = [it.edge_count for it in schedule]
        if k <= 3 * n / 4:
            assert max(sizes) == sizes[0]
        assert sizes[0] <= min(k, n) * n

    @given(
        n=st.integers(min_value=4, max_value=80),
        budget=st.integers(min_value=20, max_value=2000),
    )
    @settings(max_examples=100, deadline=None)
    def test_budgeted_group_size_keeps_every_iteration_within_budget(
        self, n, budget
    ):
        """The end-to-end guarantee: the schedule built from the slot
        budget — K chosen from it, iterations cut to it where even K = 2
        overflows — has no round that needs more txC slots than the budget
        allows, and still covers every pair exactly once."""
        config = MeasurementConfig(mempool_slots_budget=budget)
        k = config.group_size_for(n)
        ids = [f"n{i}" for i in range(n)]
        schedule = build_schedule(ids, k, budget)
        verify_schedule_coverage(ids, schedule, budget=budget)
        if k > 2:  # K = budget // N fits on its own: nothing is cut
            assert schedule == build_schedule(ids, k)


class TestDominantPolicyRegression:
    def test_custom_bump_nodes_never_define_the_config(self):
        """Regression: a custom high-R node sharing the majority's name and
        capacity must not be picked as the 'dominant' policy — its R would
        price txA above the majority's replacement threshold and break
        isolation network-wide."""
        network = Network(seed=1)
        base = GETH.scaled(128)
        custom = base.with_bump(0.25)
        # Custom-bump node created FIRST (the old bug picked the first of
        # the tied name/capacity group).
        network.create_node("custom", NodeConfig(policy=custom))
        for i in range(4):
            network.create_node(f"n{i}", NodeConfig(policy=base))
        network.connect("custom", "n0")
        for i in range(3):
            network.connect(f"n{i}", f"n{i + 1}")
        shot = TopoShot.attach(network)
        assert shot.config.replace_bump == base.replace_bump

    def test_majority_policy_wins_even_with_minority_clients(self):
        from repro.eth.policies import PARITY

        network = Network(seed=2)
        geth = GETH.scaled(128)
        parity = PARITY.scaled(192)
        for i in range(5):
            network.create_node(f"g{i}", NodeConfig(policy=geth))
        network.create_node("p0", NodeConfig(policy=parity))
        for i in range(4):
            network.connect(f"g{i}", f"g{i + 1}")
        network.connect("p0", "g0")
        shot = TopoShot.attach(network)
        assert shot.config.replace_bump == geth.replace_bump
        assert shot.config.future_count == geth.capacity
