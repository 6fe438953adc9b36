"""Tests for MeasurementConfig price bands and derived parameters."""

from dataclasses import replace

import pytest

from repro.core.config import (
    RETRY_BACKOFF,
    RETRY_BACKOFF_FACTOR,
    SEND_TIMEOUT,
    MeasurementConfig,
    retry_delay,
)
from repro.errors import MeasurementError, UnsupportedClientError
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY


class TestPriceBand:
    """The isolation arithmetic of Section 5.2."""

    def test_txa_replaces_txb_but_not_txc(self):
        config = MeasurementConfig.for_policy(GETH)
        y = 1_000_000_000
        a, b, c = config.price_a(y), config.price_b(y), config.price_c(y)
        # txA over txB: >= R bump -> replacement succeeds on the sink.
        assert GETH.replacement_allowed(b, a)
        # txA over txC: R/2 bump -> replacement fails everywhere else.
        assert not GETH.replacement_allowed(c, a)
        # txB under txC: can never displace txC on third parties.
        assert not GETH.replacement_allowed(c, b)

    def test_flood_price_replaces_nothing_needed(self):
        config = MeasurementConfig.for_policy(GETH)
        y = 10**9
        assert config.price_future(y) > config.price_a(y) > y > config.price_b(y)

    @pytest.mark.parametrize("policy", [GETH, PARITY, BESU])
    def test_band_holds_for_all_measurable_clients(self, policy):
        config = MeasurementConfig.for_policy(policy)
        y = 7 * 10**8
        assert policy.replacement_allowed(config.price_b(y), config.price_a(y))
        assert not policy.replacement_allowed(
            config.price_c(y), config.price_a(y)
        )


class TestClientDerivation:
    def test_for_policy_copies_z_r_u(self):
        config = MeasurementConfig.for_policy(PARITY)
        assert config.future_count == PARITY.capacity
        assert config.replace_bump == PARITY.replace_bump
        assert config.future_per_account == PARITY.future_limit_per_account

    @pytest.mark.parametrize("policy", [NETHERMIND, ALETH])
    def test_unmeasurable_clients_rejected(self, policy):
        with pytest.raises(UnsupportedClientError):
            MeasurementConfig.for_policy(policy)

    def test_zero_bump_config_rejected_directly(self):
        with pytest.raises(UnsupportedClientError):
            MeasurementConfig(replace_bump=0.0)

    def test_slot_budget_keeps_paper_ratio(self):
        config = MeasurementConfig.for_policy(GETH)
        assert config.mempool_slots_budget == 2000
        scaled = MeasurementConfig.for_policy(GETH.scaled(512))
        assert scaled.mempool_slots_budget == 512 * 2000 // 5120


class TestFloodAccounts:
    def test_ceil_of_z_over_u(self):
        config = MeasurementConfig(future_count=100, future_per_account=30)
        assert config.flood_accounts == 4

    def test_unlimited_u_uses_one_account(self):
        config = MeasurementConfig(future_count=5000, future_per_account=None)
        assert config.flood_accounts == 1


class TestGroupSize:
    def test_paper_example(self):
        """Ropsten at N=500, budget 2000 -> K=4 (Section 5.3.2)."""
        config = MeasurementConfig.for_policy(GETH)
        assert config.group_size_for(500) == 4

    def test_shrinks_until_first_iteration_fits(self):
        config = MeasurementConfig(mempool_slots_budget=100)
        k = config.group_size_for(40)
        assert k * (40 - k) <= 100

    def test_tiny_budget_floors_at_two(self):
        """K is a plain number: where even K = 2 overflows the budget it is
        the schedule that cuts the rounds."""
        assert MeasurementConfig(mempool_slots_budget=20).group_size_for(100) == 2

    def test_invalid_network_size(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig().group_size_for(0)


class TestBuilders:
    def test_with_future_count(self):
        config = MeasurementConfig().with_future_count(42)
        assert config.future_count == 42

    def test_with_repeats(self):
        assert MeasurementConfig().with_repeats(3).repeats == 3

    def test_with_gas_price(self):
        assert MeasurementConfig().with_gas_price(123).gas_price_y == 123

    def test_invalid_values_rejected(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig(future_count=0)
        with pytest.raises(MeasurementError):
            MeasurementConfig(repeats=0)
        with pytest.raises(MeasurementError):
            MeasurementConfig(future_per_account=0)


class TestRetryFields:
    def test_defaults_disable_retries(self):
        config = MeasurementConfig()
        assert config.max_retries == 0
        assert RETRY_BACKOFF_FACTOR >= 1.0

    def test_with_retries_builder(self):
        config = MeasurementConfig().with_retries(3)
        assert config.max_retries == 3
        assert [retry_delay(n) for n in (1, 2, 3)] == [
            RETRY_BACKOFF,
            RETRY_BACKOFF * RETRY_BACKOFF_FACTOR,
            RETRY_BACKOFF * RETRY_BACKOFF_FACTOR**2,
        ]

    def test_with_retries_keeps_other_backoff_fields(self):
        config = MeasurementConfig().with_retries(2)
        assert replace(config, max_retries=0) == MeasurementConfig()

    def test_negative_max_retries_rejected(self):
        with pytest.raises(MeasurementError, match="max_retries"):
            MeasurementConfig(max_retries=-1)

    # The backoff and the send timeout are constants now: each holds the
    # range its retired field was validated to, and the retired keyword
    # is refused rather than ignored.
    def test_negative_backoff_rejected(self):
        assert RETRY_BACKOFF >= 0
        with pytest.raises(TypeError, match="retry_backoff"):
            MeasurementConfig(retry_backoff=-0.1)

    def test_shrinking_backoff_factor_rejected(self):
        assert RETRY_BACKOFF_FACTOR >= 1.0
        with pytest.raises(TypeError, match="retry_backoff_factor"):
            MeasurementConfig(retry_backoff_factor=0.5)

    def test_negative_send_timeout_rejected(self):
        assert SEND_TIMEOUT >= 0
        with pytest.raises(TypeError, match="send_timeout"):
            MeasurementConfig(send_timeout=-1.0)
