"""Tests for the Table 3 client policy presets."""

import pytest

from repro.eth.policies import (
    ALETH,
    BESU,
    GETH,
    NETHERMIND,
    PARITY,
    MempoolPolicy,
)


class TestTable3Values:
    """The presets must match the paper's Table 3 exactly."""

    def test_geth(self):
        assert GETH.replace_bump == 0.10
        assert GETH.future_limit_per_account == 4096
        assert GETH.eviction_pending_floor == 0
        assert GETH.capacity == 5120

    def test_parity(self):
        assert PARITY.replace_bump == 0.125
        assert PARITY.future_limit_per_account == 81
        assert PARITY.eviction_pending_floor == 2000
        assert PARITY.capacity == 8192

    def test_nethermind(self):
        assert NETHERMIND.replace_bump == 0.0
        assert NETHERMIND.future_limit_per_account == 17
        assert NETHERMIND.capacity == 2048

    def test_besu(self):
        assert BESU.replace_bump == 0.10
        assert BESU.future_limit_per_account is None  # infinity
        assert BESU.capacity == 4096

    def test_aleth(self):
        assert ALETH.replace_bump == 0.0
        assert ALETH.future_limit_per_account == 1
        assert ALETH.capacity == 2048


class TestMeasurability:
    def test_geth_parity_besu_measurable(self):
        assert GETH.measurable and PARITY.measurable and BESU.measurable

    def test_nethermind_aleth_not_measurable(self):
        """R=0 removes the isolation price band (Section 5.1)."""
        assert not NETHERMIND.measurable
        assert not ALETH.measurable


class TestReplacementRule:
    def test_exact_bump_allowed(self):
        assert GETH.replacement_allowed(1000, 1100)

    def test_below_bump_denied(self):
        assert not GETH.replacement_allowed(1000, 1099)

    def test_zero_bump_equal_price_allowed(self):
        assert ALETH.replacement_allowed(1000, 1000)

    def test_lower_price_always_denied(self):
        assert not ALETH.replacement_allowed(1000, 999)


class TestScaling:
    def test_scaled_keeps_bump(self):
        scaled = GETH.scaled(256)
        assert scaled.replace_bump == GETH.replace_bump
        assert scaled.capacity == 256

    def test_scaled_shrinks_u_and_p_proportionally(self):
        scaled = PARITY.scaled(1024)
        ratio = 1024 / PARITY.capacity
        assert scaled.eviction_pending_floor == int(2000 * ratio + 0.999)
        assert scaled.future_limit_per_account >= 1

    def test_scaled_zero_floor_stays_zero(self):
        assert GETH.scaled(64).eviction_pending_floor == 0

    def test_scaled_nonzero_floor_never_becomes_zero(self):
        assert PARITY.scaled(8).eviction_pending_floor >= 1

    def test_scaled_unlimited_u_stays_unlimited(self):
        assert BESU.scaled(64).future_limit_per_account is None

    def test_scaled_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            GETH.scaled(0)


class TestVariants:
    def test_with_capacity(self):
        custom = GETH.with_capacity(9999)
        assert custom.capacity == 9999
        assert custom.replace_bump == GETH.replace_bump

    def test_with_bump(self):
        custom = GETH.with_bump(0.25)
        assert custom.replace_bump == 0.25
        assert not custom.replacement_allowed(1000, 1100)

    def test_with_base_fee_enforcement(self):
        assert GETH.with_base_fee_enforcement().enforce_base_fee
        assert not GETH.enforce_base_fee

    def test_validation_rejects_negative_params(self):
        with pytest.raises(ValueError):
            MempoolPolicy("x", -0.1, None, 0, 10)
        with pytest.raises(ValueError):
            MempoolPolicy("x", 0.1, None, -1, 10)
        with pytest.raises(ValueError):
            MempoolPolicy("x", 0.1, None, 0, 0)
