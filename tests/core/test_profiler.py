"""Tests for black-box client profiling (Section 5.1, Table 3).

The profiler must recover each policy's R/U/P/L purely from ``add``
outcomes; the scaled presets keep the tests fast while the full-scale
Table 3 values are exercised by the benchmark.
"""

import pytest

from repro.core.profiler import (
    measure_capacity,
    measure_eviction_floor,
    measure_future_limit,
    measure_replace_bump,
    profile_client,
)
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY


GETH_S = GETH.scaled(256)
PARITY_S = PARITY.scaled(409)
NETHERMIND_S = NETHERMIND.scaled(128)
BESU_S = BESU.scaled(204)
ALETH_S = ALETH.scaled(128)


class TestIndividualProbes:
    def test_capacity_recovered(self):
        assert measure_capacity(GETH_S) == GETH_S.capacity
        assert measure_capacity(PARITY_S) == PARITY_S.capacity

    def test_replace_bump_recovered(self):
        assert measure_replace_bump(GETH_S) == pytest.approx(0.10, abs=0.005)
        assert measure_replace_bump(PARITY_S) == pytest.approx(0.125, abs=0.005)

    def test_zero_bump_detected(self):
        assert measure_replace_bump(ALETH_S) == 0.0

    def test_future_limit_recovered(self):
        assert (
            measure_future_limit(GETH_S, GETH_S.capacity)
            == GETH_S.future_limit_per_account
        )

    def test_unlimited_future_limit_detected(self):
        assert measure_future_limit(BESU_S, BESU_S.capacity) is None

    def test_eviction_floor_zero_for_geth(self):
        assert measure_eviction_floor(GETH_S, GETH_S.capacity) == 0

    def test_eviction_floor_nonzero_for_parity(self):
        floor = measure_eviction_floor(PARITY_S, PARITY_S.capacity)
        assert floor == PARITY_S.eviction_pending_floor


class TestFullProfiles:
    @pytest.mark.parametrize(
        "policy",
        [GETH_S, PARITY_S, NETHERMIND_S, BESU_S, ALETH_S],
        ids=lambda p: p.name,
    )
    def test_profile_matches_policy(self, policy):
        profile = profile_client(policy)
        assert profile.capacity == policy.capacity
        assert profile.eviction_floor == policy.eviction_pending_floor
        assert profile.future_limit == policy.future_limit_per_account
        if policy.replace_bump == 0.0:
            assert profile.replace_bump == 0.0
        else:
            assert profile.replace_bump == pytest.approx(
                policy.replace_bump, abs=0.005
            )

    def test_formatting_helpers(self):
        profile = profile_client(BESU_S)
        assert profile.future_limit_str() == "inf"
        assert profile.replace_bump_percent() == "10.0%"
