"""The resilient measurement plane: endpoint faults and the hardened client."""

import pytest

from repro.errors import (
    MeasurementError,
    RpcConnectionError,
    RpcError,
    RpcExhaustedError,
    RpcMethodNotFoundError,
    RpcRateLimitedError,
    RpcTimeoutError,
    RpcTransientError,
    RpcUnavailableError,
)
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.rpc import (
    DEADLINE,
    HARDENED_POLICY,
    HEDGE_DELAY,
    RAW_POLICY,
    ResilientRpcClient,
    RpcClientPolicy,
    RpcEndpoint,
    RpcServer,
    rpc_faults_active,
    rpc_tx_in_pool,
)
from repro.eth.transaction import TransactionFactory, gwei
from repro.sim.faults import FaultPlan, RpcFaultPlan


def pair_network(seed=11, rpc_plan=None):
    network = Network(seed=seed)
    config = NodeConfig(policy=GETH.scaled(64))
    network.create_node("a", config)
    network.create_node("b", config)
    network.connect("a", "b")
    network.run(1.0)
    if rpc_plan is not None:
        network.install_faults(FaultPlan(rpc=rpc_plan))
    return network


# Shared wallet: every submit_transfer gets a distinct sender account.
_WALLET = Wallet("rpc-test")


def submit_transfer(network, node_id):
    tx = TransactionFactory().transfer(_WALLET.fresh_account(), gas_price=gwei(2.0))
    network.node(node_id).submit_transaction(tx)
    return tx


class TestErrorTaxonomy:
    def test_method_not_found_is_typed(self):
        network = pair_network()
        with pytest.raises(RpcMethodNotFoundError) as excinfo:
            RpcServer(network.node("a")).call("eth_no_such_method")
        assert isinstance(excinfo.value, RpcError)
        assert excinfo.value.method == "eth_no_such_method"
        assert "eth_no_such_method" in str(excinfo.value)

    def test_unavailable_is_rpc_error(self):
        network = Network(seed=3)
        network.create_node(
            "quiet", NodeConfig(policy=GETH.scaled(64), responds_to_rpc=False)
        )
        with pytest.raises(RpcUnavailableError) as excinfo:
            RpcServer(network.node("quiet")).call("web3_clientVersion")
        assert isinstance(excinfo.value, RpcError)

    def test_retryable_flags(self):
        assert RpcTimeoutError("n", "m", 1.0).retryable
        assert RpcTransientError("boom").retryable
        assert RpcConnectionError("flap").retryable
        assert not RpcUnavailableError("off").retryable
        assert not RpcMethodNotFoundError("m").retryable


class TestPassthrough:
    """With no RPC fault plan the new plumbing must be invisible."""

    def test_endpoint_is_pure_passthrough(self):
        network = pair_network()
        tx = submit_transfer(network, "a")
        endpoint = RpcEndpoint(network, "a")
        before = network.sim.now
        assert endpoint.call("eth_getTransactionByHash", tx.hash) is not None
        assert endpoint.call("txpool_status")["pending"] == 1
        assert network.sim.now == before
        assert not rpc_faults_active(network)

    def test_client_fast_path_no_time_no_counters(self):
        network = pair_network()
        tx = submit_transfer(network, "a")
        client = network.rpc_client()
        before = network.sim.now
        assert client.tx_in_pool("a", tx.hash) is True
        assert client.tx_in_pool("a", "0xmissing") is False
        assert client.peer_count("a") == 1
        assert network.sim.now == before
        assert client.calls_total == 0  # fast path: no call accounting

    def test_rpc_tx_in_pool_matches_direct_membership(self):
        network = pair_network()
        tx = submit_transfer(network, "a")
        assert rpc_tx_in_pool(network, "a", tx.hash) is True
        assert rpc_tx_in_pool(network, "b", tx.hash) is (
            tx.hash in network.node("b").mempool
        )

    def test_wire_only_fault_plan_keeps_fast_path(self):
        network = pair_network()
        network.install_faults(FaultPlan(loss_rate=0.5))
        assert not rpc_faults_active(network)
        tx = submit_transfer(network, "a")
        assert rpc_tx_in_pool(network, "a", tx.hash) is True


class TestEndpointFaults:
    def test_transient_error(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        with pytest.raises(RpcTransientError):
            RpcEndpoint(network, "a").call("txpool_status")
        assert network.faults.rpc.transient_errors == 1

    def test_timeout(self):
        network = pair_network(rpc_plan=RpcFaultPlan(timeout_rate=1.0))
        with pytest.raises(RpcTimeoutError) as excinfo:
            RpcEndpoint(network, "a").call("txpool_status", deadline=3.0)
        assert excinfo.value.deadline == 3.0
        assert network.faults.rpc.timeouts == 1

    def test_rate_limit_carries_retry_after(self):
        plan = RpcFaultPlan(rate_limit_per_second=1.0, rate_limit_burst=2)
        network = pair_network(rpc_plan=plan)
        endpoint = RpcEndpoint(network, "a")
        endpoint.call("web3_clientVersion")
        endpoint.call("web3_clientVersion")
        with pytest.raises(RpcRateLimitedError) as excinfo:
            endpoint.call("web3_clientVersion")
        assert excinfo.value.retry_after > 0
        # The bucket refills with simulated time.
        network.run(2.0)
        assert endpoint.call("web3_clientVersion")

    def test_flap_downs_endpoint_then_recovers(self):
        # A plan that is enabled but never fires on its own; the flap is
        # staged by hand so the test controls the downtime window.
        network = pair_network(
            rpc_plan=RpcFaultPlan(rate_limit_per_second=1000.0)
        )
        state = network.faults.rpc
        state._down_until["a"] = network.sim.now + 5.0
        endpoint = RpcEndpoint(network, "a")
        with pytest.raises(RpcConnectionError):
            endpoint.call("web3_clientVersion")
        network.run(6.0)
        assert endpoint.call("web3_clientVersion")

    def test_unavailable_beats_fault_draws(self):
        network = Network(seed=5)
        network.create_node(
            "quiet", NodeConfig(policy=GETH.scaled(64), responds_to_rpc=False)
        )
        network.install_faults(FaultPlan(rpc=RpcFaultPlan(timeout_rate=1.0)))
        with pytest.raises(RpcUnavailableError):
            RpcEndpoint(network, "quiet").call("web3_clientVersion")
        assert network.faults.rpc.timeouts == 0  # no draw burned


class TestResilientClient:
    def test_policy_validation(self):
        with pytest.raises(MeasurementError):
            RpcClientPolicy(max_attempts=0)

    def test_retries_recover_from_transient_errors(self):
        # error_rate high enough to fail sometimes, low enough that four
        # attempts almost surely land at least one success.
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=0.5))
        client = network.rpc_client()
        results = [client.call("a", "web3_clientVersion") for _ in range(10)]
        assert all(results)
        assert client.retries_total > 0
        assert client.attempts_total > client.calls_total

    def test_exhaustion_raises_typed_error(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        client = ResilientRpcClient(
            network, RpcClientPolicy(max_attempts=2, breaker_threshold=100)
        )
        with pytest.raises(RpcExhaustedError) as excinfo:
            client.call("a", "web3_clientVersion")
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, RpcTransientError)

    def test_timeouts_burn_simulated_time_hedged_reads_burn_less(self):
        plan = RpcFaultPlan(timeout_rate=1.0)
        policy = RpcClientPolicy(max_attempts=2, breaker_threshold=100)
        network = pair_network(rpc_plan=plan)
        client = ResilientRpcClient(network, policy)
        start = network.sim.now
        with pytest.raises(RpcExhaustedError):
            client.call("a", "admin_nodeInfo")  # not a hedge method
        unhedged_cost = network.sim.now - start
        start = network.sim.now
        with pytest.raises(RpcExhaustedError):
            client.call("a", "txpool_status")  # hedged snapshot read
        hedged_cost = network.sim.now - start
        assert HEDGE_DELAY < DEADLINE
        assert unhedged_cost > hedged_cost
        assert client.hedges_total > 0

    def test_breaker_opens_and_rejects(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        policy = RpcClientPolicy(max_attempts=1, breaker_threshold=3)
        client = ResilientRpcClient(network, policy)
        for _ in range(3):
            with pytest.raises(RpcExhaustedError):
                client.call("a", "web3_clientVersion")
        with pytest.raises(RpcExhaustedError):
            client.call("a", "web3_clientVersion")
        assert client.breaker_rejections_total == 1
        assert "a" in client.unhealthy_endpoints()

    def test_rate_limit_compliance_waits_instead_of_hammering(self):
        plan = RpcFaultPlan(rate_limit_per_second=1.0, rate_limit_burst=1)
        network = pair_network(rpc_plan=plan)
        client = network.rpc_client()
        start = network.sim.now
        for _ in range(3):
            assert client.call("a", "web3_clientVersion")
        assert network.sim.now > start  # waited the retry_after horizons
        assert client.rate_limited_total > 0
        assert client.breaker("a").state == "closed"  # throttle != sickness

    def test_tx_in_pool_unknown_is_none_not_false(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        tx = submit_transfer(network, "a")
        hardened = ResilientRpcClient(
            network, RpcClientPolicy(max_attempts=1, breaker_threshold=100)
        )
        assert hardened.tx_in_pool("a", tx.hash) is None
        assert hardened.degraded_lookups_total == 1

    def test_raw_policy_reads_failure_as_negative(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        tx = submit_transfer(network, "a")
        raw = ResilientRpcClient(network, RAW_POLICY)
        assert raw.tx_in_pool("a", tx.hash) is False  # the silent false negative

    def test_no_rpc_node_falls_back_to_direct_view(self):
        network = Network(seed=6)
        config = NodeConfig(policy=GETH.scaled(64))
        network.create_node("a", config)
        network.create_node(
            "quiet", NodeConfig(policy=GETH.scaled(64), responds_to_rpc=False)
        )
        network.connect("a", "quiet")
        network.install_faults(FaultPlan(rpc=RpcFaultPlan(timeout_rate=1.0)))
        tx = submit_transfer(network, "quiet")
        client = network.rpc_client()
        assert client.tx_in_pool("quiet", tx.hash) is True

    def test_peer_count_none_when_plane_down(self):
        network = pair_network(rpc_plan=RpcFaultPlan(error_rate=1.0))
        client = ResilientRpcClient(
            network, RpcClientPolicy(max_attempts=1, breaker_threshold=100)
        )
        assert client.peer_count("a") is None

    def test_same_seed_reruns_are_bit_identical(self):
        def trace(seed):
            network = pair_network(
                seed=seed, rpc_plan=RpcFaultPlan.uniform(0.3)
            )
            client = network.rpc_client()
            out = []
            for _ in range(8):
                try:
                    out.append(bool(client.call("a", "web3_clientVersion")))
                except RpcError as exc:
                    out.append(type(exc).__name__)
            return out, client.counters(), network.sim.now

        assert trace(21) == trace(21)
        assert trace(21) != trace(22)  # the faults actually depend on the seed


class TestNetworkAccessor:
    def test_client_is_cached_and_replaceable(self):
        network = pair_network()
        first = network.rpc_client()
        assert network.rpc_client() is first
        raw = network.rpc_client(RAW_POLICY)
        assert raw is not first
        assert network.rpc_client() is raw
        assert raw.policy is RAW_POLICY
        assert first.policy is HARDENED_POLICY
