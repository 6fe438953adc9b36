"""The fault-injection layer: plans, determinism, churn, crash/restart."""

import hashlib

import pytest

from repro.core.campaign import TopoShot
from repro.errors import FaultPlanError, SendTimeoutError
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei
from repro.eth.account import Wallet
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.obs import NULL, Observability
from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults, RpcFaultPlan
from tests.conftest import record_everything, trace_lines


def pair_network(seed=11):
    network = Network(seed=seed)
    config = NodeConfig(policy=GETH.scaled(64))
    network.create_node("a", config)
    network.create_node("b", config)
    network.connect("a", "b")
    network.run(1.0)  # let the handshake settle
    return network


def submit_transfer(network, node_id, wallet, factory):
    account = wallet.fresh_account()
    tx = factory.transfer(account, gas_price=gwei(2.0))
    network.node(node_id).submit_transaction(tx)
    return tx


class TestFaultPlanValidation:
    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": -0.1},
            {"loss_rate": 1.5},
            {"send_timeout_rate": 2.0},
            {"extra_delay_mean": -1.0},
            {"churn_rate": -0.5},
            {"crash_rate": -0.5},
            {"churn_downtime": 0.0},
            {"crash_downtime": -3.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultPlan(**kwargs)

    def test_rejects_bad_link_override(self):
        with pytest.raises(FaultPlanError):
            LinkFaults(loss_rate=1.2)

    def test_link_override_beats_plan_wide_rates(self):
        plan = FaultPlan(
            loss_rate=0.1,
            extra_delay_mean=0.5,
            link_overrides={frozenset(("a", "b")): LinkFaults(loss_rate=0.9)},
        )
        assert plan.link_faults("b", "a") == (0.9, 0.0)
        assert plan.link_faults("a", "c") == (0.1, 0.5)
        assert plan.enabled


class TestMessageLoss:
    def test_total_loss_blocks_propagation(self, wallet, factory):
        network = pair_network()
        network.install_faults(FaultPlan(loss_rate=1.0))
        tx = submit_transfer(network, "a", wallet, factory)
        network.run(5.0)
        assert tx.hash not in network.node("b").mempool
        assert network.faults.messages_dropped > 0
        assert network.drops_by_reason.get("loss", 0) > 0

    def test_zero_loss_changes_nothing(self, wallet, factory):
        network = pair_network()
        network.install_faults(FaultPlan())
        tx = submit_transfer(network, "a", wallet, factory)
        network.run(5.0)
        assert tx.hash in network.node("b").mempool
        assert network.messages_dropped == 0

    def test_loss_is_deterministic_in_the_seed(self):
        def run(seed):
            wallet = Wallet("loss-det")
            factory = TransactionFactory()
            network = pair_network(seed=seed)
            obs = record_everything(network)
            network.install_faults(FaultPlan(loss_rate=0.5))
            # Spaced submissions so each push is its own message (the
            # broadcast loop batches same-instant submissions into one).
            for _ in range(20):
                submit_transfer(network, "a", wallet, factory)
                network.run(1.0)
            network.run(10.0)
            return (
                obs.events.filter("fault"),
                sorted(network.node("b").mempool.capture_state()["by_hash"]),
            )

        first = run(31)
        second = run(31)
        assert first == second
        assert first[0], "a 50% loss rate over 20 messages must drop some"
        third = run(32)
        assert third != first

    def test_extra_delay_slows_but_delivers(self, wallet, factory):
        slow = pair_network()
        slow.install_faults(FaultPlan(extra_delay_mean=2.0))
        tx = submit_transfer(slow, "a", wallet, factory)
        slow.run(0.2)
        assert tx.hash not in slow.node("b").mempool  # still in flight
        slow.run(60.0)
        assert tx.hash in slow.node("b").mempool  # ... but never lost


def spy_on_link_hooks(monkeypatch):
    """Count the injector's per-message hook calls (behaviour unchanged)."""
    calls = {"should_drop": 0, "extra_delay": 0}
    for name in calls:
        hook = getattr(FaultInjector, name)

        def spy(self, from_id, to_id, hook=hook, name=name):
            calls[name] += 1
            return hook(self, from_id, to_id)

        monkeypatch.setattr(FaultInjector, name, spy)
    return calls


def hooked_campaign(plan, obs=NULL):
    network = quick_network(n_nodes=8, seed=21)
    prefill_mempools(network)
    network.install_observability(obs)  # before the first fault can fire
    faults = network.install_faults(plan)
    queued = network.messages_sent
    TopoShot.attach(network, obs=obs).measure_network()
    return network, faults, network.messages_sent - queued


class TestLinkHooks:
    """The loss and delay hooks run per message only where they can fire."""

    def test_a_plan_with_clean_links_never_consults_them(self, monkeypatch):
        calls = spy_on_link_hooks(monkeypatch)
        _, faults, sent = hooked_campaign(FaultPlan(rpc=RpcFaultPlan.uniform(0.2)))
        assert not faults.drops_or_delays
        assert sent > 0
        assert calls == {"should_drop": 0, "extra_delay": 0}

    def test_a_lossy_plan_consults_them_once_per_message(self, monkeypatch):
        calls = spy_on_link_hooks(monkeypatch)
        plan = FaultPlan(loss_rate=0.05, extra_delay_mean=0.01)
        _, faults, sent = hooked_campaign(plan)
        assert faults.messages_dropped > 0
        assert calls["should_drop"] == sent
        assert calls["extra_delay"] == sent - faults.messages_dropped

    def test_zero_rate_overrides_leave_links_clean(self):
        plan = FaultPlan(link_overrides={frozenset(("a", "b")): LinkFaults()})
        assert not FaultInjector(pair_network(), plan).drops_or_delays
        plan = FaultPlan(
            link_overrides={frozenset(("a", "b")): LinkFaults(extra_delay_mean=0.1)}
        )
        assert FaultInjector(pair_network(), plan).drops_or_delays

    def test_lossy_links_draw_as_recorded(self):
        """5 % loss, an extra delay and one override: the drops, the fault
        log and the engine trace are the recorded ones, so no loss coin and
        no delay draw moved."""
        network = quick_network(n_nodes=20, seed=5)
        link = frozenset(min(sorted(link) for link in network.links()))
        plan = FaultPlan(
            loss_rate=0.05,
            extra_delay_mean=0.05,
            link_overrides={link: LinkFaults(loss_rate=0.5, extra_delay_mean=0.2)},
        )
        faults = network.install_faults(plan)
        obs = record_everything(network)
        wallet = Wallet("lossy")
        factory = TransactionFactory()
        ids = network.measurable_node_ids()
        for index in range(12):
            network.node(ids[index % len(ids)]).submit_transaction(
                factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0) + index)
            )
        network.settle()

        def digest(lines):
            return hashlib.sha256("\n".join(lines).encode()).hexdigest()

        events = [
            f"{time:.9f}|{kind}|{detail}"
            for time, _, kind, detail in obs.events.filter("fault")
        ]
        trace = trace_lines(obs.events)
        assert faults.messages_dropped == 138
        assert network.messages_sent == 3115
        assert len(trace) == 3262
        assert digest(events) == (
            "4537fb1f1d9496c10c0db028beb918f73a9fd2944c84e12e3922be5bf263a945"
        )
        assert digest(trace) == (
            "f5409beaa960ff1385f11e8ef50cada80ab56cafd2e6a0bb6ea2c0b1259b621f"
        )


def fault_kinds(obs):
    """The kinds of the fault records, in firing order."""
    assert obs.events.dropped == 0
    return [kind for _, _, kind, _ in obs.events.filter("fault")]


class TestTheLogIsComplete:
    """The event log is the one record of a fired fault: each fault the
    injector counts has exactly one ``fault`` record."""

    def test_every_lost_message_is_recorded_once(self):
        obs = Observability()
        plan = FaultPlan(loss_rate=0.05, extra_delay_mean=0.01)
        _, faults, _ = hooked_campaign(plan, obs)
        assert faults.messages_dropped > 0
        assert fault_kinds(obs).count("loss") == faults.messages_dropped
        loss_drops = [r for r in obs.events.filter("drop") if r[2] == "loss"]
        assert len(loss_drops) == faults.messages_dropped

    def test_every_rpc_fault_is_recorded_once(self):
        obs = Observability()
        # Flaps and a tight rate limit on top, so that every kind fires.
        rpc_plan = RpcFaultPlan.uniform(
            0.2, flap_rate=0.5, rate_limit_per_second=2.0, rate_limit_burst=2
        )
        _, faults, _ = hooked_campaign(FaultPlan(rpc=rpc_plan), obs)
        kinds = fault_kinds(obs)
        rpc = faults.rpc
        counters = {
            "rpc_timeout": rpc.timeouts,
            "rpc_error": rpc.transient_errors,
            "rpc_rate_limit": rpc.rate_limited,
            "rpc_flap_down": rpc.flaps,
        }
        assert all(counters.values())
        assert {kind: kinds.count(kind) for kind in counters} == counters


class TestChurn:
    def test_churn_takes_links_down_and_back_up(self):
        network = pair_network(seed=21)
        obs = record_everything(network)
        network.install_faults(
            FaultPlan(churn_rate=0.5, churn_downtime=2.0)
        )
        network.run(30.0)
        injector = network.faults
        assert injector.churn_events > 0
        kinds = fault_kinds(obs)
        assert "churn_down" in kinds
        assert "churn_up" in kinds
        # Disarm and let the last pending downtime elapse: the heal still
        # runs after stop(), so the link comes back.
        network.clear_faults()
        network.run(5.0)
        assert network.are_connected("a", "b")

    def test_supernode_links_are_spared_by_default(self):
        network = pair_network(seed=22)
        supernode = Supernode.join(network)
        obs = record_everything(network)
        network.install_faults(FaultPlan(churn_rate=1.0, churn_downtime=1.0))
        network.run(30.0)
        assert obs.events.dropped == 0
        downs = [detail for _, _, kind, detail in obs.events.filter("fault")
                 if kind == "churn_down"]
        assert downs
        for detail in downs:
            assert supernode.id not in detail

    def test_fault_daemons_do_not_block_settle(self):
        network = pair_network(seed=23)
        network.install_faults(FaultPlan(churn_rate=1.0, crash_rate=1.0))
        before = network.sim.now
        network.settle()  # must terminate despite self-rescheduling faults
        assert network.sim.now >= before

    def test_stop_disarms_the_injector(self):
        network = pair_network(seed=24)
        obs = record_everything(network)
        network.install_faults(FaultPlan(churn_rate=5.0))
        network.run(5.0)
        events_before = len(fault_kinds(obs))
        network.clear_faults()
        network.run(20.0)
        down_events = fault_kinds(obs)[events_before:].count("churn_down")
        assert down_events == 0  # no new faults after stop()
        assert network.are_connected("a", "b")  # ... but heals still ran


class TestCrashRestart:
    def test_crash_wipes_mempool_and_known_txs_on_restart(self, wallet, factory):
        network = pair_network(seed=25)
        tx = submit_transfer(network, "a", wallet, factory)
        network.run(5.0)
        node_b = network.node("b")
        assert tx.hash in node_b.mempool
        assert node_b.knows("a", tx.hash)

        node_b.crash()
        assert node_b.crashed
        node_b.restart()
        assert not node_b.crashed
        assert node_b.crash_count == 1
        assert len(node_b.mempool) == 0
        assert tx.hash not in node_b.mempool
        assert not any(node_b.knows(peer, tx.hash) for peer in node_b.peers)

    def test_restart_keeps_the_chain_view(self):
        network = pair_network(seed=26)
        node = network.node("a")
        node.head_number = 7
        node.confirmed_nonces["0xabc"] = 3
        node.crash()
        node.restart()
        assert node.head_number == 7
        assert node.confirmed_nonces["0xabc"] == 3

    def test_crashed_node_neither_sends_nor_receives(self, wallet, factory):
        network = pair_network(seed=27)
        network.node("b").crash()
        tx = submit_transfer(network, "a", wallet, factory)
        network.run(5.0)
        assert tx.hash not in network.node("b").mempool
        assert network.drops_by_reason.get("target_crashed", 0) > 0

    def test_crash_process_fires_and_recovers(self):
        network = pair_network(seed=28)
        obs = record_everything(network)
        network.install_faults(FaultPlan(crash_rate=0.5, crash_downtime=2.0))
        network.run(40.0)
        injector = network.faults
        assert injector.crashes > 0
        kinds = fault_kinds(obs)
        assert "crash" in kinds and "restart" in kinds
        # Disarm and let the last downtime elapse: everyone comes back.
        network.clear_faults()
        network.run(5.0)
        assert not network.node("a").crashed
        assert not network.node("b").crashed


class TestSendTimeouts:
    def test_supernode_injection_times_out(self):
        network = pair_network(seed=29)
        supernode = Supernode.join(network)
        network.install_faults(FaultPlan(send_timeout_rate=1.0))
        factory = TransactionFactory()
        wallet = Wallet("timeout")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1.0))
        with pytest.raises(SendTimeoutError):
            supernode.send_transactions("a", [tx])
        assert network.faults.send_timeouts == 1

    def test_injector_survives_reinstall(self):
        network = pair_network(seed=30)
        first = network.install_faults(FaultPlan(churn_rate=1.0))
        second = network.install_faults(FaultPlan(loss_rate=0.1))
        assert network.faults is second
        assert isinstance(first, FaultInjector)
        network.run(10.0)  # first's pending daemons must be inert
        assert first.churn_events == 0
