"""RPC fault plans: validation, composition with wire faults, determinism.

The endpoint- and client-level behaviour (what each fault looks like to a
caller) lives in tests/eth/test_rpc_resilient.py; this module covers the
plan layer — bad knobs rejected up front, the ``"rpc"`` RNG stream staying
independent of the wire-fault streams, whole campaigns replaying
bit-identically under the full fault zoo, and checkpoint/resume surviving
a kill in the middle of an RPC outage.
"""

import json

import pytest

from repro.core.campaign import TopoShot
from repro.errors import FaultPlanError
from repro.eth.account import Wallet
from repro.eth.behaviors import BehaviorMix
from repro.eth.transaction import TransactionFactory, gwei
from repro.io import measurement_to_dict
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.obs import Observability
from repro.sim.faults import FaultPlan, RpcFaultPlan

# Wire faults + adversarial peers + a degraded measurement plane: the
# worst realistic composition a live campaign fights all at once.
FULL_ZOO = dict(
    loss_rate=0.05,
    churn_rate=0.01,
    crash_rate=0.002,
    rpc=RpcFaultPlan.uniform(0.2, rate_limit_per_second=20.0, flap_rate=0.005),
)
BYZANTINE_MIX = BehaviorMix(spoof_relay=0.2, stale_client=0.1, censor=0.1)


def run_campaign(seed, n_nodes=14, plan=None, mix=None, **kwargs):
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    if plan is not None:
        network.install_faults(plan)
    if mix is not None:
        network.install_behaviors(mix)
    shot = TopoShot.attach(network)
    measurement = shot.measure_network(**kwargs)
    return measurement, network


def canonical(measurement) -> str:
    return json.dumps(measurement_to_dict(measurement), sort_keys=True)


def rpc_counters(network):
    state = network.faults.rpc
    client = getattr(network, "_rpc_client", None)
    return {
        "injected": (
            state.timeouts,
            state.transient_errors,
            state.rate_limited,
            state.flaps,
        ),
        "client": client.counters() if client is not None else {},
    }


class TestRpcFaultPlanValidation:
    def test_default_plan_is_disabled(self):
        plan = RpcFaultPlan()
        assert not plan.enabled
        assert not FaultPlan(rpc=plan).enabled

    def test_enabled_bubbles_up_through_the_wire_plan(self):
        plan = FaultPlan(rpc=RpcFaultPlan(timeout_rate=0.1))
        assert plan.rpc.enabled
        assert plan.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_rate": -0.1},
            {"timeout_rate": 1.5},
            {"error_rate": 2.0},
            {"timeout_rate": 0.6, "error_rate": 0.6},  # sum > 1
            {"rate_limit_per_second": -1.0},
            {"rate_limit_per_second": 5.0, "rate_limit_burst": 0},
            {"flap_rate": -0.01},
            {"flap_downtime": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(FaultPlanError):
            RpcFaultPlan(**kwargs)

    def test_uniform_splits_timeouts_and_errors(self):
        plan = RpcFaultPlan.uniform(0.2)
        assert plan.timeout_rate == pytest.approx(0.1)
        assert plan.error_rate == pytest.approx(0.1)
        assert plan.rate_limit_per_second == 0.0  # not part of the knob

    def test_uniform_accepts_overrides(self):
        plan = RpcFaultPlan.uniform(0.1, rate_limit_per_second=3.0, flap_rate=0.01)
        assert plan.rate_limit_per_second == 3.0
        assert plan.flap_rate == 0.01

    def test_uniform_rejects_bad_rate(self):
        with pytest.raises(FaultPlanError):
            RpcFaultPlan.uniform(1.5)

    def test_disabled_rpc_plan_installs_no_state(self):
        network = quick_network(n_nodes=4, seed=3)
        network.install_faults(FaultPlan(loss_rate=0.1, rpc=RpcFaultPlan()))
        assert network.faults.rpc is None

    def test_enabled_rpc_plan_installs_state(self):
        network = quick_network(n_nodes=4, seed=3)
        network.install_faults(FaultPlan(rpc=RpcFaultPlan.uniform(0.2)))
        assert network.faults.rpc is not None
        assert network.faults.rpc.plan.timeout_rate == pytest.approx(0.1)


class TestFaultComposition:
    def test_full_zoo_same_seed_is_byte_identical(self):
        """Acceptance bar: RPC faults + loss + churn + crash + Byzantine
        peers, same seed twice -> identical measurement, identical fault
        counters, identical client counters."""

        def run():
            measurement, network = run_campaign(
                91, plan=FaultPlan(**FULL_ZOO), mix=BYZANTINE_MIX
            )
            return canonical(measurement), rpc_counters(network)

        first_canon, first_counters = run()
        second_canon, second_counters = run()
        assert first_canon == second_canon
        assert first_counters == second_counters
        # The composition actually exercised the RPC plane.
        assert sum(first_counters["injected"]) > 0
        assert first_counters["client"]["retries"] > 0

    def test_full_zoo_is_seed_sensitive(self):
        first, _ = run_campaign(92, plan=FaultPlan(**FULL_ZOO))
        second, _ = run_campaign(93, plan=FaultPlan(**FULL_ZOO))
        assert canonical(first) != canonical(second)

    def test_rpc_stream_does_not_perturb_wire_faults(self):
        """Attaching an RPC plan must not change which wire faults fire on
        a fixed workload: the "rpc" stream is named, so the loss/churn/
        crash draw sequences are untouched by flap scheduling or per-call
        draws. (A full *campaign* legitimately diverges — retries stretch
        sim time and change the traffic itself — so the independence claim
        is made where it is exact: identical traffic.)"""
        wire_only = dict(FULL_ZOO, rpc=None)

        def wire_events(plan):
            wallet = Wallet("rpc-stream-independence")
            factory = TransactionFactory()
            network = quick_network(n_nodes=14, seed=94)
            obs = network.install_observability(Observability())
            network.install_faults(FaultPlan(**plan))
            node_ids = sorted(nid for nid in network.nodes)
            # Fixed gossip workload: spaced submissions so each push is
            # its own delivery (and its own loss draw).
            for round_index in range(20):
                origin = node_ids[round_index % len(node_ids)]
                tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0))
                network.node(origin).submit_transaction(tx)
                network.run(3.0)
            if plan["rpc"] is not None:
                # Exercise per-call draws too; they must stay on "rpc".
                client = network.rpc_client()
                for node_id in node_ids[:6]:
                    client.peer_count(node_id)
                network.run(30.0)
            assert obs.events.dropped == 0
            return [
                (time, kind, detail)
                for time, _, kind, detail in obs.events.filter("fault")
                if not kind.startswith("rpc_")
            ]

        with_rpc = wire_events(FULL_ZOO)
        without_rpc = wire_events(wire_only)
        horizon = 60.0  # the shared, identical-traffic window
        assert [e for e in with_rpc if e[0] <= horizon] == [
            e for e in without_rpc if e[0] <= horizon
        ]
        assert without_rpc, "the wire plan must actually fire"

    def test_precision_survives_the_full_zoo(self):
        measurement, _ = run_campaign(
            95, plan=FaultPlan(**FULL_ZOO), mix=BYZANTINE_MIX
        )
        assert measurement.iterations > 0
        assert measurement.score.precision >= 0.95


class TestCheckpointResumeUnderOutage:
    def test_killed_mid_outage_then_resumed_is_deterministic(self, tmp_path):
        """Kill the campaign after its first shard while the RPC plane is
        faulting, then resume from the checkpoint in a fresh replica. The
        resumed run must equal the uninterrupted one (so it is itself
        deterministic), finish the full schedule, and keep the
        degraded-mode precision guarantee."""
        from repro.core.parallel_exec import (
            CampaignSpec,
            ParallelCheckpoint,
            run_campaign as run_spec,
        )
        from repro.netgen.ethereum import NetworkSpec
        from tests.integration.test_fault_campaign import Killed, kill_after

        spec = CampaignSpec(
            network=NetworkSpec(n_nodes=14, seed=96),
            fault_plan=FaultPlan(rpc=RpcFaultPlan.uniform(0.2)),
        )

        def killed_then_resumed(path):
            with pytest.raises(Killed):
                run_spec(spec, checkpoint_path=path, progress=kill_after(1))
            partial = ParallelCheckpoint.load(path)
            assert len(partial.completed) == 1
            return partial, run_spec(spec, checkpoint_path=path, resume=True)

        uninterrupted = run_spec(spec)
        partial, resumed = killed_then_resumed(tmp_path / "a.json")
        assert partial.n_shards > 1
        assert resumed.iterations == uninterrupted.iterations
        assert resumed.score.precision == 1.0
        # Every edge secured before the kill survives the restart.
        assert partial.completed[0].edges <= resumed.edges
        assert canonical(resumed) == canonical(uninterrupted)

        # Same spec, same kill point, fresh process: bit-identical resume.
        _, replay = killed_then_resumed(tmp_path / "b.json")
        assert canonical(replay) == canonical(resumed)

    def test_resume_refuses_checkpoint_without_matching_seed(self, tmp_path):
        from repro.core.parallel_exec import CampaignSpec, run_campaign as run_spec
        from repro.errors import CheckpointError
        from repro.netgen.ethereum import NetworkSpec

        plan = FaultPlan(rpc=RpcFaultPlan.uniform(0.1))
        path = tmp_path / "ckpt.json"
        run_spec(
            CampaignSpec(network=NetworkSpec(n_nodes=14, seed=97), fault_plan=plan),
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError):
            run_spec(
                CampaignSpec(
                    network=NetworkSpec(n_nodes=14, seed=98), fault_plan=plan
                ),
                checkpoint_path=path,
                resume=True,
            )
