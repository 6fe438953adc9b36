"""No simulated run creates cyclic garbage.

``Simulator.run`` keeps Python's cyclic garbage collector off while it
runs (docs/performance.md, "The collector stays out of the event loop").
That costs no memory only while reference counting frees everything a
campaign drops: a reference cycle made during a run, or made between runs
and still uncollected when the next one starts, would be held until the
first automatic collection after that run. This law wraps
``Simulator.run``: ``gc.collect()`` under ``gc.DEBUG_SAVEALL`` must find
nothing just before each run (what the campaign made since the last one)
and just after it (what the run made). It holds on hypothesis-drawn small
worlds under every fault, Byzantine, RPC, fee-market and cross-validation
knob, and through the sharded executor with its snapshot restores.

The heap that exists before a world is built (pytest, hypothesis, the
imported modules) is frozen (``gc.freeze``) while the law runs, so each
check walks the world and what the run made instead of the whole process:
a campaign calls ``run`` hundreds of times, and a collection of the whole
process costs several milliseconds.
"""

import gc
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.campaign import TopoShot
from repro.core.parallel_exec import CampaignSpec, run_campaign
from repro.eth.behaviors import BEHAVIOR_KINDS, BehaviorMix
from repro.netgen.ethereum import NetworkSpec, quick_network
from repro.netgen.workloads import prefill_mempools
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan, RpcFaultPlan
from tests.conftest import property_settings


def cyclic_garbage() -> Counter:
    """Collect under ``DEBUG_SAVEALL`` and count what the collector found,
    by type name, then free it (a second, plain collection: cleared from
    ``gc.garbage``, the cycles are unreachable again)."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = Counter(type(obj).__qualname__ for obj in gc.garbage)
        del gc.garbage[:]
    finally:
        gc.set_debug(flags)
    gc.collect()
    return found


class RunAudit:
    """What the wrapped ``Simulator.run`` saw: how many runs returned and
    the cyclic garbage found around them, by run number."""

    def __init__(self) -> None:
        self.runs = 0
        self.leaks: List[str] = []

    def note(self, where: str, found: Counter) -> None:
        if found:
            self.leaks.append(
                f"{where} run #{self.runs + 1}: "
                + ", ".join(f"{n} x {name}" for name, n in found.most_common(8))
            )

    def check(self) -> None:
        assert self.runs > 0, "no Simulator.run was audited"
        assert not self.leaks, (
            f"cyclic garbage around {len(self.leaks)} of {self.runs} runs:\n"
            + "\n".join(self.leaks[:10])
        )


@contextmanager
def audited_runs() -> Iterator[RunAudit]:
    """Audit every ``Simulator.run`` inside the block, before it starts
    and after it returns.

    Leaks are recorded, not raised from inside the run, so no campaign
    code that catches errors can swallow them; :meth:`RunAudit.check`
    reads the record once the block is done.
    """
    audit = RunAudit()
    real_run = Simulator.run

    def run(self, *args, **kwargs):
        audit.note("before", cyclic_garbage())
        real_run(self, *args, **kwargs)
        audit.note("in", cyclic_garbage())
        audit.runs += 1

    gc.collect()
    gc.freeze()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Simulator, "run", run)
            yield audit
    finally:
        gc.unfreeze()


def plant_cycle():
    cycle: list = []
    cycle.append(cycle)


def test_the_audit_sees_cycles_made_in_and_between_runs():
    with audited_runs() as audit:
        sim = Simulator(seed=0)
        sim.schedule(1.0, plant_cycle)
        sim.run()
        plant_cycle()
        sim.run()
    assert audit.runs == 2
    assert audit.leaks == ["in run #1: 1 x list", "before run #2: 1 x list"]
    with pytest.raises(AssertionError, match="around 2 of 2 runs"):
        audit.check()


rpc_plans = st.one_of(
    st.none(),
    st.builds(
        RpcFaultPlan.uniform,
        st.sampled_from([0.1, 0.3]),
        rate_limit_per_second=st.sampled_from([0.0, 25.0]),
        flap_rate=st.sampled_from([0.0, 0.5]),
    ),
)
fault_plans = st.builds(
    FaultPlan,
    loss_rate=st.sampled_from([0.0, 0.05]),
    churn_rate=st.sampled_from([0.0, 0.2]),
    crash_rate=st.sampled_from([0.0, 0.05]),
    rpc=rpc_plans,
)
behavior_mixes = st.builds(
    BehaviorMix,
    **{kind: st.sampled_from([0.0, 0.1]) for kind in BEHAVIOR_KINDS},
)


@property_settings(max_examples=10)
@given(
    n_nodes=st.integers(6, 16),
    seed=st.integers(0, 2**16),
    plan=fault_plans,
    mix=behavior_mixes,
    fee_market=st.booleans(),
    cross_validate=st.booleans(),
)
def test_a_campaign_makes_no_cyclic_garbage(
    n_nodes, seed, plan, mix, fee_market, cross_validate
):
    with audited_runs() as audit:
        network = quick_network(n_nodes=n_nodes, seed=seed)
        if fee_market:
            network.install_fee_market()
        prefill_mempools(network)
        if mix.enabled:
            network.install_behaviors(mix)
        shot = TopoShot.attach(network)
        if cross_validate:
            shot.config = shot.config.with_cross_validation(2)
        if plan.enabled:
            network.install_faults(plan)
        shot.measure_network()
    audit.check()


def test_a_sharded_campaign_makes_no_cyclic_garbage():
    spec = CampaignSpec(
        network=NetworkSpec(n_nodes=12, seed=5),
        n_shards=2,
        fault_plan=FaultPlan(
            loss_rate=0.05,
            churn_rate=0.2,
            crash_rate=0.05,
            rpc=RpcFaultPlan.uniform(0.2, rate_limit_per_second=25.0),
        ),
        behaviors=BehaviorMix(spoof_relay=0.1, duplicate_spammer=0.1),
        cross_validate=2,
    )
    with audited_runs() as audit:
        measurement = run_campaign(spec, workers=1)
    assert "shard_error" not in {failure.kind for failure in measurement.failures}
    audit.check()
