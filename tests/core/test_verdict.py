"""The one verdict both primitives end in (``repro.core.primitive.verdict``).

Each row hands ``measure_one_link`` and ``measure_par`` the same supernode
state and the same RPC answers, built by hand: a fake world whose injections
always leave M, whose supernode reports a scripted set of observers for
every transaction, and whose RPC plane answers a scripted list of calls in
order — a call to any other node than the script's next one fails the
test, so reordering a caller's checks is caught, not just a changed
answer. The two callers must return the same record, field for field but
the transaction hash; the parallel caller alone turns a definite RPC miss
into a suspect.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.core.parallel as parallel
import repro.core.primitive as primitive
from repro.core.config import MeasurementConfig
from repro.core.parallel import measure_par
from repro.core.primitive import measure_one_link
from repro.eth.account import Wallet
from repro.eth.transaction import gwei

SOURCE, SINK, THIRD = "a", "b", "x"


class ScriptedRpc:
    """``tx_in_pool`` answering ``script`` — (node, answer) — in order."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def tx_in_pool(self, node_id, tx_hash):
        assert self.script, f"unscripted RPC call to {node_id}"
        expected, answer = self.script.pop(0)
        assert node_id == expected, (node_id, expected, self.calls)
        self.calls.append((node_id, tx_hash))
        return answer


class FakeSupernode:
    """Observations by peer, the same for every transaction M probes with;
    the serial seed txC, the one transaction ``observed_from`` is asked
    about, flooded to every peer."""

    peer_ids = ["entry", "spare"]

    def __init__(self, seen):
        self.seen = seen

    def observed_from(self, peer, tx_hash):
        return True

    def first_observation_time(self, peer, tx_hash):
        return self.seen.get(peer)

    def observation_kind(self, peer, tx_hash):
        return "push" if peer in self.seen else None

    def observers_of(self, tx_hash):
        return set(self.seen)


class FakeNetwork:
    """Just enough world for both callers: no node is down, time and sends
    are free, and RPC goes to the script."""

    supernode_ids = frozenset({"M"})
    invariants = None

    def __init__(self, rpc):
        self.rpc = rpc
        self.sim = SimpleNamespace(now=0.0, schedule=lambda *a, **k: None)

    def rpc_client(self):
        return self.rpc

    def node(self, node_id):
        return SimpleNamespace(crashed=False)

    def run(self, duration):
        pass


@pytest.fixture(autouse=True)
def sent(monkeypatch):
    """Every injection leaves M; the batches sent, in order."""
    batches = []

    def inject(supernode, peer_id, batch, *args, **kwargs):
        batches.append(list(batch))
        return True

    monkeypatch.setattr(primitive, "inject", inject)
    monkeypatch.setattr(parallel, "inject", inject)
    return batches


CONFIG = MeasurementConfig(gas_price_y=gwei(1.0), future_count=8)

# name, hardened, sink observed, sink cross-check, third party seen,
# expected (detected, rpc_confirmed, extra_observers, rpc_degraded, clean)
ROWS = [
    ("observed, RPC yes", True, True, True, False, (True, True, (), False, True)),
    ("observed, RPC no", True, True, False, False, (False, False, (), False, False)),
    ("observed, RPC unknown", True, True, None, False, (True, True, (), True, False)),
    ("unobserved, RPC yes", True, False, True, False, (False, True, (), False, True)),
    ("third party", True, True, True, True, (True, True, (THIRD,), False, False)),
    ("unhardened", False, True, False, True, (True, True, (), False, True)),
]


def world(observed, third):
    seen = {SOURCE: 1.0}
    if observed:
        seen[SINK] = 2.0
    if third:
        seen[THIRD] = 3.0
    return FakeSupernode(seen)


def fields(record):
    return (
        record.detected,
        record.rpc_confirmed,
        record.extra_observers,
        record.rpc_degraded,
        record.clean,
    )


@pytest.mark.parametrize(
    "hardened,observed,rpc,third,expected",
    [row[1:] for row in ROWS],
    ids=[row[0] for row in ROWS],
)
class TestOneVerdict:
    def serial(self, hardened, observed, rpc, third):
        # a has txA, b has txB (so txA on b is not asked), then the
        # sink's cross-check.
        script = [(SOURCE, True), (SINK, True)]
        if hardened:
            script.append((SINK, rpc))
        client = ScriptedRpc(script)
        record = measure_one_link(
            FakeNetwork(client),
            world(observed, third),
            SOURCE,
            SINK,
            CONFIG.with_hardening(hardened),
            Wallet("serial"),
        )
        assert not client.script
        return record, client.calls

    def par(self, hardened, observed, rpc, third):
        # The sink's cross-check, each third party, then the source's
        # set-up check.
        script = [(SINK, rpc)] if hardened else []
        if hardened and third:
            script.append((THIRD, True))
        script.append((SOURCE, True))
        client = ScriptedRpc(script)
        report = measure_par(
            FakeNetwork(client),
            world(observed, third),
            [(SOURCE, SINK)],
            CONFIG.with_hardening(hardened),
            Wallet("parallel"),
        )
        assert not client.script
        return report, client.calls

    def test_serial_and_parallel_agree(self, hardened, observed, rpc, third, expected):
        serial, _ = self.serial(hardened, observed, rpc, third)
        report, _ = self.par(hardened, observed, rpc, third)
        (outcome,) = report.outcomes
        assert fields(serial) == expected
        assert replace(serial, tx_hash="") == replace(outcome, tx_hash="")
        assert serial.setup_ok and serial.flood_confirmed
        assert serial.kind == ("push" if observed else "")

    def test_serial_call_sequence(self, sent, hardened, observed, rpc, third, expected):
        record, calls = self.serial(hardened, observed, rpc, third)
        # M's second injection plants txB.
        tx_a, tx_b = record.tx_hash, sent[1][-1].hash
        assert calls == [(SOURCE, tx_a), (SINK, tx_b)] + (
            [(SINK, tx_a)] if hardened else []
        )

    def test_parallel_call_sequence(self, hardened, observed, rpc, third, expected):
        report, calls = self.par(hardened, observed, rpc, third)
        tx_a = report.outcomes[0].tx_hash
        assert calls == (
            [(SINK, tx_a)] * hardened
            + [(THIRD, tx_a)] * (hardened and third)
            + [(SOURCE, tx_a)]
        )

    def test_only_a_definite_miss_accuses(self, hardened, observed, rpc, third, expected):
        report, _ = self.par(hardened, observed, rpc, third)
        accused = hardened and observed and rpc is False
        assert report.suspect_nodes == ({SINK} if accused else set())


def test_an_observer_missing_from_its_pool_is_accused():
    client = ScriptedRpc([(SINK, True), (THIRD, False), (SOURCE, True)])
    report = measure_par(
        FakeNetwork(client),
        world(observed=True, third=True),
        [(SOURCE, SINK)],
        CONFIG,
        Wallet("parallel"),
    )
    assert report.suspect_nodes == {THIRD}
    assert report.detected == {frozenset((SOURCE, SINK))}


def test_an_unknown_observer_or_setup_answer_degrades_the_record():
    client = ScriptedRpc([(SINK, True), (THIRD, None), (SOURCE, None)])
    report = measure_par(
        FakeNetwork(client),
        world(observed=True, third=True),
        [(SOURCE, SINK)],
        CONFIG,
        Wallet("parallel"),
    )
    (outcome,) = report.outcomes
    assert outcome.detected and outcome.setup_ok and outcome.rpc_degraded
    assert not report.suspect_nodes
