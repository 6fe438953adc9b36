"""Shared fixtures for the TopoShot reproduction test suite."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings

from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.obs import EventLog, Observability
from repro.sim.engine import Simulator

# `pytest --hypothesis-profile ci`: ten times the examples, derandomized so
# a red CI run reproduces locally. The default profile (and with it the
# tier-1 wall time) is untouched.
_DEFAULT_EXAMPLES = settings.get_profile("default").max_examples
settings.register_profile(
    "ci", max_examples=10 * _DEFAULT_EXAMPLES, derandomize=True
)


def property_settings(max_examples: int) -> settings:
    """``@settings`` for a property test with its own example budget.

    An explicit ``max_examples`` overrides any profile, so the budget is
    scaled here by the active profile's depth (1x by default, 10x under
    ``ci``) instead of being passed to ``settings`` directly.
    """
    depth = settings().max_examples // _DEFAULT_EXAMPLES
    return settings(max_examples=max_examples * max(1, depth), deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def wallet() -> Wallet:
    return Wallet("test")


@pytest.fixture
def factory() -> TransactionFactory:
    return TransactionFactory()


@pytest.fixture
def small_policy():
    """A Geth policy scaled to a 64-slot pool for fast tests."""
    return GETH.scaled(64)


@pytest.fixture
def triangle_network() -> Network:
    """Three mutually connected nodes n0--n1--n2--n0 (plus nothing else)."""
    network = Network(seed=7)
    config = NodeConfig(policy=GETH.scaled(64))
    for index in range(3):
        network.create_node(f"n{index}", config)
    network.connect("n0", "n1")
    network.connect("n1", "n2")
    network.connect("n0", "n2")
    return network


@pytest.fixture
def line_network() -> Network:
    """Four nodes in a line: n0--n1--n2--n3."""
    network = Network(seed=9)
    config = NodeConfig(policy=GETH.scaled(64))
    for index in range(4):
        network.create_node(f"n{index}", config)
    for a, b in (("n0", "n1"), ("n1", "n2"), ("n2", "n3")):
        network.connect(a, b)
    return network


@pytest.fixture
def measured_network():
    """A 14-node Ethereum-like network, pools pre-filled, supernode joined.

    Returns (network, supernode, ground_truth_graph).
    """
    network = quick_network(n_nodes=14, seed=5)
    truth = network.ground_truth_graph()
    prefill_mempools(network, median_price=gwei(1.0))
    supernode = Supernode.join(network)
    return network, supernode, truth


def pairs_of(graph, connected: bool, limit: int = 10):
    """First ``limit`` node pairs that are (not) edges of ``graph``."""
    out = []
    for a, b in itertools.combinations(sorted(graph.nodes()), 2):
        if graph.has_edge(a, b) == connected:
            out.append((a, b))
            if len(out) >= limit:
                break
    return out


def record_everything(network: Network) -> Observability:
    """One bundle recording the whole story of ``network`` from now on:
    every executed engine event, every fired fault and every drop."""
    obs = Observability()
    network.install_observability(obs)
    network.sim.attach_observability(obs, log_events=True)
    return obs


def trace_lines(log: EventLog) -> list:
    """The engine, fault and drop records as ``time|kind|detail`` lines.

    ``event`` renders as ``event|label``, ``fault`` as
    ``fault:<kind>|detail`` and ``drop`` as ``drop|Kind:a->b (reason)``.
    A lost message is told once, by its ``fault:loss`` line, so ``loss``
    drops are skipped. The log must hold the whole story.
    """
    assert log.dropped == 0, f"the log overwrote {log.dropped} records"
    lines = []
    for time, kind, *fields in log:
        if kind == "event":
            lines.append(f"{time:.9f}|event|{fields[0]}")
        elif kind == "fault":
            lines.append(f"{time:.9f}|fault:{fields[0]}|{fields[1]}")
        elif kind == "drop" and fields[0] != "loss":
            reason, from_id, to_id, msg_kind = fields
            lines.append(f"{time:.9f}|drop|{msg_kind}:{from_id}->{to_id} ({reason})")
    return lines
