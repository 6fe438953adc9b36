"""Results do not follow ``PYTHONHASHSEED``.

Python salts ``str`` hashes per process, so iterating a set of strings (or
of frozensets of them) visits its members in a different order in every
process unless ``PYTHONHASHSEED`` is pinned. Each scenario below runs in two
subprocesses under different hash seeds and must print the same JSON, key
order included:

- the pool's tie-break numbers after a block re-files several senders
  (they decide which of two equal-priced transactions is evicted);
- a ``txpool_content`` dump (the order of its sender groups);
- the Modularity statistic (Louvain follows graph insertion order).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.metrics import compute_metrics
from repro.core.results import NetworkMeasurement, edge
from repro.eth.account import Wallet
from repro.eth.mempool import Mempool
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.rpc import RpcEndpoint
from repro.eth.transaction import Transaction, TransactionFactory, gwei

SENDERS = [f"0xseed{i}" for i in range(8)]


def pool_after_a_block():
    """Every sender holds a nonce-1 future; a block confirms their nonce 0
    (promoting all eight at one price), then their nonce 2 arrives."""
    confirmed = {}
    pool = Mempool(GETH.scaled(64), confirmed_nonce=lambda s: confirmed.get(s, 0))
    price = gwei(1.0)
    for sender in SENDERS:
        assert pool.add(Transaction(sender=sender, nonce=1, gas_price=price)).admitted
    confirmed.update((sender, 1) for sender in SENDERS)
    pool.apply_block([Transaction(sender=s, nonce=0, gas_price=price) for s in SENDERS])
    for sender in SENDERS:
        assert pool.add(Transaction(sender=sender, nonce=2, gas_price=price)).admitted
    pool.check_invariants()
    state = pool.capture_state()
    return {
        "by_hash": list(state["by_hash"]),
        "future": sorted(state["future"]),
        "pending_heap": state["pending_heap"],
        "future_heap": state["future_heap"],
        "seq": state["seq"],
    }


def txpool_dump():
    """Eight senders with a pending and a future transaction each, dumped
    through the node's endpoint."""
    network = Network(seed=11)
    network.create_node("a", NodeConfig(policy=GETH.scaled(64)))
    wallet, factory = Wallet("hash-seeds"), TransactionFactory()
    for _ in SENDERS:
        account = wallet.fresh_account()
        network.node("a").submit_transaction(factory.transfer(account, gwei(2.0)))
        network.node("a").submit_transaction(factory.future(account, gwei(2.0)))
    return RpcEndpoint(network, "a").call("txpool_content")


def modularity_of_a_fixed_measurement():
    """60 nodes, 200 distinct edges."""
    rng = random.Random(7)
    nodes = [f"n{i:02d}" for i in range(60)]
    edges = set()
    while len(edges) < 200:
        edges.add(edge(*rng.sample(nodes, 2)))
    measurement = NetworkMeasurement(node_ids=nodes, edges=edges)
    return compute_metrics(measurement.graph, seed=1).modularity


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        pool_after_a_block,
        txpool_dump,
        modularity_of_a_fixed_measurement,
    )
}


def run_under_hash_seed(hash_seed: int, scenario: str) -> str:
    """The scenario's JSON as printed by a fresh interpreter."""
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[2]
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": os.pathsep.join([str(src), str(root)]),
    }
    code = (
        "import json, sys\n"
        "from tests.integration.test_hash_seeds import SCENARIOS\n"
        "print(json.dumps(SCENARIOS[sys.argv[1]]()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, scenario],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_result_does_not_follow_the_hash_seed(scenario):
    first, second = (run_under_hash_seed(seed, scenario) for seed in (1, 2))
    assert json.loads(first) is not None
    assert first == second


def test_the_scenarios_are_not_vacuous():
    """Several senders are re-filed, every sender has a group in both halves
    of the dump, communities exist."""
    state = pool_after_a_block()
    # Two offers per sender draw 16 numbers; the block's re-filing drew 8.
    assert state["seq"] == 3 * len(SENDERS)
    assert len(state["by_hash"]) == 2 * len(SENDERS) and not state["future"]
    content = txpool_dump()
    assert len(content["pending"]) == len(content["queued"]) == len(SENDERS)
    assert 0.2 < modularity_of_a_fixed_measurement() < 0.5
