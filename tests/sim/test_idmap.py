"""Unit and property tests for the str<->int interning layer.

The struct-of-arrays core keeps strings at the API boundary and dense
integers inside; :class:`repro.sim.idmap.IdMap` is the contract between
the two. These tests pin the parts the transport relies on: append-only
assignment, bijection, and stability across a snapshot/restore cycle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eth.node import Node
from repro.eth.network import Network
from repro.sim.idmap import IdMap


def test_intern_assigns_dense_indices_in_order():
    idmap = IdMap()
    assert idmap.intern("a") == 0
    assert idmap.intern("b") == 1
    assert idmap.intern("a") == 0  # idempotent
    assert idmap.intern("c") == 2
    assert len(idmap) == 3
    assert list(idmap) == ["a", "b", "c"]


def test_lookup_api():
    idmap = IdMap()
    idmap.intern("x")
    assert idmap.index["x"] == 0
    assert idmap.names[0] == "x"
    assert "x" in idmap
    assert "y" not in idmap
    assert idmap.get("y") == -1
    assert idmap.get("y", default=7) == 7


def test_check_bijection_detects_desync():
    idmap = IdMap()
    idmap.intern("a")
    idmap.intern("b")
    idmap.check_bijection()
    idmap.index["b"] = 5  # corrupt the inverse table
    with pytest.raises(AssertionError):
        idmap.check_bijection()


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_interning_is_a_stable_bijection(names):
    """Property: interning any sequence (with duplicates) yields a bijection
    between the distinct strings and ``range(n)``, in first-seen order, and
    a second map fed the captured table reproduces it exactly."""
    idmap = IdMap()
    for name in names:
        idmap.intern(name)

    distinct_first_seen = list(dict.fromkeys(names))
    assert list(idmap.capture()) == distinct_first_seen
    idmap.check_bijection()
    # Round-trip: every name goes str -> int -> str unchanged.
    for name in distinct_first_seen:
        assert idmap.names[idmap.index[name]] == name

    # Re-interning from a capture (what a restore conceptually replays)
    # rebuilds the identical table.
    replayed = IdMap()
    for name in idmap.capture():
        replayed.intern(name)
    assert replayed.capture() == idmap.capture()
    assert replayed.index == idmap.index


def test_network_idmap_survives_snapshot_restore():
    """The network-level contract: capture/restore leaves the str<->int
    table untouched, and node indices keep resolving to their ids."""
    network = Network(seed=5)
    for i in range(8):
        network.add_node(Node(f"n{i}", network.sim))
    for i in range(7):
        network.connect(f"n{i}", f"n{i + 1}")
    network.settle()
    before = network.ids.capture()

    snap = network.snapshot()
    network.disconnect("n0", "n1")
    network.connect("n0", "n7")
    network.settle()
    network.restore(snap)

    assert network.ids.capture() == before
    network.ids.check_bijection()
    for name in before:
        node = network.node(name)
        assert network.ids.names[node.index] == name
