"""Tests for measurement/graph persistence."""

import json

import networkx as nx
import pytest

from repro.core.results import NetworkMeasurement, ValidationScore, edge
from repro.io import (
    SerializationError,
    export_graph,
    load_measurement,
    measurement_to_dict,
    save_measurement,
)


@pytest.fixture
def sample_measurement():
    m = NetworkMeasurement(
        node_ids=["a", "b", "c"],
        iterations=3,
        sim_time_start=1.0,
        sim_time_end=61.0,
        transactions_sent=420,
        skipped_nodes=["z"],
    )
    m.add_edges({edge("a", "b"), edge("b", "c")})
    m.score = ValidationScore(2, 0, 1)
    return m


class TestRoundTrip:
    def test_save_and_load(self, sample_measurement, tmp_path):
        path = save_measurement(sample_measurement, tmp_path / "m.json")
        loaded = load_measurement(path)
        assert loaded.node_ids == sample_measurement.node_ids
        assert loaded.edges == sample_measurement.edges
        assert loaded.duration == sample_measurement.duration
        assert loaded.score.recall == sample_measurement.score.recall
        assert loaded.skipped_nodes == ["z"]

    def test_score_optional(self, sample_measurement, tmp_path):
        sample_measurement.score = None
        path = save_measurement(sample_measurement, tmp_path / "m.json")
        assert load_measurement(path).score is None

    def test_dict_is_json_safe(self, sample_measurement):
        json.dumps(measurement_to_dict(sample_measurement))

    def test_edges_canonicalized(self, sample_measurement):
        payload = measurement_to_dict(sample_measurement)
        assert payload["edges"] == [["a", "b"], ["b", "c"]]

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_measurement(path)

    def test_wrong_version_raises(self, sample_measurement, tmp_path):
        payload = measurement_to_dict(sample_measurement)
        payload["format_version"] = 999
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_measurement(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(SerializationError):
            load_measurement(path)

    @pytest.mark.parametrize("key", ["edges", "quarantined"])
    @pytest.mark.parametrize(
        "bad_entry",
        [["n0"], ["n0", "n0"], ["n0", 7], [], ["a", "b", "c"]],
    )
    def test_malformed_edge_entries_rejected(
        self, sample_measurement, tmp_path, key, bad_entry
    ):
        """The one decoder validates edge entries instead of collapsing
        them through ``frozenset`` (a saved measurement is outside input)."""
        payload = measurement_to_dict(sample_measurement)
        payload[key] = [bad_entry]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_measurement(path)


class TestRoundTripProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    node_names = st.text(
        alphabet="abcdefgh0123456789-", min_size=1, max_size=12
    )

    @given(
        nodes=st.lists(node_names, min_size=2, max_size=10, unique=True),
        edge_indices=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=15
        ),
        iterations=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_measurements_round_trip(
        self, tmp_path_factory, nodes, edge_indices, iterations
    ):
        from repro.core.results import NetworkMeasurement

        measurement = NetworkMeasurement(node_ids=nodes, iterations=iterations)
        for i, j in edge_indices:
            a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
            if a != b:
                measurement.add_edges({frozenset((a, b))})
        path = tmp_path_factory.mktemp("io") / "m.json"
        save_measurement(measurement, path)
        loaded = load_measurement(path)
        assert loaded.node_ids == measurement.node_ids
        assert loaded.edges == measurement.edges
        assert loaded.iterations == measurement.iterations


class TestGraphExport:
    @pytest.fixture
    def graph(self):
        return nx.path_graph(["a", "b", "c", "d"])

    def test_edgelist(self, graph, tmp_path):
        path = export_graph(graph, tmp_path / "g.txt", fmt="edgelist")
        lines = path.read_text().splitlines()
        assert lines == ["a b", "b c", "c d"]

    def test_graphml_loads_back(self, graph, tmp_path):
        path = export_graph(graph, tmp_path / "g.graphml", fmt="graphml")
        loaded = nx.read_graphml(path)
        assert set(loaded.nodes()) == set(graph.nodes())
        assert loaded.number_of_edges() == 3

    def test_json_format(self, graph, tmp_path):
        path = export_graph(graph, tmp_path / "g.json", fmt="json")
        payload = json.loads(path.read_text())
        assert payload["nodes"] == ["a", "b", "c", "d"]
        assert ["a", "b"] in payload["edges"]

    def test_unknown_format(self, graph, tmp_path):
        with pytest.raises(ValueError):
            export_graph(graph, tmp_path / "g.x", fmt="dot")


class TestHardenedRoundTrip:
    """Evidence, confidence labels, quarantine and suspects persist."""

    @pytest.fixture
    def hardened_measurement(self):
        from repro.core.results import (
            CONFIDENCE_HIGH,
            CONFIDENCE_QUARANTINED,
            EdgeEvidence,
        )

        m = NetworkMeasurement(node_ids=["a", "b", "c"], iterations=2)
        m.add_edges({edge("a", "b")})
        m.evidence[edge("a", "b")] = EdgeEvidence(
            source="a",
            sink="b",
            tx_hash="0xaa",
            observed_at=12.5,
            kind="direct",
            rpc_confirmed=True,
            extra_observers=("c",),
            iteration=1,
        )
        m.edge_confidence[edge("a", "b")] = CONFIDENCE_HIGH
        m.edge_confidence[edge("a", "c")] = CONFIDENCE_QUARANTINED
        m.quarantined.add(edge("a", "c"))
        m.suspect_nodes.add("c")
        m.score = ValidationScore(
            1, 0, 1, false_negative_edges=(("b", "c"),)
        )
        return m

    def test_round_trip_preserves_adversarial_fields(
        self, hardened_measurement, tmp_path
    ):
        path = save_measurement(hardened_measurement, tmp_path / "m.json")
        loaded = load_measurement(path)
        assert loaded.evidence == hardened_measurement.evidence
        assert loaded.edge_confidence == hardened_measurement.edge_confidence
        assert loaded.quarantined == hardened_measurement.quarantined
        assert loaded.suspect_nodes == hardened_measurement.suspect_nodes
        assert (
            loaded.score.false_negative_edges
            == hardened_measurement.score.false_negative_edges
        )
        assert loaded.score.false_positive_edges == ()

    def test_payload_stays_json_safe_and_versioned(self, hardened_measurement):
        payload = measurement_to_dict(hardened_measurement)
        json.dumps(payload)
        assert payload["format_version"] == 1  # additive keys only

    def test_legacy_payload_without_new_keys_loads(
        self, sample_measurement, tmp_path
    ):
        payload = measurement_to_dict(sample_measurement)
        for key in ("evidence", "edge_confidence", "quarantined", "suspect_nodes"):
            payload.pop(key, None)
        for key in ("false_positive_edges", "false_negative_edges"):
            payload["score"].pop(key, None)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        loaded = load_measurement(path)
        assert loaded.edges == sample_measurement.edges
        assert loaded.evidence == {}
        assert loaded.quarantined == set()
        assert loaded.suspect_nodes == set()
        assert loaded.score.false_positive_edges == ()
