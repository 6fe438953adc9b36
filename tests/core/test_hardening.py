"""Tests for Byzantine-aware precision hardening (config, verdicts,
evidence, cross-validation and quarantine)."""

import pytest

from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.primitive import confirmed_direct
from repro.core.results import (
    CONFIDENCE_CROSS_VALIDATED,
    CONFIDENCE_HIGH,
    CONFIDENCE_QUARANTINED,
    CONFIDENCE_SUSPECT,
    EdgeEvidence,
    NetworkMeasurement,
    edge,
)
from repro.errors import MeasurementError
from repro.eth.behaviors import BehaviorMix
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools

# The adversary mix the robustness benchmark sweeps (heavy on the two
# false-positive mechanisms: spoofing relays and R=0 replacers).
ADVERSARIAL_MIX = BehaviorMix(
    spoof_relay=0.4,
    nonconforming_replacer=0.2,
    stale_client=0.2,
    censor=0.1,
    duplicate_spammer=0.1,
)


def probe(**overrides):
    defaults = dict(source="a", sink="b", tx_hash="0xa", observed_at=10.0)
    defaults.update(overrides)
    return EdgeEvidence(**defaults)


def measure(n_nodes, seed, frac, hardened, cross_validate=0):
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    if frac:
        network.install_behaviors(ADVERSARIAL_MIX.scaled(frac))
    shot = TopoShot.attach(network)
    if hardened and cross_validate:
        shot.config = shot.config.with_cross_validation(cross_validate)
    elif not hardened:
        shot.config = shot.config.with_hardening(False)
    return shot.measure_network()


class TestConfig:
    def test_hardened_is_the_default(self):
        assert MeasurementConfig().hardened
        assert MeasurementConfig().cross_validate == 0

    def test_with_cross_validation_defaults_k_to_one(self):
        """k is one (``TestCrossValidationLoop``): the builder takes ``n``
        alone."""
        config = MeasurementConfig().with_cross_validation(3)
        assert config.cross_validate == 3
        with pytest.raises(TypeError):
            MeasurementConfig().with_cross_validation(3, 2)

    def test_invalid_cross_validation_refused(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig(cross_validate=-1)
        with pytest.raises(TypeError, match="cross_validate_k"):
            MeasurementConfig(cross_validate=2, cross_validate_k=3)


class TestCrossValidationLoop:
    """1-of-n: the first probe that confirms direct adjacency keeps a
    suspect edge; ``n`` probes that never do quarantine it."""

    @pytest.mark.parametrize(
        "script,kept,probes",
        [
            (("no", "yes", "yes"), True, 2),
            (("no", "no", "no"), False, 3),
            (("sick", "no", "no", "no"), False, 4),  # a sick plane re-probes free
        ],
    )
    def test_the_first_confirming_probe_keeps_the_edge(
        self, monkeypatch, script, kept, probes
    ):
        import repro.core.campaign as campaign

        shot = TopoShot.attach(quick_network(n_nodes=6, seed=1))
        shot.config = shot.config.with_cross_validation(3)
        records = [
            probe(
                detected=True, rpc_confirmed=step == "yes", rpc_degraded=step == "sick"
            )
            for step in script
        ]
        monkeypatch.setattr(campaign, "cleanup", lambda *args: None)
        monkeypatch.setattr(campaign, "measure_one_link", lambda *args: records.pop(0))
        assert shot._cross_validate_edge("a", "b") is kept
        assert len(script) - len(records) == probes


class TestProbeVerdicts:
    def test_clean_positive_is_confirmed_outright(self):
        record = probe()
        assert record.clean
        assert confirmed_direct(record, None)

    def test_rpc_failure_kills_the_verdict(self):
        record = probe(rpc_confirmed=False)
        assert not record.clean
        assert not confirmed_direct(record, None)

    def test_negative_is_never_confirmed(self):
        record = probe(detected=False)
        assert not confirmed_direct(record, None)

    def test_extra_observers_break_clean_but_race_can_confirm(self):
        record = probe(extra_observers=("x",), observed_at=10.0)
        assert not record.clean
        assert confirmed_direct(record, 11.0)  # sink demonstrated first
        assert not confirmed_direct(record, 9.0)  # a third party beat the sink

    def test_race_needs_both_timestamps(self):
        record = probe(extra_observers=("x",))
        assert not confirmed_direct(record, None)


class TestHonestEquivalence:
    def test_hardening_never_changes_an_honest_verdict(self):
        hardened = measure(12, seed=7, frac=0.0, hardened=True)
        unhardened = measure(12, seed=7, frac=0.0, hardened=False)
        assert hardened.edges == unhardened.edges
        assert str(hardened.score) == str(unhardened.score)
        # On an honest network every verdict stays high-confidence.
        assert set(hardened.edge_confidence.values()) == {CONFIDENCE_HIGH}
        assert not hardened.quarantined
        assert not hardened.suspect_nodes
        # Every probed pair keeps a record; the claimed edges are the
        # detected ones, and only the hardened path cross-checks them.
        claimed = {e for e, item in hardened.evidence.items() if item.detected}
        assert claimed == hardened.edges
        assert all(
            item.clean for item in hardened.evidence.values() if item.detected
        )
        assert set(unhardened.evidence) == set(hardened.evidence)
        assert all(
            item.rpc_confirmed and not item.extra_observers
            for item in unhardened.evidence.values()
        )


class TestAdversarialHardening:
    @pytest.fixture(scope="class")
    def byzantine_pair(self):
        unhardened = measure(14, seed=5, frac=0.2, hardened=False)
        hardened = measure(
            14, seed=5, frac=0.2, hardened=True, cross_validate=3
        )
        return unhardened, hardened

    def test_byzantine_mix_produces_false_positives_unhardened(
        self, byzantine_pair
    ):
        unhardened, _ = byzantine_pair
        assert unhardened.score.false_positives > 0
        assert unhardened.score.false_positive_edges  # diagnosable

    def test_cross_validation_recovers_precision(self, byzantine_pair):
        unhardened, hardened = byzantine_pair
        assert hardened.score.precision > unhardened.score.precision
        assert hardened.score.false_positives == 0

    def test_quarantine_and_labels_are_populated(self, byzantine_pair):
        _, hardened = byzantine_pair
        assert hardened.quarantined
        assert not hardened.quarantined & hardened.edges
        allowed = {
            CONFIDENCE_HIGH,
            CONFIDENCE_CROSS_VALIDATED,
            CONFIDENCE_SUSPECT,
            CONFIDENCE_QUARANTINED,
        }
        assert set(hardened.edge_confidence.values()) <= allowed
        for quarantined_edge in hardened.quarantined:
            assert (
                hardened.edge_confidence[quarantined_edge]
                == CONFIDENCE_QUARANTINED
            )
        assert hardened.suspect_nodes <= set(hardened.node_ids)

    def test_summary_reports_the_quarantine(self, byzantine_pair):
        _, hardened = byzantine_pair
        assert "quarantined" in hardened.summary()

    def test_summary_names_suspect_nodes_when_present(self):
        m = NetworkMeasurement(node_ids=["a", "b"])
        m.suspect_nodes.add("b")
        assert "suspect nodes  : b" in m.summary()

    def test_suspects_without_budget_are_kept_but_downgraded(self):
        downgraded = measure(14, seed=5, frac=0.2, hardened=True)
        # No cross-validation budget: nothing is quarantined, suspect
        # edges keep their place with a 'suspect' label.
        assert not downgraded.quarantined
        assert CONFIDENCE_SUSPECT in set(downgraded.edge_confidence.values())


class TestMeasurementContainers:
    def test_summary_lines_for_clean_measurement(self):
        m = NetworkMeasurement(node_ids=["a", "b"])
        m.add_edges({edge("a", "b")})
        assert "quarantined" not in m.summary()

    def test_evidence_round_trip_dict(self):
        item = EdgeEvidence(
            source="a",
            sink="b",
            tx_hash="0xa",
            observed_at=12.5,
            kind="direct",
            rpc_confirmed=True,
            extra_observers=("c",),
            iteration=2,
        )
        assert EdgeEvidence.from_dict(item.to_dict()) == item
        assert item.edge == edge("a", "b")
        assert not item.clean  # an extra observer dirties the evidence
