"""Measurement campaigns under injected faults: determinism, graceful
degradation, retry-driven recall recovery, and checkpoint/resume."""

import json

import pytest

from repro.core.campaign import CampaignCheckpoint, TopoShot
from repro.core.results import NetworkMeasurement
from repro.errors import CheckpointError
from repro.io import measurement_to_dict
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.sim.faults import FaultPlan


def campaign_network(seed, n_nodes=14):
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    return network


def run_campaign(seed, plan=None, n_nodes=14, repeats=1, retries=0, **kwargs):
    network = campaign_network(seed, n_nodes=n_nodes)
    if plan is not None:
        network.install_faults(plan)
    shot = TopoShot.attach(network)
    shot.config = shot.config.with_repeats(repeats)
    if retries:
        shot.config = shot.config.with_retries(retries)
    return shot.measure_network(**kwargs), network


def canonical(measurement) -> str:
    return json.dumps(measurement_to_dict(measurement), sort_keys=True)


class TestFaultDeterminism:
    def test_same_seed_same_plan_byte_identical(self):
        plan = FaultPlan(loss_rate=0.05, churn_rate=0.01, crash_rate=0.002)
        first, _ = run_campaign(77, plan, repeats=2, retries=1)
        second, _ = run_campaign(77, plan, repeats=2, retries=1)
        assert canonical(first) == canonical(second)

    def test_disabled_plan_is_a_true_noop(self):
        """Installing FaultPlan() must reproduce the seed behaviour down to
        the last byte and the last simulator event."""
        baseline, net_a = run_campaign(78, plan=None)
        with_noop, net_b = run_campaign(78, plan=FaultPlan())
        assert canonical(baseline) == canonical(with_noop)
        assert net_a.messages_sent == net_b.messages_sent
        assert net_a.sim.executed_events == net_b.sim.executed_events

    def test_precision_stays_high_under_faults(self):
        """Loss CAN manufacture false positives (a bystander that missed
        txC admits and relays txA — the paper's precision proof assumes
        txC reached everyone), but the damage must stay marginal."""
        plan = FaultPlan(loss_rate=0.1, churn_rate=0.02, crash_rate=0.005)
        measurement, _ = run_campaign(79, plan)
        assert measurement.score.precision >= 0.95


class TestGracefulDegradation:
    def test_campaign_survives_heavy_crashes(self):
        plan = FaultPlan(crash_rate=0.05, crash_downtime=20.0)
        measurement, network = run_campaign(80, plan)
        # The campaign finished despite crashed targets: every scheduled
        # iteration ran (none aborted the walk) and precision held up.
        assert network.faults.crashes > 0
        assert measurement.iterations > 0
        assert measurement.score.precision >= 0.95

    def test_recall_recovers_with_retries_under_loss(self):
        """Acceptance bar: 5% loss, repeats + retries, 24 nodes, recall
        >= 0.9 (the paper's union-of-three-repeats, Section 6.1)."""
        plan = FaultPlan(loss_rate=0.05)
        measurement, _ = run_campaign(
            81, plan, n_nodes=24, repeats=3, retries=2
        )
        assert measurement.score.recall >= 0.9
        assert measurement.score.precision >= 0.95


class TestCheckpointResume:
    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = CampaignCheckpoint(
            seed=9,
            group_size=2,
            completed_iterations=1,
            measurement=NetworkMeasurement(
                node_ids=["n0", "n1", "n2"],
                edges={frozenset(("n0", "n1"))},
                iterations=3,
                transactions_sent=42,
                setup_failures=1,
                skipped_nodes=["n3"],
            ),
        )
        checkpoint.save(path)
        loaded = CampaignCheckpoint.load(path)
        assert loaded == checkpoint

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    def test_seed_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_campaign(82, checkpoint_path=path)
        network = campaign_network(83)
        shot = TopoShot.attach(network)
        with pytest.raises(CheckpointError):
            shot.measure_network(checkpoint_path=path, resume=True)

    def test_resume_without_checkpoint_path_raises(self):
        network = campaign_network(82)
        shot = TopoShot.attach(network)
        with pytest.raises(CheckpointError):
            shot.measure_network(resume=True)

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        """Acceptance bar: a campaign killed mid-run and resumed from its
        checkpoint ends with the same edge set as an uninterrupted run."""
        uninterrupted, _ = run_campaign(84, repeats=2)
        assert uninterrupted.score.recall == 1.0  # fault-free baseline

        path = tmp_path / "ckpt.json"

        class Killed(RuntimeError):
            pass

        def kill_after_first(index, total, iteration, report):
            assert total > 1, "schedule too small to interrupt meaningfully"
            if index >= 1:
                raise Killed

        network = campaign_network(84)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_repeats(2)
        with pytest.raises(Killed):
            shot.measure_network(
                checkpoint_path=path, progress=kill_after_first
            )
        partial = CampaignCheckpoint.load(path)
        assert 0 < partial.completed_iterations < uninterrupted.iterations

        # A fresh process: same seed, resume from the checkpoint.
        resumed, _ = run_campaign(
            84, repeats=2, checkpoint_path=path, resume=True
        )
        assert resumed.edges == uninterrupted.edges
        assert resumed.iterations == uninterrupted.iterations
        # The checkpoint carries the whole partial, so the hardening pass
        # sees the pre-kill iterations exactly as the uninterrupted run did:
        # one evidence record and one confidence label per detected edge.
        assert partial.measurement.evidence
        assert set(resumed.evidence) == resumed.edges
        assert set(resumed.edge_confidence) == resumed.edges
        assert resumed.suspect_nodes == uninterrupted.suspect_nodes

        final = CampaignCheckpoint.load(path)
        assert final.completed_iterations == uninterrupted.iterations

    def test_resume_does_not_launder_suspect_edges(self, tmp_path):
        """On a 30% Byzantine network, an edge that was doubtful when the
        campaign was killed (unclean evidence, or an endpoint already
        caught misbehaving) must still face cross-validation after the
        resume — never come back labelled ``high``."""
        from repro.core.results import (
            CONFIDENCE_CROSS_VALIDATED,
            CONFIDENCE_QUARANTINED,
        )
        from repro.eth.behaviors import BehaviorMix

        def hardened_shot():
            network = campaign_network(13, n_nodes=24)
            network.install_behaviors(BehaviorMix.uniform(0.3))
            shot = TopoShot.attach(network)
            shot.config = shot.config.with_cross_validation(3)
            return shot

        class Killed(RuntimeError):
            pass

        def kill_near_the_end(index, total, iteration, report):
            if index >= total - 2:
                raise Killed

        path = tmp_path / "ckpt.json"
        with pytest.raises(Killed):
            hardened_shot().measure_network(
                checkpoint_path=path, progress=kill_near_the_end
            )
        partial = CampaignCheckpoint.load(path).measurement
        doubtful = {
            e
            for e in partial.edges
            if not partial.evidence[e].clean or partial.suspect_nodes & e
        }
        assert doubtful, "seed no longer produces suspects before the kill"

        resumed = hardened_shot().measure_network(
            checkpoint_path=path, resume=True
        )
        assert partial.suspect_nodes <= resumed.suspect_nodes
        for e in doubtful:
            assert resumed.edge_confidence[e] in (
                CONFIDENCE_CROSS_VALIDATED,
                CONFIDENCE_QUARANTINED,
            )
        assert resumed.quarantined
        assert resumed.score.precision >= 0.95

    def test_resume_of_finished_campaign_is_instant(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first, _ = run_campaign(85, checkpoint_path=path)
        resumed, _ = run_campaign(85, checkpoint_path=path, resume=True)
        assert resumed.edges == first.edges
        assert resumed.duration == 0.0  # nothing left to simulate
