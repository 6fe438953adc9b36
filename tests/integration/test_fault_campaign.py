"""Measurement campaigns under injected faults: determinism, graceful
degradation, retry-driven recall recovery, and checkpoint/resume."""

import json

import pytest

from repro.core import parallel_exec
from repro.core.campaign import TopoShot
from repro.core.parallel_exec import CampaignSpec, ParallelCheckpoint, ShardResult
from repro.core.results import NetworkMeasurement
from repro.errors import CheckpointError
from repro.io import measurement_to_dict
from repro.netgen.ethereum import NetworkSpec, quick_network
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


class Killed(RuntimeError):
    pass


def kill_after(k):
    """A shard-progress hook that dies once ``k`` shards are durable (the
    checkpoint is written before the hook runs)."""
    done = []

    def progress(index, total, result):
        assert total > k, "plan too small to interrupt meaningfully"
        done.append(index)
        if len(done) >= k:
            raise Killed

    return progress


def spec_for(seed, n_nodes=14, **overrides):
    return CampaignSpec(network=NetworkSpec(n_nodes=n_nodes, seed=seed), **overrides)


class TestCheckpointResume:
    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = ParallelCheckpoint(
            fingerprint="f" * 64,
            n_shards=3,
            completed={
                1: ShardResult(
                    index=1,
                    start=1,
                    stop=2,
                    measurement=NetworkMeasurement(
                        node_ids=["n0", "n1", "n2"],
                        edges={frozenset(("n0", "n1"))},
                        iterations=3,
                        transactions_sent=42,
                        setup_failures=1,
                        skipped_nodes=["n3"],
                    ),
                )
            },
        )
        checkpoint.save(path)
        loaded = ParallelCheckpoint.load(path)
        assert loaded == checkpoint

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            ParallelCheckpoint.load(path)

    def test_seed_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        parallel_exec.run_campaign(spec_for(82), checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different campaign"):
            parallel_exec.run_campaign(
                spec_for(83), checkpoint_path=path, resume=True
            )

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        """Acceptance bar, kill-anywhere: for a random k, a campaign killed
        once k shards are durable and resumed from its checkpoint equals
        the uninterrupted run — every field, not only the edge set."""
        import random

        for seed in (84, 86):
            spec = spec_for(seed, repeats=2)
            uninterrupted = parallel_exec.run_campaign(spec)
            assert uninterrupted.score.recall == 1.0  # fault-free baseline

            n_shards = len(
                parallel_exec.build_shard_plan(uninterrupted.iterations)
            )
            k = random.Random(seed).randrange(1, n_shards)
            path = tmp_path / f"ckpt-{seed}.json"
            with pytest.raises(Killed):
                parallel_exec.run_campaign(
                    spec, checkpoint_path=path, progress=kill_after(k)
                )
            partial = ParallelCheckpoint.load(path)
            assert len(partial.completed) == k

            # A fresh process: same spec, resume from the checkpoint.
            resumed = parallel_exec.run_campaign(
                spec, checkpoint_path=path, resume=True
            )
            assert canonical(resumed) == canonical(uninterrupted)
            # The checkpoint carries each shard's whole partial, so the
            # hardening pass sees the pre-kill iterations exactly as the
            # uninterrupted run did: the claimed edges are the detected
            # records, each with one confidence label.
            assert any(
                r.measurement.evidence for r in partial.completed.values()
            )
            detected = {e for e, r in resumed.evidence.items() if r.detected}
            assert detected == resumed.edges | resumed.quarantined
            assert set(resumed.edge_confidence) == resumed.edges

            final = ParallelCheckpoint.load(path)
            assert len(final.completed) == final.n_shards == n_shards

    def test_probe_retries_reach_the_campaign_on_every_executor(self, tmp_path):
        """``max_retries`` is live below ``TopoShot.run``: under 5% loss a
        retry budget re-probes failed set-ups (more transactions than the
        repeats-only run), and the retried campaign is the same bytes for
        one worker, two workers and a kill-at-shard-k resume."""
        lossy = dict(n_nodes=24, repeats=3, fault_plan=FaultPlan(loss_rate=0.05))
        spec = spec_for(81, max_retries=2, **lossy)
        retried = parallel_exec.run_campaign(spec)
        repeats_only = parallel_exec.run_campaign(spec_for(81, **lossy))
        assert retried.transactions_sent > repeats_only.transactions_sent
        assert retried.score.precision >= 0.95

        assert canonical(parallel_exec.run_campaign(spec, workers=2)) == canonical(
            retried
        )
        path = tmp_path / "ckpt.json"
        with pytest.raises(Killed):
            parallel_exec.run_campaign(
                spec, checkpoint_path=path, progress=kill_after(2)
            )
        resumed = parallel_exec.run_campaign(spec, checkpoint_path=path, resume=True)
        assert canonical(resumed) == canonical(retried)

    def test_resume_does_not_launder_suspect_edges(self, tmp_path):
        """On a 30% Byzantine network, an edge that was doubtful when the
        campaign was killed (unclean evidence, or an endpoint already
        caught misbehaving) must still face cross-validation after the
        resume — never come back labelled ``high``. (A resume that drops
        the partial's evidence / suspects scores precision 0.848 here
        instead of the uninterrupted run's.)"""
        from repro.core.results import (
            CONFIDENCE_CROSS_VALIDATED,
            CONFIDENCE_QUARANTINED,
        )
        from repro.eth.behaviors import BehaviorMix

        spec = spec_for(
            13, n_nodes=24, behaviors=BehaviorMix.uniform(0.3), cross_validate=3
        )
        uninterrupted = parallel_exec.run_campaign(spec)
        n_shards = len(parallel_exec.build_shard_plan(uninterrupted.iterations))

        path = tmp_path / "ckpt.json"
        with pytest.raises(Killed):
            parallel_exec.run_campaign(
                spec, checkpoint_path=path, progress=kill_after(n_shards - 2)
            )
        partial = NetworkMeasurement(node_ids=list(uninterrupted.node_ids))
        for result in ParallelCheckpoint.load(path).completed.values():
            partial.merge(result.measurement)
        doubtful = {
            e
            for e in partial.edges
            if not partial.evidence[e].clean or partial.suspect_nodes & e
        }
        assert doubtful, "seed no longer produces suspects before the kill"

        resumed = parallel_exec.run_campaign(
            spec, checkpoint_path=path, resume=True
        )
        assert partial.suspect_nodes <= resumed.suspect_nodes
        for e in doubtful:
            assert resumed.edge_confidence[e] in (
                CONFIDENCE_CROSS_VALIDATED,
                CONFIDENCE_QUARANTINED,
            )
        assert resumed.quarantined
        assert resumed.score.precision >= 0.95
        assert canonical(resumed) == canonical(uninterrupted)

    def test_resume_of_finished_campaign_is_instant(self, tmp_path):
        path = tmp_path / "ckpt.json"
        spec = spec_for(85)
        first = parallel_exec.run_campaign(spec, checkpoint_path=path)
        ran = []
        resumed = parallel_exec.run_campaign(
            spec,
            checkpoint_path=path,
            resume=True,
            progress=lambda index, total, result: ran.append(index),
        )
        assert ran == []  # nothing left to simulate
        assert canonical(resumed) == canonical(first)
