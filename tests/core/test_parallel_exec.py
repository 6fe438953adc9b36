"""Sharded campaign execution: determinism, serialization, resume."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import parallel_exec
from repro.core.parallel_exec import (
    CampaignReplica,
    CampaignSpec,
    ParallelCheckpoint,
    ShardResult,
    ShardSpec,
    build_shard_plan,
    run_campaign,
)
from repro.core.results import (
    EdgeEvidence,
    MeasurementFailure,
    NetworkMeasurement,
    edge,
)
from repro.errors import CheckpointError, MeasurementError
from repro.io import measurement_to_dict
from repro.netgen.ethereum import NetworkSpec
from repro.obs import MetricsRegistry, Observability
from repro.sim.faults import FaultPlan, LinkFaults, RpcFaultPlan
from repro.sim.rng import spawn_seed
from tests.sim.test_faults_rpc import BYZANTINE_MIX, FULL_ZOO


def _spec(**overrides):
    defaults = dict(
        network=NetworkSpec(n_nodes=10, seed=7),
        prefill=False,
        n_shards=4,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def full_zoo_spec(seed=91):
    """Every knob at once: loss + churn + crash + RPC faults, a Byzantine
    mix and cross-validation."""
    return CampaignSpec(
        network=NetworkSpec(n_nodes=14, seed=seed),
        n_shards=4,
        fault_plan=FaultPlan(**FULL_ZOO),
        behaviors=BYZANTINE_MIX,
        cross_validate=3,
    )


def _rpc_weather_spec(seed):
    return CampaignSpec(
        network=NetworkSpec(n_nodes=16, seed=seed),
        n_shards=4,
        fault_plan=FaultPlan(
            rpc=RpcFaultPlan.uniform(
                0.6, rate_limit_per_second=5.0, flap_rate=0.02
            )
        ),
    )


class TestDeterminism:
    def test_pool_reproduces_serial_exactly(self):
        serial = run_campaign(_spec(), workers=1)
        pooled = run_campaign(_spec(), workers=2)
        assert pooled.edges == serial.edges
        assert str(pooled.score) == str(serial.score)
        assert pooled.duration == serial.duration
        assert pooled.transactions_sent == serial.transactions_sent
        assert pooled.failures == serial.failures

    def test_worker_counts_agree_on_the_whole_payload(self):
        """Shards ship their evidence, so the merged result is hardened
        like a serial one: every claimed edge is a detected record and
        labelled, and the full serialized measurement is invariant under
        the worker count."""
        serial = run_campaign(_spec(), workers=1)
        pooled = run_campaign(_spec(), workers=2)
        assert measurement_to_dict(pooled) == measurement_to_dict(serial)
        assert serial.edges
        detected = {e for e, item in serial.evidence.items() if item.detected}
        assert detected == serial.edges | serial.quarantined
        assert set(serial.edge_confidence) == serial.edges

    def test_rpc_degraded_failures_reported_like_the_serial_path(self):
        """An RPC plane harsh enough to exhaust the client's retries must
        surface as ``rpc_degraded`` failures from shards too."""
        from repro.core.campaign import TopoShot
        from repro.netgen.ethereum import generate_network

        plan = FaultPlan(rpc=RpcFaultPlan(timeout_rate=0.9))
        spec = _spec(fault_plan=plan)
        sharded = run_campaign(spec, workers=1)
        assert any(f.kind == "rpc_degraded" for f in sharded.failures)
        assert any(item.rpc_degraded for item in sharded.evidence.values())

        network = generate_network(spec.network)
        network.install_faults(plan)
        serial = TopoShot.attach(network).measure_network()
        assert any(f.kind == "rpc_degraded" for f in serial.failures)

    def test_deterministic_under_faults(self):
        spec = _spec(
            network=NetworkSpec(n_nodes=10, seed=5),
            fault_plan=FaultPlan(loss_rate=0.05, churn_rate=0.02),
        )
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert pooled.edges == serial.edges
        assert pooled.duration == serial.duration

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_warm_replica_equals_fresh_under_rpc_faults(self, seed):
        """The resilient RPC client (breakers, health, pacing, plausibility
        baselines) lives outside ``Network.snapshot``; a reset must replace
        it, or a shard's result depends on which shards its replica ran
        before."""
        spec = _rpc_weather_spec(seed)
        warm = CampaignReplica(spec)
        plan = build_shard_plan(len(warm.schedule), spec.n_shards)
        assert len(plan) == 4
        for index, (start, stop) in enumerate(plan):
            shard = ShardSpec(spec, index, len(plan), start, stop)
            fresh = CampaignReplica(spec).run_shard(shard)
            assert measurement_to_dict(
                warm.run_shard(shard).measurement
            ) == measurement_to_dict(fresh.measurement)

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_worker_counts_agree_under_rpc_faults(self, seed):
        spec = _rpc_weather_spec(seed)
        serial = run_campaign(spec, workers=1)
        assert any(f.kind == "rpc_degraded" for f in serial.failures)
        assert measurement_to_dict(
            run_campaign(spec, workers=4)
        ) == measurement_to_dict(serial)

    def test_full_zoo_is_invariant_under_the_worker_count(self):
        """Cross-validation probes in the harden tail, so the tail resets
        the driver replica into its own seed universe; everything hardening
        adds is then the same bytes at any worker count."""
        serial = run_campaign(full_zoo_spec(), workers=1)
        pooled = run_campaign(full_zoo_spec(), workers=4)
        assert measurement_to_dict(pooled) == measurement_to_dict(serial)
        assert serial.quarantined and serial.suspect_nodes
        assert set(serial.edge_confidence) == serial.edges | serial.quarantined
        assert set(serial.evidence) >= serial.edges
        assert any(f.kind == "rpc_degraded" for f in serial.failures)

    def test_shard_seeds_are_spawn_keys(self):
        spec = _spec()
        shard = ShardSpec(campaign=spec, index=3, n_shards=4, start=0, stop=1)
        assert shard.seed == spawn_seed(spec.seed, "shard", 3)


class TestSpecSerialization:
    def test_round_trip_and_stable_fingerprint(self):
        spec = _spec(
            fault_plan=FaultPlan(
                loss_rate=0.1,
                link_overrides={
                    frozenset(("a", "b")): LinkFaults(loss_rate=0.5)
                },
            ),
            repeats=2,
            group_size=3,
        )
        payload = json.loads(json.dumps(spec.to_dict()))  # through JSON
        restored = CampaignSpec.from_dict(payload)
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()

    def test_rpc_plan_survives_the_round_trip_and_the_fingerprint(self):
        plan = FaultPlan(loss_rate=0.02, rpc=RpcFaultPlan.uniform(0.2))
        spec = _spec(fault_plan=plan)
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.fault_plan.rpc == plan.rpc
        assert restored == spec
        wire_only = _spec(fault_plan=FaultPlan(loss_rate=0.02))
        assert spec.fingerprint() != wire_only.fingerprint()

    def test_full_zoo_round_trips_and_every_world_field_is_fingerprinted(self):
        spec = full_zoo_spec()
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        variants = [
            _spec(),
            _spec(behaviors=BYZANTINE_MIX),
            _spec(rpc_raw=True),
            _spec(cross_validate=3),
        ]
        assert len({variant.fingerprint() for variant in variants}) == len(variants)

    def test_overrides_no_config_accepts_are_refused_at_construction(self):
        with pytest.raises(MeasurementError):
            _spec(cross_validate=-1)
        with pytest.raises(MeasurementError):
            _spec(repeats=0)

    def test_different_campaigns_differ_in_fingerprint(self):
        assert _spec().fingerprint() != _spec(repeats=2).fingerprint()
        assert (
            _spec().fingerprint()
            != _spec(network=NetworkSpec(n_nodes=10, seed=8)).fingerprint()
        )

    def test_latency_model_rejected(self):
        from repro.sim.latency import ConstantLatency

        spec = _spec(
            network=NetworkSpec(
                n_nodes=10, seed=7, latency=ConstantLatency(0.05)
            )
        )
        with pytest.raises(MeasurementError):
            spec.to_dict()


class TestCheckpointResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        path = tmp_path / "parallel.ckpt.json"
        spec = _spec()
        reference = run_campaign(spec, workers=1, checkpoint_path=path)

        checkpoint = ParallelCheckpoint.load(path)
        assert len(checkpoint.completed) == checkpoint.n_shards
        # Simulate a crash that lost the last two shards.
        for index in sorted(checkpoint.completed)[-2:]:
            del checkpoint.completed[index]
        checkpoint.save(path)

        resumed = run_campaign(
            spec, workers=1, checkpoint_path=path, resume=True
        )
        assert resumed.edges == reference.edges
        assert str(resumed.score) == str(reference.score)
        assert resumed.duration == reference.duration

    def test_resume_rejects_foreign_campaign(self, tmp_path):
        path = tmp_path / "parallel.ckpt.json"
        run_campaign(_spec(), workers=1, checkpoint_path=path)
        other = _spec(network=NetworkSpec(n_nodes=10, seed=99))
        with pytest.raises(CheckpointError):
            run_campaign(other, workers=1, checkpoint_path=path, resume=True)

    def test_resume_rejects_checkpoint_of_other_rpc_plan(self, tmp_path):
        path = tmp_path / "parallel.ckpt.json"
        wire_only = FaultPlan(loss_rate=0.02)
        run_campaign(_spec(fault_plan=wire_only), workers=1, checkpoint_path=path)
        with_rpc = FaultPlan(loss_rate=0.02, rpc=RpcFaultPlan.uniform(0.2))
        with pytest.raises(CheckpointError):
            run_campaign(
                _spec(fault_plan=with_rpc),
                workers=1,
                checkpoint_path=path,
                resume=True,
            )

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(CheckpointError):
            run_campaign(_spec(), workers=1, resume=True)

    def _shard_result(self):
        return ShardResult(
            index=1,
            start=2,
            stop=4,
            measurement=NetworkMeasurement(
                node_ids=["a", "b", "x"],
                edges={edge("a", "b")},
                iterations=6,
                sim_time_start=2.0,
                sim_time_end=3.5,
                transactions_sent=10,
                setup_failures=1,
                send_timeouts=2,
                failures=[MeasurementFailure(kind="unreachable", node="x")],
                evidence={
                    edge("a", "b"): EdgeEvidence(
                        source="a", sink="b", tx_hash="0x1", iteration=2,
                        rpc_degraded=True,
                    )
                },
                suspect_nodes={"x"},
            ),
            wall_time=0.1,
        )

    def test_shard_result_round_trip(self):
        result = self._shard_result()
        restored = ShardResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored == result
        # The tally reads through the embedded measurement.
        assert restored.edges == {edge("a", "b")}
        assert restored.transactions_sent == 10
        assert restored.failures == result.measurement.failures
        assert restored.duration == 1.5

    @pytest.mark.parametrize(
        "bad_entry", [["a"], ["a", "a"], ["a", 7], [], ["a", "b", "c"]]
    )
    def test_malformed_shard_edge_entries_rejected(self, bad_entry):
        result = self._shard_result()
        payload = ParallelCheckpoint(
            fingerprint="f" * 64, n_shards=2, completed={1: result}
        ).to_dict()
        payload["completed"]["1"]["measurement"]["edges"] = [bad_entry]
        with pytest.raises(CheckpointError):
            ParallelCheckpoint.from_dict(payload)

    def test_version_1_checkpoint_refused(self):
        """Formats 2 to 4 are refused too: their fingerprints covered
        retired spec fields (``NetworkSpec.extra_config``; then
        ``CampaignSpec.supernode_id`` and three ``NetworkSpec`` constants)
        or ``None`` repeat/retry/cross-validation budgets, so no campaign
        of today matches them."""
        payload = ParallelCheckpoint(fingerprint="f" * 64, n_shards=2).to_dict()
        assert payload["format_version"] == 5
        for version in (1, 2, 3, 4):
            payload["format_version"] = version
            with pytest.raises(CheckpointError, match=f"version {version}"):
                ParallelCheckpoint.from_dict(payload)


LAW_SPECS = {
    "plain": dict(),
    "loss_crash_retry": dict(
        fault_plan=FaultPlan(loss_rate=0.05, crash_rate=0.3), max_retries=1
    ),
    "three_shards": dict(n_shards=3),
}


@pytest.fixture(scope="module", params=sorted(LAW_SPECS))
def law_campaign(request):
    spec = CampaignSpec(
        network=NetworkSpec(n_nodes=16, seed=7), **LAW_SPECS[request.param]
    )
    return spec, run_campaign(spec, workers=1)


class TestOneRecordPerPair:
    """A measurement keeps one record per probed pair, detected or not; the
    claimed edges are a filter over the records."""

    def test_records_are_the_scheduled_pairs_of_the_iterations_that_ran(
        self, law_campaign
    ):
        spec, measurement = law_campaign
        failed = {
            f.iteration for f in measurement.failures if f.kind == "iteration_error"
        }
        scheduled = {
            edge(a, b)
            for index, iteration in CampaignReplica(spec).schedule
            if index not in failed
            for a, b in iteration.edges
        }
        assert set(measurement.evidence) == scheduled
        assert all(e == r.edge for e, r in measurement.evidence.items())
        assert any(not r.detected for r in measurement.evidence.values())

    def test_detected_records_are_the_claimed_edges(self, law_campaign):
        _, measurement = law_campaign
        detected = {e for e, r in measurement.evidence.items() if r.detected}
        assert detected == measurement.edges | measurement.quarantined

    def test_setup_failures_count_the_records_that_never_ran(self, law_campaign):
        spec, measurement = law_campaign
        never_ran = sum(not r.setup_ok for r in measurement.evidence.values())
        assert measurement.setup_failures == never_ran
        # Crashed endpoints leave records of pairs no retry could run.
        assert (never_ran > 0) == (spec.fault_plan is not None)

    def test_worker_counts_agree_on_every_record(self, law_campaign):
        spec, measurement = law_campaign
        assert measurement_to_dict(
            run_campaign(spec, workers=2)
        ) == measurement_to_dict(measurement)


PARENT_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_nodes8_parent.json"


class TestParentFormatCheckpoint:
    """A checkpoint written before misses kept records (detected records
    only, no ``detected`` / ``setup_ok`` keys): a finished ``--nodes 8``
    campaign, ``CampaignSpec(network=NetworkSpec(n_nodes=8, seed=0))``.
    Its header is format 2, whose fingerprint covered the retired
    ``NetworkSpec.extra_config``, the fields format 4 retired and the
    ``None`` budgets format 5 made integers; the records are read under
    today's."""

    SPEC = CampaignSpec(network=NetworkSpec(n_nodes=8, seed=0))

    def _checkpoint(self) -> ParallelCheckpoint:
        raw = json.loads(PARENT_CHECKPOINT.read_text())
        raw["format_version"] = parallel_exec.PARALLEL_CHECKPOINT_VERSION
        raw["fingerprint"] = self.SPEC.fingerprint()
        return ParallelCheckpoint.from_dict(raw)

    def test_its_format_2_header_is_refused(self):
        with pytest.raises(CheckpointError, match="version 2"):
            ParallelCheckpoint.load(PARENT_CHECKPOINT)

    def test_only_the_retired_knob_moved_the_fingerprint(self):
        payload = self.SPEC.to_dict()
        payload["supernode_id"] = "supernode-M"
        payload.update(repeats=None, max_retries=None, cross_validate=None)
        payload["network"].update(
            extra_config={},
            custom_capacity_factor=2.2,
            custom_bump=0.25,
            broadcast_interval=0.02,
        )
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        raw = json.loads(PARENT_CHECKPOINT.read_text())
        assert parallel_exec._hash_blake2b(canonical) == raw["fingerprint"]

    def test_it_loads_with_every_record_detected_and_set_up(self):
        raw = json.loads(PARENT_CHECKPOINT.read_text())
        records = [
            item
            for shard in raw["completed"].values()
            for item in shard["measurement"]["evidence"]
        ]
        assert records and not any("detected" in item for item in records)
        loaded = [
            item
            for result in self._checkpoint().completed.values()
            for item in result.measurement.evidence.values()
        ]
        assert len(loaded) == len(records)
        assert all(item.detected and item.setup_ok for item in loaded)

    def test_re_encoding_writes_the_new_keys(self):
        payload = self._checkpoint().to_dict()
        for shard in payload["completed"].values():
            for item in shard["measurement"]["evidence"]:
                assert item["detected"] is True and item["setup_ok"] is True
                assert item["flood_confirmed"] is True

    def test_resume_from_its_first_shard_finishes_the_campaign(self, tmp_path):
        checkpoint = self._checkpoint()
        checkpoint.completed = {0: checkpoint.completed[0]}
        path = tmp_path / "cut.json"
        checkpoint.save(path)
        resumed = run_campaign(self.SPEC, checkpoint_path=path, resume=True)
        uninterrupted = run_campaign(self.SPEC)
        assert resumed.edges == uninterrupted.edges
        assert resumed.score == uninterrupted.score


def _absorbed(*shards):
    """Snapshot of a fresh registry after absorbing ``shards`` in order."""
    registry = MetricsRegistry()
    for samples in shards:
        registry.absorb(samples)
    return registry.snapshot()


def _scalar_sample(name, kind, value):
    return {
        "name": f"{kind[0]}{name}", "type": kind,
        "labels": {"k": str(name)}, "value": value,
    }


def _histogram_sample(name, values):
    return {
        "name": f"h{name}", "type": "histogram", "labels": {},
        "count": len(values), "sum": float(sum(values)),
        "min": min(values, default=None), "max": max(values, default=None),
        "p50": None, "p90": None, "p99": None,
    }


_SAMPLE = st.one_of(
    st.builds(
        _scalar_sample,
        st.integers(0, 2), st.sampled_from(["counter", "gauge"]), st.integers(0, 9),
    ),
    st.builds(
        _histogram_sample, st.integers(0, 1), st.lists(st.integers(0, 9), max_size=3)
    ),
)
# A shard is one registry's snapshot: at most one sample per series.
_SHARD = st.lists(_SAMPLE, max_size=6, unique_by=lambda sample: sample["name"])


class TestObsMerge:
    def test_counters_sum_gauges_last_histograms_combine(self):
        a = [
            {"name": "c", "type": "counter", "labels": {}, "value": 2},
            {"name": "g", "type": "gauge", "labels": {}, "value": 5},
            {
                "name": "h", "type": "histogram", "labels": {},
                "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0,
                "p50": 1.5, "p90": 2.0, "p99": 2.0,
            },
        ]
        b = [
            {"name": "c", "type": "counter", "labels": {}, "value": 5},
            {"name": "g", "type": "gauge", "labels": {}, "value": 7},
            {
                "name": "h", "type": "histogram", "labels": {},
                "count": 1, "sum": 4.0, "min": 4.0, "max": 4.0,
                "p50": 4.0, "p90": 4.0, "p99": 4.0,
            },
        ]
        by_name = {s["name"]: s for s in _absorbed(a, b)}
        assert by_name["c"]["value"] == 7
        assert by_name["g"]["value"] == 7  # last absorbed wins ...
        assert {s["name"]: s for s in _absorbed(b, a)}["g"]["value"] == 5  # ... so order matters
        assert by_name["h"]["count"] == 3
        assert by_name["h"]["sum"] == 7.0
        assert by_name["h"]["min"] == 1.0
        assert by_name["h"]["max"] == 4.0
        assert by_name["h"]["p50"] is None  # reservoirs are not mergeable

    def test_a_merged_log_counts_what_its_shards_overwrote(self, monkeypatch):
        """Shard rings too small for their story: the merged log retains
        only their tails, and its ``dropped`` says how much is missing."""
        shard_logs = []

        def small_bundle():
            bundle = Observability(event_capacity=8)
            shard_logs.append(bundle.events)
            return bundle

        monkeypatch.setattr(parallel_exec, "Observability", small_bundle)
        obs = Observability()
        run_campaign(
            _spec(
                network=NetworkSpec(n_nodes=12, seed=7),
                n_shards=2,
                fault_plan=FaultPlan(loss_rate=0.05),
            ),
            obs=obs,
        )
        assert len(shard_logs) == 2
        overwritten = sum(log.dropped for log in shard_logs)
        assert overwritten > 0
        assert obs.events.dropped == overwritten

    @given(st.lists(_SHARD, max_size=4))
    def test_one_by_one_equals_concatenation(self, shards):
        concatenated = [sample for shard in shards for sample in shard]
        assert _absorbed(*shards) == _absorbed(concatenated)

    @given(_SHARD, _SHARD)
    def test_counters_and_histograms_commute_gauges_do_not(self, a, b):
        def gauges(samples):
            return {s["name"]: s["value"] for s in samples if s["type"] == "gauge"}

        def others(samples):
            return [s for s in samples if s["type"] != "gauge"]

        ab, ba = _absorbed(a, b), _absorbed(b, a)
        assert others(ab) == others(ba)
        # A gauge both shards report ends on the later shard's value.
        assert gauges(ab) == {**gauges(a), **gauges(b)}
        assert gauges(ba) == {**gauges(b), **gauges(a)}
