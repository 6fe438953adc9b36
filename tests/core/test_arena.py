"""Tests for the cross-protocol inference arena.

The acceptance-critical assertion is determinism: two arena runs from
the same spec must produce bit-identical canonical JSON. The rest pins
the fairness construction (identical worlds, one scoring universe) and
the comparative story the paper tells (TopoShot's precision tops the
active-edge baselines on a sparse golden topology).
"""

import json

import pytest

from repro.core.arena import (
    MEASURES,
    PROTOCOLS,
    ArenaSpec,
    run_arena,
    write_arena_json,
)

# One small, sparse golden spec shared by most tests: 12 nodes keeps the
# txprobe pair sweep cheap, outbound_dials=3 keeps the graph far from a
# clique so precision differences are visible.
GOLDEN = ArenaSpec(
    n_nodes=12,
    seed=7,
    outbound_dials=3,
    dethna_rounds=6,
    ethna_txs=30,
    timing_probes=2,
)


@pytest.fixture(scope="module")
def golden_result():
    return run_arena(GOLDEN)


class TestSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocols"):
            ArenaSpec(protocols=("toposhot", "carrier-pigeon"))

    def test_rejects_conflicting_byzantine_config(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ArenaSpec(byzantine_spec="censor:0.1", byzantine_frac=0.1)

    def test_ordered_protocols_canonicalizes(self):
        spec = ArenaSpec(protocols=("ethna", "toposhot", "ethna"))
        assert spec.ordered_protocols == ("toposhot", "ethna")

    def test_spec_round_trips_through_dict(self):
        spec = ArenaSpec(
            n_nodes=32, seed=3, n_targets=8, byzantine_spec="censor:0.1"
        )
        assert ArenaSpec.from_dict(spec.to_dict()) == spec


class TestDeterminism:
    def test_two_runs_identical_canonical_json(self):
        """The acceptance criterion: bit-identical across reruns."""
        spec = ArenaSpec(
            n_nodes=10,
            seed=5,
            outbound_dials=3,
            dethna_rounds=4,
            ethna_txs=20,
            timing_probes=2,
        )
        dumps = [
            json.dumps(run_arena(spec).canonical_dict(), sort_keys=True)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize(
        "byzantine_spec, digest",
        [
            (None, "8fabc2469476a8a91e4418a427fe2cfac056e18f2bb718ab573bb5f037e20a48"),
            (
                "spoof_relay:0.1,censor:0.1",
                "ad018b7486fd56103b0c65703974c0b7a9c0fd93fb2848c69b25ca2f9a32b873",
            ),
        ],
    )
    def test_no_fault_worlds_match_the_hand_assembled_arena(
        self, byzantine_spec, digest
    ):
        """Digests first recorded at c999a29, when the arena still assembled
        its worlds itself: building them through ``build_world`` changes
        nothing for a spec without a fault plan.

        Re-recorded once, for flood trimming, after diffing both canonical
        dicts against the parent commit's. Honest world: the one field that
        moved is toposhot's ``cost.transactions`` (3620 -> 2474). Byzantine
        world: the same count, and toposhot's row with it (recall 0.625 ->
        1.0, messages 4602 -> 5553, sim seconds 170 -> 255) — a spoofing
        relay re-broadcasts the futures its pool *refused*, so a trimmed
        flood hands it a margin's worth of them to strip its neighbours'
        txC shields with, not Z minus its room (docs/adversarial.md). The
        six other protocols' rows are unchanged in both.

        Re-recorded again when ``toposhot_repeats``,
        ``toposhot_cross_validate`` and ``txprobe_wait`` left ``ArenaSpec``
        for constants: with those three keys dropped from the parent
        commit's ``spec``, both canonical dicts are equal."""
        import hashlib

        spec = ArenaSpec(
            n_nodes=24,
            seed=7,
            n_targets=8,
            outbound_dials=3,
            dethna_rounds=4,
            ethna_txs=20,
            timing_probes=2,
            byzantine_spec=byzantine_spec,
        )
        canonical = json.dumps(run_arena(spec).canonical_dict(), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    def test_canonical_dict_excludes_wall_clock(self, golden_result):
        canonical = json.dumps(golden_result.canonical_dict())
        assert "wall_clock_seconds" not in canonical
        full = json.dumps(golden_result.to_dict())
        assert "wall_clock_seconds" in full


class TestScorecard:
    def test_all_seven_protocols_run(self, golden_result):
        assert [o.protocol for o in golden_result.outcomes] == list(PROTOCOLS)

    def test_edge_protocols_scored_others_null(self, golden_result):
        for outcome in golden_result.outcomes:
            if MEASURES[outcome.protocol] in ("active_edges", "inactive_edges"):
                assert outcome.precision is not None
                assert outcome.recall is not None
                assert outcome.f1 is not None
            else:
                assert outcome.precision is None
                assert outcome.predicted_edges is None

    def test_toposhot_tops_active_edge_precision(self, golden_result):
        """The paper's comparative claim on the golden topology."""
        toposhot = golden_result.outcome("toposhot")
        assert toposhot.precision == 1.0
        assert toposhot.recall >= 0.85
        txprobe = golden_result.outcome("txprobe")
        assert txprobe.precision < toposhot.precision  # push bypass
        findnode = golden_result.outcome("findnode")
        assert findnode.precision < 1.0  # inactive != active edges

    def test_probe_costs_recorded(self, golden_result):
        toposhot = golden_result.outcome("toposhot")
        assert toposhot.transactions > 0
        assert toposhot.messages > 0
        # passive/message-only protocols send no probe transactions
        for protocol in ("findnode", "census", "ethna"):
            assert golden_result.outcome(protocol).transactions == 0
        # every protocol reports its simulated duration
        for outcome in golden_result.outcomes:
            assert outcome.sim_seconds > 0

    def test_ethna_reports_degree_error(self, golden_result):
        extras = golden_result.outcome("ethna").extras
        assert extras["peers_estimated"] > 0
        assert 0 <= extras["degree_mape"] < 1.5

    def test_summary_lists_every_protocol(self, golden_result):
        summary = golden_result.summary()
        for protocol in PROTOCOLS:
            assert protocol in summary


class TestUniverse:
    def test_subset_targets_bound_the_universe(self):
        spec = ArenaSpec(
            n_nodes=20,
            seed=3,
            n_targets=6,
            outbound_dials=4,
            protocols=("timing", "dethna"),
            dethna_rounds=4,
            timing_probes=2,
        )
        result = run_arena(spec)
        assert len(result.targets) == 6
        assert result.true_edges <= result.network_edges
        payload = result.to_dict()
        assert payload["universe"]["targets"] == result.targets

    def test_protocol_subset_runs_only_those(self):
        spec = ArenaSpec(
            n_nodes=10, seed=1, outbound_dials=3, protocols=("census", "findnode")
        )
        result = run_arena(spec)
        assert [o.protocol for o in result.outcomes] == ["findnode", "census"]


class TestJsonOutput:
    def test_write_arena_json(self, tmp_path, golden_result):
        path = write_arena_json(golden_result, tmp_path / "BENCH_arena.json")
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert set(payload["protocols"]) == set(PROTOCOLS)
        for scorecard in payload["protocols"].values():
            assert "probe_cost" in scorecard
            assert "wall_clock_seconds" in scorecard

    def test_obs_sidecar_gets_arena_metrics(self):
        from repro.obs import Observability
        from repro.obs.wiring import ARENA_PROTOCOLS_RUN

        obs = Observability()
        spec = ArenaSpec(
            n_nodes=10, seed=1, outbound_dials=3, protocols=("findnode", "census")
        )
        run_arena(spec, obs=obs)
        samples = {
            (instrument.name, dict(instrument.labels).get("protocol"))
            for instrument in obs.metrics.collect()
        }
        assert (ARENA_PROTOCOLS_RUN, "findnode") in samples
        assert (ARENA_PROTOCOLS_RUN, "census") in samples
