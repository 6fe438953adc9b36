"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSchedule:
    def test_schedule_command(self, capsys):
        assert main(["schedule", "--nodes", "500", "--budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "N=500 nodes, K=4" in out
        assert "127" in out  # the paper's Ropsten iteration count

    def test_schedule_explicit_k(self, capsys):
        assert main(["schedule", "--nodes", "8", "--group-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "pairs to cover     : 28" in out


class TestEstimateCost:
    def test_paper_defaults(self, capsys):
        assert main(["estimate-cost"]) == 0
        out = capsys.readouterr().out
        assert "8000 nodes" in out
        assert "M USD" in out

    def test_custom_size(self, capsys):
        assert main(["estimate-cost", "--nodes", "100", "--eth-price", "1000"]) == 0
        assert "100 nodes" in capsys.readouterr().out


class TestProfile:
    def test_profile_prints_all_clients(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        for client in ("geth", "parity", "nethermind", "besu", "aleth"):
            assert client in out
        assert "NO (R=0)" in out


class TestMeasure:
    def test_measure_quick_network(self, capsys):
        assert main(["measure", "--nodes", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "edges detected" in out
        assert "precision=1.000" in out

    def test_measure_with_analysis(self, capsys):
        assert (
            main(["measure", "--nodes", "10", "--seed", "3", "--analyze"]) == 0
        )
        out = capsys.readouterr().out
        assert "degree distribution" in out
        assert "Modularity" in out

    def test_measure_with_output_files(self, capsys, tmp_path):
        out_json = tmp_path / "m.json"
        out_graph = tmp_path / "g.txt"
        assert (
            main(
                [
                    "measure", "--nodes", "10", "--seed", "3",
                    "--output", str(out_json),
                    "--export-graph", str(out_graph),
                ]
            )
            == 0
        )
        from repro.io import load_measurement

        loaded = load_measurement(out_json)
        assert len(loaded.edges) > 0
        assert out_graph.read_text().strip()

    def test_analyze_roundtrip(self, capsys, tmp_path):
        out_json = tmp_path / "m.json"
        main(["measure", "--nodes", "10", "--seed", "3", "--output", str(out_json)])
        capsys.readouterr()
        assert (
            main(["analyze", str(out_json), "--communities", "--security"]) == 0
        )
        out = capsys.readouterr().out
        assert "graph statistics vs ER/CM/BA" in out
        assert "communities:" in out
        assert "security assessment:" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestOneAssemblyOrder:
    def test_serial_cli_is_build_world_plus_measure_network(self, capsys, tmp_path):
        """The CLI owns flag parsing, not the order a world is assembled
        in: its serial path must produce what ``build_world`` + the spec's
        config + ``measure_network`` produce for the same spec."""
        import json

        from repro.core.campaign import TopoShot
        from repro.core.parallel_exec import CampaignSpec, build_world
        from repro.eth.behaviors import BehaviorMix
        from repro.io import measurement_to_dict
        from repro.netgen.ethereum import NetworkSpec
        from repro.sim.faults import FaultPlan, RpcFaultPlan

        out_json = tmp_path / "m.json"
        assert (
            main(
                [
                    "measure", "--nodes", "12", "--seed", "3", "--repeats", "2",
                    "--loss", "0.02", "--rpc-fault-rate", "0.2",
                    "--byzantine-frac", "0.2", "--cross-validate", "2",
                    "--adaptive-flood", "--max-retries", "1",
                    "--output", str(out_json),
                ]
            )
            == 0
        )
        spec = CampaignSpec(
            network=NetworkSpec(n_nodes=12, seed=3),
            repeats=2,
            max_retries=1,
            fault_plan=FaultPlan(loss_rate=0.02, rpc=RpcFaultPlan.uniform(0.2)),
            behaviors=BehaviorMix.uniform(0.2),
            cross_validate=2,
            adaptive_flood=True,
        )
        network, supernode = build_world(spec)
        network.install_faults(spec.fault_plan)
        shot = TopoShot(network, supernode)
        shot.config = spec.measurement_config(shot.config)
        assert json.loads(out_json.read_text()) == measurement_to_dict(
            shot.measure_network()
        )


class TestMeasureAdversarial:
    def test_byzantine_frac_with_invariants(self, capsys):
        assert (
            main(
                [
                    "measure", "--nodes", "10", "--seed", "3",
                    "--byzantine-frac", "0.2", "--invariants",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "byzantine" in out.lower()
        assert "invariants:" in out

    def test_byzantine_mix_spec(self, capsys):
        assert (
            main(
                [
                    "measure", "--nodes", "10", "--seed", "3",
                    "--byzantine-mix", "censor:0.2",
                ]
            )
            == 0
        )

    def test_cross_validate_flag(self, capsys):
        assert (
            main(
                [
                    "measure", "--nodes", "10", "--seed", "3",
                    "--byzantine-frac", "0.2", "--cross-validate", "2",
                ]
            )
            == 0
        )

    def test_both_mix_flags_rejected(self, capsys):
        assert (
            main(
                [
                    "measure", "--nodes", "10",
                    "--byzantine-frac", "0.2",
                    "--byzantine-mix", "censor:0.2",
                ]
            )
            == 2
        )

    def test_bad_mix_spec_rejected(self, capsys):
        assert (
            main(["measure", "--nodes", "10", "--byzantine-mix", "gremlin:1"])
            == 2
        )

    def test_sharded_execution_composes_adversarial_flags(self, capsys):
        assert (
            main(
                [
                    "measure", "--nodes", "10", "--seed", "3", "--workers", "2",
                    "--byzantine-frac", "0.2", "--cross-validate", "2",
                    "--rpc-fault-rate", "0.2", "--adaptive-flood",
                ]
            )
            == 0
        )
        assert "edges detected" in capsys.readouterr().out

    def test_sharded_execution_still_rejects_invariants(self, capsys):
        assert (
            main(["measure", "--nodes", "10", "--workers", "2", "--invariants"])
            == 2
        )
        assert "per-process observer" in capsys.readouterr().err
