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


    def test_schedule_respects_the_budget_it_was_given(self, capsys):
        """40 nodes in 50 slots: K = 2 still needs 76, so the plan printed
        is the cut one ``measure --nodes 40`` runs, not the paper's."""
        assert main(["schedule", "--nodes", "40", "--budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "N=40 nodes, K=2" in out
        assert "iterations         : 27" in out
        assert "largest iteration  : 50 edges" in out
        assert "cut to the budget  : 7 iterations into 14 rounds" in out
        assert "N/K + log K = 21" in out  # the uncut schedule's formula

    def test_schedule_within_budget_reports_no_cut(self, capsys):
        assert main(["schedule", "--nodes", "588", "--budget", "2000"]) == 0
        assert "cut to the budget" not in capsys.readouterr().out


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

    def test_preset_is_the_campaign_network(self, monkeypatch, capsys):
        """``--preset`` swaps the generic network for the testnet's shape
        (the campaign is stopped before it runs: a preset world is large)."""
        from repro.core import parallel_exec
        from repro.errors import MeasurementError
        from repro.netgen.ethereum import goerli_like

        specs = []

        def stop(spec, **_):
            specs.append(spec)
            raise MeasurementError("stopped")

        monkeypatch.setattr(parallel_exec, "run_campaign", stop)
        assert main(["measure", "--preset", "goerli", "--seed", "4"]) == 2
        assert specs == [parallel_exec.CampaignSpec(network=goerli_like(seed=4))]


class TestOneAssemblyOrder:
    def test_cli_is_flags_to_spec_to_run_campaign(self, capsys, tmp_path):
        """The CLI owns flag parsing, not the order a world is assembled
        in nor how a spec is executed: it must write what ``run_campaign``
        returns for the spec its flags describe."""
        import json

        from repro.core.parallel_exec import CampaignSpec, run_campaign
        from repro.eth.behaviors import BehaviorMix
        from repro.io import measurement_to_dict
        from repro.netgen.ethereum import NetworkSpec
        from repro.sim.faults import FaultPlan, RpcFaultPlan

        out_json = tmp_path / "m.json"
        metrics = tmp_path / "m.csv"
        assert (
            main(
                [
                    "measure", "--nodes", "12", "--seed", "3", "--repeats", "2",
                    "--loss", "0.02", "--rpc-fault-rate", "0.2",
                    "--rpc-rate-limit", "25", "--rpc-flap-rate", "0.005",
                    "--rpc-raw-client", "--shards", "3",
                    "--byzantine-frac", "0.2", "--cross-validate", "2",
                    "--max-retries", "1",
                    "--output", str(out_json),
                    "--metrics-out", str(metrics), "--metrics-format", "jsonl",
                ]
            )
            == 0
        )
        rpc = RpcFaultPlan.uniform(0.2, rate_limit_per_second=25, flap_rate=0.005)
        spec = CampaignSpec(
            network=NetworkSpec(n_nodes=12, seed=3),
            repeats=2,
            max_retries=1,
            fault_plan=FaultPlan(loss_rate=0.02, rpc=rpc),
            n_shards=3,
            behaviors=BehaviorMix.uniform(0.2),
            rpc_raw=True,
            cross_validate=2,
        )
        assert json.loads(out_json.read_text()) == measurement_to_dict(
            run_campaign(spec)
        )
        # The format flag wins over the ``.csv`` suffix.
        assert all(json.loads(line) for line in metrics.read_text().splitlines())


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
                    "--rpc-fault-rate", "0.2",
                ]
            )
            == 0
        )
        assert "edges detected" in capsys.readouterr().out

    def test_invariants_compose_with_any_worker_count(self, capsys):
        """A seeded mix that does trip the checker merges to the same
        per-invariant counts whether its shards ran here or on a pool."""
        flags = [
            "measure", "--nodes", "12", "--seed", "5", "--invariants",
            "--byzantine-mix", "spoof_relay:0.2,duplicate_spammer:0.2",
            "--cross-validate", "2",
        ]
        lines = []
        for workers in ("1", "4"):
            assert main(flags + ["--workers", workers]) == 0
            out = capsys.readouterr().out
            lines.append(
                next(ln for ln in out.splitlines() if ln.startswith("invariants:"))
            )
        assert "violations (0 honest)" in lines[0]
        assert lines[0] == lines[1]


ZOO_FLAGS = [
    "measure", "--nodes", "14", "--seed", "7",
    "--loss", "0.02", "--churn", "0.01", "--crash-rate", "0.002",
    "--rpc-fault-rate", "0.2", "--byzantine-frac", "0.3",
    "--cross-validate", "3", "--invariants",
    "--max-retries", "1",
]


def _run_zoo(tmp_path, tag, extra, capsys):
    """One full-zoo CLI run; returns (output bytes, trace bytes,
    deterministic metrics lines, invariants line)."""
    paths = {
        kind: tmp_path / f"{tag}.{kind}.jsonl" for kind in ("out", "trace", "metrics")
    }
    assert (
        main(
            ZOO_FLAGS
            + ["--output", str(paths["out"]), "--trace-out", str(paths["trace"]),
               "--metrics-out", str(paths["metrics"])]
            + extra
        )
        == 0
    )
    out = capsys.readouterr().out
    return (
        paths["out"].read_bytes(),
        paths["trace"].read_bytes(),
        # The one wall-clock histogram is the only nondeterministic sample.
        [
            ln
            for ln in paths["metrics"].read_text().splitlines()
            if "wall_seconds" not in ln
        ],
        next(ln for ln in out.splitlines() if ln.startswith("invariants:")),
    )


class TestOneExecutor:
    """``--workers`` is a wall-clock knob, absent or not: every artefact of
    a campaign is the same bytes for any worker count, under every world
    knob and both observers at once."""

    def test_full_zoo_is_worker_count_invariant(self, tmp_path, capsys):
        reference = _run_zoo(tmp_path, "default", [], capsys)
        assert reference[1], "event trace must not be empty"
        for workers in ("1", "2"):
            assert (
                _run_zoo(tmp_path, f"w{workers}", ["--workers", workers], capsys)
                == reference
            )

    def test_prometheus_export_has_one_help_and_one_type_per_family(
        self, tmp_path, capsys
    ):
        """Help is a property of the metric's name, so it survives the shard
        merge: every exported family gets its ``# HELP`` and ``# TYPE``."""
        path = tmp_path / "m.prom"
        flags = ["measure", "--nodes", "12", "--seed", "3", "--metrics-out", str(path)]
        assert main(flags) == 0
        lines = path.read_text().splitlines()
        helps = [ln.split()[2] for ln in lines if ln.startswith("# HELP ")]
        types = [ln.split()[2] for ln in lines if ln.startswith("# TYPE ")]
        assert helps == types and len(types) == len(set(types)) > 0
        for line in lines:
            if not line.startswith("#"):
                series = line.split("{")[0].split(" ")[0]
                assert series in types or series.rsplit("_", 1)[0] in types

    def test_resume_from_truncated_checkpoint_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        """Kill-anywhere through the CLI: drop all but the first k shards
        from a finished checkpoint (what a kill leaves on disk), resume,
        and get the uninterrupted run's bytes."""
        import json
        import random

        ckpt = tmp_path / "c.json"
        reference = _run_zoo(tmp_path, "full", ["--checkpoint", str(ckpt)], capsys)
        payload = json.loads(ckpt.read_text())
        k = random.Random(7).randrange(1, payload["n_shards"])
        payload["completed"] = {
            index: shard
            for index, shard in payload["completed"].items()
            if int(index) < k
        }
        ckpt.write_text(json.dumps(payload))
        resumed = _run_zoo(
            tmp_path, "resumed", ["--checkpoint", str(ckpt), "--resume"], capsys
        )
        assert resumed == reference


class TestArena:
    @pytest.mark.parametrize(
        "mix", [["--byzantine-mix", "censor:0.1"], ["--byzantine-frac", "0.1"]],
        ids=["mix", "frac"],
    )
    def test_flags_reach_the_scorecard_spec(self, mix, tmp_path, capsys):
        import json

        from repro.core.arena import ArenaSpec

        out, metrics = tmp_path / "arena.json", tmp_path / "arena.metrics"
        argv = [
            "arena", "--nodes", "10", "--seed", "3", "--targets", "6",
            "--outbound-dials", "4", "--protocols", "toposhot",
            "--loss", "0.01", "--churn", "0.01", "--crash-rate", "0.001",
            "--dethna-rounds", "6", "--ethna-txs", "30", "--timing-probes", "2",
            "--output", str(out),
            "--metrics-out", str(metrics), "--metrics-format", "prometheus",
        ]
        assert main(argv + mix) == 0
        spec = ArenaSpec(
            n_nodes=10, seed=3, n_targets=6, outbound_dials=4,
            protocols=("toposhot",), loss_rate=0.01, churn_rate=0.01,
            crash_rate=0.001, timing_probes=2, dethna_rounds=6, ethna_txs=30,
            byzantine_spec="censor:0.1" if mix[0] == "--byzantine-mix" else None,
            byzantine_frac=0.1 if mix[0] == "--byzantine-frac" else None,
        )
        assert json.loads(out.read_text())["spec"] == spec.to_dict()
        assert metrics.read_text().startswith("# HELP ")


class TestMonitor:
    def test_flags_reach_the_rounds(self, tmp_path, capsys):
        paths = {name: tmp_path / name for name in ("rounds.jsonl", "m.prom", "t")}
        argv = [
            "monitor", "--nodes", "10", "--seed", "3", "--targets", "6",
            "--rounds", "1", "--churn", "0.2", "--fee-market",
            "--workload", "steady", "--workload-rate", "500",
            "--stream-out", str(paths["rounds.jsonl"]),
            "--metrics-out", str(paths["m.prom"]), "--metrics-format", "csv",
            "--trace-out", str(paths["t"]),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workload: steady at 500 tx/s" in out
        assert "edges among 6 targets" in out
        assert "fee market: floor=" in out
        assert len(paths["rounds.jsonl"].read_text().splitlines()) == 1
        assert paths["m.prom"].read_text().startswith("name,")
        assert paths["t"].read_text()

    def test_stale_edges_are_reprobed_up_to_the_pair_budget(self, tmp_path, capsys):
        """No churn, so only ``--staleness-ttl`` makes candidates; the
        round probes ``--max-pairs`` of them."""
        import json

        stream = tmp_path / "rounds.jsonl"
        argv = [
            "monitor", "--nodes", "10", "--seed", "3", "--rounds", "1",
            "--max-pairs", "3", "--stream-out", str(stream),
        ]
        for ttl, probed in (["--staleness-ttl", "1"], 3), ([], 0):
            assert main(argv + ttl) == 0
            assert json.loads(stream.read_text())["probed_pairs"] == probed

    def test_workload_rate_without_a_workload_is_refused(self, capsys):
        assert main(["monitor", "--nodes", "10", "--workload-rate", "500"]) == 2
        assert capsys.readouterr().err == "--workload-rate requires --workload\n"


class TestServe:
    def test_typed_flags_win_over_the_config_file(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--config`` fills what no flag sets; a typed flag is never
        dropped for a file key."""
        import json

        import repro.service

        runs = []
        monkeypatch.setattr(
            repro.service, "run_service", lambda config, obs: runs.append((config, obs))
        )
        path = tmp_path / "service.json"
        path.write_text(json.dumps({
            "host": "0.0.0.0", "port": 8545, "state_dir": str(tmp_path / "file"),
            "max_concurrent": 1, "journal_fsync": False,
            "default_quota": {"weight": 2},
        }))
        flags = [
            "--host", "127.0.0.1", "--port", "0",
            "--state-dir", str(tmp_path / "flag"), "--max-concurrent", "3",
        ]
        assert main(["serve", "--config", str(path), "--obs"] + flags) == 0
        assert main(["serve", "--config", str(path)]) == 0
        (typed, obs), (filed, no_obs) = runs
        assert (typed.host, typed.port, typed.state_dir, typed.max_concurrent) == (
            "127.0.0.1", 0, str(tmp_path / "flag"), 3
        )
        assert (filed.host, filed.port, filed.state_dir, filed.max_concurrent) == (
            "0.0.0.0", 8545, str(tmp_path / "file"), 1
        )
        for config in (typed, filed):
            assert not config.journal_fsync and config.default_quota.weight == 2
        assert obs.enabled and not no_obs.enabled


CAMPAIGN_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["measure"],
        ["monitor", "--rounds", "1"],
        ["arena", "--protocols", "toposhot"],
    ],
    ids=["measure", "monitor", "arena"],
)


class TestCampaignRefusals:
    """What the package refuses is one typed line on stderr and exit code
    2 — ``ReproError`` is caught once, in ``main``."""

    @CAMPAIGN_COMMANDS
    def test_too_few_targets_is_one_line(self, command, capsys):
        """(This used to be a 20-line traceback.)"""
        assert main(command + ["--nodes", "1", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"{command[0]}: need at least two targets to measure\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["measure", "--nodes", "8", "--loss", "1.5"],
                "measure: loss_rate must be a probability in [0, 1], got 1.5",
            ),
            (
                ["measure", "--nodes", "8", "--rpc-fault-rate", "2"],
                "measure: rate must be a probability in [0, 1], got 2.0",
            ),
            (
                ["arena", "--nodes", "8", "--loss", "1.5"],
                "arena: loss_rate must be a probability in [0, 1], got 1.5",
            ),
            (["analyze", "MALFORMED"], "analyze: not valid JSON: "),
        ],
        ids=["measure-loss", "measure-rpc-fault-rate", "arena-loss", "analyze"],
    )
    def test_bad_input_is_one_line(self, argv, line, capsys, tmp_path):
        """(``FaultPlanError`` / ``SerializationError`` are not
        ``MeasurementError``: each of these was a traceback.)"""
        malformed = tmp_path / "snap.json"
        malformed.write_text("{not json")
        argv = [str(malformed) if arg == "MALFORMED" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(line) and len(err.splitlines()) == 1

    @CAMPAIGN_COMMANDS
    def test_network_over_the_slot_budget_measures(self, command, capsys):
        """Every quick network of 28+ nodes overflows the 50-slot budget
        even at K = 2; the schedule cuts the oversized iterations into
        rounds that fit."""
        assert main(command + ["--nodes", "30", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        scored = {
            "measure": "precision=1.000 recall=0.9",
            "monitor": "edges among 30 targets",
            "arena": "active_edges      1.000  0.9",
        }
        assert scored[command[0]] in captured.out
        assert "iteration_error" not in captured.out


class TestResumeErrors:
    """A checkpoint ``--resume`` cannot use is one line on stderr and exit
    code 2, never a traceback."""

    BASE = ["measure", "--nodes", "10", "--seed", "3"]

    def _resume(self, ckpt, capsys, extra=()):
        code = main(self.BASE + list(extra) + ["--checkpoint", str(ckpt), "--resume"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot resume from {ckpt}: ")
        assert len(err.splitlines()) == 1
        return err

    def test_resume_without_checkpoint_flag(self, capsys):
        assert main(self.BASE + ["--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_foreign_campaign(self, tmp_path, capsys):
        ckpt = tmp_path / "c.json"
        assert main(self.BASE + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert "different campaign" in self._resume(
            ckpt, capsys, extra=["--repeats", "2"]
        )

    def test_a_library_checkpoint_resumes_from_the_cli(self, tmp_path, capsys):
        """The library's default campaign and the CLI's flag defaults are one
        ``CampaignSpec``: a checkpoint ``run_campaign`` writes is the same
        campaign for ``measure --resume``."""
        from repro.core.parallel_exec import CampaignSpec, run_campaign
        from repro.netgen.ethereum import NetworkSpec

        ckpt = tmp_path / "c.json"
        run_campaign(
            CampaignSpec(network=NetworkSpec(n_nodes=10, seed=3)),
            checkpoint_path=ckpt,
        )
        assert main(self.BASE + ["--checkpoint", str(ckpt), "--resume"]) == 0
        assert "cannot resume" not in capsys.readouterr().err

    def test_malformed(self, tmp_path, capsys):
        ckpt = tmp_path / "c.json"
        ckpt.write_text("{not json")
        assert "cannot read checkpoint" in self._resume(ckpt, capsys)
        ckpt.write_text('{"format_version": 5, "n_shards": 4}')
        assert "malformed parallel checkpoint" in self._resume(ckpt, capsys)

    def test_version_1(self, tmp_path, capsys):
        ckpt = tmp_path / "c.json"
        ckpt.write_text(
            '{"format_version": 1, "fingerprint": "f", "n_shards": 4, '
            '"completed": {}}'
        )
        assert "version 1" in self._resume(ckpt, capsys)

    def test_old_serial_format_is_named(self, tmp_path, capsys):
        ckpt = tmp_path / "c.json"
        ckpt.write_text(
            '{"format_version": 2, "seed": 3, "group_size": 2, '
            '"completed_iterations": 1, "measurement": {}}'
        )
        assert (
            "written by the removed serial executor; re-run without --resume"
            in self._resume(ckpt, capsys)
        )
