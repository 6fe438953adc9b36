"""Smoke test of the benchmark itself (scaled-down workloads, < 60 s).

Outside tier-1 ``testpaths`` by design; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [name for name, _ in M.WORKLOADS]


def _run(*args: str, cwd: Path = ROOT, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300, **kwargs
    )


def test_manifest_is_what_the_code_emits():
    """BENCHMARK.json is generated (``run.py --print-manifest``); it must
    not drift from the names the runner prints, nor leave the driver's
    limits."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = _run("--print-manifest")
    assert printed.returncode == 0, printed.stderr
    assert manifest == json.loads(printed.stdout)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        row["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for row in manifest[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for row in manifest["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    for row in manifest["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    setup = next(r for r in manifest["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in manifest["end_to_end"])


@pytest.fixture(scope="module")
def smoke_suite() -> dict:
    done = _run("--smoke", "--repeats", "2", "--trace", "--seed", "7")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((HERE / "results" / "latest_smoke.json").read_text())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_once_with_a_unit(smoke_suite, workload):
    end_to_end = smoke_suite["end_to_end"][workload]
    assert end_to_end["correct"] and end_to_end["fingerprints_agree"]
    assert end_to_end["failed"] == 0 and end_to_end["attempted"] >= 1
    assert sorted(end_to_end["metrics"]) == sorted(name for name, *_ in M.END_TO_END)
    for name, unit, _better, _bound in M.END_TO_END:
        cell = end_to_end["metrics"][name]
        assert cell["unit"] == unit and cell["value"] > 0, (name, cell)

    traced = smoke_suite["per_layer"][workload]
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(name for name, *_ in M.PER_LAYER)
    for name, unit, _better in M.PER_LAYER:
        cell = traced["metrics"][name]
        assert cell["unit"] == unit and cell["value"] >= 0, (name, cell)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_self_times_add_up_to_the_wall(smoke_suite, workload):
    detail = smoke_suite["per_layer"][workload]["detail"]
    wall = detail["traced_wall_s"]
    assert abs(detail["self_time_sum_s"] - wall) <= 0.05 * wall
    assert detail["sim_fingerprint"] == detail["untraced_fingerprint"]
    trace = json.loads((ROOT / detail["trace_file"]).read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert all(e["args"]["workload"] == workload for e in events)
    ids = {e["args"]["id"] for e in events}
    assert all(
        e["args"]["parent"] is None or e["args"]["parent"] in ids for e in events
    )


def test_each_workload_exercises_its_layers(smoke_suite):
    """The per-layer zeros are where the workload rationale says they are."""
    value = lambda w, m: smoke_suite["per_layer"][w]["metrics"][m]["value"]  # noqa: E731
    assert value("testnet_full", "eth.mempool.add_calls") > 0
    assert value("testnet_full", "eth.rpc.calls") == 0  # no fault plan = passthrough
    assert value("mainnet_subset", "eth.node.events_per_node_tx") > 0
    assert value("monitor_churn_rpc", "eth.rpc.retries") > 0
    assert value("monitor_churn_rpc", "eth.fee_market.refresh_calls") > 0
    assert value("monitor_churn_rpc", "netgen.workloads.offered") > 0
    assert value("service_jobs", "core.parallel_exec.shards") > 0
    assert value("service_jobs", "service.journal.appends") > 0
    assert value("service_jobs", "sim.snapshot.restore_s") > 0
    assert value("testnet_full", "core.parallel_exec.shards") == 0


def test_one_run_prints_the_drivers_object():
    done = _run(
        "--workload", "testnet_full", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in M.END_TO_END}
    assert all(set(cell) == {"value", "unit"} for cell in result["metrics"].values())


def test_world_does_not_depend_on_the_hash_seed():
    """Two PYTHONHASHSEED values, one simulated world (sorted BFS ball)."""
    prints = []
    for value in ("1", "2"):
        done = _run(
            "--workload", "mainnet_subset", "--seed", "7", "--seconds", "1",
            "--trace", "0", "--smoke",
            env={"PYTHONHASHSEED": value, "PATH": ""},
        )
        assert done.returncode == 0, done.stderr
        detail = next(
            line for line in done.stdout.splitlines() if line.startswith("DETAIL ")
        )
        prints.append(json.loads(detail[len("DETAIL "):])["sim_fingerprint"])
    assert prints[0] == prints[1]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = subprocess.run(
        [
            sys.executable, "benchmarks/perf/run.py", "--workload", "testnet_full",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": ""},  # no PYTHONPATH: an installed copy must not be found
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
