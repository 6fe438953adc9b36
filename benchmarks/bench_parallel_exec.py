"""Multi-core campaign execution: wall-clock vs worker count, and the
snapshot/reset cache vs full regeneration.

Two claims are measured and gated:

1. **Sharded speedup** — a multi-seed fig5-style sweep (one campaign per
   seed) runs serially (``workers=1``) and on a process pool; the merged
   measurement must be bit-identical for every worker count (that part is
   asserted always), and on a machine with >= 2 cores the full sweep's
   2-worker run must finish >= 1.4x faster than the serial one (the smoke
   is a tenth of a second of work: too little to time).
2. **Snapshot/reset** — resetting a campaign replica to its post-setup
   snapshot must be >= 3x faster than rebuilding the replica from the
   spec, which is what turns per-shard setup from O(network build) into
   O(state restore).

Standalone (full sweep, writes benchmarks/results/BENCH_parallel.json)::

    PYTHONPATH=src python benchmarks/bench_parallel_exec.py

Pytest smoke (small network, 2 workers vs serial, same JSON artifact)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_exec.py \
        -k smoke --benchmark-disable -q
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import pytest

if __package__ in (None, ""):
    # Standalone `python benchmarks/bench_parallel_exec.py`: put the repo
    # root on sys.path so the `benchmarks` package resolves.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import RESULTS_DIR, emit, emit_metrics_sidecar, run_once
from repro.core.parallel_exec import (
    CampaignReplica,
    CampaignSpec,
    ShardSpec,
    run_campaign,
)
from repro.netgen.ethereum import NetworkSpec
from repro.obs import Observability
from repro.sim.rng import spawn_seed

JSON_PATH = RESULTS_DIR / "BENCH_parallel.json"

# Gates. The worker-speedup gate only binds on machines that actually have
# the cores; the snapshot gate is architectural and holds everywhere.
MIN_SPEEDUP_2W = 1.4
MIN_SETUP_SPEEDUP = 3.0

SMOKE_SCENARIO = {
    "name": "smoke",
    "n_nodes": 14,
    "seeds": (3,),
    "shards": 4,
    "worker_counts": (1, 2),
}
FULL_SCENARIO = {
    "name": "full",
    "n_nodes": 32,
    "seeds": (3, 5, 7),
    "shards": 8,
    "worker_counts": (1, 2, 4),
}


def _campaign(n_nodes: int, seed: int, shards: int) -> CampaignSpec:
    return CampaignSpec(
        network=NetworkSpec(n_nodes=n_nodes, seed=seed),
        prefill=False,
        n_shards=shards,
    )


def run_sweep(scenario: dict, workers: int, obs=None) -> dict:
    """One fig5-style multi-seed sweep at a fixed worker count."""
    start = perf_counter()
    results = {}
    for seed in scenario["seeds"]:
        measurement = run_campaign(
            _campaign(scenario["n_nodes"], seed, scenario["shards"]),
            workers=workers,
            obs=obs,
        )
        results[seed] = measurement
    return {
        "workers": workers,
        "wall_s": round(perf_counter() - start, 3),
        "measurements": results,
    }


def bench_workers(scenario: dict, obs=None) -> dict:
    """Run the sweep at every worker count and cross-check bit-identity."""
    runs = [
        run_sweep(scenario, workers, obs=obs if workers == 1 else None)
        for workers in scenario["worker_counts"]
    ]
    baseline = runs[0]
    for run in runs[1:]:
        for seed, measurement in run["measurements"].items():
            reference = baseline["measurements"][seed]
            assert measurement.edges == reference.edges, (
                f"seed {seed}: {run['workers']}-worker edges differ from "
                "serial — sharded execution is not deterministic"
            )
            assert str(measurement.score) == str(reference.score), seed
            assert measurement.duration == reference.duration, seed
    rows = [
        {
            "workers": run["workers"],
            "wall_s": run["wall_s"],
            "speedup": round(baseline["wall_s"] / run["wall_s"], 2),
            "edges": {
                str(seed): len(m.edges)
                for seed, m in sorted(run["measurements"].items())
            },
        }
        for run in runs
    ]
    return {
        "scenario": {k: v for k, v in scenario.items() if k != "name"},
        "runs": rows,
    }


def bench_snapshot_reset(scenario: dict, repetitions: int = 3) -> dict:
    """Per-shard setup cost: full replica rebuild vs snapshot restore."""
    campaign = _campaign(
        scenario["n_nodes"], scenario["seeds"][0], scenario["shards"]
    )
    build_times = []
    replica = None
    for _ in range(repetitions):
        start = perf_counter()
        replica = CampaignReplica(campaign)
        build_times.append(perf_counter() - start)
    # Dirty the world once so every timed _reset below actually restores.
    shard = ShardSpec(
        campaign=campaign,
        index=0,
        n_shards=scenario["shards"],
        start=0,
        stop=1,
    )
    replica.run_shard(shard)
    restore_times = []
    for index in range(repetitions):
        start = perf_counter()
        replica._reset(spawn_seed(campaign.seed, "bench-reset", index))
        restore_times.append(perf_counter() - start)
    build_mean = sum(build_times) / len(build_times)
    restore_mean = sum(restore_times) / len(restore_times)
    return {
        "build_mean_s": round(build_mean, 4),
        "restore_mean_s": round(restore_mean, 4),
        "setup_speedup": round(build_mean / restore_mean, 2),
    }


def write_results(workers_section: dict, snapshot_section: dict, kind: str) -> dict:
    payload = {
        "benchmark": "parallel_exec",
        "kind": kind,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "min_speedup_2w": MIN_SPEEDUP_2W,
        "min_setup_speedup": MIN_SETUP_SPEEDUP,
        "workers": workers_section,
        "snapshot_reset": snapshot_section,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_table(workers_section: dict, snapshot_section: dict) -> str:
    lines = [f"{'workers':>8} {'wall (s)':>10} {'speedup':>8}"]
    for row in workers_section["runs"]:
        lines.append(
            f"{row['workers']:>8} {row['wall_s']:>10.2f} "
            f"{row['speedup']:>7.2f}x"
        )
    lines.append("")
    lines.append(
        f"snapshot/reset: build {snapshot_section['build_mean_s']*1000:.0f}ms "
        f"vs restore {snapshot_section['restore_mean_s']*1000:.0f}ms "
        f"({snapshot_section['setup_speedup']:.1f}x)"
    )
    return "\n".join(lines)


def _check_gates(
    workers_section: dict, snapshot_section: dict, timed: bool = True
) -> None:
    assert snapshot_section["setup_speedup"] >= MIN_SETUP_SPEEDUP, (
        f"snapshot restore is only {snapshot_section['setup_speedup']}x "
        f"faster than a rebuild (need {MIN_SETUP_SPEEDUP}x)"
    )
    by_workers = {row["workers"]: row for row in workers_section["runs"]}
    if timed and 2 in by_workers and (os.cpu_count() or 1) >= 2:
        assert by_workers[2]["speedup"] >= MIN_SPEEDUP_2W, (
            f"2-worker speedup {by_workers[2]['speedup']}x < "
            f"{MIN_SPEEDUP_2W}x on a {os.cpu_count()}-core machine"
        )


@pytest.mark.benchmark(group="parallel-exec")
def test_parallel_exec_smoke(benchmark):
    """CI smoke: 2 workers on a small network must reproduce the serial
    edge set exactly; the snapshot cache must beat regeneration."""
    obs = Observability()

    def run():
        return (
            bench_workers(SMOKE_SCENARIO, obs=obs),
            bench_snapshot_reset(SMOKE_SCENARIO),
        )

    workers_section, snapshot_section = run_once(benchmark, run)
    write_results(workers_section, snapshot_section, kind="smoke")
    emit("parallel_exec_smoke", format_table(workers_section, snapshot_section))
    emit_metrics_sidecar("BENCH_parallel", obs)
    _check_gates(workers_section, snapshot_section, timed=False)


def main() -> int:
    obs = Observability()
    print(
        f"[parallel-exec] sweep: {FULL_SCENARIO['n_nodes']} nodes, "
        f"seeds {FULL_SCENARIO['seeds']}, workers {FULL_SCENARIO['worker_counts']} "
        f"(cpu_count={os.cpu_count()})"
    )
    workers_section = bench_workers(FULL_SCENARIO, obs=obs)
    for row in workers_section["runs"]:
        print(
            f"  workers={row['workers']}: {row['wall_s']:.2f}s "
            f"({row['speedup']:.2f}x)"
        )
    snapshot_section = bench_snapshot_reset(FULL_SCENARIO)
    print(
        f"  snapshot/reset: {snapshot_section['setup_speedup']:.1f}x faster "
        "than rebuild"
    )
    write_results(workers_section, snapshot_section, kind="full")
    emit("parallel_exec", format_table(workers_section, snapshot_section))
    emit_metrics_sidecar("BENCH_parallel", obs)
    try:
        _check_gates(workers_section, snapshot_section)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("OK: all parallel-exec gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
