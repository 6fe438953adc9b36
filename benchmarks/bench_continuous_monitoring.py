"""Continuous monitoring under heavy traffic: the PR's three load gates.

Three phases, one churning world:

1. **Engine cost** — sustain a batched workload at increasing offered
   rates over a fixed simulated window and record executed engine events
   and wall time per rate. Gates: event count is O(ticks) — raising the
   offered rate 50x grows events by <20% — and the wall-clock cost of
   >=50k tx/s stays within ``MAX_WALL_OVERHEAD`` of the low-rate run
   (the <15% throughput-cost headline).
2. **Incremental tracking** — a sparse network churns between rounds
   (random link rewires plus a traffic storm, drained before probing);
   delta rounds re-probe only stale/flagged pairs. Gates: the probe-cost
   ratio versus repeated full re-snapshots is >= ``MIN_PROBE_RATIO`` and
   the tracked view's recall against ground truth matches a full
   re-snapshot taken at the end (equal recall, fraction of the cost).
3. **Non-interference under surge** — a five-node world with a live fee
   market under surge pricing measures one link while the
   ``NonInterferenceMonitor`` watches. Gates: the link is detected, V1/V2
   verify, and the surge-band check attests every probe price stayed
   admissible.

Standalone (full load, writes benchmarks/results/BENCH_monitor.json)::

    PYTHONPATH=src python benchmarks/bench_continuous_monitoring.py

Pytest smoke (small scenario, same JSON artifact)::

    PYTHONPATH=src python -m pytest benchmarks/bench_continuous_monitoring.py \
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
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import RESULTS_DIR, emit, emit_metrics_sidecar, run_once
from repro.core.config import MeasurementConfig
from repro.core.gas_estimator import estimate_y
from repro.core.monitor import TopologyMonitor, rewire_random_links
from repro.core.noninterference import NonInterferenceMonitor, check_conditions
from repro.core.primitive import measure_one_link
from repro.eth.chain import Chain
from repro.eth.fee_market import FeeMarket, FeeMarketConfig
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import SHAPES, BatchedWorkload, prefill_mempools
from repro.obs import Observability
from repro.obs.wiring import instrument_workload

JSON_PATH = RESULTS_DIR / "BENCH_monitor.json"

# Gates (see docs/workloads.md).
MAX_EVENT_GROWTH = 1.2    # events at the top rate vs the bottom rate
MAX_WALL_OVERHEAD = 0.15  # wall cost of >=50k tx/s vs the low-rate run
WALL_NOISE_FLOOR_S = 0.1  # below this baseline, wall ratios are noise
MIN_PROBE_RATIO = 5.0     # full re-snapshot pairs / delta-probed pairs
MAX_RECALL_GAP = 0.05     # delta recall vs a full re-snapshot's recall

SMOKE_SCENARIO = {
    "name": "smoke",
    "engine_nodes": 16,
    "engine_rates": [1000.0, 50000.0],
    "engine_seconds": 30.0,
    "delta_nodes": 64,
    "delta_dials": 4,
    "delta_targets": 24,
    "delta_rounds": 3,
    "delta_churn": 0.02,
    "load_rate": 20000.0,
    "load_window": 5.0,
}
FULL_SCENARIO = {
    "name": "full",
    "engine_nodes": 16,
    "engine_rates": [1000.0, 10000.0, 50000.0, 200000.0],
    "engine_seconds": 120.0,
    "delta_nodes": 128,
    "delta_dials": 4,
    # 24 targets is the largest universe the default 50-slot mempool
    # budget schedules (K=2 needs 2*(N-2) slots, Section 5.3.2).
    "delta_targets": 24,
    "delta_rounds": 5,
    "delta_churn": 0.02,
    "load_rate": 50000.0,
    "load_window": 10.0,
}


# ----------------------------------------------------------------------
# Phase 1: O(ticks) engine cost at increasing offered rates
# ----------------------------------------------------------------------
def _engine_point(rate: float, scenario: dict) -> dict:
    network = quick_network(scenario["engine_nodes"], seed=23)
    workload = BatchedWorkload(network, SHAPES["steady"](rate_per_second=rate))
    start_events = network.sim.executed_events
    wall_start = perf_counter()
    workload.start()
    network.sim.run(until=network.sim.now + scenario["engine_seconds"])
    workload.stop()
    wall = perf_counter() - wall_start
    return {
        "offered_tx_per_s": rate,
        "offered": workload.stats["offered"],
        "admitted": workload.stats["admitted"],
        "engine_events": network.sim.executed_events - start_events,
        "wall_s": round(wall, 4),
    }


def bench_engine(scenario: dict) -> dict:
    _engine_point(scenario["engine_rates"][0], scenario)  # warmup, untimed
    points = []
    for rate in scenario["engine_rates"]:
        # Best-of-3 wall time: single-shot timings on shared CI runners
        # are +-10% noise, far coarser than the 15% gate.
        repeats = [_engine_point(rate, scenario) for _ in range(3)]
        best = min(repeats, key=lambda p: p["wall_s"])
        points.append(best)
    low, high = points[0], points[-1]
    return {
        "sim_seconds": scenario["engine_seconds"],
        "points": points,
        "event_growth": round(
            high["engine_events"] / max(1, low["engine_events"]), 3
        ),
        "wall_overhead": round(
            high["wall_s"] / max(low["wall_s"], 1e-9) - 1.0, 3
        ),
        "wall_baseline_s": low["wall_s"],
    }


# ----------------------------------------------------------------------
# Phase 2: incremental tracking vs full re-snapshots on a churning net
# ----------------------------------------------------------------------
def bench_delta(scenario: dict, obs: Observability) -> dict:
    network = quick_network(
        scenario["delta_nodes"],
        seed=41,
        outbound_dials=scenario["delta_dials"],
    )
    network.install_fee_market()
    prefill_mempools(network)
    from repro.core.campaign import TopoShot

    shot = TopoShot.attach(network, obs=obs)
    # Two repeats per probe: the recall yardstick is the full re-snapshot,
    # so the base view should start from the same (high) recall.
    shot.config = shot.config.with_repeats(2)
    targets = list(network.measurable_node_ids())[: scenario["delta_targets"]]

    def truth() -> set:
        return network.ground_truth_edges(among=targets)

    workload = BatchedWorkload(
        network, SHAPES["nft-mint-storm"](rate_per_second=scenario["load_rate"])
    )
    instrument_workload(obs, workload)
    monitor = TopologyMonitor(shot)
    base = monitor.take_snapshot(targets=targets, preprocess=False)
    base_truth = truth()
    base_recall = len(base.edges & base_truth) / max(1, len(base_truth))

    rounds = []
    for _ in range(scenario["delta_rounds"]):
        workload.start()
        network.sim.run(until=network.sim.now + scenario["load_window"])
        workload.stop()
        shot.restore_ambient()  # probes run in the restored inflow lull
        removed, added = rewire_random_links(network, scenario["delta_churn"])
        for e in removed | added:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        report = monitor.delta_round()
        rounds.append(
            {
                "rewired": len(removed) + len(added),
                "added": len(report.added),
                "removed": len(report.removed),
                "stable": len(report.stable),
            }
        )

    final_truth = truth()
    tracked = monitor.current_edges
    delta_recall = len(tracked & final_truth) / max(1, len(final_truth))
    spurious = len(tracked - final_truth)
    # The equal-recall yardstick: one full re-snapshot of the same world.
    full = shot.measure_network(targets=targets, preprocess=False)
    full_recall = len(full.edges & final_truth) / max(1, len(final_truth))
    savings = monitor.probe_savings
    ratio = savings["universe_pairs"] / max(1, savings["probed_pairs"])
    return {
        "nodes": scenario["delta_nodes"],
        "targets": len(targets),
        "rounds": rounds,
        "workload_offered": workload.stats["offered"],
        "base_recall": round(base_recall, 3),
        "delta_recall": round(delta_recall, 3),
        "full_recall": round(full_recall, 3),
        "spurious_edges": spurious,
        "probed_pairs": savings["probed_pairs"],
        "universe_pairs": savings["universe_pairs"],
        "probe_ratio": round(ratio, 2),
    }


# ----------------------------------------------------------------------
# Phase 3: V1/V2 + surge band under surge pricing
# ----------------------------------------------------------------------
def bench_surge() -> dict:
    network = Network(seed=77)
    network.chain = Chain(gas_limit=8 * INTRINSIC_GAS)
    config = NodeConfig(policy=GETH.scaled(256))
    ids = [f"n{i}" for i in range(5)]
    for node_id in ids:
        network.create_node(node_id, config)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            network.connect(a, b)
    network.install_fee_market(FeeMarket(FeeMarketConfig(update_interval=0.5)))
    prefill_mempools(network, median_price=gwei(10.0), sigma=0.2)
    supernode = Supernode.join(network)
    Miner(
        network.node("n0"),
        network.chain,
        block_interval=6.0,
        min_gas_price=gwei(2.0),
        poisson=False,
    ).start(initial_delay=6.0)

    config_m = MeasurementConfig.for_policy(GETH.scaled(256))
    y0 = estimate_y(supernode, config_m)
    config_m = config_m.with_gas_price(y0)
    monitor = NonInterferenceMonitor(
        network.chain,
        y0=y0,
        market=network.fee_market,
        replace_bump=config_m.replace_bump,
    )
    monitor.start(network.sim.now)
    record = measure_one_link(network, supernode, "n1", "n2", config_m)
    monitor.stop(network.sim.now)
    network.run(60.0 - network.sim.now)

    conditions = check_conditions(
        network.chain, t1=monitor._t1, t2=monitor._t2, y0=int(y0 * 0.9),
        expiry=30.0,
    )
    band = monitor.verify_surge()
    return {
        "y0_gwei": round(y0 / 1e9, 3),
        "surge": network.fee_market.surge,
        "detected": record.detected,
        "v1_v2_verified": conditions.non_interfering,
        "surge_band_admissible": band.admissible_throughout,
        "surge_band_samples": band.samples_checked,
    }


# ----------------------------------------------------------------------
# Reporting / gates
# ----------------------------------------------------------------------
def write_results(sections: dict, kind: str) -> dict:
    payload = {
        "benchmark": "continuous_monitoring",
        "kind": kind,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "gates": {
            "max_event_growth": MAX_EVENT_GROWTH,
            "max_wall_overhead": MAX_WALL_OVERHEAD,
            "wall_noise_floor_s": WALL_NOISE_FLOOR_S,
            "min_probe_ratio": MIN_PROBE_RATIO,
            "max_recall_gap": MAX_RECALL_GAP,
        },
        **sections,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_report(sections: dict) -> str:
    engine = sections["engine"]
    delta = sections["delta"]
    surge = sections["surge"]
    top = engine["points"][-1]
    lines = [
        f"engine  : {top['offered_tx_per_s']:.0f} tx/s offered over "
        f"{engine['sim_seconds']:.0f}s sim -> {top['engine_events']} events "
        f"({engine['event_growth']}x the low-rate run, "
        f"wall overhead {engine['wall_overhead']:+.0%})",
        f"delta   : {delta['probed_pairs']} pairs probed vs "
        f"{delta['universe_pairs']} for full re-snapshots "
        f"({delta['probe_ratio']}x cheaper) over {len(delta['rounds'])} "
        f"rounds on {delta['nodes']} nodes",
        f"recall  : delta {delta['delta_recall']:.3f} vs full re-snapshot "
        f"{delta['full_recall']:.3f} (spurious {delta['spurious_edges']}) "
        f"under {delta['workload_offered']} offered txs of churn traffic",
        f"surge   : detected={surge['detected']} "
        f"V1/V2={surge['v1_v2_verified']} "
        f"band={surge['surge_band_admissible']} "
        f"(surge x{surge['surge']:.2f}, Y {surge['y0_gwei']} gwei)",
    ]
    return "\n".join(lines)


def check_gates(sections: dict) -> None:
    engine = sections["engine"]
    assert engine["event_growth"] <= MAX_EVENT_GROWTH, (
        f"engine events grew {engine['event_growth']}x with offered rate: "
        "the workload is not O(ticks)"
    )
    if engine["wall_baseline_s"] >= WALL_NOISE_FLOOR_S:
        assert engine["wall_overhead"] <= MAX_WALL_OVERHEAD, (
            f"sustaining the top rate cost {engine['wall_overhead']:+.0%} "
            f"wall clock vs the low-rate run (gate {MAX_WALL_OVERHEAD:.0%})"
        )
    delta = sections["delta"]
    assert delta["probe_ratio"] >= MIN_PROBE_RATIO, (
        f"delta rounds probed {delta['probed_pairs']} of "
        f"{delta['universe_pairs']} pairs — only "
        f"{delta['probe_ratio']}x cheaper than full re-snapshots "
        f"(gate {MIN_PROBE_RATIO}x)"
    )
    assert delta["delta_recall"] >= delta["full_recall"] - MAX_RECALL_GAP, (
        f"delta recall {delta['delta_recall']} trails the full re-snapshot "
        f"{delta['full_recall']} by more than {MAX_RECALL_GAP}"
    )
    surge = sections["surge"]
    assert surge["detected"], "surge world: the measured link went undetected"
    assert surge["v1_v2_verified"], "surge world: V1/V2 failed to verify"
    assert surge["surge_band_admissible"], (
        "surge world: a probe price fell below the admission floor"
    )
    assert surge["surge_band_samples"] > 0


def run_scenario(scenario: dict) -> tuple:
    obs = Observability()
    sections = {
        "engine": bench_engine(scenario),
        "delta": bench_delta(scenario, obs),
        "surge": bench_surge(),
    }
    return sections, obs


@pytest.mark.benchmark(group="monitor")
def test_monitor_smoke(benchmark):
    """CI smoke: O(ticks) engine cost, >=5x cheaper churn tracking at
    full-re-snapshot recall, and V1/V2 + surge-band verdicts under surge."""
    sections, obs = run_once(benchmark, lambda: run_scenario(SMOKE_SCENARIO))
    write_results(sections, kind="smoke")
    emit_metrics_sidecar("BENCH_monitor", obs)
    emit("monitor_smoke", format_report(sections))
    check_gates(sections)


def main() -> int:
    scenario = FULL_SCENARIO
    print(
        f"[monitor] continuous-monitoring bench: engine to "
        f"{max(scenario['engine_rates']):.0f} tx/s, "
        f"{scenario['delta_nodes']}-node churning world, surge verification"
    )
    sections, obs = run_scenario(scenario)
    write_results(sections, kind="full")
    emit_metrics_sidecar("BENCH_monitor", obs)
    emit("monitor", format_report(sections))
    try:
        check_gates(sections)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("OK: all continuous-monitoring gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
