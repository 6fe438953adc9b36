"""Robustness: recall under an unreliable measurement plane.

The wire-fault benchmark (bench_robustness_faults) degrades the network
*under measurement*; this one degrades the measurer's own view of it —
the JSON-RPC plane the paper's campaigns ran over (throttled public
endpoints, timed-out calls, flapping connections, Section 6). An
:class:`~repro.sim.faults.RpcFaultPlan` makes every call attempt time
out or error with probability ``rate``; the sweep then measures the
same seeded network twice per point:

* **hardened**: the :class:`~repro.eth.rpc.ResilientRpcClient` defaults —
  per-method deadlines, retry with deterministic jitter, hedged reads,
  circuit breaking, and degraded-mode inference (an unanswerable cross-check downgrades the probe instead of
  reading as a negative);
* **raw**: :data:`~repro.eth.rpc.RAW_POLICY` — one attempt, no
  retries, and every plane failure silently read as "tx not in pool",
  which is what a naive client does and exactly how false negatives (and
  dropped targets) creep into a live campaign.

Gates:

* the fault-free point is bit-identical between the two clients (the
  resilient path is pure passthrough without a plan installed);
* at a 20% per-call fault rate the hardened recall stays within 5% of
  the fault-free baseline while the raw client is measurably worse;
* golden determinism: the same (seed, rate) replays to the identical
  edge set.

Run a single fast smoke point (CI) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_robustness_rpc.py \
        -k smoke --benchmark-disable -q
"""

import json
import os
import platform

import pytest

from benchmarks.harness import RESULTS_DIR, emit, emit_metrics_sidecar, run_once
from repro.core.campaign import TopoShot
from repro.eth.rpc import RAW_POLICY
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.obs import Observability
from repro.sim.faults import FaultPlan, RpcFaultPlan

JSON_PATH = RESULTS_DIR / "BENCH_rpc.json"

N_NODES = 24
SEED = 13
RATE_SWEEP = (0.0, 0.1, 0.2, 0.3)
GATE_RATE = 0.2
MAX_RECALL_LOSS_AT_GATE = 0.05


def run_point(rate, raw=False, obs=None):
    """One build-install-measure run; returns the scored measurement and
    the resilient client's counters (empty when no call went through)."""
    network = quick_network(n_nodes=N_NODES, seed=SEED)
    prefill_mempools(network)
    if rate:
        network.install_faults(FaultPlan(rpc=RpcFaultPlan.uniform(rate)))
    if raw:
        network.rpc_client(RAW_POLICY)
    shot = TopoShot.attach(network, obs=obs)
    measurement = shot.measure_network()
    client = network._rpc_client
    counters = client.counters() if client is not None else {}
    return measurement, counters


def sweep(obs=None):
    rows = []
    for rate in RATE_SWEEP:
        raw, raw_counters = run_point(rate, raw=True)
        hardened, hard_counters = run_point(rate, obs=obs)
        rows.append((rate, raw, hardened, raw_counters, hard_counters))
    return rows


def write_results(rows, kind, determinism_ok=None):
    baseline = next(h for rate, _, h, _, _ in rows if rate == 0.0)
    payload = {
        "benchmark": "robustness_rpc",
        "kind": kind,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "n_nodes": N_NODES,
        "seed": SEED,
        "gate_rate": GATE_RATE,
        "max_recall_loss_at_gate": MAX_RECALL_LOSS_AT_GATE,
        "baseline_recall": round(baseline.score.recall, 4),
        "determinism_ok": determinism_ok,
        "points": [
            {
                "fault_rate": rate,
                "raw": {
                    "precision": round(raw.score.precision, 4),
                    "recall": round(raw.score.recall, 4),
                    "targets": len(raw.node_ids),
                    "counters": raw_counters,
                },
                "hardened": {
                    "precision": round(hardened.score.precision, 4),
                    "recall": round(hardened.score.recall, 4),
                    "targets": len(hardened.node_ids),
                    "degraded_probes": sum(
                        1 for f in hardened.failures if f.kind == "rpc_degraded"
                    ),
                    "counters": hard_counters,
                },
            }
            for rate, raw, hardened, raw_counters, hard_counters in rows
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_table(rows):
    lines = [
        f"{'fault rate':>10} {'raw recall':>11} {'raw targets':>12} "
        f"{'hard recall':>12} {'hard retries':>13} {'hard hedges':>12}"
    ]
    for rate, raw, hardened, _, hard_counters in rows:
        lines.append(
            f"{rate:>10.2f} {raw.score.recall:>11.3f} "
            f"{len(raw.node_ids):>12} {hardened.score.recall:>12.3f} "
            f"{hard_counters.get('retries', 0):>13} "
            f"{hard_counters.get('hedges', 0):>12}"
        )
    lines.append("")
    lines.append(
        "raw = single attempt, no retries, failures read as negatives "
        "(and unresponsive-looking targets dropped); hardened = deadlines "
        "+ jittered retries + hedged reads + degraded-mode "
        "inference — plane failures become suspect labels, never false "
        "negatives"
    )
    return "\n".join(lines)


@pytest.mark.benchmark(group="robustness")
def test_rpc_recall_sweep(benchmark):
    obs = Observability()

    def run():
        rows = sweep(obs=obs)
        # Golden determinism: replay the gate point, must be identical.
        replay, _ = run_point(GATE_RATE)
        reference = next(h for rate, _, h, _, _ in rows if rate == GATE_RATE)
        deterministic = (
            replay.edges == reference.edges
            and str(replay.score) == str(reference.score)
        )
        return rows, deterministic

    rows, deterministic = run_once(benchmark, run)
    write_results(rows, kind="full", determinism_ok=deterministic)
    emit("robustness_rpc", format_table(rows))
    emit_metrics_sidecar("BENCH_rpc", obs)

    assert deterministic, "same (seed, rate) must replay identically"
    by_rate = {rate: (raw, hardened) for rate, raw, hardened, _, _ in rows}
    clean_raw, clean_hardened = by_rate[0.0]
    # No plan installed: the resilient client is pure passthrough, so the
    # fault-free point is bit-identical under either policy.
    assert clean_raw.edges == clean_hardened.edges
    baseline_recall = clean_hardened.score.recall
    # The 5%-of-baseline recall gate at the 20% fault rate...
    _, hardened_gate = by_rate[GATE_RATE]
    assert hardened_gate.score.recall >= baseline_recall * (
        1.0 - MAX_RECALL_LOSS_AT_GATE
    )
    # ...where the raw client is measurably worse than the hardened one.
    raw_gate, _ = by_rate[GATE_RATE]
    assert raw_gate.score.recall < hardened_gate.score.recall
    # Degradation is monotone in spirit: the hardened client never does
    # worse than the raw one at any faulty point.
    for rate, raw, hardened, _, _ in rows:
        if rate > 0:
            assert hardened.score.recall >= raw.score.recall, rate
    # Plane faults cost recall at most, never precision.
    for rate, raw, hardened, _, _ in rows:
        assert hardened.score.precision == 1.0, rate


@pytest.mark.benchmark(group="robustness")
def test_rpc_smoke(benchmark):
    """CI smoke: one gate-rate point, hardened vs raw, recall bar."""
    obs = Observability()

    def run():
        baseline, _ = run_point(0.0)
        raw, _ = run_point(GATE_RATE, raw=True)
        hardened, counters = run_point(GATE_RATE, obs=obs)
        return baseline, raw, hardened, counters

    baseline, raw, hardened, counters = run_once(benchmark, run)
    rows = [
        (0.0, baseline, baseline, {}, {}),
        (GATE_RATE, raw, hardened, {}, counters),
    ]
    write_results(rows, kind="smoke", determinism_ok=None)
    emit(
        "rpc_smoke",
        f"baseline: {baseline.score}\n"
        f"raw@{GATE_RATE:.0%}: {raw.score}\n"
        f"hardened@{GATE_RATE:.0%}: {hardened.score}\n"
        f"client counters: {counters}",
    )
    emit_metrics_sidecar("BENCH_rpc", obs)
    assert hardened.score.recall >= baseline.score.recall * (
        1.0 - MAX_RECALL_LOSS_AT_GATE
    )
    assert raw.score.recall < hardened.score.recall
    assert hardened.score.precision == 1.0
