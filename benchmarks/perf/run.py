"""One command for time-to-scored-topology, end to end and layer by layer.

Two modes share one code path:

* **one run** (what the driver calls)::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  runs one workload in this process and prints, as the last line of
  stdout, ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``.

* **the suite** (no ``--seconds``)::

      python3 benchmarks/perf/run.py [--seed S] [--repeats 3] [--workload NAME]
                                     [--trace] [--smoke] [--selfcheck]

  runs every (workload, repeat) as its own subprocess of the first mode
  (so ``peak_rss_mb`` is clean), prints every metric by name with unit and
  sample count, checks correctness and the repeat-to-repeat fingerprint,
  and writes ``benchmarks/perf/results/latest.json``.

See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # A directory holding only the benchmark: there is no program to measure.
    sys.exit(f"benchmarks/perf: no program under {ROOT / 'src' / 'repro'}")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import layers as L  # noqa: E402
from benchmarks.perf import metrics as M  # noqa: E402
from benchmarks.perf import workloads as W  # noqa: E402
from benchmarks.perf.trace import Tracer  # noqa: E402
from benchmarks.perf.workloads import RESULTS_DIR  # noqa: E402

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 20
SMOKE_SECONDS = 1
# A run stops adding units once it has used this multiple of --seconds, so
# a slow box shortens the sample instead of blowing the driver's time cap.
OVERRUN = 1.5
EXACT_METRICS = ("txs_per_pair", "precision", "recall")


# Seconds one probe slice takes on the quiet 2-core reference box.
PROBE_REF_S = 0.0150


def probe() -> float:
    """Seconds a fixed slice of interpreter work (heap, dict, small tuples
    — stdlib only, nothing from the program) takes right now; median of 5.

    The host's speed drifts by 10-25 % for tens of seconds at a time; the
    probe brackets every unit so its timings can be read at reference
    speed (see README, "Host-speed compensation").
    """
    import heapq

    slices = []
    for _ in range(5):
        start = perf_counter()
        heap: list = []
        table: Dict[int, int] = {}
        for i in range(20000):
            heapq.heappush(heap, ((i * 7919) % 10007, i, (i, i)))
            table[i & 1023] = table.get(i & 1023, 0) + i
            if i & 1:
                heapq.heappop(heap)
        slices.append(perf_counter() - start)
    return statistics.median(slices)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(q * n))."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    size = W.SIZES[name]["smoke" if smoke else "full"]
    planned = max(1, round(seconds / size["unit_s"]))
    deadline = perf_counter() + OVERRUN * seconds
    units: List[W.UnitResult] = []
    probes = [probe()]
    for index in range(planned):
        if units and perf_counter() > deadline:
            break
        gc.collect()  # the previous unit's world, outside any timed region
        units.append(W.UNITS[name](W.derive_seed(name, seed, index), size))
        probes.append(probe())
    # speed[i]: how fast the host ran around unit i, relative to reference.
    speed = [
        PROBE_REF_S / ((before + after) / 2)
        for before, after in zip(probes, probes[1:])
    ]

    def timings(scaled: bool) -> Dict[str, float]:
        """Medians over units, as measured or read at reference speed."""
        k = speed if scaled else [1.0] * len(units)

        def median(value) -> float:
            return statistics.median(value(u) * ki for u, ki in zip(units, k))

        latencies = [s * ki for u, ki in zip(units, k) for s in u.job_latencies_s]
        return {
            "setup_s": median(lambda u: u.setup_s),
            "time_to_topology_s": median(lambda u: u.topology_s),
            "ms_per_pair": median(lambda u: u.topology_s / u.pairs * 1e3),
            "events_per_s": 1.0 / median(lambda u: u.events_wall_s / u.events),
            "jobs_per_s": 1.0
            / median(lambda u: u.jobs_wall_s / len(u.job_latencies_s)),
            "job_latency_p50_s": statistics.median(latencies),
            "job_latency_p90_s": percentile(latencies, 0.9),
        }

    tp = sum(u.tp for u in units)
    fp = sum(u.fp for u in units)
    fn = sum(u.fn for u in units)
    attempted = sum(u.attempted for u in units)
    hard = sum(u.hard_failures for u in units)
    soft = sum(u.soft_failures for u in units)
    n_latencies = sum(len(u.job_latencies_s) for u in units)
    values = timings(scaled=True)
    p90 = values.pop("job_latency_p90_s")
    values.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        txs_per_pair=sum(u.txs for u in units) / sum(u.txs_pairs for u in units),
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
    )
    mismatches = sum(u.mismatches for u in units)
    return {
        # precision == 1.0 <=> no spurious edge; every job done and equal to
        # the library's result; nothing unanswered.
        "correct": fp == 0 and hard == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": hard,
        "values": values,
        "units": M.END_TO_END_UNITS,
        "detail": {
            "units_run": len(units),
            "units_planned": planned,
            "job_latency_p90_s": p90,
            "latency_samples": n_latencies,
            "latency_samples_beyond_p90": n_latencies - math.ceil(0.9 * n_latencies),
            "failed_share": (hard + soft) / attempted,
            "spurious": fp,
            "result_mismatches": mismatches,
            "sim_fingerprint": W.fingerprint([u.fingerprint for u in units]),
            "unit_fingerprints": [u.fingerprint for u in units],
            "host_speed": statistics.median(speed),
            "as_measured": timings(scaled=False),
        },
    }


def run_traced(name: str, seed: int, smoke: bool) -> dict:
    size = W.SIZES[name]["smoke" if smoke else "full"]
    unit_seed = W.derive_seed(name, seed, 0)
    probes = [probe()]
    start = perf_counter()
    plain = W.UNITS[name](unit_seed, size)
    plain_wall = perf_counter() - start
    probes.append(probe())

    gc.collect()
    tracer = Tracer(name)
    with tracer.span("bench.unit") as root:
        L.install(tracer)
        try:
            traced = W.UNITS[name](unit_seed, size, tracer)
        finally:
            tracer.uninstall()
    tracer.finish()
    probes.append(probe())
    # Both passes read at reference speed, like the end-to-end timings.
    overhead = (root.duration / (probes[1] + probes[2])) / (
        plain_wall / (probes[0] + probes[1])
    )
    micro = L.mempool_micro(seed, rounds=2 if smoke else 8)
    values = L.per_layer(tracer, root.tid, traced, micro, overhead)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS_DIR / f"trace_{name}.json"
    tracer.write_chrome(trace_path)

    def ranked(totals: Dict[str, Dict[str, float]]) -> List[list]:
        rows = [[layer, round(row["self_s"], 6)] for layer, row in totals.items()]
        return sorted(rows, key=lambda row: -row[1])

    own = tracer.totals(root.tid)
    everywhere = tracer.totals()
    others = {
        layer: {"self_s": row["self_s"] - own.get(layer, {"self_s": 0.0})["self_s"]}
        for layer, row in everywhere.items()
    }
    self_sum = sum(row["self_s"] for row in own.values())
    return {
        # Tracing observes; it must not change the simulated world, and a
        # thread's self times must add up to its root span.
        "correct": traced.fingerprint == plain.fingerprint
        and abs(self_sum - root.duration) <= 0.05 * root.duration
        and traced.mismatches == 0,
        "attempted": traced.attempted,
        "failed": traced.hard_failures,
        "values": values,
        "units": M.PER_LAYER_UNITS,
        "detail": {
            "traced_wall_s": root.duration,
            "untraced_wall_s": plain_wall,
            "self_time_sum_s": self_sum,
            "sim_fingerprint": traced.fingerprint,
            "untraced_fingerprint": plain.fingerprint,
            "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
            # [name, self seconds], largest first: the unit's own thread
            # (adds up to traced_wall_s), then the service's threads.
            "self_s": ranked(own),
            "self_s_other_threads": [row for row in ranked(others) if row[1] > 0],
        },
    }


def print_run(name: str, outcome: dict) -> None:
    """Human lines, a DETAIL line for the suite, then the driver's object."""
    values, units = outcome["values"], outcome["units"]
    for metric in units:
        print(f"{name:<18} {metric:<42} {values[metric]:>16.6f} {units[metric]}")
    print(f"{name:<18} sim_fingerprint {outcome['detail']['sim_fingerprint']}")
    print("DETAIL " + json.dumps(outcome["detail"], sort_keys=True))
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    metric: {"value": values[metric], "unit": units[metric]}
                    for metric in units
                },
            }
        )
    )


# ----------------------------------------------------------------------
# The suite: every (workload, repeat) in its own process
# ----------------------------------------------------------------------
def spawn(
    name: str,
    seed: int,
    seconds: int,
    trace: int,
    smoke: bool,
    env: Optional[Dict[str, str]] = None,
) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(
        argv,
        cwd=ROOT,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name} run exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    detail = next(
        json.loads(line[len("DETAIL "):])
        for line in reversed(lines)
        if line.startswith("DETAIL ")
    )
    result["detail"] = detail
    return result


def envelope(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "seed": seed,
    }


def run_set(
    names: Sequence[str], seed: int, repeats: int, seconds: int, smoke: bool
) -> Dict[str, dict]:
    """``repeats`` untraced runs of each workload; medians + agreement."""
    out: Dict[str, dict] = {}
    for name in names:
        runs = [spawn(name, seed, seconds, 0, smoke) for _ in range(repeats)]
        prints = {run["detail"]["sim_fingerprint"] for run in runs}
        out[name] = {
            "correct": all(run["correct"] for run in runs) and len(prints) == 1,
            "fingerprints_agree": len(prints) == 1,
            "sim_fingerprint": sorted(prints)[0],
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in runs),
            "failed_share": runs[0]["detail"]["failed_share"],
            "units_run": [run["detail"]["units_run"] for run in runs],
            "latency_samples": runs[0]["detail"]["latency_samples"],
            "latency_samples_beyond_p90": runs[0]["detail"][
                "latency_samples_beyond_p90"
            ],
            "job_latency_p90_s": statistics.median(
                run["detail"]["job_latency_p90_s"] for run in runs
            ),
            "host_speed": [run["detail"]["host_speed"] for run in runs],
            "as_measured": {
                metric: statistics.median(
                    run["detail"]["as_measured"][metric] for run in runs
                )
                for metric in runs[0]["detail"]["as_measured"]
            },
            "metrics": {
                metric: {
                    "value": statistics.median(
                        run["metrics"][metric]["value"] for run in runs
                    ),
                    "unit": unit,
                    "runs": [run["metrics"][metric]["value"] for run in runs],
                }
                for metric, unit in M.END_TO_END_UNITS.items()
            },
        }
    return out


def print_set(result: Dict[str, dict]) -> None:
    for name, row in result.items():
        print(
            f"\n== {name}: correct={row['correct']} attempted={row['attempted']} "
            f"failed={row['failed']} failed_share={row['failed_share']:.6f} "
            f"units/run={row['units_run']}"
        )
        print(f"   sim_fingerprint {row['sim_fingerprint']}")
        for metric, cell in row["metrics"].items():
            note = ""
            if metric in row["as_measured"]:
                note = f"  (as measured {row['as_measured'][metric]:.4f})"
            if metric == "job_latency_p50_s":
                note += f"  [{row['latency_samples']} samples]"
            print(
                f"   {metric:<22} {cell['value']:>14.4f} {cell['unit']:<6} "
                f"median of {len(cell['runs'])}{note}"
            )
        print(
            f"   {'job_latency_p90_s':<22} {row['job_latency_p90_s']:>14.4f} s      "
            f"not gated  [{row['latency_samples_beyond_p90']} samples beyond p90]"
        )
        print(
            f"   host speed vs reference probe: "
            + " ".join(f"{speed:.3f}" for speed in row["host_speed"])
        )


def print_layers(name: str, run: dict) -> None:
    detail = run["detail"]
    print(
        f"\n== {name} traced: correct={run['correct']} "
        f"wall {detail['traced_wall_s']:.3f}s vs untraced "
        f"{detail['untraced_wall_s']:.3f}s, self-time sum "
        f"{detail['self_time_sum_s']:.3f}s, {detail['spans']} spans -> "
        f"{detail['trace_file']}"
    )
    for metric, cell in run["metrics"].items():
        print(f"   {metric:<42} {cell['value']:>16.6f} {cell['unit']}")
    print("   self time by span / hot call, share of traced wall:")
    for layer, seconds in detail["self_s"][:10]:
        print(
            f"     {layer:<40} {seconds:>10.4f} s "
            f"{seconds / detail['traced_wall_s']:>6.1%}"
        )
    if detail["self_s_other_threads"]:
        print("   on the service's threads (overlapping the wall above):")
        for layer, seconds in detail["self_s_other_threads"][:8]:
            print(f"     {layer:<40} {seconds:>10.4f} s")


def _scope(args: argparse.Namespace) -> tuple:
    """(workload names, --seconds for each run) the suite modes cover."""
    names = [args.workload] if args.workload else [name for name, _ in M.WORKLOADS]
    return names, SMOKE_SECONDS if args.smoke else RUN_SECONDS


def suite(args: argparse.Namespace) -> int:
    names, seconds = _scope(args)
    payload = {"envelope": envelope(args.seed), "smoke": args.smoke}
    result = run_set(names, args.seed, args.repeats, seconds, args.smoke)
    print_set(result)
    payload["end_to_end"] = result
    ok = all(row["correct"] for row in result.values())
    if args.trace:
        payload["per_layer"] = {}
        for name in names:
            run = spawn(name, args.seed, seconds, 1, args.smoke)
            print_layers(name, run)
            payload["per_layer"][name] = run
            ok = ok and run["correct"]
    target = RESULTS_DIR / ("latest_smoke.json" if args.smoke else "latest.json")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\n{'OK' if ok else 'FAIL'}: wrote {target.relative_to(ROOT)}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Self-checks
# ----------------------------------------------------------------------
def hashseed_check(seed: int) -> List[str]:
    """The smoke ``mainnet_subset`` under two ``PYTHONHASHSEED`` values must
    simulate the same world (inputs come from sorted structures only)."""
    return [
        spawn(
            "mainnet_subset", seed, SMOKE_SECONDS, 0, True,
            env={"PYTHONHASHSEED": value},
        )["detail"]["sim_fingerprint"]
        for value in ("1", "2")
    ]


def selfcheck(args: argparse.Namespace) -> int:
    """Two full sets back to back: do they agree within the bounds?"""
    names, seconds = _scope(args)
    lines = ["envelope " + json.dumps(envelope(args.seed), sort_keys=True)]
    first = run_set(names, args.seed, args.repeats, seconds, args.smoke)
    second = run_set(names, args.seed, args.repeats, seconds, args.smoke)
    ok = True
    for name in names:
        a, b = first[name], second[name]
        same_print = a["sim_fingerprint"] == b["sim_fingerprint"]
        same_failed = a["failed_share"] == b["failed_share"]
        ok = ok and a["correct"] and b["correct"] and same_print and same_failed
        lines.append(
            f"{name}: correct {a['correct']}/{b['correct']} sim_fingerprint "
            f"{'identical' if same_print else 'DIFFERS'} "
            f"({a['sim_fingerprint'][:16]}) failed_share "
            f"{a['failed_share']:.6f}/{b['failed_share']:.6f}"
        )
        for metric, _unit, better, bound in M.END_TO_END:
            x = a["metrics"][metric]["value"]
            y = b["metrics"][metric]["value"]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            if metric in EXACT_METRICS:
                verdict = "ok" if x == y else "FAIL (must be identical)"
            else:
                verdict = "ok" if abs(worse) <= bound else "FAIL"
            ok = ok and verdict == "ok"
            lines.append(
                f"  {metric:<22} {x:>14.4f} {y:>14.4f} {_unit:<6} "
                f"diff {worse:+8.2%} bound {bound:.0%} {verdict}"
            )
    prints = hashseed_check(args.seed)
    agree = len(set(prints)) == 1
    ok = ok and agree
    lines.append(
        f"hashseed: smoke mainnet_subset under PYTHONHASHSEED=1/2 -> "
        f"{'identical' if agree else 'DIFFERS'} ({prints[0][:16]} / {prints[1][:16]})"
    )
    lines.append("PASS" if ok else "FAIL")
    text = "\n".join(lines)
    print(text)
    if not args.smoke:  # the committed record is the full-size one
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "selfcheck.txt").write_text(text + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in M.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float,
        help="measure one workload in this process for about this long",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer (traced) pass instead of / in addition to end-to-end",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--print-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.print_manifest:
        print(json.dumps(M.manifest(COMMAND, PATHS, RUN_SECONDS), indent=2))
        return 0
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        if args.trace:
            outcome = run_traced(args.workload, args.seed, args.smoke)
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds, args.smoke)
        print_run(args.workload, outcome)
        return 0
    if args.selfcheck:
        return selfcheck(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
