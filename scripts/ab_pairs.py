#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload, as a table.

Three or four pairs cannot tell a regression from host drift; ten
alternating ones can. Each pair runs the benchmark's own command once in
each checkout, one run at a time::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0

The parent goes first in odd pairs (1, 3, ...) and second in even ones, so
a host that slows down or speeds up over the series hits both sides alike.
The last stdout line of a run is its metrics object; its ``DETAIL`` line
carries the ``sim_fingerprint``.

Usage::

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seconds 20] [--seed 7]

It prints, per end-to-end metric of ``BENCHMARK.json`` (read from
CHANGE_DIR, ``better`` included): the parent median, the parent's
inter-quartile range as a share of its median, the change median, Δ, and
the pairs the change won (ties) — the columns of the tables in
``docs/performance.md``. A metric equal in every run reads
``equal, all N runs``.

Stdlib only, and it imports nothing from ``src/`` or ``benchmarks/perf/``:
it must run the same against any two checkouts. ``run.py --against``
(ROADMAP item 5) may absorb it later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

RUN = Path("benchmarks") / "perf" / "run.py"


def end_to_end(benchmark_json: Path) -> List[Tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric, in declared order."""
    payload = json.loads(benchmark_json.read_text(encoding="utf-8"))
    return [(row["name"], row["better"]) for row in payload["end_to_end"]]


def parse_run(stdout: str) -> Dict[str, object]:
    """One run's metric values, correctness, failures and fingerprint."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    last = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("DETAIL "):
            detail = json.loads(line[len("DETAIL "):])
    return {
        "values": {
            name: cell["value"] for name, cell in last["metrics"].items()
        },
        "correct": bool(last["correct"]),
        "attempted": int(last["attempted"]),
        "failed": int(last["failed"]),
        "fingerprint": detail.get("sim_fingerprint", ""),
        "mismatches": int(detail.get("result_mismatches", 0)),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, check=True
    )
    return parse_run(done.stdout)


def _fmt(value: float) -> str:
    if abs(value) >= 10_000:
        return f"{value / 1000:.1f}k"
    return f"{value:#.4g}"


def _signed_percent(share: float) -> str:
    text = f"{share * 100:+.1f} %"
    return text.replace("-", "−")


def table(
    metrics: Sequence[Tuple[str, str]],
    workload: str,
    parent: Sequence[Dict[str, float]],
    change: Sequence[Dict[str, float]],
) -> List[str]:
    """Markdown rows, one per metric both sides report; pair ``i`` is
    ``(parent[i], change[i])``."""
    rows = []
    for name, better in metrics:
        if not all(name in run for run in list(parent) + list(change)):
            continue
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        p_med, c_med = statistics.median(before), statistics.median(after)
        runs = len(before) + len(after)
        if len(set(before + after)) == 1:
            rows.append(
                f"| `{workload}` | `{name}` | {_fmt(p_med)} | 0 | {_fmt(c_med)} "
                f"| equal, all {runs} runs | — |"
            )
            continue
        if len(before) >= 2:
            q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        else:
            q1 = q3 = before[0]
        spread = (q3 - q1) / p_med if p_med else 0.0
        sign = -1 if better == "lower" else 1
        won = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
        ties = sum(1 for b, a in zip(before, after) if a == b)
        delta = (c_med - p_med) / p_med if p_med else 0.0
        rows.append(
            f"| `{workload}` | `{name}` | {_fmt(p_med)} | {spread * 100:.1f} % "
            f"| {_fmt(c_med)} | {_signed_percent(delta)} "
            f"| {won}/{len(before)} ({ties}) |"
        )
    return rows


HEADER = (
    "| workload | metric | parent median | parent IQR | change median | Δ "
    "| pairs won (ties) |\n"
    "| -------- | ------ | ------------- | ---------- | ------------- | - "
    "| ---------------- |"
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    metrics = end_to_end(args.change / "BENCHMARK.json")
    sides = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            checkout = getattr(args, side)
            sides[side].append(
                run_once(checkout, args.workload, args.seed, args.seconds)
            )
        print(f"pair {pair}/{args.pairs} done", file=sys.stderr, flush=True)

    for side, runs in sides.items():
        print(
            f"{side}: correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
            f"failed {sum(r['failed'] for r in runs)} of "
            f"{sum(r['attempted'] for r in runs)} attempted, "
            f"result mismatches {sum(r['mismatches'] for r in runs)}, sim_fingerprint "
            + ", ".join(sorted({r["fingerprint"] for r in runs}))
        )
    print(HEADER)
    for row in table(
        metrics,
        args.workload,
        [r["values"] for r in sides["parent"]],
        [r["values"] for r in sides["change"]],
    ):
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
