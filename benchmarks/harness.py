"""Helpers shared by the benchmark files (result emission, single runs,
parallel sweep driving)."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, List, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_metrics_sidecar(name: str, obs) -> Path:
    """Persist an observability snapshot next to a BENCH_*.json artifact.

    ``obs`` is a :class:`repro.obs.Observability`; the sidecar lands at
    ``benchmarks/results/<name>.metrics.json`` so a bench run ships its
    metric readings alongside its timing numbers.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.metrics.json"
    path.write_text(
        json.dumps(obs.snapshot(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def default_bench_workers() -> int:
    """Worker count for parallel sweeps: REPRO_BENCH_WORKERS, else 1.

    Benches default to serial so their timings stay comparable across
    machines; CI and impatient humans opt in via the environment.
    """
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))
    except ValueError:
        return 1


def parallel_map(
    fn: Callable, items: Sequence, workers: Optional[int] = None
) -> List:
    """Map ``fn`` over sweep points, optionally on a forked process pool
    (:class:`repro.core.parallel_exec.WorkerPool`: its workers die with
    the sweep that forked them).

    Results come back in input order regardless of completion order, so a
    sweep's output is identical for any worker count — each point must be
    an independent build-and-measure (every repro sweep point builds its
    own seeded network, so this holds by construction). ``fn`` must be a
    module-level function (picklable). ``workers=None`` consults
    :func:`default_bench_workers`; ``workers<=1`` runs serially in-process.
    """
    if workers is None:
        workers = default_bench_workers()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from repro.core.parallel_exec import WorkerPool

    with WorkerPool(min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
