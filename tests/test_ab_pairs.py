"""``scripts/ab_pairs.py``: canned run output in, the pairs table out.

No subprocess: the table builder and the run parser are fed result lines
shaped like the last lines ``benchmarks/perf/run.py --seconds`` prints.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "scripts" / "ab_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(values, fingerprint="f00d", mismatches=0, failed=0):
    detail = {"sim_fingerprint": fingerprint, "result_mismatches": mismatches}
    last = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "s"} for name, value in values.items()
        },
    }
    return "\n".join(
        [
            "service_jobs       setup_s        0.100000 s",
            "DETAIL " + json.dumps(detail),
            json.dumps(last),
        ]
    ) + "\n"


def test_parse_run_reads_the_last_line_and_the_detail(ab):
    run = ab.parse_run(_stdout({"setup_s": 0.1}, mismatches=2, failed=1))
    assert run == {
        "values": {"setup_s": 0.1},
        "correct": True,
        "attempted": 10,
        "failed": 1,
        "fingerprint": "f00d",
        "mismatches": 2,
    }


def test_the_metric_list_is_benchmark_json_in_order(ab):
    metrics = ab.end_to_end(ROOT / "BENCHMARK.json")
    assert metrics[:2] == [("setup_s", "lower"), ("time_to_topology_s", "lower")]
    assert ("jobs_per_s", "higher") in metrics


def test_table_rows_carry_medians_spread_delta_and_pairs_won(ab):
    times = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0)]
    rates = [(10.0, 12.0), (10.0, 9.0), (10.0, 11.0), (10.0, 12.0)]
    parent, change = [], []
    for (tp, tc), (jp, jc) in zip(times, rates):
        parent.append(
            ab.parse_run(_stdout({"time_to_topology_s": tp, "jobs_per_s": jp,
                                  "precision": 1.0}))["values"]
        )
        change.append(
            ab.parse_run(_stdout({"time_to_topology_s": tc, "jobs_per_s": jc,
                                  "precision": 1.0}))["values"]
        )
    metrics = [
        ("setup_s", "lower"),  # reported by neither side: no row
        ("time_to_topology_s", "lower"),
        ("precision", "higher"),
        ("jobs_per_s", "higher"),
    ]
    rows = ab.table(metrics, "service_jobs", parent, change)
    assert rows == [
        # parent 0.9 1.0 1.1 1.2: median 1.05, inclusive quartiles
        # 0.975 and 1.125 (IQR 14.3 %); change median 0.95; lower won
        # twice, one tie.
        "| `service_jobs` | `time_to_topology_s` | 1.050 | 14.3 % | 0.9500 "
        "| −9.5 % | 2/4 (1) |",
        "| `service_jobs` | `precision` | 1.000 | 0 | 1.000 "
        "| equal, all 8 runs | — |",
        # Higher is better: 12, 11 and 12 beat 10, 9 does not.
        "| `service_jobs` | `jobs_per_s` | 10.00 | 0.0 % | 11.50 "
        "| +15.0 % | 3/4 (0) |",
    ]


def test_large_values_print_in_thousands(ab):
    parent = [{"events_per_s": 82_600.0}, {"events_per_s": 82_600.0}]
    change = [{"events_per_s": 83_200.0}, {"events_per_s": 83_300.0}]
    (row,) = ab.table([("events_per_s", "higher")], "w", parent, change)
    assert row.startswith("| `w` | `events_per_s` | 82.6k | 0.0 % | 83.2k | +0.8 %")
