"""Exporters: JSON-lines, Prometheus text format, and CSV.

Every exporter renders one *collected* view of a
:class:`~repro.obs.metrics.MetricsRegistry` (collectors run first, so
pull-wired counters are up to date) or of an
:class:`~repro.obs.events.EventLog`.  Output ordering is deterministic —
instruments sort by (name, labels), events keep log order — so exports of
two identical runs diff clean.

Formats:

- **JSON-lines** (``.jsonl``): one JSON object per metric sample, the
  format campaign tooling and the bench harness consume;
- **Prometheus text format** (``.prom`` / ``.txt``): ``# HELP``/``# TYPE``
  headers plus one sample line per series — histograms render as
  summaries (quantile series + ``_count``/``_sum``), ready for a
  node-exporter-style textfile collector;
- **CSV** (``.csv``): flat ``name,type,labels,field,value`` rows for
  spreadsheets.

:func:`write_metrics` infers the format from the path suffix; pass
``fmt`` explicitly to override.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, MetricsRegistry

PathLike = Union[str, Path]

_PROM_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")

#: Path-suffix -> canonical format name used by :func:`write_metrics`.
SUFFIX_FORMATS = {
    ".jsonl": "jsonl",
    ".json": "jsonl",
    ".prom": "prometheus",
    ".txt": "prometheus",
    ".csv": "csv",
}


def _prom_name(name: str) -> str:
    if _PROM_NAME_OK.match(name):
        return name
    fixed = _PROM_NAME_FIX.sub("_", name)
    if fixed[0].isdigit():
        fixed = "_" + fixed
    return fixed


def _prom_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_PROM_LABEL_FIX.sub("_", key)}="{_prom_label_value(value)}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(value: object) -> str:
    if value is None:
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """One compact JSON object per metric sample, one per line."""
    lines = [
        json.dumps(instrument.sample(), sort_keys=True)
        for instrument in registry.collect()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus/OpenMetrics text exposition.

    Histograms are exposed as Prometheus *summaries*: one ``quantile``
    series each for p50/p90/p99 plus ``_count`` and ``_sum`` (their
    reservoirs hold samples, not fixed buckets, so a summary is the honest
    rendering).
    """
    out: List[str] = []
    seen_header = set()
    for instrument in registry.collect():
        name = _prom_name(instrument.name)
        if name not in seen_header:
            seen_header.add(name)
            help_text = registry.help_for(instrument.name)
            if help_text:
                out.append(f"# HELP {name} {help_text}")
            prom_type = (
                "summary" if isinstance(instrument, Histogram) else instrument.kind
            )
            out.append(f"# TYPE {name} {prom_type}")
        labels = dict(instrument.labels)
        if isinstance(instrument, Histogram):
            for q in (0.5, 0.9, 0.99):
                quantile_label = 'quantile="%s"' % q
                out.append(
                    f"{name}{_prom_labels(labels, quantile_label)} "
                    f"{_prom_number(instrument.quantile(q))}"
                )
            out.append(f"{name}_count{_prom_labels(labels)} {instrument.count}")
            out.append(
                f"{name}_sum{_prom_labels(labels)} {_prom_number(instrument.sum)}"
            )
        else:
            out.append(
                f"{name}{_prom_labels(labels)} {_prom_number(instrument.value)}"
            )
    return "\n".join(out) + ("\n" if out else "")


def metrics_to_csv(registry: MetricsRegistry) -> str:
    """Flat CSV: ``name,type,labels,field,value`` (histograms multi-row)."""

    def escape(cell: object) -> str:
        text = str(cell)
        if any(ch in text for ch in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = ["name,type,labels,field,value"]
    for instrument in registry.collect():
        labels = ";".join(f"{k}={v}" for k, v in sorted(dict(instrument.labels).items()))
        sample = instrument.sample()
        if isinstance(instrument, Histogram):
            fields = ("count", "sum", "min", "max", "p50", "p90", "p99")
        else:
            fields = ("value",)
        for field in fields:
            rows.append(
                ",".join(
                    escape(cell)
                    for cell in (
                        instrument.name,
                        instrument.kind,
                        labels,
                        field,
                        sample[field],
                    )
                )
            )
    return "\n".join(rows) + "\n"


_METRIC_RENDERERS = {
    "jsonl": metrics_to_jsonl,
    "prometheus": metrics_to_prometheus,
    "csv": metrics_to_csv,
}


def resolve_format(path: PathLike, fmt: Optional[str] = None) -> str:
    """Canonical format name for ``path``/``fmt`` (raises on unknown)."""
    if fmt is not None:
        name = fmt.lower()
        if name == "prom":
            name = "prometheus"
        if name not in _METRIC_RENDERERS:
            raise ObservabilityError(
                f"unknown metrics format {fmt!r}; "
                f"pick one of {sorted(_METRIC_RENDERERS)}"
            )
        return name
    suffix = Path(path).suffix.lower()
    try:
        return SUFFIX_FORMATS[suffix]
    except KeyError:
        raise ObservabilityError(
            f"cannot infer metrics format from suffix {suffix!r} of {path}; "
            f"use one of {sorted(SUFFIX_FORMATS)} or pass fmt="
        ) from None


def write_metrics(
    registry: MetricsRegistry, path: PathLike, fmt: Optional[str] = None
) -> Path:
    """Render ``registry`` to ``path`` in ``fmt`` (inferred from suffix)."""
    target = Path(path)
    renderer = _METRIC_RENDERERS[resolve_format(target, fmt)]
    target.write_text(renderer(registry), encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def events_to_jsonl(log: EventLog) -> str:
    """One JSON object per retained event record, oldest first."""
    lines = [json.dumps(record, sort_keys=True) for record in log.to_dicts()]
    return "\n".join(lines) + ("\n" if lines else "")


def write_events(log: EventLog, path: PathLike) -> Path:
    """Write the retained event window to ``path`` as JSON-lines."""
    target = Path(path)
    target.write_text(events_to_jsonl(log), encoding="utf-8")
    return target
