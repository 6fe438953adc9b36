"""Persistence for measurement results and graphs.

A measurement tool is only useful if its output survives the run: this
module serializes :class:`~repro.core.results.NetworkMeasurement` to JSON
(round-trippable) and exports measured graphs in formats downstream
tooling understands (edge list, GraphML, adjacency JSON).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.core.results import (
    Edge,
    EdgeEvidence,
    MeasurementFailure,
    NetworkMeasurement,
    ValidationScore,
    edge,
)
from repro.errors import CheckpointError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

PathLike = Union[str, Path]

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """The file could not be parsed as a measurement."""


# ----------------------------------------------------------------------
# Crash-safe file writing (checkpoints, journals)
# ----------------------------------------------------------------------
def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` atomically *and durably*.

    The durability discipline matters for checkpoint/journal files that
    must survive a power cut, not just a process kill:

    1. write to a ``<path>.tmp`` sibling;
    2. ``fsync`` the tmp file — the bytes are on disk *before* the rename
       makes them visible (rename-before-fsync can surface a zero-length
       file after a crash on journaling filesystems);
    3. ``os.replace`` onto the target (atomic on POSIX);
    4. ``fsync`` the containing directory so the rename itself is durable.

    A crash at any point leaves either the old complete file or the new
    complete file, never a torn mixture — plus possibly an orphaned
    ``.tmp``, which :func:`cleanup_orphan_tmp` reaps on the next resume.
    """
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    _fsync_dir(target.parent)
    return target


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry; best-effort on platforms without dir fds."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def cleanup_orphan_tmp(path: PathLike) -> bool:
    """Remove a ``<path>.tmp`` left behind by a crash mid-atomic-write.

    Safe to call unconditionally before reading ``path``: the tmp sibling
    is only ever a partial or superseded write (the rename in
    :func:`atomic_write_text` is the commit point), so deleting it can
    never lose committed data. Returns True if an orphan was removed.
    """
    tmp = Path(path).with_suffix(Path(path).suffix + ".tmp")
    try:
        tmp.unlink()
        return True
    except FileNotFoundError:
        return False


class CheckpointFile:
    """``save`` / ``load`` for a checkpoint with ``to_dict`` / ``from_dict``."""

    def save(self, path: PathLike) -> Path:
        """Atomic durable write: a kill mid-save leaves the old file, a
        power cut never surfaces a torn one. Compact JSON: a partial with
        evidence is rewritten after every iteration / shard, and only the
        un-indented form runs on the C encoder."""
        text = json.dumps(self.to_dict(), sort_keys=True)  # type: ignore[attr-defined]
        return atomic_write_text(path, text + "\n")

    @classmethod
    def load(cls, path: PathLike):
        # A crash mid-save may leave a partial sibling ``.tmp``; the real
        # checkpoint (the last committed rename) is untouched, so reap the
        # orphan before reading.
        cleanup_orphan_tmp(path)
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        return cls.from_dict(payload)  # type: ignore[attr-defined]


def measurement_to_dict(measurement: NetworkMeasurement) -> dict:
    """JSON-safe representation of a measurement."""
    payload = {
        "format_version": FORMAT_VERSION,
        "node_ids": list(measurement.node_ids),
        "edges": sorted(sorted(e) for e in measurement.edges),
        "iterations": measurement.iterations,
        "sim_time_start": measurement.sim_time_start,
        "sim_time_end": measurement.sim_time_end,
        "transactions_sent": measurement.transactions_sent,
        "setup_failures": measurement.setup_failures,
        "send_timeouts": measurement.send_timeouts,
        "skipped_nodes": list(measurement.skipped_nodes),
        "failures": [failure.to_dict() for failure in measurement.failures],
        # Hardening state (format-additive: absent keys read back empty).
        "evidence": [
            measurement.evidence[e].to_dict()
            for e in sorted(measurement.evidence, key=sorted)
        ],
        "edge_confidence": [
            [*sorted(e), confidence]
            for e, confidence in sorted(
                measurement.edge_confidence.items(), key=lambda kv: sorted(kv[0])
            )
        ],
        "quarantined": sorted(sorted(e) for e in measurement.quarantined),
        "suspect_nodes": sorted(measurement.suspect_nodes),
    }
    if measurement.score is not None:
        payload["score"] = {
            "true_positives": measurement.score.true_positives,
            "false_positives": measurement.score.false_positives,
            "false_negatives": measurement.score.false_negatives,
            "false_positive_edges": [
                list(pair) for pair in measurement.score.false_positive_edges
            ],
            "false_negative_edges": [
                list(pair) for pair in measurement.score.false_negative_edges
            ],
        }
    return payload


def _edge_from_entry(entry: object) -> Edge:
    """Rebuild one serialized ``[a, b]`` pair as a canonical edge.

    Explicit rather than ``frozenset(entry)``, which would silently accept
    (and collapse) malformed entries like ``["a"]`` or ``["a", "a", "b"]``.
    """
    if len(entry) != 2 or not all(isinstance(end, str) for end in entry):  # type: ignore[arg-type]
        raise ValueError(f"malformed edge entry {entry!r}")
    a, b = entry  # type: ignore[misc]
    if a == b:
        raise ValueError(f"self-loop edge entry {entry!r}")
    return edge(a, b)


def measurement_from_dict(payload: dict) -> NetworkMeasurement:
    """Inverse of :func:`measurement_to_dict` — the only decoder of
    measurements, whole or partial (checkpoints and shard results embed
    this payload)."""
    try:
        version = payload["format_version"]
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported measurement format version {version}"
            )
        measurement = NetworkMeasurement(
            node_ids=list(payload["node_ids"]),
            iterations=int(payload["iterations"]),
            sim_time_start=float(payload["sim_time_start"]),
            sim_time_end=float(payload["sim_time_end"]),
            transactions_sent=int(payload["transactions_sent"]),
            setup_failures=int(payload.get("setup_failures", 0)),
            send_timeouts=int(payload.get("send_timeouts", 0)),
            skipped_nodes=list(payload.get("skipped_nodes", [])),
            failures=[
                MeasurementFailure.from_dict(item)
                for item in payload.get("failures", [])
            ],
        )
        measurement.add_edges(_edge_from_entry(e) for e in payload["edges"])
        for item in payload.get("evidence", []):
            evidence = EdgeEvidence.from_dict(item)
            measurement.evidence[evidence.edge] = evidence
        for entry in payload.get("edge_confidence", []):
            a, b, confidence = entry
            measurement.edge_confidence[frozenset((str(a), str(b)))] = str(
                confidence
            )
        measurement.quarantined.update(
            _edge_from_entry(e) for e in payload.get("quarantined", [])
        )
        measurement.suspect_nodes.update(
            str(node) for node in payload.get("suspect_nodes", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed measurement payload: {exc}") from exc
    score = payload.get("score")
    if score is not None:
        measurement.score = ValidationScore(
            true_positives=score["true_positives"],
            false_positives=score["false_positives"],
            false_negatives=score["false_negatives"],
            false_positive_edges=tuple(
                (str(a), str(b)) for a, b in score.get("false_positive_edges", [])
            ),
            false_negative_edges=tuple(
                (str(a), str(b)) for a, b in score.get("false_negative_edges", [])
            ),
        )
    return measurement


def save_measurement(measurement: NetworkMeasurement, path: PathLike) -> Path:
    """Write a measurement to JSON; returns the path written."""
    target = Path(path)
    target.write_text(
        json.dumps(measurement_to_dict(measurement), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return target


def load_measurement(path: PathLike) -> NetworkMeasurement:
    """Read a measurement back from JSON."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    return measurement_from_dict(payload)


def export_graph(graph: nx.Graph, path: PathLike, fmt: str = "edgelist") -> Path:
    """Export a graph as ``edgelist``, ``graphml`` or adjacency ``json``."""
    target = Path(path)
    if fmt == "edgelist":
        with target.open("w", encoding="utf-8") as handle:
            for a, b in sorted(tuple(sorted(e)) for e in graph.edges()):
                handle.write(f"{a} {b}\n")
    elif fmt == "graphml":
        import networkx as nx

        nx.write_graphml(graph, target)
    elif fmt == "json":
        payload = {
            "nodes": sorted(graph.nodes()),
            "edges": sorted(sorted(e) for e in graph.edges()),
        }
        target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return target
