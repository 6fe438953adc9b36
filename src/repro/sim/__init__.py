"""Deterministic discrete-event simulation engine.

The engine is intentionally small and dependency-free: a priority queue of
timestamped events, a monotonically advancing clock, named seeded RNG streams,
latency models for network links and periodic processes.

Everything in :mod:`repro.eth` and :mod:`repro.core` is driven through this
engine, which makes every experiment reproducible bit-for-bit from a seed.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.latency import (
    ConstantLatency,
    GeoLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry

__all__ = [
    "ConstantLatency",
    "Event",
    "GeoLatency",
    "LatencyModel",
    "LogNormalLatency",
    "PeriodicProcess",
    "RngRegistry",
    "Simulator",
    "UniformLatency",
]
