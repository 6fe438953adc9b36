"""TopoShot: the paper's primary contribution.

- :mod:`repro.core.primitive` -- ``measure_one_link`` (Section 5.2).
- :mod:`repro.core.parallel` -- the parallel measurement primitive (5.3.1).
- :mod:`repro.core.schedule` -- the two-round group schedule (5.3.2).
- :mod:`repro.core.preprocess` -- target filtering/calibration (5.2.3, 6.2.1).
- :mod:`repro.core.profiler` -- black-box client profiling (5.1, Table 3).
- :mod:`repro.core.noninterference` -- the V1/V2 extension (6.3, Appendix C).
- :mod:`repro.core.campaign` -- whole-network orchestration (Section 6).
- :mod:`repro.core.cost` -- Ether cost accounting and extrapolation (6.3/6.4).
"""

from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.parallel import ParallelProbeReport, measure_par
from repro.core.primitive import measure_one_link
from repro.core.results import EdgeEvidence, NetworkMeasurement, ValidationScore
from repro.core.schedule import ScheduleIteration, build_schedule

__all__ = [
    "EdgeEvidence",
    "MeasurementConfig",
    "NetworkMeasurement",
    "ParallelProbeReport",
    "ScheduleIteration",
    "TopoShot",
    "ValidationScore",
    "build_schedule",
    "measure_one_link",
    "measure_par",
]
