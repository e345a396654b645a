"""Closed-loop I/O autotuner over the cached sweep executor.

ROADMAP item 4: the paper tunes engine, aggregator count, striping and
compression by hand; this package searches that joint space per machine
model (successive halving over workload fidelity + coordinate
hill-climb, every probe a cached
:func:`repro.experiments.points.tuning_report` evaluation) and
re-validates its recommendations when the model source changes.  The
experiment driver behind the ``tune`` artifact lives in
:mod:`repro.experiments.tuning`.
"""

from repro.tuning.regression import (
    Recommendation,
    RegressionReport,
    RevalidationEntry,
    revalidate,
)
from repro.tuning.search import (
    DEFAULT_RUNGS,
    OBJECTIVES,
    ProbeRecord,
    TuningResult,
    shrink_config,
    tune,
)
from repro.tuning.space import DIMENSIONS, Candidate, TuningSpace

__all__ = [
    "Candidate",
    "DEFAULT_RUNGS",
    "DIMENSIONS",
    "OBJECTIVES",
    "ProbeRecord",
    "Recommendation",
    "RegressionReport",
    "RevalidationEntry",
    "TuningResult",
    "TuningSpace",
    "revalidate",
    "shrink_config",
    "tune",
]
