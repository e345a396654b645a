"""Per-figure/table experiment drivers reproducing the paper's evaluation."""

from repro.experiments.agg_sweep import AggSweepResult, run_agg_sweep
from repro.experiments.common import ExperimentResult, SeriesResult
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.gpu import GpuResult, run_gpu
from repro.experiments.postproc import PostprocResult, run_postproc
from repro.experiments.resilience import (
    MultiLevelResult,
    ResilienceResult,
    run_resilience,
    run_resilience_multilevel,
)
from repro.experiments.sensitivity import SensitivityResult, run_sensitivity
from repro.experiments.serving import ServingResult, run_serving
from repro.experiments.streaming import StreamingResult, run_streaming
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.weak_scaling import run_weak_scaling

__all__ = [
    "AggSweepResult",
    "ExperimentResult",
    "Fig5Result",
    "PostprocResult",
    "MultiLevelResult",
    "ResilienceResult",
    "SensitivityResult",
    "Fig8Result",
    "Fig9Result",
    "GpuResult",
    "SeriesResult",
    "ServingResult",
    "StreamingResult",
    "Table2Result",
    "TuningExperimentResult",
    "run_agg_sweep",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_gpu",
    "run_postproc",
    "run_resilience",
    "run_resilience_multilevel",
    "run_sensitivity",
    "run_serving",
    "run_streaming",
    "run_table2",
    "run_tuning",
    "run_weak_scaling",
]


def __getattr__(name):
    # The tuning driver imports repro.tuning, which imports this package's
    # sweep executor; loading the driver on first use keeps
    # ``import repro.tuning`` free of an import cycle.
    if name in ("TuningExperimentResult", "run_tuning"):
        from repro.experiments import tuning
        return getattr(tuning, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
