"""Run the paper's experiments and print their tables/figures.

Usage::

    python -m repro.experiments            # full sweeps (a few minutes)
    python -m repro.experiments --quick    # reduced sweeps (seconds)
    python -m repro.experiments fig6 fig9  # a subset

Full runs write the JSON artifacts to ``results/``.  ``--quick`` runs
write them to a scratch directory under the system temp directory, so a
smoke run never overwrites the committed full-scale artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple

from repro.experiments import (
    run_agg_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_gpu,
    run_postproc,
    run_resilience,
    run_resilience_multilevel,
    run_sensitivity,
    run_serving,
    run_streaming,
    run_table2,
    run_tuning,
    run_weak_scaling,
)
from repro.experiments.common import subset, write_artifact
from repro.experiments.paper_data import FIG6_SWEEP, NODE_COUNTS


class Experiment(NamedTuple):
    """One registry entry."""

    #: ``run(quick)`` -> a result with ``render()``
    run: Callable[[bool], object]
    #: JSON file the CLI writes the result's ``to_artifact()`` to
    artifact: str | None = None
    #: y-value format of an :class:`ExperimentResult` table
    y_format: Callable[[float], str] | None = None
    #: run when no experiment is named
    default: bool = True


def artifact_dir(quick: bool) -> str:
    """``results/`` for full runs, a scratch directory for quick ones."""
    if quick:
        return os.path.join(tempfile.gettempdir(), "repro-experiments-quick")
    return "results"


TUNED = "tuned_configs.json"


def _tune(quick: bool, regression_only: bool = False):
    # re-validates the previous artifact of the same scale, if any
    return run_tuning(quick=quick, regression_only=regression_only,
                      artifact_path=os.path.join(artifact_dir(quick), TUNED))


REGISTRY: dict[str, Experiment] = {
    "fig2": Experiment(lambda q: run_fig2(node_counts=subset(NODE_COUNTS, q))),
    "fig3": Experiment(lambda q: run_fig3(node_counts=subset(NODE_COUNTS, q))),
    "fig4": Experiment(lambda q: run_fig4(node_counts=subset(NODE_COUNTS, q))),
    "fig5": Experiment(lambda q: run_fig5()),
    "fig6": Experiment(lambda q: run_fig6(aggregators=subset(FIG6_SWEEP, q)),
                       y_format="{:.2f}".format),
    "fig7": Experiment(lambda q: run_fig7(node_counts=subset(NODE_COUNTS, q))),
    "fig8": Experiment(lambda q: run_fig8()),
    "fig9": Experiment(lambda q: run_fig9()),
    "table2": Experiment(
        lambda q: run_table2(node_counts=subset(NODE_COUNTS, q))),
    "postproc": Experiment(lambda q: run_postproc()),
    "weak_scaling": Experiment(
        lambda q: run_weak_scaling(node_counts=subset((1, 5, 20, 50, 200), q)),
        y_format="{:.4f}".format),
    "sensitivity": Experiment(
        lambda q: run_sensitivity(nodes=50 if q else 200)),
    "resilience": Experiment(lambda q: run_resilience(quick=q)),
    "resilience_ml": Experiment(lambda q: run_resilience_multilevel(quick=q),
                                artifact="resilience_multilevel.json"),
    "streaming": Experiment(lambda q: run_streaming(quick=q)),
    "serving": Experiment(lambda q: run_serving(quick=q),
                          artifact="serving.json"),
    "gpu": Experiment(lambda q: run_gpu(quick=q), artifact="gpu_staging.json"),
    "agg": Experiment(lambda q: run_agg_sweep(quick=q)),
    "tune": Experiment(_tune, artifact=TUNED),
    # service-mode health check: re-validate the existing artifact's
    # recommendations against the current model source, no retuning
    "tune_check": Experiment(lambda q: _tune(q, regression_only=True),
                             default=False),
}

ALL = tuple(name for name, e in REGISTRY.items() if e.default)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments",
                                     description=__doc__)
    parser.add_argument("experiments", nargs="*", default=list(ALL),
                        help=f"any of {list(REGISTRY)} "
                             f"(default: {list(ALL)})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps for a fast look; artifacts "
                             "go to a scratch directory, not results/")
    args = parser.parse_args(argv)

    unknown = [n for n in args.experiments if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; choose from "
              f"{', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    out_dir = artifact_dir(args.quick)
    for name in args.experiments:
        entry = REGISTRY[name]
        t0 = time.perf_counter()
        result = entry.run(args.quick)
        print(result.render(y_format=entry.y_format) if entry.y_format
              else result.render())
        if entry.artifact:
            path = write_artifact(os.path.join(out_dir, entry.artifact),
                                  result.to_artifact())
            print(f"  note: artifact written to {path}")
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
