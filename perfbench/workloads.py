"""The four benchmark workloads: sizes, one run each, modeled outputs.

A workload run returns ``(outputs, ops)``: ``outputs`` are the modeled
results the run must reproduce exactly (virtual makespan, Darshan byte
counters, file census, modeled GiB/s, tuner choice, serving counts),
``ops`` the number of workload units it completed (I/O milestones,
tuner probes of the cold search and the warm re-tune, or reader
requests).  Host cost is measured around the
call by the caller; nothing here reads a clock.

Every run gets a fresh :class:`repro.mem.MemoryBudget`, so the budget
high-water mark is the run's own and not the process's history.  The
sweep cache is never touched except by ``tuner_search``, which gets a
private cache directory under ``scratch`` that is removed afterwards.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

# repro.experiments must be imported before repro.tuning: importing
# repro.tuning first trips a circular import through
# repro.experiments.tuning
import repro.experiments.points as points
import repro.experiments.serving as serving
import repro.workloads.runner as runner
from repro.cluster.presets import dardel
from repro.darshan.report import write_throughput_gib
from repro.mem import MemoryBudget, use_budget
from repro.tuning import TuningSpace
from repro.tuning import search as tuning_search
from repro.workloads.presets import paper_use_case

NODES = 200
RANKS_PER_NODE = 128

#: serving_read: 16 readers, repeated pattern, Markov prefetch, 512 MiB
SERVING = dict(pattern="repeated", policy="markov", readers=16,
               cache_mib=512, prefetch_depth=2, requests_per_reader=1536)

#: tuner_search: the full TuningSpace on a 4k-step job.  The search's
#: own seed is fixed and the climb is off, so every benchmark seed runs
#: the same candidates and the same number of probes; the benchmark seed
#: sets the storage weather of every probe.  Seeding the search itself
#: made the host work seed-dependent: 26-44 probes with the climb on,
#: and +-20% run_s without it, from the sampled candidate mix alone.
TUNER_CONFIG = dict(last_step=4_000, dmpstep=2_000)
TUNER_SEARCH = dict(population=24, eta=4, max_climb_rounds=0, seed=0)

#: outputs that do not depend on the seed (the seed only moves the
#: storage "weather" and the access/search order); checked against the
#: stored reference for any seed, including ones with no stored entry
SEED_INVARIANT = {
    "bp4_steady": ("darshan_bytes_written", "darshan_bytes_read", "files"),
    "original_fpp": ("darshan_bytes_written", "darshan_bytes_read",
                     "files"),
    "serving_read": ("requests",),
    "tuner_search": ("cold_probes", "warm_evaluated"),
}


def _milestones(config) -> int:
    """Diagnostic plus checkpoint engine steps of one write run."""
    return (config.last_step // config.datfile
            + config.last_step // config.dmpstep)


def _write_outputs(res) -> dict:
    return {
        "makespan_s": float(res.comm.max_time()),
        "darshan_bytes_written": float(res.log.total_bytes_written()),
        "darshan_bytes_read": float(res.log.total_bytes_read()),
        "files": int(res.file_sizes().size),
        "gib_s": float(write_throughput_gib(res.log)),
    }


def run_bp4(machine, seed, nodes=NODES, scratch=None):
    config = paper_use_case()
    res = runner.run_openpmd_scaled(machine, nodes, config=config, seed=seed)
    return _write_outputs(res), _milestones(config)


def run_fpp(machine, seed, nodes=NODES, scratch=None):
    config = paper_use_case()
    res = runner.run_original_scaled(machine, nodes, config=config,
                                     seed=seed)
    return _write_outputs(res), _milestones(config)


def run_serving(machine, seed, nodes=NODES, scratch=None):
    rep = serving.serving_report(machine=machine, nodes=nodes, seed=seed,
                                 **SERVING)
    out = {k: rep[k] for k in ("hits", "misses", "prefetch_issued",
                               "prefetch_used", "evictions")}
    out["requests"] = rep["hits"] + rep["misses"]
    out["darshan_bytes_read"] = rep["darshan_bytes_read"]
    out["elapsed_s"] = rep["elapsed_s"]
    return out, out["requests"]


class WeatherProbe:
    """:func:`~repro.experiments.points.tuning_report` under one
    storage-weather seed, whatever seed the search passes.

    ``tune()`` hands its own seed to every probe; this point function
    replaces it.  The sweep cache names a point function by module and
    qualified name, so the weather seed is part of that name.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.__module__ = __name__
        self.__qualname__ = f"WeatherProbe[{seed}]"

    def __call__(self, **params):
        return points.tuning_report(**dict(params, seed=self.seed))


def run_tuner(machine, seed, nodes=NODES, scratch=None):
    """One cold search on a fresh private cache, then the warm re-tune."""
    config = paper_use_case().with_(**TUNER_CONFIG)
    cache = tempfile.mkdtemp(prefix="sweep-cache-", dir=scratch)
    try:
        kw = dict(space=TuningSpace(), config=config,
                  point_fn=WeatherProbe(seed), jobs=1, cache_dir=cache,
                  **TUNER_SEARCH)
        cold = tuning_search.tune(machine, nodes, **kw)
        warm = tuning_search.tune(machine, nodes, **kw)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    out = {
        "best": cold.best.label(),
        "best_objective": float(cold.best_objective),
        "cold_evaluated": cold.probes_evaluated,
        "cold_cached": cold.probes_cached,
        "cold_probes": cold.probes_total,
        "warm_evaluated": warm.probes_evaluated,
        "warm_cached": warm.probes_cached,
        "warm_best": warm.best.label(),
    }
    return out, cold.probes_total + warm.probes_total


@dataclass(frozen=True)
class Workload:
    run: Callable
    #: recorded in the run header
    sizes: dict


def _write_sizes(config) -> dict:
    return {"nodes": NODES, "ranks": NODES * RANKS_PER_NODE,
            "milestones": _milestones(config), "last_step": config.last_step}


WORKLOADS = {
    "bp4_steady": Workload(run_bp4, _write_sizes(paper_use_case())),
    "original_fpp": Workload(run_fpp, _write_sizes(paper_use_case())),
    "tuner_search": Workload(
        run_tuner,
        dict(nodes=NODES, ranks=NODES * RANKS_PER_NODE, **TUNER_CONFIG,
             space="TuningSpace()", search=TUNER_SEARCH)),
    "serving_read": Workload(
        run_serving,
        dict(nodes=NODES, ranks=NODES * RANKS_PER_NODE,
             requests=SERVING["readers"] * SERVING["requests_per_reader"],
             **SERVING)),
}


def run_once(name: str, seed: int, scratch: str,
             nodes: int = NODES) -> tuple[dict, int, int]:
    """One run of workload ``name``; returns (outputs, ops, budget hwm)."""
    budget = MemoryBudget()
    with use_budget(budget):
        outputs, ops = WORKLOADS[name].run(dardel(), seed, nodes=nodes,
                                           scratch=scratch)
    return outputs, ops, budget.high_water


def warm_up(name: str, scratch: str) -> None:
    """A one-node run: imports, presets and lazy first-run set-up."""
    run_once(name, 0, scratch, nodes=1)


def check(name: str, outputs: dict, reference: dict | None,
          any_reference: dict, first: dict | None) -> list[str]:
    """Mismatches of one run's outputs; empty when the run is correct.

    ``reference`` is the stored entry for this seed (None if the seed
    has none): every output must equal it.  Without one, the
    seed-invariant outputs must equal ``any_reference``, another seed's
    entry.  ``first`` is the first run of this process, which every
    later run must repeat exactly.
    """
    problems = []
    want = reference if reference is not None else {
        key: any_reference[key] for key in SEED_INVARIANT[name]}
    for key, value in want.items():
        if outputs.get(key) != value:
            problems.append(f"{key}: {outputs.get(key)!r} != "
                            f"reference {value!r}")
    if first is not None and outputs != first:
        diff = sorted(k for k in set(outputs) | set(first)
                      if outputs.get(k) != first.get(k))
        problems.append(f"not repeatable: {diff}")
    return problems


def scratch_dir(root: str) -> str:
    path = os.path.join(root, "scratch")
    os.makedirs(path, exist_ok=True)
    return path
