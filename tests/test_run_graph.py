"""A finished run is freed by reference counting alone.

A reference cycle anywhere in a run's object graph keeps the whole run
(PosixIO, TraceBus, Darshan columns, VFS columns, rank clocks) resident
until the cyclic collector happens to run; many short runs in one
process (a tuner search) then pile their graphs up between collections.
"""

import gc

import pytest

from repro.cluster.presets import dardel
from repro.experiments.serving import serving_report
from repro.tuning import TuningSpace, tune
from repro.workloads.presets import paper_use_case
from repro.workloads.runner import run_openpmd_scaled, run_original_scaled


def _small_config():
    return paper_use_case().with_(last_step=2_000, dmpstep=1_000)


def _cyclic_repro_garbage(run) -> list[str]:
    """Type names of ``repro`` objects only the cyclic GC would free."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({type(o).__qualname__ for o in gc.garbage
                       if type(o).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


RUNS = {
    "openpmd_bp4": lambda: run_openpmd_scaled(
        dardel(), 2, config=_small_config()),
    "openpmd_bp5_async": lambda: run_openpmd_scaled(
        dardel(), 2, config=_small_config(), engine_ext=".bp5",
        async_drain=True),
    "original": lambda: run_original_scaled(
        dardel(), 2, config=_small_config()),
    "serving_fleet": lambda: serving_report(
        dardel(), 2, pattern="repeated", policy="markov", readers=4,
        cache_mib=64, prefetch_depth=2, requests_per_reader=16, seed=0),
    "tune_two_candidates": lambda: tune(
        dardel(), 2, space=TuningSpace(
            engine_ext=(".bp4", ".bp5"), aggs_per_node=(1.0,),
            stripe_count=(1,), stripe_size=(TuningSpace.stripe_size[0],),
            compressor=(None,), async_drain=(False,), queue_depth=(1,)),
        config=_small_config(), population=2, max_climb_rounds=0,
        jobs=1, cache_dir=""),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_finished_run_leaves_no_cyclic_garbage(name):
    assert _cyclic_repro_garbage(RUNS[name]) == []
