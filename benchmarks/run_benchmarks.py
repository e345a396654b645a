"""Standalone performance snapshot — emits ``BENCH_<date>.json``.

Times the two drivers that exercise the batched data plane hardest
(fig8's per-layer profile and the weak-scaling study) plus a raw
modeled-mode point, with the sweep cache disabled so the numbers
measure the model, not the memoiser.  Each timing is a min-of-N to
survive noisy shared machines.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--out DIR]
        [--repeats N] [--quick]

The JSON is append-friendly for trend tracking: one file per day,
keyed by benchmark name, with the environment recorded.  The CI smoke
step runs ``--quick`` and only asserts the file appears and every
timing is finite — regression *detection* is a human diffing
snapshots, not a flaky threshold.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from memdemo import measure as _measure_memory             # noqa: E402

from repro.cluster.presets import dardel, dardel_gpu       # noqa: E402
from repro.experiments.fig8 import run_fig8                # noqa: E402
from repro.faults import FaultPlan, NodeCrash              # noqa: E402
from repro.fs import PosixIO, mount                        # noqa: E402
from repro.mpi import VirtualComm                          # noqa: E402
from repro.resilience import CheckpointPolicy              # noqa: E402
from repro.trace.session import TraceSession               # noqa: E402
from repro.workloads import (                              # noqa: E402
    run_crash_restart,
    small_use_case,
)
from repro.experiments.points import (                     # noqa: E402
    openpmd_report,
    original_report,
    streaming_report,
)
from repro.experiments.gpu import gpu_report               # noqa: E402
from repro.experiments.serving import serving_report       # noqa: E402
from repro.experiments.weak_scaling import run_weak_scaling  # noqa: E402
from repro.tuning import TuningSpace, tune                 # noqa: E402
from repro.workloads.presets import paper_use_case         # noqa: E402


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _time(fn, repeats: int) -> dict:
    """min/mean wall seconds over ``repeats`` calls (min is the signal)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "min_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "samples": len(samples),
    }


def _recovery_point(policy) -> None:
    """One crash-restart run under ``policy``; prints the modeled cost.

    The tiered/PFS-only pair bounds the recovery-time win of the
    multi-level store: the partner policy restores from the buddy
    node's memory (zero PFS reads), the single-level baseline re-reads
    the fsynced L3 generation.  Wall time is what the harness records;
    the printed virtual seconds are the model's recovery-time signal.
    """
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    session = TraceSession(comm)
    posix = PosixIO(fs, comm, trace=session.bus)
    cfg = small_use_case(ncells=32, particles_per_cell=10, last_step=40,
                         datfile=20, dmpstep=20)
    rep = run_crash_restart(cfg, comm, posix, "/out", writer="original",
                            plan=FaultPlan((NodeCrash(0, 31),)),
                            checkpoint_policy=policy)
    rec = rep.crash_records[0]
    print(f"  [{policy.label()}] recovered via {rec.source} "
          f"(gen {rec.generation}), PFS bytes read "
          f"{float(fs.vfs.cols.bytes_read.sum()):.0f}, modeled total "
          f"{comm.max_time():.4f}s", flush=True)


def _serving_point(policy: str, nodes: int) -> None:
    """One 16-reader fleet on the repeated pattern; prints the LRU-vs-
    Markov signal (hit rate + aggregate throughput) the serving plane's
    acceptance rests on.  Wall time is what the harness records."""
    rep = serving_report(machine=dardel(), nodes=nodes, pattern="repeated",
                         policy=policy, readers=16, cache_mib=512,
                         prefetch_depth=2, requests_per_reader=256, seed=0)
    print(f"  [{policy}] hit rate {rep['hit_rate']:.3f}, "
          f"{rep['agg_throughput_bps'] / 2**30:.2f} GiB/s aggregate, "
          f"{rep['prefetch_issued']} prefetches", flush=True)


def _gpu_point(mode: str, nodes: int, staging_mib: int) -> None:
    """One hybrid checkpoint-drain point; prints the host-vs-GDS signal
    (staged bytes over the slowest device's drain seconds) behind the
    ``results/gpu_staging.json`` crossover.  Wall time is what the
    harness records."""
    rep = gpu_report(machine=dardel_gpu(), nodes=nodes, mode=mode,
                     aggregators=400, gpus_per_node=4,
                     staging_mib=staging_mib, engine_ext=".bp5", seed=0)
    drain = rep["drain_seconds_max"]
    gibps = rep["staged_bytes"] / 2**30 / drain if drain > 0 else 0.0
    print(f"  [{mode}] staged {rep['staged_bytes'] / 2**30:.2f} GiB, "
          f"drain max {drain:.4f}s -> {gibps:.1f} GiB/s, "
          f"{rep['turnarounds']} turnarounds, peak staging "
          f"{rep['peak_staging_bytes'] / 2**20:.1f} MiB", flush=True)


def _tuner_point(nodes: int, quick: bool) -> None:
    """One cold-then-warm autotuner search on a private sweep cache;
    prints the probes-evaluated vs probes-cached split behind the
    >= 95 % second-run cache-hit acceptance.  The suite-wide
    ``REPRO_SWEEP_CACHE=""`` disable is deliberately overridden here —
    the cache *is* what this point measures.  Wall time (dominated by
    the cold search) is what the harness records."""
    space = TuningSpace.quick() if quick else TuningSpace()
    cfg = paper_use_case().with_(last_step=4_000, dmpstep=2_000)
    cache = tempfile.mkdtemp(prefix="repro-tune-bench-")
    try:
        kw = dict(space=space, config=cfg, population=8, seed=0,
                  cache_dir=cache)
        cold = tune(dardel(), nodes, **kw)
        warm = tune(dardel(), nodes, **kw)
        print(f"  cold {cold.probes_evaluated}/{cold.probes_cached} "
              f"probes (eval/cached), warm {warm.probes_evaluated}/"
              f"{warm.probes_cached} -> {warm.cached_fraction:.0%} cached, "
              f"best {cold.best.label()}", flush=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def build_suite(quick: bool) -> dict:
    """name -> zero-arg callable; quick mode shrinks the node counts."""
    fig8_nodes = 5 if quick else 200
    weak_nodes = (1, 5) if quick else (1, 5, 20, 50, 200)
    point_nodes = 5 if quick else 200
    stream_cfg = paper_use_case().with_(
        last_step=4_000 if quick else 20_000,
        dmpstep=2_000 if quick else 10_000)
    return {
        f"fig8_profile_{fig8_nodes}nodes":
            lambda: run_fig8(nodes=fig8_nodes),
        f"weak_scaling_{max(weak_nodes)}nodes":
            lambda: run_weak_scaling(node_counts=weak_nodes),
        f"original_point_{point_nodes}nodes":
            lambda: original_report(machine=dardel(), nodes=point_nodes),
        f"streaming_point_{point_nodes}nodes":
            lambda: streaming_report(machine=dardel(), nodes=point_nodes,
                                     config=stream_cfg, queue_depth=2,
                                     policy="block"),
        f"bp5_async_point_{point_nodes}nodes":
            lambda: openpmd_report(machine=dardel(), nodes=point_nodes,
                                   engine_ext=".bp5", async_drain=True,
                                   num_aggregators=2 * point_nodes,
                                   compute_seconds_per_step=0.02),
        f"serving_lru_point_{point_nodes}nodes":
            lambda: _serving_point("lru", point_nodes),
        f"serving_markov_point_{point_nodes}nodes":
            lambda: _serving_point("markov", point_nodes),
        # staging bound scales with the quick shrink so both points stay
        # in the regimes the gpu experiment's crossover check contrasts
        f"gpu_host_staged_point_{point_nodes}nodes":
            lambda: _gpu_point("host", point_nodes,
                               80 if quick else 2),
        f"gpu_gds_point_{point_nodes}nodes":
            lambda: _gpu_point("gds", point_nodes,
                               80 if quick else 2),
        f"tuner_cold_warm_point_{point_nodes}nodes":
            lambda: _tuner_point(point_nodes, quick),
        "recovery_tiered_partner":
            lambda: _recovery_point(
                CheckpointPolicy.partner(l3_interval=0)),
        "recovery_pfs_only":
            lambda: _recovery_point(
                CheckpointPolicy.pfs_only(async_flush=False)),
    }


def memory_snapshot(quick: bool) -> dict:
    """Peak-RSS points from the flat-residency demo (see memdemo.py).

    Records peak bytes per *simulated* rank at each scale; the full run
    also records the 1M/100k peak-RSS ratio the ISSUE-6 acceptance
    criterion bounds at 1.25.  Quick mode keeps one modest scale so the
    CI smoke stays cheap.
    """
    scales = (100_000,) if quick else (100_000, 1_000_000)
    points = {}
    for nranks in scales:
        r = _measure_memory(nranks)
        if "error" in r:
            raise RuntimeError(f"memory point at {nranks} ranks failed:\n"
                               f"{r['error']}")
        points[f"{nranks}_ranks"] = {
            "peak_rss_bytes": r["peak_rss"],
            "bytes_per_simulated_rank": r["bytes_per_rank"],
        }
        print(f"memory_{nranks}_ranks: peak RSS {r['peak_rss'] / 2**20:.1f} "
              f"MB ({r['bytes_per_rank']:.1f} B/rank)", flush=True)
    out = {"points": points}
    if len(scales) == 2:
        out["peak_rss_ratio"] = (points[f"{scales[1]}_ranks"]["peak_rss_bytes"]
                                 / points[f"{scales[0]}_ranks"]
                                 ["peak_rss_bytes"])
        print(f"memory peak-RSS ratio {out['peak_rss_ratio']:.3f}",
              flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=".", help="directory for the JSON")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--quick", action="store_true",
                    help="small node counts (CI smoke)")
    args = ap.parse_args(argv)

    # measure the model, not the memoiser
    os.environ["REPRO_SWEEP_CACHE"] = ""

    suite = build_suite(args.quick)
    timings = {}
    for name, fn in suite.items():
        timings[name] = _time(fn, args.repeats)
        print(f"{name}: min {timings[name]['min_s']:.3f}s over "
              f"{args.repeats} runs", flush=True)

    memory = memory_snapshot(args.quick)

    snapshot = {
        "date": datetime.date.today().isoformat(),
        "git": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "timings": timings,
        "memory": memory,
    }
    path = os.path.join(args.out,
                        f"BENCH_{snapshot['date'].replace('-', '')}.json")
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")

    bad = [n for n, t in timings.items()
           if not (t["min_s"] > 0 and t["min_s"] < float("inf"))]
    bad += [n for n, p in memory["points"].items()
            if not (0 < p["bytes_per_simulated_rank"] < float("inf"))]
    if bad:
        print(f"non-finite results: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
