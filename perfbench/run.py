"""Host-time benchmark of the simulator: one command, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bp4_steady --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``bp4_steady``, ``original_fpp``, ``tuner_search``, ``serving_read``.

All numbers are *host* cost, what the simulator costs to run.  Modeled
outputs (virtual makespan, Darshan counters, modeled GiB/s, the tuner's
choice, serving hit counts) are correctness outputs: every run must
reproduce the stored reference for its seed exactly (``reference.json``,
written by ``record_reference.py``); seeds without a stored entry must
reproduce the seed-invariant outputs and repeat themselves run to run.

The load is a closed loop: one worker process runs one simulation at a
time, the sweep executor pinned to ``jobs=1`` and numeric libraries to
one thread.  ``--trace 0`` measures untraced runs and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs,
prints the per-layer metrics and writes every span to
``.perfbench-out/``.  ``setup_s`` is the median over several fresh
processes of the time from spawn to the first run being ready.

The last line of stdout is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 on a completed measurement (``correct`` says whether
the outputs matched), non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402

WORKLOADS = ("bp4_steady", "original_fpp", "tuner_search", "serving_read")
#: fresh set-up-only processes per invocation; the measuring process's
#: own set-up is one more sample
SETUP_SAMPLES = 4
#: a worker may overrun --seconds by its last run; beyond this it is
#: killed and the benchmark fails
WORKER_SLACK_S = 120.0


def _args(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measurement time of the run loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        # isolation: no default sweep cache, in-process sweep, one thread
        REPRO_SWEEP_CACHE="",
        REPRO_SWEEP_JOBS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(args, mode: str) -> dict:
    """Run one worker to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), "--out", OUT]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=args.seconds + WORKER_SLACK_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _supported_percentile(n: int) -> int | None:
    """Highest percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return int(100 * (1 - 10 / n))


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


def _end_to_end(setups: list, main: dict) -> dict:
    runs = main["run_s"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "ops_per_s": statistics.median(
            ops / s for ops, s in zip(main["ops"], runs)),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": 1.0 - main["failed"] / main["attempted"],
    }


def _print_report(args, header: dict, metrics: dict, main: dict) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for key, value in header.items():
        print(f"- {key}: `{value}`")
    runs = main.get("run_s")
    if runs:
        q = _supported_percentile(len(runs))
        hi = (f"p{q} {statistics.quantiles(runs, n=100)[q - 1]:.4f} s"
              if q else "no percentile above the median (n < 20)")
        print(f"- run_s samples: {len(runs)}, median "
              f"{statistics.median(runs):.4f} s, {hi}, max {max(runs):.4f} s")
    failed = main["failed"] / main["attempted"]
    print(f"- failed_frac: {failed:.4f} ({main['failed']}/"
          f"{main['attempted']} runs), reference: {main['reference']}")
    for problem in main["problems"]:
        print(f"- FAILED: {problem.strip().splitlines()[-1]}")
    _print_table(metrics, UNITS)
    seconds = main.get("layer_seconds")
    if seconds:
        print("\nhost seconds per traced run (report only, not in the "
              "JSON line):")
        _print_table(seconds, dict.fromkeys(seconds, "s"))


def _print_table(values: dict, units: dict) -> None:
    print()
    print(f"| {'metric':<44} | {'value':>16} | unit  |")
    print(f"|{'-' * 46}|{'-' * 18}|-------|")
    for name, value in values.items():
        print(f"| {name:<44} | {value:>16.6g} | {units[name]:<5} |")


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        setups = [_spawn(args, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        main_res = _spawn(args, "trace" if args.trace else "measure")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(main_res["setup_s"])
    attempted, failed = main_res["attempted"], main_res["failed"]
    if args.trace:
        metrics = dict(main_res["layers"])
        if not metrics:
            print("perfbench: no traced run succeeded", file=sys.stderr)
            return 1
        metrics["failed_frac"] = failed / attempted
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
    else:
        if not main_res["run_s"]:
            print("perfbench: no run succeeded", file=sys.stderr)
            return 1
        metrics = _end_to_end(setups, main_res)
        metrics = {name: metrics[name] for name, _, _ in END_TO_END}
    header = dict(main_res["header"], git=_git_rev(), nproc=os.cpu_count(),
                  seed=args.seed, seconds=args.seconds,
                  setup_samples=len(setups),
                  warmup="one 1-node run per process (in setup_s)",
                  repeats=attempted)
    _print_report(args, header, metrics, main_res)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(dict(result, header=header, setup_s_samples=setups,
                       run_s_samples=main_res.get("run_s", []),
                       layer_seconds=main_res.get("layer_seconds", {}),
                       problems=main_res["problems"]), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
