"""One benchmark process: set up, run one workload in a closed loop.

Started by ``run.py`` (never by hand) as::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --seconds S --t0 T --out DIR

``T`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide on Linux), so ``setup_s`` covers interpreter start,
imports, the machine preset and a one-node warm-up run.  Modes:

* ``setup``: set up and report ``setup_s`` only;
* ``measure``: untraced runs back to back for ``S`` seconds;
* ``trace``: alternating untraced and traced runs for ``S`` seconds;
  reports per-layer host time and writes every traced span to ``DIR``.

Every run's modeled outputs are checked (``workloads.check``).  The last
line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback

import spans
import workloads
from metrics import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

#: fewest runs a measuring process makes, whatever ``--seconds`` says
MIN_RUNS = 3
#: fewest (untraced, traced) pairs a tracing process makes
MIN_PAIRS = 1


def _args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


class Checker:
    """Counts attempted and failed runs of one process."""

    def __init__(self, name: str, seed: int):
        with open(os.path.join(HERE, "reference.json")) as f:
            refs = json.load(f)[name]
        self.name = name
        self.reference = refs.get(str(seed))
        self.any_reference = next(iter(refs.values()))
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: workload units of the last correct run (for the run header)
        self.ops = 0

    def run(self, scratch: str, seed: int):
        """One checked run; returns (seconds, outputs, ops, hwm) or None."""
        self.attempted += 1
        gc.collect()  # each run starts from the same heap, untimed
        try:
            t0 = time.perf_counter()
            outputs, ops, hwm = workloads.run_once(self.name, seed, scratch)
            seconds = time.perf_counter() - t0
        except Exception:  # a failed run is counted, not fatal
            self.fail(traceback.format_exc())
            return None
        problems = workloads.check(self.name, outputs, self.reference,
                                   self.any_reference, self.first)
        if self.first is None:
            self.first = outputs
        if problems:
            self.fail("; ".join(problems))
            return None
        self.ops = ops
        return seconds, outputs, ops, hwm

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)
        print(f"[{self.name}] run failed: {why}", file=sys.stderr)


def measure(args, checker: Checker, scratch: str) -> dict:
    runs = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or checker.attempted < MIN_RUNS):
        r = checker.run(scratch, args.seed)
        if r is not None:
            runs.append(r)
    return {"run_s": [r[0] for r in runs], "ops": [r[2] for r in runs]}


def trace(args, checker: Checker, scratch: str) -> dict:
    untraced, traced, summaries, dumps = [], [], [], []
    start = time.monotonic()
    pair = 0
    while time.monotonic() - start < args.seconds or pair < MIN_PAIRS:
        # ABBA order, so drift and first-run costs hit both sides alike
        traced_first = pair % 2 == 1
        pair += 1
        if not traced_first:
            plain = checker.run(scratch, args.seed)
        rec = spans.SpanRecorder()
        with spans.traced(rec):
            r = checker.run(scratch, args.seed)
        if traced_first:
            plain = checker.run(scratch, args.seed)
        leaks = spans.leaked_patches()
        if leaks:
            checker.fail(f"span wrappers leaked: {leaks}")
            break
        if plain is not None and r is not None:
            untraced.append(plain)
            traced.append(r)
            summaries.append(spans.summarize(rec))
            dumps.append(spans.spans_json(rec))
    path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "runs": dumps}, f)
    metrics, seconds = (per_layer_metrics(untraced, traced, summaries)
                        if traced else ({}, {}))
    return {"layers": metrics, "layer_seconds": seconds,
            "spans_file": os.path.relpath(path)}


def _header(name: str, ops_per_run: int) -> dict:
    """Versions and sizes recorded next to the results."""
    import numpy
    from repro.experiments.sweep import source_fingerprint
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "src_fingerprint": source_fingerprint()[:16],
            "workload": name, "sizes": workloads.WORKLOADS[name].sizes,
            "ops_per_run": ops_per_run}


def main(argv=None) -> int:
    args = _args(argv)
    os.makedirs(args.out, exist_ok=True)
    scratch = workloads.scratch_dir(args.out)
    workloads.warm_up(args.workload, scratch)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        checker = Checker(args.workload, args.seed)
        body = (measure if args.mode == "measure" else trace)(
            args, checker, scratch)
        result.update(body)
        result.update(
            attempted=checker.attempted, failed=checker.failed,
            problems=checker.problems,
            reference="stored" if checker.reference else "invariants",
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            header=_header(args.workload, checker.ops))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
