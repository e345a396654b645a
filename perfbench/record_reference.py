"""Record the modeled outputs every benchmark run must reproduce.

Run on the commit whose outputs are the reference (normally the parent
of a change under test; outputs of a correct change do not move)::

    PYTHONPATH=src python3 perfbench/record_reference.py \
        --workload bp4_steady --seeds 0-15

Entries for the given workload and seeds are replaced in
``perfbench/reference.json``; all other entries are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    args = ap.parse_args(argv)
    os.environ["REPRO_SWEEP_CACHE"] = ""
    os.environ["REPRO_SWEEP_JOBS"] = "1"
    sys.path.insert(0, HERE)
    import workloads

    entries = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for seed in _seeds(args.seeds):
            outputs, _, _ = workloads.run_once(args.workload, seed, scratch)
            entries[str(seed)] = outputs
            print(f"{args.workload} seed {seed}: {outputs}", flush=True)
    refs = {}
    if os.path.exists(PATH):
        with open(PATH) as f:
            refs = json.load(f)
    refs.setdefault(args.workload, {}).update(entries)
    with open(PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
