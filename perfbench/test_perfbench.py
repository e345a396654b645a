"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

``test_layer_attribution`` is the check that the traced run names the
layer a slowdown sits in: a fixed delay added to
``gather_cost_seconds`` must show up as ``adios2.aggregation`` self
time and raise ``run_s`` on ``bp4_steady``.  On ``original_fpp`` and
``serving_read`` the delayed function is never called, which proves
exactly that their ``run_s`` cannot rise; a timing comparison there
would only measure host noise.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

import spans
import workloads
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DELAY_S = 0.005
GATHER = ("repro.adios2.aggregation", "gather_cost_seconds")


def _timed(name, scratch, seed=0, nodes=workloads.NODES):
    t0 = time.perf_counter()
    outputs, _, _ = workloads.run_once(name, seed, scratch, nodes=nodes)
    return time.perf_counter() - t0, outputs


def _traced(name, scratch, nodes=workloads.NODES):
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        _, outputs = _timed(name, scratch, nodes=nodes)
    return spans.summarize(rec), outputs


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        PER_LAYER)


def test_reference_covers_at_least_two_seeds():
    with open(os.path.join(HERE, "reference.json")) as f:
        refs = json.load(f)
    for name in workloads.WORKLOADS:
        assert len(refs[name]) >= 2, name
        first = next(iter(refs[name].values()))
        for entry in refs[name].values():
            assert {k: entry[k] for k in workloads.SEED_INVARIANT[name]} \
                == {k: first[k] for k in workloads.SEED_INVARIANT[name]}


def test_traced_run_matches_untraced_and_leaves_no_wrappers(tmp_path):
    _, plain = _timed("original_fpp", str(tmp_path), nodes=2)
    summary, traced = _traced("original_fpp", str(tmp_path), nodes=2)
    assert traced == plain
    assert spans.leaked_patches() == []
    for layer in ("workloads", "fs.posix", "fs.vfs", "darshan", "trace"):
        assert summary["layers"][layer].calls > 0, layer
    # an exception inside a traced run still removes every wrapper
    with pytest.raises(RuntimeError):
        with spans.traced(spans.SpanRecorder()):
            raise RuntimeError("boom")
    assert spans.leaked_patches() == []


def _rise(name, scratch, pairs=3):
    """Median run_s with the delay over median run_s without it (ABBA)."""
    base, slow = [], []
    for i in range(pairs):
        for delayed in ((False, True) if i % 2 == 0 else (True, False)):
            if delayed:
                with spans.delayed(*GATHER, DELAY_S):
                    slow.append(_timed(name, scratch)[0])
            else:
                base.append(_timed(name, scratch)[0])
    return statistics.median(slow) / statistics.median(base) - 1.0


def test_layer_attribution(tmp_path):
    scratch = str(tmp_path)
    _timed("bp4_steady", scratch)  # first-run costs out of the comparison
    plain, _ = _traced("bp4_steady", scratch)
    with spans.delayed(*GATHER, DELAY_S):
        slow, _ = _traced("bp4_steady", scratch)
    assert spans.leaked_patches() == []
    calls = slow["groups"][("adios2.aggregation", "gather")].calls
    injected = calls * DELAY_S
    assert calls > 100
    growth = {layer: slow["layers"][layer].self_s
              - plain["layers"][layer].self_s for layer in spans.LAYERS}
    assert max(growth, key=growth.get) == "adios2.aggregation"
    assert growth["adios2.aggregation"] >= 0.8 * injected

    # the delay moves bp4_steady's run_s by about what was injected ...
    base_s = plain["layers"]["workloads"].host_s
    assert _rise("bp4_steady", scratch) >= 0.5 * injected / base_s
    # ... and cannot move workloads that never gather
    for name in ("original_fpp", "serving_read"):
        with spans.delayed(*GATHER, DELAY_S):
            summary, _ = _traced(name, scratch)
        assert summary["layers"]["adios2.aggregation"].calls == 0, name
    assert spans.leaked_patches() == []
