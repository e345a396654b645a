"""Metric names, units and how each is computed from the workers' data.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run.  ``BENCHMARK.json`` lists exactly these names and units
(``test_perfbench.py`` checks that it does).

Per-layer values are per traced run.  A layer's host time is the time
inside its outermost spans, its self time that time minus child spans.
In the JSON line both are shares of the traced run's wall time
(``<layer>.host_share``, ``<layer>.self_share``): a workload that never
enters a layer reads an exact 0 there, and a share is the bound on what
speeding that layer up can save.  The seconds themselves, the engine's
per-step and the tuner's per-probe percentiles are printed in a second,
report-only table (:func:`per_layer_metrics` returns both).

``experiments.sweep.evaluate_share`` is the time in probe evaluations;
``experiments.sweep.sweep_batch.self_share`` is the sweep executor's own
time (cache keys excluded): loading, storing and bookkeeping.
``fs.posix.bytes_moved`` is the Darshan byte total of the run, so it
reads 0 on ``tuner_search``, whose probe reports carry no byte totals.
The ``workloads`` spans wrap each whole run, so ``workloads.self_share``
is the traced run time that no layer below covers: the unattributed
remainder.
"""

from __future__ import annotations

import statistics

from spans import GROUPS, LAYERS, percentile

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    # a failure-free run reads 1.0; failed_frac itself would read 0
    ("ok_frac", "ratio", "higher"),
)

#: layers whose operations are also reported group by group
_MULTI_GROUP = {layer for layer, targets in LAYERS.items()
                if len({group for _, _, group in targets}) > 1}
_GROUP_KEYS = tuple(key for key in GROUPS if key[0] in _MULTI_GROUP)


def _per_layer_specs() -> tuple[tuple[str, str], ...]:
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count"),
                  (f"{layer}.host_share", "ratio"),
                  (f"{layer}.self_share", "ratio")]
    for layer, group in _GROUP_KEYS:
        specs += [(f"{layer}.{group}.calls", "count"),
                  (f"{layer}.{group}.self_share", "ratio")]
    specs += [
        ("fs.posix.bytes_moved", "bytes"),
        ("trace.events", "count"),
        ("mem.budget_hwm_mb", "MB"),
        ("serving.hit_ratio", "ratio"),
        ("serving.prefetch_useful_frac", "ratio"),
        ("experiments.sweep.evaluate_share", "ratio"),
        ("experiments.sweep.cache_hit_ratio", "ratio"),
        ("tuning.probes_evaluated", "count"),
        ("traced_run_s", "s"),
        ("trace_overhead_frac", "ratio"),
        ("failed_frac", "ratio"),
    ]
    return tuple(specs)


#: (name, unit) of every per-layer metric, in report order
PER_LAYER = _per_layer_specs()
UNITS = dict(PER_LAYER) | {name: unit for name, unit, _ in END_TO_END}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(untraced: list, traced: list, summaries: list
                      ) -> tuple[dict, dict]:
    """(per-layer metrics, report-only host seconds) of the traced runs.

    ``untraced``/``traced`` are the worker's (seconds, outputs, ops,
    hwm) tuples of paired runs; ``summaries`` the traced runs'
    :func:`spans.summarize` results.  Counts and seconds are means per
    traced run, shares are of the traced runs' summed wall time.
    """
    n = len(summaries)
    traced_total = sum(r[0] for r in traced)
    out: dict[str, float] = {}
    seconds: dict[str, float] = {}

    def totals(name, tots):
        out[f"{name}.calls"] = sum(t.calls for t in tots) / n
        self_s = sum(t.self_s for t in tots)
        out[f"{name}.self_share"] = self_s / traced_total
        seconds[f"{name}.self_s"] = self_s / n
        return tots

    for layer in LAYERS:
        tots = totals(layer, [s["layers"][layer] for s in summaries])
        host_s = sum(t.host_s for t in tots)
        out[f"{layer}.host_share"] = host_s / traced_total
        seconds[f"{layer}.host_s"] = host_s / n
    for layer, group in _GROUP_KEYS:
        totals(f"{layer}.{group}", [s["groups"][(layer, group)]
                                    for s in summaries])

    def durations(path):
        return [d for s in summaries for d in s["durations"].get(path, ())]

    steps = durations("BPEngineBase.end_step")
    probes = durations("tuning_report")
    seconds["adios2.engine.step_p50_s"] = percentile(steps, 50)
    seconds["adios2.engine.step_p90_s"] = percentile(steps, 90)
    seconds["tuning.probe_p50_s"] = percentile(probes, 50)
    seconds["experiments.sweep.evaluate_s"] = sum(probes) / n

    outputs = [r[1] for r in traced]
    out["fs.posix.bytes_moved"] = _mean(
        [o.get("darshan_bytes_written", 0.0) + o.get("darshan_bytes_read", 0.0)
         for o in outputs])
    out["trace.events"] = _mean([s["events"] for s in summaries])
    out["mem.budget_hwm_mb"] = _mean([r[3] for r in traced]) / 2**20
    hits = sum(o.get("hits", 0) for o in outputs)
    out["serving.hit_ratio"] = _ratio(
        hits, hits + sum(o.get("misses", 0) for o in outputs))
    out["serving.prefetch_useful_frac"] = _ratio(
        sum(o.get("prefetch_used", 0) for o in outputs),
        sum(o.get("prefetch_issued", 0) for o in outputs))
    out["experiments.sweep.evaluate_share"] = sum(probes) / traced_total
    evaluated = sum(o.get("cold_evaluated", 0) + o.get("warm_evaluated", 0)
                    for o in outputs)
    cached = sum(o.get("cold_cached", 0) + o.get("warm_cached", 0)
                 for o in outputs)
    out["experiments.sweep.cache_hit_ratio"] = _ratio(cached,
                                                      evaluated + cached)
    out["tuning.probes_evaluated"] = evaluated / n
    plain_s = statistics.median(r[0] for r in untraced)
    traced_s = statistics.median(r[0] for r in traced)
    out["traced_run_s"] = traced_s
    out["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return out, seconds
