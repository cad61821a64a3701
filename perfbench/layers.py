"""Per-layer metrics from one traced run: spans, stats counters, client timings."""

import statistics

# name -> (unit, better); the order is the print order.
PER_LAYER = [
    ("aio.transport_ms", "ms", "lower"),
    ("aio.search_ms", "ms", "lower"),
    ("aio.queue_wait_ms", "ms", "lower"),
    ("aio.requests_cached", "count", "higher"),
    ("aio.requests_coalesced", "count", "higher"),
    ("aio.update_ms", "ms", "lower"),
    ("host.lease_ms", "ms", "lower"),
    ("host.admissions", "count", "lower"),
    ("host.evictions", "count", "lower"),
    ("engine.submit_ms", "ms", "lower"),
    ("engine.collect_ms", "ms", "lower"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.cache_misses", "count", "lower"),
    ("engine.layer_core_hits", "count", "higher"),
    ("engine.invalidations_kept", "count", "higher"),
    ("engine.invalidations_dropped", "count", "lower"),
    ("engine.rebinds_patched", "count", "higher"),
    ("engine.rebinds_full", "count", "lower"),
    ("engine.scratch_reuses", "count", "higher"),
    ("parallel.worker_busy_ms", "ms", "lower"),
    ("parallel.dispatch_wait_ms", "ms", "lower"),
    ("parallel.tasks_executed", "count", "lower"),
    ("parallel.workers", "count", "lower"),
    ("parallel.deltas_shipped", "count", "higher"),
    ("parallel.delta_respawns", "count", "lower"),
    ("core.dcc_calls", "count", "lower"),
    ("core.peel_operations", "count", "lower"),
    ("core.candidates_pruned", "count", "higher"),
    ("core.search_ms", "ms", "lower"),
    ("core.preprocess_ms", "ms", "lower"),
    ("core.topk_update_ms", "ms", "lower"),
    ("graph.peel_calls.dict", "count", "lower"),
    ("graph.peel_calls.python", "count", "lower"),
    ("graph.peel_calls.numpy", "count", "lower"),
    ("graph.peel_ms", "ms", "lower"),
    ("graph.peel_us_per_call", "us", "lower"),
    ("graph.apply_delta_ms", "ms", "lower"),
    ("graph.patch_ms", "ms", "lower"),
    ("graph.freeze_ms", "ms", "lower"),
    ("graph.memory_mb", "MB", "lower"),
    ("graph.load_s", "s", "lower"),
    ("datasets.build_s", "s", "lower"),
]

MS = 1e6  # nanoseconds per millisecond


def _median(values):
    return statistics.median(values) if values else 0.0


def _durations(spans, name):
    return [(span["t1"] - span["t0"]) / MS for span in spans
            if span["n"] == name]


def _match_client(searches, server_spans):
    """Pair each client search with the server's AsyncDCCHost.search span.

    Same (graph, d, s, k, method), and the server span lies inside the
    client's round trip; earliest unmatched span first.
    """
    by_key = {}
    for span in sorted(server_spans, key=lambda span: span["t0"]):
        by_key.setdefault(tuple(span["key"]), []).append(span)
    pairs = []
    for graph, spec, _answer, t0, t1 in sorted(searches,
                                               key=lambda row: row[3]):
        candidates = by_key.get((graph,) + tuple(spec), [])
        for number, span in enumerate(candidates):
            if t0 <= span["t0"] and span["t1"] <= t1:
                pairs.append(((t1 - t0) / MS, span))
                del candidates[number]
                break
    return pairs


def _worker_attribution(spans):
    """Per pooled request: (summed worker ms, dispatch wait ms)."""
    submits = {span["r"]: span for span in spans
               if span["n"] == "engine.submit" and span["r"] is not None}
    collects = {span["r"]: span for span in spans
                if span["n"] == "engine.collect" and span["r"] is not None}
    workers = sorted((span for span in spans
                      if span["n"] == "parallel.worker"),
                     key=lambda span: span["t0"])
    busy = []
    waits = []
    for rid, submit in submits.items():
        collect = collects.get(rid)
        if collect is None:
            continue
        d, s, k = submit["key"][1:4]
        mine = [span for span in workers
                if span["q"][:3] == [d, s, k]
                and submit["t0"] <= span["t0"]
                and span["t1"] <= collect["t1"]]
        if not mine:
            continue  # ran inline on the server, no pool dispatch
        durations = [(span["t1"] - span["t0"]) / MS for span in mine]
        busy.append(sum(durations))
        waits.append((collect["t1"] - submit["t0"]) / MS - max(durations))
    return busy, waits


def _engine_sum(stats, field, section="engines"):
    if section == "engines":
        engines = stats["serving"]["host"]["engines"].values()
    else:
        engines = stats.get("engine_info", {}).values()
    return sum(engine.get(field, 0) for engine in engines)


def per_layer(spans, outcome, workload):
    """Every per-layer metric for one traced run, as ``{name: value}``."""
    values = dict.fromkeys(name for name, _unit, _better in PER_LAYER)
    for key in values:
        values[key] = 0
    peel = {}
    for record in spans:
        if record["n"] == "peel":
            for tier, (calls, elapsed) in record["tiers"].items():
                entry = peel.setdefault(tier, [0, 0])
                entry[0] += calls
                entry[1] += elapsed
    calls = sum(entry[0] for entry in peel.values())
    peel_ms = sum(entry[1] for entry in peel.values()) / MS
    for tier in ("dict", "python", "numpy"):
        values["graph.peel_calls." + tier] = peel.get(tier, [0, 0])[0]
    values["graph.peel_ms"] = peel_ms
    values["graph.peel_us_per_call"] = 1000.0 * peel_ms / calls \
        if calls else 0.0
    values["core.search_ms"] = _median(_durations(spans, "core.search"))
    values["core.preprocess_ms"] = sum(_durations(spans, "core.preprocess"))
    values["core.topk_update_ms"] = sum(_durations(spans,
                                                   "core.topk_update"))
    values["graph.apply_delta_ms"] = _median(_durations(spans,
                                                        "graph.apply_delta"))
    values["graph.patch_ms"] = sum(_durations(spans, "graph.patch"))
    values["graph.freeze_ms"] = sum(_durations(spans, "graph.freeze"))
    values["graph.load_s"] = sum(_durations(spans, "graph.load")) / 1000.0
    values["datasets.build_s"] = sum(
        _durations(spans, "datasets.build")) / 1000.0
    if workload == "library_large":
        for key, value in outcome["search_stats"].items():
            values["core." + key] = value
        values["graph.memory_mb"] = outcome["memory_bytes"] / 2.0 ** 20
        return values
    # ---- serving workloads --------------------------------------------
    stats = outcome["stats"]
    serving = stats["serving"]
    search_spans = [span for span in spans if span["n"] == "aio.search"]
    pairs = _match_client(outcome["searches"], search_spans)
    values["aio.transport_ms"] = _median(
        [round_trip - (span["t1"] - span["t0"]) / MS
         for round_trip, span in pairs])
    values["aio.search_ms"] = _median(
        [(span["t1"] - span["t0"]) / MS for span in search_spans])
    values["aio.queue_wait_ms"] = _median(
        [(span["submit"] - span["t0"]) / MS for span in search_spans
         if span["submit"] is not None])
    values["aio.requests_cached"] = serving["requests_cached"]
    values["aio.requests_coalesced"] = serving["requests_coalesced"]
    values["aio.update_ms"] = _median(_durations(spans, "aio.update"))
    values["host.lease_ms"] = sum(_durations(spans, "host.lease"))
    values["host.admissions"] = serving["host"]["admissions"]
    values["host.evictions"] = serving["host"]["evictions"]
    values["engine.submit_ms"] = _median(_durations(spans, "engine.submit"))
    values["engine.collect_ms"] = _median(_durations(spans,
                                                     "engine.collect"))
    for metric, field in (("engine.cache_hits", "cache_hits"),
                          ("engine.cache_misses", "cache_misses"),
                          ("engine.layer_core_hits", "cache_layer_core_hits"),
                          ("engine.invalidations_kept",
                           "cache_invalidations_kept"),
                          ("engine.invalidations_dropped",
                           "cache_invalidations_dropped"),
                          ("engine.rebinds_patched", "rebinds_patched"),
                          ("engine.rebinds_full", "rebinds_full")):
        values[metric] = _engine_sum(stats, field)
    for metric, field in (("engine.scratch_reuses", "scratch_reuses"),
                          ("parallel.tasks_executed", "pool_tasks_executed"),
                          ("parallel.deltas_shipped", "pool_deltas_shipped"),
                          ("parallel.delta_respawns",
                           "pool_delta_respawns")):
        values[metric] = _engine_sum(stats, field, section="engine_info")
    values["parallel.workers"] = sum(
        len(pids) for pids in stats.get("worker_pids", {}).values())
    busy, waits = _worker_attribution(spans)
    values["parallel.worker_busy_ms"] = _median(busy)
    values["parallel.dispatch_wait_ms"] = _median(waits)
    for metric in ("dcc_calls", "peel_operations", "candidates_pruned"):
        values["core." + metric] = sum(
            span.get(metric, 0) for span in spans
            if span["n"] == "engine.collect")
    values["graph.memory_mb"] = _engine_sum(stats, "memory_bytes") \
        / 2.0 ** 20
    return values
