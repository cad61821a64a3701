"""The in-process workload: ``search_dccs`` at its defaults on a 10^5-vertex graph.

One caller runs a seeded list of distinct (method, d, s, k) queries in
blocks; a small update batch (background edges removed, then restored)
opens every block, timed as ``apply_delta`` plus the patched
``freeze()`` the next search would otherwise pay.
"""

import gc
import random
import resource
import time
from math import comb

import inputs
from checker import AnswerLog, CheckGraph


def _build():
    from repro.core.api import search_dccs
    from repro.datasets import synthetic_multilayer

    dataset = synthetic_multilayer(**inputs.LIBRARY_GRAPH)
    graph = dataset.graph.thaw()
    graph.freeze()
    search_dccs(graph, 4, 1, 1, method="greedy")  # warm-up, outside the pool
    return graph, dataset.communities


def _answer(result):
    return {"sets": [sorted(members) for members in result.sets],
            "labels": [list(label) for label in result.labels],
            "cover": result.cover_size, "algorithm": result.algorithm}


def _pick_update(rng, graph, start):
    """Six background edges of one layer, both endpoints past ``start``."""
    layer = rng.randrange(graph.num_layers)
    chosen = set()
    while len(chosen) < inputs.LIBRARY_UPDATE_EDGES:
        u = rng.randrange(start, graph.num_vertices)
        nbrs = sorted(v for v in graph.neighbors(layer, u) if v >= start)
        if nbrs:
            v = rng.choice(nbrs)
            chosen.add((layer, min(u, v), max(u, v)))
    return sorted(chosen)


def run_library(ctx, seconds, setup_repeats=3):
    from repro.core.api import search_dccs

    samples = []
    graph = communities = None
    for _ in range(setup_repeats):
        graph = communities = None
        gc.collect()
        t0 = time.perf_counter()
        graph, communities = _build()
        samples.append(time.perf_counter() - t0)
    params = inputs.LIBRARY_GRAPH
    start_id = params["num_communities"] * params["community_size"]
    rng = random.Random(ctx.seed)
    queries = inputs.library_queries(graph.num_layers)
    rng.shuffle(queries)
    cursor = 0
    events = []
    pending_restore = None
    blocks = 0
    start = time.perf_counter()
    while True:
        if pending_restore is None:
            batch = {"remove": _pick_update(rng, graph, start_id)}
            pending_restore = {"add": batch["remove"]}
        else:
            batch, pending_restore = pending_restore, None
        t0 = time.perf_counter_ns()
        delta = graph.apply_delta(add=batch.get("add", ()),
                                  remove=batch.get("remove", ()))
        graph.freeze()
        t1 = time.perf_counter_ns()
        events.append(("update", batch, delta.edge_count, t0, t1))
        for _ in range(inputs.LIBRARY_BLOCK):
            method, d, s, k = queries[cursor % len(queries)]
            cursor += 1
            t0 = time.perf_counter_ns()
            result = search_dccs(graph, d, s, k, method=method)
            t1 = time.perf_counter_ns()
            events.append(("search", (d, s, k, method), result, t0, t1))
        blocks += 1
        if time.perf_counter() - start >= seconds and blocks % 2 == 0:
            break
    elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {"dcc_calls": 0, "peel_operations": 0, "candidates_pruned": 0}
    for kind, _payload, result, _t0, _t1 in events:
        if kind == "search":
            for key in stats:
                stats[key] += getattr(result.stats, key)
    searches = [(payload, _answer(result), t0, t1)
                for kind, payload, result, t0, t1 in events
                if kind == "search"]
    updates = [(payload, applied, t0, t1)
               for kind, payload, applied, t0, t1 in events
               if kind == "update"]
    order = [kind for kind, *_rest in events]
    memory = graph.freeze().memory_bytes()
    del events
    graph = None
    gc.collect()
    outcome = _check(searches, updates, order, communities)
    outcome.update({
        "attempted": len(order),
        "failed": 0,
        "elapsed": elapsed,
        "setup_samples": samples,
        "rss_mb": rss,
        "memory_bytes": memory,
        "search_stats": stats,
        "searches": searches,
        "updates": updates,
    })
    return outcome


def _check(searches, updates, order, communities):
    """Replay the run against the checker's own copy of the input graph."""
    from repro.datasets import synthetic_multilayer

    params = inputs.LIBRARY_GRAPH
    source = synthetic_multilayer(**params).graph
    graph = CheckGraph(
        source.num_layers, range(source.num_vertices),
        ((layer, u, v) for layer in range(source.num_layers)
         for u, v in source.edges(layer)))
    source = None
    errors = []
    windows = params["num_layers"] - params["span"] + 1
    for number, members in enumerate(communities):
        first = number % windows
        for layer in range(first, first + params["span"]):
            adj = graph.adj[layer]
            if any(len(adj.get(v, set()) & members) < params["d"]
                   for v in members):
                errors.append("planted community {} is not a {}-core on "
                              "layer {}".format(number, params["d"], layer))
    planted = set().union(*communities)
    log = AnswerLog()
    searches_iter = iter(searches)
    updates_iter = iter(updates)
    recovery_checked = 0
    for kind in order:
        if kind == "update":
            batch, applied, _t0, _t1 = next(updates_iter)
            added, removed = graph.apply(add=batch.get("add", ()),
                                         remove=batch.get("remove", ()))
            if applied != added + removed:
                errors.append("update applied {} edges, the batch nets "
                              "{}".format(applied, added + removed))
            continue
        spec, answer, _t0, _t1 = next(searches_iter)
        log.record("library", graph, spec, answer)
        d, s, k, _method = spec
        # With k at least the number of layer subsets, every d-CC fits
        # in the answer, so every community planted on >= s layers as a
        # d-core (d <= the generator's d) must be covered.
        if s <= params["span"] and d <= params["d"] and \
                k >= comb(params["num_layers"], s):
            recovery_checked += 1
            covered = set().union(*map(set, answer["sets"])) \
                if answer["sets"] else set()
            missing = len(planted - covered)
            if missing:
                errors.append("{}: {} planted vertices not recovered".format(
                    spec, missing))
    pairs = log.check_guarantees()
    return {"errors": errors + log.errors, "cover_mean": log.mean_cover(),
            "distinct_answers": log.checked,
            "repeat_answers": log.repeats, "guarantee_pairs": pairs,
            "recovery_checked": recovery_checked}
