"""The two serving workloads: a real ``repro serve --port 0`` child, driven over loopback.

Every request is closed-loop: a client sends its next request only after
the previous answer arrived.  ``serve_zipf`` uses two connections,
``serve_stream`` one, so each answer's graph version is known.
"""

import asyncio
import itertools
import json
import os
import random
import subprocess
import sys
import time

import inputs
from checker import AnswerLog, CheckGraph
from procs import PeakMemory

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT = 60.0
START_TIMEOUT = 60.0
WARMUP = (3, 2, 2, "bottom-up")  # outside both spec pools


class Server:
    """One ``repro serve`` child in its own process group."""

    def __init__(self, root, spec_path, env, groups, log_path,
                 trace_dir=None):
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve", spec_path,
                       "--port", "0"]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       trace_dir, "serve", spec_path, "--port", "0"]
        self.log_path = log_path
        self.groups = groups
        self.log = open(log_path, "w")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
            start_new_session=True)
        groups.add(self.process.pid)
        self.port = None

    def wait_port(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        self.port = int(line.split(":")[1].split()[0])
                        return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        with open(self.log_path) as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError("server did not come up: " + tail)

    def sample_memory(self):
        """Start sampling the group's memory; ``.stop()`` gives the peak."""
        return PeakMemory(self.groups, self.process.pid)

    def kill(self):
        self.groups.kill(self.process.pid, self.process)
        self.log.close()


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def ask(self, payload):
        """Send one request, await its answer; ``(answer, t0_ns, t1_ns)``."""
        line = (json.dumps(payload) + "\n").encode()
        t0 = time.perf_counter_ns()
        self.writer.write(line)
        await self.writer.drain()
        raw = await asyncio.wait_for(self.reader.readline(),
                                     REQUEST_TIMEOUT)
        t1 = time.perf_counter_ns()
        if not raw:
            raise RuntimeError("server closed the connection")
        return json.loads(raw), t0, t1

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def search_request(graph, spec):
    d, s, k, method = spec
    return {"graph": graph, "d": d, "s": s, "k": k, "method": method}


async def _start_and_warm(server, names):
    """Connect and answer one warm-up search per graph; the answers."""
    port = await asyncio.get_running_loop().run_in_executor(
        None, server.wait_port)
    conn = await Connection.open(port)
    answers = []
    for name in names:
        answer, _t0, _t1 = await conn.ask(search_request(name, WARMUP))
        answers.append((name, answer))
    return conn, answers


class ServeRun:
    """Shared machinery of the two serving workloads."""

    def __init__(self, ctx, graph_paths):
        self.ctx = ctx
        self.spec_path = os.path.join(ctx.work, "serve-spec.json")
        with open(self.spec_path, "w") as handle:
            json.dump({"graphs": graph_paths}, handle)
        self.names = list(graph_paths)
        self.setup_samples = []
        self.warm_answers = []

    def launch(self, trace_dir=None):
        """Start a server and warm it; returns ``(server, conn)``.

        Set-up time runs from launching the process until every graph
        answered its warm-up search: files parsed, engines admitted and
        frozen, pools spawned.
        """
        t0 = time.perf_counter()
        log = os.path.join(self.ctx.work, "server-{}.log".format(
            len(self.setup_samples)))
        server = Server(self.ctx.root, self.spec_path, self.ctx.child_env,
                        self.ctx.groups, log, trace_dir)
        try:
            conn, answers = self.ctx.loop.run_until_complete(
                _start_and_warm(server, self.names))
        except BaseException:
            server.kill()
            raise
        self.setup_samples.append(time.perf_counter() - t0)
        self.warm_answers = answers
        return server, conn

    def setup(self, repeats, trace_dir=None):
        for _ in range(repeats - 1):
            server, conn = self.launch()
            self.ctx.loop.run_until_complete(conn.close())
            server.kill()
        return self.launch(trace_dir)

    def stats(self, conn):
        answer, _t0, _t1 = self.ctx.loop.run_until_complete(
            conn.ask({"op": "stats"}))
        return answer["stats"]


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------

def run_zipf(ctx, seconds, trace_dir=None, setup_repeats=3):
    """Rounds of Zipf-repeated specs over four graphs, one update per graph per round."""
    paths = inputs.write_zipf_graphs(ctx.work)
    run = ServeRun(ctx, paths)
    rng = random.Random(ctx.seed)
    server, conn = run.setup(setup_repeats, trace_dir)
    try:
        memory = server.sample_memory()
        conn2 = ctx.loop.run_until_complete(Connection.open(server.port))
        warm, events, elapsed = ctx.loop.run_until_complete(
            _zipf_rounds(conn, conn2, rng, seconds, paths))
        rss = memory.stop()
        stats = run.stats(conn)
        ctx.loop.run_until_complete(conn.close())
        ctx.loop.run_until_complete(conn2.close())
    finally:
        server.kill()
    return _finish(run, events, elapsed, stats, rss, paths, warm)


async def _zipf_rounds(conn, conn2, rng, seconds, paths):
    """Round 0 warms the caches untimed; timing covers whole rounds after it.

    The first connection sends the round's requests one by one.  For
    the first request of a twin spec the second connection sends the
    same request at the same moment, so the two coalesce; otherwise the
    second connection is idle, and a cache hit never queues behind
    another client's cold search.
    """
    check_graphs = {name: CheckGraph.from_edge_file(path)
                    for name, path in paths.items()}
    toggles = inputs.zipf_toggle_edges(check_graphs)
    del check_graphs
    warm_events = []
    events = []
    number = 0
    start = None
    while True:
        log = warm_events if number == 0 else events
        for index, twin in inputs.zipf_round(rng):
            graph, d, s, k, method = inputs.ZIPF_POOL[index]
            spec = (d, s, k, method)
            request = search_request(graph, spec)
            if twin:
                answers = await asyncio.gather(conn.ask(request),
                                               conn2.ask(request))
            else:
                answers = [await conn.ask(request)]
            for answer, t0, t1 in answers:
                log.append(("search", graph, spec, answer, t0, t1))
        # One update per graph closes the round: removing the toggle
        # edge on even rounds, restoring it on odd ones.
        field = "remove" if number % 2 == 0 else "add"
        for graph, edge in toggles.items():
            batch = {field: [list(edge)]}
            answer, t0, t1 = await conn.ask(
                dict({"op": "update", "graph": graph}, **batch))
            log.append(("update", graph, batch, answer, t0, t1))
        number += 1
        if start is None:
            start = time.perf_counter()
        elif time.perf_counter() - start >= seconds:
            break
    return warm_events, events, time.perf_counter() - start


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------

def run_stream(ctx, seconds, trace_dir=None, setup_repeats=3):
    """Update batches with a few searches after each, on one connection."""
    paths = inputs.write_stream_graph(ctx.work)
    run = ServeRun(ctx, paths)
    rng = random.Random(ctx.seed)
    server, conn = run.setup(setup_repeats, trace_dir)
    try:
        memory = server.sample_memory()
        events, elapsed = ctx.loop.run_until_complete(
            _stream_batches(conn, rng, seconds, paths))
        rss = memory.stop()
        stats = run.stats(conn)
        ctx.loop.run_until_complete(conn.close())
    finally:
        server.kill()
    return _finish(run, events, elapsed, stats, rss, paths)


async def _stream_batches(conn, rng, seconds, paths):
    name = inputs.STREAM_NAME
    base = CheckGraph.from_edge_file(paths[name])
    pairs = inputs.stream_batch_pairs(rng, base)
    # Round-robin over a seeded order: every spec equally often.
    pool = list(inputs.STREAM_POOL)
    rng.shuffle(pool)
    specs = itertools.cycle(pool)
    events = []
    start = time.perf_counter()
    while True:
        for batch in next(pairs):
            answer, t0, t1 = await conn.ask(
                dict({"op": "update", "graph": name}, **batch))
            events.append(("update", name, batch, answer, t0, t1))
            for _ in range(inputs.STREAM_SEARCHES_PER_BATCH):
                spec = next(specs)
                answer, t0, t1 = await conn.ask(search_request(name, spec))
                events.append(("search", name, spec, answer, t0, t1))
        if time.perf_counter() - start >= seconds:
            break
    return events, time.perf_counter() - start


# ----------------------------------------------------------------------
# shared result assembly + checking
# ----------------------------------------------------------------------

def _finish(run, events, elapsed, stats, rss, paths, warm_events=()):
    """Replay the event log against the checker; the workload's outcome.

    ``warm_events`` (untimed) are replayed and checked first but count
    toward neither the timings nor the attempted operations.
    """
    graphs = {name: CheckGraph.from_edge_file(path)
              for name, path in paths.items()}
    warm = AnswerLog()
    for name, answer in run.warm_answers:
        if answer.get("ok"):
            warm.record(name, graphs[name], WARMUP, answer)
        else:
            warm.errors.append("warm-up failed: {}".format(answer))
    log = AnswerLog()
    failed = 0
    receipt_errors = []
    searches = []
    updates = []
    for number, (kind, name, payload, answer, t0, t1) in enumerate(
            list(warm_events) + list(events)):
        timed = number >= len(warm_events)
        if not answer.get("ok"):
            failed += timed
            if not timed:
                warm.errors.append("warm-up failed: {}".format(answer))
            continue
        if kind == "search":
            (log if timed else warm).record(name, graphs[name], payload,
                                            answer)
            if timed:
                searches.append((name, payload, answer, t0, t1))
        else:
            added, removed = graphs[name].apply(
                add=[tuple(edge) for edge in payload.get("add", ())],
                remove=[tuple(edge) for edge in payload.get("remove", ())])
            receipt = answer["update"]
            if (receipt["added"], receipt["removed"]) != (added, removed) \
                    or receipt["applied"] != added + removed:
                receipt_errors.append(
                    "{}: receipt {} but the batch nets +{} -{}".format(
                        name, receipt, added, removed))
            if timed:
                updates.append((name, payload, answer, t0, t1))
    pairs = log.check_guarantees()
    errors = warm.errors + log.errors + receipt_errors
    return {
        "attempted": len(events),
        "failed": failed,
        "errors": errors,
        "elapsed": elapsed,
        "searches": searches,
        "updates": updates,
        "setup_samples": run.setup_samples,
        "stats": stats,
        "rss_mb": rss,
        "cover_mean": log.mean_cover(),
        "distinct_answers": log.checked,
        "repeat_answers": log.repeats,
        "guarantee_pairs": pairs,
    }
