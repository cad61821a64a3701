"""Spans around the program's public layer functions, from outside.

``install(directory)`` wraps the public functions each layer exposes
(``AsyncDCCHost.search``, ``DCCEngine.submit``, ``run_query_shard``,
``coherent_core`` ...) in the current process.  Each call becomes one
span record -- name, start, end, span id, parent id, request id -- and
each process appends its records to ``spans-<pid>.jsonl`` in
``directory``, one flushed line per record, so a worker that is killed
keeps what it wrote.  Pool workers fork from the traced server, so they
inherit the wrappers; a fork hook gives each its own file and lock.

Peel calls are too many for one record each: they are summed per tier
(``dict``, ``python``, ``numpy``) and flushed as one ``peel`` record at
the end of every enclosing submit, collect, worker task or
``gd_dccs``/``bu_dccs``/``td_dccs`` call.

Nothing here changes what the wrapped functions compute or return.
"""

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

now = time.perf_counter_ns


class Tracer:
    """Per-process span sink plus the request-matching tables."""

    def __init__(self, directory):
        self.directory = directory
        self._ids = itertools.count(1)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self._lock = threading.Lock()
        self._file = None
        self._pid = None
        # (graph, d, s, k, method) -> [[request id, submit start]] for
        # searches not yet answered, oldest first.
        self.pending = {}
        self.handles = {}
        self.engine_names = {}
        self.peel = {}

    def new_id(self):
        return next(self._ids)

    def emit(self, record):
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            pid = os.getpid()
            if self._pid != pid:
                self._file = open(os.path.join(
                    self.directory, "spans-{}.jsonl".format(pid)), "a")
                self._pid = pid
            self._file.write(line)
            self._file.flush()

    def span(self, name, t0, t1, sid, parent, rid, **extra):
        record = {"n": name, "t0": t0, "t1": t1, "id": sid, "p": parent,
                  "r": rid, "pid": os.getpid()}
        record.update(extra)
        self.emit(record)

    def add_peel(self, tier, elapsed):
        with self._lock:
            entry = self.peel.setdefault(tier, [0, 0])
            entry[0] += 1
            entry[1] += elapsed

    def flush_peel(self):
        with self._lock:
            peel, self.peel = self.peel, {}
        if peel:
            self.emit({"n": "peel", "tiers": peel, "pid": os.getpid()})


def _timed(tracer, name, fn, flush=False, extra=None):
    """A plain span wrapper: nests under the current span, keeps the rid."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.new_id()
        parent = _SPAN.get()
        token = _SPAN.set(sid)
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = now()
            _SPAN.reset(token)
            fields = extra(args, kwargs) if extra is not None else {}
            tracer.span(name, t0, t1, sid, parent, _REQUEST.get(), **fields)
            if flush:
                tracer.flush_peel()

    return wrapper


def _peel_tier(graph):
    if getattr(graph, "is_sharded", False):
        return "sharded"
    if not graph.is_frozen:
        return "dict"
    return "numpy" if graph.kernel == "numpy" else "python"


def _peel_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(graph, *args, **kwargs):
        t0 = now()
        try:
            return fn(graph, *args, **kwargs)
        finally:
            tracer.add_peel(_peel_tier(graph), now() - t0)

    return wrapper


def replace_everywhere(original, wrapper):
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``.

    Modules that did ``from x import f`` hold their own reference, so
    patching the defining module alone would miss them.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _import_layers():
    import repro.aio  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.core.api  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.graph.io  # noqa: F401
    import repro.host  # noqa: F401
    import repro.parallel.executor  # noqa: F401
    import repro.parallel.search  # noqa: F401
    import repro.parallel.worker  # noqa: F401


def install(directory):
    """Wrap every traced layer function in this process; returns the tracer."""
    _import_layers()
    from repro.aio import host as aio_host
    from repro.aio import server as aio_server
    from repro.core import bottomup, coverage, dcc, dcore, greedy
    from repro.core import preprocess, topdown
    from repro.datasets import synthetic
    from repro.engine import session
    from repro.graph import frozen, io, multilayer
    from repro.host import registry
    from repro.parallel import worker

    tracer = Tracer(directory)

    # -- aio: request spans, keyed so the engine can find its request ----
    AsyncDCCHost = aio_host.AsyncDCCHost
    search = AsyncDCCHost.search

    @functools.wraps(search)
    async def traced_search(self, name, d, s, k, method="auto", **options):
        rid = tracer.new_id()
        entry = [rid, None]
        key = (name, d, s, k, method)
        with tracer._lock:
            tracer.pending.setdefault(key, []).append(entry)
        rid_token = _REQUEST.set(rid)
        span_token = _SPAN.set(rid)
        t0 = now()
        try:
            return await search(self, name, d, s, k, method=method,
                                **options)
        finally:
            t1 = now()
            _SPAN.reset(span_token)
            _REQUEST.reset(rid_token)
            with tracer._lock:
                waiting = tracer.pending.get(key, [])
                if entry in waiting:
                    waiting.remove(entry)
            tracer.span("aio.search", t0, t1, rid, None, rid,
                        key=[name, d, s, k, method], submit=entry[1])

    AsyncDCCHost.search = traced_search

    update = AsyncDCCHost.update

    @functools.wraps(update)
    async def traced_update(self, name, add=(), remove=()):
        rid = tracer.new_id()
        t0 = now()
        try:
            return await update(self, name, add=add, remove=remove)
        finally:
            tracer.span("aio.update", t0, now(), rid, None, rid,
                        graph=name)

    AsyncDCCHost.update = traced_update

    # -- host: the lease cycle (pin, admit, unpin) -------------------------
    DCCHost = registry.DCCHost
    engine_of = DCCHost.engine

    @functools.wraps(engine_of)
    def traced_engine(self, name):
        engine = engine_of(self, name)
        tracer.engine_names[id(engine)] = (engine, name)
        return engine

    DCCHost.engine = traced_engine
    for attr in ("pin", "engine", "unpin"):
        setattr(DCCHost, attr,
                _timed(tracer, "host.lease", getattr(DCCHost, attr)))

    # -- engine: submit matched to its request, collect with its stats ----
    DCCEngine = session.DCCEngine
    submit = DCCEngine.submit

    @functools.wraps(submit)
    def traced_submit(self, d, s, k, method="auto", **options):
        t0 = now()
        name = tracer.engine_names.get(id(self), (None, None))[1]
        rid = None
        with tracer._lock:
            for entry in tracer.pending.get((name, d, s, k, method), ()):
                if entry[1] is None:
                    entry[1] = t0
                    rid = entry[0]
                    break
        sid = tracer.new_id()
        span_token = _SPAN.set(sid)
        rid_token = _REQUEST.set(rid)
        try:
            handle = submit(self, d, s, k, method=method, **options)
            tracer.handles[id(handle)] = (handle, rid, sid)
            return handle
        finally:
            t1 = now()
            _REQUEST.reset(rid_token)
            _SPAN.reset(span_token)
            tracer.span("engine.submit", t0, t1, sid, rid, rid,
                        key=[name, d, s, k, method])
            tracer.flush_peel()

    DCCEngine.submit = traced_submit

    SearchHandle = session.SearchHandle
    collect = SearchHandle.collect

    @functools.wraps(collect)
    def traced_collect(self):
        _handle, rid, parent = tracer.handles.pop(id(self),
                                                  (None, None, None))
        sid = tracer.new_id()
        span_token = _SPAN.set(sid)
        t0 = now()
        result = None
        try:
            result = collect(self)
            return result
        finally:
            t1 = now()
            _SPAN.reset(span_token)
            extra = {}
            if result is not None:
                stats = result.stats
                extra = {"dcc_calls": stats.dcc_calls,
                         "peel_operations": stats.peel_operations,
                         "candidates_pruned": stats.candidates_pruned}
            tracer.span("engine.collect", t0, t1, sid, parent, rid, **extra)
            tracer.flush_peel()

    SearchHandle.collect = traced_collect

    # -- parallel: worker task spans (run inside the forked workers) -------
    def shard_key(args, kwargs):
        query = args[0][0]
        return {"q": [query.d, query.s, query.k, query.method]}

    replace_everywhere(worker.run_query_shard,
                       _timed(tracer, "parallel.worker",
                              worker.run_query_shard, flush=True,
                              extra=shard_key))

    # -- core ---------------------------------------------------------------
    for module, attr in ((greedy, "gd_dccs"), (bottomup, "bu_dccs"),
                         (topdown, "td_dccs")):
        original = getattr(module, attr)
        replace_everywhere(original, _timed(tracer, "core.search", original,
                                            flush=True))
    replace_everywhere(preprocess.vertex_deletion,
                       _timed(tracer, "core.preprocess",
                              preprocess.vertex_deletion))
    coverage.DiversifiedTopK.try_update = _timed(
        tracer, "core.topk_update", coverage.DiversifiedTopK.try_update)

    # -- graph ----------------------------------------------------------------
    replace_everywhere(dcc.coherent_core,
                       _peel_wrapper(tracer, dcc.coherent_core))
    replace_everywhere(dcore.layer_core,
                       _peel_wrapper(tracer, dcore.layer_core))
    MultiLayerGraph = multilayer.MultiLayerGraph
    MultiLayerGraph.apply_delta = _timed(tracer, "graph.apply_delta",
                                         MultiLayerGraph.apply_delta)
    MultiLayerGraph.freeze = _timed(tracer, "graph.freeze",
                                    MultiLayerGraph.freeze)
    frozen.FrozenMultiLayerGraph.patched = _timed(
        tracer, "graph.patch", frozen.FrozenMultiLayerGraph.patched)
    replace_everywhere(io.read_edge_list,
                       _timed(tracer, "graph.load", io.read_edge_list))
    replace_everywhere(synthetic.synthetic_multilayer,
                       _timed(tracer, "datasets.build",
                              synthetic.synthetic_multilayer))

    # -- stats: the counters host.info() leaves out --------------------------
    serving_stats = aio_server.serving_stats

    @functools.wraps(serving_stats)
    def traced_serving_stats(host, server=None):
        payload = serving_stats(host, server)
        inner = host.host
        payload["engine_info"] = {
            name: inner.engine(name).info() for name in inner.resident()
        }
        payload["worker_pids"] = {
            name: list(inner.engine(name)._pool.worker_pids())
            for name in inner.resident()
        }
        return payload

    replace_everywhere(serving_stats, traced_serving_stats)
    return tracer


def read_spans(directory):
    """Every record written under ``directory``, in no particular order."""
    records = []
    for entry in sorted(os.listdir(directory)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(directory, entry)) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        pass  # a line cut short by the process kill
    return records
