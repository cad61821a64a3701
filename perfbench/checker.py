"""Independent d-CC answer checker for the benchmark.

Imports nothing from the program under test.  It holds its own copy of
the input edges (read from the edge-list files the benchmark wrote, or
from a fresh call of the generator that made the graph), applies the same
update batches the benchmark sends, and recomputes every coherent core
with its own plain-Python peel.

For every distinct answer it checks that

* each reported label ``L`` has at least ``s`` distinct, valid layers;
* each reported set equals the checker's own ``(d, L)``-coherent core of
  the input graph at that version (validity and maximality at once);
* the answer holds at most ``k`` sets and ``cover`` is the size of
  their union;
* identical specs on one graph version got identical answers, whether
  they were served cold or from a cache;

and, across answers, the paper's approximation guarantees between the
greedy method and the tree searches (Theorems 2-4):
``cover(GD) >= (1 - 1/e) * cover(BU/TD)`` and
``cover(BU/TD) >= cover(GD) / 4``.

``python3 perfbench/checker.py`` runs the self-test, which shows that
the checker rejects each kind of corrupted answer.
"""

import math
import sys

# Greedy's (1 - 1/e) bound, loosened by a hair for float comparison.
GD_FACTOR = 1.0 - 1.0 / math.e - 1e-9


class CheckGraph:
    """A mutable multi-layer graph: one ``{vertex: set(neighbours)}`` per layer.

    ``state_key()`` names the current edge set relative to the base, so
    cores are memoised per graph version and a graph that returns to an
    earlier edge set (an update undone by the next one) reuses them.
    """

    def __init__(self, num_layers, vertices, edges):
        self.num_layers = num_layers
        self.vertices = set(vertices)
        self.adj = [dict() for _ in range(num_layers)]
        for layer, u, v in edges:
            self._link(layer, u, v)
        self._added = set()
        self._removed = set()
        self._memo = {}

    @classmethod
    def from_edge_file(cls, path):
        """Parse a ``<layer> <u> <v>`` file with ``# layers:``/``# vertices:``."""
        layers = None
        vertices = []
        edges = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("layers:"):
                        layers = int(body.split(":", 1)[1])
                    elif body.startswith("vertices:"):
                        vertices = body.split(":", 1)[1].split()
                    continue
                layer, u, v = line.split()
                edges.append((int(layer), u, v))
        if layers is None:
            layers = 1 + max(layer for layer, _, _ in edges)
        return cls(layers, vertices, edges)

    @staticmethod
    def _edge_key(layer, u, v):
        return (layer, u, v) if repr(u) <= repr(v) else (layer, v, u)

    def _link(self, layer, u, v):
        adj = self.adj[layer]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        self.vertices.add(u)
        self.vertices.add(v)

    def has_edge(self, layer, u, v):
        return v in self.adj[layer].get(u, ())

    def apply(self, add=(), remove=()):
        """Apply one batch (adds first, then removes); returns net counts.

        Returns ``(added, removed)``: how many edges the batch really
        inserted and deleted — what an update receipt must report.
        """
        added = removed = 0
        for layer, u, v in add:
            if not self.has_edge(layer, u, v):
                self._link(layer, u, v)
                added += 1
                key = self._edge_key(layer, u, v)
                if key in self._removed:
                    self._removed.discard(key)
                else:
                    self._added.add(key)
        for layer, u, v in remove:
            if self.has_edge(layer, u, v):
                self.adj[layer][u].discard(v)
                self.adj[layer][v].discard(u)
                removed += 1
                key = self._edge_key(layer, u, v)
                if key in self._added:
                    self._added.discard(key)
                else:
                    self._removed.add(key)
        return added, removed

    def state_key(self):
        return (frozenset(self._added), frozenset(self._removed))

    def core(self, d, layers):
        """The ``(d, layers)``-coherent core: a frozenset of vertices."""
        layers = tuple(sorted(layers))
        key = (self.state_key(), d, layers)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if d <= 0:
            result = frozenset(self.vertices)
        else:
            adjs = [self.adj[layer] for layer in layers]
            # Only vertices with degree >= d on every layer can survive.
            alive = {v for v, nbrs in adjs[0].items() if len(nbrs) >= d}
            for adj in adjs[1:]:
                alive = {v for v in alive if len(adj.get(v, ())) >= d}
            degrees = [{v: sum(1 for u in adj[v] if u in alive)
                        for v in alive} for adj in adjs]
            doomed = {v for v in alive
                      if any(degree[v] < d for degree in degrees)}
            queue = list(doomed)
            while queue:
                v = queue.pop()
                for adj, degree in zip(adjs, degrees):
                    for u in adj[v]:
                        if u in alive and u not in doomed:
                            degree[u] -= 1
                            if degree[u] < d:
                                doomed.add(u)
                                queue.append(u)
            result = frozenset(alive - doomed)
        self._memo[key] = result
        return result


def check_answer(graph, d, s, k, answer):
    """Errors (a list of strings) for one answer against ``graph``'s state.

    ``answer`` has ``sets`` (lists of vertices), ``labels`` (layer
    lists) and ``cover``, as the wire response and the library result
    both provide.
    """
    errors = []
    sets = answer["sets"]
    labels = answer["labels"]
    if len(sets) > k:
        errors.append("{} sets for k={}".format(len(sets), k))
    if len(labels) != len(sets):
        errors.append("{} labels for {} sets".format(len(labels), len(sets)))
        return errors
    union = set()
    for members, label in zip(sets, labels):
        members = set(members)
        union |= members
        if label is None:
            errors.append("set reported without its layer label")
            continue
        layers = set(label)
        if len(layers) != len(label) or not all(
                isinstance(layer, int) and 0 <= layer < graph.num_layers
                for layer in layers):
            errors.append("malformed label {!r}".format(label))
            continue
        if len(layers) < s:
            errors.append("label {!r} has fewer than s={} layers".format(
                label, s))
            continue
        expected = graph.core(d, layers)
        if members != expected:
            errors.append(
                "set on {!r} is not the ({}, L)-coherent core: {} missing, "
                "{} extra".format(label, d, len(expected - members),
                                  len(members - expected)))
    if answer["cover"] != len(union):
        errors.append("cover {} but the union holds {}".format(
            answer["cover"], len(union)))
    return errors


def canonical(answer):
    """A hashable form of an answer's sets, labels and cover."""
    return (tuple(tuple(sorted(map(repr, members)))
                  for members in answer["sets"]),
            tuple(tuple(label) if label is not None else None
                  for label in answer["labels"]),
            answer["cover"])


class AnswerLog:
    """Collects distinct answers per (graph, spec, version) and cross-checks.

    ``record`` is called once per answered search with the checker graph
    already in that answer's state.  Only the first answer of each key is
    peeled; later ones must be identical to it.
    """

    def __init__(self):
        self.distinct = {}
        self.errors = []
        self.checked = 0
        self.repeats = 0

    def record(self, graph_name, graph, spec, answer):
        d, s, k, method = spec
        key = (graph_name, d, s, k, method, graph.state_key())
        form = canonical(answer)
        seen = self.distinct.get(key)
        if seen is not None:
            self.repeats += 1
            if seen[0] != form:
                self.errors.append("{}: identical spec {} answered "
                                   "differently".format(graph_name, spec))
            return
        self.distinct[key] = (form, answer.get("algorithm"),
                              answer["cover"])
        self.checked += 1
        for error in check_answer(graph, d, s, k, answer):
            self.errors.append("{} {}: {}".format(graph_name, spec, error))

    def check_guarantees(self):
        """Greedy vs tree-search cover bounds on shared (d, s, k, version)."""
        groups = {}
        for (name, d, s, k, _method, state), (_form, algorithm, cover) \
                in self.distinct.items():
            groups.setdefault((name, d, s, k, state), []).append(
                (algorithm, cover))
        pairs = 0
        for key, entries in groups.items():
            greedy = [cover for algorithm, cover in entries
                      if algorithm == "greedy"]
            trees = [cover for algorithm, cover in entries
                     if algorithm in ("bottom-up", "top-down")]
            for gd in greedy:
                for tree in trees:
                    pairs += 1
                    if gd < GD_FACTOR * tree:
                        self.errors.append(
                            "{}: greedy cover {} < (1-1/e) * {}".format(
                                key[:4], gd, tree))
                    if 4 * tree < gd:
                        self.errors.append(
                            "{}: tree cover {} < greedy {} / 4".format(
                                key[:4], tree, gd))
        return pairs

    def mean_cover(self):
        """Mean cover over distinct specs, each at its first answer.

        Keyed by spec alone, not by version, so the mean does not depend
        on how many graph versions a run happened to visit.
        """
        first = {}
        for (name, d, s, k, method, _state), (_form, _alg, cover) \
                in self.distinct.items():
            first.setdefault((name, d, s, k, method), cover)
        return sum(first.values()) / len(first) if first else 0.0


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------

def _clique(prefix, size):
    names = ["{}{}".format(prefix, i) for i in range(size)]
    return names, [(a, b) for i, a in enumerate(names)
                   for b in names[i + 1:]]


def self_test():
    """Corrupt a valid answer four ways; each must be rejected.

    The graph holds two disjoint 5-cliques on layers 0 and 1 and a path
    tail, so the (3, {0, 1})-core is both cliques: dropping one clique
    leaves a 3-core that is valid but not maximal.
    """
    left, left_edges = _clique("a", 5)
    right, right_edges = _clique("b", 5)
    edges = []
    for layer in (0, 1):
        for u, v in left_edges + right_edges:
            edges.append((layer, u, v))
        edges.append((layer, "a0", "t0"))
        edges.append((layer, "t0", "t1"))
    edges.append((2, "a0", "a1"))
    graph = CheckGraph(3, left + right + ["t0", "t1"], edges)
    core = sorted(graph.core(3, (0, 1)))
    assert core == sorted(left + right), core
    valid = {"sets": [core], "labels": [[0, 1]], "cover": len(core)}
    cases = {
        "member dropped": {"sets": [core[1:]], "labels": [[0, 1]],
                           "cover": len(core) - 1},
        "non-member added": {"sets": [core + ["t0"]], "labels": [[0, 1]],
                             "cover": len(core) + 1},
        "label shorter than s": {"sets": [core], "labels": [[0]],
                                 "cover": len(core)},
        "non-maximal subset": {"sets": [sorted(left)], "labels": [[0, 1]],
                               "cover": len(left)},
        "more than k sets": {"sets": [core, core], "labels": [[0, 1],
                                                                [0, 1]],
                             "cover": len(core)},
        "wrong cover": {"sets": [core], "labels": [[0, 1]],
                        "cover": len(core) + 2},
    }
    failures = []
    if check_answer(graph, 3, 2, 1, valid):
        failures.append("a valid answer was rejected")
    for name, answer in cases.items():
        if not check_answer(graph, 3, 2, 1, answer):
            failures.append("accepted a corrupted answer: " + name)
    # An update must change the core the checker compares against.
    graph.apply(remove=[(0, "a0", "a1"), (0, "a0", "a2")])
    if not check_answer(graph, 3, 2, 1, valid):
        failures.append("accepted a pre-update answer after an update")
    log = AnswerLog()
    log.record("g", graph, (3, 2, 1, "auto"), valid)
    log.record("g", graph, (3, 2, 1, "auto"), cases["non-maximal subset"])
    if not any("answered differently" in error for error in log.errors):
        failures.append("missed two different answers to one spec")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print("self-test FAILED:", problem)
    if not problems:
        print("checker self-test: every corrupted answer rejected")
    sys.exit(1 if problems else 0)
