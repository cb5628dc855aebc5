"""Immutable CSR graphs, strict edge-list validation, and the on-disk format.

Graphs are simple and undirected.  Internally: a canonical edge array
(``u < v``, lexicographically sorted) plus CSR adjacency (``indptr`` /
``indices``) with every row sorted by neighbor id.  The row ordering is load
bearing: random choices pick "the k-th candidate in id order", so any code
path that rebuilds adjacency must preserve it.  ``GraphView.compact`` keeps
it without a sort: renumbering the alive nodes in id order is monotone, so
filtered rows and edges keep their order, and it runs in O(n + m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import alive_degrees, gather_segments


class GraphError(ValueError):
    """Base class for malformed graph input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NodeRangeError(GraphError):
    pass


class GraphFormatError(GraphError):
    """Raised when a graph file violates the text format."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: np.ndarray  # (m, 2) int64, u < v, lexicographically sorted
    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (2m,) int64, each row sorted ascending

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __repr__(self) -> str:  # keep reprs short; edges can be huge
        return f"Graph(n={self.n}, m={self.m})"


# the largest n whose edge keys ``u * n + v`` (all below n**2) fit in int64:
# floor(sqrt(2**63 - 1))
MAX_NODES = 3_037_000_499


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and build the CSR graph.

    Rejects, with distinct exception types: endpoints outside ``[0, n)``
    (:class:`NodeRangeError`), self-loops (:class:`SelfLoopError`), and
    repeated edges in either orientation (:class:`DuplicateEdgeError`).  A
    node count above :data:`MAX_NODES` raises :class:`GraphError` before
    anything n-sized is allocated.

    Each edge is one int64 key ``lo * n + hi``.  One sort of the keys leaves
    duplicates adjacent and the canonical edges in lexicographic order; one
    sort of the 2m directed keys ``src * n + dst`` lists the CSR rows in
    order, each sorted by neighbor id.
    """
    if n < 0:
        raise GraphError(f"negative node count: {n}")
    if n > MAX_NODES:
        raise GraphError(
            f"node count {n} exceeds {MAX_NODES}, the largest whose edge keys fit in int64")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise NodeRangeError(f"edge ({bad[0]}, {bad[1]}) outside node range [0, {n})")
    if e.size and (e[:, 0] == e[:, 1]).any():
        v = int(e[e[:, 0] == e[:, 1]][0, 0])
        raise SelfLoopError(f"self-loop at node {v}")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    key = lo * n + hi
    key.sort()
    dup = key[1:] == key[:-1]
    if dup.any():
        u, v = divmod(int(key[dup.argmax()]), n)
        raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
    lo, hi = np.divmod(key, n)
    # CSR: both directions, rows sorted by neighbor id
    directed = np.concatenate([key, hi * n + lo])
    directed.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e.ravel(), minlength=n), out=indptr[1:])
    return Graph(n=n, edges=np.stack([lo, hi], axis=1), indptr=indptr, indices=directed % n)


@dataclass
class GraphView:
    """A graph plus an alive mask; the unit the reduction pipeline works on."""

    graph: Graph
    alive: np.ndarray  # bool (n,)

    @classmethod
    def full(cls, g: Graph) -> "GraphView":
        return cls(graph=g, alive=np.ones(g.n, dtype=np.bool_))

    def copy(self) -> "GraphView":
        return GraphView(graph=self.graph, alive=self.alive.copy())

    def alive_count(self) -> int:
        return int(self.alive.sum())

    def alive_degrees(self) -> np.ndarray:
        return alive_degrees(self.graph.indptr, self.graph.indices, self.alive)

    def max_alive_degree(self) -> int:
        deg = self.alive_degrees()
        return int(deg.max()) if deg.size else 0

    def alive_edges(self) -> np.ndarray:
        """Canonical (u, v) rows of edges with both endpoints alive."""
        e = self.graph.edges
        keep = self.alive[e[:, 0]] & self.alive[e[:, 1]]
        return e[keep]

    def compact(self):
        """Alive-induced subgraph with renumbered ids, in O(n + m).

        Returns ``(graph, ids)`` where ``ids[i]`` is the original id of the
        compacted node ``i``.  Nothing is sorted or re-validated: the
        renumbering is monotone, so the alive edges stay canonical and in
        lexicographic order, and each alive node's row, filtered to its alive
        neighbors and renumbered, stays ascending.  The rows are gathered in
        id order and ``indptr`` is the prefix sum of the kept entries.
        """
        g = self.graph
        alive = self.alive
        ids = np.flatnonzero(alive)
        remap = np.full(g.n, -1, dtype=np.int64)
        remap[ids] = np.arange(ids.size, dtype=np.int64)
        edges = remap[self.alive_edges()]
        _, nb = gather_segments(g.indptr, g.indices, ids)
        keep = alive[nb]
        # kept entries before each row boundary of the gathered rows
        kept = np.concatenate((np.zeros(1, np.int64), np.cumsum(keep)))
        ends = np.cumsum(g.indptr[ids + 1] - g.indptr[ids])
        indptr = kept[np.concatenate((np.zeros(1, np.int64), ends))]
        sub = Graph(n=ids.size, edges=edges, indptr=indptr, indices=remap[nb[keep]])
        return sub, ids


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------
# Line 1: "n m".  Then m lines "u v" with u < v, lexicographically sorted,
# 0-based, newline-terminated.  Optional JSON sidecar at <path>.json with
# generator metadata: {"family", "params", "seed", "degeneracy"}.


def save_graph(g: Graph, path, meta: dict | None = None) -> None:
    path = Path(path)
    lines = [f"{g.n} {g.m}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges)
    path.write_text("".join(lines))
    if meta is not None:
        Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_graph(path) -> tuple[Graph, dict | None]:
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"{path}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer header") from exc
    if len(lines) != m + 1:
        raise GraphFormatError(f"{path}: header promises {m} edges, file has {len(lines) - 1}")
    edges = np.empty((m, 2), dtype=np.int64)
    prev = (-1, -1)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}: bad edge line {i + 2!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise GraphFormatError(f"{path}: edge ({u}, {v}) not in u < v form")
        if (u, v) <= prev:
            raise GraphFormatError(f"{path}: edges not sorted at line {i + 2}")
        prev = (u, v)
        edges[i] = (u, v)
    g = build_graph(n, edges)
    meta = None
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return g, meta
