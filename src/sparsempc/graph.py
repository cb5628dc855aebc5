"""Immutable CSR graphs, strict edge-list validation, and the on-disk format.

Graphs are simple and undirected.  Internally: a canonical edge array
(``u < v``, lexicographically sorted) plus CSR adjacency (``indptr`` /
``indices``) with every row sorted by neighbor id.  The row ordering is load
bearing: random choices pick "the k-th candidate in id order", so any code
path that rebuilds adjacency must preserve it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import alive_degrees


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


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and build the CSR graph.

    Rejects, with distinct exception types: endpoints outside ``[0, n)``
    (:class:`NodeRangeError`), self-loops (:class:`SelfLoopError`), and
    repeated edges in either orientation (:class:`DuplicateEdgeError`).
    """
    if n < 0:
        raise GraphError(f"negative node count: {n}")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise NodeRangeError(f"edge ({bad[0]}, {bad[1]}) outside node range [0, {n})")
    if e.size and (e[:, 0] == e[:, 1]).any():
        v = int(e[e[:, 0] == e[:, 1]][0, 0])
        raise SelfLoopError(f"self-loop at node {v}")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    if lo.size > 1:
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if dup.any():
            j = int(np.flatnonzero(dup)[0])
            raise DuplicateEdgeError(f"duplicate edge ({lo[j]}, {hi[j]})")
    canon = np.stack([lo, hi], axis=1)
    # CSR: both directions, rows sorted by neighbor id
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    perm = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n=n, edges=canon, indptr=indptr, indices=dst[perm])


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
        """Alive-induced subgraph with renumbered ids.

        Returns ``(graph, ids)`` where ``ids[i]`` is the original id of the
        compacted node ``i``.  Adjacency row order (ascending neighbor id) is
        preserved because the renumbering is monotone.
        """
        ids = np.flatnonzero(self.alive)
        remap = np.full(self.graph.n, -1, dtype=np.int64)
        remap[ids] = np.arange(ids.size, dtype=np.int64)
        e = self.alive_edges()
        return build_graph(ids.size, remap[e]), ids


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
