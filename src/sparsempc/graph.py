"""Immutable CSR graphs, strict edge-list validation, and the on-disk format.

Graphs are simple and undirected.  Internally: a canonical edge array
(``u < v``, lexicographically sorted) plus CSR adjacency (``indptr`` /
``indices``) with every row sorted by neighbor id.  The row ordering is load
bearing: random choices pick "the k-th candidate in id order", so any code
path that rebuilds adjacency must preserve it.  ``GraphView.compact`` keeps
it without a sort: renumbering the alive nodes in id order is monotone, so
filtered rows and edges keep their order, and it costs n plus the alive
nodes' rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import gather_segments


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

    def compact(self):
        """Alive-induced subgraph with renumbered ids, in O(n + alive rows).

        Returns ``(graph, ids)`` where ``ids[i]`` is the original id of the
        compacted node ``i``.  When every node is alive that is the graph
        itself and ``arange(n)``.  Otherwise nothing is sorted or
        re-validated: the alive nodes' rows are gathered in id order and
        filtered to their alive neighbors, and the renumbering is monotone,
        so each row stays ascending and the entries with ``src < nb`` are the
        alive edges, canonical and in lexicographic order.  ``indptr`` is the
        prefix sum of the kept entries.
        """
        g = self.graph
        alive = self.alive
        ids = np.flatnonzero(alive)
        if ids.size == g.n:
            return g, ids
        remap = np.full(g.n, -1, dtype=np.int64)
        remap[ids] = np.arange(ids.size, dtype=np.int64)
        src, nb = gather_segments(g.indptr, g.indices, ids)
        keep = alive[nb]
        # kept entries before each row boundary of the gathered rows
        kept = np.concatenate((np.zeros(1, np.int64), np.cumsum(keep)))
        ends = np.cumsum(g.indptr[ids + 1] - g.indptr[ids])
        indptr = kept[np.concatenate((np.zeros(1, np.int64), ends))]
        src, nb = remap[src[keep]], remap[nb[keep]]
        fwd = src < nb
        edges = np.stack((src[fwd], nb[fwd]), axis=1)
        return Graph(n=ids.size, edges=edges, indptr=indptr, indices=nb), ids


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------
# Line 1: "n m".  Then m lines "u v" with u < v, lexicographically sorted,
# 0-based, newline-terminated.  Optional JSON sidecar at <path>.json with
# generator metadata: {"family", "params", "seed", "degeneracy"}.


# 10**k for k = 0..18, every power below the int64 limit
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MAX_DIGITS = 18  # a number of at most 18 digits fits in int64


def _edge_lines(edges: np.ndarray) -> bytes:
    """The lines ``"u v\n"`` of the nonnegative (m, 2) ``edges``, in ASCII,
    written digit by digit over the whole array: each number's digit count
    is a binary search in the powers of ten, and pass ``k`` writes every
    number's ``k``-th digit from the right."""
    vals = edges.ravel()
    if not vals.size:
        return b""
    ndig = np.searchsorted(_POW10[1:], vals, side="right") + 1
    ends = np.cumsum(ndig + 1)  # one past each number's separator
    buf = np.empty(int(ends[-1]), np.uint8)
    buf[ends[0::2] - 1] = ord(" ")
    buf[ends[1::2] - 1] = ord("\n")
    for k in range(int(ndig.max())):
        has = ndig > k
        buf[ends[has] - 2 - k] = ord("0") + vals[has] // _POW10[k] % 10
    return buf.tobytes()


def save_graph(g: Graph, path, meta: dict | None = None) -> None:
    path = Path(path)
    path.write_bytes(f"{g.n} {g.m}\n".encode() + _edge_lines(g.edges))
    if meta is not None:
        Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def _edge_line(path, line: str, i: int, prev: tuple) -> tuple[int, int]:
    """Edge line ``i`` (0-based, after the header) read on its own, checked
    against the edge ``prev`` on the line before it.  A line that is not two
    integers within int64 is a bad edge line."""
    try:
        u, v = np.array([int(t) for t in line.split()], np.int64).tolist()
    except (ValueError, OverflowError):
        raise GraphFormatError(f"{path}: bad edge line {i + 2}") from None
    if u >= v:
        raise GraphFormatError(f"{path}: edge ({u}, {v}) not in u < v form")
    if (u, v) <= prev:
        raise GraphFormatError(f"{path}: edges not sorted at line {i + 2}")
    return u, v


def _read_edges(path, body: list[str]) -> np.ndarray:
    """The (m, 2) edges on the edge lines ``body``, raising for the first
    offending line what a line-by-line read would.

    When every line is plain, two runs of at most 18 ASCII digits around one
    space as :func:`save_graph` writes them, the lines are parsed together
    by digit arithmetic and checked by array comparisons.  Any other body,
    or one that fails those checks, is read line by line by
    :func:`_edge_line`, which raises the first offending line's error.
    """
    m = len(body)
    edges = np.zeros((m, 2), np.int64)
    if m:
        raw = np.frombuffer("\n".join(body).encode(), np.uint8)
        # line i is raw[start[i]:end[i]]; mid[i] is the first space at or
        # after start[i] (the end of the text when there is none)
        end = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
        start = np.concatenate((np.zeros(1, np.int64), end[:-1] + 1))
        spaces = np.flatnonzero(raw == ord(" "))
        first = np.searchsorted(spaces, start)
        mid = np.append(spaces, raw.size)[first]
        ulen, vlen = mid - start, end - mid - 1
        plain = (
            (np.diff(np.append(first, spaces.size)) == 1).all()
            and ((raw - ord("0") < 10) | (raw == ord("\n")) | (raw == ord(" "))).all()
            and min(ulen.min(), vlen.min()) >= 1
            and max(ulen.max(), vlen.max()) <= _MAX_DIGITS
        )
        if plain:
            # every line's two numbers, summed digit by digit from the right
            stop = np.column_stack((mid, end)).ravel()
            length = np.column_stack((ulen, vlen)).ravel()
            vals = edges.ravel()
            for k in range(int(length.max())):
                digit = (raw[np.maximum(stop - 1 - k, 0)] - ord("0")).astype(np.int64)
                digit *= _POW10[k]
                digit[length <= k] = 0
                vals += digit
            u, v = edges[:, 0], edges[:, 1]
            pu = np.concatenate(([-1], u[:-1]))
            pv = np.concatenate(([-1], v[:-1]))
            if ((u < v) & ((u > pu) | ((u == pu) & (v > pv)))).all():
                return edges
    prev = (-1, -1)
    for i, line in enumerate(body):
        edges[i] = prev = _edge_line(path, line, i, prev)
    return edges


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
    g = build_graph(n, _read_edges(path, lines[1:]))
    meta = None
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return g, meta
