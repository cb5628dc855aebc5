"""Independent brute-force oracles for the tests.

Everything here is deliberately written in the dumbest possible style —
different code paths from the package — so agreement is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sparsempc.graph import Graph, build_graph


# ---------------------------------------------------------------------------
# tiny named graphs
# ---------------------------------------------------------------------------


def star(k: int) -> Graph:
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def from_mask(n: int, mask: int) -> Graph:
    """Graph from an edge bitmask over the C(n,2) pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
    return build_graph(n, edges)


def compact_by_rebuild(view):
    """``view.compact()`` by renumbering the alive edges and rebuilding the
    graph from scratch with ``build_graph`` (validation and sorts included)."""
    ids = np.flatnonzero(view.alive)
    remap = np.full(view.graph.n, -1, dtype=np.int64)
    remap[ids] = np.arange(ids.size, dtype=np.int64)
    return build_graph(ids.size, remap[view.alive_edges()]), ids


# ---------------------------------------------------------------------------
# degeneracy / arboricity by exhaustion (n <= 8)
# ---------------------------------------------------------------------------


def brute_degeneracy(g: Graph) -> int:
    """max over induced subgraphs of the minimum degree."""
    assert g.n <= 8
    best = 0
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    for mask in range(1, 2 ** g.n):
        nodes = [v for v in range(g.n) if mask >> v & 1]
        if not nodes:
            continue
        node_set = set(nodes)
        mindeg = min(len(adj[v] & node_set) for v in nodes)
        best = max(best, mindeg)
    return best


def bucket_degeneracy(g: Graph):
    """Batagelj-Zaversnik bucket-queue walk (2003), one node at a time.

    Returns ``(k, core)``: the degeneracy and the per-node core number (the
    degree at removal, raised to the running maximum)."""
    n = g.n
    deg = [int(g.indptr[v + 1] - g.indptr[v]) for v in range(n)]
    maxdeg = max(deg, default=0)
    bin_start = [0] * (maxdeg + 2)
    for dv in deg:
        bin_start[dv + 1] += 1
    for i in range(1, maxdeg + 2):
        bin_start[i] += bin_start[i - 1]
    vert = sorted(range(n), key=lambda v: deg[v])
    pos = [0] * n
    for i, v in enumerate(vert):
        pos[v] = i
    cur = list(deg)
    k = 0
    for i in range(n):
        v = vert[i]
        k = max(k, cur[v])
        for u in g.neighbors(v).tolist():
            if cur[u] > cur[v]:
                du = cur[u]
                pu, pw = pos[u], bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                cur[u] -= 1
    return k, np.array(cur, dtype=np.int64)


def brute_arboricity(g: Graph) -> int:
    """Nash-Williams: max over subgraphs H of ceil(m_H / (n_H - 1))."""
    assert g.n <= 8
    if g.m == 0:
        return 0
    edges = [tuple(e) for e in g.edges.tolist()]
    best = 1
    for mask in range(1, 2 ** g.n):
        nodes = [v for v in range(g.n) if mask >> v & 1]
        if len(nodes) < 2:
            continue
        node_set = set(nodes)
        mh = sum(1 for u, v in edges if u in node_set and v in node_set)
        if mh:
            best = max(best, math.ceil(mh / (len(nodes) - 1)))
    return best


# ---------------------------------------------------------------------------
# exact optima (n <= 14)
# ---------------------------------------------------------------------------


def opt_vertex_cover(g: Graph) -> int:
    assert g.n <= 20
    if g.m == 0:
        return 0
    masks = np.arange(2 ** g.n, dtype=np.int64)
    ok = np.ones(masks.size, np.bool_)
    for u, v in g.edges.tolist():
        ok &= (masks & ((1 << u) | (1 << v))) != 0
    covered = masks[ok]
    pop = np.array([bin(int(m)).count("1") for m in covered[: 2 ** g.n]])
    return int(pop.min())


def opt_matching(g: Graph) -> int:
    """Maximum matching size by branch-and-memoize over the node mask."""
    adj = [g.neighbors(v).tolist() for v in range(g.n)]
    memo: dict = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = rec(mask & ~(1 << v))  # leave v single
        for u in adj[v]:
            if mask >> u & 1:
                best = max(best, 1 + rec(mask & ~(1 << v) & ~(1 << u)))
        memo[mask] = best
        return best

    return rec((1 << g.n) - 1)


# ---------------------------------------------------------------------------
# peeling reference (naive, layer by layer)
# ---------------------------------------------------------------------------


def hand_peel(g: Graph, d: int, alive=None, max_layers=None):
    """Layer array of the peel of the ``alive`` nodes (default: all).

    Without ``max_layers``, returns None when peeling stalls.  With it, stops
    after ``max_layers`` layers or at a stall and leaves the nodes not peeled
    by then at 0, as ``peel_layers`` does."""
    layer = [0] * g.n
    left = set(range(g.n)) if alive is None else {v for v in range(g.n) if alive[v]}
    deg = {v: sum(1 for u in g.neighbors(v).tolist() if u in left) for v in left}
    t = 0
    while left and (max_layers is None or t < max_layers):
        drop = sorted(v for v in left if deg[v] <= d)
        if not drop:
            if max_layers is None:
                return None
            break
        t += 1
        for v in drop:
            layer[v] = t
        left -= set(drop)
        for v in drop:
            for u in g.neighbors(v).tolist():
                if u in left:
                    deg[u] -= 1
    return np.array(layer, dtype=np.int64)


def ball_members(g: Graph, alive: np.ndarray, v: int, radius: int) -> set:
    """BFS ball inside the alive mask, including v."""
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in g.neighbors(u).tolist():
                if alive[w] and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# next-fit bin packing, one item at a time
# ---------------------------------------------------------------------------


def next_fit_bins(weights, cap: int) -> list:
    """Bin id per item: open a new bin when the current one holds weight and
    the item would take it above ``cap``."""
    out = []
    fill = 0
    b = 0
    for w in weights:
        if fill > 0 and fill + w > cap:
            b += 1
            fill = 0
        out.append(b)
        fill += w
    return out
