"""Independent brute-force oracles for the tests.

Everything here is deliberately written in the dumbest possible style —
different code paths from the package — so agreement is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from sparsempc import rng
from sparsempc.graph import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    GraphFormatError,
    NodeRangeError,
    SelfLoopError,
    build_graph,
)
from sparsempc.reduction import ProposalSet


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


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Up to ``m`` distinct random edges on ``n`` nodes (draws that repeat an
    edge or loop on a node are dropped)."""
    r = np.random.default_rng(seed)
    pairs = {(int(a), int(b)) if a < b else (int(b), int(a))
             for a, b in r.integers(0, n, size=(m, 2)) if a != b}
    return build_graph(n, np.array(sorted(pairs), np.int64).reshape(-1, 2))


def disjoint_paths(k: int, length: int) -> Graph:
    """``k`` paths of ``length`` nodes each; path ``i`` holds the nodes
    ``i * length .. (i + 1) * length - 1`` in order."""
    return build_graph(k * length, [(i * length + j, i * length + j + 1)
                                    for i in range(k) for j in range(length - 1)])


def from_mask(n: int, mask: int) -> Graph:
    """Graph from an edge bitmask over the C(n,2) pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
    return build_graph(n, edges)


def build_graph_by_lexsort(n: int, edges) -> Graph:
    """``build_graph`` by two lexsorts over (lo, hi) column pairs and an
    unbuffered add for the row counts, with the same checks in the same order."""
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
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    perm = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n=n, edges=np.stack([lo, hi], axis=1), indptr=indptr, indices=dst[perm])


def compact_by_rebuild(view):
    """``view.compact()`` by renumbering the alive edges and rebuilding the
    graph from scratch with ``build_graph`` (validation and sorts included)."""
    ids = np.flatnonzero(view.alive)
    remap = np.full(view.graph.n, -1, dtype=np.int64)
    remap[ids] = np.arange(ids.size, dtype=np.int64)
    e = view.graph.edges
    return build_graph(ids.size, remap[e[view.alive[e[:, 0]] & view.alive[e[:, 1]]]]), ids


# ---------------------------------------------------------------------------
# the on-disk format, one edge line at a time
# ---------------------------------------------------------------------------


def save_graph_by_lines(g: Graph, path) -> None:
    """``save_graph`` without a sidecar, formatting one line per edge."""
    lines = [f"{g.n} {g.m}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges)
    Path(path).write_text("".join(lines))


def load_graph_by_lines(path):
    """``load_graph``, parsing and checking one edge line at a time."""
    path = Path(path)
    lines = path.read_text().splitlines()
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
        bad = GraphFormatError(f"{path}: bad edge line {i + 2}")
        try:
            u, v = (int(t) for t in line.split())
        except ValueError:  # not two integers
            raise bad from None
        if not all(-(2 ** 63) <= x < 2 ** 63 for x in (u, v)):
            raise bad
        if u >= v:
            raise GraphFormatError(f"{path}: edge ({u}, {v}) not in u < v form")
        if (u, v) <= prev:
            raise GraphFormatError(f"{path}: edges not sorted at line {i + 2}")
        prev = (u, v)
        edges[i] = (u, v)
    g = build_graph(n, edges)
    sidecar = Path(str(path) + ".json")
    return g, json.loads(sidecar.read_text()) if sidecar.exists() else None


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


def ball_peel(g: Graph, alive: np.ndarray, v: int, radius: int, d: int) -> int:
    """``v``'s layer in the peel of the ``alive`` nodes with threshold ``d``
    if it is at most ``radius``, else 0 ("deeper"), computed from the rows
    of ``v``'s alive radius-``radius`` ball alone: the ball nodes peel
    ``radius`` layers with their degrees counted over their alive rows, and
    a node outside the ball is never removed."""
    ball = ball_members(g, alive, v, radius)
    rows = {u: [w for w in g.neighbors(u).tolist() if alive[w]] for u in ball}
    deg = {u: len(row) for u, row in rows.items()}
    left = set(ball)
    for t in range(1, radius + 1):
        drop = [u for u in left if deg[u] <= d]
        if v in drop:
            return t
        left.difference_update(drop)
        for u in drop:
            for w in rows[u]:
                if w in left:
                    deg[w] -= 1
    return 0


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


# ---------------------------------------------------------------------------
# selection sweeps: one pass over every proposal per layer
# ---------------------------------------------------------------------------


def check_matching_proposals_by_sets(g: Graph, hp, props) -> None:
    """The matching proposal invariants, checked with hash-based ``np.unique``
    and Python sets; raises ``InvariantError`` with the package's messages."""
    from sparsempc.reduction import InvariantError

    if props.kind != "matching":
        raise InvariantError(f"expected matching proposals, got {props.kind}")
    mk, pr = props.marked, props.proposed
    if mk.shape[0] != np.unique(mk[:, 0]).size:
        raise InvariantError("a node marked more than one outgoing edge")
    if pr.shape[0] != np.unique(pr[:, 1]).size:
        raise InvariantError("a node proposed more than one incoming edge")
    if (hp.layer[mk[:, 0]] >= hp.layer[mk[:, 1]]).any():
        raise InvariantError("marked edge not oriented child -> parent")
    mk_keys = set((mk[:, 0] * g.n + mk[:, 1]).tolist())
    if not set((pr[:, 0] * g.n + pr[:, 1]).tolist()) <= mk_keys:
        raise InvariantError("proposed edge was never marked")


def select_matching_per_layer(g: Graph, hp, props):
    """The highest-layer-first matching sweep, filtering every proposal once
    per receiving layer: O(ell * proposals).  Returns ``(selected,
    removed)``, the edges sorted by (child, parent) and the ids sorted."""
    check_matching_proposals_by_sets(g, hp, props)
    pr = props.proposed
    alive = np.ones(g.n, dtype=np.bool_)
    chosen = []
    if pr.shape[0]:
        recv_layer = hp.layer[pr[:, 1]]
        for lv in np.unique(recv_layer)[::-1]:
            cand = pr[recv_layer == lv]
            ok = alive[cand[:, 0]] & alive[cand[:, 1]]
            cand = cand[ok]
            alive[cand[:, 0]] = False
            alive[cand[:, 1]] = False
            chosen.append(cand)
    selected = np.concatenate(chosen) if chosen else np.empty((0, 2), np.int64)
    selected = selected[np.lexsort((selected[:, 1], selected[:, 0]))]
    return selected, np.unique(selected)


def select_mis_per_layer(g: Graph, hp, props):
    """The highest-layer-first independent-set sweep, filtering every
    proposal once per proposing layer: O(ell * proposals).  Returns
    ``(selected, removed)``, both sorted."""
    alive = np.ones(g.n, dtype=np.bool_)
    chosen = []
    lay = hp.layer[props.proposed]
    for lv in sorted(set(lay.tolist()), reverse=True):
        cand = props.proposed[lay == lv]
        cand = cand[alive[cand]]
        chosen.append(cand)
        alive[cand] = False
        for v in cand.tolist():
            alive[g.neighbors(v)] = False
    selected = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, np.int64)
    return selected, np.flatnonzero(~alive)


# ---------------------------------------------------------------------------
# greedy finish: priority rounds ranked over all n nodes, edge by edge
# ---------------------------------------------------------------------------


def luby_mis_round_all_n(g: Graph, alive: np.ndarray, seed: int, round_idx: int) -> np.ndarray:
    """An independent-set priority round that draws a priority for every one
    of the n nodes, ranks all of them by ``(priority, id)`` and scans every
    edge; a node joins iff it ranks below all of its alive neighbors."""
    nodes = np.flatnonzero(alive)
    if not nodes.size:
        return nodes
    pri = rng.hash_u64(seed, rng.GREEDY_NODE, round_idx, np.arange(g.n))
    order = np.lexsort((np.arange(g.n), pri))
    rank = np.empty(g.n, np.int64)
    rank[order] = np.arange(g.n, dtype=np.int64)
    e = g.edges
    live = alive[e[:, 0]] & alive[e[:, 1]]
    e = e[live]
    nbest = np.full(g.n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(nbest, e[:, 0], rank[e[:, 1]])
    np.minimum.at(nbest, e[:, 1], rank[e[:, 0]])
    return nodes[rank[nodes] < nbest[nodes]]


def luby_matching_round_by_edge(g: Graph, alive: np.ndarray, seed: int, round_idx: int) -> list:
    """A matching priority round, one alive edge at a time: an edge joins iff
    its ``(priority, u * n + v)`` is below that of every other alive edge
    sharing an endpoint."""
    live = [(u, v) for u, v in g.edges.tolist() if alive[u] and alive[v]]
    key = {(u, v): (int(rng.hash_u64(seed, rng.GREEDY_EDGE, round_idx, u * g.n + v)), u * g.n + v)
           for u, v in live}
    won = []
    for u, v in live:
        rivals = [f for f in live if f != (u, v) and {u, v} & set(f)]
        if all(key[(u, v)] < key[f] for f in rivals):
            won.append((u, v))
    return won


def finish_by_rounds(g: Graph, alive: np.ndarray, kind: str, seed: int):
    """The greedy finish from the two oracle rounds above: rounds until one
    selects nothing, each removing its winners (and, for the independent
    set, their alive neighbors).  Returns ``(selected, removed)`` as sorted
    lists (matching edges as ``[u, v]`` pairs)."""
    alive = np.array(alive, dtype=bool)
    selected, removed = [], set()
    round_idx = 0
    while True:
        if kind == "matching":
            won = luby_matching_round_by_edge(g, alive, seed, round_idx)
            gone = {x for e in won for x in e}
            selected.extend([u, v] for u, v in won)
        else:
            won = luby_mis_round_all_n(g, alive, seed, round_idx).tolist()
            gone = set(won) | {u for v in won for u in g.neighbors(v).tolist() if alive[u]}
            selected.extend(won)
        if not won:
            break
        for x in gone:
            alive[x] = False
        removed |= gone
        round_idx += 1
    return sorted(selected), sorted(removed)


# ---------------------------------------------------------------------------
# full-graph phase statistics: the formulas reduce_once and the
# mark-and-propose steps used before they read only the rows that can matter
# ---------------------------------------------------------------------------


def _edge_sources(g: Graph) -> np.ndarray:
    """CSR row id for every adjacency slot."""
    return np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)


def in_degrees_all_rows(g: Graph, hp, alive=None) -> np.ndarray:
    """Per-node count of (alive) neighbors in strictly lower layers, read
    from every row."""
    src = _edge_sources(g)
    mask = hp.layer[g.indices] < hp.layer[src]
    if alive is not None:
        mask &= alive[g.indices]
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(mask)])
    return cs[g.indptr[1:]] - cs[g.indptr[:-1]]


def heavy_counts_all_rows(g: Graph, hp, removed: np.ndarray, heavy: int) -> tuple:
    """``(heavy_nodes_before, heavy_survivors_after)`` of a phase on ``g``
    whose selection removed the nodes ``removed``."""
    alive = np.ones(g.n, np.bool_)
    alive[removed] = False
    before = in_degrees_all_rows(g, hp) >= heavy
    after = in_degrees_all_rows(g, hp, alive) >= heavy
    return int(before.sum()), int((before & alive & after).sum())


def alive_degrees_all_rows(g: Graph, alive: np.ndarray) -> np.ndarray:
    """Per-node count of alive neighbors over the whole graph, zero for dead
    nodes, counted from the edge list: each edge with two alive endpoints
    adds one to both."""
    e = g.edges[alive[g.edges[:, 0]] & alive[g.edges[:, 1]]]
    deg = np.zeros(g.n, np.int64)
    np.add.at(deg, e.ravel(), 1)
    return deg


def mis_proposals_all_rows(g: Graph, hp, p: float, seed: int) -> tuple:
    """``(marked, proposed)`` of the MIS mark-and-propose step, the blocking
    same-layer neighbors looked up in every row, marked or not."""
    marked = rng.uniform(seed, rng.MARK_NODE, 0, np.arange(g.n)) < p
    src = _edge_sources(g)
    blocking = marked[g.indices] & (hp.layer[g.indices] == hp.layer[src])
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(blocking)])
    blocked = (cs[g.indptr[1:]] - cs[g.indptr[:-1]]) > 0
    return np.flatnonzero(marked), np.flatnonzero(marked & ~blocked)


def mark_and_propose_matching_by_rank(g: Graph, hp, seed: int):
    """Matching mark-and-propose that ranks every outgoing slot of every row
    and lexsorts the marks by (parent, child).  Returns the ProposalSet."""
    lay = hp.layer
    src = _edge_sources(g)
    out_mask = lay[g.indices] > lay[src]
    # rank of each outgoing slot within its row, in neighbor-id order
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(out_mask)])
    rank = cs[1:] - cs[g.indptr[src]]  # valid where out_mask
    outdeg = cs[g.indptr[1:]] - cs[g.indptr[:-1]]
    pick = rng.pick_index(seed, rng.MARK_EDGE, 0, np.arange(g.n), outdeg)
    hit = out_mask & (rank - 1 == pick[src])  # rank is 1-based at slot positions
    marked = np.stack([src[hit], g.indices[hit]], axis=1)  # sorted by child id

    # group marked edges by parent; pick one per parent in child-id order
    if marked.shape[0]:
        order = np.lexsort((marked[:, 0], marked[:, 1]))
        by_parent = marked[order]
        counts = np.bincount(by_parent[:, 1], minlength=g.n)
        starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        pick_in = rng.pick_index(seed, rng.PROPOSE_EDGE, 0, np.arange(g.n), counts)
        parents = np.flatnonzero(counts > 0)
        # one edge per parent, parents ascending: in (parent, child) order
        proposed = by_parent[starts[parents] + pick_in[parents]]
    else:
        proposed = np.empty((0, 2), np.int64)
    return ProposalSet(kind="matching", marked=marked, proposed=proposed)
