"""Hot loops: batch peeling, degeneracy ordering, bounded-radius ball scans,
bin packing.

Each kernel has one implementation, in numpy.  Peeling advances a whole layer
per step, drawing each small layer from the neighbors of the last one, and
starts from the row lengths, so it counts no degrees; the ball scan
expands the balls of all sources at once over one sorted array of
``slot * n + node`` keys.  Degeneracy ordering runs one fixed-point peel per
core value.  Bin packing takes its items heaviest first and walks runs of
equal weight, computing each run's bin ids arithmetically: O(n) numpy work
plus one interpreted step per distinct weight.  Deduping goes
through :func:`sorted_unique`, a sort, not numpy's hash-based ``np.unique``.
The test suite checks the kernels against brute-force oracles or invariants;
``perfbench/run.py --trace 1`` reports each kernel's self time on the
benchmark workloads.  All kernels take raw CSR arrays (``indptr``/``indices``)
so callers can hand them compacted subgraphs.
"""

from __future__ import annotations

import numpy as np

# always False, numpy being the only implementation; perfbench/run.py reads it
USE_NUMBA = False


def gather_segments(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray):
    """Concatenate the CSR adjacency rows of ``nodes``.

    Returns ``(sources, neighbors)`` where ``sources[j]`` is the node whose row
    produced ``neighbors[j]``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sources = np.repeat(nodes, lengths)
    # index into `indices`: a ramp over the output, shifted per row by the
    # row's start minus its offset in the output
    index = np.repeat(starts - (ends - lengths), lengths)
    index += np.arange(total, dtype=np.int64)
    return sources, indices[index]


def sorted_unique(a: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The distinct values of ``a`` (flattened), ascending: ``np.unique(a)``
    by a sort that keeps the first of each run of equal values.  Without
    counts or indices numpy 2.4's ``np.unique`` hashes, which is far slower
    on integers (195 ms against 3 ms for ``np.sort`` on 262144 int64).
    ``kind`` goes to ``np.sort``: ``"stable"`` (a merge of the ascending
    runs it finds, for int64) is the faster one when ``a`` is a
    concatenation of a few ascending arrays."""
    a = np.sort(a, axis=None, kind=kind)
    if a.size > 1:
        first = np.empty(a.size, np.bool_)
        first[0] = True
        np.not_equal(a[1:], a[:-1], out=first[1:])
        a = a[first]
    return a


def alive_degrees(indptr: np.ndarray, indices: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Per-node count of alive neighbors (zero for dead nodes).  The alive
    hits are summed into one int64 prefix buffer, so the only full-length
    temporary besides it is the bool hit mask."""
    cs = np.empty(indices.size + 1, np.int64)
    cs[0] = 0
    np.cumsum(alive[indices], dtype=np.int64, out=cs[1:])
    deg = cs[indptr[1:]] - cs[indptr[:-1]]
    deg[~alive] = 0
    return deg


# ---------------------------------------------------------------------------
# batch peeling
# ---------------------------------------------------------------------------


def _peel(indptr, indices, d, deg, layer):
    # Peels the nodes whose `layer` entry is 0, writing layers 1..t in place;
    # `deg` holds their degrees among themselves and is decremented in place.
    # Only neighbors of the layer just peeled lose degree, so the next layer
    # is drawn from them.  A small layer (rows under n/4 entries, as in deep
    # towers) sorts its unpeeled neighbors and costs the size of its rows,
    # not n; a large one (the first layers of a peel) is cheaper as one pass
    # over all n nodes.  Returns ``(t, peeled)``.
    n = layer.size
    frontier = np.flatnonzero((layer == 0) & (deg <= d))
    peeled = []
    t = 0
    while frontier.size:
        t += 1
        layer[frontier] = t
        peeled.append(frontier)
        _, nb = gather_segments(indptr, indices, frontier)
        if 4 * nb.size > n:
            deg -= np.bincount(nb, minlength=n)
            frontier = np.flatnonzero((layer == 0) & (deg <= d))
        else:
            # with counts, np.unique sorts (without, numpy 2.4 hashes, slower)
            hit, count = np.unique(nb[layer[nb] == 0], return_counts=True)
            deg[hit] -= count
            frontier = hit[deg[hit] <= d]
    peeled = np.concatenate(peeled) if peeled else frontier[:0]
    return t, peeled


def peel_layers(indptr, indices, d: int):
    """Batch-peel the whole CSR graph with threshold ``d``, to its fixed point.

    Layer ``t`` (1-based) holds the nodes whose remaining degree is <= d once
    layers below ``t`` are gone; all such nodes drop simultaneously.  Returns
    ``(layer, t, peeled)``: ``layer`` is 0 for the nodes never peeled (the
    peel stalled on them: every one has more than ``d`` unpeeled
    neighbors), ``t`` is the number of layers, and ``peeled`` lists the
    layered nodes layer by layer, ascending within a layer.  The degrees
    are the row lengths of ``indptr``, so nothing is counted.
    """
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    layer = np.zeros(deg.size, np.int64)
    t, peeled = _peel(indptr, indices, int(d), deg, layer)
    return layer, t, peeled


# ---------------------------------------------------------------------------
# degeneracy ordering (one fixed-point peel per core value)
# ---------------------------------------------------------------------------


def degeneracy_order(indptr, indices):
    """Core numbers and a batched peel order in O(n·#core-values + m).

    Returns ``(k, order, core)``: ``core[v]`` is the core number of ``v`` (the
    largest ``c`` such that ``v`` lies in a subgraph of minimum degree ``c``),
    ``k = max(core)`` is the degeneracy, and ``order`` is a removal order in
    which every node has at most ``k`` neighbors later than itself.

    Each pass raises the threshold to the minimum remaining degree ``c`` and
    peels at ``c`` to its fixed point, carrying the degrees from pass to pass:
    what is left has minimum degree above ``c``, so every node the pass peels
    has core number exactly ``c``.  ``order`` lists the passes in turn, each
    by peeling layer and then by id; a node had at most ``c`` unpeeled
    neighbors when its layer dropped.

    Each peeling layer costs a fixed run of numpy calls, so graphs that peel
    in tens of thousands of layers pay for that: a path peels two nodes per
    layer, so a 65536-node path takes 32768 layers.
    """
    n = indptr.size - 1
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    # nonzero once peeled: the layer within the node's pass
    layer = np.zeros(n, np.int64)
    core = np.zeros(n, np.int64)
    passes = []
    k = 0
    left = n
    while left:
        k = int(deg[layer == 0].min())
        # _peel, not peel_layers: the wrapper a tracer installs on
        # peel_layers would take this kernel's time
        _, peeled = _peel(indptr, indices, k, deg, layer)
        passes.append(peeled)
        core[peeled] = k
        left -= peeled.size
    order = np.concatenate(passes) if passes else np.empty(0, np.int64)
    return k, order, core


# ---------------------------------------------------------------------------
# bounded-radius ball statistics (for neighborhood-gather cost metering)
# ---------------------------------------------------------------------------


def ball_stats(indptr, indices, member, sources, radius: int, weights):
    """Per-source size and weight of the radius-``radius`` ball.

    BFS stays inside ``member`` nodes (sources must be members; they may be
    unsorted or repeated).  Returns ``(counts, weight_sums)``: the number of
    reached nodes including the source, and the sum of ``weights`` over them,
    both int64 and exact.

    All balls expand together in one breadth-first scan: ball ``slot`` (one
    per entry of ``sources``) is stored as the keys ``slot * n + node``, so
    one sorted int64 array holds every ball grouped by slot, and a node
    reached from two sources is two keys.  Each step gathers the frontier's
    member neighbors, sorts and dedupes them, and drops keys already in a
    ball with ``searchsorted``; the scan stops early once no ball grows.
    Work and memory are proportional to the total ball volume rather than to
    ``len(sources) * n``.
    """
    member = np.asarray(member, dtype=np.bool_)
    sources = np.asarray(sources, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    n = member.size
    k = sources.size
    if k == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ball = np.arange(k, dtype=np.int64) * n + sources  # sorted: sources < n
    frontier = ball
    for _ in range(int(radius)):
        node = frontier % n
        lengths = indptr[node + 1] - indptr[node]
        _, nb = gather_segments(indptr, indices, node)
        keep = member[nb]
        cand = sorted_unique(np.repeat(frontier - node, lengths)[keep] + nb[keep])
        pos = np.searchsorted(ball, cand)
        seen = pos < ball.size
        seen[seen] = ball[pos[seen]] == cand[seen]
        fresh = ~seen
        if not fresh.any():
            break
        frontier = cand[fresh]
        ball = np.insert(ball, pos[fresh], frontier)
    counts = np.bincount(ball // n, minlength=k).astype(np.int64, copy=False)
    starts = np.cumsum(counts) - counts
    wsums = np.add.reduceat(weights[ball % n], starts)
    return counts, wsums


def pack_bins(weights: np.ndarray, cap: int) -> np.ndarray:
    """Sequential (next-fit) bin packing of items given heaviest first: walk
    the items in order and open a new bin when the current one is nonempty
    by weight and the item would take it above ``cap``.  Returns a bin id per
    item.  An item alone may exceed ``cap`` (callers choose cap >= max weight
    when that matters), and a bin whose fill is still 0 absorbs the next item
    whatever its weight.  Every bin except possibly the last is more than
    half full when all items weigh <= cap/2.  Weights must be nonnegative and
    non-increasing; raises ``ValueError`` otherwise.

    The walk visits runs of equal weight, not items.  Within a run of weight
    ``w > 0`` the current bin takes as many items as still fit, and every
    fresh bin takes ``max(1, cap // w)``, so the run's bin ids are one
    floor division of the item offsets.  A run of zeros comes last; it joins
    the current bin unless that bin is already above ``cap`` (one oversized
    item), in which case it opens one more.  Cost: O(n) numpy work plus one
    interpreted step per distinct weight.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    n = weights.size
    if n == 0:
        return np.empty(0, np.int64)
    if weights.min() < 0:
        raise ValueError("pack_bins needs nonnegative weights")
    if np.any(weights[1:] > weights[:-1]):
        raise ValueError("pack_bins needs non-increasing weights (heaviest first)")
    cap = int(cap)
    bins = np.empty(n, np.int64)
    starts = np.flatnonzero(weights[1:] != weights[:-1]) + 1
    bounds = [0, *starts.tolist(), n]
    b, fill = 0, 0  # current bin and its weight
    for s, e in zip(bounds[:-1], bounds[1:]):
        w = int(weights[s])
        if w == 0:
            if fill > cap:
                b += 1
                fill = 0
            bins[s:e] = b
            continue
        per_bin = max(1, cap // w)
        room = per_bin if fill == 0 else max(0, (cap - fill) // w)
        first = min(e - s, room)
        bins[s:s + first] = b
        rest = e - s - first
        if rest:
            bins[s + first:e] = np.arange(rest, dtype=np.int64) // per_bin + (b + 1)
            b += 1 + (rest - 1) // per_bin
            fill = ((rest - 1) % per_bin + 1) * w
        else:
            fill += first * w
    return bins
