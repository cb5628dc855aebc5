"""Bounded-arboricity instance generators.

The four standard families (tree, grid, preferential-attachment,
bounded-degree-random) make up the main corpus.  Two planted-gadget families
exercise the heavy-node removal mechanism at an exactly chosen in-degree, and
``layered-core`` builds towers with a prescribed number of peeling layers for
round-scaling measurements — ordinary sparse graphs peel in a handful of
layers, far too few to exercise the multi-phase machinery.

Every generator is deterministic given its seed and records its construction
parameters plus the exact degeneracy in the metadata sidecar.  Preferential
attachment collects each node's targets in a Python ``set`` whose iteration
order lays out the endpoint pool and so steers every later draw: the graph
depends on CPython's ``set`` order for small ints (same interpreter, same
graph).  Its uniforms come in one batch of ``c`` per node from the seed's
stream, which yields the same doubles as one draw at a time; a repeated
target's extra draws continue that stream past the batch.
"""

from __future__ import annotations

import numpy as np

from .graph import build_graph
from .kernels import sorted_unique
from .peeling import degeneracy

FAMILIES = (
    "tree",
    "grid",
    "preferential-attachment",
    "bounded-degree-random",
    "layered-core",
    "matching-gadget",
    "mis-gadget",
)


def _tree(params, rng):
    n = int(params["n"])
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return build_graph(1, np.empty((0, 2), np.int64)), 1
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    edges = np.stack([parents, np.arange(1, n, dtype=np.int64)], axis=1)
    return build_graph(n, edges), 1


def _grid(params, rng):
    rows = int(params["rows"] if "rows" in params else np.sqrt(int(params["n"])))
    cols = int(params.get("cols", rows))
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    ids = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    return build_graph(rows * cols, np.concatenate([horiz, vert])), 2


def _preferential_attachment(params, rng):
    n = int(params["n"])
    c = int(params.get("c", 3))
    if c < 1:
        raise ValueError("attachment parameter c must be >= 1")
    if n <= c:
        raise ValueError("preferential-attachment needs n > c")
    # endpoint pool; sampling from it is sampling proportional to degree.  After
    # the c+1 seed entries it holds every edge once, as a pair (newer, older).
    pool = list(range(c + 1))
    for u in range(1, c + 1):  # seed clique-ish core: connect first c+1 completely
        for v in range(u):
            pool += (u, v)
    # a node's first c draws come from one batch; each target drawn twice costs
    # one more draw, which continues the batch (past its end, from the stream)
    draws = rng.random(c * (n - c - 1)).tolist()
    k = 0
    for u in range(c + 1, n):
        size = len(pool)
        targets: set[int] = set()
        for x in draws[k:k + c]:
            targets.add(pool[int(x * size)])
        k += c
        while len(targets) < c:
            x = draws[k] if k < len(draws) else rng.random()
            k += 1
            targets.add(pool[int(x * size)])
        for v in targets:
            pool += (u, v)
    edges = np.fromiter(pool[c + 1:], dtype=np.int64, count=len(pool) - c - 1)
    return build_graph(n, edges.reshape(-1, 2)), c


def _bounded_degree_random(params, rng):
    n = int(params["n"])
    cap = int(params.get("deg", 8))
    if cap < 1 or n < 2:
        raise ValueError("bounded-degree-random needs n >= 2, deg >= 1")
    # pair up degree stubs: each node contributes `cap` stubs, so the degree
    # cap holds by construction; self-loops and duplicates are dropped
    stubs = np.repeat(np.arange(n, dtype=np.int64), cap)
    rng.shuffle(stubs)
    half = stubs.size // 2
    lo = np.minimum(stubs[:half], stubs[half:2 * half])
    hi = np.maximum(stubs[:half], stubs[half:2 * half])
    keep = lo != hi
    keys = sorted_unique(lo[keep] * np.int64(n) + hi[keep])
    edges = np.stack([keys // n, keys % n], axis=1)
    m_target = params.get("m")
    if m_target is not None:
        edges = edges[rng.permutation(edges.shape[0])[: int(m_target)]]
    return build_graph(n, edges), cap


def _layered_core(params, rng):
    """Tower of geometrically shrinking groups; peels exactly one group per layer.

    Group j feeds ``f = d - 1`` round-robin edges into group j+1.  While group
    j-1 is alive, a group-j node has degree f + (incoming) > d, so nothing
    above the current bottom group can peel; once group j-1 drops, group j's
    degree falls to f <= d and it becomes the next layer.  The top group gets a
    ring instead of forward edges so it peels last instead of stalling.
    """
    n = int(params["n"])
    depth = int(params["depth"])
    d = int(params.get("d", 3))
    f = d - 1
    min_top = max(5, f + 1)
    if depth < 2 or n < depth * min_top:
        raise ValueError("layered-core needs depth >= 2 and n >= depth * max(5, d)")
    # geometric sizes, largest first, smallest ~min_top, rescaled so the whole
    # profile sums to n (dumping the rounding slack into one group would blow
    # up that group's incoming round-robin degree)
    r = (min_top / (2.0 * n / depth)) ** (1.0 / (depth - 1))
    raw = (2.0 * n / depth) * r ** np.arange(depth)
    raw *= n / raw.sum()
    sizes = np.maximum(min_top, raw.astype(np.int64))
    slack = n - int(sizes.sum())
    if slack > 0:  # rounding slack, < depth; one node per largest group
        sizes[:slack] += 1
    if sizes[0] < sizes[1]:  # extreme parameter mixes; keep monotone
        raise ValueError("layered-core sizes infeasible; increase n or reduce depth")
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    edges = []
    for j in range(depth - 1):
        src = np.arange(sizes[j], dtype=np.int64)
        for t in range(f):
            dst = (src * f + t) % sizes[j + 1]
            edges.append(np.stack([starts[j] + src, starts[j + 1] + dst], axis=1))
    top = np.arange(sizes[depth - 1], dtype=np.int64) + starts[depth - 1]
    edges.append(np.stack([top, np.roll(top, -1)], axis=1))
    g = build_graph(n, np.concatenate(edges))
    return g, d


def _matching_gadget(params, rng):
    """Planted heavy receivers for the matching mechanism.

    Per planted parent: ``children`` leaf children, each wired to the parent
    plus ``decoys`` shared decoy parents, so a child marks the planted parent
    with probability 1/(decoys+1).  With d = decoys + 1 the children land in
    layer 1 and all parents in layer 2.  Node layout: parents, then decoys
    (``decoys`` per parent), then children grouped by parent.
    """
    parents = int(params.get("parents", 100))
    children = int(params.get("children", 256))
    decoys = int(params.get("decoys", 3))
    if parents < 1 or children < 1 or decoys < 0:
        raise ValueError("matching-gadget needs parents, children >= 1")
    n = parents + parents * decoys + parents * children
    edges = []
    child0 = parents + parents * decoys
    for pid in range(parents):
        dec = parents + pid * decoys + np.arange(decoys, dtype=np.int64)
        kids = child0 + pid * children + np.arange(children, dtype=np.int64)
        edges.append(np.stack([np.full(children, pid, np.int64), kids], axis=1))
        for dv in dec:
            edges.append(np.stack([np.full(children, dv, np.int64), kids], axis=1))
    return build_graph(n, np.concatenate(edges)), decoys + 2


def _mis_gadget(params, rng):
    """Planted heavy parents for the independent-set mechanism.

    Per planted parent: ``cliques`` cliques of ``clique_size`` children; each
    child connects to its clique mates (same layer) and the parent.  With
    d = clique_size the children form layer 1, parents layer 2, and each child
    has exactly clique_size - 1 same-layer neighbors.
    """
    parents = int(params.get("parents", 20))
    cliques = int(params.get("cliques", 125))
    csize = int(params.get("clique_size", 5))
    if parents < 1 or cliques < 1 or csize < 2:
        raise ValueError("mis-gadget needs parents, cliques >= 1, clique_size >= 2")
    per = cliques * csize
    n = parents + parents * per
    kids = np.arange(parents, n, dtype=np.int64)
    star = np.stack([np.repeat(np.arange(parents, dtype=np.int64), per), kids], axis=1)
    # first node of every clique, against each pair of member offsets
    first = kids[::csize, None]
    iu = np.triu_indices(csize, k=1)
    mates = np.stack([(first + iu[0]).ravel(), (first + iu[1]).ravel()], axis=1)
    return build_graph(n, np.concatenate([star, mates])), csize


# family -> (builder, the parameter keys it reads, the keys it needs: at
# least one key of each tuple)
_BUILDERS = {
    "tree": (_tree, ("n",), (("n",),)),
    "grid": (_grid, ("n", "rows", "cols"), (("n", "rows"),)),
    "preferential-attachment": (_preferential_attachment, ("n", "c"), (("n",),)),
    "bounded-degree-random": (_bounded_degree_random, ("n", "deg", "m"), (("n",),)),
    "layered-core": (_layered_core, ("n", "depth", "d"), (("n",), ("depth",))),
    "matching-gadget": (_matching_gadget, ("parents", "children", "decoys"), ()),
    "mis-gadget": (_mis_gadget, ("parents", "cliques", "clique_size"), ()),
}


def generate(family: str, params: dict, seed: int, return_meta: bool = False):
    """Build a corpus instance; deterministic given (family, params, seed).

    An unknown family or parameter key, a parameter value that is not an
    integer, or a missing required parameter raises ``ValueError`` instead of
    falling back to a default, truncating or failing inside the builder.
    With ``return_meta=True`` also returns the sidecar dict, including the
    family's constructive arboricity bound and the exact degeneracy.
    """
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    build, keys, required = _BUILDERS[family]
    for key, value in params.items():
        if key not in keys:
            raise ValueError(f"unknown {family} parameter {key!r}; known: {', '.join(keys)}")
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{family} parameter {key!r} must be an integer, got {value!r}")
    for need in required:
        if not any(key in params for key in need):
            raise ValueError(f"{family} needs parameter {' or '.join(map(repr, need))}")
    rng = np.random.default_rng(seed)
    g, bound = build(dict(params), rng)
    if not return_meta:
        return g
    meta = {
        "family": family,
        "params": {k: int(v) for k, v in params.items()},
        "seed": int(seed),
        "degeneracy": degeneracy(g).degeneracy,
        "arboricity_bound": int(bound),
    }
    return g, meta
