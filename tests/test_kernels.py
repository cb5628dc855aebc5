"""Kernels: each must match a brute-force oracle or its invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsempc import kernels
from sparsempc.generators import generate
from sparsempc.graph import build_graph

from oracles import (
    ball_members, bucket_degeneracy, disjoint_paths, from_mask, hand_peel, next_fit_bins,
    path as path_graph, random_graph,
)


def test_gather_segments_matches_rows():
    g = random_graph(30, 60, 0)
    nodes = np.array([0, 5, 5, 12], np.int64)
    src, nb = kernels.gather_segments(g.indptr, g.indices, nodes)
    want_src, want_nb = [], []
    for v in nodes:
        row = g.neighbors(int(v))
        want_src.extend([v] * row.size)
        want_nb.extend(row.tolist())
    assert src.tolist() == want_src
    assert nb.tolist() == want_nb


def test_gather_segments_empty():
    g = path_graph(3)
    src, nb = kernels.gather_segments(g.indptr, g.indices, np.empty(0, np.int64))
    assert src.size == 0 and nb.size == 0


def test_alive_degrees_counts_only_alive():
    g = path_graph(5)
    alive = np.array([True, True, False, True, True])
    deg = kernels.alive_degrees(g.indptr, g.indices, alive)
    assert deg.tolist() == [1, 1, 0, 1, 1]


@given(
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=60)
    | st.lists(st.integers(-3, 3), max_size=60),
    st.booleans(),
)
@example([], False)
@example([7], False)
@example([5, 5, 5, 5], False)
@example([-1, 3, -1, -4, 3], True)
@settings(max_examples=150, deadline=None)
def test_sorted_unique_equals_np_unique(values, two_d):
    a = np.array(values, np.int64)
    if two_d and a.size % 2 == 0:
        a = a.reshape(2, -1)  # flattened like np.unique does
    got = kernels.sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_peel_matches_hand_oracle(g, alive, d, max_layers):
    layer, t = kernels.peel_layers(g.indptr, g.indices, alive, d, max_layers)[:2]
    want = hand_peel(g, d, alive=alive, max_layers=max_layers)
    assert np.array_equal(layer, want)
    assert t == want.max(initial=0)
    return layer, t


@pytest.mark.parametrize("d", [1, 2, 3])
def test_peel_layers_matches_hand_oracle_with_dead_nodes(d):
    g = random_graph(200, 500, d)
    alive = np.ones(g.n, bool)
    alive[::7] = False
    layer, _ = _assert_peel_matches_hand_oracle(g, alive, d, g.n)
    assert not layer[~alive].any()


def test_peel_layers_respects_max_layers():
    g = path_graph(40)
    layer, t = _assert_peel_matches_hand_oracle(g, np.ones(g.n, bool), 1, 3)
    # a path peels its two ends per layer
    assert t == 3
    assert np.count_nonzero(layer) == 6


def _check_degeneracy_order(g):
    k, order, core = kernels.degeneracy_order(g.indptr, g.indices)
    want_k, want_core = bucket_degeneracy(g)
    assert k == want_k
    assert core.dtype == np.int64 and np.array_equal(core, want_core)
    assert np.array_equal(np.sort(order), np.arange(g.n))
    # witness: each node has at most k neighbors later in the order
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    u, v = g.edges[:, 0], g.edges[:, 1]
    later = np.bincount(np.where(pos[u] < pos[v], u, v), minlength=g.n)
    assert later.max(initial=0) <= k


@pytest.mark.parametrize(
    "family,params",
    [
        ("tree", {"n": 3000}),
        ("grid", {"rows": 40, "cols": 50}),
        ("preferential-attachment", {"n": 2000, "c": 3}),
        ("bounded-degree-random", {"n": 2000, "deg": 6}),
        ("layered-core", {"n": 1500, "depth": 40, "d": 4}),
        ("matching-gadget", {"parents": 10, "children": 30, "decoys": 3}),
        ("mis-gadget", {"parents": 4, "cliques": 20, "clique_size": 5}),
    ],
)
def test_degeneracy_order_matches_bucket_oracle(family, params):
    _check_degeneracy_order(generate(family, params, seed=7))


@given(
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=150),
)
@example(0, [])
@example(1, [])
@example(12, [(0, 1), (1, 2), (2, 0), (5, 6)])  # isolated nodes beside a triangle
@example(400, [(i, i + 1) for i in range(399)])  # a long path: one layer per end pair
@example(8, [(a, b) for b in range(6) for a in range(b)] + [(6, 0)])  # cores 5, 1 and 0
@settings(max_examples=150, deadline=None)
def test_degeneracy_order_property_matches_bucket_oracle(n, pairs):
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n}
    g = build_graph(n, np.array(sorted(edges), np.int64).reshape(-1, 2))
    _check_degeneracy_order(g)


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4, 8])
def test_ball_stats_matches_bfs_oracle(radius):
    g = random_graph(60, 120, radius)
    member = np.ones(g.n, bool)
    member[::5] = False
    sources = np.flatnonzero(member)
    weights = np.arange(g.n, dtype=np.int64) + 1
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, radius, weights)
    for i, v in enumerate(sources):
        ball = ball_members(g, member, int(v), radius)
        assert counts[i] == len(ball)
        assert wsums[i] == sum(int(weights[u]) for u in ball)


def test_ball_stats_empty_sources():
    g = path_graph(4)
    counts, wsums = kernels.ball_stats(
        g.indptr, g.indices, np.ones(4, bool), np.empty(0, np.int64), 2, np.ones(4, np.int64)
    )
    assert counts.size == 0 and wsums.size == 0


def _oracle_ball_stats(g, member, sources, radius, weights):
    balls = [ball_members(g, member, int(v), radius) for v in sources]
    counts = [len(b) for b in balls]
    wsums = [sum(int(weights[u]) for u in b) for b in balls]
    return counts, wsums


def _assert_ball_stats_match_oracle(g, member, sources, radius, weights):
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, radius, weights)
    want_counts, want_wsums = _oracle_ball_stats(g, member, sources, radius, weights)
    assert counts.dtype == np.int64 and wsums.dtype == np.int64
    assert counts.tolist() == want_counts
    assert wsums.tolist() == want_wsums


def test_ball_stats_unsorted_duplicated_sources():
    g = random_graph(40, 70, 3)
    member = np.ones(g.n, bool)
    member[[4, 9, 17]] = False
    sources = np.array([30, 2, 30, 11, 2, 0, 39, 11, 11], np.int64)
    weights = np.arange(g.n, dtype=np.int64) * 3 + 1
    _assert_ball_stats_match_oracle(g, member, sources, 2, weights)
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, 2, weights)
    # each result stays with its own slot, in the caller's order
    assert counts[0] == counts[2] and wsums[0] == wsums[2]
    assert counts[3] == counts[7] == counts[8]


def test_ball_stats_non_member_bridge_blocks_bfs():
    # two triangles {0,1,2} and {4,5,6} joined only through node 3
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [4, 5], [5, 6], [4, 6]], np.int64)
    g = build_graph(7, edges)
    member = np.ones(7, bool)
    member[3] = False
    sources = np.array([0, 6, 2], np.int64)
    weights = np.array([1, 2, 4, 8, 16, 32, 64], np.int64)
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, 8, weights)
    assert counts.tolist() == [3, 3, 3]
    assert wsums.tolist() == [7, 112, 7]
    _assert_ball_stats_match_oracle(g, member, sources, 8, weights)
    # with the bridge a member, one ball covers the whole graph
    member[3] = True
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, 8, weights)
    assert counts.tolist() == [7, 7, 7]
    assert wsums.tolist() == [127, 127, 127]


def test_ball_stats_isolated_source():
    g = build_graph(5, np.array([[0, 1], [1, 2], [2, 3]], np.int64))
    member = np.ones(5, bool)
    weights = np.array([5, 6, 7, 8, 9], np.int64)
    counts, wsums = kernels.ball_stats(
        g.indptr, g.indices, member, np.array([4, 0], np.int64), 3, weights
    )
    assert counts.tolist() == [1, 4]
    assert wsums.tolist() == [9, 26]
    # alone, the isolated source finds no neighbor on the first step
    counts, wsums = kernels.ball_stats(
        g.indptr, g.indices, member, np.array([4], np.int64), 3, weights
    )
    assert counts.tolist() == [1] and wsums.tolist() == [9]


def test_ball_stats_zero_weights():
    g = random_graph(50, 90, 8)
    member = np.ones(g.n, bool)
    sources = np.flatnonzero(member)
    zeros = np.zeros(g.n, np.int64)
    counts, wsums = kernels.ball_stats(g.indptr, g.indices, member, sources, 3, zeros)
    assert np.all(wsums == 0)
    assert np.all(counts >= 1)
    mixed = np.where(np.arange(g.n) % 2 == 0, 0, 5).astype(np.int64)
    _assert_ball_stats_match_oracle(g, member, sources, 3, mixed)


def test_ball_stats_weight_sums_exact_beyond_float():
    # sums above 2**53 lose their low bits in float64; int64 keeps them
    g = path_graph(6)
    member = np.ones(6, bool)
    weights = 2 ** 53 + np.arange(6, dtype=np.int64)
    _assert_ball_stats_match_oracle(g, member, np.arange(6, dtype=np.int64), 2, weights)


@given(
    st.integers(1, 40),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from([0, 1, 2, 3, 4, 8]),
    st.floats(0.3, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_ball_stats_property_matches_oracle(n, seed, radius, keep):
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    member = r.random(n) < keep
    if not member.any():
        member[int(r.integers(0, n))] = True
    members = np.flatnonzero(member)
    sources = r.choice(members, size=int(r.integers(1, 2 * members.size + 1)))
    weights = r.integers(0, 1000, size=n).astype(np.int64)
    _assert_ball_stats_match_oracle(g, member, sources, radius, weights)


def test_pack_bins_matches_next_fit_oracle():
    r = np.random.default_rng(1)
    weights = np.sort(r.integers(1, 40, size=500).astype(np.int64))[::-1]
    bins = kernels.pack_bins(weights, 64)
    assert bins.dtype == np.int64
    assert bins.tolist() == next_fit_bins(weights.tolist(), 64)


# heaviest first, as Cluster._place passes them: runs of equal weight (some
# long), trailing zeros, leading items above cap
_heaviest_first = st.lists(
    st.tuples(st.integers(0, 60), st.one_of(st.just(1), st.integers(1, 40))), max_size=12
).map(lambda runs: sorted((w for w, count in runs for _ in range(count)), reverse=True))


@given(_heaviest_first, st.one_of(st.just(0), st.just(1), st.integers(0, 50)))
@example([0, 0, 0], 0)
@example([9, 9, 0, 0], 3)  # zeros after an overflowing item open a bin
@example([5] * 40 + [0] * 5, 1)
@example([60, 7, 7, 7, 1, 0], 0)
@settings(max_examples=200, deadline=None)
def test_pack_bins_property_matches_next_fit_oracle(ws, cap):
    bins = kernels.pack_bins(np.array(ws, np.int64), cap)
    assert bins.tolist() == next_fit_bins(ws, cap)


@given(
    st.lists(st.integers(0, 60), min_size=2, max_size=40).filter(
        lambda ws: any(b > a for a, b in zip(ws, ws[1:]))
    ),
    st.integers(0, 50),
)
@example([0, 0, 9, 1], 1)
@example([9, 0, 0, 1], 3)
@settings(max_examples=50, deadline=None)
def test_pack_bins_rejects_increasing_weights(ws, cap):
    with pytest.raises(ValueError, match="non-increasing"):
        kernels.pack_bins(np.array(ws, np.int64), cap)


def test_pack_bins_rejects_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        kernels.pack_bins(np.array([3, -1, 2], np.int64), 4)


@given(
    st.lists(st.integers(1, 50), min_size=0, max_size=80).map(lambda ws: sorted(ws, reverse=True)),
    st.integers(10, 120),
)
@settings(max_examples=80, deadline=None)
def test_pack_bins_properties(ws, cap):
    weights = np.array(ws, np.int64)
    bins = kernels.pack_bins(weights, cap)
    assert bins.size == weights.size
    if bins.size == 0:
        return
    # bin ids are consecutive and nondecreasing in walk order
    assert bins[0] == 0
    assert np.all(np.diff(bins) >= 0)
    assert np.all(np.diff(bins) <= 1)
    # no bin holding >= 2 items exceeds the cap
    totals = np.bincount(bins, weights=weights)
    sizes = np.bincount(bins)
    assert np.all(totals[sizes >= 2] <= cap)


def test_pack_bins_single_oversized_item_allowed():
    bins = kernels.pack_bins(np.array([100, 3, 3], np.int64), 10)
    assert bins.tolist() == [0, 1, 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1023), st.integers(1, 3))
def test_peel_matches_hand_oracle(n, mask, d):
    g = from_mask(n, mask)
    got_layer, t = kernels.peel_layers(g.indptr, g.indices, np.ones(n, bool), d, n)[:2]
    want = hand_peel(g, d)
    if want is None:
        # stall: some node never assigned even with the full layer budget
        assert (got_layer == 0).any()
    else:
        assert np.array_equal(got_layer, want)


@given(
    st.integers(1, 40),
    st.integers(0, 2 ** 31 - 1),
    st.integers(1, 3),
    st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_peel_carried_degrees_match_fresh_calls(n, seed, d, radii):
    # A partition loop peels the same shrinking subgraph again and again.
    # Carrying `deg` between calls must give what a fresh call gives, and
    # leave `deg` equal to the recounted alive degrees of the survivors.
    # _peel, which degeneracy_order calls directly, is checked too.
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    alive = r.random(n) < 0.8
    peels = {
        "peel_layers": lambda work, r_, deg: kernels.peel_layers(
            g.indptr, g.indices, work, d, r_, deg=deg)[:2],
        "_peel": lambda work, r_, deg: kernels._peel(
            g.indptr, g.indices, work, d, r_, deg)[:2],
    }
    for name, peel in peels.items():
        work = alive.copy()
        deg = kernels.alive_degrees(g.indptr, g.indices, work)
        for radius in radii:
            want_layer, want_t = kernels.peel_layers(g.indptr, g.indices, work, d, radius)[:2]
            layer, t = peel(work, radius, deg)
            assert np.array_equal(layer, want_layer), name
            assert t == want_t, name
            work[layer > 0] = False
            fresh = kernels.alive_degrees(g.indptr, g.indices, work)
            assert np.array_equal(deg[work], fresh[work]), name


@given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_peel_last_rows_are_the_last_layers_rows(n, seed, d, max_layers):
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    alive = r.random(n) < 0.8
    layer, t, peeled, src, nb, next_first = kernels.peel_layers(
        g.indptr, g.indices, alive, d, max_layers)
    # the layered nodes layer by layer, ascending within a layer
    layered = np.flatnonzero(layer)
    assert np.array_equal(peeled, layered[np.argsort(layer[layered], kind="stable")])
    last = np.flatnonzero(layer == t) if t else np.empty(0, np.int64)
    want_src, want_nb = kernels.gather_segments(g.indptr, g.indices, last)
    assert np.array_equal(src, want_src) and np.array_equal(nb, want_nb)
    # the next call's first layer, unless the peel stopped on a large layer
    rest = alive & (layer == 0)
    fresh = kernels.alive_degrees(g.indptr, g.indices, rest)
    if next_first is None:
        assert t == max_layers and 4 * nb.size > n
    else:
        assert np.array_equal(next_first, np.flatnonzero(rest & (fresh <= d)))


@given(
    st.sampled_from(["random", "paths"]),
    st.integers(1, 40),
    st.integers(0, 2 ** 31 - 1),
    st.integers(1, 3),
    st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
@example(shape="paths", n=20, seed=3, d=1, radii=[1, 1, 1, 1, 1, 1])
def test_peel_carried_first_layer_matches_fresh_calls(shape, n, seed, d, radii):
    # A chain of peels that hands each call the last one's next first layer
    # and one reused layer buffer must layer the same nodes, with the same
    # layers and layer count, as fresh calls on the same remainder.  Long
    # paths peel in many small layers, so their chains carry first layers
    # of several nodes.
    r = np.random.default_rng(seed)
    if shape == "paths":
        g = disjoint_paths(1 + seed % 4, 16 + n)
        n = g.n
    else:
        g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    work = r.random(n) < 0.8
    deg = kernels.alive_degrees(g.indptr, g.indices, work)
    buf = np.zeros(n, np.int64)
    first = None
    for radius in radii:
        want_layer, want_t = kernels.peel_layers(g.indptr, g.indices, work, d, radius)[:2]
        layer, t, peeled, _, _, first = kernels.peel_layers(
            g.indptr, g.indices, work, d, radius, deg=deg, first=first, layer=buf)
        assert layer is buf
        assert t == want_t
        want_ids = np.flatnonzero(want_layer)
        assert np.array_equal(np.sort(peeled), want_ids)
        assert np.array_equal(layer[peeled], want_layer[peeled])
        work[peeled] = False


def test_peel_layers_rejects_malformed_deg():
    g = path_graph(4)
    alive = np.ones(4, bool)
    for deg in (np.ones(4, np.int32), np.ones(3, np.int64), [1, 2, 2, 1]):
        with pytest.raises(ValueError, match="deg"):
            kernels.peel_layers(g.indptr, g.indices, alive, 1, 4, deg=deg)


def test_peel_layers_rejects_malformed_layer_buffer():
    g = path_graph(4)
    alive = np.ones(4, bool)
    for buf in (np.zeros(4, np.int32), np.zeros(3, np.int64), [0, 0, 0, 0]):
        with pytest.raises(ValueError, match="layer"):
            kernels.peel_layers(g.indptr, g.indices, alive, 1, 4, layer=buf)


def test_layered_core_exercises_deep_peel():
    g = generate("layered-core", {"n": 512, "depth": 16, "d": 3}, seed=0)
    _, t = _assert_peel_matches_hand_oracle(g, np.ones(g.n, bool), 3, g.n)
    assert t == 16
