"""Cluster pipeline: exponentiation schedules, chunking, oracle equality."""

import hashlib
import json
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import realize, valid_d
from oracles import (
    ball_members, complete, cycle, hand_peel, path, random_graph, star, star_and_k5,
)
from sparsempc import mpc as mpc_mod
from sparsempc.generators import generate
from sparsempc.graph import GraphView
from sparsempc.kernels import alive_degrees, ball_stats
from sparsempc.mpc import (
    REPS_FIRST,
    REPS_LATER,
    compute_schedule,
    connect_cliques,
    gather_and_peel,
    mpc_h_partition,
    mpc_mark_propose,
    mpc_finish_round,
    mpc_pipeline,
    mpc_select,
    partition_rounds,
)
from sparsempc import peeling, reduction
from sparsempc.peeling import StallError, degeneracy, h_partition
from sparsempc.reduction import (
    KINDS,
    PartialSolution,
    finish_rounds,
    mark_and_propose_matching,
    mark_and_propose_mis,
    mis_probability,
    select_matching,
    select_mis,
    solution_digest,
    solve,
    verify_maximal,
)
from sparsempc.runtime import Cluster, ClusterConfig, init_cluster, metrics


def _cluster(g, delta):
    return init_cluster(g, ClusterConfig.for_graph(g, delta))


def _whole(g, hp):
    """The layer map ``hp`` of the whole graph ``g``, as the stage meters
    take it."""
    return mpc_mod._LayerMap(g, np.arange(g.n), hp)


# ---------------------------------------------------------------------------
# schedule arithmetic
# ---------------------------------------------------------------------------


def test_schedule_k2_pinned():
    s = compute_schedule(8, 2 ** 15, n=10 ** 6, delta=0.5)
    assert s.k == 2  # 8^5 = 2^15 fits, 8^9 does not
    assert [(i, r) for i, r, _ in s.phases] == [(0, 1), (1, 2), (2, 4)]
    assert 8 ** (2 ** s.k + 1) <= 2 ** 15 < 8 ** (2 ** (s.k + 1) + 1)


def test_schedule_k1_pinned():
    s = compute_schedule(2, 8, n=100, delta=0.5)
    assert s.k == 1  # 2^3 <= 8 < 2^5


def test_schedule_fallback_when_square_too_big():
    s = compute_schedule(10, 50, n=100, delta=0.5)
    assert s.k is None
    assert s.phases == ()


def test_schedule_trivial_degrees():
    for dm in (0, 1):
        s = compute_schedule(dm, 4, n=100, delta=0.5)
        assert s.k == 0
        assert s.phases == ((0, 1, REPS_FIRST),)


def test_schedule_repetition_counts_locked():
    s = compute_schedule(3, 10 ** 6, n=1000, delta=0.5)
    assert s.phases[0][2] == REPS_FIRST == 60
    assert all(r == REPS_LATER == 20 for _, _, r in s.phases[1:])


def test_schedule_preprocessing_layer_count():
    # c_pre * log2((1/delta) * log2 log2 n), rounded up
    s = compute_schedule(3, 10 ** 6, n=2 ** 16, delta=0.5)
    assert s.preprocessing_layers == 6  # ceil(2 * log2(2 * 4))
    s0 = compute_schedule(3, 10 ** 6, n=2 ** 16, delta=0.5, c_pre=0.0)
    assert s0.preprocessing_layers == 0


# ---------------------------------------------------------------------------
# chunks: (last_layer, radius) pairs in removal order
# ---------------------------------------------------------------------------


def _check_chunks(chunks, hp):
    """The chunk bounds rise strictly to ``hp.ell`` (so the chunks tile
    layers 1..ell), no chunk is wider than its hop radius, and a chunk is
    narrower only where the layers ran out."""
    last = np.array([0] + [hi for hi, _ in chunks])
    width = np.diff(last)
    radius = np.array([r for _, r in chunks], np.int64)
    assert (width >= 1).all()
    assert last[-1] == hp.ell
    assert (width <= radius).all()
    assert (width[:-1] == radius[:-1]).all()


def _metered_partition(g, d, delta, *, adaptive=False, c_pre=2.0):
    """The driver's partition of ``g`` and the chunks and stats of its
    metered construction on a fresh cluster with memory exponent ``delta``;
    the removal order is the stable sort by layer."""
    hp = h_partition(g, d)
    assert np.array_equal(hp.order, np.argsort(hp.layer, kind="stable"))
    cl = _cluster(g, delta)
    sched = compute_schedule(g.max_degree(), cl.cfg.S, g.n, delta, c_pre=c_pre)
    chunks, stats = mpc_h_partition(cl, _whole(g, hp), sched, adaptive=adaptive)
    assert stats["ell"] == hp.ell
    return hp, chunks, stats, cl


def test_chunk_validate_accepts_real_run():
    g = generate("layered-core", {"n": 600, "depth": 40, "d": 3}, seed=0)
    hp, chunks, stats, cl = _metered_partition(g, 3, 0.8)
    sched = compute_schedule(g.max_degree(), cl.cfg.S, g.n, 0.8)
    _check_chunks(chunks, hp)
    # every radius is 1 (pre-processing) or an iteration's 2^i
    assert {r for _, r in chunks} <= {1} | {2 ** i for i, _, _ in sched.phases}


def test_select_rejects_chunk_wider_than_its_radius():
    g = star(5)
    hp = h_partition(g, 2)  # layers: leaves 1, center 2
    cl = _cluster(g, 0.9)
    sol = PartialSolution.empty("mis")
    assert hp.order.tolist() == [1, 2, 3, 4, 5, 0]  # the leaves, then the center
    mpc_select(cl, _whole(g, hp), [(1, 1), (2, 1)], sol)  # one layer per radius-1 chunk
    with pytest.raises(AssertionError, match="wider than its hop radius"):
        mpc_select(_cluster(g, 0.9), _whole(g, hp), [(2, 1)], sol)


# ---------------------------------------------------------------------------
# gather_and_peel / connect_cliques
# ---------------------------------------------------------------------------


def _layer_map(g, d):
    """The replay state of the driver's partition of the whole graph ``g``
    (its peel may stall: the map is then the partial one)."""
    try:
        hp = h_partition(g, d)
    except StallError as exc:
        hp = exc.partition
    return _whole(g, hp)


def test_star_center_resolves_on_second_repetition():
    g = star(5)
    cl = _cluster(g, 0.9)
    layers = _layer_map(g, 2)
    rel, t, removed = gather_and_peel(cl, layers, 0, 1)
    assert t == 1
    # the center is still "deeper"
    assert removed.tolist() == [1, 2, 3, 4, 5] and rel.tolist() == [1] * 5
    assert layers.live(1) == 1
    rel2, t2, removed2 = gather_and_peel(cl, layers, 1, 1)
    # resolved once the leaves are gone
    assert removed2.tolist() == [0] and rel2.tolist() == [1] and t2 == 1
    assert layers.live(2) == 0
    # the leaves strike their edges to the center, then nothing is left
    assert [tr.label for tr in cl.traces] == ["partition-peel"] * 2
    assert cl.traces[1].total_sent == 0


def test_low_degree_nodes_always_layer_one():
    g = generate("preferential-attachment", {"n": 200, "c": 3}, seed=1)
    d = valid_d(g)
    cl = _cluster(g, 0.8)
    rel, _, removed = gather_and_peel(cl, _layer_map(g, d), 0, 1)
    assert np.array_equal(removed, np.flatnonzero(g.degrees <= d))
    assert np.all(rel == 1)


@pytest.mark.parametrize("radius,label", [(1, "partition-peel"), (2, "partition-gather")])
def test_empty_repetition_meters_a_silent_round_without_peeling(monkeypatch, radius, label):
    # After the subgraph empties, the fixed repetition budget keeps running:
    # each repetition is one zero-volume round under the usual label, no
    # pairs are grouped and no volumes read (so no O(m) pass is paid for
    # it), no per-machine sum is formed and no n-length array is returned.
    g = path(6)
    cl = _cluster(g, 0.9)
    layers = _layer_map(g, 2)
    done = layers.hp.ell

    def no_pairs(*args, **kwargs):
        raise AssertionError("pairs grouped for an empty subgraph")

    def no_bincount(*args, **kwargs):
        raise AssertionError("a silent round summed traffic per machine")

    monkeypatch.setattr(mpc_mod._LayerMap, "pairs", no_pairs)
    monkeypatch.setattr(np, "bincount", no_bincount)
    rel, t, removed = gather_and_peel(cl, layers, done, radius)
    monkeypatch.undo()
    assert t == 0 and rel.size == 0 and removed.size == 0
    (trace,) = cl.traces
    assert trace.label == label
    assert trace.total_sent == 0 and trace.total_received == 0


def test_gather_and_peel_stall_matches_centralized():
    g = complete(4)
    cl = _cluster(g, 0.8)
    with pytest.raises(StallError) as ref:
        h_partition(g, 2)
    layers = mpc_mod._LayerMap(g, np.arange(g.n), ref.value.partition)
    with pytest.raises(StallError) as got:
        gather_and_peel(cl, layers, 0, 1)
    assert str(got.value) == str(ref.value)
    assert str(ref.value) == "peeling stalled with 4 nodes of remaining degree > 2"
    assert got.value.partition is ref.value.partition
    (trace,) = cl.traces  # the stalled repetition's round is metered first
    assert trace.label == "partition-peel" and trace.total_sent == 0


def test_peel_rounds_meter_each_struck_edge(tmp_path, monkeypatch):
    # Radius-1 repetitions on a phase subgraph, as the partition runs them:
    # each removal round must charge one word per edge from a removed node
    # to a still-alive one on another machine, on the machines holding the
    # two ends; an edge whose ends share a machine is free, and the
    # instance has such edges.  The per-machine volumes are read back from
    # the round's MPC_TRACE_DIR rows (a machine without a row moved
    # nothing).
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    g = generate("bounded-degree-random", {"n": 400, "deg": 4}, seed=2)
    # the degeneracy is the lowest threshold that cannot stall, so the peel
    # takes several layers; about 16 nodes to a machine, so that some struck
    # edges stay on one
    d = degeneracy(g).degeneracy
    cl = init_cluster(g, ClusterConfig(delta=0.5, S=64, M=50))
    alive = np.ones(g.n, bool)
    alive[::5] = False
    sub, ids = GraphView(g, alive).compact()
    layers = mpc_mod._LayerMap(sub, ids, h_partition(sub, d))
    assert layers.hp.ell >= 3
    want = {}
    local = 0
    for done in range(layers.hp.ell):
        _, _, removed = gather_and_peel(cl, layers, done, 1)
        alive[ids[removed]] = False
        sent = np.zeros(cl.machines_used, np.int64)
        received = np.zeros(cl.machines_used, np.int64)
        for v in ids[removed].tolist():
            for u in g.neighbors(v).tolist():
                if not alive[u]:
                    continue
                if cl.node_machine[u] == cl.node_machine[v]:
                    local += 1
                else:
                    sent[cl.node_machine[v]] += 1
                    received[cl.node_machine[u]] += 1
        trace = cl.traces[-1]
        assert trace.label == "partition-peel"
        want[trace.round] = (sent, received)
    assert local > 0 and not alive.any()
    rows = [json.loads(line) for line in cl.flush_trace().read_text().splitlines()]
    assert all(row["machine"] >= 0 for row in rows)  # per-machine rows
    width = 1 + max(row["machine"] for row in rows)
    for rnd, (sent, received) in want.items():
        got_sent = np.zeros(max(width, sent.size), np.int64)
        got_received = np.zeros(max(width, received.size), np.int64)
        for row in rows:
            if row["round"] == rnd:
                got_sent[row["machine"]] = row["sent"]
                got_received[row["machine"]] = row["received"]
        assert np.array_equal(got_sent[: sent.size], sent)
        assert np.array_equal(got_received[: received.size], received)
        assert not got_sent[sent.size:].any() and not got_received[received.size:].any()


def _roomy_cluster(g, machines=16):
    """A cluster with room for any round on ``g`` spread over several machines."""
    cfg = ClusterConfig(delta=1.0, S=10 ** 6, M=machines)
    return init_cluster(g, cfg)


@given(
    st.integers(1, 50),
    st.integers(0, 2 ** 31 - 1),
    st.integers(1, 3),
    st.sampled_from([1, 2, 4]),
    st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_gather_and_peel_returns_the_layered_ids(n, seed, d, radius, done):
    # A repetition that starts with layers 1..done removed removes the next
    # min(radius, left) layers of the driver's map: its ids are the slice of
    # the removal order (the stable sort by layer) holding those layers, with
    # their layers relative to the repetition.  It raises StallError exactly
    # where the hand peel stalls within its reach.
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    want = hand_peel(g, d, max_layers=n)
    ell = int(want.max(initial=0))
    done = min(done, ell)
    layers = _layer_map(g, d)
    assert np.array_equal(layers.hp.layer, want)
    cache = None
    if radius >= 2:
        cache = mpc_mod._BallCache(g, np.arange(g.n), layers.key, done, radius)
    stuck = (want == 0).any()
    try:
        rel, t, removed = gather_and_peel(
            _roomy_cluster(g), layers, done, radius, cache=cache)
    except StallError:
        assert stuck and ell - done < radius
        return
    assert not (stuck and ell - done < radius)
    assert t == min(radius, ell - done)
    take = (want > done) & (want <= done + t)
    by_layer = np.flatnonzero(take)[np.argsort(want[take], kind="stable")]
    assert np.array_equal(removed, by_layer)
    assert np.array_equal(rel, want[removed] - done)
    assert layers.live(done + t) == n - int((want > 0).sum()) + int((want > done + t).sum())


@given(
    st.integers(1, 50),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from([2, 4]),
    st.floats(0.3, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_ball_cache_matches_ball_scans(n, seed, radius, keep):
    # The cache counts the alive degrees at the iteration's start and sums
    # a radius-1 half ball from the alive rows instead of scanning balls;
    # every volume must equal what ball scans give.  Alive are the nodes
    # whose key is above the layers removed.
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), seed)
    alive = r.random(n) < keep
    later = alive & (r.random(n) < 0.5)
    key = alive.astype(np.uint8) + later  # 0 removed, 1 removed later, 2 left
    deg = alive_degrees(g.indptr, g.indices, alive)
    got = mpc_mod._BallCache(g, np.arange(g.n), key, 0, radius)
    ids = np.flatnonzero(alive)
    half = radius // 2
    ones = np.ones(g.n, np.int64)
    cnt_half, _ = ball_stats(g.indptr, g.indices, alive, ids, half, ones)
    vdeg_half = np.zeros(g.n, np.int64)
    vdeg_half[ids] = cnt_half - 1
    _, recv_half = ball_stats(g.indptr, g.indices, alive, ids, half, vdeg_half)
    row_words = 1 + deg
    cnt, wsum = ball_stats(g.indptr, g.indices, alive, ids, radius, row_words)
    assert np.array_equal(got.ids, ids)
    assert np.array_equal(got.clique_send, vdeg_half[ids] ** 2)
    assert np.array_equal(got.clique_recv, recv_half - vdeg_half[ids])
    assert np.array_equal(got.send, row_words[ids] * (cnt - 1))
    assert np.array_equal(got.pull, wsum - row_words[ids])
    assert np.array_equal(got.added, (cnt - 1) - deg[ids])
    # later gathers list the nodes left only, without an n-wide scan
    nodes, send, pull = got.gather_volumes(1)
    assert np.array_equal(nodes, np.flatnonzero(later))
    sel = np.searchsorted(ids, nodes)
    assert np.array_equal(send, got.send[sel]) and np.array_equal(pull, got.pull[sel])


def test_connect_cliques_path9_ball_oracle():
    g = path(9)
    cl = init_cluster(g, ClusterConfig(delta=1.0, S=9, M=16))
    alive = np.ones(9, bool)
    layers = _whole(g, h_partition(g, 2))
    assert layers.virtual is None  # until a clique step runs
    cache = mpc_mod._BallCache(g, np.arange(g.n), np.ones(9, np.uint8), 0, 2)
    stats = connect_cliques(cl, layers, radius=2, delta_max=2, cache=cache)
    for v in range(9):
        ball = ball_members(g, alive, v, 2)
        want_added = len(ball) - 1 - int(g.degrees[v])
        assert layers.virtual[v] == want_added
        assert cl.words[v] == g.degrees[v] + want_added
    # node 4 reaches 2..6: two virtual additions beyond its original edges
    assert layers.virtual[4] == 2
    assert stats["virtual_added_max"] <= stats["virtual_bound_per_node"] == 4
    assert stats["virtual_added_total"] == int(layers.virtual.sum())


def test_radius_one_iterations_add_no_virtual_edges():
    g = generate("grid", {"rows": 10, "cols": 10}, seed=0)
    hp, chunks, stats, cl = _metered_partition(g, 5, 0.65)
    assert stats["k"] == 0  # 4^2 = 16 <= S=20 < 4^3: only radius-1 iterations
    met = metrics(cl)
    assert "partition-clique" not in met["rounds_by_label"]
    # the repacks held every node, so each stores its row and no virtual word
    assert np.array_equal(cl.words, g.degrees)


def test_deep_tower_uses_cliques_and_matches_oracle():
    g = generate("layered-core", {"n": 1024, "depth": 100, "d": 3}, seed=0)
    hp, chunks, stats, cl = _metered_partition(g, 3, 0.8)
    assert stats["k"] is not None and stats["k"] >= 1
    assert hp.ell == 100
    _check_chunks(chunks, hp)
    assert max(r for _, r in chunks) >= 2
    met = metrics(cl)
    assert met["rounds_by_label"].get("partition-clique", 0) >= 1
    assert met["violations"] == []
    assert met["peak_words"] <= cl.cfg.S


# ---------------------------------------------------------------------------
# partition equality on mixed instances (the full 200-graph sweep lives in
# the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,params,delta",
    [
        ("tree", {"n": 300}, 0.6),
        ("grid", {"rows": 15, "cols": 14}, 0.5),
        ("preferential-attachment", {"n": 400, "c": 3}, 0.8),
        ("bounded-degree-random", {"n": 500, "deg": 8}, 0.45),  # fallback mode
        ("layered-core", {"n": 700, "depth": 60, "d": 3}, 0.75),
    ],
)
def test_partition_equals_centralized(family, params, delta):
    # the metered repetitions remove the centralized layers in chunks no
    # wider than their radius, in the stable by-layer order
    g = generate(family, params, seed=3)
    d = valid_d(g) if family != "layered-core" else 3
    hp, chunks, stats, cl = _metered_partition(g, d, delta)
    _check_chunks(chunks, hp)
    assert metrics(cl)["violations"] == []


def test_partition_fallback_flag_recorded():
    g = generate("bounded-degree-random", {"n": 500, "deg": 8}, seed=3)
    hp, chunks, stats, cl = _metered_partition(g, valid_d(g), 0.45)
    assert stats["fallback"] and stats["k"] is None
    assert all(r == 1 for _, r in chunks)


@pytest.mark.parametrize(
    "family, params, kind, delta, seed, fallback",
    [
        ("preferential-attachment", {"n": 3000}, "mis", 0.8, 2, True),
        ("bounded-degree-random", {"n": 3000, "deg": 6}, "matching", 0.5, 4, False),
    ],
)
def test_stalled_phase_leaves_partition_stats(family, params, kind, delta, seed, fallback):
    # the phase stalls mid-partition; its partition rounds are counted, so a
    # stats entry must say which schedule they ran
    g = generate(family, params, seed=seed)
    sol, met = mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, seed)
    assert met["phases"][-1].get("stalled")
    assert met["partition_rounds"] > 0
    stalled = [s for s in met["partition_stats"] if s.get("stalled")]
    assert len(stalled) == 1 and met["partition_stats"][-1] is stalled[0]
    entry = stalled[0]
    assert entry["fallback"] is fallback
    assert (entry["k"] is None) is fallback
    assert entry["alive_start"] == g.n  # the first phase stalls here
    assert len(met["partition_stats"]) == sum(1 for ph in met["phases"] if "ell" in ph) + 1
    assert verify_maximal(g, sol)


def test_shallow_graph_finishes_within_first_iteration():
    # preprocessing disabled so the whole partition must come out of the
    # 60-repetition radius-1 iteration of the first pass; delta is picked
    # high enough that max_degree**2 fits in S (no fallback path)
    g = generate("tree", {"n": 100}, seed=7)
    hp, chunks, stats, cl = _metered_partition(g, valid_d(g), 0.9, adaptive=True, c_pre=0.0)
    assert stats["k"] is not None
    assert stats["preprocessing"]["target_layers"] == 0
    assert hp.ell <= 60
    assert stats["outer_passes"] == 1
    # nothing was ever deep enough to need a hop radius above 1
    assert all(r == 1 for _, r in chunks)
    assert [e["iteration"] for e in stats["iterations"]] == [0]


def test_adaptive_and_faithful_agree_on_layers():
    # both regimes remove the same layers in the same chunks; only their
    # sync rounds and idle repetitions differ
    g = generate("layered-core", {"n": 900, "depth": 80, "d": 3}, seed=5)
    runs = [_metered_partition(g, 3, 0.8, adaptive=adaptive) for adaptive in (False, True)]
    (hp, faithful, _, cl_f), (_, adaptive, _, cl_a) = runs
    _check_chunks(faithful, hp)
    assert faithful == adaptive and max(r for _, r in faithful) >= 2
    assert cl_f.round_idx != cl_a.round_idx


def test_partition_on_restricted_alive_mask():
    g = generate("grid", {"rows": 9, "cols": 9}, seed=0)
    alive = np.ones(g.n, bool)
    alive[::4] = False
    cl = _cluster(g, 0.6)
    sched = compute_schedule(g.max_degree(), cl.cfg.S, g.n, 0.6)
    sub, ids = GraphView(g, alive).compact()
    hp = h_partition(sub, 5)
    chunks, stats = mpc_h_partition(cl, mpc_mod._LayerMap(sub, ids, hp), sched)
    _check_chunks(chunks, hp)
    # the partition's repacks held the phase nodes only, so every round
    # named its nodes by their cluster ids (a node on no machine raises)
    assert (cl.node_machine[~alive] == -1).all() and (cl.node_machine[alive] >= 0).all()


def test_doubling_partition_on_a_strict_subset_is_pinned(tmp_path, monkeypatch):
    # A phase subgraph that is a strict subset of the graph and still runs a
    # radius-2 iteration, so that the ball cache's traffic weights, the
    # clique step and the gather rounds all translate the subgraph's ids to
    # cluster ids.  Every round and every trace row must repeat those of the
    # partition of the same nodes over the whole graph (an alive mask), as
    # recorded before the partition moved to the phase subgraph's ids.
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    g = generate("layered-core", {"n": 600, "depth": 90, "d": 3}, seed=0)
    # drop every other node of the two lowest layers: the tower stays deep
    alive = ~((h_partition(g, 3).layer <= 2) & (np.arange(g.n) % 2 == 0))
    sub, ids = GraphView(g, alive).compact()
    assert 0 < g.n - sub.n < g.n
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.8), name="subset")
    sched = compute_schedule(g.max_degree(), cl.cfg.S, g.n, 0.8)
    hp = h_partition(sub, 3)
    layers = mpc_mod._LayerMap(sub, ids, hp)
    chunks, stats = mpc_h_partition(cl, layers, sched)
    order = hp.order
    assert hp.ell == 88
    assert chunks == [(i, 1) for i in range(1, 66)] + [(i, 2) for i in range(67, 88, 2)] + [(88, 2)]
    assert [(e["radius"], e["alive_before"], e["reps_used"]) for e in stats["iterations"]] == [
        (1, 525, 60), (2, 115, 20),
    ]
    assert stats["iterations"][1]["virtual_added_total"] == 1300
    assert int(layers.virtual.sum()) == 1300
    assert hashlib.sha256(ids[order].tobytes()).hexdigest() == (
        "309505235b1132cbc5656dc4453e4cb2f3d2b5629dbbbec2ab365d7375863283"
    )
    traces = json.dumps([vars(t) for t in cl.traces], sort_keys=True)
    assert len(cl.traces) == 100
    assert hashlib.sha256(traces.encode()).hexdigest() == (
        "329df2ea96ca6e5d77530c4b3162e5790a51f301173dc101bf7a245b5d8c30b1"
    )
    rows = cl.flush_trace().read_bytes()
    assert len(rows.splitlines()) == 14363
    assert hashlib.sha256(rows).hexdigest() == (
        "a35d0dfefa736e6de945d354a60433e9e0e5b0ea7cb9c6ed5fd02f4b941c6037"
    )
    # placements by weight pack ties in id order, so machine-level records
    # cannot tell a consistent id shift; the per-node words can: the
    # virtual words, scattered to cluster ids, sit on the 115 nodes the
    # clique step reached
    virtual = np.zeros(g.n, np.int64)
    virtual[ids] = layers.virtual
    assert np.flatnonzero(virtual).tolist() == list(range(485, 600))
    want = {
        "node_machine": "eb7f6892f6ee19350701f2f88f5869b6f6c53c83275b232c2c4a8f981bee515a",
        "virtual": "bea0ccee1a77aaed127a8f304e220b24256689af165b42ce55b0685a067f9a03",
        "words": "82ac1e105c9e2e993217ce107b67731304c3b62987ec8d0a710f0071edbb5c2b",
    }
    got = {"node_machine": cl.node_machine, "virtual": virtual, "words": cl.words}
    for name, sha256 in want.items():
        assert hashlib.sha256(got[name].tobytes()).hexdigest() == sha256, name


# ---------------------------------------------------------------------------
# mark/propose + selection equality
# ---------------------------------------------------------------------------


def _crossing(cl, src, dst):
    return int((cl.node_machine[src] != cl.node_machine[dst]).sum())


@pytest.mark.parametrize("kind", ["matching", "mis"])
def test_mark_propose_matches_centralized(kind):
    # the metered rounds carry exactly the centralized marks and proposals
    g = generate("preferential-attachment", {"n": 300, "c": 2}, seed=2)
    d = valid_d(g)
    hp = h_partition(g, d)
    ids = np.arange(g.n)
    for seed in (0, 1, 17):
        cl = _cluster(g, 0.8)
        if kind == "matching":
            props = mark_and_propose_matching(g, hp, seed)
        else:
            props = mark_and_propose_mis(g, hp, mis_probability(d), seed)
        mpc_mark_propose(cl, g, ids, hp, props)
        rounds = cl.traces
        assert [t.label for t in rounds] == ["markpropose"] * (3 if kind == "matching" else 2)
        assert rounds[0].total_sent == rounds[0].total_received == 2 * g.m  # layer exchange
        if kind == "matching":
            mk, pr = props.marked, props.proposed
            assert rounds[1].total_sent == _crossing(cl, mk[:, 0], mk[:, 1])
            assert rounds[2].total_sent == _crossing(cl, pr[:, 1], pr[:, 0])
        else:
            src, nb = np.repeat(ids, g.degrees), g.indices
            flow = (hp.layer[nb] == hp.layer[src]) & np.isin(src, props.marked)
            marks_sent = _crossing(cl, ids[src[flow]], ids[nb[flow]])
            assert rounds[1].total_sent == rounds[1].total_received == marks_sent
        assert metrics(cl)["violations"] == []


def test_mark_propose_nothing_routes_nothing():
    g = cycle(4)  # single layer: no oriented edges, no marks
    cl = _cluster(g, 0.9)
    hp = h_partition(g, 2)
    props = mark_and_propose_matching(g, hp, seed=5)
    assert props.marked.shape == (0, 2)
    assert props.proposed.shape == (0, 2)
    mpc_mark_propose(cl, g, np.arange(g.n), hp, props)
    mark_round, propose_round = cl.traces[-2], cl.traces[-1]
    assert mark_round.total_sent == 0 and propose_round.total_sent == 0


def _metered_phases(monkeypatch, case):
    """Run the golden ``case`` through :func:`mpc_pipeline` and return, per
    phase record it meters, a dict of the record (``ph``), the layer map and
    chunks its partition replay made, and the partition stats."""
    family, params, seed, kind, delta, d_floor, adaptive = case
    g = generate(family, params, seed=seed)
    phases = []
    meter_phase, replay = mpc_mod.mpc_phase, mpc_mod.mpc_h_partition

    def metering(cluster, ph, **kwargs):
        phases.append({"ph": ph})
        phases[-1]["stats"] = meter_phase(cluster, ph, **kwargs)
        return phases[-1]["stats"]

    def replaying(cluster, layers, schedule, **kwargs):
        chunks, stats = replay(cluster, layers, schedule, **kwargs)
        phases[-1].update(layers=layers, chunks=chunks)
        return chunks, stats

    with monkeypatch.context() as m:
        m.setattr(mpc_mod, "mpc_phase", metering)
        m.setattr(mpc_mod, "mpc_h_partition", replaying)
        mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, seed, d_floor=d_floor, adaptive=adaptive)
    return phases


def test_removal_order_is_the_stable_sort_by_layer(monkeypatch):
    # on the golden instances, which between them run fallback partitions
    # (k None), radius-1 ones (k = 0) and ball doubling (k >= 1), every
    # metered phase's removal order is the stable by-layer sort of its nodes
    from test_golden_metering import GOLDEN

    levels = set()
    for case in GOLDEN:
        for phase in _metered_phases(monkeypatch, case.values[0]):
            sub, hp = phase["ph"].sub, phase["ph"].hp
            assert phase["layers"].hp is hp and hp.layer.shape == (sub.n,)
            # every node of the phase subgraph is layered, in its own ids
            assert (hp.layer > 0).all()
            want = np.argsort(hp.layer, kind="stable")
            assert hp.order.dtype == np.int64
            assert np.array_equal(hp.order, want)
            _check_chunks(phase["chunks"], hp)
            levels.add(phase["stats"]["k"])
    assert None in levels and 0 in levels
    assert any(k is not None and k >= 1 for k in levels)


@pytest.mark.parametrize("case_id", ["layered-core-matching-doubling", "tree-mis"])
def test_no_round_is_metered_inside_the_driver(monkeypatch, case_id):
    # the cluster meters the driver's records between phases: while a round
    # is recorded, no frame of the driver's phase or finish is running
    from test_golden_metering import GOLDEN

    driver = {
        reduction.reduce_once.__code__, peeling.h_partition.__code__,
        reduction.degree_reduce.__code__, reduction.finish_greedy.__code__,
    }
    record = Cluster._check_and_trace
    inside = []

    def checked(self, *args, **kwargs):
        frame, codes = sys._getframe(1), set()
        while frame is not None:
            codes.add(frame.f_code)
            frame = frame.f_back
        inside.append(bool(codes & driver))
        return record(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "_check_and_trace", checked)
    case = next(p.values[0] for p in GOLDEN if p.id == case_id)
    family, params, seed, kind, delta, d_floor, adaptive = case
    g = generate(family, params, seed=seed)
    _, met = mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, seed, d_floor=d_floor)
    assert len(inside) == met["rounds"] > 50  # every round was seen
    assert not any(inside)


def test_each_phase_record_is_released_before_the_next_is_computed(monkeypatch):
    # a random tree under the independent set, as the tree-phases benchmark
    # runs it: phase 1's subgraph is the graph itself, and from phase 2 on
    # each phase's compacted rows are gone when the next phase starts
    # compacting its remainder, so before its record arrives
    g = generate("tree", {"n": 4096}, seed=0)
    refs, starts = [], []
    meter_phase, compact = mpc_mod.mpc_phase, GraphView.compact

    def metering(cluster, ph, **kwargs):
        assert all(ref() is None for ref in refs[1:])
        refs.append(weakref.ref(ph.sub.indices))
        return meter_phase(cluster, ph, **kwargs)

    def compacting(view):
        starts.append(all(ref() is None for ref in refs[1:]))
        return compact(view)

    monkeypatch.setattr(mpc_mod, "mpc_phase", metering)
    monkeypatch.setattr(GraphView, "compact", compacting)
    _, met = mpc_pipeline(g, ClusterConfig.for_graph(g, 0.5), "mis", 2, 0)
    assert len(met["phases"]) == len(refs) == len(starts) >= 3
    assert all(starts)
    assert refs[0]() is g.indices


@pytest.mark.parametrize("kind", ["matching", "mis"])
def test_select_matches_centralized(kind):
    # the chunk walk drops exactly the nodes the centralized selection removes
    g = generate("layered-core", {"n": 1024, "depth": 100, "d": 3}, seed=0)
    assert g.degrees.min() > 0  # so a zero-word node is a dropped one
    hp = h_partition(g, 3)
    cl = _cluster(g, 0.8)
    layers = _whole(g, hp)
    sched = compute_schedule(g.max_degree(), cl.cfg.S, g.n, 0.8)
    chunks, _ = mpc_h_partition(cl, layers, sched)
    assert layers.virtual.any()  # the clique step stored virtual words
    order = hp.order
    if kind == "matching":
        ref = select_matching(g, hp, mark_and_propose_matching(g, hp, seed=9))
    else:
        ref = select_mis(g, hp, mark_and_propose_mis(g, hp, mis_probability(3), seed=9))
    before = metrics(cl)["rounds_by_label"].get("select", 0)
    survivors = mpc_select(cl, layers, chunks, ref)
    assert np.array_equal(np.flatnonzero(cl.words == 0), ref.removed)
    # the survivors come back ascending
    assert np.array_equal(survivors, np.setdiff1d(np.arange(g.n), ref.removed))
    per_chunk = 2 if kind == "matching" else 3
    assert metrics(cl)["rounds_by_label"]["select"] - before == per_chunk * len(chunks)
    # the order covers every node exactly once (the instance layers them all)
    assert np.array_equal(np.sort(order), np.arange(g.n))
    # every node the selection keeps had its virtual words reclaimed chunk by
    # chunk: it stores its row again
    kept = np.setdiff1d(np.arange(g.n), ref.removed)
    assert np.array_equal(cl.words[kept], g.degrees[kept])
    assert metrics(cl)["violations"] == []


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["matching", "mis"])
def test_pipeline_matches_centralized_solve(pipeline_corpus, kind):
    for spec in pipeline_corpus:
        g = realize(spec)
        cfg = ClusterConfig.for_graph(g, spec["delta"])
        ref, _ = solve(g, kind, target_delta=4, seed=11)
        sol, met = mpc_pipeline(g, cfg, kind, target_delta=4, seed=11)
        assert solution_digest(sol, 11) == solution_digest(ref, 11), spec
        assert verify_maximal(g, sol)
        assert met["violations"] == []
        assert met["peak_words"] <= cfg.S


def _pipeline_cluster(monkeypatch, g, cfg, *args, **kwargs):
    """``(cluster, metrics)`` of ``mpc_pipeline(g, cfg, *args, **kwargs)``:
    the cluster it meters on, and the metrics it returns."""
    made = []
    with monkeypatch.context() as m:
        m.setattr(mpc_mod, "init_cluster", lambda *a, **k: made.append(init_cluster(*a, **k)) or made[-1])
        _, met = mpc_pipeline(g, cfg, *args, **kwargs)
    return made[0], met


def test_one_machine_pays_only_for_volume_rounds(monkeypatch):
    # with every node on one machine no (sender, target) pair crosses
    # machines: the peel's removal rounds and the independent set's finish
    # notify rounds record nothing, while the rounds metered from per-node
    # totals (layer exchange, gathers, selection members) keep their totals
    # (a gather counts every word of its totals, hence the large S)
    g = generate("layered-core", {"n": 1024, "depth": 100, "d": 3}, seed=0)
    cl, _ = _pipeline_cluster(monkeypatch, g, ClusterConfig(delta=0.6, S=32 * g.m, M=1), "mis", 2, 1, d_floor=3)
    assert cl.machines_used == 1
    sent = {}
    for t in cl.traces:
        sent.setdefault(t.label, []).append(t.total_sent)
    assert sent["partition-peel"] and set(sent["partition-peel"]) == {0}
    assert sent["finish"] and set(sent["finish"]) == {0}
    # mark/propose is a layer exchange, then the marks, in every phase
    assert all(w > 0 for w in sent["markpropose"][::2])
    assert set(sent["markpropose"][1::2]) == {0}
    for label in ("partition-clique", "partition-gather", "select"):
        assert max(sent[label]) > 0, label


def test_pipeline_adaptive_same_solution_different_metering():
    g = generate("layered-core", {"n": 900, "depth": 80, "d": 3}, seed=5)
    cfg = ClusterConfig.for_graph(g, 0.8)
    sol_f, met_f = mpc_pipeline(g, cfg, "matching", 4, seed=2, adaptive=False)
    sol_a, met_a = mpc_pipeline(g, cfg, "matching", 4, seed=2, adaptive=True)
    assert solution_digest(sol_f, 2) == solution_digest(sol_a, 2)
    assert partition_rounds(met_f) != partition_rounds(met_a)


def test_pipeline_metrics_shape():
    g = generate("tree", {"n": 150}, seed=0)
    cfg = ClusterConfig.for_graph(g, 0.5)
    sol, met = mpc_pipeline(g, cfg, "mis", 3, seed=4)
    assert met["partition_rounds"] == partition_rounds(met)
    assert met["partition_rounds"] >= 1
    assert isinstance(met["phases"], list) and met["phases"]
    for ph in met["phases"]:
        assert ph["delta_after"] <= ph["delta_before"]
    assert met["rounds"] == sum(met["rounds_by_label"].values())


@pytest.mark.parametrize("kind", ["matching", "mis"])
def test_pipeline_rejects_target_delta_like_solve(kind):
    g = generate("tree", {"n": 150}, seed=0)
    cfg = ClusterConfig.for_graph(g, 0.5)
    with pytest.raises(ValueError) as ref:
        solve(g, kind, 0, seed=4)
    with pytest.raises(ValueError) as got:
        mpc_pipeline(g, cfg, kind, 0, seed=4)
    assert str(got.value) == str(ref.value) == "target_delta must be >= 1"


@pytest.mark.parametrize(
    "kind,target_delta,message",
    [
        ("Matching", 30, "unknown kind 'Matching'; choose from matching, mis"),
        ("matching", 0, "target_delta must be >= 1"),
    ],
)
def test_pipeline_checks_inputs_before_placing_nodes(monkeypatch, kind, target_delta, message):
    g = generate("tree", {"n": 150}, seed=0)
    cfg = ClusterConfig.for_graph(g, 0.5)

    def no_placement(*args, **kwargs):
        raise AssertionError("init_cluster ran before the inputs were checked")

    monkeypatch.setattr(mpc_mod, "init_cluster", no_placement)
    with pytest.raises(ValueError) as ref:
        solve(g, kind, target_delta, seed=4)
    with pytest.raises(ValueError) as got:
        mpc_pipeline(g, cfg, kind, target_delta, seed=4)
    assert str(got.value) == str(ref.value) == message


def test_pipeline_trivial_graph_skips_reduction():
    g = path(6)  # max degree 2 <= target: no phases, straight to the finish
    cfg = ClusterConfig.for_graph(g, 0.6)
    sol, met = mpc_pipeline(g, cfg, "matching", 3, seed=0)
    assert met["phases"] == []
    assert verify_maximal(g, sol)


def _edge_scan_finish_round(cl, rnd):
    """The finish meter as a full edge scan: in a matching round, every
    endpoint of an edge with two alive ends exchanges priorities."""
    g, alive, step = cl.graph, rnd.alive, rnd.step
    after = alive.copy()
    after[step.removed] = False
    if step.kind == "matching":
        e = g.edges[alive[g.edges[:, 0]] & alive[g.edges[:, 1]]]
        nodes = np.unique(e)
        cl.execute_round_volumes(nodes, 1, label="finish")
    else:
        cl.execute_round_bulk(*mpc_mod._notify_pairs(g, step.selected, alive), label="finish")
    cl.execute_round_bulk(*mpc_mod._notify_pairs(g, step.removed, after), label="finish")
    cl.set_words(step.removed, 0)
    cl.control_rounds(2 * cl.agg_depth(), label="finish-sync")


@given(
    st.integers(2, 60),
    st.integers(0, 2 ** 31 - 1),
    st.floats(0.0, 1.0),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(KINDS),
)
@settings(max_examples=50, deadline=None)
def test_finish_meter_matches_full_edge_scan(n, graph_seed, keep, seed, kind):
    # The finish meter keeps the alive degrees current instead of scanning
    # the edge list each round; both must record the same rounds.
    r = np.random.default_rng(graph_seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), graph_seed)
    alive = r.random(n) < keep
    traces, loads = [], []
    for meter in (mpc_finish_round, _edge_scan_finish_round):
        cl = _roomy_cluster(g)
        for rnd in finish_rounds(GraphView(graph=g, alive=alive.copy()), kind, seed):
            meter(cl, rnd)
        traces.append(cl.traces)
        loads.append(cl.loads)
    assert traces[0] == traces[1]
    assert np.array_equal(loads[0], loads[1])
    if (alive[g.edges[:, 0]] & alive[g.edges[:, 1]]).any():
        assert any(t.label == "finish" for t in traces[0])


@pytest.mark.parametrize(
    "case",
    [
        lambda: (star_and_k5(), 1.0, [False, True]),
        lambda: (generate("tree", {"n": 400}, seed=1), 0.6, [False, False]),
        lambda: (generate("bounded-degree-random", {"n": 3000, "deg": 6}, seed=4), 0.5, [True]),
    ],
    ids=["phase-then-stall", "phase", "stall"],
)
def test_pipeline_finish_meter_matches_full_edge_scan(case, monkeypatch):
    # In a run the finish takes its starting degrees from the last phase
    # that selected, and counts them itself when none did.
    g, delta, stalls = case()
    traces = []
    for meter in (mpc_finish_round, _edge_scan_finish_round):
        monkeypatch.setattr(mpc_mod, "mpc_finish_round", meter)
        cl, met = _pipeline_cluster(monkeypatch, g, ClusterConfig.for_graph(g, delta), "matching", 2, 3, exponent=0.5)
        traces.append(cl.traces)
    assert [ph.get("stalled", False) for ph in met["phases"]] == stalls
    assert any(t.label == "finish" for t in traces[0])
    assert traces[0] == traces[1]
