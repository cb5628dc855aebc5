"""Cluster simulation: placement, budgets, routing, rebalance, traces."""

import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsempc import mpc as mpc_mod
from sparsempc import runtime
from sparsempc.generators import generate
from sparsempc.graph import build_graph
from sparsempc.mpc import _notify_round
from sparsempc.reduction import solution_digest
from sparsempc.runtime import (
    CapacityError,
    Cluster,
    ClusterConfig,
    MemoryExceeded,
    ReceiveBudgetExceeded,
    SendBudgetExceeded,
    init_cluster,
    metrics,
    rebalance,
)

from oracles import path, random_graph, star
from test_golden_metering import GOLDEN


def _loads_consistent(cl):
    want = np.bincount(
        cl.node_machine[cl.node_words() > 0],
        weights=cl.node_words()[cl.node_words() > 0],
        minlength=cl.machines_used,
    ).astype(np.int64)
    return np.array_equal(want, cl.loads[: want.size]) and cl.loads[want.size:].sum() == 0


def test_config_for_graph_sizes():
    g = path(16)
    cfg = ClusterConfig.for_graph(g, 0.5)
    assert cfg.S == 4  # ceil(16^0.5)
    assert cfg.M * cfg.S >= cfg.m
    with pytest.raises(ValueError):
        ClusterConfig.for_graph(g, 0.0)
    with pytest.raises(ValueError):
        ClusterConfig.for_graph(g, 1.5)


@pytest.mark.parametrize("delta", [0, -0.5, 1.5, float("nan")])
def test_config_rejects_delta_outside_unit_interval(delta):
    # a directly built config is checked like one from for_graph
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
        ClusterConfig(n=16, m=15, delta=delta, S=4, M=8)
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
        ClusterConfig.for_graph(path(16), delta)


def test_config_total_memory_validation():
    with pytest.raises(ValueError, match="below input size"):
        ClusterConfig(n=10, m=100, delta=0.5, S=4, M=2)


def test_init_path_pinned():
    g = path(16)
    cfg = ClusterConfig.for_graph(g, 0.5)
    cl = init_cluster(g, cfg)
    assert cfg.S == 4
    # 30 stored words at <= 4 words per machine forces at least 8 machines
    assert cl.machines_used >= 8
    assert cl.loads.max() <= 4
    assert _loads_consistent(cl)
    # every node's whole row lives on one machine
    assert cl.node_machine.shape == (16,)


def test_init_star_over_capacity():
    g = star(5)
    cfg = ClusterConfig(n=6, m=5, delta=0.5, S=4, M=8)
    with pytest.raises(CapacityError, match="exceeds S=4"):
        init_cluster(g, cfg)


def test_init_empty_graph():
    g = build_graph(4, np.empty((0, 2), np.int64))
    cfg = ClusterConfig(n=4, m=0, delta=0.5, S=2, M=4)
    cl = init_cluster(g, cfg)
    assert cl.node_words().sum() == 0
    assert metrics(cl)["rounds"] == 0


def test_silent_round_has_zero_volume():
    g = path(8)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    none = np.empty(0, np.int64)
    t = cl.execute_round_volumes(none, none, none, none, label="quiet")
    assert t.total_sent == 0 and t.total_received == 0
    assert t.label == "quiet"
    assert t.round == 0 and cl.round_idx == 1


def test_volume_round_with_one_array_per_side_pair():
    # an exchange passes the same arrays as both sides; the per-machine sums
    # are then formed once and must read as with separate copies
    g = generate("tree", {"n": 200}, seed=3)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    nodes = np.arange(0, 200, 3)
    words = cl.node_words()[nodes]
    shared = cl.execute_round_volumes(nodes, words, nodes, words, label="x")
    apart = cl.execute_round_volumes(nodes.copy(), words.copy(), nodes, words, label="x")
    assert shared.total_sent == shared.total_received == int(words.sum())
    assert (shared.max_sent, shared.max_received) == (apart.max_sent, apart.max_received)
    assert (shared.total_sent, shared.total_received) == (apart.total_sent, apart.total_received)


def test_neighbor_pass_stays_in_budget():
    g = path(16)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    t = cl.execute_round_bulk(np.arange(15), np.arange(1, 16), label="shift")
    assert t.total_sent > 0
    assert t.max_sent <= cl.cfg.S and t.max_received <= cl.cfg.S
    assert not cl.violations


def test_send_budget_violation_names_machine_and_round():
    g = path(16)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    src_m = int(cl.node_machine[0])
    far = int(np.flatnonzero(cl.node_machine != src_m)[0])
    with pytest.raises(SendBudgetExceeded) as ei:
        blast = np.ones(cl.cfg.S + 1, np.int64)
        cl.execute_round_bulk(0 * blast, far * blast, label="blast")
    assert ei.value.machine == src_m
    assert ei.value.round == 0
    assert "machine" in str(ei.value)
    assert cl.violations and cl.violations[0]["kind"] == "send"
    assert cl.violations[0]["machine"] == src_m


def test_receive_budget_violation():
    g = path(16)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    dst_m = int(cl.node_machine[0])
    # one node on every other machine sends two words to node 0
    machines, first = np.unique(cl.node_machine, return_index=True)
    src = first[machines != dst_m]
    assert 2 * src.size > cl.cfg.S
    with pytest.raises(ReceiveBudgetExceeded) as ei:
        cl.execute_round_volumes(src, 2, np.array([0]), np.array([2 * src.size]))
    assert ei.value.machine == dst_m
    assert cl.violations[0]["kind"] == "receive"


def test_memory_violation_from_stored_words():
    g = path(16)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    cl.add_extra_words(np.array([0]), cl.cfg.S + 1)
    with pytest.raises(MemoryExceeded):
        cl.execute_round_volumes(np.array([0]), 1, np.array([15]), 1, label="hoard")
    assert cl.violations[0]["kind"] == "memory"


def test_bulk_round_elides_same_machine_traffic():
    g = path(6)
    cfg = ClusterConfig(n=6, m=5, delta=1.0, S=64, M=1)
    cl = init_cluster(g, cfg)
    # everything fits on one machine at this S, so nothing crosses the wire
    assert cl.machines_used == 1
    t = cl.execute_round_bulk(np.arange(5), np.arange(1, 6), label="local")
    assert t.total_sent == 0 and t.total_received == 0


def _crossing_ledgers(cl, src, dst):
    """Per-machine sent and received words of one-word messages ``src[j]``
    to ``dst[j]``, counted pair by pair, skipping pairs on one machine."""
    sent = np.zeros(cl.machines_used, np.int64)
    received = np.zeros(cl.machines_used, np.int64)
    for u, v in zip(cl.node_machine[src].tolist(), cl.node_machine[dst].tolist()):
        if u != v:
            sent[u] += 1
            received[v] += 1
    return sent, received


@given(
    st.integers(1, 30),
    st.integers(1, 6),
    st.integers(0, 80),
    st.integers(0, 2 ** 31 - 1),
)
@example(n=12, machines=1, pairs=40, seed=3)  # every node on one machine
@example(n=12, machines=4, pairs=0, seed=3)  # an empty round
@settings(max_examples=150, deadline=None)
def test_pair_rounds_count_only_crossing_pairs(n, machines, pairs, seed):
    """On a random placement, a round of (sender, target) pairs, given
    directly or as the notify round of the cluster pipeline, records per
    machine the pairs that cross machines and nothing for the others."""
    r = np.random.default_rng(seed)
    g = random_graph(n, 2 * n, seed)
    cl = Cluster(g, ClusterConfig(n=n, m=g.m, delta=0.5, S=10 ** 6, M=machines))
    cl.node_machine = r.integers(0, machines, size=n)
    cl.machines_used = machines
    senders = np.flatnonzero(r.random(n) < 0.5)
    mask = r.random(n) < 0.5
    nb_src = np.repeat(np.arange(n), g.degrees)
    live = np.isin(nb_src, senders) & mask[g.indices]
    rounds = [
        (r.integers(0, n, size=pairs), r.integers(0, n, size=pairs)),
        (nb_src[live], g.indices[live]),
    ]
    recorded = []
    record = cl._check_and_trace

    def capture(label, sent, received):
        recorded.append((sent, received))
        return record(label, sent, received)

    with mock.patch.object(cl, "_check_and_trace", capture):
        cl.execute_round_bulk(*rounds[0], label="pairs")
        _notify_round(cl, g, senders, mask, "notify")
    assert len(recorded) == 2
    for (src, dst), (sent, received) in zip(rounds, recorded):
        want_sent, want_received = _crossing_ledgers(cl, src, dst)
        assert np.array_equal(np.pad(sent, (0, machines - sent.size)), want_sent)
        assert np.array_equal(np.pad(received, (0, machines - received.size)), want_received)


def test_rebalance_budget_arithmetic():
    # 20 matched pairs among 100 nodes; the machine loads must stay equal to
    # the stored words of the nodes each machine holds as the population
    # shrinks
    g = build_graph(100, [(i, 50 + i) for i in range(20)])
    cfg = ClusterConfig(n=100, m=20, delta=0.3, S=8, M=25)
    cl = init_cluster(g, cfg)
    alive = np.ones(100, bool)
    rebalance(cl, alive)
    assert _loads_consistent(cl)
    assert int(cl.loads.sum()) == 40  # one word per adjacency entry
    alive[50:] = False
    rebalance(cl, alive)
    assert _loads_consistent(cl)
    assert int(cl.loads.sum()) == 20  # the partners at 50..69 were dropped
    alive[25:] = False
    rebalance(cl, alive)
    assert _loads_consistent(cl)
    assert cl.loads.max() <= cfg.S
    # dead nodes were dropped from the machines
    assert cl.node_words()[50:].sum() == 0
    assert (cl.node_words()[:20] > 0).all()


def test_rebalance_empty_alive_is_noop():
    g = path(10)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    before = metrics(cl)["rounds"]
    rebalance(cl, np.zeros(10, bool))
    assert metrics(cl)["rounds"] == before  # no data round consumed


def test_rebalance_keep_retains_rows_without_budget_weight():
    g = path(12)
    cfg = ClusterConfig(n=12, m=11, delta=0.5, S=8, M=12)
    cl = init_cluster(g, cfg)
    # the held set: nodes 0-3 still alive, 4-7 retired but keeping their rows
    hold = np.zeros(12, bool)
    hold[:8] = True
    rebalance(cl, hold)
    # held nodes still store their rows; the rest were dropped
    assert (cl.node_words()[:8] > 0).all()
    assert cl.node_words()[8:].sum() == 0
    assert _loads_consistent(cl)


def test_metrics_round_counting():
    g = path(8)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    assert metrics(cl)["rounds"] == 0
    cl.control_rounds(3, label="ping")
    m = metrics(cl)
    assert m["rounds"] == 3
    assert m["rounds_by_label"] == {"ping": 3}
    assert m["violations"] == []


def test_metrics_peak_matches_trace_recomputation():
    g = generate("grid", {"rows": 6, "cols": 6}, seed=0)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.6))
    cl.execute_round_bulk(g.edges[:, 0], g.edges[:, 1], label="a")
    rebalance(cl, np.ones(g.n, bool))
    m = metrics(cl)
    assert m["peak_words"] == max(t.peak_words for t in cl.traces)
    assert m["total_messages"] == sum(t.total_sent for t in cl.traces)


def test_agg_depth():
    g = path(8)
    cl = init_cluster(g, ClusterConfig(n=8, m=7, delta=0.5, S=10, M=100))
    assert cl.agg_depth() == 2  # ceil(ln 100 / ln 10)
    g4 = path(4)
    cl1 = init_cluster(g4, ClusterConfig(n=4, m=3, delta=0.5, S=10, M=1))
    assert cl1.agg_depth() == 0


@given(
    st.integers(1, 60),
    st.integers(0, 2 ** 31 - 1),
    st.integers(1, 4),
    st.sampled_from([5, 2 ** 8, 2 ** 16, 2 ** 32]),
)
@example(n=40, seed=1, distinct_weights=4, scale=2 ** 32)
@example(n=40, seed=1, distinct_weights=1, scale=5)
@settings(max_examples=120, deadline=None)
def test_place_order_matches_lexsort(n, seed, distinct_weights, scale):
    """Placement walks nodes by (weight descending, node id); a weight of 0
    packs as 1.  The weights repeat, so ties are common.  ``scale`` spreads
    the weights past 2^8, 2^16 and 2^32, so every width of sort key
    ``_place`` can pick is exercised.  Packing every node into its own bin
    makes each node's machine id its position in the walk."""
    r = np.random.default_rng(seed)
    g = path(n)
    keep = r.random(n) < 0.7
    keep[int(r.integers(n))] = True
    nodes = np.flatnonzero(keep)
    store_w = r.integers(0, distinct_weights, size=nodes.size).astype(np.int64) * scale
    cl = Cluster(g, ClusterConfig(n=n, m=g.m, delta=0.5, S=10 ** 6, M=n))
    with mock.patch.object(runtime, "pack_bins", lambda w, cap: np.arange(w.size, dtype=np.int64)):
        position = cl._place(nodes, store_w)
    want = np.empty(nodes.size, np.int64)
    want[np.lexsort((nodes, -np.maximum(store_w, 1)))] = np.arange(nodes.size)
    assert np.array_equal(position, want)


@pytest.mark.parametrize("weighted", [False, True])
def test_repacking_an_unchanged_set_moves_nothing(weighted):
    # The placement depends only on the held set and its packing weights,
    # so a second repack of the same set records a data round of 0 words
    # and leaves every node where it was.
    g = generate("tree", {"n": 400}, seed=2)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    hold = np.random.default_rng(2).random(g.n) < 0.6
    weights = g.degrees.astype(np.int64) + 1 if weighted else None
    rebalance(cl, hold, weights=weights)
    machine, loads = cl.node_machine.copy(), cl.loads.copy()
    rebalance(cl, hold, weights=weights)
    t = cl.traces[-1]
    assert t.label == "rebalance"
    assert (t.total_sent, t.total_received) == (0, 0)
    assert np.array_equal(cl.node_machine, machine)
    assert np.array_equal(cl.loads, loads)


def _state(cl):
    return (len(cl.traces), cl.settled, *(
        getattr(cl, a).copy() for a in ("node_machine", "loads", "base_words", "extra_words")
    ))


def _same_state(a, b):
    return a[:2] == b[:2] and all(np.array_equal(x, y) for x, y in zip(a[2:], b[2:]))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "step", ["set_base_words", "add_extra_words", "drop_nodes", "pairs", "volumes", "counts"]
)
def test_a_node_on_no_machine_raises_and_changes_nothing(step, weighted):
    # A node the last repack did not hold is on no machine and stores
    # nothing, so no ledger change or round may charge a machine for it.
    g = generate("tree", {"n": 400}, seed=2)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    hold = np.ones(g.n, bool)
    hold[7] = False
    rebalance(cl, hold, weights=g.degrees + 1 if weighted else None)
    assert cl.node_machine[7] == -1 and cl.node_words()[7] == 0
    nodes = np.array([3, 7])
    act = {
        "set_base_words": lambda: cl.set_base_words(nodes, np.array([1, 1])),
        "add_extra_words": lambda: cl.add_extra_words(nodes, 2),
        "drop_nodes": lambda: cl.drop_nodes(nodes),
        "pairs": lambda: cl.execute_round_bulk(np.array([3, 5]), nodes),
        "volumes": lambda: cl.execute_round_volumes(nodes, np.array([1, 2]), nodes[:1], 1),
        "counts": lambda: cl.execute_round_volumes(nodes[:1], 1, nodes, 1),
    }[step]
    before = _state(cl)
    with pytest.raises(runtime.UnplacedNodeError, match="node 7 ") as err:
        act()
    assert err.value.node == 7
    assert _same_state(_state(cl), before)


@pytest.mark.parametrize("case", [
    "scalar-hold", "int-hold", "short-hold", "long-weights", "negative-weights", "float-weights",
])
def test_rebalance_rejects_a_malformed_hold_or_weights(case):
    # A hold that is not a bool mask over all nodes, or weights that are not
    # one nonnegative integer per node, would place a wrong set or pack by
    # nonsense; the repack refuses them before it changes anything.
    g = generate("tree", {"n": 400}, seed=2)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    hold, weights = np.ones(g.n, bool), None
    if case == "scalar-hold":
        hold = True
    elif case == "int-hold":
        hold = np.ones(g.n, np.int64)
    elif case == "short-hold":
        hold = hold[1:]
    elif case == "long-weights":
        weights = np.ones(g.n + 1, np.int64)
    elif case == "negative-weights":
        weights = np.ones(g.n, np.int64)
        weights[5] = -1
    else:
        weights = np.ones(g.n)
    before = _state(cl)
    with pytest.raises(ValueError, match="hold" if case.endswith("hold") else "weights"):
        rebalance(cl, hold, weights=weights)
    assert _same_state(_state(cl), before)


@pytest.mark.parametrize(
    "change", ["set_base_words", "add_extra_words", "drop_nodes", "member", "weight"]
)
def test_changed_set_or_weight_runs_a_real_placement(change):
    g = generate("tree", {"n": 400}, seed=2)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    hold = np.random.default_rng(2).random(g.n) < 0.6
    # a swapped member keeps the size and, with these weights, every weight
    weights = np.ones(g.n, np.int64) if change in ("member", "weight") else None
    rebalance(cl, hold, weights=weights)
    v = int(np.flatnonzero(hold)[0])
    if change == "set_base_words":
        cl.set_base_words(np.array([v]), np.array([cl.base_words[v] + 1]))
    elif change == "add_extra_words":
        cl.add_extra_words(np.array([v]), 3)
    elif change == "drop_nodes":
        cl.drop_nodes(np.array([v]))
    elif change == "member":
        hold[v] = False
        hold[int(np.flatnonzero(~hold)[-1])] = True
    else:
        weights[v] = 2
    with mock.patch.object(cl, "_place", wraps=cl._place) as place:
        rebalance(cl, hold, weights=weights)
    assert place.call_count == 1
    assert _loads_consistent(cl)


def test_traced_weight_partition_rebalance_places_for_real():
    # A radius-2 iteration packs by predicted traffic, weights that differ
    # from the stored words the previous repack packed by, so its
    # partition-rebalance runs the placement.
    g = generate("layered-core", {"n": 1024, "depth": 100, "d": 3}, seed=0)
    cfg = ClusterConfig.for_graph(g, 0.8)
    calls = []

    def spy(cluster, hold, *, weights=None, label="rebalance"):
        before = place.call_count
        out = runtime.rebalance(cluster, hold, weights=weights, label=label)
        calls.append((label, weights is not None, place.call_count - before))
        return out

    with mock.patch.object(Cluster, "_place", autospec=True, side_effect=Cluster._place) as place:
        with mock.patch.object(mpc_mod, "rebalance", spy):
            mpc_mod.mpc_pipeline(g, cfg, "matching", 2, 0, d_floor=3)
    traced = [c for c in calls if c[1]]
    assert traced and all(c == ("partition-rebalance", True, 1) for c in traced)
    # phase 1 repacks the set init_cluster placed, twice, with no placement
    assert calls[:2] == [("rebalance", False, 0), ("partition-rebalance", False, 0)]


WALK_STEPS = ("set_base_words", "add_extra_words", "drop_nodes", "pairs", "volumes",
              "nothing", "same-hold", "same-hold", "new-hold", "weighted")


def _ledger_walk(seed, *, forced):
    """A cluster on a 300-node tree through a random walk of ledger changes
    and rounds on nodes drawn from the whole graph, and of repacks, the
    first right after the initial placement.  A step that touches a node
    the last repack did not hold must raise and change nothing.  With
    ``forced`` every repack clears ``settled`` first, so that it places.
    Returns the cluster and, per repack, whether it placed."""
    r = np.random.default_rng(seed)
    g = generate("tree", {"n": 300}, seed=3)
    cl = init_cluster(g, ClusterConfig(n=g.n, m=g.m, delta=0.9, S=4096, M=16))
    hold = np.ones(g.n, bool)
    placed = []
    for step in ["same-hold", *r.choice(WALK_STEPS, size=40)]:
        if step in WALK_STEPS[:5]:
            v = r.choice(g.n, size=3, replace=False)
            act = {
                "set_base_words": lambda: cl.set_base_words(v, r.integers(0, 5, size=3)),
                "add_extra_words": lambda: cl.add_extra_words(v, int(r.integers(1, 3))),
                "drop_nodes": lambda: cl.drop_nodes(v),
                "pairs": lambda: cl.execute_round_bulk(v[:2], v[1:], label="pairs"),
                "volumes": lambda: cl.execute_round_volumes(
                    v, r.integers(0, 4, size=3), v[::-1], 2, label="volumes"
                ),
            }[step]
            if hold[v].all():
                act()
                continue
            before = _state(cl)
            with pytest.raises(runtime.UnplacedNodeError) as err:
                act()
            assert not hold[err.value.node] and err.value.node in v
            assert _same_state(_state(cl), before)
        elif step != "nothing":
            if step == "new-hold":
                hold = r.random(g.n) < 0.8
            weights = g.degrees + r.integers(0, 3, g.n) if step == "weighted" else None
            if forced:
                cl.settled = False
            with mock.patch.object(cl, "_place", wraps=cl._place) as place:
                rebalance(cl, hold, weights=weights)
            placed.append(place.called)
    return cl, placed


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_ledger_walk_over_the_whole_graph_equals_the_forced_placements(seed):
    # A repack by stored words of the held set of a settled cluster skips
    # the placement; random ledger changes, new hold masks and weighted
    # repacks in between must send it down the full path.  Either way the
    # rounds, trace rows and ledgers equal those of a cluster that places on
    # every repack, and a step on a node that no machine holds raises.
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as trace_dir:
        mp.setenv("MPC_TRACE_DIR", trace_dir)  # so that both record trace rows
        kept, kept_placed = _ledger_walk(seed, forced=False)
        full, full_placed = _ledger_walk(seed, forced=True)
    assert all(full_placed) and not kept_placed[0]
    assert kept.traces == full.traces
    assert kept._trace_rows == full._trace_rows
    for attr in ("node_machine", "loads", "base_words", "extra_words"):
        assert np.array_equal(getattr(kept, attr), getattr(full, attr)), attr
    assert kept.machines_used == full.machines_used


def _pipeline_with_repacks(case, *, forced):
    """Run ``case`` (as in the golden metering cases) traced.  With
    ``forced`` every repack clears ``settled`` first, so that it places.
    Returns the digest, the cluster and how many repacks skipped the
    placement."""
    family, params, seed, kind, delta, d_floor, adaptive = case
    g = generate(family, params, seed=seed)
    clusters, skips = [], 0

    def repack(cluster, hold, **kwargs):
        nonlocal skips
        clusters.append(cluster)
        if forced:
            cluster.settled = False
        before = place.call_count
        out = runtime.rebalance(cluster, hold, **kwargs)
        skips += place.call_count == before
        return out

    with mock.patch.object(Cluster, "_place", autospec=True, side_effect=Cluster._place) as place:
        with mock.patch.object(mpc_mod, "rebalance", repack):
            sol, _ = mpc_mod.mpc_pipeline(
                g, ClusterConfig.for_graph(g, delta), kind, 2, seed,
                d_floor=d_floor, adaptive=adaptive,
            )
    assert all(c is clusters[0] for c in clusters)
    return solution_digest(sol, seed), clusters[0], skips


@pytest.mark.parametrize("case", [
    *(pytest.param(p.values[0], id=p.id) for p in GOLDEN),
    pytest.param(
        ("layered-core", {"n": 2048, "depth": 160, "d": 3}, 1, "matching", 0.8, 3, False),
        id="layered-core-2048-doubling",
    ),
])
def test_pipeline_repacks_that_skip_the_placement_change_no_round(case, monkeypatch, tmp_path):
    # Phase 1 repacks the set init_cluster placed, twice, by stored words;
    # both skip the placement, and forcing it changes no round or row.
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    digest, kept, skips = _pipeline_with_repacks(case, forced=False)
    full_digest, full, none = _pipeline_with_repacks(case, forced=True)
    assert skips >= 2 and none == 0
    assert digest == full_digest
    assert kept.traces == full.traces
    assert kept._trace_rows == full._trace_rows


@pytest.mark.parametrize("nodes", [[2, 1, 3], [0, 1, 1, 4]])
def test_place_rejects_nodes_not_strictly_ascending(nodes):
    g = path(5)
    cl = Cluster(g, ClusterConfig(n=5, m=4, delta=0.5, S=10, M=5))
    with pytest.raises(ValueError, match="ascending"):
        cl._place(np.array(nodes, np.int64), np.ones(len(nodes), np.int64))


def _run_traced_program(tmpdir, name):
    g = generate("tree", {"n": 60}, seed=4)
    cfg = ClusterConfig.for_graph(g, 0.5)
    cl = init_cluster(g, cfg, name=name)
    alive = np.ones(g.n, bool)
    cl.execute_round_bulk(g.edges[:, 0], g.edges[:, 1], label="edge-pass")
    alive[::3] = False
    rebalance(cl, alive)
    cl.control_rounds(2)
    cl.execute_round_bulk(np.flatnonzero(alive)[:5], np.flatnonzero(alive)[5:10], label="probe")
    path_out = cl.flush_trace()
    return cl, path_out


def test_trace_persisted_and_reverifiable(tmp_path, monkeypatch):
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    cl, out = _run_traced_program(tmp_path, "prog")
    assert out is not None and out.exists()
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows, "trace must not be empty"
    S = cl.cfg.S
    for row in rows:
        assert set(row) == {"round", "machine", "words_used", "sent", "received"}
        assert row["words_used"] <= S and row["sent"] <= S and row["received"] <= S
    # per-round maxima recomputed from rows match the in-memory traces
    by_round = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(row)
    for t in cl.traces:
        got = max(r["words_used"] for r in by_round[t.round])
        assert got == t.peak_words


def test_trace_byte_for_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path / "a"))
    _, p1 = _run_traced_program(tmp_path, "one")
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path / "b"))
    _, p2 = _run_traced_program(tmp_path, "one")
    assert p1.read_bytes() == p2.read_bytes()


def test_no_trace_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("MPC_TRACE_DIR", raising=False)
    g = path(6)
    cl = init_cluster(g, ClusterConfig.for_graph(g, 0.5))
    assert cl.flush_trace() is None


def test_trace_past_keep_limit_writes_one_aggregate_row_per_round(tmp_path, monkeypatch):
    # Past runtime._TRACE_KEEP_LIMIT machines no per-machine rows are kept:
    # every round is one `machine: -1` row carrying that round's maxima.
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    g = path(5000)
    cfg = ClusterConfig(n=5000, m=4999, delta=0.5, S=4, M=10000)
    cl = init_cluster(g, cfg, name="wide")
    assert cl.machines_used > runtime._TRACE_KEEP_LIMIT
    e = g.edges
    sm, dm = cl.node_machine[e[:, 0]], cl.node_machine[e[:, 1]]
    cross = sm != dm
    want_sent = int(np.bincount(sm[cross]).max())
    want_received = int(np.bincount(dm[cross]).max())
    want_peak = int(np.bincount(cl.node_machine, weights=g.degrees).max())
    t = cl.execute_round_bulk(e[:, 0], e[:, 1], label="edges")
    assert (t.peak_words, t.max_sent, t.max_received) == (want_peak, want_sent, want_received)
    want_out = int(np.bincount(cl.node_machine[:10], weights=np.full(10, 2)).max())
    want_in = int(np.bincount(cl.node_machine[10:20], weights=np.full(10, 2)).max())
    t = cl.execute_round_volumes(np.arange(10), 2, np.arange(10, 20), 2, label="volumes")
    assert (t.max_sent, t.max_received) == (want_out, want_in)
    cl.control_rounds(2, label="sync")
    rebalance(cl, np.ones(g.n, bool))
    assert cl.machines_used > runtime._TRACE_KEEP_LIMIT
    assert [t.label for t in cl.traces] == (
        ["edges", "volumes", "sync", "sync"] + ["rebalance-plan"] * cl.agg_depth() + ["rebalance"]
    )
    assert cl.traces[2].max_sent == cl.traces[2].max_received == 2
    rows = [json.loads(line) for line in cl.flush_trace().read_text().splitlines()]
    assert rows == [
        {
            "round": t.round,
            "machine": -1,
            "words_used": t.peak_words,
            "sent": t.max_sent,
            "received": t.max_received,
        }
        for t in cl.traces
    ]
    assert [row["round"] for row in rows] == list(range(len(rows)))
