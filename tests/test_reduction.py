"""Mark-and-propose, selection sweeps, iterated reduction, greedy finish."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsempc import reduction, rng
from sparsempc.generators import generate
from sparsempc.graph import GraphView, build_graph
from sparsempc.kernels import alive_degrees
from sparsempc.mpc import mpc_pipeline
from sparsempc.peeling import HPartition, degeneracy, h_partition
from sparsempc.reduction import (
    KINDS,
    STOP_REASONS,
    InvariantError,
    PartialSolution,
    ProposalSet,
    degree_reduce,
    finish_greedy,
    luby_matching_round,
    luby_mis_round,
    mark_and_propose_matching,
    mark_and_propose_mis,
    mis_probability,
    phase_threshold,
    reduce_once,
    select_matching,
    select_mis,
    solution_digest,
    solution_to_json,
    solve,
    solve_records,
    verify_maximal,
)
from sparsempc.runtime import ClusterConfig

from conftest import realize, valid_d
from oracles import (
    alive_degrees_all_rows,
    check_matching_proposals_by_sets,
    complete,
    cycle,
    finish_by_rounds,
    heavy_counts_all_rows,
    luby_matching_round_by_edge,
    luby_mis_round_all_n,
    mark_and_propose_matching_by_rank,
    mis_proposals_all_rows,
    path,
    random_graph,
    select_matching_per_layer,
    select_mis_per_layer,
    star,
    star_and_k5,
)


def _manual_hp(layers, d):
    layer = np.asarray(layers, np.int64)
    order = np.argsort(layer, kind="stable")
    return HPartition(layer=layer, d=d, ell=int(layer.max()), order=order)


# ---------------------------------------------------------------------------
# mark and propose, matching
# ---------------------------------------------------------------------------


def test_matching_single_oriented_edge_always_proposed():
    g = path(2)
    hp = _manual_hp([1, 2], 1)
    for seed in range(25):
        props = mark_and_propose_matching(g, hp, seed)
        assert props.marked.tolist() == [[0, 1]]
        assert props.proposed.tolist() == [[0, 1]]


def test_matching_unoriented_cycle_marks_nothing():
    g = cycle(4)
    hp = h_partition(g, 2)
    assert hp.ell == 1
    props = mark_and_propose_matching(g, hp, 7)
    assert props.marked.shape == (0, 2)
    assert props.proposed.shape == (0, 2)


def test_matching_star_proposal_frequency():
    g = star(5)
    hp = h_partition(g, 2)
    counts = np.zeros(6, np.int64)
    for seed in range(10_000):
        props = mark_and_propose_matching(g, hp, seed)
        assert props.marked.shape[0] == 5  # every leaf marks its only edge
        assert props.proposed.shape[0] == 1
        counts[props.proposed[0, 0]] += 1
    freq = counts[1:] / 10_000
    assert np.all(np.abs(freq - 0.2) < 0.02)


def test_matching_marks_uniform_over_outgoing():
    # one child under three parents: each parent edge marked ~1/3 of the time
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    hp = _manual_hp([1, 2, 2, 2], 1)
    counts = np.zeros(4, np.int64)
    for seed in range(6000):
        props = mark_and_propose_matching(g, hp, seed)
        assert props.marked.shape[0] == 1
        counts[props.marked[0, 1]] += 1
    freq = counts[1:] / 6000
    assert np.all(np.abs(freq - 1 / 3) < 0.03)


@pytest.mark.parametrize(
    "family,params",
    [
        ("preferential-attachment", {"n": 400, "c": 3}),
        ("bounded-degree-random", {"n": 300, "deg": 6}),
        ("layered-core", {"n": 600, "depth": 30, "d": 3}),
    ],
)
def test_matching_proposals_come_out_in_parent_child_order(family, params):
    # read off the marks grouped by parent, one per parent, so no sort follows
    g = generate(family, params, seed=4)
    hp = h_partition(g, degeneracy(g).degeneracy)
    child_order_differs = False
    for seed in range(10):
        pr = mark_and_propose_matching(g, hp, seed).proposed
        assert pr.shape[0] > 10
        assert np.all(np.diff(pr[:, 1]) > 0)  # one per parent, parents ascending
        assert np.array_equal(pr, pr[np.lexsort((pr[:, 0], pr[:, 1]))])
        child_order_differs |= not np.all(np.diff(pr[:, 0]) > 0)
    assert child_order_differs  # the (child, parent) order would be another


MARK_SHAPES = ("random", "one-layer", "hub")


def _layered_case(n, graph_seed, shape):
    """A graph and a layer map: random layers on a random graph, every node
    in one layer (no edge is oriented), or a star whose hub sits above all
    its leaves, so every leaf marks the hub."""
    r = np.random.default_rng(graph_seed)
    if shape == "hub":
        g = star(n - 1) if n > 1 else build_graph(n, [])
        layer = np.ones(n, np.int64)
        layer[:1] = 2
    else:
        g = random_graph(n, int(r.integers(0, 3 * n + 1)), graph_seed) if n else build_graph(0, [])
        layer = r.integers(1, int(r.integers(1, 6)) + 1, size=n)
        if shape == "one-layer":
            layer[:] = 1
    order = np.argsort(layer, kind="stable")
    return g, HPartition(layer=layer, d=1, ell=int(layer.max(initial=0)), order=order)


@example(n=0, graph_seed=0, shape="random", seed=3)
@example(n=1, graph_seed=0, shape="random", seed=3)
@example(n=30, graph_seed=5, shape="one-layer", seed=3)
@example(n=500, graph_seed=0, shape="hub", seed=3)
@example(n=500, graph_seed=0, shape="hub", seed=4)
@given(
    st.integers(0, 60),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(MARK_SHAPES),
    st.integers(0, 2 ** 63 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matching_proposals_match_rank_oracle(n, graph_seed, shape, seed):
    # The marks read off the run of outgoing slots and the proposals grouped
    # by one stable sort of the parents are those of ranking every slot and
    # lexsorting the marks by (parent, child), array for array.
    g, hp = _layered_case(n, graph_seed, shape)
    got = mark_and_propose_matching(g, hp, seed)
    want = mark_and_propose_matching_by_rank(g, hp, seed)
    for a, b in ((got.marked, want.marked), (got.proposed, want.proposed)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    if shape == "hub" and n > 1:  # every leaf marks the hub, which proposes once
        assert got.marked.shape[0] == n - 1 and got.proposed.shape[0] == 1
    if shape == "one-layer" or n < 2:  # no oriented edge: no node marks
        assert got.marked.shape == (0, 2)


# ---------------------------------------------------------------------------
# selection, matching
# ---------------------------------------------------------------------------


def test_select_matching_chain_takes_top_edge():
    g = path(3)
    hp = _manual_hp([1, 2, 3], 1)
    props = ProposalSet(
        kind="matching",
        marked=np.array([[0, 1], [1, 2]], np.int64),
        proposed=np.array([[0, 1], [1, 2]], np.int64),
    )
    sol = select_matching(g, hp, props)
    assert sol.selected.tolist() == [[1, 2]]
    assert sol.removed.tolist() == [1, 2]


def test_select_matching_empty():
    g = path(2)
    hp = _manual_hp([1, 2], 1)
    props = ProposalSet(
        kind="matching",
        marked=np.empty((0, 2), np.int64),
        proposed=np.empty((0, 2), np.int64),
    )
    sol = select_matching(g, hp, props)
    assert sol.selected.shape == (0, 2) and sol.removed.size == 0


def test_select_matching_single_proposed_edge():
    g = path(2)
    hp = _manual_hp([1, 2], 1)
    props = ProposalSet(
        kind="matching",
        marked=np.array([[0, 1]], np.int64),
        proposed=np.array([[0, 1]], np.int64),
    )
    assert select_matching(g, hp, props).selected.tolist() == [[0, 1]]


def test_select_matching_rejects_double_mark():
    g = build_graph(3, [(0, 1), (0, 2)])
    hp = _manual_hp([1, 2, 2], 1)
    props = ProposalSet(
        kind="matching",
        marked=np.array([[0, 1], [0, 2]], np.int64),  # node 0 marked twice
        proposed=np.empty((0, 2), np.int64),
    )
    with pytest.raises(InvariantError, match="marked more than one"):
        select_matching(g, hp, props)


def _matching_props(marked, proposed):
    return ProposalSet(
        kind="matching",
        marked=np.array(marked, np.int64).reshape(-1, 2),
        proposed=np.array(proposed, np.int64).reshape(-1, 2),
    )


def _assert_select_matches_oracle(g, hp, props):
    sol = select_matching(g, hp, props)
    want_selected, want_removed = select_matching_per_layer(g, hp, props)
    assert np.array_equal(sol.selected, want_selected)
    assert np.array_equal(sol.removed, want_removed)
    # commit order: the receiving layers never increase
    assert (np.diff(hp.layer[sol.selected[:, 1]]) <= 0).all()
    return sol


def _pinned_select_case(name):
    if name == "no-proposals":
        # marks, but no parent proposes
        return path(3), _manual_hp([1, 2, 3], 1), _matching_props([[0, 1], [1, 2]], [])
    if name == "one-receiver-layer":
        # four children in layer 1 propose to four parents in layer 2
        g = build_graph(8, [(0, 4), (0, 5), (1, 5), (2, 6), (3, 7), (4, 5)])
        hp = _manual_hp([1, 1, 1, 1, 2, 2, 2, 2], 2)
        edges = [[0, 4], [1, 5], [2, 6], [3, 7]]
        return g, hp, _matching_props(edges, edges)
    if name == "long-chain":
        # a path climbing one layer per node; each node proposes its only
        # incoming mark, so the sweep commits every other edge from the top
        # down (from the bottom it would take the other half)
        edges = [[i, i + 1] for i in range(10)]
        return path(11), _manual_hp(range(1, 12), 1), _matching_props(edges, edges)
    if name == "gapped-layers":
        # receivers in layers 4, 7 and 9; the top commit blocks layer 4
        g = path(5)
        hp = _manual_hp([1, 4, 9, 2, 7], 2)
        edges = [[0, 1], [1, 2], [3, 4]]
        return g, hp, _matching_props(edges, edges)
    raise AssertionError(name)


@pytest.mark.parametrize(
    "name,selected",
    [
        ("no-proposals", []),
        ("one-receiver-layer", [[0, 4], [1, 5], [2, 6], [3, 7]]),
        ("long-chain", [[9, 10], [7, 8], [5, 6], [3, 4], [1, 2]]),
        ("gapped-layers", [[1, 2], [3, 4]]),
    ],
)
def test_select_matching_pinned_sweeps(name, selected):
    g, hp, props = _pinned_select_case(name)
    sol = _assert_select_matches_oracle(g, hp, props)
    assert sol.selected.tolist() == selected
    assert sol.removed.tolist() == sorted(v for e in selected for v in e)


@given(
    st.integers(1, 60),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(["h-partition", "random-layers"]),
    st.integers(0, 2),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_select_matching_matches_per_layer_oracle(n, graph_seed, layers, extra_d, seed):
    # The one-sort sweep against the per-layer sweep, on the proposals of
    # an H-partition, or of random (often non-consecutive) layers with
    # marks and proposals drawn the same way.
    r = np.random.default_rng(graph_seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), graph_seed)
    d = degeneracy(g).degeneracy + extra_d
    if layers == "h-partition":
        hp = h_partition(g, max(d, 1))
    else:
        hp = _manual_hp(r.choice([1, 2, 3, 5, 8, 13], size=n), d)
    props = mark_and_propose_matching(g, hp, seed)
    _assert_select_matches_oracle(g, hp, props)


@pytest.mark.parametrize(
    "case,message",
    [
        pytest.param(
            (build_graph(3, [(0, 2), (1, 2)]), [1, 1, 2], [[0, 2], [1, 2]], [[0, 2], [1, 2]]),
            "proposed more than one incoming edge",
            id="node-2-accepts-two-proposals",
        ),
        pytest.param(
            (path(2), [2, 1], [[0, 1]], [[0, 1]]),
            "not oriented child -> parent",
            id="mark-from-layer-2-down-to-layer-1",
        ),
        pytest.param(
            (build_graph(3, [(0, 2), (1, 2)]), [1, 1, 2], [[0, 2]], [[1, 2]]),
            "proposed edge was never marked",
            id="proposal-1-2-differs-from-mark-0-2-in-its-child",
        ),
        pytest.param(
            (path(2), [1, 2], [], [[0, 1]]),
            "proposed edge was never marked",
            id="proposal-without-any-mark",
        ),
    ],
)
def test_select_matching_rejects_broken_proposals(case, message):
    # the fourth path, a node marking two edges, has its own test above
    g, layers, marked, proposed = case
    hp = _manual_hp(layers, 1)
    props = _matching_props(marked, proposed)
    with pytest.raises(InvariantError, match=message):
        select_matching(g, hp, props)
    with pytest.raises(InvariantError, match=message):
        check_matching_proposals_by_sets(g, hp, props)


def test_select_matching_rejects_independent_set_proposals():
    props = ProposalSet(kind="mis", marked=np.array([0]), proposed=np.array([0]))
    with pytest.raises(InvariantError, match="expected matching proposals, got mis"):
        select_matching(path(2), _manual_hp([1, 2], 1), props)


def test_select_matching_dedupes_by_sort_not_hash(monkeypatch):
    # numpy 2.4's np.unique hashes, far slower than a sort on integers; the
    # sweep and its checks must not call it
    g = generate("layered-core", {"n": 600, "depth": 30, "d": 3}, seed=1)
    hp = h_partition(g, 3)
    props = mark_and_propose_matching(g, hp, 5)
    assert props.proposed.shape[0] > 100
    want = select_matching_per_layer(g, hp, props)

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called during select_matching")

    monkeypatch.setattr(np, "unique", no_unique)
    sol = select_matching(g, hp, props)
    assert np.array_equal(sol.selected, want[0]) and np.array_equal(sol.removed, want[1])


# ---------------------------------------------------------------------------
# mark and propose + selection, MIS
# ---------------------------------------------------------------------------


def test_mis_isolated_node_p1():
    g = build_graph(1, np.empty((0, 2), np.int64))
    hp = h_partition(g, 1)
    props = mark_and_propose_mis(g, hp, 1.0, seed=3)
    assert props.marked.tolist() == [0]
    assert props.proposed.tolist() == [0]


def test_mis_same_layer_pair_blocks_both():
    g = path(2)
    hp = h_partition(g, 1)  # both endpoints in layer 1
    for seed in range(10):
        props = mark_and_propose_mis(g, hp, 1.0, seed)
        assert sorted(props.marked.tolist()) == [0, 1]
        assert props.proposed.size == 0


def test_mis_marking_frequency():
    g = build_graph(1, np.empty((0, 2), np.int64))
    hp = h_partition(g, 1)
    hits = sum(
        mark_and_propose_mis(g, hp, 0.25, seed).marked.size for seed in range(10_000)
    )
    assert abs(hits / 10_000 - 0.25) < 0.02


def test_mis_p_validation():
    g = path(2)
    hp = h_partition(g, 1)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            mark_and_propose_mis(g, hp, bad, 0)


def test_select_mis_parent_beats_child():
    g = path(2)
    hp = _manual_hp([1, 2], 1)
    props = ProposalSet(
        kind="mis",
        marked=np.array([0, 1], np.int64),
        proposed=np.array([0, 1], np.int64),
    )
    sol = select_mis(g, hp, props)
    assert sol.selected.tolist() == [1]
    assert sol.removed.tolist() == [0, 1]


def test_select_mis_empty():
    g = path(2)
    hp = h_partition(g, 1)
    props = ProposalSet(
        kind="mis",
        marked=np.empty(0, np.int64),
        proposed=np.empty(0, np.int64),
    )
    sol = select_mis(g, hp, props)
    assert sol.selected.size == 0 and sol.removed.size == 0


def test_select_mis_rejects_same_layer_adjacent_proposals():
    g = path(2)
    hp = h_partition(g, 1)
    props = ProposalSet(
        kind="mis",
        marked=np.array([0, 1], np.int64),
        proposed=np.array([0, 1], np.int64),
    )
    with pytest.raises(InvariantError, match="same-layer"):
        select_mis(g, hp, props)


def _assert_select_mis_matches_oracle(g, hp, props):
    sol = select_mis(g, hp, props)
    want_selected, want_removed = select_mis_per_layer(g, hp, props)
    assert sol.selected.dtype == sol.removed.dtype == np.int64
    assert np.array_equal(sol.selected, want_selected)
    assert np.array_equal(sol.removed, want_removed)
    # commit order: the proposing layers never increase
    assert (np.diff(hp.layer[sol.selected]) <= 0).all()
    return sol


@pytest.mark.parametrize(
    "layers,proposed,selected",
    [
        # nothing proposed
        ([1, 2, 3, 4, 5, 6], [], []),
        # one layer: every proposal commits at once
        ([1, 1, 1, 1, 1, 1], [0, 2, 4], [0, 2, 4]),
        # a path climbing one layer per node: the sweep takes every other
        # node from the top down (from the bottom it would take the other half)
        ([1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5], [5, 3, 1]),
        # gapped layers: node 2 (layer 9) fells 1 and 3 before their layers
        ([2, 4, 9, 7, 1, 3], [0, 1, 2, 3, 5], [2, 5, 0]),
    ],
    ids=["empty", "one-layer", "many-layers", "gapped-layers"],
)
def test_select_mis_pinned_sweeps(layers, proposed, selected):
    hp = _manual_hp(layers, 1)
    props = ProposalSet(kind="mis", marked=np.array(proposed, np.int64),
                        proposed=np.array(proposed, np.int64))
    sol = _assert_select_mis_matches_oracle(path(6), hp, props)
    assert sol.selected.tolist() == selected


@given(
    st.integers(1, 60),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(["h-partition", "one-layer", "random-layers"]),
    st.sampled_from([0.02, 0.3, 1.0]),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_select_mis_matches_per_layer_oracle(n, graph_seed, layers, p, seed):
    # The one-sort sweep against the per-layer sweep, on the proposals of
    # an H-partition, of a single layer, or of random (often
    # non-consecutive) layers; at p = 0.02 most draws propose nothing.
    r = np.random.default_rng(graph_seed)
    g = random_graph(n, int(r.integers(0, 3 * n + 1)), graph_seed)
    if layers == "h-partition":
        hp = h_partition(g, max(degeneracy(g).degeneracy, 1))
    elif layers == "one-layer":
        hp = _manual_hp(np.ones(n, np.int64), 1)
    else:
        hp = _manual_hp(r.choice([1, 2, 3, 5, 8, 13], size=n), 1)
    _assert_select_mis_matches_oracle(g, hp, mark_and_propose_mis(g, hp, p, seed))


# ---------------------------------------------------------------------------
# reduce_once / degree_reduce
# ---------------------------------------------------------------------------


def _remainder(view, ph):
    """The alive mask of ``view`` once the record ``ph``'s selection left."""
    alive = view.alive.copy()
    alive[ph.solution().removed] = False
    return alive


def test_reduce_once_edgeless_mis_selects_all():
    g = build_graph(6, np.empty((0, 2), np.int64))
    ph, entry = reduce_once(*GraphView.full(g).compact(), "mis", d=1, seed=0)
    assert sorted(ph.sol.selected.tolist()) == list(range(6))
    assert not _remainder(GraphView.full(g), ph).any()
    assert entry["delta_before"] == 0


def test_reduce_once_empty_view_rejected():
    g = path(3)
    view = GraphView.full(g)
    view.alive[:] = False
    with pytest.raises(ValueError, match="nonempty"):
        reduce_once(*view.compact(), "matching", d=1, seed=0)


def test_reduce_once_remainder_outdegree_bound():
    g = generate("preferential-attachment", {"n": 300, "c": 3}, seed=5)
    d = 2 * degeneracy(g).degeneracy + 1
    ph, entry = reduce_once(*GraphView.full(g).compact(), "matching", d=d, seed=1)
    hp = h_partition(g, d)  # full graph == compacted view here
    for v in np.flatnonzero(_remainder(GraphView.full(g), ph)):
        nb = g.neighbors(v)
        assert int((hp.layer[nb] >= hp.layer[v]).sum()) <= d


@given(
    st.integers(2, 60),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(["matching", "mis"]),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_reduce_once_delta_after_is_remainder_max_degree(n, seed, kind, d):
    # the phase counts the remainder's degrees once: delta_after must be the
    # remainder's maximum alive degree, over random graphs and thresholds
    r = np.random.default_rng(seed)
    m = int(r.integers(1, 3 * n + 1))
    edges = {tuple(sorted(map(int, e))) for e in r.integers(0, n, size=(m, 2)) if e[0] != e[1]}
    g = build_graph(n, np.array(sorted(edges), np.int64).reshape(-1, 2))
    view = GraphView.full(g)
    view.alive[r.random(n) < 0.2] = False
    assume(view.alive.any())
    ph, entry = reduce_once(*view.compact(), kind, d=d, seed=seed)
    assume(ph.sol is not None)  # not a stall
    rem = _remainder(view, ph)
    deg = alive_degrees(g.indptr, g.indices, rem)
    assert entry["delta_after"] == int(deg.max(initial=0))
    # the selection removes phase nodes only
    assert view.alive[ph.solution().removed].all()


def test_degree_reduce_next_phase_starts_at_delta_after():
    g = generate("preferential-attachment", {"n": 1500, "c": 3}, seed=4)
    sol, view, report = degree_reduce(g, "mis", target_delta=2, seed=2, d_floor=3)
    assert len(report.phases) >= 2
    for before, after in zip(report.phases, report.phases[1:]):
        assert after["delta_before"] == before["delta_after"]
    # each phase's threshold comes from the degree the loop carried over
    for ph in report.phases:
        assert ph["d_used"] == phase_threshold(ph["delta_before"], 0.1, 3)
    deg = alive_degrees(g.indptr, g.indices, view.alive)
    assert report.phases[-1]["delta_after"] == int(deg.max(initial=0))


def test_reduce_once_heavy_parent_gadget():
    # one planted parent, 256 children, d=4 (so the parent's in-degree is d^4):
    # the parent should be matched in essentially every seed
    g = generate(
        "matching-gadget", {"parents": 1, "children": 256, "decoys": 3}, seed=0
    )
    assert g.degrees[0] == 256
    fixed = 0
    for seed in range(1000):
        sol, rem, entry = _reduce_once_against_oracles(GraphView.full(g), "matching", 4, seed)
        assert entry["heavy_nodes_before"] >= 1
        if not rem.alive[0] or alive_degrees(g.indptr, g.indices, rem.alive)[0] == 0:
            fixed += 1
    assert fixed >= 990


def _reduce_once_against_oracles(view, kind, d, seed):
    """:func:`reduce_once` on the alive nodes of ``view``: the phase record's
    heavy statistics, remainder degrees and MIS proposals checked against
    the formulas that read every row of the phase subgraph or of the whole
    graph.  Returns ``(selection in original ids, remainder view, entry)``,
    or None on a stall."""
    sub, ids = view.compact()
    ph, entry = reduce_once(sub, ids, kind, d, seed)
    assert ph.sub is sub and ph.ids is ids
    if ph.sol is None:
        assert entry["stalled"] and ph.props is ph.deg is None
        return None
    hp = ph.hp
    assert np.array_equal(ids, np.flatnonzero(view.alive))
    sol = ph.solution()
    removed = np.searchsorted(ids, sol.removed)
    # the record holds the selection as computed, in the phase subgraph's ids
    assert np.array_equal(ids[ph.sol.removed], sol.removed)
    assert np.array_equal(ids[ph.sol.selected], sol.selected)
    heavy = (entry["heavy_nodes_before"], entry["heavy_survivors_after"])
    assert heavy == heavy_counts_all_rows(sub, hp, removed, d ** 4)
    # the remainder's degrees over the phase nodes; every other node is dead
    rem = GraphView(view.graph, _remainder(view, ph))
    want = alive_degrees_all_rows(view.graph, rem.alive)
    assert not np.delete(want, ids).any()
    assert ph.deg.dtype == np.int64 and np.array_equal(ph.deg, want[ids])
    assert entry["delta_after"] == int(want.max())
    if kind == "mis":
        marked, proposed = mis_proposals_all_rows(sub, hp, mis_probability(d), seed)
        assert np.array_equal(ph.props.marked, marked)
        assert np.array_equal(ph.props.proposed, proposed)
    return sol, rem, entry


def _star_forest(stars, leaves):
    """``stars`` disjoint stars of ``leaves`` leaves, then as many again
    whose leaves each hold one pendant node as well.  A hub's block starts
    with the hub, then its leaves, then their pendants in the same order."""
    edges, base = [], 0
    for pendant in (False, True):
        for _ in range(stars):
            edges += [(base, base + j) for j in range(1, leaves + 1)]
            if pendant:
                edges += [(base + j, base + leaves + j) for j in range(1, leaves + 1)]
            base += 1 + leaves * (1 + pendant)
    return build_graph(base, edges)


@pytest.mark.parametrize("kind", KINDS)
def test_phase_statistics_match_full_graph_oracles(pipeline_corpus, kind):
    """Every phase of the corpus runs, and single phases on 64 stars of 16
    leaves at d = 2 (heavy = 16), agree with the full-graph formulas.

    No corpus phase has a heavy survivor, so the stars are built for one: a
    hub is heavy before the phase, and under MIS it survives heavy when none
    of its leaves is marked, about 1% of hubs.  On the stars whose leaves
    hold pendants a selected pendant removes its leaf but spares the hub,
    which then survives below heavy.  Under matching a heavy
    survivor would need all of its d⁴ children to mark other parents and
    still stay unmatched, which no instance of this size shows, so only the
    count before is asserted positive there."""
    totals = np.zeros(2, np.int64)
    for spec in pipeline_corpus:
        g = realize(spec)
        view, delta, floor = GraphView.full(g), g.max_degree(), None
        for phase in range(8):
            if delta <= 2 or not view.alive.any():
                break
            d = phase_threshold(delta, 0.1, floor)
            got = _reduce_once_against_oracles(view, kind, d, spec["seed"] + phase)
            if got is None:  # the phase stalled
                if floor is not None:
                    break
                floor = valid_d(g)  # a threshold that cannot stall
                continue
            _, view, entry = got
            totals += (entry["heavy_nodes_before"], entry["heavy_survivors_after"])
            delta = entry["delta_after"]
    g = _star_forest(32, 16)
    for seed in range(20):
        entry = _reduce_once_against_oracles(GraphView.full(g), kind, 2, seed)[2]
        assert entry["heavy_nodes_before"] == 64
        totals += (entry["heavy_nodes_before"], entry["heavy_survivors_after"])
    assert totals[0] > 0
    if kind == "mis":
        assert totals[1] > 0


def test_degree_reduce_zero_phases_when_under_target():
    g = path(5)
    sol, view, report = degree_reduce(g, "matching", target_delta=2, seed=0)
    assert report.phases == []
    assert sol.selected.shape[0] == 0
    assert view.alive.all()


def test_degree_reduce_big_star_matches_center_in_one_phase():
    g = star(1000)
    sol, view, report = degree_reduce(g, "matching", target_delta=10, seed=42)
    assert len(report.phases) == 1
    assert sol.selected.shape[0] == 1
    assert 0 in sol.selected[0]
    assert int(alive_degrees(g.indptr, g.indices, view.alive).max(initial=0)) == 0


def test_degree_reduce_target_validation():
    with pytest.raises(ValueError):
        degree_reduce(path(4), "matching", target_delta=0, seed=0)


def test_degree_reduce_phase_count_bound():
    # phase count stays within ceil(log2 log2 delta) + 5 whenever every phase
    # actually shrank the degree
    g = generate("preferential-attachment", {"n": 2000, "c": 3}, seed=9)
    delta = g.max_degree()
    sol, view, report = degree_reduce(g, "matching", target_delta=3, seed=1, d_floor=3)
    if all(ph.get("reduced", True) and not ph.get("stalled") for ph in report.phases):
        bound = int(np.ceil(np.log2(np.log2(delta)))) + 5
        assert len(report.phases) <= bound
    for ph in report.phases:
        assert ph["delta_after"] <= ph["delta_before"]


def test_degree_reduce_report_monotone_and_valid_solution():
    g = generate("bounded-degree-random", {"n": 400, "deg": 8}, seed=2)
    for kind in ("matching", "mis"):
        sol, view, report = degree_reduce(g, kind, target_delta=3, seed=3, d_floor=3)
        for ph in report.phases:
            assert ph["delta_after"] <= ph["delta_before"]
        if kind == "matching":
            ends = sol.selected.ravel()
            assert np.unique(ends).size == ends.size
        else:
            sel = np.zeros(g.n, bool)
            sel[sol.selected] = True
            e = g.edges
            assert not (sel[e[:, 0]] & sel[e[:, 1]]).any()
        assert not view.alive[sol.removed].any()


# reason -> (graph, kind, keyword arguments, phases in the report)
STOP_CASES = {
    # Δ 2 is the target: no phase runs
    "target": (lambda: path(6), "matching", {}, 0),
    # Δ 4 at d 4: every node peels into layer 1, so the phase is not run
    "one-layer": (lambda: star(4), "matching", {"d_floor": 4}, 0),
    # d = ⌈4^0.1⌉ = 2 peels nothing of the K5
    "stalled": (lambda: complete(5), "matching", {}, 1),
    # the golden tree-mis case: the second phase leaves Δ at 5
    "not-reduced": (lambda: generate("tree", {"n": 300}, seed=1), "mis", {}, 2),
    # one phase allowed, and it lowers Δ from 100 to 4
    "max-phases": (star_and_k5, "matching", {"exponent": 0.5}, 1),
}


@pytest.mark.parametrize("reason", STOP_CASES)
def test_every_run_reports_why_its_reduction_ended(reason, monkeypatch):
    graph, kind, kwargs, phases = STOP_CASES[reason]
    if reason == "max-phases":
        monkeypatch.setattr(reduction, "MAX_PHASES", 1)
    g = graph()
    _, _, report = degree_reduce(g, kind, 2, seed=1, **kwargs)
    assert report.stop_reason == reason
    assert len(report.phases) == phases
    assert solve(g, kind, 2, 1, **kwargs)[1].stop_reason == reason
    _, met = mpc_pipeline(g, ClusterConfig.for_graph(g, 1.0), kind, 2, 1, **kwargs)
    assert met["stop_reason"] == reason
    assert STOP_REASONS == tuple(STOP_CASES)


def test_a_matching_phase_at_delta_at_most_d_selects_nothing(partition_corpus):
    # The fact the matching stop rule rests on: at d >= Δ every node peels
    # into layer 1, and a matching phase marks no same-layer edge, so it
    # selects and removes nothing.
    for i, spec in enumerate(partition_corpus):
        g = realize(spec)
        delta = g.max_degree()
        d = phase_threshold(delta, 0.1, delta + i % 2)
        ph, entry = reduce_once(*GraphView.full(g).compact(), "matching", d, spec["seed"])
        assert entry["ell"] == 1, spec
        assert ph.sol.selected.shape == (0, 2) and not ph.sol.removed.size, spec
        assert _remainder(GraphView.full(g), ph).all() and entry["delta_after"] == delta, spec


def test_an_independent_set_phase_of_one_layer_still_runs():
    # a one-layer independent-set phase removes nodes, so the stop rule
    # leaves it to run
    g = generate("grid", {"rows": 20, "cols": 20}, seed=0)
    sol, view, report = degree_reduce(g, "mis", 2, seed=0, d_floor=g.max_degree())
    assert report.phases[0]["ell"] == 1
    assert sol.selected.size and not view.alive[sol.removed].any()


# ---------------------------------------------------------------------------
# greedy finish
# ---------------------------------------------------------------------------


def test_merge_dedupes_overlapping_removed_sets():
    a = PartialSolution(kind="mis", selected=np.array([4, 0]), removed=np.array([0, 1, 4, 7]))
    b = PartialSolution(kind="mis", selected=np.array([9]), removed=np.array([9, 7, 1, 8]))
    merged = a.merge(b)
    assert merged.removed.tolist() == [0, 1, 4, 7, 8, 9]
    assert merged.selected.tolist() == [0, 4, 9]
    assert merged.removed.dtype == np.int64
    again = merged.merge(b)
    assert again.removed.tolist() == [0, 1, 4, 7, 8, 9]
    m1 = PartialSolution(kind="matching", selected=np.array([[2, 5]]), removed=np.array([2, 5]))
    m2 = PartialSolution(kind="matching", selected=np.array([[0, 3]]), removed=np.array([5, 3, 0, 2]))
    assert m1.merge(m2).removed.tolist() == [0, 2, 3, 5]
    assert m1.merge(m2).selected.tolist() == [[0, 3], [2, 5]]


def _fold(total, parts):
    for p in parts:
        total = total.merge(p)
    return total


def _solution_parts(kind, draws):
    # each part: a random selection and a random (possibly overlapping,
    # unsorted, repeating or empty) removed set
    shape = (-1, 2) if kind == "matching" else (-1,)
    return [
        PartialSolution(kind=kind, selected=np.array(sel, np.int64).reshape(shape),
                        removed=np.array(rem, np.int64))
        for sel, rem in draws
    ]


@given(
    st.sampled_from(KINDS),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), max_size=8).map(lambda v: v[: len(v) // 2 * 2]),
            st.lists(st.integers(0, 30), max_size=10),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example("mis", [([], []), ([3, 1], [1, 2, 3]), ([], []), ([5], [2, 5, 3])])
@example("matching", [([0, 4], [0, 4]), ([], [4, 0]), ([0, 4], [])])
@settings(max_examples=150, deadline=None)
def test_merge_of_many_equals_fold_of_pairs(kind, draws):
    # from an empty solution, as the phase and finish loops merge, and from
    # the first part
    parts = _solution_parts(kind, draws)
    empty = PartialSolution.empty(kind)
    cases = [(empty.merge(*parts), _fold(empty, parts))]
    if len(parts) > 1:
        cases.append((parts[0].merge(*parts[1:]), _fold(parts[0], parts[1:])))
    # and what the merge means: every selection, sorted, and the distinct
    # removed ids, ascending
    merged = cases[0][0]
    assert merged.selected.tolist() == sorted(x for p in parts for x in p.selected.tolist())
    assert merged.removed.tolist() == sorted({x for p in parts for x in p.removed.tolist()})
    for got, want in cases:
        assert got.kind == kind
        for a, b in ((got.selected, want.selected), (got.removed, want.removed)):
            assert a.dtype == b.dtype == np.int64
            assert a.shape == b.shape
            assert np.array_equal(a, b)


def test_merge_rejects_a_part_of_another_kind():
    with pytest.raises(ValueError, match="different kinds"):
        PartialSolution.empty("mis").merge(
            PartialSolution.empty("mis"), PartialSolution.empty("matching")
        )


def test_finish_edgeless_mis_selects_all():
    g = build_graph(5, np.empty((0, 2), np.int64))
    sol = finish_greedy(GraphView.full(g), "mis", seed=0)
    assert sorted(sol.selected.tolist()) == list(range(5))


def test_finish_single_edge_matching():
    g = path(2)
    sol = finish_greedy(GraphView.full(g), "matching", seed=5)
    assert sol.selected.tolist() == [[0, 1]]


def test_finish_c5_mis_size_two():
    g = cycle(5)
    for seed in range(20):
        sol = finish_greedy(GraphView.full(g), "mis", seed)
        assert sol.selected.size == 2
        assert verify_maximal(g, sol)


def test_finish_respects_dead_nodes():
    g = path(3)
    view = GraphView.full(g)
    view.alive[0] = False
    sol = finish_greedy(view, "matching", seed=1)
    assert sol.selected.tolist() == [[1, 2]]


ALIVE_MODES = ("random", "all", "none", "isolated", "one")


def _finish_case(n, graph_seed, mode):
    """A random graph and an alive mask: random, every node, no node, an
    independent set (alive nodes with only dead neighbors), or one node."""
    r = np.random.default_rng(graph_seed)
    g = random_graph(n, int(r.integers(0, 2 * n + 1)), graph_seed)
    alive = np.zeros(n, bool)
    if mode == "random":
        alive = r.random(n) < r.random()
    elif mode == "all":
        alive[:] = True
    elif mode == "isolated":
        for v in range(n):
            alive[v] = not alive[g.neighbors(v)].any()
    elif mode == "one":
        alive[r.integers(n)] = True
    return g, alive


@example(n=30, graph_seed=4, mode="all", seed=9, round_idx=0)
@example(n=30, graph_seed=4, mode="none", seed=9, round_idx=0)
@example(n=30, graph_seed=4, mode="isolated", seed=9, round_idx=2)
@example(n=30, graph_seed=4, mode="one", seed=9, round_idx=1)
@given(
    st.integers(1, 40),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(ALIVE_MODES),
    st.integers(0, 2 ** 63 - 1),
    st.integers(0, 2 ** 20),
)
@settings(max_examples=80, deadline=None)
def test_luby_mis_round_matches_all_n_oracle(n, graph_seed, mode, seed, round_idx):
    g, alive = _finish_case(n, graph_seed, mode)
    got = luby_mis_round(g, alive, seed, round_idx)
    assert np.array_equal(got, luby_mis_round_all_n(g, alive, seed, round_idx))
    if mode in ("isolated", "one", "none"):  # no alive edge: every alive node joins
        assert np.array_equal(got, np.flatnonzero(alive))


@given(st.integers(2, 40), st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_luby_mis_round_breaks_priority_ties_by_id(n, graph_seed, round_idx):
    # Three priority values make ties common; both rounds read the patched
    # hash, so they must agree on the (priority, id) order.
    real = rng.hash_u64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "hash_u64", lambda *args: real(*args) % np.uint64(3))
        g, alive = _finish_case(n, graph_seed, "random")
        got = luby_mis_round(g, alive, 5, round_idx)
        assert np.array_equal(got, luby_mis_round_all_n(g, alive, 5, round_idx))


def test_mis_round_hashes_exactly_the_alive_ids(monkeypatch):
    # a finish round's cost follows the remainder: only alive nodes draw
    g, _ = _finish_case(300, 11, "all")
    alive = np.random.default_rng(0).random(g.n) < 0.1
    real = rng.hash_u64
    hashed = []

    def spy(seed, stream, phase, index):
        hashed.append(np.array(index, copy=True))
        return real(seed, stream, phase, index)

    monkeypatch.setattr(rng, "hash_u64", spy)
    luby_mis_round(g, alive, 3, 1)
    (ids,) = hashed
    assert np.array_equal(ids, np.flatnonzero(alive))


@example(n=20, graph_seed=6, mode="all", seed=2, kind="matching")
@example(n=20, graph_seed=6, mode="all", seed=2, kind="mis")
@given(
    st.integers(1, 25),
    st.integers(0, 2 ** 31 - 1),
    st.sampled_from(ALIVE_MODES),
    st.integers(0, 2 ** 63 - 1),
    st.sampled_from(KINDS),
)
@settings(max_examples=60, deadline=None)
def test_finish_greedy_matches_oracle_finish(n, graph_seed, mode, seed, kind):
    g, alive = _finish_case(n, graph_seed, mode)
    sol = finish_greedy(GraphView(graph=g, alive=alive.copy()), kind, seed)
    want_selected, want_removed = finish_by_rounds(g, alive, kind, seed)
    assert sol.selected.tolist() == want_selected
    assert sol.removed.tolist() == want_removed


@given(st.integers(2, 30), st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_matching_finish_breaks_priority_ties_by_key(n, graph_seed, round_idx):
    # Three priority values make ties common, so an edge often shares the
    # smallest priority at an endpoint and wins only by the smaller key.
    # The round, and the whole finish over carried live edges, must agree
    # with the edge-by-edge oracle on the (priority, key) order.
    real = rng.hash_u64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "hash_u64", lambda *args: real(*args) % np.uint64(3))
        g, alive = _finish_case(n, graph_seed, "random")
        live = g.edges[alive[g.edges[:, 0]] & alive[g.edges[:, 1]]]
        got = luby_matching_round(g, live, 5, round_idx)
        assert got.tolist() == [list(e) for e in luby_matching_round_by_edge(g, alive, 5, round_idx)]
        sol = finish_greedy(GraphView(graph=g, alive=alive.copy()), "matching", 5)
        want_selected, want_removed = finish_by_rounds(g, alive, "matching", 5)
        assert sol.selected.tolist() == want_selected
        assert sol.removed.tolist() == want_removed


# ---------------------------------------------------------------------------
# verify_maximal
# ---------------------------------------------------------------------------


def test_verify_maximal_matching_cases():
    g = cycle(4)
    perfect = PartialSolution(
        kind="matching",
        selected=np.array([[0, 1], [2, 3]], np.int64),
        removed=np.arange(4),
    )
    assert verify_maximal(g, perfect)
    e = path(2)
    assert not verify_maximal(e, PartialSolution.empty("matching"))
    # overlapping endpoints are invalid
    bad = PartialSolution(
        kind="matching",
        selected=np.array([[0, 1], [1, 2]], np.int64),
        removed=np.arange(3),
    )
    assert not verify_maximal(g, bad)


def test_verify_maximal_rejects_pairs_that_are_not_edges():
    # the pair's key falls before the first edge key, between two of them,
    # and past the last; an edgeless graph has no edge to match
    g = build_graph(5, [[1, 2], [1, 4], [3, 4]])
    for pair in ([0, 1], [1, 3], [2, 4], [3, 2]):
        sol = PartialSolution(kind="matching", selected=np.array([pair], np.int64),
                              removed=np.array(sorted(pair)))
        assert not verify_maximal(g, sol)
    ok = PartialSolution(kind="matching", selected=np.array([[2, 1], [3, 4]], np.int64),
                         removed=np.arange(1, 5))
    assert verify_maximal(g, ok)
    empty = build_graph(3, np.empty((0, 2), np.int64))
    sol = PartialSolution(kind="matching", selected=np.array([[0, 1]], np.int64),
                          removed=np.arange(2))
    assert not verify_maximal(empty, sol)
    assert verify_maximal(empty, PartialSolution.empty("matching"))


def test_verify_maximal_mis_cases():
    g = star(5)
    center = PartialSolution(kind="mis", selected=np.array([0]), removed=np.arange(6))
    assert verify_maximal(g, center)
    leaf = PartialSolution(kind="mis", selected=np.array([1]), removed=np.array([0, 1]))
    assert not verify_maximal(g, leaf)
    all_leaves = PartialSolution(
        kind="mis", selected=np.arange(1, 6), removed=np.arange(6)
    )
    assert verify_maximal(g, all_leaves)


# ---------------------------------------------------------------------------
# end-to-end solve, digests, schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("execution", ["centralized", "cluster"])
def test_unknown_kind_rejected_before_any_work(execution):
    # with Δ <= target no phase runs, so only the finish used to see the kind:
    # "Matching" ran the independent-set finish and returned a "Matching"
    # solution holding an independent set
    g = generate("tree", {"n": 50}, seed=0)
    assert g.max_degree() <= 30
    if execution == "centralized":
        with pytest.raises(ValueError, match="unknown kind 'Matching'"):
            solve(g, "Matching", 30, 0)
    else:
        # the stream the cluster meters raises before its first record, so
        # not one round is metered
        with pytest.raises(ValueError, match="unknown kind 'Matching'"):
            next(solve_records(g, "Matching", 30, 0))
        with pytest.raises(ValueError, match="unknown kind 'Matching'"):
            mpc_pipeline(g, ClusterConfig.for_graph(g, 0.5), "Matching", 30, 0)


@pytest.mark.parametrize("kind", ["Matching", "vertex-cover", None])
def test_stages_reject_unknown_kind(kind):
    g = generate("tree", {"n": 50}, seed=0)
    with pytest.raises(ValueError, match="unknown kind"):
        degree_reduce(g, kind, 30)
    with pytest.raises(ValueError, match="unknown kind"):
        finish_greedy(GraphView.full(g), kind, seed=0)


@pytest.mark.parametrize("kind", ["matching", "mis"])
def test_solve_is_maximal_and_deterministic(kind):
    g = generate("preferential-attachment", {"n": 500, "c": 3}, seed=4)
    sol1, rep1 = solve(g, kind, target_delta=4, seed=11)
    sol2, rep2 = solve(g, kind, target_delta=4, seed=11)
    assert verify_maximal(g, sol1)
    assert solution_digest(sol1, 11) == solution_digest(sol2, 11)
    sol3, _ = solve(g, kind, target_delta=4, seed=12)
    assert solution_digest(sol3, 12) != solution_digest(sol1, 11)


def test_solution_json_stable_field_order():
    sol = PartialSolution(
        kind="matching",
        selected=np.array([[3, 2], [0, 1]], np.int64),
        removed=np.array([0, 1, 2, 3]),
    )
    doc = solution_to_json(sol, seed=9)
    assert doc.index('"kind"') < doc.index('"phases"') < doc.index('"seed"')
    assert '"selected":[[0,1],[2,3]]' in doc


def test_selected_subset_of_proposed_subset_of_marked():
    g = generate("bounded-degree-random", {"n": 300, "deg": 6}, seed=8)
    d = 2 * degeneracy(g).degeneracy + 1
    hp = h_partition(g, d)
    for seed in range(30):
        props = mark_and_propose_matching(g, hp, seed)
        mk = {tuple(e) for e in props.marked.tolist()}
        pr = {tuple(e) for e in props.proposed.tolist()}
        sol = select_matching(g, hp, props)
        se = {tuple(e) for e in sol.selected.tolist()}
        assert se <= pr <= mk
        mprops = mark_and_propose_mis(g, hp, 0.2, seed)
        msol = select_mis(g, hp, mprops)
        assert set(msol.selected.tolist()) <= set(mprops.proposed.tolist()) <= set(
            mprops.marked.tolist()
        )



def test_the_driver_knows_nothing_of_the_cluster():
    # the cluster meters the driver's records from outside: no function of
    # the driver takes a meter, and its module imports no cluster code
    funcs = [f for _, f in inspect.getmembers(reduction, inspect.isfunction)]
    for _, cls in inspect.getmembers(reduction, inspect.isclass):
        if cls.__module__ == reduction.__name__:
            funcs += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
    mine = [f for f in funcs if f.__module__ == reduction.__name__]
    assert reduction.reduce_once in mine and reduction.Phase.solution in mine
    for f in mine:
        assert "meter" not in inspect.signature(f).parameters, f.__qualname__
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(reduction))):
        if isinstance(node, ast.ImportFrom):
            imported.add(("." * node.level) + (node.module or ""))
            imported.update(f"{'.' * node.level}{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".rng" in imported  # the walk does see the driver's imports
    for name in imported:
        assert not name.lstrip(".").removeprefix("sparsempc.").startswith(("mpc", "runtime")), name
