"""Layer partition, degeneracy, layer decay: pinned cases plus brute-force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsempc.generators import generate
from sparsempc.peeling import (
    StallError,
    degeneracy,
    h_partition,
    suffix_decay_ok,
)

from oracles import brute_arboricity, brute_degeneracy, complete, cycle, from_mask, path, star


def test_star_partition_two_layers():
    g = star(5)  # center 0, leaves 1..5
    hp = h_partition(g, 2)
    assert hp.ell == 2
    assert hp.layer[0] == 2
    assert np.all(hp.layer[1:] == 1)
    assert hp.layer_sizes().tolist() == [5, 1]


def test_cycle_single_layer():
    hp = h_partition(cycle(4), 2)
    assert hp.ell == 1
    assert np.all(hp.layer == 1)


def test_complete_graph_stalls():
    with pytest.raises(StallError, match="stalled"):
        h_partition(complete(4), 2)


def test_threshold_validation():
    with pytest.raises(ValueError):
        h_partition(path(3), 0)


def test_degeneracy_pinned_values():
    assert degeneracy(star(5)).degeneracy == 1
    assert degeneracy(complete(4)).degeneracy == 3
    assert degeneracy(cycle(5)).degeneracy == 2
    assert degeneracy(path(7)).degeneracy == 1


def test_degeneracy_witness_order():
    g = generate("preferential-attachment", {"n": 200, "c": 2}, seed=0)
    est = degeneracy(g)
    pos = np.empty(g.n, np.int64)
    pos[est.witness] = np.arange(g.n)
    for v in range(g.n):
        later = sum(1 for u in g.neighbors(v) if pos[u] > pos[v])
        assert later <= est.degeneracy


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_degeneracy_matches_bruteforce(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = from_mask(n, mask)
    assert degeneracy(g).degeneracy == brute_degeneracy(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data())
def test_arboricity_sandwich(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = from_mask(n, mask)
    est = degeneracy(g)
    lam = brute_arboricity(g)
    k = est.degeneracy
    assert (k + 1) // 2 <= lam <= k
    # the classical sandwich: lam <= degeneracy <= 2*lam - 1 (for m >= 1)
    if g.m:
        assert lam <= est.degeneracy <= 2 * lam - 1


def test_partition_deterministic():
    g = generate("bounded-degree-random", {"n": 300, "deg": 6}, seed=4)
    a = h_partition(g, 2 * degeneracy(g).degeneracy + 1)
    b = h_partition(g, a.d)
    assert np.array_equal(a.layer, b.layer)
    assert a.ell == b.ell


def test_partition_local_degree_bound():
    # each node has at most d neighbors in its own or higher layers
    g = generate("preferential-attachment", {"n": 400, "c": 3}, seed=1)
    d = 2 * degeneracy(g).degeneracy + 1
    hp = h_partition(g, d)
    for v in range(g.n):
        nb = g.neighbors(v)
        assert int((hp.layer[nb] >= hp.layer[v]).sum()) <= d


@pytest.mark.parametrize(
    "family,params",
    [
        ("tree", {"n": 500}),
        ("grid", {"rows": 20, "cols": 25}),
        ("preferential-attachment", {"n": 600, "c": 3}),
        ("bounded-degree-random", {"n": 500, "deg": 5}),
    ],
)
def test_layer_decay_law(family, params):
    # with d > 2*lam the suffix sizes shrink geometrically at rate 2*lam/d
    g = generate(family, params, seed=2)
    lam = degeneracy(g).degeneracy  # upper proxy for arboricity
    for d in (2 * lam + 1, 4 * lam, 8 * lam):
        hp = h_partition(g, d)
        assert suffix_decay_ok(hp.layer_sizes(), hp.d, lam)


def test_decay_check_rejects_fabricated_partition():
    from sparsempc.peeling import HPartition

    fake = HPartition(layer=np.array([1, 2, 2, 2, 2]), d=10, ell=2, order=np.arange(5))
    assert not suffix_decay_ok(fake.layer_sizes(), fake.d, 1)  # 4 > (2/10) * 5


def test_suffix_sizes():
    g = star(5)
    hp = h_partition(g, 2)
    # nodes in layers >= i + 1, summed from the top layer down
    assert np.cumsum(hp.layer_sizes()[::-1])[::-1].tolist() == [6, 1]


def test_single_node_graph():
    from sparsempc.graph import build_graph

    g = build_graph(1, np.empty((0, 2), np.int64))
    hp = h_partition(g, 1)
    assert hp.ell == 1 and hp.layer.tolist() == [1]
    assert degeneracy(g).degeneracy == 0
