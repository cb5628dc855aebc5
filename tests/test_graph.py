import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsempc.graph import (
    DuplicateEdgeError,
    GraphFormatError,
    GraphView,
    NodeRangeError,
    SelfLoopError,
    build_graph,
    load_graph,
    save_graph,
)

from oracles import compact_by_rebuild, cycle, path, star


def test_path_construction():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert list(g.degrees) == [1, 2, 1]


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0)])


def test_duplicate_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_out_of_range_rejected():
    with pytest.raises(NodeRangeError):
        build_graph(2, [(0, 5)])
    with pytest.raises(NodeRangeError):
        build_graph(2, [(-1, 0)])


@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=20,
            ),
        )
    )
)
def test_adjacency_symmetric(case):
    n, raw = case
    seen = set()
    edges = []
    for u, v in raw:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    g = build_graph(n, edges)
    for v in range(n):
        for u in g.neighbors(v).tolist():
            assert v in g.neighbors(u).tolist()
    assert g.m == len(edges)


def test_roundtrip(tmp_path):
    g = cycle(7)
    p = tmp_path / "c7.g"
    save_graph(g, p, meta={"family": "cycle", "n": 7})
    g2, meta = load_graph(p)
    assert g2.n == g.n and np.array_equal(g2.edges, g.edges)
    assert meta == {"family": "cycle", "n": 7}
    # format check: header then sorted "u v" lines
    lines = p.read_text().splitlines()
    assert lines[0] == "7 7"
    assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split())))


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("not a header\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
    p.write_text("2 1\n0 0\n")
    with pytest.raises((GraphFormatError, SelfLoopError)):
        load_graph(p)


def test_view_compact_roundtrip():
    g = path(6)
    view = GraphView.full(g)
    view.alive[np.array([0, 3])] = False
    sub, ids = view.compact()
    assert list(ids) == [1, 2, 4, 5]
    # surviving edges: (1,2) and (4,5)
    assert sub.m == 2
    assert view.alive_count() == 4
    assert view.max_alive_degree() == 1


def _compact_case(n, pairs, alive_bits):
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    view = GraphView.full(build_graph(n, edges))
    view.alive[:] = [alive_bits >> v & 1 for v in range(n)]
    return view


def _compact_cases(n):
    node = st.integers(0, max(n - 1, 0))
    return st.tuples(
        st.just(n), st.lists(st.tuples(node, node), max_size=40), st.integers(0, 2 ** n - 1)
    )


@given(st.integers(0, 14).flatmap(_compact_cases))
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0b111111))  # all alive
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0))  # none alive
@example((6, [(0, 1), (2, 3), (4, 5)], 0b010101))  # alive nodes, no alive edge
@example((7, [(1, 2), (2, 4), (3, 5), (4, 6)], 0b1011101))  # alive 0 and 3 isolated
@example((0, [], 0))
@settings(max_examples=150, deadline=None)
def test_compact_matches_rebuild_oracle(case):
    view = _compact_case(*case)
    sub, ids = view.compact()
    want, want_ids = compact_by_rebuild(view)
    assert sub.n == want.n
    for got, ref in ((ids, want_ids), (sub.edges, want.edges), (sub.indptr, want.indptr),
                     (sub.indices, want.indices)):
        assert got.dtype == np.int64
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_view_alive_degrees():
    g = star(5)
    view = GraphView.full(g)
    assert view.max_alive_degree() == 5
    view.alive[np.array([1, 2, 3])] = False
    deg = view.alive_degrees()
    assert deg[0] == 2 and deg[4] == 1 and deg[1] == 0


def test_empty_graph():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0
    g1 = build_graph(3, [])
    assert g1.m == 0 and list(g1.degrees) == [0, 0, 0]
