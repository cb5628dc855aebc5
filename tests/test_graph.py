import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsempc.graph import (
    MAX_NODES,
    DuplicateEdgeError,
    GraphError,
    GraphFormatError,
    GraphView,
    NodeRangeError,
    SelfLoopError,
    build_graph,
    load_graph,
    save_graph,
)
from sparsempc.kernels import alive_degrees

from oracles import (
    build_graph_by_lexsort,
    compact_by_rebuild,
    cycle,
    load_graph_by_lines,
    path,
    save_graph_by_lines,
    star,
)
from sparsempc.graph import _edge_lines


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


@st.composite
def _edge_lists(draw):
    """A simple graph's edges, shuffled and each in a random orientation,
    with up to three faults inserted anywhere: an endpoint out of range, a
    self-loop, or a repeat of an edge in the same or the reverse orientation."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=40)) if n else []
    simple = draw(st.permutations(sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in simple]
    for fault in draw(st.lists(st.sampled_from(["range", "loop", "dup", "reversed-dup"]),
                               max_size=3)):
        if fault == "range":
            bad = draw(st.sampled_from([-1, -5, n, n + 3]))
            e = (bad, draw(node)) if draw(st.booleans()) else (draw(node), bad)
        elif fault == "loop" and n:
            v = draw(node)
            e = (v, v)
        elif fault in ("dup", "reversed-dup") and edges:
            u, v = draw(st.sampled_from(edges))
            e = (u, v) if fault == "dup" else (v, u)
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), e)
    return n, edges


@given(_edge_lists())
@example((0, []))
@example((1, []))
@example((5, []))
@example((4, [(2, 3), (0, 1), (3, 2), (1, 0)]))  # first lexicographic duplicate: (0, 1)
@example((3, [(0, 0), (0, 3)]))  # out of range is checked before self-loops
@example((3, [(1, 2), (2, 1), (1, 1)]))  # self-loops before duplicates
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_lexsort_oracle(case):
    n, edges = case
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    try:
        want = build_graph_by_lexsort(n, arr)
    except GraphError as exc:
        with pytest.raises(type(exc)) as got:
            build_graph(n, edges)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    g = build_graph(n, edges)
    assert g.n == want.n
    for got, ref in ((g.edges, want.edges), (g.indptr, want.indptr), (g.indices, want.indices)):
        assert got.dtype == np.int64
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_max_nodes_is_the_largest_n_whose_keys_fit_int64():
    # the largest keys are lo * n + hi = (n - 2) * n + n - 1 for an edge and
    # (n - 1) * n + n - 2 for its directed reverse, both below n**2
    assert MAX_NODES ** 2 <= 2 ** 63 - 1 < (MAX_NODES + 1) ** 2


@pytest.mark.parametrize("n", [MAX_NODES + 1, 2 ** 32])
def test_node_count_above_key_bound_rejected_before_allocating(n, monkeypatch):
    def n_sized(*args, **kwargs):
        raise AssertionError("allocated before the node-count check")

    monkeypatch.setattr(np, "zeros", n_sized)
    monkeypatch.setattr(np, "bincount", n_sized)
    with pytest.raises(GraphError, match=f"node count {n} exceeds 3037000499"):
        build_graph(n, [])


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


# node counts whose ids cross a power of ten
_ID_SPANS = [2, 11, 101, 1001, 10 ** 6 + 1]


@st.composite
def _graphs(draw):
    n = draw(st.sampled_from(_ID_SPANS))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=30))
    return build_graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


def _load_outcome(load, p):
    try:
        g, meta = load(p)
    except Exception as exc:  # the type and the message must agree
        return type(exc).__name__, str(exc)
    return g.n, g.edges.tolist(), g.indptr.tolist(), g.indices.tolist(), meta


@given(_graphs())
@example(build_graph(0, []))
@example(build_graph(12, [(0, 9), (9, 10), (10, 11)]))
@settings(max_examples=60, deadline=None)
def test_save_graph_bytes_match_line_oracle(tmp_path_factory, g):
    d = tmp_path_factory.mktemp("save")
    save_graph(g, d / "new.g")
    save_graph_by_lines(g, d / "old.g")
    assert (d / "new.g").read_bytes() == (d / "old.g").read_bytes()


def test_edge_lines_cover_every_int64_digit_count():
    vals = np.array([0, 9, 10, 99, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1], np.int64)
    edges = np.stack([vals, vals[::-1]], axis=1)
    want = "".join(f"{u} {v}\n" for u, v in edges.tolist()).encode()
    assert _edge_lines(edges) == want


# one line of a valid file replaced by one of these: other whitespace,
# signs, leading zeros, numbers past int64, non-ASCII digits, garbage
_LINE_TOKENS = st.sampled_from(
    ["0", "1", "5", "007", "+3", "-2", "10", "x", "", "\t", "  ", "1 2 3",
     "9999999999999999999", "99999999999999999999", "١", "4_0"]
)


@given(
    _graphs(),
    st.integers(0, 40),
    st.lists(_LINE_TOKENS, max_size=3).map(" ".join),
    st.sampled_from(["replace", "insert", "repeat", "drop", "swap", "none"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_load_graph_matches_line_oracle(tmp_path_factory, g, at, line, edit, recount):
    # a valid file, edited at one line, with the header's edge count kept or
    # made to match: the graph, or the exception type and message (the line
    # number included), must be the oracle's
    p = tmp_path_factory.mktemp("load") / "g.g"
    save_graph_by_lines(g, p)
    lines = p.read_text().splitlines()
    i = 1 + at % max(len(lines) - 1, 1)
    if edit == "replace" and i < len(lines):
        lines[i] = line
    elif edit == "insert":
        lines.insert(i, line)
    elif edit == "repeat" and i < len(lines):
        lines.insert(i, lines[i])
    elif edit == "drop" and i < len(lines):
        del lines[i]
    elif edit == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    if recount:
        lines[0] = f"{g.n} {len(lines) - 1}"
    p.write_text("\n".join(lines) + "\n")
    assert _load_outcome(load_graph, p) == _load_outcome(load_graph_by_lines, p)


@pytest.mark.parametrize(
    "text,message",
    [
        ("3 2\n0 1\n1 2 0\n", "bad edge line 3"),
        ("3 2\n0 1\n0 x\n", "bad edge line 3"),
        ("3 2\n0 1\n0 99999999999999999999\n", "bad edge line 3"),
        ("3 2\n0 1\n2 1\n", r"edge \(2, 1\) not in u < v form"),
        ("4 3\n0 1\n1 2\n0 3\n", "edges not sorted at line 4"),
        ("3 2\n0 1\n", "header promises 2 edges, file has 1"),
    ],
    ids=["bad-line", "non-integer", "past-int64", "u-not-below-v", "unsorted", "count-differs"],
)
def test_load_graph_format_errors_name_the_line(tmp_path, text, message):
    p = tmp_path / "bad.g"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=message):
        load_graph(p)
    assert _load_outcome(load_graph, p) == _load_outcome(load_graph_by_lines, p)


def test_compact_all_alive_returns_the_graph():
    for g in (cycle(7), build_graph(0, [])):
        sub, ids = GraphView(g, np.ones(g.n, bool)).compact()
        assert sub is g
        assert ids.dtype == np.int64 and np.array_equal(ids, np.arange(g.n))


def test_view_compact_roundtrip():
    g = path(6)
    view = GraphView(g, np.ones(g.n, bool))
    view.alive[np.array([0, 3])] = False
    sub, ids = view.compact()
    assert list(ids) == [1, 2, 4, 5]
    # surviving edges: (1,2) and (4,5)
    assert sub.m == 2
    assert int(view.alive.sum()) == 4
    assert int(alive_degrees(g.indptr, g.indices, view.alive).max(initial=0)) == 1


def _compact_case(n, pairs, alive_bits):
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    alive = np.array([alive_bits >> v & 1 for v in range(n)], bool)
    return GraphView(build_graph(n, edges), alive)


def _compact_cases(n):
    node = st.integers(0, max(n - 1, 0))
    return st.tuples(
        st.just(n), st.lists(st.tuples(node, node), max_size=40), st.integers(0, 2 ** n - 1)
    )


@given(st.integers(0, 14).flatmap(_compact_cases))
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0b111111))  # all alive
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0))  # none alive
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0b000100))  # one alive: node 2, of two edges
@example((6, [(0, 1), (1, 2), (2, 5), (3, 4)], 0b111011))  # all but node 2 alive
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
        assert got.tobytes() == ref.tobytes()


def test_view_alive_degrees():
    g = star(5)
    view = GraphView(g, np.ones(g.n, bool))
    assert int(alive_degrees(g.indptr, g.indices, view.alive).max(initial=0)) == 5
    view.alive[np.array([1, 2, 3])] = False
    deg = alive_degrees(g.indptr, g.indices, view.alive)
    assert deg[0] == 2 and deg[4] == 1 and deg[1] == 0


def test_empty_graph():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0
    g1 = build_graph(3, [])
    assert g1.m == 0 and list(g1.degrees) == [0, 0, 0]
