"""Instance generators: pinned structure, determinism, planted layouts."""

import numpy as np
import pytest

from sparsempc.generators import FAMILIES, generate
from sparsempc.peeling import degeneracy, h_partition


def _is_connected(g):
    if g.n <= 1:
        return True
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return bool(seen.all())


def test_tree_pinned():
    g = generate("tree", {"n": 100}, seed=7)
    assert g.n == 100
    assert g.m == 99
    assert _is_connected(g)
    assert degeneracy(g).degeneracy == 1


def test_grid_pinned():
    g = generate("grid", {"rows": 10, "cols": 10}, seed=0)
    assert g.n == 100
    assert g.m == 180  # 2 * 10 * 9
    assert degeneracy(g).degeneracy == 2


def test_preferential_attachment_pinned():
    g = generate("preferential-attachment", {"n": 1000, "c": 3}, seed=0)
    assert g.n == 1000
    assert degeneracy(g).degeneracy <= 3


def test_bounded_degree_cap():
    g = generate("bounded-degree-random", {"n": 500, "deg": 6}, seed=3)
    assert g.degrees.max() <= 6


@pytest.mark.parametrize(
    "family,params",
    [
        ("tree", {"n": 64}),
        ("grid", {"rows": 7, "cols": 9}),
        ("preferential-attachment", {"n": 120, "c": 2}),
        ("bounded-degree-random", {"n": 200, "deg": 5}),
        ("layered-core", {"n": 400, "depth": 20, "d": 3}),
        ("matching-gadget", {"parents": 3, "children": 10, "decoys": 2}),
        ("mis-gadget", {"parents": 2, "cliques": 4, "clique_size": 4}),
    ],
)
def test_deterministic_given_seed(family, params):
    a = generate(family, params, seed=11)
    b = generate(family, params, seed=11)
    assert np.array_equal(a.edges, b.edges)


def test_tree_seed_changes_edges():
    a = generate("tree", {"n": 50}, seed=1)
    b = generate("tree", {"n": 50}, seed=2)
    assert not np.array_equal(a.edges, b.edges)


def test_layered_core_peels_one_group_per_layer():
    depth = 25
    g = generate("layered-core", {"n": 600, "depth": depth, "d": 3}, seed=0)
    hp = h_partition(g, 3)
    assert hp.ell == depth
    assert g.n == 600


def test_layered_core_degree_stays_small():
    # round-robin fan-in keeps the max degree independent of n
    for n in (1 << 10, 1 << 14):
        depth = int(round(30 * np.log2(np.log2(n))))
        g = generate("layered-core", {"n": n, "depth": depth, "d": 3}, seed=0)
        assert g.degrees.max() <= 5
        assert h_partition(g, 3).ell == depth


def test_matching_gadget_layout():
    parents, children, decoys = 4, 12, 3
    g = generate(
        "matching-gadget",
        {"parents": parents, "children": children, "decoys": decoys},
        seed=0,
    )
    assert g.n == parents + parents * decoys + parents * children
    hp = h_partition(g, decoys + 1)
    deg = g.degrees
    child0 = parents + parents * decoys
    # each child sees its parent plus the decoys, and peels in the first layer
    assert np.all(deg[child0:] == decoys + 1)
    assert np.all(hp.layer[child0:] == 1)
    assert np.all(hp.layer[:child0] == 2)
    assert np.all(deg[:parents] == children)


def test_mis_gadget_layout():
    parents, cliques, csize = 3, 5, 4
    g = generate(
        "mis-gadget",
        {"parents": parents, "cliques": cliques, "clique_size": csize},
        seed=0,
    )
    assert g.n == parents + parents * cliques * csize
    hp = h_partition(g, csize)
    # children: clique mates + parent; parents collect every child
    assert np.all(g.degrees[parents:] == csize)
    assert np.all(hp.layer[parents:] == 1)
    assert np.all(hp.layer[:parents] == 2)
    assert np.all(g.degrees[:parents] == cliques * csize)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate("hypercube", {"n": 8}, seed=0)


# one small instance per family, using every key the family accepts
EVERY_KEY = {
    "tree": {"n": 10},
    "grid": {"n": 16, "rows": 4, "cols": 5},
    "preferential-attachment": {"n": 30, "c": 2},
    "bounded-degree-random": {"n": 30, "deg": 4, "m": 20},
    "layered-core": {"n": 100, "depth": 4, "d": 3},
    "matching-gadget": {"parents": 2, "children": 5, "decoys": 1},
    "mis-gadget": {"parents": 2, "cliques": 3, "clique_size": 3},
}


def test_every_family_accepts_all_its_keys():
    assert set(EVERY_KEY) == set(FAMILIES)
    for fam, params in EVERY_KEY.items():
        assert generate(fam, params, seed=0).n > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_unknown_parameter_rejected(family):
    with pytest.raises(ValueError, match=f"unknown {family} parameter 'foo'"):
        generate(family, {**EVERY_KEY[family], "foo": 1}, seed=0)


def test_misspelt_optional_parameter_rejected():
    # "cc" used to be dropped silently, building the default c=3
    with pytest.raises(ValueError, match="unknown preferential-attachment parameter 'cc'"):
        generate("preferential-attachment", {"n": 300, "cc": 2}, seed=0)


@pytest.mark.parametrize("value", [300.9, 2.0, True, "10", None])
def test_non_integral_parameter_rejected(value):
    # truncating would quietly build another graph: n=300 for 300.9, n=1 for True
    with pytest.raises(ValueError, match="parameter 'n' must be an integer"):
        generate("tree", {"n": value}, seed=0)


def test_non_integral_optional_parameter_rejected():
    with pytest.raises(ValueError, match="parameter 'c' must be an integer"):
        generate("preferential-attachment", {"n": 300, "c": 2.7}, seed=0)


@pytest.mark.parametrize(
    "family,params,key",
    [
        ("tree", {}, "'n'"),
        ("preferential-attachment", {"c": 2}, "'n'"),
        ("bounded-degree-random", {"deg": 4}, "'n'"),
        ("grid", {"cols": 5}, "'n' or 'rows'"),
        ("layered-core", {"depth": 4}, "'n'"),
        ("layered-core", {"n": 100, "d": 3}, "'depth'"),
    ],
    ids=["tree", "pa", "bounded-degree", "grid", "layered-core-n", "layered-core-depth"],
)
def test_missing_required_parameter_rejected(family, params, key):
    # a ValueError naming the key, not a bare KeyError from inside the builder
    with pytest.raises(ValueError, match=f"{family} needs parameter {key}$"):
        generate(family, params, seed=0)


@pytest.mark.parametrize("params", [{"rows": 0, "cols": 5}, {"rows": 0, "cols": 5, "n": 100}])
def test_grid_zero_rows_rejected(params):
    # an explicit rows=0 is checked, not replaced by sqrt(n)
    with pytest.raises(ValueError, match="rows, cols >= 1"):
        generate("grid", params, seed=0)


def test_meta_sidecar():
    g, meta = generate("grid", {"rows": 4, "cols": 4}, seed=5, return_meta=True)
    assert meta["family"] == "grid"
    assert meta["degeneracy"] == 2
    assert meta["arboricity_bound"] == 2
    assert meta["seed"] == 5
    assert g.n == 16


def test_families_tuple_matches_builders():
    for fam in FAMILIES:
        assert isinstance(fam, str)
    assert "tree" in FAMILIES and "layered-core" in FAMILIES
