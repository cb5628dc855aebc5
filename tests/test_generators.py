"""Instance generators: pinned structure, determinism, planted layouts."""

import hashlib

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


def _arrays_sha256(g):
    h = hashlib.sha256()
    for a in (g.edges, g.indptr, g.indices):
        assert a.dtype == np.int64
        h.update(a.tobytes())
    return h.hexdigest()


# SHA-256 over the bytes of edges, indptr and indices.  Computed with an
# earlier build_graph (two lexsorts) and preferential attachment (one scalar
# draw at a time), so they pin that today's code builds the same graphs.
# Preferential attachment at c >= 2 draws repeated targets, so its extra draws
# run past the batch into the stream (51 of them at n=50, c=8, seed 0).
GENERATOR_PINS = [
    ("tree", {"n": 1000}, 0, 1000, 999,
     "df614e4e3da0c05b13c76553589669ff3c96046a8c86320426c440c015e6175a"),
    ("tree", {"n": 1000}, 1, 1000, 999,
     "a287013e607a2da412d8b959043dff4c4cf9aae79e30be442d5ce5e368d462ac"),
    ("tree", {"n": 1}, 0, 1, 0,
     "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ("tree", {"n": 1}, 1, 1, 0,
     "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ("grid", {"rows": 20, "cols": 30}, 0, 600, 1150,
     "318f70c30edb2a223c847246e10fe0c9c80b0e5140732f50372d2cb056a6e937"),
    ("grid", {"rows": 20, "cols": 30}, 1, 600, 1150,
     "318f70c30edb2a223c847246e10fe0c9c80b0e5140732f50372d2cb056a6e937"),
    ("preferential-attachment", {"n": 2000, "c": 1}, 0, 2000, 1999,
     "a03a5ad5ddaa27e62d54e8ac85fca89a565ebf916b40de3b1bb9091897ef3ad6"),
    ("preferential-attachment", {"n": 2000, "c": 1}, 1, 2000, 1999,
     "4304082d1085268ecaf6a7985e1f7e87612611a972f44bd3e3e96b73a3b771ea"),
    ("preferential-attachment", {"n": 2000, "c": 2}, 0, 2000, 3997,
     "25c17cb707d831fe3ff31e461d163d5d5e6d10670b57ecb19cc569155c9a70f4"),
    ("preferential-attachment", {"n": 2000, "c": 2}, 1, 2000, 3997,
     "50967a9135e182db80b2e2416228c1bd7690fb17a306c209307de8f00c219d11"),
    ("preferential-attachment", {"n": 2000, "c": 3}, 0, 2000, 5994,
     "65fde50f1ea64374373aa7e4d451abb05d7d17552c3e9515f58f6edcaf4bc8d2"),
    ("preferential-attachment", {"n": 2000, "c": 3}, 1, 2000, 5994,
     "25445350103ad135de527415512fdbd6f0792e79b921f4bd491a48d3fd00916b"),
    ("preferential-attachment", {"n": 2000, "c": 5}, 0, 2000, 9985,
     "20296d9895dfdeed81d76bc1eb091b6c5e9636ca95856544954871893324fd45"),
    ("preferential-attachment", {"n": 2000, "c": 5}, 1, 2000, 9985,
     "25d060d1ce2c8ef250d5a99584b8941e6a0d882134a33151a059bdbb8ac23dbe"),
    ("preferential-attachment", {"n": 2000, "c": 8}, 0, 2000, 15964,
     "313f3505c8b55bba5d30551344970677fae96bff54a398951feb55fd71fc990e"),
    ("preferential-attachment", {"n": 2000, "c": 8}, 1, 2000, 15964,
     "07ecebea20014eeb44f21be2b69aec7e100b225ced611b14b7f9496e82586e46"),
    ("preferential-attachment", {"n": 50, "c": 8}, 0, 50, 364,
     "3916d6df41253517f7306baf3edc7fd012983f0a3bfa36f42e48433bb1cf00b4"),
    ("preferential-attachment", {"n": 50, "c": 8}, 1, 50, 364,
     "b49605ec25ce7e56e557b9196f77134c48daffd14df9a51363cf64b732d02733"),
    ("preferential-attachment", {"n": 9, "c": 8}, 0, 9, 36,
     "edf97bb1c50b547ec22a15aa6a383c6b81d12bdb508df92dd96207ba6374e1cb"),
    ("preferential-attachment", {"n": 9, "c": 8}, 1, 9, 36,
     "edf97bb1c50b547ec22a15aa6a383c6b81d12bdb508df92dd96207ba6374e1cb"),
    ("bounded-degree-random", {"n": 1000, "deg": 6}, 0, 1000, 2990,
     "acbfdab72d4f4a139e00574b39d90ffd95d68d09839b19bd43e96da31e73ed58"),
    ("bounded-degree-random", {"n": 1000, "deg": 6}, 1, 1000, 2988,
     "930f8b169330da0a5c16d064bb76cfab92f998e79c290ca4d27f3def192a3980"),
    ("bounded-degree-random", {"n": 1000, "deg": 3, "m": 700}, 0, 1000, 700,
     "b446c3c61acba490e06e1151639ebf66eac31232f3074144551ce554945e084c"),
    ("bounded-degree-random", {"n": 1000, "deg": 3, "m": 700}, 1, 1000, 700,
     "20e7edc9961edd41fdb6ff0ef0f6985de1d5b0459b0dde9aed57d84914f28c81"),
    ("layered-core", {"n": 600, "depth": 25, "d": 3}, 0, 600, 1194,
     "eadd80f15577b4a6272b35b9665d8248af8830f273cf19db80c656cb50d05232"),
    ("layered-core", {"n": 600, "depth": 25, "d": 3}, 1, 600, 1194,
     "eadd80f15577b4a6272b35b9665d8248af8830f273cf19db80c656cb50d05232"),
    ("matching-gadget", {"parents": 5, "children": 20, "decoys": 3}, 0, 120, 400,
     "d755dfbe7630025e64c24f8f153171dde10eccad3d4fe288bda0dfca3feba6eb"),
    ("matching-gadget", {"parents": 5, "children": 20, "decoys": 3}, 1, 120, 400,
     "d755dfbe7630025e64c24f8f153171dde10eccad3d4fe288bda0dfca3feba6eb"),
    ("mis-gadget", {"parents": 3, "cliques": 6, "clique_size": 4}, 0, 75, 180,
     "cff70c3deb57184c0fd11015a9a3083c77bd46d3a53f613ae491fdfa07e3e213"),
    ("mis-gadget", {"parents": 3, "cliques": 6, "clique_size": 4}, 1, 75, 180,
     "cff70c3deb57184c0fd11015a9a3083c77bd46d3a53f613ae491fdfa07e3e213"),
]


@pytest.mark.parametrize(
    "family,params,seed,n,m,sha",
    GENERATOR_PINS,
    ids=["{}-{}-seed{}".format(f, "-".join(f"{k}{v}" for k, v in p.items()), s)
         for f, p, s, *_ in GENERATOR_PINS],
)
def test_generator_output_pinned(family, params, seed, n, m, sha):
    g = generate(family, params, seed)
    assert (g.n, g.m) == (n, m)
    assert _arrays_sha256(g) == sha


@pytest.mark.parametrize("k", [0, 1, 7, 1000])
def test_batched_uniforms_continue_the_scalar_stream(k):
    # preferential attachment draws its uniforms in one batch and any extra
    # ones singly: the same doubles as that many scalar draws
    batch = np.random.default_rng(3)
    got = batch.random(k).tolist() + [batch.random()]
    scalar = np.random.default_rng(3)
    assert got == [scalar.random() for _ in range(k + 1)]


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
