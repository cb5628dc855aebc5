"""Pinned metering of cluster runs whose first phase stalls.

The golden cases and the benchmark instances never stall, so these runs pin
the stall path: the partition rounds metered up to the stall, the stalled
phase's report and stats entry, and the finish that follows on the whole
graph.  Each case pins the SHA-256 of its ``MPC_TRACE_DIR`` file and of its
``metrics`` dict (JSON, keys sorted; per-phase reports, the reason the
reduction ended and partition stats included).
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complete, hand_peel, random_graph
from sparsempc.generators import generate
from sparsempc.graph import GraphView, build_graph
from sparsempc.mpc import mpc_phase, mpc_pipeline
from sparsempc.peeling import StallError, h_partition
from sparsempc.reduction import Phase, reduce_once
from sparsempc.runtime import ClusterConfig, init_cluster

# (family, params, graph seed, kind, memory exponent, adaptive) ->
# (rounds, total messages, metrics SHA-256, trace SHA-256)
STALLED = [
    pytest.param(
        ("preferential-attachment", {"n": 2000, "c": 3}, 7, "matching", 0.7, False),
        (42, 13843, "0fc3730938a8f242ff518d7fc9eff5d63084e3c4f4440914aabac5786d9eeaeb",
         "5ce9da8265bdf3f3f4481266b5b4357c30b36de693005b2e81c7d8057dff3230"),
        id="readme-quick-start",
    ),
    pytest.param(
        ("preferential-attachment", {"n": 2000, "c": 3}, 7, "matching", 0.7, True),
        (38, 12939, "55c0fa4a88332fc0e905b2beac2b7cde26b7a24a150ee6bd70dd72e3bfd4bd1d",
         "b2bc223921a30fdec734f8b5c1f372713d1f5d6d8b8f6a883cb14f807b7929fe"),
        id="readme-quick-start-adaptive",
    ),
    pytest.param(
        ("bounded-degree-random", {"n": 300, "deg": 4}, 1, "mis", 0.6, False),
        (24, 10010, "1b4984555b4313b0d30e5d72fd34544364e4b259890c9a07e970ea339cbdea2c",
         "fdb5ad6ef0eedf790c4facd1e3b77b648a5ff08b8b754e6abccbcd07e2fac972"),
        id="bounded-degree-mis",
    ),
    pytest.param(
        ("bounded-degree-random", {"n": 300, "deg": 4}, 1, "matching", 0.6, True),
        (28, 12705, "8c2f09f72dc59436dc18e30e4fcc151ee0c9ad30a919031c4951b664c255ed36",
         "e0770224e3633af3a2b04367d7d4e69f973f73b6dc2a24bb6510cd4d6c1b0eb2"),
        id="bounded-degree-matching-adaptive",
    ),
]


@pytest.mark.parametrize("case,pinned", STALLED)
def test_stalled_run_is_pinned(case, pinned, tmp_path, monkeypatch):
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    family, params, graph_seed, kind, delta, adaptive = case
    g = generate(family, params, seed=graph_seed)
    _, met = mpc_pipeline(
        g, ClusterConfig.for_graph(g, delta), kind, 2, 0, adaptive=adaptive, name="stalled"
    )
    assert met["phases"][0].get("stalled") and met["partition_stats"][0].get("stalled")
    assert met["stop_reason"] == "stalled"
    # phase 1 runs on the placement init_cluster made, and the stall
    # selected nothing, so the finish keeps it too: no repack anywhere
    assert "rebalance" not in met["rounds_by_label"]
    rounds, messages, metrics_sha, trace_sha = pinned
    assert (met["rounds"], met["total_messages"]) == (rounds, messages)
    doc = json.dumps(met, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == metrics_sha
    trace = (tmp_path / "stalled.trace.ndjson").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == trace_sha


def test_stall_in_a_gather_repetition_is_pinned(tmp_path, monkeypatch):
    # A deep tower beside a K6 that no threshold of 3 peels: the partition
    # doubles to radius 2 and the stall falls in a gather repetition
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    tower = generate("layered-core", {"n": 800, "depth": 90, "d": 3}, seed=1)
    k6 = [(tower.n + a, tower.n + b) for a, b in itertools.combinations(range(6), 2)]
    g = build_graph(tower.n + 6, [*tower.edges.tolist(), *k6])
    _, met = mpc_pipeline(
        g, ClusterConfig.for_graph(g, 0.8), "matching", 2, 3, exponent=0.3, d_floor=3,
        name="stalled",
    )
    reason = met["phases"][0]["stall_reason"]
    assert reason == "peeling stalled with 6 nodes of remaining degree > 3"
    (stats,) = met["partition_stats"]
    assert stats == {"alive_start": 806, "fallback": False, "k": 1, "stalled": True}
    assert met["rounds_by_label"]["partition-gather"] == 13
    assert (met["rounds"], met["total_messages"]) == (117, 84836)
    doc = json.dumps(met, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "037344c943671ad2884fd0fc713e5f75a8d7ad61d162fafcfb27b1a476bc7c2d"
    )
    trace = (tmp_path / "stalled.trace.ndjson").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == (
        "b61833c6fa4ed4e76c5ddae1201cfa74bafdb96d651c3797b79fc3286fca8e33"
    )


def _tail_and_clique():
    """A path of 30 nodes hanging off a K6: with d = 1 the path peels from
    its free end, one node per layer, then the K6 stalls."""
    edges = [(i, i + 1) for i in range(29)] + [(29, 30)]
    edges += list(itertools.combinations(range(30, 36), 2))
    return build_graph(36, edges)


def _assert_partial_map(g, d):
    """``h_partition(g, d)`` stalls, and its error carries the hand peel
    run to its stall: the layers before it, 0 on the stuck nodes, and the
    layered nodes in the stable by-layer order."""
    with pytest.raises(StallError) as err:
        h_partition(g, d)
    hp = err.value.partition
    want = hand_peel(g, d, max_layers=g.n)
    assert (want == 0).any()
    assert np.array_equal(hp.layer, want)
    assert hp.d == d and hp.ell == want.max(initial=0)
    layered = np.flatnonzero(want)
    assert np.array_equal(hp.order, layered[np.argsort(want[layered], kind="stable")])
    stuck = int((want == 0).sum())
    assert str(err.value) == f"peeling stalled with {stuck} nodes of remaining degree > {d}"
    return hp


@pytest.mark.parametrize(
    "graph,d,ell",
    [
        (lambda: complete(5), 3, 0),
        (_tail_and_clique, 1, 30),
        (lambda: generate("bounded-degree-random", {"n": 300, "deg": 4}, seed=1), 2, 1),
        (lambda: generate("preferential-attachment", {"n": 2000, "c": 3}, seed=7), 2, 0),
    ],
    ids=["clique", "tail-and-clique", "bounded-degree", "readme-quick-start"],
)
def test_stall_error_carries_the_layers_peeled_before_it(graph, d, ell):
    assert _assert_partial_map(graph(), d).ell == ell


@given(st.integers(4, 40), st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_stall_error_partition_equals_the_hand_peel(n, seed, d):
    r = np.random.default_rng(seed)
    g = random_graph(n, int(r.integers(n, 4 * n + 1)), seed)
    if hand_peel(g, d) is None:  # the peel stalls
        _assert_partial_map(g, d)


def test_reduce_once_records_the_partial_map_of_a_stall():
    # the driver's stalled record holds the layers peeled before the stall,
    # in the phase subgraph's ids, and nothing else; its report entry says
    # why the phase stalled
    g = _tail_and_clique()
    alive = np.ones(g.n, bool)
    alive[:4] = False
    sub, ids = GraphView(g, alive).compact()
    ph, entry = reduce_once(sub, ids, "matching", 1, 0)
    assert ph.sub is sub and ph.ids is ids
    assert np.array_equal(ph.hp.layer, hand_peel(sub, 1, max_layers=sub.n))
    assert ph.hp.ell == 26
    assert ph.props is ph.sol is ph.deg is None
    assert entry["stalled"] and entry["stall_reason"].startswith("peeling stalled with 6 nodes")


def test_the_replay_must_agree_with_the_driver_about_stalls():
    # a doctored record in each direction: a complete map handed over as a
    # stall, and a partial map handed over as a complete phase
    g = _tail_and_clique()
    ids = np.arange(g.n)
    with pytest.raises(StallError) as err:
        h_partition(g, 1)
    complete_ph, _ = reduce_once(g, ids, "matching", 6, 0)
    assert complete_ph.sol is not None
    cfg = ClusterConfig.for_graph(g, 1.0)
    with pytest.raises(AssertionError, match="replay of a stalled phase did not stall"):
        mpc_phase(init_cluster(g, cfg), Phase(g, ids, complete_ph.hp))
    doctored = dataclasses.replace(complete_ph, hp=err.value.partition)
    with pytest.raises(AssertionError, match="replay stalled where the driver did not"):
        mpc_phase(init_cluster(g, cfg), doctored)
    # the undoctored records are metered as they are
    assert "stalled" not in mpc_phase(init_cluster(g, cfg), complete_ph)
    stalled = Phase(g, ids, err.value.partition)
    assert mpc_phase(init_cluster(g, cfg), stalled)["stalled"]
