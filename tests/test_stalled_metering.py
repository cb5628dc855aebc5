"""Pinned metering of cluster runs whose first phase stalls.

The golden cases and the benchmark instances never stall, so these runs pin
the stall path: the partition rounds metered up to the stall, the stalled
phase's report and stats entry, and the finish that follows on the whole
graph.  Each case pins the SHA-256 of its ``MPC_TRACE_DIR`` file and of its
``metrics`` dict (JSON, keys sorted; per-phase reports and partition stats
included), both recorded before the stall path was reworked.
"""

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
from sparsempc.mpc import mpc_pipeline
from sparsempc.peeling import StallError, h_partition
from sparsempc.reduction import reduce_once
from sparsempc.runtime import ClusterConfig

# (family, params, graph seed, kind, memory exponent, adaptive) ->
# (rounds, total messages, metrics SHA-256, trace SHA-256)
STALLED = [
    pytest.param(
        ("preferential-attachment", {"n": 2000, "c": 3}, 7, "matching", 0.7, False),
        (45, 14295, "d19c6516bf5db0db53570d548a23f8c96b82df2a9862e5f6a3b9222282c433af",
         "82e715778aa907f3504c958c5e5fdf171d5ff6696b886fa9e8d653c21715a9f5"),
        id="readme-quick-start",
    ),
    pytest.param(
        ("preferential-attachment", {"n": 2000, "c": 3}, 7, "matching", 0.7, True),
        (41, 13391, "b9a2ff1eabfadb741384ff15196b67cf56b3cdef14e75713a3b562a4b6a54190",
         "335f77b2a277690464faf8a7e327f97dc4ffa26426065e602ac446a8a98e0a00"),
        id="readme-quick-start-adaptive",
    ),
    pytest.param(
        ("bounded-degree-random", {"n": 300, "deg": 4}, 1, "mis", 0.6, False),
        (27, 11206, "8707c8cfce6429b90a16480871d952d15c8fbfc61cc2bdbd32fa75e3a7c8a4a8",
         "f0433bb0a7b73223d887c9cbddd5dec0dd2285be1e415a8df25908b40ac66c5d"),
        id="bounded-degree-mis",
    ),
    pytest.param(
        ("bounded-degree-random", {"n": 300, "deg": 4}, 1, "matching", 0.6, True),
        (31, 13901, "5251b54cc3fc6488dfdc78009379f90f38ec1f48e1e2dc71a4277ee44d03e73b",
         "26468d9fa5abbf961f286e09fc2585687c44525999f2d0638211839bed367722"),
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
    assert (met["rounds"], met["total_messages"]) == (120, 85480)
    doc = json.dumps(met, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "709c647f239675c45520bf437d2729b362cdce186d2103a14f4116db98e40294"
    )
    trace = (tmp_path / "stalled.trace.ndjson").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == (
        "c9fd1d4d519c2b05b03919a919cc8e556f42a558d237ee5e5a6858a91ccadd15"
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


class _PartitionMeter:
    def partition(self, sub, ids, hp):
        self.sub, self.ids, self.hp = sub, ids, hp


def test_reduce_once_meters_the_partial_map_then_raises():
    # the driver hands the meter the layers peeled before the stall, in the
    # phase subgraph's ids, and raises the stall itself
    g = _tail_and_clique()
    alive = np.ones(g.n, bool)
    alive[:4] = False
    meter = _PartitionMeter()
    with pytest.raises(StallError, match="peeling stalled with 6 nodes"):
        reduce_once(GraphView(g, alive), "matching", 1, 0, meter=meter)
    sub, ids = GraphView(g, alive).compact()
    assert np.array_equal(meter.ids, ids)
    assert np.array_equal(meter.hp.layer, hand_peel(sub, 1, max_layers=sub.n))
    assert meter.hp.ell == 26
