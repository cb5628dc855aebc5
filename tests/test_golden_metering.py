"""Pinned metering of the cluster pipeline.

Every count below was recorded from the cluster execution and must repeat
exactly: the solution digest, rounds per label, peak stored words, total
message words and the per-phase partition statistics.  A refactor of the
phase driver or of a stage meter that shifts a single round, word or
repetition fails here, even when the solution stays the same.  The
``MPC_TRACE_DIR`` file of each case is pinned by its SHA-256, so every
per-machine ledger row of every round must repeat byte for byte too.
"""

import hashlib

import numpy as np
import pytest

from sparsempc import mpc as mpc_mod
from sparsempc.generators import generate
from sparsempc.mpc import _LayerMap, compute_schedule, mpc_h_partition, mpc_pipeline
from sparsempc.peeling import h_partition
from sparsempc.reduction import solution_digest
from sparsempc.runtime import ClusterConfig, init_cluster, metrics


def _stats(alive, fallback, k, pre, iterations, outer, ell):
    return {
        "alive_start": alive,
        "fallback": fallback,
        "k": k,
        "preprocessing": pre,
        "iterations": iterations,
        "outer_passes": outer,
        "ell": ell,
    }


def _fallback_pass(alive, reps):
    return {"iteration": -1, "radius": 1, "alive_before": alive, "reps_used": reps}


def _pre(target, used, removed=None):
    out = {"target_layers": target, "reps_used": used}
    if removed is not None:
        out["layers_removed"] = removed
    return out


def _rounds(**by_label):
    return {label.replace("_", "-"): count for label, count in by_label.items()}


# (family, params, seed, kind, memory exponent, d_floor) -> pins
GOLDEN = [
    pytest.param(
        ("layered-core", {"n": 1024, "depth": 100, "d": 3}, 0, "matching", 0.8, 3),
        {
            "digest": "23761844a5cd8bd8ff7a4ae1d3910c535a89bf7e7d73a8b4310a3f531fecee2c",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=3, partition_clique=1,
                partition_gather=20, partition_peel=65, partition_rebalance=2,
                partition_rebalance_plan=4, partition_sync=8, rebalance=1, rebalance_plan=2,
                select=166,
            ),
            "peak_words": 114,
            "total_messages": 159838,
            "stop_reason": "one-layer",
            "partition_stats": [
                _stats(1024, False, 1, _pre(5, 5, 5), [
                    {"iteration": 0, "radius": 1, "alive_before": 928, "reps_used": 60},
                    {"iteration": 1, "radius": 2, "alive_before": 198, "reps_used": 20,
                     "virtual_added_total": 2160, "virtual_added_max": 14,
                     "virtual_bound_per_node": 25, "alive": 198},
                ], 1, 100),
            ],
        },
        id="layered-core-matching-doubling",
    ),
    pytest.param(
        ("tree", {"n": 300}, 1, "mis", 0.6, None),
        {
            "digest": "8a8bd5c000d82eaab8d2262d71699b4bc86343cb5c5f9f952fe77561b0146d87",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=4, partition_peel=9,
                partition_rebalance=1, partition_rebalance_plan=2, partition_sync=4,
                rebalance=2, rebalance_plan=4, select=18,
            ),
            "peak_words": 8,
            "total_messages": 4384,
            "stop_reason": "not-reduced",
            "partition_stats": [
                _stats(300, True, None, _pre(0, 0), [_fallback_pass(300, 4)], 0, 4),
                _stats(173, False, 0, _pre(5, 5, 2), [], 0, 2),
            ],
        },
        id="tree-mis",
    ),
    pytest.param(
        ("preferential-attachment", {"n": 400, "c": 3}, 2, "matching", 0.8, 7),
        {
            "digest": "da427021a75e78d8e507a9a7ddbf327289dfcb0be45292d19052ecd72db44979",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=3, partition_peel=4,
                partition_rebalance=1, partition_rebalance_plan=2, partition_sync=4,
                rebalance=1, rebalance_plan=2, select=8,
            ),
            "peak_words": 57,
            "total_messages": 12145,
            "stop_reason": "one-layer",
            "partition_stats": [
                _stats(400, True, None, _pre(0, 0), [_fallback_pass(400, 4)], 0, 4),
            ],
        },
        id="pa-matching",
    ),
]


# the one independent-set run with ball doubling: its 83 chunks are the
# only ones in which the selection gives back an independent set's virtual
# words (198 nodes hold some).  Kept out of GOLDEN, whose case list other
# tests read.
MIS_DOUBLING = pytest.param(
    ("layered-core", {"n": 1024, "depth": 100, "d": 3}, 0, "mis", 0.8, 3),
    {
        "digest": "91c51fa8031612d0aea0c35a6e2164fb5ec1f0eb5d9ef9e84ee6261431aa9f0f",
        "rounds_by_label": _rounds(
            collect=4, finish=6, finish_sync=12, markpropose=2, partition_clique=1,
            partition_gather=20, partition_peel=65, partition_rebalance=2,
            partition_rebalance_plan=4, partition_sync=8, rebalance=1, rebalance_plan=2,
            select=249,
        ),
        "peak_words": 114,
        "total_messages": 163166,
        "stop_reason": "not-reduced",
        "partition_stats": [
            _stats(1024, False, 1, _pre(5, 5, 5), [
                {"iteration": 0, "radius": 1, "alive_before": 928, "reps_used": 60},
                {"iteration": 1, "radius": 2, "alive_before": 198, "reps_used": 20,
                 "virtual_added_total": 2160, "virtual_added_max": 14,
                 "virtual_bound_per_node": 25, "alive": 198},
            ], 1, 100),
        ],
    },
    id="layered-core-mis-doubling",
)
PINNED = [*GOLDEN, MIS_DOUBLING]


@pytest.mark.parametrize("case,pinned", PINNED)
def test_pipeline_metering_is_pinned(case, pinned):
    family, params, seed, kind, delta, d_floor = case
    g = generate(family, params, seed=seed)
    cfg = ClusterConfig.for_graph(g, delta)
    sol, met = mpc_pipeline(g, cfg, kind, 2, seed, d_floor=d_floor)
    got = {
        "digest": solution_digest(sol, seed),
        "rounds_by_label": met["rounds_by_label"],
        "peak_words": met["peak_words"],
        "total_messages": met["total_messages"],
        "stop_reason": met["stop_reason"],
        "partition_stats": met["partition_stats"],
    }
    assert got == pinned
    if kind == "matching":  # a matching phase of one layer selects nothing
        assert all(ph["ell"] >= 2 for ph in met["phases"])


# SHA-256 of each case's MPC_TRACE_DIR file, by case id
TRACE_SHA256 = {
    "layered-core-matching-doubling":
        "f735d6e07572af1277c833c63b7655d5faf4beb9a94d9c652c10b23cff6fda7e",
    "tree-mis": "a820761237e38d9b9df563ab9d0d263fee744277c41d64dada65f8d606bed0a0",
    "pa-matching": "11cec89f6c02ed4faaab9072f03c128fcdfe3c0bf5901b247a3a694ecb8c7f7e",
    "layered-core-mis-doubling":
        "2b567d946f68b9310eaccc1a6ab669a4091b173c9d1ab06b5b727b77cc0eb884",
}
TRACED = [pytest.param(p.values[0], TRACE_SHA256[p.id], id=p.id) for p in PINNED]


def _trace_sha256(case, tmp_path, monkeypatch):
    """The SHA-256 of the ``MPC_TRACE_DIR`` file of one pipeline run."""
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    family, params, seed, kind, delta, d_floor = case
    g = generate(family, params, seed=seed)
    cfg = ClusterConfig.for_graph(g, delta)
    mpc_pipeline(g, cfg, kind, 2, seed, d_floor=d_floor, name="golden")
    trace = tmp_path / "golden.trace.ndjson"
    return hashlib.sha256(trace.read_bytes()).hexdigest()


@pytest.mark.parametrize("case,sha256", TRACED)
def test_pipeline_trace_file_is_pinned(case, sha256, tmp_path, monkeypatch):
    assert _trace_sha256(case, tmp_path, monkeypatch) == sha256


@pytest.mark.parametrize("case,sha256", TRACED)
def test_translating_a_whole_graph_record_writes_the_same_trace(case, sha256, tmp_path, monkeypatch):
    # A record of the whole graph (phase 1's) skips the id translation; with
    # every record made to translate, each trace byte must repeat.
    monkeypatch.setattr(mpc_mod, "_translator", lambda ids: ids.__getitem__)
    assert _trace_sha256(case, tmp_path, monkeypatch) == sha256


def test_only_a_record_of_the_whole_graph_skips_the_translation(monkeypatch):
    # Phase 1 of this run is the whole graph, the second phase and the
    # finish run on remainders; every record's translator must map node i
    # to ids[i], and only the whole graph's may hand its nodes back as they
    # are.
    seen = []
    real = mpc_mod._translator

    def spy(ids):
        to = real(ids)
        seen.append((ids, to))
        return to

    monkeypatch.setattr(mpc_mod, "_translator", spy)
    family, params, seed, kind, delta, d_floor = GOLDEN[1].values[0]
    g = generate(family, params, seed=seed)
    mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, seed, d_floor=d_floor)
    whole = 0
    for ids, to in seen:
        probe = np.arange(ids.size)
        assert np.array_equal(to(probe), ids)
        is_whole = np.array_equal(ids, probe)
        assert (to(probe) is probe) == is_whole
        whole += is_whole
    assert 0 < whole < len(seen)
    for ids in ([], [0], [3], [0, 1, 3], [1, 2, 3]):
        ids = np.array(ids, np.int64)
        assert np.array_equal(real(ids)(np.arange(ids.size)), ids)


def test_adaptive_partition_metering_is_pinned():
    # The adaptive regime of mpc_h_partition, which criterion 8's scaling
    # grid meters, on the whole graph with threshold 3: the first phase of
    # the pipeline run that pinned these counts when the pipeline took the
    # regime.  It syncs after every repetition and stops the 20 radius-2
    # repetitions after 8, once the layers run out.
    g = generate("layered-core", {"n": 900, "depth": 80, "d": 3}, seed=5)
    cfg = ClusterConfig.for_graph(g, 0.8)
    cluster = init_cluster(g, cfg)
    schedule = compute_schedule(g.max_degree(), cfg.S, g.n, cfg.delta)
    layers = _LayerMap(g, np.arange(g.n), h_partition(g, 3))
    _, stats = mpc_h_partition(cluster, layers, schedule, adaptive=True)
    assert metrics(cluster)["rounds_by_label"] == _rounds(
        partition_clique=1, partition_gather=8, partition_peel=65, partition_rebalance=2,
        partition_rebalance_plan=4, partition_sync=292,
    )
    assert stats == _stats(900, False, 1, _pre(5, 5, 5), [
        {"iteration": 0, "radius": 1, "alive_before": 793, "reps_used": 60},
        {"iteration": 1, "radius": 2, "alive_before": 78, "reps_used": 8,
         "virtual_added_total": 834, "virtual_added_max": 14,
         "virtual_bound_per_node": 25, "alive": 78},
    ], 1, 80)
