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

import pytest

from sparsempc.generators import generate
from sparsempc.mpc import mpc_pipeline
from sparsempc.reduction import solution_digest
from sparsempc.runtime import ClusterConfig


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


# (family, params, seed, kind, memory exponent, d_floor, adaptive) -> pins
GOLDEN = [
    pytest.param(
        ("layered-core", {"n": 1024, "depth": 100, "d": 3}, 0, "matching", 0.8, 3, False),
        {
            "digest": "23761844a5cd8bd8ff7a4ae1d3910c535a89bf7e7d73a8b4310a3f531fecee2c",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=6, partition_clique=1,
                partition_gather=20, partition_peel=70, partition_rebalance=2,
                partition_rebalance_plan=4, partition_sync=8, rebalance=2, rebalance_plan=4,
                select=168,
            ),
            "peak_words": 114,
            "total_messages": 160710,
            "partition_stats": [
                _stats(1024, False, 1, _pre(5, 5, 5), [
                    {"iteration": 0, "radius": 1, "alive_before": 928, "reps_used": 60},
                    {"iteration": 1, "radius": 2, "alive_before": 198, "reps_used": 20,
                     "virtual_added_total": 2160, "virtual_added_max": 14,
                     "virtual_bound_per_node": 25, "alive": 198},
                ], 1, 100),
                _stats(154, False, 2, _pre(5, 5, 1), [], 0, 1),
            ],
        },
        id="layered-core-matching-doubling",
    ),
    pytest.param(
        ("tree", {"n": 300}, 1, "mis", 0.6, None, False),
        {
            "digest": "8a8bd5c000d82eaab8d2262d71699b4bc86343cb5c5f9f952fe77561b0146d87",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=4, partition_peel=9,
                partition_rebalance=1, partition_rebalance_plan=2, partition_sync=4,
                rebalance=2, rebalance_plan=4, select=18,
            ),
            "peak_words": 8,
            "total_messages": 5271,
            "partition_stats": [
                _stats(300, True, None, _pre(0, 0), [_fallback_pass(300, 4)], 0, 4),
                _stats(173, False, 0, _pre(5, 5, 2), [], 0, 2),
            ],
        },
        id="tree-mis",
    ),
    pytest.param(
        ("preferential-attachment", {"n": 400, "c": 3}, 2, "matching", 0.8, 7, False),
        {
            "digest": "da427021a75e78d8e507a9a7ddbf327289dfcb0be45292d19052ecd72db44979",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=6, partition_peel=8,
                partition_rebalance=1, partition_rebalance_plan=2, partition_sync=4,
                rebalance=2, rebalance_plan=4, select=10,
            ),
            "peak_words": 57,
            "total_messages": 13237,
            "partition_stats": [
                _stats(400, True, None, _pre(0, 0), [_fallback_pass(400, 4)], 0, 4),
                _stats(270, False, 0, _pre(4, 4, 1), [], 0, 1),
            ],
        },
        id="pa-matching",
    ),
    pytest.param(
        ("layered-core", {"n": 900, "depth": 80, "d": 3}, 5, "matching", 0.8, 3, True),
        {
            "digest": "e04138a208621c5f215ffacf6407f77754af46473ecfc6bfd17a4f42b2b3dabf",
            "rounds_by_label": _rounds(
                collect=4, finish=4, finish_sync=8, markpropose=6, partition_clique=1,
                partition_gather=8, partition_peel=66, partition_rebalance=2,
                partition_rebalance_plan=4, partition_sync=296, rebalance=2, rebalance_plan=4,
                select=148,
            ),
            "peak_words": 113,
            "total_messages": 130323,
            "partition_stats": [
                _stats(900, False, 1, _pre(5, 5, 5), [
                    {"iteration": 0, "radius": 1, "alive_before": 793, "reps_used": 60},
                    {"iteration": 1, "radius": 2, "alive_before": 78, "reps_used": 8,
                     "virtual_added_total": 834, "virtual_added_max": 14,
                     "virtual_bound_per_node": 25, "alive": 78},
                ], 1, 80),
                _stats(146, False, 1, _pre(5, 1, 1), [], 0, 1),
            ],
        },
        id="layered-core-matching-adaptive",
    ),
]


@pytest.mark.parametrize("case,pinned", GOLDEN)
def test_pipeline_metering_is_pinned(case, pinned):
    family, params, seed, kind, delta, d_floor, adaptive = case
    g = generate(family, params, seed=seed)
    cfg = ClusterConfig.for_graph(g, delta)
    sol, met = mpc_pipeline(g, cfg, kind, 2, seed, d_floor=d_floor, adaptive=adaptive)
    got = {
        "digest": solution_digest(sol, seed),
        "rounds_by_label": met["rounds_by_label"],
        "peak_words": met["peak_words"],
        "total_messages": met["total_messages"],
        "partition_stats": met["partition_stats"],
    }
    assert got == pinned


# SHA-256 of each case's MPC_TRACE_DIR file, by case id
TRACE_SHA256 = {
    "layered-core-matching-doubling":
        "e8e877b4f33e571b979f527979110f39390c54c81d0495b759b07207973cf5b8",
    "tree-mis": "dba0a895c73f08832c801066e825db81923eed815fb8d8598b76a9a432f8fff8",
    "pa-matching": "0cfe28ec7cc3fd26589f2ee99878bdbf70cb997f2e9b4815b16ee675af7fd71f",
    "layered-core-matching-adaptive":
        "8d051923f3dd632020e8396881db1bfb882dfd3e57cc67ba959956d2eabac1e2",
}


@pytest.mark.parametrize(
    "case,sha256", [pytest.param(p.values[0], TRACE_SHA256[p.id], id=p.id) for p in GOLDEN]
)
def test_pipeline_trace_file_is_pinned(case, sha256, tmp_path, monkeypatch):
    monkeypatch.setenv("MPC_TRACE_DIR", str(tmp_path))
    family, params, seed, kind, delta, d_floor, adaptive = case
    g = generate(family, params, seed=seed)
    cfg = ClusterConfig.for_graph(g, delta)
    mpc_pipeline(g, cfg, kind, 2, seed, d_floor=d_floor, adaptive=adaptive, name="golden")
    trace = tmp_path / "golden.trace.ndjson"
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == sha256
