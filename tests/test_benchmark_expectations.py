"""The benchmark's expectations, checked on its default-seed instances.

``perfbench/workloads.py`` pins each workload's default-seed instance by a
fingerprint (size, degrees, solution digest) and says which
``runtime.rounds_by_label.*`` metrics of ``BENCHMARK.json`` must read
exactly 0 and which may read 0; every other one must be positive, so that
the traced run cannot pass vacuously.  Both files are read here, read only,
and each workload's default-seed instance is solved both ways, so that a
change that would break the benchmark (a new digest, a round label that no
longer appears) fails the test suite first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sparsempc import generators, mpc, peeling, reduction
from sparsempc.runtime import ClusterConfig

ROOT = Path(__file__).resolve().parent.parent
LABEL_PREFIX = "runtime.rounds_by_label."


def _load_workloads():
    sys.dont_write_bytecode, keep = True, sys.dont_write_bytecode  # leave perfbench/ as it is
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = keep


WORKLOADS = _load_workloads()
LABELS = [
    m["name"][len(LABEL_PREFIX):]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"].startswith(LABEL_PREFIX)
]


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_default_seed_instance_meets_the_benchmark_expectations(name):
    w = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    g = generators.generate(w.family, w.params, seed=seed)
    fingerprint = {
        "n": g.n,
        "m": g.m,
        "max_degree": g.max_degree(),
        "degeneracy": peeling.degeneracy(g).degeneracy,
    }
    sol, _ = reduction.solve(g, w.kind, WORKLOADS.TARGET_DELTA, seed, d_floor=w.d_floor)
    msol, met = mpc.mpc_pipeline(
        g, ClusterConfig.for_graph(g, w.delta), w.kind, WORKLOADS.TARGET_DELTA, seed,
        d_floor=w.d_floor,
    )
    fingerprint["digest"] = reduction.solution_digest(sol, seed)
    assert fingerprint == w.fingerprint
    assert reduction.solution_digest(msol, seed) == fingerprint["digest"]
    assert not met["violations"]
    assert LABELS
    for label in LABELS:
        count = met["rounds_by_label"].get(label, 0)
        metric = LABEL_PREFIX + label
        if metric in w.must_be_zero:
            assert count == 0, metric
        elif metric not in w.may_be_zero:
            assert count > 0, metric
