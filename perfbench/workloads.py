"""The benchmark's workloads: one instance shape and pipeline setting each.

Every workload stresses a different layer, so that an optimisation of one
layer has a workload that exercises it and one that bypasses it:

* ``tower-doubling`` is the only shape on which ball doubling runs
  (``kernels.ball_stats`` dominates ``mpc_s``); the tower graph itself does
  not depend on the seed, only the solver's coins do.
* ``tree-phases`` runs several reduction phases with radius-1 repetitions
  only: ``kernels.peel_layers`` leads ``mpc_s`` (narrowly ahead of
  ``PartialSolution.merge``), plus repacking (``kernels.pack_bins``);
  ``kernels.ball_stats`` is never called, so it is the bypass workload for
  any ball-doubling change.
* ``pa-hubs`` has hubs of degree several hundred that dominate placement and
  proposals; its interpreted generator costs about as much ``setup_s`` as
  the degeneracy order.

A run builds ``instances`` graphs from seeds derived from ``--seed`` and
reports medians over them.  Solve and cluster times vary by up to a third
from instance to instance (the tree's phase count, hub degrees, the solver's
coins), more than between repeats of one instance, so ``instances`` is about
as many as one 30-second run can execute once each.

``fingerprint`` pins the instance built from :data:`DEFAULT_SEED`: its size,
maximum degree, degeneracy and the solution digest both executions must
produce.  A generator parameter that is silently ignored, or any change to
the instance or the solution, makes the benchmark fail.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
TARGET_DELTA = 2

# per-layer metrics that belong to the ball-doubling path
DOUBLING = (
    "kernels.ball_stats.self_s",
    "kernels.ball_stats.calls",
    "kernels.ball_stats.sources",
    "mpc.connect_cliques.self_s",
    "runtime.rounds_by_label.partition-clique",
    "runtime.rounds_by_label.partition-gather",
)


@dataclass(frozen=True)
class Workload:
    family: str
    params: dict
    kind: str
    delta: float  # memory exponent: S = ceil(n^delta)
    d_floor: int | None
    instances: int
    fingerprint: dict
    # per-layer metrics that must read exactly 0 on every run
    must_be_zero: tuple = ()
    # per-layer metrics that may read 0 on some instances; every other one
    # must be positive, so the traced run cannot pass vacuously
    may_be_zero: tuple = ()
    # (root span or None for solve and mpc, layer) expected to lead self time
    dominant: tuple | None = None


WORKLOADS = {
    "tower-doubling": Workload(
        family="layered-core",
        params={"n": 2 ** 16, "depth": 132, "d": 3},
        kind="matching",
        delta=0.5,
        d_floor=3,
        instances=8,
        fingerprint={
            "n": 65536,
            "m": 131059,
            "max_degree": 5,
            "degeneracy": 2,
            "digest": "bd21dbf03fae96ef91ec1025926a9e909d7cad4ffbe56604c2ea28dd51fc5a00",
        },
        dominant=(None, "kernels.ball_stats"),
    ),
    "tree-phases": Workload(
        family="tree",
        params={"n": 2 ** 18},
        kind="mis",
        delta=0.5,
        d_floor=None,
        instances=7,
        fingerprint={
            "n": 262144,
            "m": 262143,
            "max_degree": 21,
            "degeneracy": 1,
            "digest": "4df34a3a61f6afb7ad81468079dbef92cf9ab3a96dfcd41d0443045f279f96d2",
        },
        must_be_zero=DOUBLING[:3],
        may_be_zero=DOUBLING[3:],
        dominant=("mpc", "kernels.peel_layers"),
    ),
    "pa-hubs": Workload(
        family="preferential-attachment",
        params={"n": 2 ** 16, "c": 3},
        kind="matching",
        delta=0.8,
        d_floor=7,
        instances=12,
        fingerprint={
            "n": 65536,
            "m": 196602,
            "max_degree": 755,
            "degeneracy": 3,
            "digest": "3275d68c5b64bfce14c3fde5d9683c1251f427595c16dcd67410b9a4c10ac334",
        },
        may_be_zero=DOUBLING,
    ),
}
