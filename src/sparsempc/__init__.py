"""Degree-reduction pipelines for sparse graphs, centralized and on a metered
cluster simulator.

The package solves maximal matching and maximal independent set on uniformly
sparse (low-arboricity) graphs by repeatedly layering the graph with batch
peeling, running one randomized mark/propose/select round over the layering,
and finishing the residual low-degree graph greedily.  The driver yields a
record per phase and per finish round, drained directly
(:func:`sparsempc.reduction.solve`) or by a simulated memory-bounded cluster
(:func:`sparsempc.mpc.mpc_pipeline`) that meters each record's rounds,
messages, and stored words — with bit-identical outputs.
"""

from .graph import Graph, GraphView, build_graph, load_graph, save_graph
from .generators import FAMILIES, generate
from .peeling import (
    ArboricityEstimate,
    HPartition,
    StallError,
    degeneracy,
    h_partition,
    layer_decay_ok,
)
from .reduction import (
    InvariantError,
    PartialSolution,
    ReductionReport,
    degree_reduce,
    finish_greedy,
    solution_digest,
    solution_to_json,
    solve,
    verify_maximal,
)
from .runtime import (
    BudgetError,
    CapacityError,
    Cluster,
    ClusterConfig,
    MemoryExceeded,
    ReceiveBudgetExceeded,
    SendBudgetExceeded,
    UnplacedNodeError,
    init_cluster,
    metrics,
    rebalance,
)
from .mpc import (
    ExponentiationSchedule,
    compute_schedule,
    mpc_h_partition,
    mpc_pipeline,
)
from .harness import ExperimentSpec, RunRecord, derive_2approx, report, run

__version__ = "0.1.0"

__all__ = [
    "ArboricityEstimate",
    "BudgetError",
    "CapacityError",
    "Cluster",
    "ClusterConfig",
    "ExperimentSpec",
    "ExponentiationSchedule",
    "FAMILIES",
    "Graph",
    "GraphView",
    "HPartition",
    "InvariantError",
    "MemoryExceeded",
    "PartialSolution",
    "ReceiveBudgetExceeded",
    "ReductionReport",
    "RunRecord",
    "SendBudgetExceeded",
    "StallError",
    "UnplacedNodeError",
    "build_graph",
    "compute_schedule",
    "degeneracy",
    "degree_reduce",
    "derive_2approx",
    "finish_greedy",
    "generate",
    "h_partition",
    "init_cluster",
    "layer_decay_ok",
    "load_graph",
    "metrics",
    "mpc_h_partition",
    "mpc_pipeline",
    "rebalance",
    "report",
    "run",
    "save_graph",
    "solution_digest",
    "solution_to_json",
    "solve",
    "verify_maximal",
]
