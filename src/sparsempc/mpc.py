"""Cluster execution of the degree-reduction pipeline.

:func:`mpc_pipeline` is :func:`sparsempc.reduction.solve` run with a
:class:`ClusterMeter`: the shared driver computes every proposal, selection
and finish round once, and the meter has one hook per stage that charges it
to a simulated cluster.  The stage meters live here: the partition, which
opens with the phase rebalance and is built on the cluster
(:func:`mpc_h_partition`), mark/propose (:func:`mpc_mark_propose`), the
chunk-wise selection (:func:`mpc_select`, after which the survivors' stored
rows shrink to their remaining degree) and the finish rounds.

The partition is built in repetitions: each repetition peels every node whose
layer index (within the current remainder) is at most the hop radius, because
a radius-r ball determines layers up to r.  Hop radii double once per
iteration by connecting 1-hop neighborhoods into cliques (virtual edges), so
one repetition of iteration i clears up to 2^i layers in O(1) rounds.  Nodes
get removed in chunks of consecutive layers, recorded as ``(last_layer,
radius)`` pairs in removal order; selection later walks the chunks in reverse
removal order and reads each chunk's members off the layer map.  The layer
map equals the centralized :func:`sparsempc.peeling.h_partition` of the phase
subgraph.  Message volumes are computed from real ball sizes (bounded-radius
BFS) and charged against the machine budgets of :mod:`sparsempc.runtime`.

Two metering regimes: ``adaptive=False`` (default) runs the fixed repetition
schedule of an oblivious coordinator and checks progress once per iteration;
``adaptive=True`` pays an aggregation-tree sync after every repetition and
stops a repetition loop as soon as the remainder is exhausted.  Outputs are
identical in both; only the traces differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .kernels import alive_degrees, ball_stats, gather_segments, peel_layers, sorted_unique
from .peeling import HPartition, StallError
from .reduction import PartialSolution, ProposalSet, check_request, solve
from .runtime import Cluster, ClusterConfig, init_cluster, rebalance
from .runtime import metrics as runtime_metrics

REPS_FIRST = 60
REPS_LATER = 20


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentiationSchedule:
    delta_max: int
    k: int | None  # None in fallback mode
    phases: tuple  # ((iteration, radius, repetitions), ...)
    preprocessing_layers: int


def compute_schedule(
    delta_max: int,
    S: int,
    n: int,
    delta: float,
    *,
    c_pre: float = 2.0,
) -> ExponentiationSchedule:
    """Pick the deepest hop-doubling level k with delta_max^(2^k + 1) <= S.

    When even the first doubling is unaffordable (delta_max^2 > S) the
    schedule is in fallback mode (k is None): layer-by-layer peeling at
    radius 1, no virtual edges.
    """
    delta_max = int(delta_max)
    loglog = math.log2(max(2.0, math.log2(max(2.0, n))))
    pre = int(math.ceil(c_pre * math.log2(max(2.0, (1.0 / delta) * loglog))))
    if delta_max >= 2 and delta_max ** 2 > S:
        return ExponentiationSchedule(
            delta_max=delta_max, k=None, phases=(), preprocessing_layers=0
        )
    k = 0
    if delta_max >= 2:
        while delta_max ** (2 ** (k + 1) + 1) <= S:
            k += 1
    phases = tuple(
        (i, 2 ** i, REPS_FIRST if i == 0 else REPS_LATER) for i in range(k + 1)
    )
    return ExponentiationSchedule(
        delta_max=delta_max, k=k, phases=phases, preprocessing_layers=pre
    )


# ---------------------------------------------------------------------------
# partition construction
# ---------------------------------------------------------------------------


def _notify_round(cluster: Cluster, g: Graph, senders: np.ndarray, mask: np.ndarray, label: str) -> None:
    """Distinct ``senders`` push one word along each incident edge whose other
    end is in ``mask``: removed nodes strike the edge at their still-alive
    neighbors, winners notify the not-yet-finished phase nodes.  The round is
    handed over as its live (sender, target) pairs with one word each, read
    off the senders' rows rather than all n nodes; the cluster sums them per
    machine, so no per-node totals are formed."""
    src, tgt = gather_segments(g.indptr, g.indices, senders)
    live = mask[tgt]
    cluster.execute_round_volumes(src[live], 1, tgt[live], 1, label=label)


class _BallCache:
    """Iteration-start ball statistics, computed once and reused by every
    round of the iteration: clique-step volumes at the half radius, gather
    volumes and virtual additions at the full radius.  Balls only shrink as
    repetitions remove nodes, so these stay valid upper bounds for the budget
    ledgers.  Also feeds the iteration-boundary rebalance: nodes are packed
    by their predicted traffic (each node knows its outgoing volume locally
    and learns the incoming one from a sizes-first handshake)."""

    def __init__(self, g: Graph, alive: np.ndarray, radius: int):
        self.ids = ids = np.flatnonzero(alive)
        deg = alive_degrees(g.indptr, g.indices, alive)
        row_words = 1 + deg  # node id + adjacency entries
        self.row_words = row_words
        half = radius // 2
        ones = np.ones(g.n, np.int64)
        cnt_half, _ = ball_stats(g.indptr, g.indices, alive, ids, half, ones)
        vdeg_half = np.zeros(g.n, np.int64)
        vdeg_half[ids] = cnt_half - 1
        _, recv_half = ball_stats(g.indptr, g.indices, alive, ids, half, vdeg_half)
        self.clique_send = vdeg_half[ids] ** 2
        self.clique_recv = recv_half - vdeg_half[ids]
        cnt, wsum = ball_stats(g.indptr, g.indices, alive, ids, radius, row_words)
        self.count = np.zeros(g.n, np.int64)
        self.gather = np.zeros(g.n, np.int64)
        self.count[ids] = cnt
        self.gather[ids] = wsum - row_words[ids]  # pulls exclude own row
        self.added = (cnt - 1) - deg[ids]

    def traffic_weights(self, stored: np.ndarray) -> np.ndarray:
        """Per-node packing weight: the worst single-round volume this node
        contributes during the iteration, floored at its stored words so the
        storage ledgers stay balanced too.  Full-length array."""
        w = stored.astype(np.int64, copy=True)
        ids = self.ids
        peak = np.maximum(self.clique_send, self.clique_recv)
        peak = np.maximum(peak, self.row_words[ids] * (self.count[ids] - 1))
        peak = np.maximum(peak, self.gather[ids])
        w[ids] = np.maximum(w[ids], peak)
        return w


def connect_cliques(
    cluster: Cluster,
    alive: np.ndarray,
    radius: int,
    delta_max: int,
    *,
    cache: _BallCache | None = None,
) -> dict:
    """Hop-doubling step of an iteration with target radius 2^i >= 2: every
    node shares its current virtual neighbor list with those neighbors, after
    which virtual adjacency covers distance <= 2^i.  Virtual words land in the
    storage ledgers; per-node additions are asserted against delta_max^(2^i)
    and totals are returned for the O(n/Delta)-law bookkeeping."""
    g = cluster.graph
    if cache is None:
        cache = _BallCache(g, alive, radius)
    ids = cache.ids
    added = cache.added
    bound = delta_max ** radius
    worst = int(added.max()) if added.size else 0
    if worst > bound:
        raise AssertionError(
            f"virtual additions {worst} exceed {delta_max}^{radius} = {bound}"
        )
    cluster.add_extra_words(ids, added - cluster.extra_words[ids])
    cluster.execute_round_volumes(
        ids, cache.clique_send, ids, cache.clique_recv, label="partition-clique"
    )
    return {
        "virtual_added_total": int(added.sum()),
        "virtual_added_max": worst,
        "virtual_bound_per_node": int(bound),
        "alive": int(ids.size),
    }


def gather_and_peel(
    cluster: Cluster,
    radius: int,
    d: int,
    *,
    alive: np.ndarray,
    cache: _BallCache | None = None,
    deg: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """One repetition: each alive node learns its layer-if-at-most-``radius``
    (else "deeper", encoded 0) from its radius-ball and drops out if layered.

    Radius 1 needs no gathering (degrees are local); it costs one removal
    round.  Radius >= 2 costs one gather round whose volumes come from the
    iteration ball cache (built here when ``cache`` is None).  Mutates
    ``alive``, and ``deg`` (the alive degrees carried across repetitions, see
    :func:`peel_layers`) when given.  Raises StallError exactly when the
    centralized peeling would: a nonempty remainder where nobody has degree
    <= d.
    """
    g = cluster.graph
    label = "partition-gather" if radius >= 2 else "partition-peel"
    if not alive.any():
        # faithful repetitions keep running after the subgraph empties; they
        # are metered as silent rounds without peeling or scanning the n nodes
        none = np.empty(0, np.int64)
        cluster.execute_round_volumes(none, none, none, none, label=label)
        return np.zeros(g.n, np.int64), 0
    if radius >= 2 and cache is None:
        cache = _BallCache(g, alive, radius)
    rel, t, src, nb = peel_layers(g.indptr, g.indices, alive, d, radius, deg=deg, last_rows=True)
    removed = np.flatnonzero(rel > 0)
    if radius >= 2:
        cur = np.flatnonzero(alive)
        cluster.execute_round_volumes(
            cur,
            cache.row_words[cur] * (cache.count[cur] - 1),
            cur,
            cache.gather[cur],
            label=label,
        )
        alive[removed] = False
    else:
        # the one layer's rows, as the peel gathered them: removed nodes
        # strike the edges to their still-alive neighbors
        alive[removed] = False
        live = alive[nb]
        cluster.execute_round_volumes(src[live], 1, nb[live], 1, label=label)
    if t < radius and alive.any():
        stuck = int(alive.sum())
        raise StallError(
            f"peeling stalled with {stuck} nodes of remaining degree > {d}"
        )
    return rel, t


def mpc_h_partition(
    cluster: Cluster,
    d: int,
    schedule: ExponentiationSchedule,
    *,
    alive: np.ndarray | None = None,
    adaptive: bool = False,
    deg: np.ndarray | None = None,
) -> tuple[HPartition, list[tuple[int, int]], dict]:
    """Build the full layer map of the alive subgraph on the cluster.

    Returns the partition (global layer indices over original node ids; 0
    marks nodes outside the alive mask), the chunks as ``(last_layer,
    radius)`` pairs in removal order (each chunk starts one layer above the
    previous one's last), and a stats dict (per-iteration virtual-edge
    counts, alive counts, repetitions used).  Round traces accumulate on the
    cluster.

    ``deg`` hands over the alive degrees when the caller holds them, under
    the contract of :func:`peel_layers`: an int64 array holding
    :func:`alive_degrees` on every alive node, consumed in place.
    """
    g = cluster.graph
    members = np.ones(g.n, np.bool_) if alive is None else np.asarray(alive, np.bool_)
    work = members.copy()
    # only gather_and_peel shrinks `work`, and it keeps these degrees current
    if deg is None:
        deg = alive_degrees(g.indptr, g.indices, work)
    layer = np.zeros(g.n, np.int64)
    offset = 0
    chunks: list[tuple[int, int]] = []
    sync = 2 * cluster.agg_depth()
    stats: dict = {
        "alive_start": int(work.sum()),
        "fallback": schedule.k is None,
        "k": schedule.k,
        "preprocessing": {"target_layers": schedule.preprocessing_layers, "reps_used": 0},
        "iterations": [],
        "outer_passes": 0,
    }

    def run_rep(radius: int, cache: _BallCache | None) -> None:
        nonlocal offset
        rel, t = gather_and_peel(cluster, radius, d, alive=work, cache=cache, deg=deg)
        if t:  # t == 0 only once `work` is empty: the repetition layers nothing
            removed = np.flatnonzero(rel > 0)
            layer[removed] = offset + rel[removed]
            offset += t
            chunks.append((offset, radius))
        if adaptive:
            cluster.control_rounds(sync, label="partition-sync")

    if schedule.k is None:
        rep = 0
        entry = {"iteration": -1, "radius": 1, "alive_before": int(work.sum()), "reps_used": 0}
        while work.any():
            if rep % 16 == 0:
                rebalance(cluster, work, keep=members, label="partition-rebalance")
                if not adaptive:
                    cluster.control_rounds(sync, label="partition-sync")
            run_rep(1, None)
            rep += 1
        entry["reps_used"] = rep
        stats["iterations"].append(entry)
        stats["ell"] = offset
        return HPartition(layer=layer, d=d, ell=offset), chunks, stats

    # pre-processing: strip the lowest layers one by one to free memory
    for rep in range(schedule.preprocessing_layers):
        if not work.any() and adaptive:
            break
        run_rep(1, None)
        stats["preprocessing"]["reps_used"] = rep + 1
    stats["preprocessing"]["layers_removed"] = offset

    while work.any():
        stats["outer_passes"] += 1
        for iteration, radius, reps in schedule.phases:
            if not work.any() and adaptive:
                break
            entry = {
                "iteration": iteration,
                "radius": radius,
                "alive_before": int(work.sum()),
                "reps_used": 0,
            }
            cache = None
            if radius >= 2 and work.any():
                # pack machines by the traffic this iteration will move, not
                # by stored words: clique and gather volumes grow with the
                # squared virtual degree and would pile up on machines that
                # happen to hold many nodes
                cache = _BallCache(g, work, radius)
                rebalance(
                    cluster,
                    work,
                    keep=members,
                    weights=cache.traffic_weights(cluster.node_words()),
                    label="partition-rebalance",
                )
                vstats = connect_cliques(
                    cluster, work, radius, schedule.delta_max, cache=cache
                )
                entry.update(vstats)
            else:
                rebalance(cluster, work, keep=members, label="partition-rebalance")
            for rep in range(reps):
                if adaptive and not work.any():
                    break
                run_rep(radius, cache)
                entry["reps_used"] = rep + 1
            if not adaptive:
                cluster.control_rounds(sync, label="partition-sync")
            stats["iterations"].append(entry)
        if stats["outer_passes"] > g.n:
            raise RuntimeError("partition failed to terminate")

    stats["ell"] = offset
    return HPartition(layer=layer, d=d, ell=offset), chunks, stats


# ---------------------------------------------------------------------------
# stage meters
# ---------------------------------------------------------------------------


def mpc_mark_propose(
    cluster: Cluster, sub: Graph, ids: np.ndarray, hp: HPartition, props: ProposalSet
) -> None:
    """Meter marking and proposing over the whole phase subgraph ``sub``
    (compacted ids; ``ids`` maps them back), before any chunk is visited.
    Costs one layer-exchange round plus, for matching, a marked-edge round
    and a proposal round; for the independent set the marks of same-layer
    neighbors are the only exchange, one word from each marked node to each
    same-layer neighbor, read off the marked nodes' rows."""
    deg = sub.degrees
    cluster.execute_round_volumes(ids, deg, ids, deg, label="markpropose")
    if props.kind == "matching":
        mk, pr = props.marked, props.proposed
        cluster.execute_round_bulk(ids[mk[:, 0]], ids[mk[:, 1]], 1, label="markpropose")
        cluster.execute_round_bulk(ids[pr[:, 1]], ids[pr[:, 0]], 1, label="markpropose")
    else:
        src, nb = gather_segments(sub.indptr, sub.indices, props.marked)
        flow = hp.layer[nb] == hp.layer[src]
        cluster.execute_round_volumes(ids[src[flow]], 1, ids[nb[flow]], 1, label="markpropose")


def mpc_select(
    cluster: Cluster, hp: HPartition, chunks: list[tuple[int, int]], sol: PartialSolution
) -> None:
    """Meter the selection ``sol`` (original ids) chunk by chunk, in reverse
    removal order.  ``chunks`` holds the ``(last_layer, radius)`` pairs of
    :func:`mpc_h_partition`; a chunk's members are the nodes of its layers.

    Each chunk member re-gathers its retained radius ball with proposal flags
    (one round), winners notify their neighbors (one round), and for the
    independent set the removed neighbors — which may sit in other chunks —
    get one extra round to propagate.  The outcome per chunk matches the
    global highest-layer-first sweep because proposal chains never leave a
    chunk's layer interval going down and the reverse order resolves every
    cross-chunk dependency before it is needed.

    The phase nodes and the selection are each sorted by layer once, so a
    chunk's members and its winners are two slices found by binary search.
    Both sorts are stable on an unsigned key just wide enough for ``hp.ell``,
    which numpy sorts by radix.  A chunk's matched edges share no endpoint,
    so their endpoints need no dedupe; the neighbors that an independent
    set's winners fell can repeat and are deduped by a sort.  The winners'
    rows are gathered once, for their notify round and the felled set.
    """
    g = cluster.graph
    removed = np.zeros(g.n, np.bool_)
    removed[sol.removed] = True
    pending = hp.layer > 0  # phase nodes whose fate is not yet committed
    key = np.min_scalar_type(hp.ell)

    def by_layer(nodes: np.ndarray, layer: np.ndarray):
        order = np.argsort(layer.astype(key), kind="stable")
        return nodes[order], layer[order]

    # ascending ids within a layer keep the per-chunk gathers sequential
    phase_nodes = np.flatnonzero(pending)
    members_by_layer, member_layer = by_layer(phase_nodes, hp.layer[phase_nodes])
    if sol.kind == "matching":
        sel_by_layer, sel_layer = by_layer(sol.selected, hp.layer[sol.selected[:, 1]])
    else:
        sel_by_layer, sel_layer = by_layer(sol.selected, hp.layer[sol.selected])

    for i in reversed(range(len(chunks))):
        hi, radius = chunks[i]
        lo = chunks[i - 1][0] + 1 if i else 1
        if hi - lo + 1 > radius:
            raise AssertionError("chunk wider than its hop radius")
        start, stop = np.searchsorted(member_layer, (lo, hi + 1))
        members = members_by_layer[start:stop]
        words = cluster.base_words[members] + cluster.extra_words[members]
        cluster.execute_round_volumes(members, words, members, words, label="select")
        start, stop = np.searchsorted(sel_layer, (lo, hi + 1))
        winners = sel_by_layer[start:stop].ravel()
        src, nb = gather_segments(g.indptr, g.indices, winners)
        live = pending[nb]
        cluster.execute_round_volumes(src[live], 1, nb[live], 1, label="select")
        if sol.kind == "mis":
            # neighbors of winners leave the graph too; they tell their own
            # neighborhoods, which may live in chunks not yet visited
            felled = sorted_unique(nb[live & removed[nb]])
            _notify_round(cluster, g, felled, pending, "select")
        cluster.drop_nodes(members[removed[members]])
        keep = members[~removed[members]]
        # only clique steps add extra words, so most chunks carry none
        keep = keep[cluster.extra_words[keep] != 0]
        if keep.size:
            cluster.add_extra_words(keep, -cluster.extra_words[keep])
        pending[members] = False


# ---------------------------------------------------------------------------
# the cluster meter and the full pipeline
# ---------------------------------------------------------------------------


class ClusterMeter:
    """Hooks that :func:`sparsempc.reduction.solve` calls at each stage of a
    phase (partition, mark/propose, select) and at each finish round.  The
    partition hook repacks the cluster and builds the layer map on it; every
    other hook only meters what the driver computed.  Collects the per-phase
    partition stats."""

    def __init__(self, cluster: Cluster, *, c_pre: float = 2.0, adaptive: bool = False):
        self.cluster = cluster
        self.c_pre = c_pre
        self.adaptive = adaptive
        self.partition_stats: list[dict] = []
        self._hp: HPartition | None = None  # this phase's layers, original ids
        self._chunks: list[tuple[int, int]] = []

    def partition(self, alive: np.ndarray, ids: np.ndarray, deg: np.ndarray, d: int) -> HPartition:
        """The phase partition of the ``alive`` subgraph, built on the cluster
        after the phase rebalance; returned over the compacted ids ``ids``.
        ``deg`` holds the compacted phase subgraph's degrees.  Raises
        StallError where the centralized peeling would; a stalled phase still
        leaves a stats entry (its schedule, ``"stalled": True``)."""
        cl = self.cluster
        rebalance(cl, alive, label="rebalance")
        schedule = compute_schedule(
            int(deg.max()), cl.cfg.S, cl.graph.n, cl.cfg.delta, c_pre=self.c_pre
        )
        full = np.zeros(cl.graph.n, np.int64)
        full[ids] = deg
        try:
            hp, self._chunks, stats = mpc_h_partition(
                cl, d, schedule, alive=alive, adaptive=self.adaptive, deg=full
            )
        except StallError:
            self.partition_stats.append(
                {
                    "alive_start": int(ids.size),
                    "fallback": schedule.k is None,
                    "k": schedule.k,
                    "stalled": True,
                }
            )
            raise
        self.partition_stats.append(stats)
        self._hp = hp
        return HPartition(layer=hp.layer[ids], d=hp.d, ell=hp.ell)

    def mark_propose(self, sub: Graph, ids: np.ndarray, hp: HPartition, props: ProposalSet) -> None:
        mpc_mark_propose(self.cluster, sub, ids, hp, props)

    def select(self, sol: PartialSolution, deg: np.ndarray) -> None:
        """Meter the selection, then shrink the survivors' stored rows (the
        phase's nodes that ``sol`` leaves alive) to their remaining degree,
        read from ``deg``, the alive degrees of the remainder."""
        mpc_select(self.cluster, self._hp, self._chunks, sol)
        after = self._hp.layer > 0
        after[sol.removed] = False
        srv = np.flatnonzero(after)
        self.cluster.set_base_words(srv, deg[srv])

    def finish_round(self, g: Graph, alive: np.ndarray, step: PartialSolution) -> None:
        """One priority round of the finish: ``step.selected`` joined the
        solution and ``step.removed`` leave the ``alive`` nodes."""
        cl = self.cluster
        after = alive.copy()
        after[step.removed] = False
        if step.kind == "matching":  # alive edges exchange priorities
            e = g.edges[alive[g.edges[:, 0]] & alive[g.edges[:, 1]]]
            has_edge = np.zeros(g.n, np.bool_)
            has_edge[e.ravel()] = True
            nodes = np.flatnonzero(has_edge)
            cl.execute_round_volumes(nodes, 1, nodes, 1, label="finish")
        else:  # winners notify their neighbors
            _notify_round(cl, g, step.selected, alive, "finish")
        _notify_round(cl, g, step.removed, after, "finish")
        cl.drop_nodes(step.removed)
        cl.control_rounds(2 * cl.agg_depth(), label="finish-sync")


def partition_rounds(met: dict) -> int:
    """Rounds spent constructing partitions (criterially the quantity that
    should scale like (1/delta) * loglog n)."""
    return sum(v for k, v in met["rounds_by_label"].items() if k.startswith("partition"))


def mpc_pipeline(
    g: Graph,
    cfg: ClusterConfig,
    kind: str,
    target_delta: int,
    seed: int,
    *,
    exponent: float = 0.1,
    d_floor: int | None = None,
    c_pre: float = 2.0,
    adaptive: bool = False,
    name: str = "pipeline",
) -> tuple[PartialSolution, dict]:
    """:func:`sparsempc.reduction.solve` on a cluster: degree-reduction
    phases, then the priority finish, all metered, then the collect rounds.

    The solution is the one ``solve`` returns for the same arguments; the
    metrics carry rounds by label, peak words, violations, per-phase reports
    and partition stats.  ``kind`` and ``target_delta`` are checked before
    any node is placed.
    """
    check_request(kind, target_delta)
    cluster = init_cluster(g, cfg, seed, name=name)
    meter = ClusterMeter(cluster, c_pre=c_pre, adaptive=adaptive)
    total, report = solve(
        g, kind, target_delta, seed, exponent=exponent, d_floor=d_floor, meter=meter
    )
    cluster.control_rounds(2 * cluster.agg_depth(), label="collect")
    met = runtime_metrics(cluster)
    met["partition_rounds"] = partition_rounds(met)
    met["phases"] = report.phases
    met["partition_stats"] = meter.partition_stats
    met["kind"] = kind
    met["target_delta"] = int(target_delta)
    met["adaptive"] = bool(adaptive)
    cluster.flush_trace()
    return total, met
