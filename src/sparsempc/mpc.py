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
radius)`` pairs in removal order, and the nodes themselves are listed in the
order they were removed; selection later walks the chunks in reverse removal
order and reads each chunk's members off that list.  The layer map equals
the centralized :func:`sparsempc.peeling.h_partition` of the phase
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


def _notify_round(
    cluster: Cluster, g: Graph, senders: np.ndarray, mask: np.ndarray, label: str
) -> np.ndarray:
    """Distinct ``senders`` push one word along each incident edge whose other
    end is in ``mask``: removed nodes strike the edge at their still-alive
    neighbors, winners notify the not-yet-finished phase nodes.  The round is
    handed over as its live (sender, target) pairs, read off the senders'
    rows rather than all n nodes; the cluster counts the pairs that cross
    machines, so a word to a neighbor on the sender's machine is free.
    Returns the targets, one per live pair, local ones included."""
    src, tgt = gather_segments(g.indptr, g.indices, senders)
    live = mask[tgt]
    tgt = tgt[live]
    cluster.execute_round_bulk(src[live], tgt, label=label)
    return tgt


class _BallCache:
    """Iteration-start ball statistics, computed once and reused by every
    round of the iteration: clique-step volumes at the half radius, gather
    volumes and virtual additions at the full radius.  Balls only shrink as
    repetitions remove nodes, so these stay valid upper bounds for the budget
    ledgers.  Also feeds the iteration-boundary rebalance: nodes are packed
    by their predicted traffic (each node knows its outgoing volume locally
    and learns the incoming one from a sizes-first handshake)."""

    def __init__(self, g: Graph, alive: np.ndarray, radius: int, deg: np.ndarray):
        # deg: the alive degrees, as the partition carries them, so no O(m)
        # pass recounts them (entries of dead nodes are never read)
        self.ids = ids = np.flatnonzero(alive)
        row_words = 1 + deg  # node id + adjacency entries
        vdeg = deg[ids]
        half = radius // 2
        if half == 1:
            # a radius-1 ball is the node and its alive row: the virtual
            # degree is the alive degree, and the words received are the
            # alive neighbors' degrees
            _, nb = gather_segments(g.indptr, g.indices, ids)
            cs = np.concatenate((np.zeros(1, np.int64), np.cumsum(np.where(alive[nb], deg[nb], 0))))
            lengths = g.indptr[ids + 1] - g.indptr[ids]
            ends = np.cumsum(lengths)
            self.clique_send = vdeg ** 2
            self.clique_recv = cs[ends] - cs[ends - lengths]
        else:
            ones = np.ones(g.n, np.int64)
            cnt_half, _ = ball_stats(g.indptr, g.indices, alive, ids, half, ones)
            vdeg_half = np.zeros(g.n, np.int64)
            vdeg_half[ids] = cnt_half - 1
            _, recv_half = ball_stats(g.indptr, g.indices, alive, ids, half, vdeg_half)
            self.clique_send = vdeg_half[ids] ** 2
            self.clique_recv = recv_half - vdeg_half[ids]
        cnt, wsum = ball_stats(g.indptr, g.indices, alive, ids, radius, row_words)
        # per alive node, aligned with ids: the words it sends in a gather
        # round (its row to every other ball member) and pulls (the other
        # members' rows)
        self.send = row_words[ids] * (cnt - 1)
        self.pull = wsum - row_words[ids]
        self.added = (cnt - 1) - vdeg
        self._live = (ids, self.send, self.pull)  # as the last gather round left them

    def traffic_weights(self, stored: np.ndarray) -> np.ndarray:
        """Per-node packing weight: the worst single-round volume this node
        contributes during the iteration, floored at its stored words so the
        storage ledgers stay balanced too.  Full-length array."""
        w = stored.astype(np.int64, copy=True)
        ids = self.ids
        peak = np.maximum(self.clique_send, self.clique_recv)
        peak = np.maximum(peak, self.send)
        peak = np.maximum(peak, self.pull)
        w[ids] = np.maximum(w[ids], peak)
        return w

    def gather_volumes(self, alive: np.ndarray):
        """``(nodes, send, pull)`` of a gather round: the ``alive`` nodes,
        ascending, with their gather volumes.  Repetitions only remove
        nodes, so each call filters what the last one kept instead of
        scanning all n."""
        nodes, send, pull = self._live
        keep = alive[nodes]
        if not keep.all():
            self._live = nodes, send, pull = nodes[keep], send[keep], pull[keep]
        return nodes, send, pull


def connect_cliques(
    cluster: Cluster,
    radius: int,
    delta_max: int,
    *,
    cache: _BallCache,
) -> dict:
    """Hop-doubling step of an iteration with target radius 2^i >= 2: every
    node shares its current virtual neighbor list with those neighbors, after
    which virtual adjacency covers distance <= 2^i.  The alive nodes and
    their volumes come from the iteration's ball ``cache``.  Virtual words
    land in the storage ledgers; per-node additions are asserted against
    delta_max^(2^i) and totals are returned for the O(n/Delta)-law
    bookkeeping."""
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
    first: np.ndarray | None = None,
    layer: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray | None]:
    """One repetition: each alive node learns its layer-if-at-most-``radius``
    (else "deeper") from its radius-ball and drops out if layered.

    Returns ``(rel, t, removed, next_first)``: the ids ``removed`` that this
    repetition layered, layer by layer (as the peel found them, so no n-wide
    scan looks for them), their layers ``rel`` (1..t, relative to the
    repetition), the number ``t`` of layers it produced, and the first
    layer of the next repetition, or None when the peel did not compute it.

    Radius 1 needs no gathering (degrees are local); it costs one removal
    round.  Radius >= 2 costs one gather round whose volumes come from the
    iteration ball ``cache`` that :func:`mpc_h_partition` builds; it may be
    None only while ``alive`` is empty.  Mutates ``alive``, and ``deg`` (the
    alive degrees carried across repetitions) when given.  ``first`` is the
    last repetition's ``next_first`` and ``layer`` a buffer reused across
    repetitions (both as in :func:`peel_layers`).  Raises StallError exactly
    when the centralized peeling would: a nonempty remainder where nobody
    has degree <= d.
    """
    g = cluster.graph
    label = "partition-gather" if radius >= 2 else "partition-peel"
    if not alive.any():
        # faithful repetitions keep running after the subgraph empties; they
        # are metered as silent rounds without peeling or scanning the n nodes
        none = np.empty(0, np.int64)
        cluster.execute_round_volumes(none, none, none, none, label=label)
        return none, 0, none, none
    if radius >= 2:
        cur, send, pull = cache.gather_volumes(alive)
    layer, t, removed, src, nb, nxt = peel_layers(
        g.indptr, g.indices, alive, d, radius, deg=deg, first=first, layer=layer
    )
    alive[removed] = False
    if radius >= 2:
        cluster.execute_round_volumes(cur, send, cur, pull, label=label)
    else:
        # the one layer's rows, as the peel gathered them: removed nodes
        # strike the edges to their still-alive neighbors
        live = alive[nb]
        cluster.execute_round_bulk(src[live], nb[live], label=label)
    if t < radius and alive.any():
        stuck = int(alive.sum())
        raise StallError(
            f"peeling stalled with {stuck} nodes of remaining degree > {d}"
        )
    return layer[removed], t, removed, nxt


def mpc_h_partition(
    cluster: Cluster,
    d: int,
    schedule: ExponentiationSchedule,
    *,
    alive: np.ndarray | None = None,
    adaptive: bool = False,
    deg: np.ndarray | None = None,
) -> tuple[HPartition, list[tuple[int, int]], np.ndarray, dict]:
    """Build the full layer map of the alive subgraph on the cluster.

    Returns the partition (global layer indices over original node ids; 0
    marks nodes outside the alive mask), the chunks as ``(last_layer,
    radius)`` pairs in removal order (each chunk starts one layer above the
    previous one's last), the removal order (the alive nodes as the
    repetitions removed them: layer by layer, ascending within a layer, so
    the stable by-layer sort of the alive nodes) and a stats dict
    (per-iteration virtual-edge counts, alive counts, repetitions used).
    Round traces accumulate on the cluster.

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
    # the repetitions' own layer buffer, and the next repetition's first
    # layer whenever the last one computed it (see peel_layers)
    rep_layer = np.zeros(g.n, np.int64)
    first = None
    offset = 0
    chunks: list[tuple[int, int]] = []
    order = np.empty(int(work.sum()), np.int64)  # filled as repetitions remove
    filled = 0
    sync = 2 * cluster.agg_depth()
    stats: dict = {
        "alive_start": order.size,
        "fallback": schedule.k is None,
        "k": schedule.k,
        "preprocessing": {"target_layers": schedule.preprocessing_layers, "reps_used": 0},
        "iterations": [],
        "outer_passes": 0,
    }

    def run_rep(radius: int, cache: _BallCache | None) -> None:
        nonlocal offset, first, filled
        rel, t, removed, first = gather_and_peel(
            cluster, radius, d, alive=work, cache=cache, deg=deg, first=first, layer=rep_layer
        )
        if t:  # t == 0 only once `work` is empty: the repetition layers nothing
            layer[removed] = offset + rel
            offset += t
            chunks.append((offset, radius))
            order[filled:filled + removed.size] = removed
            filled += removed.size
        if adaptive:
            cluster.control_rounds(sync, label="partition-sync")

    # repacks hold every member, not just `work`: layered nodes keep their
    # gathered balls until selection; once `work` is empty nothing is repacked
    if schedule.k is None:
        rep = 0
        entry = {"iteration": -1, "radius": 1, "alive_before": int(work.sum()), "reps_used": 0}
        while work.any():
            if rep % 16 == 0:
                rebalance(cluster, members, label="partition-rebalance")
                if not adaptive:
                    cluster.control_rounds(sync, label="partition-sync")
            run_rep(1, None)
            rep += 1
        entry["reps_used"] = rep
        stats["iterations"].append(entry)
        stats["ell"] = offset
        return HPartition(layer=layer, d=d, ell=offset), chunks, order, stats

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
                cache = _BallCache(g, work, radius, deg)
                rebalance(
                    cluster,
                    members,
                    weights=cache.traffic_weights(cluster.node_words()),
                    label="partition-rebalance",
                )
                vstats = connect_cliques(cluster, radius, schedule.delta_max, cache=cache)
                entry.update(vstats)
            elif work.any():
                rebalance(cluster, members, label="partition-rebalance")
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
    return HPartition(layer=layer, d=d, ell=offset), chunks, order, stats


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
        cluster.execute_round_bulk(ids[mk[:, 0]], ids[mk[:, 1]], label="markpropose")
        cluster.execute_round_bulk(ids[pr[:, 1]], ids[pr[:, 0]], label="markpropose")
    else:
        src, nb = gather_segments(sub.indptr, sub.indices, props.marked)
        flow = hp.layer[nb] == hp.layer[src]
        cluster.execute_round_bulk(ids[src[flow]], ids[nb[flow]], label="markpropose")


def mpc_select(
    cluster: Cluster,
    hp: HPartition,
    chunks: list[tuple[int, int]],
    order: np.ndarray,
    sol: PartialSolution,
) -> np.ndarray:
    """Meter the selection ``sol`` (original ids) chunk by chunk, in reverse
    removal order.  ``chunks`` and ``order`` are the ``(last_layer,
    radius)`` pairs and the removal order of :func:`mpc_h_partition`; a
    chunk's members are the nodes of its layers.  Returns the survivors:
    the phase nodes that ``sol`` leaves alive, in removal order.

    Each chunk member re-gathers its retained radius ball with proposal flags
    (one round), winners notify their neighbors (one round), and for the
    independent set the removed neighbors — which may sit in other chunks —
    get one extra round to propagate.  The outcome per chunk matches the
    global highest-layer-first sweep because proposal chains never leave a
    chunk's layer interval going down and the reverse order resolves every
    cross-chunk dependency before it is needed.

    The removal order lists the phase nodes by layer, so a chunk's members
    are a slice of it; the selection is sorted by layer once (stably, on an
    unsigned key just wide enough for ``hp.ell``, which numpy sorts by
    radix), so a chunk's winners are a slice too.  Both are found by one
    binary search over all chunk ends.  All winners' rows are gathered once,
    in that order, so a chunk's rows are a slice too, serving its notify
    round and the felled set.  A chunk's matched edges share no endpoint,
    so their endpoints need no dedupe; the neighbors that an independent
    set's winners fell can repeat and are deduped by a sort.
    """
    g = cluster.graph
    removed = np.zeros(g.n, np.bool_)
    removed[sol.removed] = True
    pending = hp.layer > 0  # phase nodes whose fate is not yet committed
    member_layer = hp.layer[order]
    if sol.kind == "matching":
        sel_layer = hp.layer[sol.selected[:, 1]]
    else:
        sel_layer = hp.layer[sol.selected]
    by_layer = np.argsort(sel_layer.astype(np.min_scalar_type(hp.ell)), kind="stable")
    sel_by_layer, sel_layer = sol.selected[by_layer], sel_layer[by_layer]
    # a chunk's members and winners are slices of these; only a chunk's own
    # step changes its members' words, so they are read once up front
    extra_by_layer = cluster.extra_words[order]
    words_by_layer = cluster.base_words[order] + extra_by_layer
    # only clique steps add extra words, so most phases carry none
    reset = bool(extra_by_layer.any())
    gone_by_layer = removed[order]
    winners_by_layer = sel_by_layer.ravel()
    per_winner = 2 if sol.kind == "matching" else 1  # a matched edge has two
    src_all, nb_all = gather_segments(g.indptr, g.indices, winners_by_layer)
    row_off = np.concatenate(
        (np.zeros(1, np.int64), np.cumsum(g.indptr[winners_by_layer + 1] - g.indptr[winners_by_layer]))
    )
    tops = np.array([hi + 1 for hi, _ in chunks], np.int64)
    member_end = [0, *np.searchsorted(member_layer, tops).tolist()]
    sel_end = [0, *(np.searchsorted(sel_layer, tops) * per_winner).tolist()]

    for i in reversed(range(len(chunks))):
        hi, radius = chunks[i]
        lo = chunks[i - 1][0] + 1 if i else 1
        if hi - lo + 1 > radius:
            raise AssertionError("chunk wider than its hop radius")
        start, stop = member_end[i], member_end[i + 1]
        members = order[start:stop]
        words = words_by_layer[start:stop]
        cluster.execute_round_volumes(members, words, members, words, label="select")
        r0, r1 = row_off[sel_end[i]], row_off[sel_end[i + 1]]
        src, nb = src_all[r0:r1], nb_all[r0:r1]
        live = pending[nb]
        cluster.execute_round_bulk(src[live], nb[live], label="select")
        if sol.kind == "mis":
            # neighbors of winners leave the graph too; they tell their own
            # neighborhoods, which may live in chunks not yet visited
            felled = sorted_unique(nb[live & removed[nb]])
            _notify_round(cluster, g, felled, pending, "select")
        gone = gone_by_layer[start:stop]
        cluster.drop_nodes(members[gone])
        if reset:
            extra = extra_by_layer[start:stop]
            keep = ~gone & (extra != 0)
            if keep.any():
                cluster.add_extra_words(members[keep], -extra[keep])
        pending[members] = False
    return order[~gone_by_layer]


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
        self._order: np.ndarray | None = None  # this phase's removal order
        # the remainder's alive degrees as the last selection left them, then
        # as the matching finish runs, with its nodes that have a live edge
        self._deg: np.ndarray | None = None
        self._busy: np.ndarray | None = None

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
            hp, self._chunks, self._order, stats = mpc_h_partition(
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
        srv = mpc_select(self.cluster, self._hp, self._chunks, self._order, sol)
        self.cluster.set_base_words(srv, deg[srv])
        self._deg = deg

    def finish_round(self, g: Graph, alive: np.ndarray, step: PartialSolution) -> None:
        """One priority round of the finish: ``step.selected`` joined the
        solution and ``step.removed`` leave the ``alive`` nodes.

        In a matching round the nodes with a live edge exchange priorities.
        They are found from the finish's alive degrees, kept current from the
        rows that the removed nodes' notify round gathers, so no round reads
        the edge list.  The finish starts on the remainder of the last phase
        that selected (a stalled phase removes nothing), so the degrees that
        :meth:`select` received are its starting degrees; they are counted
        only when no phase selected.  A meter therefore meters at most one
        finish, after its run's phases."""
        cl = self.cluster
        after = alive.copy()
        after[step.removed] = False
        if step.kind == "matching":  # alive edges exchange priorities
            if self._busy is None:  # the first round; it updates its own copy
                deg = self._deg
                self._deg = alive_degrees(g.indptr, g.indices, alive) if deg is None else deg.copy()
                self._busy = np.flatnonzero(self._deg)
            busy = self._busy
            cl.execute_round_volumes(busy, 1, busy, 1, label="finish")
        else:  # winners notify their neighbors
            _notify_round(cl, g, step.selected, alive, "finish")
        struck = _notify_round(cl, g, step.removed, after, "finish")
        if step.kind == "matching":
            np.subtract.at(self._deg, struck, 1)
            self._busy = busy[after[busy] & (self._deg[busy] > 0)]
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
    cluster = init_cluster(g, cfg, name=name)
    meter = ClusterMeter(cluster, c_pre=c_pre, adaptive=adaptive)
    total, report = solve(
        g, kind, target_delta, seed, exponent=exponent, d_floor=d_floor, meter=meter
    )
    cluster.control_rounds(2 * cluster.agg_depth(), label="collect")
    met = runtime_metrics(cluster)
    met["partition_rounds"] = partition_rounds(met)
    met["phases"] = report.phases
    met["partition_stats"] = meter.partition_stats
    cluster.flush_trace()
    return total, met
