"""Cluster execution of the degree-reduction pipeline.

:func:`mpc_pipeline` drains the record stream of
:func:`sparsempc.reduction.solve_records`, the same loops that
:func:`sparsempc.reduction.solve` drains: the driver computes every
partition, proposal, selection and finish round once, and this module only
charges each record to a simulated cluster.  :func:`mpc_phase` meters a
phase record: the partition, which replays the phase's layer map as the
exponentiation schedule's repetitions (:func:`mpc_h_partition`),
mark/propose (:func:`mpc_mark_propose`) and the chunk-wise selection
(:func:`mpc_select`, after which the survivors' stored rows shrink to their
degree in the phase's remainder).  :func:`mpc_finish_round` meters a finish
round.  The remainder is placed once per stage (see :func:`mpc_pipeline`).

Each record has one id space: its meters run on the record's subgraph (a
phase's alive nodes, or the finish's remainder, renumbered in ascending id
order), with arrays of its size.  The cluster keeps its ledger by original
node id; the record's ascending ``ids`` translate a node only where a
round, a ledger change or a repack names it, and a record of the whole
graph, whose ``ids`` are ``arange(n)``, translates nothing
(:func:`_translator`).

The partition is metered in repetitions that replay the driver's layer
map: a radius-r repetition removes the next min(r, remaining) layers,
because a radius-r ball determines a node's layer up to r.  Hop radii
double once per iteration by connecting 1-hop neighborhoods into cliques
(virtual edges), so one repetition of iteration i clears up to 2^i layers
in O(1) rounds.  Nodes leave in chunks of consecutive layers, recorded as
``(last_layer, radius)`` pairs, in the layer-by-layer order of the map.
The selection walks the chunks in reverse, the order in which the driver's
highest-layer-first sweep commits its winners, so a chunk's members are a
slice of the map's removal order and its winners a slice of the driver's
selection, which lists them in commit order.  Message volumes are computed
from real ball sizes (bounded-radius BFS) and charged against the machine
budgets of :mod:`sparsempc.runtime`.  That the balls do determine the
layers, and that the chunk walk commits what the sweep does, is checked by
the test suite's locality audits, not here.

The pipeline meters one regime: the fixed repetition schedule of an
oblivious coordinator, which checks progress once per iteration.
:func:`mpc_h_partition` alone also takes ``adaptive=True``, which pays an
aggregation-tree sync after every repetition and stops a repetition loop as
soon as the remainder is exhausted; it removes the same layers in the same
chunks, and only the rounds differ.  The acceptance suite's round-count
criterion (criterion 8) fits its scaling grid with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .kernels import alive_degrees, ball_stats, gather_neighbors, gather_segments, sorted_unique
from .peeling import HPartition, StallError
from .reduction import FinishRound, PartialSolution, Phase, ProposalSet, check_request, solve_records
from .runtime import Cluster, ClusterConfig, init_cluster, rebalance
from .runtime import metrics as runtime_metrics

REPS_FIRST = 60
REPS_LATER = 20
C_PRE = 2.0  # preprocessing layers: ceil(C_PRE * log2((1/delta) * log2 log2 n))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentiationSchedule:
    delta_max: int
    k: int | None  # None in fallback mode
    phases: tuple  # ((iteration, radius, repetitions), ...)
    preprocessing_layers: int


def compute_schedule(delta_max: int, S: int, n: int, delta: float) -> ExponentiationSchedule:
    """Pick the deepest hop-doubling level k with delta_max^(2^k + 1) <= S,
    after ceil(:data:`C_PRE` · log2((1/delta) · log2 log2 n)) radius-1
    preprocessing layers.

    When even the first doubling is unaffordable (delta_max^2 > S) the
    schedule is in fallback mode (k is None): layer-by-layer peeling at
    radius 1, no virtual edges and no preprocessing.
    """
    delta_max = int(delta_max)
    loglog = math.log2(max(2.0, math.log2(max(2.0, n))))
    pre = int(math.ceil(C_PRE * math.log2(max(2.0, (1.0 / delta) * loglog))))
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


def _translator(ids: np.ndarray):
    """The map from a record's node ids to the cluster's, given the record's
    ascending cluster ids ``ids``: ``ids[nodes]``, or none at all for a
    record of the whole graph.  Phase 1's subgraph is the graph itself
    (:meth:`sparsempc.graph.GraphView.compact` returns it when every node is
    alive) and its ids are ``arange(n)``; ascending distinct ids are that
    identity exactly when the last one is ``ids.size - 1``."""
    if ids.size and ids[-1] != ids.size - 1:
        return ids.__getitem__
    return lambda nodes: nodes


def _notify_pairs(g: Graph, to_cluster, senders: np.ndarray, mask: np.ndarray):
    """The (sender, target) pairs of a notify round, translated to cluster
    ids by the record's :func:`_translator` ``to_cluster``: distinct
    ``senders`` push one word along each incident edge whose other end is in
    ``mask`` (removed nodes strike the edge at their still-alive neighbors,
    winners notify the not-yet-finished phase nodes).  They are read off the
    senders' rows rather than all nodes; the cluster counts the pairs that
    cross machines, so a word to a neighbor on the sender's machine is
    free."""
    src, tgt = gather_segments(g.indptr, g.indices, senders)
    live = mask[tgt]
    return to_cluster(src[live]), to_cluster(tgt[live])


class _LayerMap:
    """The driver's layer map ``hp`` of the phase subgraph ``sub`` (whose
    nodes have the ascending cluster ids ``ids``), as the repetitions replay
    it.  ``key`` holds each node's layer in the narrowest unsigned dtype,
    the stuck nodes of a stalled peel above every layer, so a repetition
    that starts with layers 1..done removed finds the nodes of ``key >
    done``.  ``ends[L]`` counts the nodes of layers 1..L: they are
    ``hp.order[:ends[L]]``, and the nodes left are a subtraction.
    ``virtual`` holds each node's virtual words, which the clique steps of
    :func:`connect_cliques` store and :func:`mpc_select` gives back; it is
    None until a clique step runs.  ``to_cluster`` is the phase's
    :func:`_translator`."""

    def __init__(self, sub: Graph, ids: np.ndarray, hp: HPartition):
        self.sub, self.ids, self.hp = sub, ids, hp
        self.to_cluster = _translator(ids)
        top = hp.ell + 1
        self.key = key = hp.layer.astype(np.min_scalar_type(top))
        key += (key == 0) * key.dtype.type(top)  # arithmetic rather than a masked store
        # hp.order is sorted by layer, so its keys are too
        layers = np.arange(top, dtype=key.dtype)
        self.ends = np.searchsorted(key[hp.order], layers, side="right")
        self.virtual: np.ndarray | None = None
        self._pairs = None

    def live(self, done: int) -> int:
        """The phase nodes left once layers 1..``done`` are removed."""
        return self.sub.n - int(self.ends[done])

    def pairs(self, layer: int):
        """The (sender, target) cluster ids of the radius-1 round that
        removes ``layer``: every edge from it to a higher layer or a stuck
        node, once.  The first call groups all such edges by their lower
        layer, in one pass over ``sub.edges`` and one stable sort of the
        narrow lower-layer key, which numpy sorts by radix."""
        if self._pairs is None:
            key, top = self.key, self.hp.ell + 1
            e = self.sub.edges
            ku, kv = key[e[:, 0]], key[e[:, 1]]
            low = np.minimum(ku, kv)
            # a same-layer edge sends nothing: its key goes past every layer
            # (arithmetic, which is branch-free, rather than a masked store)
            low += (ku == kv) * (top - low)
            by = np.argsort(low, kind="stable")
            ends = np.searchsorted(low[by], np.arange(top, dtype=low.dtype), side="right")
            by = by[: ends[-1]]
            # entry 2j + 1 of the flat edge list is edge j's second end:
            # the lower end's entry is 2j + flip, the higher end's the other
            flip = ku > kv
            at = 2 * by
            at += flip[by]
            src = self.to_cluster(e.ravel()[at])
            at ^= 1
            dst = self.to_cluster(e.ravel()[at])
            self._pairs = src, dst, ends
        src, dst, ends = self._pairs
        lo, hi = ends[layer - 1], ends[layer]
        return src[lo:hi], dst[lo:hi]


class _BallCache:
    """Iteration-start ball statistics, computed once and reused by every
    round of the iteration: clique-step volumes at the half radius, gather
    volumes and virtual additions at the full radius.  Balls only shrink as
    repetitions remove nodes, so these stay valid upper bounds for the budget
    ledger.  Also feeds the iteration-boundary rebalance: nodes are packed
    by their predicted traffic (each node knows its outgoing volume locally
    and learns the incoming one from a sizes-first handshake).

    The balls are scanned in the phase subgraph ``g``, whose nodes have the
    ascending cluster ids ``ids``, over its alive nodes: those of ``key >
    done`` (see :class:`_LayerMap`).  ``nodes`` lists them and ``self.ids``
    their cluster ids, and every volume is aligned with both."""

    def __init__(self, g: Graph, ids: np.ndarray, key: np.ndarray, done: int, radius: int):
        alive = key > done
        self.key = key
        self.nodes = nodes = np.flatnonzero(alive)
        self.ids = ids[nodes]
        deg = alive_degrees(g.indptr, g.indices, alive)
        row_words = 1 + deg  # node id + adjacency entries
        vdeg = deg[nodes]
        half = radius // 2
        if half == 1:
            # a radius-1 ball is the node and its alive row: the virtual
            # degree is the alive degree, and the words received are the
            # alive neighbors' degrees (0 for a dead one)
            nb = gather_neighbors(g.indptr, g.indices, nodes)
            cs = np.concatenate((np.zeros(1, np.int64), np.cumsum(deg[nb])))
            lengths = g.indptr[nodes + 1] - g.indptr[nodes]
            ends = np.cumsum(lengths)
            self.clique_send = vdeg ** 2
            self.clique_recv = cs[ends] - cs[ends - lengths]
        else:
            ones = np.ones(g.n, np.int64)
            cnt_half, _ = ball_stats(g.indptr, g.indices, alive, nodes, half, ones)
            vdeg_half = np.zeros(g.n, np.int64)
            vdeg_half[nodes] = cnt_half - 1
            _, recv_half = ball_stats(g.indptr, g.indices, alive, nodes, half, vdeg_half)
            self.clique_send = vdeg_half[nodes] ** 2
            self.clique_recv = recv_half - vdeg_half[nodes]
        cnt, wsum = ball_stats(g.indptr, g.indices, alive, nodes, radius, row_words)
        # per alive node, aligned with nodes: the words it sends in a gather
        # round (its row to every other ball member) and pulls (the other
        # members' rows)
        self.send = row_words[nodes] * (cnt - 1)
        self.pull = wsum - row_words[nodes]
        self.added = (cnt - 1) - vdeg
        self._live = (nodes, self.ids, self.send, self.pull)  # as the last gather round left them

    def traffic_weights(self, stored: np.ndarray) -> np.ndarray:
        """Per-node packing weight: the worst single-round volume this node
        contributes during the iteration, floored at its stored words so the
        storage ledger stays balanced too.  ``stored`` and the result have
        one entry per phase node, as the repack of the phase's ids takes
        them."""
        w = stored.astype(np.int64, copy=True)
        nodes = self.nodes
        peak = np.maximum(self.clique_send, self.clique_recv)
        peak = np.maximum(peak, self.send)
        peak = np.maximum(peak, self.pull)
        w[nodes] = np.maximum(w[nodes], peak)
        return w

    def gather_volumes(self, done: int):
        """``(ids, send, pull)`` of a gather round once layers 1..``done``
        are removed: the cluster ids of the nodes left, ascending, with
        their gather volumes.  Repetitions only remove nodes, so each call
        filters what the last one kept instead of scanning every node."""
        nodes, ids, send, pull = self._live
        keep = self.key[nodes] > done
        if not keep.all():
            self._live = nodes, ids, send, pull = nodes[keep], ids[keep], send[keep], pull[keep]
        return ids, send, pull


def connect_cliques(
    cluster: Cluster,
    layers: _LayerMap,
    radius: int,
    delta_max: int,
    *,
    cache: _BallCache,
) -> dict:
    """Hop-doubling step of an iteration with target radius 2^i >= 2: every
    node shares its current virtual neighbor list with those neighbors, after
    which virtual adjacency covers distance <= 2^i.  The alive nodes and
    their volumes come from the iteration's ball ``cache``.  A node's
    virtual words, which replace those of the phase's last clique step, are
    kept in ``layers.virtual`` and stored on its machine; per-node additions
    are asserted against delta_max^(2^i) and totals are returned for the
    O(n/Delta)-law bookkeeping."""
    nodes, ids, added = cache.nodes, cache.ids, cache.added
    bound = delta_max ** radius
    worst = int(added.max()) if added.size else 0
    if worst > bound:
        raise AssertionError(
            f"virtual additions {worst} exceed {delta_max}^{radius} = {bound}"
        )
    if layers.virtual is None:
        layers.virtual = np.zeros(layers.sub.n, np.int64)
    cluster.set_words(ids, cluster.words[ids] - layers.virtual[nodes] + added)
    layers.virtual[nodes] = added
    cluster.execute_round_volumes(ids, cache.clique_send, cache.clique_recv, label="partition-clique")
    return {
        "virtual_added_total": int(added.sum()),
        "virtual_added_max": worst,
        "virtual_bound_per_node": int(bound),
        "alive": int(ids.size),
    }


def gather_and_peel(
    cluster: Cluster,
    layers: _LayerMap,
    done: int,
    radius: int,
    *,
    cache: _BallCache | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Meter one repetition of hop radius ``radius`` that starts with layers
    1..``done`` of the phase's layer map ``layers`` removed: each node left
    learns from its radius ball whether its layer is at most ``done +
    radius``, and which one, and the layered nodes drop out.  The layers are
    the driver's; this meters the round that gathers them.

    Returns ``(rel, t, removed)``: the ``t`` layers removed, min(radius,
    layers left), their nodes ``removed`` (in the phase subgraph's ids,
    layer by layer) and the nodes' layers ``rel`` relative to the
    repetition (1..t).

    Radius 1 needs no gathering (degrees are local); it costs one removal
    round, in which every removed node strikes its edges to the nodes left.
    Radius >= 2 costs one gather round whose volumes come from the iteration
    ball ``cache`` that :func:`mpc_h_partition` builds; it may be None only
    while the phase is empty.  A repetition on an empty phase is a silent
    round.  Raises StallError where the peel stalled: the repetition removes
    fewer than ``radius`` layers and nodes are left.
    """
    label = "partition-gather" if radius >= 2 else "partition-peel"
    none = np.empty(0, np.int64)
    live = layers.live(done)
    if not live:
        # faithful repetitions keep running after the phase empties; they
        # are metered as silent rounds
        cluster.execute_round_volumes(none, none, label=label)
        return none, 0, none
    hp = layers.hp
    t = min(radius, hp.ell - done)
    if radius >= 2:
        cur, send, pull = cache.gather_volumes(done)
        cluster.execute_round_volumes(cur, send, pull, label=label)
    else:
        src, dst = layers.pairs(done + 1) if t else (none, none)
        cluster.execute_round_bulk(src, dst, label=label)
    ends = layers.ends[done:done + t + 1]
    left = live - int(ends[-1] - ends[0])
    if t < radius and left:
        raise StallError(
            f"peeling stalled with {left} nodes of remaining degree > {hp.d}", hp
        )
    rel = np.repeat(np.arange(1, t + 1, dtype=np.int64), np.diff(ends))
    return rel, t, hp.order[ends[0]:ends[-1]]


def mpc_h_partition(
    cluster: Cluster,
    layers: _LayerMap,
    schedule: ExponentiationSchedule,
    *,
    adaptive: bool = False,
) -> tuple[list[tuple[int, int]], dict]:
    """Meter the construction of the layer map ``layers.hp`` of the phase
    subgraph ``layers.sub`` on the cluster, repetition by repetition, as
    ``schedule`` runs them.  ``hp`` is the driver's
    :func:`sparsempc.peeling.h_partition` of ``sub``, or on a stall the
    layers it peeled first (the stall is metered and raised where the
    repetitions reach it).

    ``layers.ids`` lists the cluster ids of ``sub``'s nodes, ascending, as
    :meth:`sparsempc.graph.GraphView.compact` returns them; a whole-graph
    caller passes ``_LayerMap(g, arange(n), h_partition(g, d))``.

    Returns the chunks as ``(last_layer, radius)`` pairs in removal order
    (each chunk starts one layer above the previous one's last, and a
    radius-r repetition removes the next min(r, remaining) layers) and a
    stats dict (per-iteration virtual-edge counts, alive counts,
    repetitions used).  The nodes leave in the order ``hp.order``.  Round
    traces accumulate on the cluster.

    ``adaptive=True`` meters the other regime of the module docstring, a
    sync after every repetition and no repetition once the phase is empty;
    :func:`mpc_phase` never sets it.
    """
    sub, ids = layers.sub, layers.ids
    done = 0  # layers removed
    chunks: list[tuple[int, int]] = []
    sync = 2 * cluster.agg_depth()
    stats: dict = {
        "alive_start": sub.n,
        "fallback": schedule.k is None,
        "k": schedule.k,
        "preprocessing": {"target_layers": schedule.preprocessing_layers, "reps_used": 0},
        "iterations": [],
        "outer_passes": 0,
    }

    def run_rep(radius: int, cache: _BallCache | None) -> None:
        nonlocal done
        _, t, _ = gather_and_peel(cluster, layers, done, radius, cache=cache)
        if t:  # t == 0 only once the phase is empty: the repetition layers nothing
            done += t
            chunks.append((done, radius))
        if adaptive:
            cluster.control_rounds(sync, label="partition-sync")

    # repacks hold every phase node, not just the nodes left: layered nodes
    # keep their gathered balls until selection; once none is left nothing
    # is repacked
    if schedule.k is None:
        rep = 0
        entry = {"iteration": -1, "radius": 1, "alive_before": sub.n, "reps_used": 0}
        while layers.live(done):
            if rep % 16 == 0:
                rebalance(cluster, ids, label="partition-rebalance")
                if not adaptive:
                    cluster.control_rounds(sync, label="partition-sync")
            run_rep(1, None)
            rep += 1
        entry["reps_used"] = rep
        stats["iterations"].append(entry)
        stats["ell"] = done
        return chunks, stats

    # pre-processing: strip the lowest layers one by one to free memory
    for rep in range(schedule.preprocessing_layers):
        if adaptive and not layers.live(done):
            break
        run_rep(1, None)
        stats["preprocessing"]["reps_used"] = rep + 1
    stats["preprocessing"]["layers_removed"] = done

    while layers.live(done):
        stats["outer_passes"] += 1
        for iteration, radius, reps in schedule.phases:
            live = layers.live(done)
            if adaptive and not live:
                break
            entry = {
                "iteration": iteration,
                "radius": radius,
                "alive_before": live,
                "reps_used": 0,
            }
            cache = None
            if radius >= 2 and live:
                # pack machines by the traffic this iteration will move, not
                # by stored words: clique and gather volumes grow with the
                # squared virtual degree and would pile up on machines that
                # happen to hold many nodes
                cache = _BallCache(sub, ids, layers.key, done, radius)
                rebalance(
                    cluster,
                    ids,
                    weights=cache.traffic_weights(cluster.words[ids]),
                    label="partition-rebalance",
                )
                vstats = connect_cliques(cluster, layers, radius, schedule.delta_max, cache=cache)
                entry.update(vstats)
            elif live:
                rebalance(cluster, ids, label="partition-rebalance")
            for rep in range(reps):
                if adaptive and not layers.live(done):
                    break
                run_rep(radius, cache)
                entry["reps_used"] = rep + 1
            if not adaptive:
                cluster.control_rounds(sync, label="partition-sync")
            stats["iterations"].append(entry)

    stats["ell"] = done
    return chunks, stats


# ---------------------------------------------------------------------------
# stage meters
# ---------------------------------------------------------------------------


def mpc_mark_propose(cluster: Cluster, sub: Graph, ids: np.ndarray, props: ProposalSet) -> None:
    """Meter marking and proposing over the whole phase subgraph ``sub``
    (compacted ids; ``ids`` maps them back), before any chunk is visited.
    Costs one layer-exchange round plus, for matching, a marked-edge round
    and a proposal round; for the independent set the marks of same-layer
    neighbors are the only exchange, one word from each marked node to each
    same-layer neighbor.  Those pairs are the same-layer entries of the
    marked rows, which :func:`sparsempc.reduction.mark_and_propose_mis`
    gathered and hands over as ``props.marked_rows``, so nothing is gathered
    here."""
    deg, to = sub.degrees, _translator(ids)
    cluster.execute_round_volumes(ids, deg, label="markpropose")
    if props.kind == "matching":
        mk, pr = props.marked, props.proposed
        cluster.execute_round_bulk(to(mk[:, 0]), to(mk[:, 1]), label="markpropose")
        cluster.execute_round_bulk(to(pr[:, 1]), to(pr[:, 0]), label="markpropose")
    else:
        src, nb, same = props.marked_rows
        cluster.execute_round_bulk(to(src[same]), to(nb[same]), label="markpropose")


def mpc_select(
    cluster: Cluster,
    layers: _LayerMap,
    chunks: list[tuple[int, int]],
    sol: PartialSolution,
) -> None:
    """Meter the selection ``sol`` chunk by chunk, in reverse removal order.
    ``sol`` is the selection computed on the phase subgraph ``layers.sub``
    with its partition ``layers.hp``, and ``chunks`` the chunks
    :func:`mpc_h_partition` metered that partition in; a chunk's members
    are the nodes of its layers.  The removed members drop their rows, the
    others their virtual words.  Both are slices: one ``flatnonzero`` per
    phase lists the removed members' positions in the removal order, and
    the kept ones' that hold virtual words (only in a phase with clique
    steps), and a chunk's are the run between its member bounds.

    Each chunk member re-gathers its retained radius ball with proposal flags
    (one round), winners notify their neighbors (one round), and for the
    independent set the removed neighbors — which may sit in other chunks —
    get one extra round to propagate.  The outcome per chunk matches the
    global highest-layer-first sweep because proposal chains never leave a
    chunk's layer interval going down and the reverse order resolves every
    cross-chunk dependency before it is needed.

    The walk reads the driver's results, it sorts nothing: a chunk's members
    are the slice of the removal order ``hp.order`` between the layer map's
    prefix counts ``layers.ends`` at the chunk's bounds, and since ``sol``
    lists its winners in commit order, highest layer first, a chunk's
    winners are a contiguous run of them, found by one binary search over
    the winners' layers.  The winners' rows, in that order, are read once
    for the whole walk, so a chunk's rows are a slice too, serving its
    notify round and the felled set.  An independent set's selection
    brings them (``sol.rows``, as :func:`sparsempc.reduction.select_mis`
    gathered them), and their sources are the winners repeated by degree;
    matched edges are gathered here, since the matching sweep reads no
    rows.  A chunk's matched edges share no endpoint, so their endpoints
    need no dedupe; the neighbors that an independent set's winners fell
    can repeat and are deduped by a sort.
    """
    sub, hp, to = layers.sub, layers.hp, layers.to_cluster
    removed = np.zeros(sub.n, np.bool_)
    removed[sol.removed] = True
    pending = np.ones(sub.n, np.bool_)  # phase nodes whose fate is not yet committed
    order = hp.order
    # a chunk's members are slices of these; only a chunk's own step changes
    # its members' words, so they are read once up front.  The members'
    # cluster ids are translated again per chunk: kept for the whole walk,
    # they raised the benchmark's peak RSS on tree-phases by 2 to 6 MiB
    # (heap layout; the benchmark process keeps freed memory)
    words_by_layer = cluster.words[to(order)]
    winners = sol.selected.ravel()
    lengths = sub.indptr[winners + 1] - sub.indptr[winners]
    if sol.kind == "matching":
        src_all, nb_all = gather_segments(sub.indptr, sub.indices, winners)
    else:
        src_all = np.repeat(winners, lengths)
        nb_all = np.concatenate([np.empty(0, np.int64), *sol.rows])
    row_off = np.concatenate((np.zeros(1, np.int64), np.cumsum(lengths)))
    # bounds[i] is the layer below chunk i; the winners above a layer are a
    # prefix of the selection, whose layer ranks (0 for the top) ascend
    bounds = [0, *(hi for hi, _ in chunks)]
    per_winner = 2 if sol.kind == "matching" else 1  # a matched edge has two
    rank = hp.ell - hp.layer[sol.selected[:, 1] if per_winner == 2 else sol.selected]
    above = (np.searchsorted(rank, hp.ell - np.array(bounds)) * per_winner).tolist()
    member_end = layers.ends[bounds].tolist()
    gone = removed[order]
    gone_at = np.flatnonzero(gone)
    gone_end = np.searchsorted(gone_at, member_end).tolist()
    if layers.virtual is not None:  # only clique steps add virtual words
        virtual = layers.virtual[order]
        back_at = np.flatnonzero(virtual * ~gone)
        back_end = np.searchsorted(back_at, member_end).tolist()

    for i in reversed(range(len(chunks))):
        hi, radius = chunks[i]
        if hi - bounds[i] > radius:
            raise AssertionError("chunk wider than its hop radius")
        start, stop = member_end[i], member_end[i + 1]
        cluster.execute_round_volumes(to(order[start:stop]), words_by_layer[start:stop], label="select")
        r0, r1 = row_off[above[i + 1]], row_off[above[i]]
        src, nb = src_all[r0:r1], nb_all[r0:r1]
        live = pending[nb]
        cluster.execute_round_bulk(to(src[live]), to(nb[live]), label="select")
        if sol.kind == "mis":
            # neighbors of winners leave the graph too; they tell their own
            # neighborhoods, which may live in chunks not yet visited.  Every
            # neighbor of a winner is removed (select_mis removes them all),
            # so the live ones are the felled ones
            felled = sorted_unique(nb[live])
            cluster.execute_round_bulk(*_notify_pairs(sub, to, felled, pending), label="select")
        # the removed members drop their rows, the others their virtual words
        cluster.set_words(to(order[gone_at[gone_end[i]:gone_end[i + 1]]]), 0)
        if layers.virtual is not None:
            at = back_at[back_end[i]:back_end[i + 1]]
            if at.size:
                cluster.set_words(to(order[at]), words_by_layer[at] - virtual[at])
        pending[order[start:stop]] = False


# ---------------------------------------------------------------------------
# record meters and the full pipeline
# ---------------------------------------------------------------------------


def mpc_phase(cluster: Cluster, ph: Phase) -> dict:
    """Meter the phase record ``ph`` on the cluster, whose remainder is
    placed: the partition replay, mark/propose and the selection, after
    which the survivors' rows shrink to their degree in ``ph.rest``.  Returns
    the partition stats.  A stalled record is metered up to the stall; a
    replay that disagrees with the record about the stall raises
    AssertionError."""
    sub, ids = ph.sub, ph.ids
    schedule = compute_schedule(sub.max_degree(), cluster.cfg.S, cluster.graph.n, cluster.cfg.delta)
    layers = _LayerMap(sub, ids, ph.hp)
    try:
        chunks, stats = mpc_h_partition(cluster, layers, schedule)
    except StallError as exc:
        if ph.sol is not None:
            raise AssertionError("the partition replay stalled where the driver did not") from exc
        return {"alive_start": sub.n, "fallback": schedule.k is None, "k": schedule.k, "stalled": True}
    if ph.sol is None:
        raise AssertionError("the partition replay of a stalled phase did not stall")
    mpc_mark_propose(cluster, sub, ids, ph.props)
    mpc_select(cluster, layers, chunks, ph.sol)
    cluster.set_words(ph.rest_ids, ph.rest.degrees)
    return stats


def mpc_finish_round(cluster: Cluster, rnd: FinishRound) -> None:
    """Meter one priority round of the finish, which runs on the remainder
    subgraph ``rnd.sub``; ``rnd.ids`` translates its nodes to the cluster's
    ids.  In a matching round the endpoints of the live edges exchange
    priorities; in an independent-set round the winners notify their
    neighbors.  Then the removed nodes strike their edges at the nodes left
    and drop their rows."""
    sub, alive, step, to = rnd.sub, rnd.alive, rnd.step, _translator(rnd.ids)
    after = alive.copy()
    after[step.removed] = False
    if step.kind == "matching":
        busy = np.zeros(sub.n, np.bool_)
        busy[rnd.live] = True
        cluster.execute_round_volumes(to(np.flatnonzero(busy)), 1, label="finish")
    else:
        cluster.execute_round_bulk(*_notify_pairs(sub, to, step.selected, alive), label="finish")
    cluster.execute_round_bulk(*_notify_pairs(sub, to, step.removed, after), label="finish")
    cluster.set_words(to(step.removed), 0)
    cluster.control_rounds(2 * cluster.agg_depth(), label="finish-sync")


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
    d_floor: int | None = None,
    name: str = "pipeline",
) -> tuple[PartialSolution, dict]:
    """:func:`sparsempc.reduction.solve` on a cluster: degree-reduction
    phases, then the priority finish, all metered, then the collect rounds.

    The solution is the one ``solve`` returns for the same arguments; the
    metrics carry rounds by label, peak words, violations, per-phase reports,
    why the reduction ended (``stop_reason``) and partition stats.  The
    arguments are checked before any node is placed.  The request is the
    one ``solve`` takes, so the peeling threshold comes from
    :data:`sparsempc.reduction.EXPONENT` and ``d_floor``; the cluster's
    size, from ``cfg``; and each phase's schedule, from
    :func:`compute_schedule` with its constant :data:`C_PRE`.

    Each record of :func:`sparsempc.reduction.solve_records` is metered,
    then released before the next is computed.  :func:`init_cluster` places
    the first stage's remainder, and a later stage (a phase, or the finish)
    opens with one repack of its remainder when a selection has been
    metered since the last placement; a stall selects nothing.
    """
    check_request(kind, target_delta, d_floor)
    cluster = init_cluster(g, cfg, name=name)
    records = solve_records(g, kind, target_delta, seed, d_floor=d_floor)
    partition_stats = []
    placed = True  # no selection was metered since the last placement
    while True:
        try:
            rec = next(records)
        except StopIteration as end:
            total, report = end.value
            break
        if not placed:
            rebalance(cluster, rec.ids, label="rebalance")
        if isinstance(rec, Phase):
            partition_stats.append(mpc_phase(cluster, rec))
            placed = rec.sol is None
        else:
            mpc_finish_round(cluster, rec)
            placed = True
        del rec
    cluster.control_rounds(2 * cluster.agg_depth(), label="collect")
    met = runtime_metrics(cluster)
    met["partition_rounds"] = partition_rounds(met)
    met["phases"] = report.phases
    met["stop_reason"] = report.stop_reason
    met["partition_stats"] = partition_stats
    cluster.flush_trace()
    return total, met
