"""Degree-reduction pipeline: mark-and-propose, layered selection, iterated
degree reduction, greedy finish, and maximality checking.

The phase driver is two loops written as generators of records:
:func:`phase_records` yields one :class:`Phase` per reduction phase (its
subgraph, partition, proposals, selection and remainder degrees), and
:func:`finish_rounds` one :class:`FinishRound` per priority round of the
finish.  :func:`degree_reduce`, :func:`finish_greedy` and :func:`solve`
drain them; :func:`sparsempc.mpc.mpc_pipeline` drains the same records and
meters each one on the simulated cluster, so both executions share one
computation.  Nothing here knows of the cluster.

Randomness discipline: every coin is drawn from the counter streams in
:mod:`sparsempc.rng` keyed by node ids of the *phase subgraph* (alive nodes
renumbered in ascending id order).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .graph import Graph, GraphView
from .kernels import gather_segments, sorted_unique
from .peeling import HPartition, StallError, h_partition

KINDS = ("matching", "mis")
MAX_PHASES = 64  # degree_reduce runs at most this many phases
# why degree_reduce ended, as ReductionReport.stop_reason names it
STOP_REASONS = ("target", "one-layer", "stalled", "not-reduced", "max-phases")


class InvariantError(ValueError):
    """A ProposalSet or PartialSolution violates its declared invariants."""


def _check_kind(kind) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")


def check_request(kind, target_delta) -> None:
    """Reject a kind or target degree that no run accepts, before any work."""
    _check_kind(kind)
    if target_delta < 1:
        raise ValueError("target_delta must be >= 1")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProposalSet:
    kind: str  # "matching" | "mis"
    # matching: (k, 2) arrays of (child, parent) edges, child -> parent oriented.
    # mis: (k,) node arrays.  Always sorted for cross-execution determinism.
    marked: np.ndarray
    proposed: np.ndarray


@dataclass
class PartialSolution:
    """A selection and the nodes it takes out of the graph.  A phase's
    selection lists its matched edges or nodes in commit order (see
    :func:`select_matching`) until :meth:`merge` sorts the run's solution."""

    kind: str
    selected: np.ndarray  # matching: (k, 2) edges; mis: (k,) nodes
    removed: np.ndarray  # node ids taken out of the graph by this solution

    @classmethod
    def empty(cls, kind: str) -> "PartialSolution":
        sel = np.empty((0, 2), np.int64) if kind == "matching" else np.empty(0, np.int64)
        return cls(kind=kind, selected=sel, removed=np.empty(0, np.int64))

    def merge(self, *others: "PartialSolution") -> "PartialSolution":
        """This solution and ``others`` as one: the selections concatenated
        and sorted (matched edges by ``(u, v)``), the removed ids deduped.

        A loop that collects its steps merges them once, so the accumulated
        solution is sorted once, not once per step.  A finish step holds
        ascending arrays and a phase's independent set, in commit order,
        one ascending run per layer, so the sorts are stable ones, which
        merge the ascending runs they find; an edge sorts by its int64 key
        ``u * (k + 1) + v`` for the largest id ``k``, which fits for every
        node count a :class:`Graph` allows."""
        parts = (self, *others)
        if any(p.kind != self.kind for p in others):
            raise ValueError("cannot merge solutions of different kinds")
        sel = np.concatenate([p.selected for p in parts])
        if self.kind == "matching":
            key = sel[:, 0] * (int(sel.max(initial=0)) + 1) + sel[:, 1]
            sel = sel[np.argsort(key, kind="stable")]
        else:
            sel = np.sort(sel, kind="stable")
        removed = sorted_unique(np.concatenate([p.removed for p in parts]), kind="stable")
        return PartialSolution(kind=self.kind, selected=sel, removed=removed)


@dataclass
class ReductionReport:
    phases: list[dict] = field(default_factory=list)
    stop_reason: str | None = None  # one of STOP_REASONS once degree_reduce ends

    def spec_rows(self) -> list[dict]:
        keys = ("delta_before", "d_used", "heavy_nodes_before", "heavy_survivors_after", "delta_after")
        return [{k: ph[k] for k in keys if k in ph} for ph in self.phases]


def solution_to_json(sol: PartialSolution, seed: int) -> str:
    """Canonical JSON for diffing/digesting: fixed key order, sorted entries."""
    if sol.kind == "matching":
        selected = [[int(u), int(v)] for u, v in np.sort(sol.selected, axis=1)]
        selected.sort()
    else:
        selected = sorted(int(v) for v in sol.selected)
    doc = {
        "kind": sol.kind,
        "selected": selected,
        "seed": int(seed),
        # always empty, but every solution digest (pinned fingerprints and
        # golden cases among them) hashes this key, so it stays
        "phases": [],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def solution_digest(sol: PartialSolution, seed: int) -> str:
    return hashlib.sha256(solution_to_json(sol, seed).encode()).hexdigest()


# ---------------------------------------------------------------------------
# mark-and-propose
# ---------------------------------------------------------------------------


def mark_and_propose_matching(g: Graph, hp: HPartition, seed: int) -> ProposalSet:
    """Each node marks one uniformly-random outgoing (child -> parent) edge;
    each node then proposes one uniformly-random marked incoming edge.

    Unoriented (same-layer) edges are never candidates, so top-layer nodes and
    nodes with only same-layer neighbors mark nothing; nodes without marked
    incoming edges propose nothing.

    A row's outgoing slots are a run of the ascending list of all outgoing
    slots, so a node's mark is its run's first slot plus its draw.  Only the
    nodes with an outgoing edge, and then the parents with a marked edge,
    draw; a draw is keyed by node id, so leaving the others out changes no
    draw.  The marks come out in child order, so one stable sort of their
    parents (in the narrowest unsigned dtype, which numpy sorts by radix up
    to 16 bits) groups them by parent in child order.
    """
    lay = hp.layer.astype(np.min_scalar_type(hp.ell))
    out_slots = np.flatnonzero(lay[g.indices] > np.repeat(lay, g.degrees))
    first = np.searchsorted(out_slots, g.indptr)  # outgoing slots before each row
    outdeg = first[1:] - first[:-1]
    kids = np.flatnonzero(outdeg)
    pick = rng.pick_index(seed, rng.MARK_EDGE, 0, kids, outdeg[kids])
    parent = g.indices[out_slots[first[kids] + pick]]
    marked = np.stack([kids, parent], axis=1)  # sorted by child id

    # group marked edges by parent; pick one per parent in child-id order
    order = np.argsort(parent.astype(np.min_scalar_type(max(g.n - 1, 0))), kind="stable")
    by_parent = parent[order]
    starts = np.flatnonzero(np.diff(by_parent, prepend=-1))
    counts = np.diff(starts, append=by_parent.size)
    pick_in = rng.pick_index(seed, rng.PROPOSE_EDGE, 0, by_parent[starts], counts)
    # one edge per parent, parents ascending: in (parent, child) order
    proposed = marked[order[starts + pick_in]]
    return ProposalSet(kind="matching", marked=marked, proposed=proposed)


def mark_and_propose_mis(g: Graph, hp: HPartition, p: float, seed: int) -> ProposalSet:
    """Mark each node with probability p; propose marked nodes whose same-layer
    neighbors are all unmarked.

    Only a marked node can propose, so only the marked rows are read for
    blocking neighbors: with p = 1/d² that is a small share of the rows."""
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")
    lay = hp.layer
    marked = rng.uniform(seed, rng.MARK_NODE, 0, np.arange(g.n)) < p
    rows = np.flatnonzero(marked)
    src, nb = gather_segments(g.indptr, g.indices, rows)
    blocked = np.zeros(g.n, np.bool_)
    blocked[src[marked[nb] & (lay[nb] == lay[src])]] = True
    return ProposalSet(kind="mis", marked=rows, proposed=rows[~blocked[rows]])


# ---------------------------------------------------------------------------
# selection sweeps (deterministic, highest layer first)
# ---------------------------------------------------------------------------


def _check_matching_proposals(g: Graph, hp: HPartition, props: ProposalSet) -> None:
    """Raise InvariantError unless every node marks at most one outgoing and
    proposes at most one incoming edge, marks point child -> parent, and
    every proposal is a marked edge.  Distinctness is checked by a sort,
    membership by a binary search in the sorted keys of the marked edges."""
    if props.kind != "matching":
        raise InvariantError(f"expected matching proposals, got {props.kind}")
    mk, pr = props.marked, props.proposed
    if mk.shape[0] != sorted_unique(mk[:, 0]).size:
        raise InvariantError("a node marked more than one outgoing edge")
    if pr.shape[0] != sorted_unique(pr[:, 1]).size:
        raise InvariantError("a node proposed more than one incoming edge")
    if (hp.layer[mk[:, 0]] >= hp.layer[mk[:, 1]]).any():
        raise InvariantError("marked edge not oriented child -> parent")
    mk_keys = np.sort(_edge_keys(mk, g.n))
    pr_keys = _edge_keys(pr, g.n)
    pos = np.searchsorted(mk_keys, pr_keys)
    found = pos < mk_keys.size
    found[found] = mk_keys[pos[found]] == pr_keys[found]
    if not found.all():
        raise InvariantError("proposed edge was never marked")


def select_matching(g: Graph, hp: HPartition, props: ProposalSet) -> PartialSolution:
    """Sweep layers ell..1; commit proposed edges whose receiving parent sits in
    the current layer and whose endpoints are both still alive.

    All commits of one layer are simultaneous: within a layer, receiving
    endpoints are distinct (one proposal per node) and senders are distinct
    (one mark per node) and sender != receiver (senders sit strictly lower).

    The proposals are sorted once by receiving layer, highest first (stably,
    on an unsigned key just wide enough for the layer spread, which numpy
    sorts by radix), and the sweep walks the runs of equal layer, so it
    costs the proposals plus one step per receiving layer, not ell passes
    over every proposal.  The matched ``(child, parent)`` edges come out in
    the order the sweep commits them: receiving layer highest first, then
    the proposals' own order.
    """
    _check_matching_proposals(g, hp, props)
    pr = props.proposed
    if not pr.shape[0]:
        return PartialSolution.empty("matching")
    recv_layer = hp.layer[pr[:, 1]]
    depth = int(recv_layer.max()) - recv_layer  # 0 for the highest receiving layer
    order = np.argsort(depth.astype(np.min_scalar_type(int(depth.max()))), kind="stable")
    child, parent, depth = pr[:, 0][order], pr[:, 1][order], depth[order]
    bounds = [0, *(np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist(), depth.size]
    alive = np.ones(g.n, dtype=np.bool_)
    commit = np.empty(depth.size, np.bool_)
    for s, e in zip(bounds[:-1], bounds[1:]):
        c, p = child[s:e], parent[s:e]
        ok = alive[c] & alive[p]
        commit[s:e] = ok
        alive[c[ok]] = False
        alive[p[ok]] = False
    return PartialSolution(kind="matching", selected=pr[order[commit]], removed=np.flatnonzero(~alive))


def _check_mis_proposals(g: Graph, hp: HPartition, props: ProposalSet) -> None:
    if props.kind != "mis":
        raise InvariantError(f"expected mis proposals, got {props.kind}")
    if not np.isin(props.proposed, props.marked).all():
        raise InvariantError("proposed node was never marked")
    if props.proposed.size:
        is_marked = np.zeros(g.n, np.bool_)
        is_marked[props.marked] = True
        src, nb = gather_segments(g.indptr, g.indices, props.proposed)
        bad = is_marked[nb] & (hp.layer[nb] == hp.layer[src])
        if bad.any():
            raise InvariantError("proposed node has a marked same-layer neighbor")


def select_mis(g: Graph, hp: HPartition, props: ProposalSet) -> PartialSolution:
    """Sweep layers ell..1; commit alive proposed nodes of the current layer and
    remove them together with their neighbors.

    All commits of one layer are simultaneous: proposed nodes of one layer
    are never adjacent.  As in :func:`select_matching`, the proposals are
    sorted once by layer, highest first, stably on the narrowest unsigned
    key, and the sweep walks the runs of equal layer, so it costs the
    proposals plus one step per proposing layer.  The nodes come out in the
    order the sweep commits them: proposing layer highest first, then the
    proposals' own order."""
    _check_mis_proposals(g, hp, props)
    pr = props.proposed
    if not pr.size:
        return PartialSolution.empty("mis")
    depth = hp.layer[pr]
    depth = int(depth.max()) - depth  # 0 for the highest proposing layer
    order = np.argsort(depth.astype(np.min_scalar_type(int(depth.max()))), kind="stable")
    cand, depth = pr[order], depth[order]
    bounds = [0, *(np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist(), depth.size]
    alive = np.ones(g.n, dtype=np.bool_)
    commit = np.empty(depth.size, np.bool_)
    for s, e in zip(bounds[:-1], bounds[1:]):
        c = cand[s:e]
        ok = alive[c]
        commit[s:e] = ok
        c = c[ok]
        alive[c] = False
        _, nb = gather_segments(g.indptr, g.indices, c)
        alive[nb] = False
    return PartialSolution(kind="mis", selected=cand[commit], removed=np.flatnonzero(~alive))


# ---------------------------------------------------------------------------
# one reduction phase, and the iterated loop
# ---------------------------------------------------------------------------


def _heavy_counts(sub: Graph, hp: HPartition, gone: np.ndarray, heavy: int) -> tuple[int, int]:
    """``(heavy nodes before, heavy survivors after)``: the nodes with at
    least ``heavy`` neighbors in strictly lower layers, and those of them
    that stay alive with at least ``heavy`` such neighbors alive, when the
    mask ``gone`` marks the nodes the phase removes.

    An in-degree of ``heavy`` needs a degree of ``heavy``, so only those
    rows are read; most phases have none."""
    deg = sub.degrees
    rows = np.flatnonzero(deg >= heavy)
    if not rows.size:
        return 0, 0
    src, nb = gather_segments(sub.indptr, sub.indices, rows)
    lower = hp.layer[nb] < hp.layer[src]
    # the rows are nonempty, so each starts where the last one ended
    starts = np.concatenate((np.zeros(1, np.int64), np.cumsum(deg[rows])[:-1]))
    before = np.add.reduceat(lower, starts, dtype=np.int64)
    after = np.add.reduceat(lower & ~gone[nb], starts, dtype=np.int64)
    survivors = (before >= heavy) & ~gone[rows] & (after >= heavy)
    return int((before >= heavy).sum()), int(survivors.sum())


def _remainder_degrees(sub: Graph, removed: np.ndarray, gone: np.ndarray) -> np.ndarray:
    """The degrees of ``sub`` once the nodes ``removed`` (the mask ``gone``)
    leave: a node loses one for each removed neighbor, and the removed rows
    list those; a removed node has degree 0."""
    _, nb = gather_segments(sub.indptr, sub.indices, removed)
    deg = sub.degrees - np.bincount(nb, minlength=sub.n)
    deg *= ~gone  # arithmetic, which is branch-free, rather than a masked store
    return deg


def mis_probability(d: int) -> float:
    return min(1.0, 1.0 / (d * d))


@dataclass
class Phase:
    """What one reduction phase computed, in the ids of its subgraph ``sub``
    of alive nodes (node i is ``ids[i]``): the partition, the proposals, the
    selection and ``sub``'s degrees once the selection has left.  A stalled
    phase holds only ``sub``, ``ids`` and the layers peeled before the stall."""

    sub: Graph
    ids: np.ndarray
    hp: HPartition
    props: ProposalSet | None = None
    sol: PartialSolution | None = None
    deg: np.ndarray | None = None

    def solution(self) -> PartialSolution:
        """The selection in original node ids."""
        sol, ids = self.sol, self.ids
        return PartialSolution(kind=sol.kind, selected=ids[sol.selected], removed=ids[sol.removed])


def reduce_once(sub: Graph, ids: np.ndarray, kind: str, d: int, seed: int):
    """One phase on the subgraph ``sub`` of the alive nodes, whose original
    ids are ``ids`` (as :meth:`sparsempc.graph.GraphView.compact` returns
    them): partition with threshold d, mark/propose, select.

    Returns ``(record, phase report entry)``: the :class:`Phase` record, and
    on a stall the partial record and an entry marked ``stalled``.

    Every pass reads the phase subgraph only, never the whole graph: the
    heavy statistics read the rows of degree at least d⁴, and the
    remainder's degrees are the subgraph's degrees less the hits from the
    removed rows.  They give ``delta_after`` and the record's ``deg``.
    """
    _check_kind(kind)
    if not sub.n:
        raise ValueError("reduce_once needs a nonempty phase subgraph")
    delta_before = int(sub.max_degree())
    entry = {
        "delta_before": delta_before,
        "d_used": int(d),
        "heavy_nodes_before": 0,
        "heavy_survivors_after": 0,
        "delta_after": delta_before,
    }
    try:
        hp = h_partition(sub, d)
    except StallError as exc:
        entry.update(stalled=True, stall_reason=str(exc))
        return Phase(sub, ids, exc.partition), entry
    if kind == "matching":
        props = mark_and_propose_matching(sub, hp, seed)
        sol = select_matching(sub, hp, props)
    else:
        props = mark_and_propose_mis(sub, hp, mis_probability(d), seed)
        sol = select_mis(sub, hp, props)

    gone = np.zeros(sub.n, np.bool_)
    gone[sol.removed] = True
    entry["heavy_nodes_before"], entry["heavy_survivors_after"] = _heavy_counts(sub, hp, gone, d ** 4)
    deg = _remainder_degrees(sub, sol.removed, gone)
    entry.update(
        delta_after=int(deg.max()),
        alive_before=int(ids.size),
        ell=hp.ell,
        layer_sizes=[int(x) for x in hp.layer_sizes()],
    )
    return Phase(sub, ids, hp, props, sol, deg), entry


def phase_threshold(delta: int, exponent: float, d_floor: int | None = None) -> int:
    """The peeling threshold for a phase at max degree ``delta``."""
    d = max(1, math.ceil(delta ** exponent - 1e-9))
    if d_floor is not None:
        d = max(d, d_floor)
    return d


def phase_records(
    g: Graph, kind: str, target_delta: int, seed: int, *, exponent: float = 0.1, d_floor: int | None = None
):
    """:func:`degree_reduce` as a stream: yields each phase's record and
    returns what ``degree_reduce`` returns; a bad request raises first.  A
    record is translated to original ids after it is consumed and released
    before the next phase is computed; a stalled record ends the stream."""
    check_request(kind, target_delta)
    alive = np.ones(g.n, np.bool_)
    parts = []
    report = ReductionReport(stop_reason="max-phases")
    delta = g.max_degree()  # then each phase reports the next one
    for phase in range(MAX_PHASES):
        if delta <= target_delta:
            report.stop_reason = "target"
            break
        d = phase_threshold(delta, exponent, d_floor)
        if kind == "matching" and delta <= d:
            report.stop_reason = "one-layer"
            break
        ph, entry = reduce_once(*GraphView(g, alive).compact(), kind, d, rng.derive_seed(seed, phase))
        report.phases.append(entry)
        yield ph
        if ph.sol is None:
            report.stop_reason = "stalled"
            break
        parts.append(ph.solution())
        del ph  # the next phase is computed without this one's arrays
        alive[parts[-1].removed] = False
        if entry["delta_after"] >= delta:
            entry["reduced"] = False
            report.stop_reason = "not-reduced"
            break
        delta = entry["delta_after"]
    return PartialSolution.empty(kind).merge(*parts), GraphView(g, alive), report


def _drain(records):
    """Run a record stream to its end and return its result."""
    while True:
        try:
            next(records)
        except StopIteration as end:
            return end.value


def degree_reduce(
    g: Graph,
    kind: str,
    target_delta: int,
    exponent: float = 0.1,
    seed: int = 0,
    *,
    d_floor: int | None = None,
):
    """Iterate reduce_once with d = ceil(Δ^exponent) until Δ <= target_delta.

    A matching phase at Δ <= d is not run: every node peels into layer 1,
    and :func:`mark_and_propose_matching` marks no same-layer edge, so the
    phase would select nothing.  An independent-set phase of one layer does
    remove nodes and runs.  A phase that stalls or fails to decrease Δ ends
    the loop with a warning entry in the report instead of raising — small
    graphs legitimately hit both cases, and the accumulated solution stays
    valid either way.  The report's ``stop_reason`` says which of
    :data:`STOP_REASONS` ended the loop.  Returns ``(solution, remainder
    view, report)``; :func:`phase_records` is the same loop, phase by phase.
    """
    return _drain(phase_records(g, kind, target_delta, seed, exponent=exponent, d_floor=d_floor))


# ---------------------------------------------------------------------------
# greedy finish (priority rounds on the remainder) and verification
# ---------------------------------------------------------------------------


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    return edges[:, 0] * np.int64(n) + edges[:, 1]


def luby_matching_round(g: Graph, live: np.ndarray, seed: int, round_idx: int) -> np.ndarray:
    """One priority round over the ``live`` edges of ``g`` (rows of
    ``g.edges`` whose endpoints are both alive): every live edge draws a
    priority, and an edge joins the matching iff its ``(priority, key)`` is
    the smallest at both of its endpoints.  Returns the (k, 2) selected
    edges, in the order of ``live``; the caller removes their endpoints.

    The smallest pair at each endpoint is found without a sort: the
    smallest priority first, then the smallest key among the edges that
    reach it."""
    u, v = live[:, 0], live[:, 1]
    key = _edge_keys(live, g.n)
    pri = rng.hash_u64(seed, rng.GREEDY_EDGE, round_idx, key)
    best = np.full(g.n, np.iinfo(np.uint64).max, np.uint64)
    np.minimum.at(best, u, pri)
    np.minimum.at(best, v, pri)
    low_u, low_v = pri == best[u], pri == best[v]
    tie = np.full(g.n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(tie, u[low_u], key[low_u])
    np.minimum.at(tie, v[low_v], key[low_v])
    return live[low_u & low_v & (key == tie[u]) & (key == tie[v])]


def luby_mis_round(g: Graph, alive: np.ndarray, seed: int, round_idx: int) -> np.ndarray:
    """One priority round: every alive node draws a priority; a node joins iff
    it beats all alive neighbors in the order of ``(priority, id)``.  Isolated
    alive nodes always join.  Returns selected node ids; the caller removes
    them and their neighbors.

    Only the alive nodes draw, and only their rows are read, so a round costs
    the remainder, not n: priorities are keyed by node id, and ranks are only
    ever compared between alive neighbors, so leaving the dead nodes out
    changes no comparison."""
    nodes = np.flatnonzero(alive)
    if not nodes.size:
        return nodes
    pri = rng.hash_u64(seed, rng.GREEDY_NODE, round_idx, nodes)
    src, nb = gather_segments(g.indptr, g.indices, nodes)
    live = alive[nb]
    src, nb = src[live], nb[live]
    # positions in `nodes`, which is ascending
    si = np.searchsorted(nodes, src)
    ni = np.searchsorted(nodes, nb)
    ps, pn = pri[si], pri[ni]
    beaten = (pn < ps) | ((pn == ps) & (nb < src))
    lost = np.zeros(nodes.size, np.bool_)
    lost[si[beaten]] = True
    return nodes[~lost]


@dataclass
class FinishRound:
    """One priority round of the finish on the whole graph: ``step.selected``
    joins the solution and ``step.removed`` leave the ``alive`` nodes (the
    finish's own mask, which changes once the record is consumed).  A
    matching round holds the ``live`` edges, whose ends are both alive."""

    alive: np.ndarray
    step: PartialSolution
    live: np.ndarray | None


def finish_rounds(g_view: GraphView, kind: str, seed: int):
    """:func:`finish_greedy` as a stream: yields each round's record and
    returns the finish's solution; a bad kind raises first."""
    _check_kind(kind)
    g = g_view.graph
    alive = g_view.alive.copy()
    live = None
    if kind == "matching":
        live = g.edges[alive[g.edges[:, 0]] & alive[g.edges[:, 1]]]
    steps = []
    round_idx = 0
    while True:
        if kind == "matching":
            won = luby_matching_round(g, live, seed, round_idx)
            if not won.shape[0]:
                break
            removed = sorted_unique(won)
        else:
            won = luby_mis_round(g, alive, seed, round_idx)
            if not won.size:
                break
            _, nb = gather_segments(g.indptr, g.indices, won)
            removed = sorted_unique(np.concatenate([won, nb[alive[nb]]]))
        step = PartialSolution(kind=kind, selected=won, removed=removed)
        yield FinishRound(alive, step, live)
        alive[removed] = False
        if kind == "matching":
            live = live[alive[live[:, 0]] & alive[live[:, 1]]]
        steps.append(step)
        round_idx += 1
    return PartialSolution.empty(kind).merge(*steps)


def finish_greedy(g_view: GraphView, kind: str, seed: int):
    """Priority rounds until no alive edges remain (then, for MIS, sweep up the
    isolated leftovers).  Every round removes at least the endpoints of the
    best-ranked alive edge (or the best-ranked alive node), so the loop ends.

    A matching finish reads ``g.edges`` once: it carries the live edges
    from round to round and drops those that lost an endpoint.
    :func:`finish_rounds` is the same loop, round by round."""
    return _drain(finish_rounds(g_view, kind, seed))


def solve_records(
    g: Graph, kind: str, target_delta: int, seed: int, *, exponent: float = 0.1, d_floor: int | None = None
):
    """:func:`solve` as one stream, the phase records then the finish rounds;
    returns what ``solve`` returns."""
    sol, view, report = yield from phase_records(g, kind, target_delta, seed, exponent=exponent, d_floor=d_floor)
    fin = yield from finish_rounds(view, kind, rng.derive_seed(seed, rng.FINISH_PHASE))
    return sol.merge(fin), report


def solve(
    g: Graph,
    kind: str,
    target_delta: int,
    seed: int,
    *,
    exponent: float = 0.1,
    d_floor: int | None = None,
):
    """End-to-end run: degree reduction, then the greedy finish on the
    low-degree remainder.  :func:`sparsempc.mpc.mpc_pipeline` meters the
    same run, record by record (:func:`solve_records`)."""
    sol, view, report = degree_reduce(
        g, kind, target_delta, exponent=exponent, seed=seed, d_floor=d_floor
    )
    fin = finish_greedy(view, kind, rng.derive_seed(seed, rng.FINISH_PHASE))
    return sol.merge(fin), report


def verify_maximal(g: Graph, sol: PartialSolution) -> bool:
    """Maximality oracle.  Matching: pairwise non-incident edges of ``g`` and no
    edge with two unmatched endpoints.  MIS: independent, and every node
    selected or adjacent to a selected node.  Edge membership is a binary
    search in the keys of ``g.edges``, which are ascending."""
    if sol.kind == "matching":
        sel = sol.selected
        if sel.size:
            ends = sel.ravel()
            if sorted_unique(ends).size != ends.size:
                return False
            edge_keys = _edge_keys(g.edges, g.n)
            if not edge_keys.size:
                return False
            keys = _edge_keys(np.sort(sel, axis=1), g.n)
            pos = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
            if (edge_keys[pos] != keys).any():
                return False
        matched = np.zeros(g.n, np.bool_)
        matched[sel.ravel()] = True
        e = g.edges
        return bool((matched[e[:, 0]] | matched[e[:, 1]]).all())
    if sol.kind == "mis":
        in_set = np.zeros(g.n, np.bool_)
        in_set[sol.selected] = True
        e = g.edges
        if (in_set[e[:, 0]] & in_set[e[:, 1]]).any():
            return False
        cov = in_set.copy()
        np.logical_or.at(cov, e[:, 0], in_set[e[:, 1]])
        np.logical_or.at(cov, e[:, 1], in_set[e[:, 0]])
        return bool(cov.all())
    raise ValueError(f"unknown kind {sol.kind!r}")
