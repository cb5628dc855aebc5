"""Synchronous cluster simulator with hard per-machine word budgets.

Machines hold whole nodes (a node's adjacency never spans machines).  A round
is local computation everywhere, then an all-to-all routing step; a machine's
sent words, received words, and resident words must each stay within its
capacity S, and any violation aborts the run naming the machine and round.

The placement is ``node_machine``: node v lives on machine
``node_machine[v]``, or on none (-1) when the last placement
(:func:`init_cluster` or :func:`rebalance`) did not hold it.  Such a node
stores nothing, and a ledger change or a round that touches it raises
:class:`UnplacedNodeError`.

A round is described by arrays, one call per round:
:meth:`Cluster.execute_round_bulk` takes the (sender, target) node pairs of
a round of one-word messages, :meth:`Cluster.execute_round_volumes` takes
per-node traffic totals (gathers, clique steps and exchanges, where
per-message arrays would be huge), and :meth:`Cluster.control_rounds`
meters coordinator plumbing (two words per machine and round).  Each of them
turns its round into per-machine sent and received words and hands them to
one recording site, which appends the :class:`RoundTrace`, writes the
round's ``MPC_TRACE_DIR`` rows from the live ledgers and checks the budgets.

Only words that cross machines are traffic: a pair round drops the pairs
whose two nodes share a machine, which are local computation.  Per-node
totals cannot tell local words from crossing ones, so they count every word
and are an upper bound on the true traffic.  Storage is metered in words:
one word per adjacency entry (an edge costs two words, one at each
endpoint) plus whatever auxiliary words the caller registers (virtual
adjacency, retained chunk state).

With ``MPC_TRACE_DIR`` set, every round writes one row per machine that
stores, sends or receives anything (``round``, ``machine``, ``words_used``,
``sent``, ``received``); past 4096 machines in use a round writes a single
aggregate row with ``machine`` -1 carrying its maxima.  :meth:`Cluster.flush_trace`
writes the rows to ``<MPC_TRACE_DIR>/<name>.trace.ndjson``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph
from .kernels import pack_bins


class MPCError(RuntimeError):
    pass


class CapacityError(MPCError):
    """A node (or an unsplittable placement) cannot fit in one machine."""


class UnplacedNodeError(MPCError):
    """A ledger change or a round touched a node that no machine holds."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is on no machine: the last placement did not hold it")
        self.node = int(node)


def _unplaced(nodes, machines) -> UnplacedNodeError:
    """The error naming the first of ``nodes`` whose entry of ``machines``
    is -1."""
    return UnplacedNodeError(int(np.asarray(nodes)[machines < 0][0]))


class BudgetError(MPCError):
    def __init__(self, message: str, machine: int, round_idx: int):
        super().__init__(f"{message} (machine {machine}, round {round_idx})")
        self.machine = int(machine)
        self.round = int(round_idx)


class SendBudgetExceeded(BudgetError):
    pass


class ReceiveBudgetExceeded(BudgetError):
    pass


class MemoryExceeded(BudgetError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    n: int
    m: int
    delta: float
    S: int
    M: int

    def __post_init__(self):
        self._check_delta(self.delta)
        if self.S < 1 or self.M < 1:
            raise ValueError("cluster needs S >= 1 and M >= 1")
        if self.M * self.S < self.m:
            raise ValueError(
                f"total memory M*S = {self.M * self.S} below input size m = {self.m}"
            )

    @staticmethod
    def _check_delta(delta: float) -> None:
        """The memory exponent must lie in (0, 1]; NaN does not."""
        if not (0 < delta <= 1):
            raise ValueError(f"delta must be in (0, 1], got {delta}")

    @classmethod
    def for_graph(cls, g: Graph, delta: float, c_total: float = 4.0) -> "ClusterConfig":
        """S = ceil(n^delta); M sized so M*S covers c_total * m * log2(n) words."""
        cls._check_delta(delta)  # before n^delta, which NaN would not survive
        n = max(2, g.n)
        S = int(math.ceil(n ** delta))
        polylog = max(1.0, math.log2(n))
        M = max(1, int(math.ceil(c_total * max(1, g.m) * polylog / S)))
        return cls(n=g.n, m=g.m, delta=delta, S=S, M=M)


@dataclass
class RoundTrace:
    round: int
    label: str
    peak_words: int
    peak_machine: int
    max_sent: int
    max_sent_machine: int
    max_received: int
    max_received_machine: int
    total_sent: int
    total_received: int


# past this many machines a traced round is one aggregate row of its maxima
_TRACE_KEEP_LIMIT = 4096


class Cluster:
    """Mutable cluster state; create via :func:`init_cluster`.

    ``settled`` says that the layout is the placement of the held nodes by
    their stored words as they are now: a placement by stored words sets it,
    a placement by other weights and every ledger change clear it."""

    def __init__(self, g: Graph, cfg: ClusterConfig, name: str = "run"):
        self.cfg = cfg
        self.graph = g
        self.name = name
        self.round_idx = 0
        self.traces: list[RoundTrace] = []
        self.violations: list[dict] = []
        self.base_words = g.degrees.astype(np.int64)
        self.extra_words = np.zeros(g.n, np.int64)
        self.node_machine = np.zeros(g.n, np.int64)
        self.machines_used = 1
        self.loads = np.zeros(1, np.int64)
        self.settled = False
        self._trace_rows: list[dict] | None = None
        trace_dir = os.environ.get("MPC_TRACE_DIR")
        if trace_dir:
            self._trace_path = Path(trace_dir) / f"{name}.trace.ndjson"
            self._trace_rows = []
        else:
            self._trace_path = None

    # -- storage bookkeeping (free local operations, no round consumed) ----

    def node_words(self) -> np.ndarray:
        return self.base_words + self.extra_words

    def set_base_words(self, nodes: np.ndarray, words: np.ndarray) -> None:
        delta = np.asarray(words, np.int64) - self.base_words[nodes]
        self._charge(nodes, delta)
        self.base_words[nodes] += delta

    def add_extra_words(self, nodes: np.ndarray, delta) -> None:
        delta = np.broadcast_to(np.asarray(delta, np.int64), np.shape(nodes)).copy()
        self._charge(nodes, delta)
        self.extra_words[nodes] += delta

    def drop_nodes(self, nodes: np.ndarray) -> None:
        """Remove finished nodes; their words vanish from their machines."""
        self._charge(nodes, -(self.base_words[nodes] + self.extra_words[nodes]))
        self.base_words[nodes] = 0
        self.extra_words[nodes] = 0

    def _charge(self, nodes: np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` words to the machines of ``nodes``, before their
        ledgers change; the layout is no longer settled."""
        mach = self.node_machine[nodes]
        if mach.size and mach.min() < 0:
            raise _unplaced(nodes, mach)
        np.add.at(self.loads, mach, delta)
        self.settled = False

    def agg_depth(self) -> int:
        """Rounds for an S-ary aggregation tree over all machines."""
        if self.cfg.M <= 1:
            return 0
        return max(1, int(math.ceil(math.log(self.cfg.M) / math.log(max(2, self.cfg.S)))))

    # -- placement ----------------------------------------------------------

    def _place(self, nodes: np.ndarray, store_w: np.ndarray) -> np.ndarray:
        """Pack ``nodes`` (with storage weights) into machines: heaviest first,
        ties by node id, sequential bins of capacity max(heaviest, 2 *
        ceil(total/M)).  Returns the new machine ids.

        The order is one stable sort of the unsigned ``max(w) - w`` in the
        narrowest dtype that holds it (up to 16 bits numpy sorts it by
        radix).  ``nodes`` must be strictly ascending, so that equal weights
        stay in id order: the placement is a function of the set and its
        weights alone, and repacking an unchanged set moves nothing."""
        if np.any(nodes[1:] <= nodes[:-1]):
            raise ValueError("_place needs strictly ascending node ids")
        pack_w = np.maximum(store_w, 1)
        total = int(pack_w.sum())
        heaviest = int(pack_w.max())
        cap = max(heaviest, 2 * math.ceil(total / self.cfg.M), 1)
        spread = heaviest - int(pack_w.min())
        lightness = (heaviest - pack_w).astype(np.min_scalar_type(spread))
        order = np.argsort(lightness, kind="stable")
        bins = pack_bins(pack_w[order], cap)
        used = int(bins[-1]) + 1 if bins.size else 1
        if used > self.cfg.M:
            raise CapacityError(
                f"placement needs {used} machines but the cluster has {self.cfg.M}"
            )
        mach = np.empty(nodes.size, np.int64)
        mach[order] = bins
        return mach

    def _assign(self, nodes: np.ndarray, mach: np.ndarray, stored: np.ndarray) -> None:
        """Move ``nodes`` (holding ``stored`` words each) to machines ``mach``;
        every other node is left on no machine."""
        self.node_machine.fill(-1)
        self.node_machine[nodes] = mach
        self.machines_used = used = int(mach.max()) + 1
        self.loads = np.bincount(mach, weights=stored, minlength=used).astype(np.int64)

    # -- round execution ----------------------------------------------------

    def _check_and_trace(self, label: str, sent: np.ndarray, received: np.ndarray) -> RoundTrace:
        """Record one round, the only place a round is recorded: append its
        trace, write its trace rows from the live ledgers, enforce the budgets
        and advance the clock.  ``sent``/``received`` hold per-machine words
        and may be shorter than machines_used; a missing tail means zero."""
        S = self.cfg.S
        loads = self.loads
        peak_m, ms = int(loads.argmax()), int(sent.argmax())
        total_sent = int(sent.sum())
        if received is sent:  # an exchange: every machine receives what it sends
            mr, total_received = ms, total_sent
        else:
            mr, total_received = int(received.argmax()), int(received.sum())
        trace = RoundTrace(
            round=self.round_idx,
            label=label,
            peak_words=int(loads[peak_m]),
            peak_machine=peak_m,
            max_sent=int(sent[ms]),
            max_sent_machine=ms,
            max_received=int(received[mr]),
            max_received_machine=mr,
            total_sent=total_sent,
            total_received=total_received,
        )
        self.traces.append(trace)
        if self._trace_rows is not None:
            if self.machines_used > _TRACE_KEEP_LIMIT:
                # machine -1 marks an aggregate row: per-machine ledgers are
                # not written at this scale, only the maxima
                ledgers = [(-1, trace.peak_words, trace.max_sent, trace.max_received)]
            else:
                width = max(self.machines_used, loads.size, sent.size, received.size)
                words, out, inc = (np.pad(a, (0, width - a.size)) for a in (loads, sent, received))
                active = np.flatnonzero((words > 0) | (out > 0) | (inc > 0))
                ledgers = zip(active.tolist(), *(a[active].tolist() for a in (words, out, inc)))
            self._trace_rows.extend(
                {"round": trace.round, "machine": m, "words_used": w, "sent": o, "received": i}
                for m, w, o, i in ledgers
            )
        violation = None
        if trace.max_sent > S:
            violation = ("send", SendBudgetExceeded, trace.max_sent_machine, trace.max_sent)
        elif trace.max_received > S:
            violation = (
                "receive",
                ReceiveBudgetExceeded,
                trace.max_received_machine,
                trace.max_received,
            )
        elif trace.peak_words > S:
            violation = ("memory", MemoryExceeded, trace.peak_machine, trace.peak_words)
        self.round_idx += 1
        if violation is not None:
            kind, exc, machine, amount = violation
            self.violations.append(
                {"round": trace.round, "machine": machine, "kind": kind, "words": amount, "S": S}
            )
            self.flush_trace()
            raise exc(f"{kind} budget: {amount} words > S={S}", machine, trace.round)
        return trace

    def execute_round_bulk(
        self, src: np.ndarray, dst: np.ndarray, *, label: str = ""
    ) -> RoundTrace:
        """One round of one-word messages, node ``src[j]`` to node ``dst[j]``.
        A pair whose two nodes share a machine is local computation and
        costs nothing.  Every pair is counted on both sides, then the local
        pairs, which sit on one machine on both sides, are taken off again,
        so only the usually few local pairs are copied."""
        sm = self.node_machine[src]
        dm = self.node_machine[dst]
        try:
            sent = np.bincount(sm, minlength=1)
            received = np.bincount(dm, minlength=1)
        except ValueError:  # a machine id of -1: a node on no machine
            raise _unplaced(np.concatenate((src, dst)), np.concatenate((sm, dm))) from None
        local = sm[sm == dm]
        if local.size:
            counts = np.bincount(local)
            sent[: counts.size] -= counts
            received[: counts.size] -= counts
        return self._check_and_trace(label, sent, received)

    def execute_round_volumes(
        self,
        out_nodes: np.ndarray,
        out_words: np.ndarray,
        in_nodes: np.ndarray,
        in_words: np.ndarray,
        *,
        label: str = "",
    ) -> RoundTrace:
        """One round from pre-aggregated per-node traffic: node ``out_nodes[j]``
        sends ``out_words[j]`` words in total, node ``in_nodes[j]`` receives
        ``in_words[j]``.  Totals cannot tell local words from crossing ones,
        so every word counts and the ledgers are an upper bound on the true
        traffic.  A node may be listed more than once, and either words
        argument may be one number for every entry.  When both sides are the
        same arrays (an exchange in which every node receives what it sends)
        the per-machine sums are formed once."""
        sent = self._machine_sums(out_nodes, out_words)
        if in_nodes is out_nodes and in_words is out_words:
            return self._check_and_trace(label, sent, sent)
        return self._check_and_trace(label, sent, self._machine_sums(in_nodes, in_words))

    def _machine_sums(self, nodes: np.ndarray, words) -> np.ndarray:
        """Per-machine totals of ``words`` (one per entry of ``nodes``, or one
        number for all of them)."""
        if not len(nodes):  # a silent side of a round: nothing to sum
            return np.zeros(1, np.int64)
        nodes = np.asarray(nodes, np.int64)
        mach = self.node_machine[nodes]
        if mach.min() < 0:
            raise _unplaced(nodes, mach)
        words = np.asarray(words)
        if not words.ndim:
            counts = np.bincount(mach, minlength=1)
            return counts if words == 1 else counts * np.int64(words)
        if words.dtype != np.int64 or words.shape != mach.shape:
            words = np.broadcast_to(words.astype(np.int64, copy=False), mach.shape)
        # summed in int64: a weighted bincount adds in float64 and converts
        # back, which takes about twice as long on a round of a few nodes
        sums = np.zeros(int(mach.max()) + 1, np.int64)
        np.add.at(sums, mach, words)
        return sums

    def control_rounds(self, count: int, label: str = "control") -> None:
        """Meter coordinator plumbing (aggregation/broadcast trees): ``count``
        rounds in which every machine sends and receives two words."""
        two = np.full(self.machines_used, 2, np.int64)
        for _ in range(int(count)):
            self._check_and_trace(label, two, two)

    # -- tracing -------------------------------------------------------------

    def flush_trace(self) -> Path | None:
        if self._trace_rows is None or self._trace_path is None:
            return None
        self._trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._trace_path, "w") as fh:
            for row in self._trace_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return self._trace_path


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def init_cluster(g: Graph, cfg: ClusterConfig, name: str = "run") -> Cluster:
    """Place every node (with its whole adjacency) on a machine, heaviest
    first and ties by id, no machine above max(heaviest node, twice the
    average load)."""
    cl = Cluster(g, cfg, name=name)
    if g.n and int(g.max_degree()) > cfg.S:
        raise CapacityError(f"node adjacency of {int(g.max_degree())} words exceeds S={cfg.S}")
    nodes = np.arange(g.n, dtype=np.int64)
    if g.n:
        words = cl.base_words
        cl._assign(nodes, cl._place(nodes, words), words)
        if int(cl.loads.max()) > cfg.S:
            raise CapacityError(
                f"initial placement cannot fit within S={cfg.S} words per machine"
            )
    cl.settled = True
    return cl


def rebalance(
    cluster: Cluster,
    hold: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    label: str = "rebalance",
) -> Cluster:
    """Repack the held nodes across machines and drop every other node's
    stored rows.  Metered as one data round (the moves) plus an aggregation
    tree to compute the assignment; an empty ``hold`` changes nothing and
    costs nothing.

    ``hold`` is a bool mask over all nodes; it may hold nodes that are no
    longer alive but whose stored rows must survive and move with the
    repack (mid-partition, layered nodes retain their gathered balls until
    selection).  ``weights``, nonnegative integers, one per node, overrides
    the packing weights (e.g. predicted gather volume) without changing the
    stored-word ledgers.  The placement depends only on the held set and
    its packing weights, so repacking an unchanged set with unchanged
    weights moves no words.  When the cluster is settled and ``hold`` is
    the held set, a repack by stored words is that case without reading
    the ledgers: it records the same rounds, its data round moving 0 words.
    """
    n = cluster.graph.n
    hold = np.asarray(hold)
    if hold.dtype != np.bool_ or hold.shape != (n,):
        raise ValueError(f"hold must be a bool array of shape ({n},)")
    if weights is not None:
        weights = np.asarray(weights)
        if weights.dtype.kind not in "iu" or weights.shape != (n,) or (weights < 0).any():
            raise ValueError(f"weights must be None or nonnegative integers of shape ({n},)")
    if not hold.any():
        return cluster
    if weights is None and cluster.settled and np.array_equal(hold, cluster.node_machine >= 0):
        sent = received = np.zeros(1, np.int64)
    else:
        words = cluster.node_words()
        dead = np.flatnonzero(~hold & (words > 0))
        if dead.size:
            cluster.drop_nodes(dead)
        nodes = np.flatnonzero(hold)
        stored = words[nodes]  # dropping the dead left these rows as they were
        pack_w = stored if weights is None else weights[nodes].astype(np.int64)
        old_mach = cluster.node_machine[nodes]
        mach = cluster._place(nodes, pack_w)
        moved = (mach != old_mach) & (stored > 0)  # a node on no machine stores nothing
        moved_w = stored[moved]
        sent = np.bincount(old_mach[moved], weights=moved_w, minlength=1).astype(np.int64)
        received = np.bincount(mach[moved], weights=moved_w, minlength=1).astype(np.int64)
        cluster._assign(nodes, mach, stored)
        cluster.settled = weights is None
    cluster.control_rounds(cluster.agg_depth(), label=label + "-plan")
    cluster._check_and_trace(label, sent, received)
    return cluster


def metrics(cluster: Cluster) -> dict:
    """Read-only aggregation of the round traces."""
    traces = cluster.traces
    by_label: dict[str, int] = {}
    for t in traces:
        key = t.label or "round"
        by_label[key] = by_label.get(key, 0) + 1
    return {
        "rounds": len(traces),
        "peak_words": max((t.peak_words for t in traces), default=0),
        "max_sent": max((t.max_sent for t in traces), default=0),
        "max_received": max((t.max_received for t in traces), default=0),
        "total_messages": sum(t.total_sent for t in traces),
        "violations": list(cluster.violations),
        "rounds_by_label": dict(sorted(by_label.items())),
        "S": cluster.cfg.S,
        "M": cluster.cfg.M,
        "machines_used": cluster.machines_used,
    }
