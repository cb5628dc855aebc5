"""Batch peeling into layers, degeneracy ordering, and layer-decay checks.

The layer structure ("peel everything with remaining degree <= d, repeat")
is the backbone of the whole reduction pipeline: it gives each node at most
``d`` neighbors in its own or higher layers, which is what makes the
mark-and-propose stages effective.  Peeling with threshold ``d`` has a unique
fixed point, so the result is deterministic regardless of tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .kernels import degeneracy_order, peel_layers


class StallError(RuntimeError):
    """Peeling cannot make progress: every remaining node has degree > d.

    ``partition`` holds the layers peeled before the stall, with layer 0 for
    the stuck nodes."""

    def __init__(self, message: str, partition: "HPartition"):
        super().__init__(message)
        self.partition = partition


@dataclass(frozen=True)
class HPartition:
    layer: np.ndarray  # (n,) int64, 1-based layer index (0: stuck in a stall)
    d: int
    ell: int  # number of nonempty layers == max(layer)
    # the layered nodes as the peel removed them: layer by layer, ascending
    # within a layer (the stable sort by layer)
    order: np.ndarray

    def layer_sizes(self) -> np.ndarray:
        """sizes[i] = |layer i+1| for i in 0..ell-1."""
        return np.bincount(self.layer, minlength=self.ell + 1)[1:]


def h_partition(g: Graph, d: int) -> HPartition:
    """Partition nodes into peeling layers with degree threshold ``d``.

    Layer 1 holds every node of degree <= d; removing it, layer 2 holds every
    node whose remaining degree is <= d; and so on.  Raises :class:`StallError`
    if at some point no remaining node qualifies (all remaining degrees > d),
    which cannot happen when d exceeds twice the graph's degeneracy; the
    error carries the layers peeled until then.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    layer, ell, peeled = peel_layers(g.indptr, g.indices, d)
    hp = HPartition(layer=layer, d=int(d), ell=int(ell), order=peeled)
    if peeled.size < g.n:
        stuck = g.n - peeled.size
        raise StallError(f"peeling stalled with {stuck} nodes of remaining degree > {d}", hp)
    return hp


@dataclass(frozen=True)
class ArboricityEstimate:
    degeneracy: int
    witness: np.ndarray  # removal order: each node has <= degeneracy later neighbors


def degeneracy(g: Graph) -> ArboricityEstimate:
    """Exact degeneracy with a witness elimination order.

    The degeneracy k sandwiches the arboricity: ceil(k/2) <= arboricity <= k,
    which is all the pipeline needs (its guarantees are stated against 2λ).
    """
    k, order, _core = degeneracy_order(g.indptr, g.indices)
    return ArboricityEstimate(degeneracy=int(k), witness=order)


def suffix_decay_ok(layer_sizes, d: int, lam: int) -> bool:
    """Check |layers >= i+1| <= (2·lam/d) · |layers >= i| for all i >= 1,
    given the layer sizes of a partition with threshold ``d``.

    This is the geometric-decay law the partition obeys whenever d > 2·lam
    (lam standing in for the arboricity via the degeneracy bound).
    """
    suf = np.cumsum(np.asarray(layer_sizes, np.float64)[::-1])[::-1]
    if suf.size <= 1:
        return True
    return bool((suf[1:] <= (2.0 * lam / d) * suf[:-1] + 1e-9).all())


def layer_decay_ok(hp: HPartition, lam: int) -> bool:
    """:func:`suffix_decay_ok` on the layers of ``hp``."""
    return suffix_decay_ok(hp.layer_sizes(), hp.d, lam)
