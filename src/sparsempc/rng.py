"""Counter-based randomness shared by the centralized and simulated pipelines.

Every random choice in the reduction pipeline is a pure function of
``(seed, stream, phase, node)``.  That way the centralized reference code and
the cluster simulation make byte-identical choices without any shared RNG
state, and any single node's coin can be recomputed in isolation (which is
exactly what a machine hosting that node would do).

The mixer is the splitmix64 finalizer applied to a chained combination of the
four inputs.  It is not cryptographic; it just needs to be well-distributed
and cheap to vectorize over uint64 arrays.
"""

from __future__ import annotations

import numpy as np

# Stream tags.  Distinct constants keep the per-purpose streams independent.
# Placement draws no coins: machines take nodes heaviest first, ties by id.
MARK_EDGE = 0x11
PROPOSE_EDGE = 0x12
MARK_NODE = 0x21
GREEDY_EDGE = 0x31
GREEDY_NODE = 0x32

# phase tag reserved for the post-reduction greedy finish; both execution
# paths derive the finish seed from it so their priority rounds line up
FINISH_PHASE = 0x5E1EC7

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_INV_2_53 = 1.0 / (1 << 53)


def _mix(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # splitmix64 finalizer
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _MIX1
        x = (x ^ (x >> _U64(27))) * _MIX2
        return x ^ (x >> _U64(31))


def hash_u64(seed: int, stream: int, phase: int, index) -> np.ndarray | np.uint64:
    """Mix (seed, stream, phase, index) into uniform uint64 values.

    ``index`` may be a scalar or an integer ndarray; the result has the same
    shape.  Values are folded in one at a time, each shifted by the golden
    gamma so that (a, b) and (b, a) land in different states.
    """
    with np.errstate(over="ignore"):
        h = _mix(_U64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)
        h = _mix(h + _GAMMA + _U64(stream))
        h = _mix(h + _GAMMA + _U64(phase))
        idx = np.asarray(index, dtype=np.uint64)
        return _mix(h + _GAMMA + idx)


def uniform(seed: int, stream: int, phase: int, index) -> np.ndarray | float:
    """Uniform floats in [0, 1) derived from :func:`hash_u64`.

    Uses the top 53 bits so the value is exactly representable as a double.
    """
    h = hash_u64(seed, stream, phase, index)
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53 if isinstance(h, np.ndarray) else float(h >> _U64(11)) * _INV_2_53


def pick_index(seed: int, stream: int, phase: int, index, counts) -> np.ndarray:
    """For each entry, a uniform draw from ``range(counts)`` (0 when count==0).

    Deterministic given the four-tuple; used to pick one item from a node's
    id-sorted candidate list so every execution picks the same item.
    """
    u = uniform(seed, stream, phase, index)
    counts = np.asarray(counts, dtype=np.int64)
    k = np.floor(u * counts).astype(np.int64)
    # guard the u == 1.0-epsilon edge; floor(u*c) can hit c only via fp rounding
    return np.minimum(k, np.maximum(counts - 1, 0))


def derive_seed(seed: int, phase: int) -> int:
    """A per-phase sub-seed, so each pipeline phase draws fresh coins."""
    return int(hash_u64(seed, 0x5EED, phase, 0))
