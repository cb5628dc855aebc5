"""Machine-speed probes that put timings on a common scale.

The machine the benchmark was tuned on is shared: its speed drifts by up to
half over tens of seconds, in step for the probes and the package alike.  A
run therefore times a fixed probe right before and right after each timed
sample and reports ``sample * NOMINAL_S / mean(probe before, probe after)``:
the sample's seconds at the probe's nominal speed.  The probes are the
benchmark's own code, so a change to the package moves the sample and never
the probe.

Two probes, matched to the code they correct: ``array`` runs whole-array
numpy work on a working set of a few megabytes (the executions), ``interp``
runs an interpreted loop over numpy scalars (the set-up's interpreted
generator and degeneracy order).
"""

from __future__ import annotations

import time

import numpy as np

# median probe times on the reference machine (2-core x86_64, Python 3.11,
# numpy 2.4, freed memory kept in the heap); they only fix the scale of the
# reported seconds
NOMINAL_S = {"array": 0.061, "interp": 0.054}


class Probes:
    def __init__(self):
        rng = np.random.default_rng(20180714)
        self._keys = rng.integers(0, 1 << 30, 1 << 20)
        self._idx = rng.integers(0, 1 << 20, 1 << 20)
        self._small = rng.integers(0, 1 << 10, 400_000)

    def _array(self) -> None:
        keys = self._keys
        for _ in range(3):
            np.cumsum(np.sort(keys))
            np.bincount(keys & 0xFFFF)
            keys[self._idx].sum()

    def _interp(self) -> None:
        small = self._small
        acc = 0
        for i in range(small.size):
            v = small[i]
            if v > (acc & 1023):
                acc += int(v) & 7

    def time(self, kind: str) -> float:
        fn = self._array if kind == "array" else self._interp
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0


def nominal(kind: str, seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes that took ``before`` and ``after``,
    scaled to the probe's nominal speed."""
    return seconds * NOMINAL_S[kind] * 2.0 / (before + after)
