"""Timing harness for the kernels.

Every hot kernel runs on fixed inputs, best-of-``repeats`` wall time; an
end-to-end pipeline row shows how much of the total the kernels actually
dominate.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import generators, kernels, reduction


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmarks(n: int = 60000, repeats: int = 3, seed: int = 0):
    tower = generators.generate(
        "layered-core", {"n": n, "depth": max(40, int(30 * np.log2(np.log2(n)))), "d": 3}, seed=seed
    )
    rand = generators.generate("bounded-degree-random", {"n": n, "deg": 4}, seed=seed)
    pa = generators.generate("preferential-attachment", {"n": n, "c": 3}, seed=seed)
    alive = np.ones(tower.n, np.bool_)
    sources = np.flatnonzero(alive)[:: max(1, tower.n // 20000)]
    weights = 1 + np.diff(tower.indptr)
    # heaviest first, as Cluster._place passes them
    pack_w = np.sort((np.arange(n, dtype=np.int64) * 2654435761 % 97) + 1)[::-1].copy()

    rows = [
        (
            "peel_layers(tower)",
            lambda: kernels.peel_layers(tower.indptr, tower.indices, alive, 3, 10 ** 9),
        ),
        (
            "peel_layers(random)",
            lambda: kernels.peel_layers(rand.indptr, rand.indices, np.ones(rand.n, np.bool_), 3, 10 ** 9),
        ),
        (
            "ball_stats(r=2)",
            lambda: kernels.ball_stats(tower.indptr, tower.indices, alive, sources, 2, weights),
        ),
        (
            "degeneracy_order(pa)",
            lambda: kernels.degeneracy_order(pa.indptr, pa.indices),
        ),
        (
            "pack_bins",
            lambda: kernels.pack_bins(pack_w, 200),
        ),
        (
            "solve(matching, tower)",
            lambda: reduction.solve(tower, "matching", 2, seed=1, d_floor=3),
        ),
    ]
    return [(name, _time(fn, repeats)) for name, fn in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernel timing benchmark")
    parser.add_argument("--n", type=int, default=60000, help="instance size")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows = run_benchmarks(args.n, args.repeats, args.seed)
    print(f"{'kernel':28s} {'time (ms)':>10s}")
    for name, seconds in rows:
        print(f"{name:28s} {seconds * 1e3:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
