"""Benchmark of the sparsempc pipelines: the reference run (``reduction.solve``)
and the metered cluster run (``mpc.mpc_pipeline``) on fixed workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload tree-phases --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs every instance untraced and traced in turn and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` of the current directory; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

from workloads import WORKLOADS

# numpy reads these when it is imported: one thread, no pools
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
TRACE_DIR = ".bench_trace"
# glibc mallopt parameters: M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD
MALLOPT = ((-3, 1 << 30), (-1, 1 << 30), (-2, 64 << 20))


def keep_freed_memory() -> bool:
    """Ask glibc to keep freed memory in the heap instead of handing it back
    to the kernel.  Otherwise the pages of nearly every large numpy array
    fault in afresh; in the virtual machine the benchmark was tuned on that
    took a sixth of an execution and its cost swung with the host's load.
    Returns whether the settings applied."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = [mallopt(param, value) for param, value in MALLOPT]
    return all(ok == 1 for ok in applied)


def git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root: Path, heap_kept: bool) -> dict:
    import numpy
    from sparsempc import kernels

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_lane": "numba" if kernels.USE_NUMBA else "numpy",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "malloc_keeps_freed_memory": heap_kept,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def check_coverage(per_layer: list) -> None:
    """Every per-layer metric must be one that some workload must produce."""
    for name in per_layer:
        if all(name in w.may_be_zero or name in w.must_be_zero for w in WORKLOADS.values()):
            raise SystemExit(f"per-layer metric {name} is produced by no workload")


def layer_checks(run, metrics: dict, names: list) -> None:
    """A traced run must not pass vacuously: a layer the workload must reach
    reads above 0, a layer it must bypass reads exactly 0."""
    w = run.workload
    for name in names:
        if name not in metrics:
            continue  # reported by the caller
        if name in w.must_be_zero:
            run.check(metrics[name] == 0, f"{run.name}: {name} = {metrics[name]}, expected 0")
        elif name not in w.may_be_zero:
            run.check(metrics[name] > 0, f"{run.name}: {name} = 0, the layer was never reached")


def run_one(name: str, args, spec: dict, root: Path, env: dict):
    from measure import end_to_end, measure, per_layer, purpose

    run = measure(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        names = [m["name"] for m in wanted]
        got = per_layer(run, names)
        layer_checks(run, got, names)
        path = root / TRACE_DIR / f"{name}-seed{args.seed}.json"
        run.tracer.dump(path, env)
        print(f"{name}: {len(run.tracer.spans)} spans written to {path.relative_to(root)}")
        if (line := purpose(run)) is not None:
            print(f"{name}: {line}")
    else:
        got = end_to_end(run)
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
        else:
            run.problems.append(f"{name}: metric {m['name']} not measured")
    executions = sum(len(inst.samples) for inst in run.instances)
    print(
        f"{name} seed={args.seed}: {len(run.instances)} instances, "
        f"{run.attempted} operations, {len(run.failures)} failed "
        f"(fail_ratio {len(run.failures) / max(1, run.attempted):.4f})"
        + ("" if args.trace else f", {executions} timed executions")
    )
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:>16.6g} {m['unit']}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for problem in run.problems:
        print(f"WRONG {problem}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sparsempc" / "__init__.py").is_file():
        print(f"no sparsempc sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_coverage([m["name"] for m in spec["per_layer"]])
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["SPARSEMPC_NO_NUMBA"] = "1"  # the numpy lane is the one measured
    heap_kept = keep_freed_memory()
    sys.path.insert(0, str(src))
    import sparsempc

    if Path(sparsempc.__file__).resolve().parent != (src / "sparsempc").resolve():
        print(f"sparsempc imported from {sparsempc.__file__}, not {src}", file=sys.stderr)
        return 2

    env = environment(root, heap_kept)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, got = run_one(name, args, spec, root, env)
        correct = correct and not run.problems
        attempted += run.attempted
        failed += len(run.failures)
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update((prefix + key, m) for key, m in got.items())
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
