"""One workload run: set-up, both executions, every output check, and the
metrics computed from them.

Imported by ``run.py`` only after it has pinned the thread variables and put
the checkout's ``src`` on the import path.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from sparsempc import generators, mpc, peeling, reduction
from sparsempc.peeling import StallError
from sparsempc.runtime import BudgetError, CapacityError, ClusterConfig

from speed import Probes, nominal
from tracer import LAYERS, Tracer
from workloads import DEFAULT_SEED, TARGET_DELTA, Workload

FAILURES = (StallError, CapacityError, BudgetError)
COUNTS = ("rounds", "partition_rounds", "peak_words", "total_messages")
SETUP_LAYERS = ("generators.generate", "kernels.degeneracy_order")
RUNTIME_LAYERS = ("runtime.init_cluster", "runtime.rebalance", "runtime.round")
LABEL_PREFIX = "runtime.rounds_by_label."

median = statistics.median


@dataclass
class Instance:
    name: str
    seed: int
    graph: object
    fingerprint: dict
    outcome: dict | None = None  # digest and model counts of the first execution
    samples: list = field(default_factory=list)  # execute() results


@dataclass
class Run:
    name: str
    workload: Workload
    tracer: Tracer | None
    attempted: int = 0
    failures: list = field(default_factory=list)  # operations that raised
    problems: list = field(default_factory=list)  # failed output checks
    setup_s: list = field(default_factory=list)  # at nominal machine speed
    reference: Instance | None = None  # the pinned default-seed instance
    instances: list = field(default_factory=list)
    overhead: list = field(default_factory=list)  # traced / untraced execution time
    traced_mpc_s: dict = field(default_factory=dict)  # unit -> traced mpc seconds

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def set_up(w: Workload, seed: int):
    """The instance preparation ``sparsempc generate`` / ``run`` pay."""
    g = generators.generate(w.family, w.params, seed=seed)
    k = peeling.degeneracy(g).degeneracy
    return g, {"n": g.n, "m": g.m, "max_degree": g.max_degree(), "degeneracy": k}


def _root(run: Run, name: str, unit: str | None):
    return run.tracer.span(name, unit) if unit is not None else nullcontext()


def _operation(run: Run, inst: Instance, name: str, fn, unit: str | None):
    """One timed call into the package.  Returns ``(result, seconds)``, or
    ``(None, None)`` when it raised one of the package's failures."""
    run.attempted += 1
    try:
        t0 = time.perf_counter()
        with _root(run, name, unit):
            out = fn()
        return out, time.perf_counter() - t0
    except FAILURES as exc:
        run.failures.append(f"{inst.name}: {name} raised {type(exc).__name__}: {exc}")
        return None, None


def execute(run: Run, inst: Instance, unit: str | None = None, probes: Probes | None = None):
    """Solve the instance both ways and check every output.  Returns
    ``(solve_s, mpc_s, mpc_s / solve_s)``, or None when an operation failed.
    ``unit`` names the traced root spans (None runs untraced).  With
    ``probes`` each time is scaled to nominal machine speed by the array
    probes around it; the ratio stays a ratio of the raw times."""
    w, g, seed = run.workload, inst.graph, inst.seed
    cfg = ClusterConfig.for_graph(g, w.delta)
    probe = probes.time if probes else lambda kind: 1.0
    p0 = probe("array")
    sol, solve_s = _operation(
        run, inst, "solve",
        lambda: reduction.solve(g, w.kind, TARGET_DELTA, seed, d_floor=w.d_floor)[0],
        unit,
    )
    if sol is None:
        return None
    p1 = probe("array")
    res, mpc_s = _operation(
        run, inst, "mpc",
        lambda: mpc.mpc_pipeline(g, cfg, w.kind, TARGET_DELTA, seed, d_floor=w.d_floor),
        unit,
    )
    if res is None:
        return None
    p2 = probe("array")
    msol, met = res

    digest = reduction.solution_digest(sol, seed)
    run.check(
        reduction.solution_digest(msol, seed) == digest,
        f"{inst.name}: cluster digest differs from the reference digest",
    )
    run.check(reduction.verify_maximal(g, sol), f"{inst.name}: reference solution not maximal")
    run.check(reduction.verify_maximal(g, msol), f"{inst.name}: cluster solution not maximal")
    run.check(not met["violations"], f"{inst.name}: budget violations {met['violations']}")
    run.check(
        met["peak_words"] <= met["S"],
        f"{inst.name}: peak_words {met['peak_words']} > S = {met['S']}",
    )
    outcome = {"digest": digest, "rounds_by_label": met["rounds_by_label"]}
    outcome.update((k, met[k]) for k in COUNTS)
    if inst.outcome is None:
        inst.outcome = outcome
    else:
        run.check(
            outcome == inst.outcome,
            f"{inst.name}: digest or model counts differ between repeats"
            + (" (traced vs untraced)" if unit is not None else ""),
        )
    if probes:
        return nominal("array", solve_s, p0, p1), nominal("array", mpc_s, p1, p2), mpc_s / solve_s
    return solve_s, mpc_s, mpc_s / solve_s


def check_fingerprint(run: Run) -> None:
    """Build and solve the default-seed instance and compare it with the
    pinned fingerprint.  Also warms every code path before timing starts."""
    w = run.workload
    g, fp = set_up(w, DEFAULT_SEED)
    inst = Instance(f"{run.name}[default seed={DEFAULT_SEED}]", DEFAULT_SEED, g, fp)
    if execute(run, inst) is None:
        return
    run.reference = inst
    fp["digest"] = inst.outcome["digest"]
    for key, pinned in w.fingerprint.items():
        run.check(
            fp[key] == pinned,
            f"{inst.name}: fingerprint {key} = {fp[key]!r}, pinned {pinned!r}",
        )


def measure(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Cycle through the run's instances until ``seconds`` have passed (every
    instance at least once).  A cycle sets the instance up afresh, then solves
    it both ways, so set-up and execution samples interleave over the whole
    run.  An untraced run scales every sample to nominal machine speed; a
    traced run executes each instance untraced and then traced."""
    run = Run(name, w, Tracer(name) if trace else None)
    probes = None if trace else Probes()
    check_fingerprint(run)
    seeds = instance_seeds(seed, w.instances)
    start = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        j, passes = i % len(seeds), i // len(seeds)
        label = f"{name}[{j} seed={seeds[j]}]"
        unit = f"{label}/{passes}"
        if trace:
            with run.tracer.installed(), run.tracer.span("setup", unit):
                g, fp = set_up(w, seeds[j])
        else:
            before = probes.time("interp")
            t0 = time.perf_counter()
            g, fp = set_up(w, seeds[j])
            setup_s = time.perf_counter() - t0
            run.setup_s.append(nominal("interp", setup_s, before, probes.time("interp")))
        if passes == 0:
            run.instances.append(Instance(label, seeds[j], g, fp))
        inst = run.instances[j]
        run.check(
            fp == inst.fingerprint and np.array_equal(g.indices, inst.graph.indices),
            f"{label}: the same seed built a different graph",
        )
        inst.graph = g
        plain = execute(run, inst, probes=probes)
        if plain is not None and not trace:
            inst.samples.append(plain)
        if plain is not None and trace:
            with run.tracer.installed():
                traced = execute(run, inst, unit)
            if traced is not None:
                run.overhead.append(sum(traced[:2]) / sum(plain[:2]))
                run.traced_mpc_s[unit] = traced[1]
        i += 1
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    """Timings: medians over every set-up and execution of the run, at
    nominal machine speed (see ``speed.py``).  Model counts: those of the
    default-seed instance, which repeat exactly on every run, so a change to
    the metering shows in full instead of drowning in graph-to-graph
    variation (hub degrees, phase counts)."""
    done = [inst for inst in run.instances if inst.samples]
    if not done or run.reference is None:
        return {}
    samples = [x for inst in done for x in inst.samples]
    out = {
        "setup_s": median(run.setup_s),
        "solve_s": median(x[0] for x in samples),
        "mpc_s": median(x[1] for x in samples),
        "mpc_overhead_x": median(x[2] for x in samples),
    }
    for key in COUNTS:
        out[key] = run.reference.outcome[key]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _units(table: dict, setup: bool) -> list:
    return sorted({u for (u, root, _) in table if (root == "setup") == setup})


def _per_unit(table: dict, unit: str, roots, layer: str) -> list:
    row = [0.0, 0, 0]
    for root in roots:
        got = table.get((unit, root, layer))
        if got:
            row = [a + b for a, b in zip(row, got)]
    return row


def per_layer(run: Run, names: list) -> dict:
    """Self time, calls and work counts per layer, each the median over traced
    units: one unit is one set-up, or one execution of an instance.  Rounds
    by label cover every label seen and every label ``names`` asks for."""
    if not run.overhead:
        return {}  # no traced execution succeeded
    table = run.tracer.layer_table()
    setup_units, exec_units = _units(table, True), _units(table, False)
    out: dict = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            units, roots = setup_units, ("setup",)
        else:
            units, roots = exec_units, ("solve", "mpc")
        rows = [_per_unit(table, u, roots, layer) for u in units]
        by_instance: dict = {}
        for u, (_, calls, count) in zip(units, rows):
            by_instance.setdefault(u.rsplit("/", 1)[0], set()).add((calls, count))
        run.check(
            all(len(v) == 1 for v in by_instance.values()),
            f"{run.name}: {layer} call counts differ between repeats of an instance",
        )
        out[f"{layer}.self_s"] = median(r[0] for r in rows)
        out[f"{layer}.calls"] = median(r[1] for r in rows)
        if layer == "kernels.ball_stats":
            out[f"{layer}.sources"] = median(r[2] for r in rows)
        if layer == "kernels.pack_bins":
            out[f"{layer}.items"] = median(r[2] for r in rows)
        if layer == "mpc.gather_and_peel":
            out[f"{layer}.productive_ratio"] = median(r[2] / r[1] if r[1] else 0.0 for r in rows)
    out["runtime.metering_share"] = median(
        sum(_per_unit(table, u, ("mpc",), layer)[0] for layer in RUNTIME_LAYERS) / mpc_s
        for u, mpc_s in run.traced_mpc_s.items()
    )
    done = [inst for inst in run.instances if inst.outcome]
    labels = {lab for inst in done for lab in inst.outcome["rounds_by_label"]}
    labels.update(n[len(LABEL_PREFIX):] for n in names if n.startswith(LABEL_PREFIX))
    for lab in sorted(labels):
        out[LABEL_PREFIX + lab] = median(inst.outcome["rounds_by_label"].get(lab, 0) for inst in done)
    out["trace.overhead_ratio"] = median(run.overhead)
    return out


def purpose(run: Run) -> str | None:
    """Whether the traced run shows the layer the workload was chosen for
    leading the self time.  A timing comparison, so it is reported rather
    than made part of ``correct``."""
    w = run.workload
    if w.dominant is None:
        return None
    root, want = w.dominant
    roots = ("solve", "mpc") if root is None else (root,)
    table = run.tracer.layer_table()
    units = _units(table, False)
    self_s = {
        layer: median(_per_unit(table, u, roots, layer)[0] for u in units)
        for layer in LAYERS
        if layer not in SETUP_LAYERS
    }
    first, second = sorted(self_s, key=self_s.get, reverse=True)[:2]
    verdict = "confirmed" if first == want else f"NOT confirmed, expected {want}"
    return (
        f"largest self time in {'+'.join(roots)}: {first} {self_s[first]:.3f} s, "
        f"next {second} {self_s[second]:.3f} s ({verdict})"
    )
