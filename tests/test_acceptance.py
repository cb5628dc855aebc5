"""Acceptance scorecard: the nine guarantees the package is sold on.

Each test prints one `[criterion N] PASS/FAIL` line straight to the
terminal (bypassing capture) so a full run doubles as a checklist.  Every
numeric pin below sits next to the value measured on this implementation;
the tolerance is the contract, the measurement is why it is believable.
"""

import math
import time
from unittest import mock

import numpy as np
import pytest

from conftest import fitting_delta, realize, valid_d
from oracles import ball_peel, from_mask, opt_matching, opt_vertex_cover, sweep_layers
from sparsempc import mpc
from sparsempc.generators import generate
from sparsempc.graph import GraphView
from sparsempc.harness import derive_2approx
from sparsempc.peeling import degeneracy, h_partition, layer_decay_ok
from sparsempc.reduction import reduce_once, solution_digest, solve, verify_maximal
from sparsempc.runtime import ClusterConfig, init_cluster, metrics

# -- pinned tolerances, each next to the value measured on this code --------
PARTITION_TIME_BUDGET_S = 600.0  # measured ~5 s for the 200-graph corpus
AUDIT_SAMPLE = 4                 # nodes per chunk from its top layer, the layer above, anywhere
GADGET_FAILURE_TOL = 0.01        # measured 0 failures in 100_000 parent trials
MIS_FIX_RATE_MIN = 0.95          # measured 1.0
MIS_JOIN_BAND = 0.20             # measured mean 20.16 vs expectation 20.38
VIRTUAL_EDGE_CONSTANT = 4.0      # measured max total/alive ratio 2.74, shrinking with n
ROUND_FIT_MIN_R2 = 0.90          # measured 0.9022 on the pinned scaling grid
RESIDUAL_TREND_MAX = 0.5         # measured -0.75 (residuals shrink as n grows)

SCALING_EXPONENTS = (10, 12, 14, 16, 18, 20)
SCALING_DELTAS = (0.3, 0.5, 0.8)


@pytest.fixture
def announce(capsys):
    """Print a verdict line (plus optional detail rows) past pytest's capture."""

    def _line(num: int, ok: bool, detail: str, extra: list[str] | None = None) -> None:
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
            for row in extra or ():
                print(f"    {row}", flush=True)

    return _line


def _tower(n: int):
    """Deep layered-core instance whose peel count grows like log log n."""
    depth = round(33 * math.log2(math.log2(n)))
    return generate("layered-core", {"n": n, "depth": depth, "d": 3}, seed=1)


@pytest.fixture(scope="session")
def scaling_grid():
    """One metered partition per (n, delta) cell of the pinned scaling grid.

    Shared by the memory criterion (virtual-edge ratios, violations) and the
    round-complexity criterion (round counts), so the expensive runs happen
    once.
    """
    rows = []
    vmax_by_exp: dict[int, float] = {}
    for ne in SCALING_EXPONENTS:
        g = _tower(2 ** ne)
        for delta in SCALING_DELTAS:
            cfg = ClusterConfig.for_graph(g, delta, c_total=3.0)
            cl = init_cluster(g, cfg)
            sched = mpc.compute_schedule(g.max_degree(), cfg.S, g.n, delta)
            hp = h_partition(g, 3)
            layers = mpc._LayerMap(g, np.arange(g.n), hp)
            _, stats = mpc.mpc_h_partition(cl, layers, sched, adaptive=True)
            met = metrics(cl)
            rows.append(
                {
                    "log2n": ne,
                    "delta": delta,
                    "rounds": cl.round_idx,
                    "violations": len(met["violations"]),
                    "peak_ok": met["peak_words"] <= cfg.S,
                }
            )
            for e in stats["iterations"]:
                if e.get("radius", 1) >= 2 and "virtual_added_total" in e:
                    ratio = e["virtual_added_total"] / max(1, stats["alive_start"])
                    vmax_by_exp[ne] = max(vmax_by_exp.get(ne, 0.0), ratio)
    return {"rows": rows, "vmax_by_exp": vmax_by_exp}


@pytest.fixture(scope="session")
def pipeline_sweep(pipeline_corpus):
    """Both solvers, both executions, 50 seeds per instance and kind."""
    records = []
    for spec in pipeline_corpus:
        g = realize(spec)
        cfg = ClusterConfig.for_graph(g, spec["delta"], c_total=4.0)
        for kind in ("matching", "mis"):
            for seed in range(50):
                sol_c, _ = solve(g, kind, 2, seed)
                sol_m, met = mpc.mpc_pipeline(g, cfg, kind, 2, seed, adaptive=True)
                records.append(
                    {
                        "instance": f"{spec['family']}/{kind}#s{seed}",
                        "maximal_centralized": verify_maximal(g, sol_c),
                        "maximal_mpc": verify_maximal(g, sol_m),
                        "digests_equal": solution_digest(sol_c, 0) == solution_digest(sol_m, 0),
                        "violations": len(met["violations"]),
                        "peak_ok": met["peak_words"] <= met["S"],
                    }
                )
    return records


def _audit_repetitions(g, d, delta, adaptive, rng, counts):
    """Locality audit of one metered partition of ``g``.  For every chunk
    ``(hi, radius)``, nodes left at its repetition's start are sampled,
    :data:`AUDIT_SAMPLE` each from its top layer, from the layer above it
    (if any) and from all of them.  Each learns its layer from the rows of
    its alive radius ball alone (:func:`oracles.ball_peel`), and must read
    its centralized layer relative to the chunk if the chunk removes it,
    else "deeper".  Tallies ``[repetitions, nodes]`` per radius into
    ``counts`` and returns the number of mismatches."""
    hp = h_partition(g, d)
    cfg = ClusterConfig.for_graph(g, delta, c_total=4.0)
    cl = init_cluster(g, cfg)
    sched = mpc.compute_schedule(g.max_degree(), cfg.S, g.n, delta)
    layers = mpc._LayerMap(g, np.arange(g.n), hp)
    chunks, _ = mpc.mpc_h_partition(cl, layers, sched, adaptive=adaptive)
    layer = hp.layer
    bad = 0
    done = 0
    for hi, radius in chunks:
        alive = layer > done
        pick = [
            rng.choice(part, min(AUDIT_SAMPLE, part.size), replace=False)
            for part in (np.flatnonzero(layer == hi), np.flatnonzero(layer == hi + 1),
                         np.flatnonzero(alive))
        ]
        nodes = np.unique(np.concatenate(pick))
        for v in nodes.tolist():
            # the chunk's nodes read their layer in it, the others "deeper"
            want = int(layer[v]) - done if layer[v] <= hi else 0
            bad += ball_peel(g, alive, v, radius, d) != want
        tally = counts.setdefault(radius, [0, 0])
        tally[0] += 1
        tally[1] += nodes.size
        done = hi
    return bad


def test_cluster_partition_equals_reference_on_corpus(partition_corpus, announce):
    """Criterion 1: every metered repetition removes the layers its nodes
    can compute from their gathered balls (locality audit), whole corpus
    plus the golden doubling instance."""
    from test_golden_metering import GOLDEN

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    counts: dict = {}
    mismatches = 0
    for spec in partition_corpus:
        g = realize(spec)
        mismatches += _audit_repetitions(g, valid_d(g), fitting_delta(g, 0.5), True, rng, counts)
    doubling = next(p.values[0] for p in GOLDEN if p.id == "layered-core-matching-doubling")
    family, params, seed, _, delta, d_floor, adaptive = doubling
    g = generate(family, params, seed=seed)
    mismatches += _audit_repetitions(g, d_floor, delta, adaptive, rng, counts)
    elapsed = time.perf_counter() - t0
    doubled = sum(reps for radius, (reps, _) in counts.items() if radius >= 2)
    ok = mismatches == 0 and doubled > 0 and elapsed < PARTITION_TIME_BUDGET_S
    announce(
        1,
        ok,
        f"{mismatches} ball-local layers disagree with the reference in "
        f"{len(partition_corpus) + 1} metered partitions, {elapsed:.1f}s "
        f"(budget {PARTITION_TIME_BUDGET_S:.0f}s)",
        extra=[f"radius {r}: {reps} repetitions, {nodes} nodes audited"
               for r, (reps, nodes) in sorted(counts.items())],
    )
    assert mismatches == 0
    assert doubled > 0
    assert elapsed < PARTITION_TIME_BUDGET_S


def _recorded_selections(g, cfg, kind, seed, d_floor, adaptive):
    """Run :func:`mpc.mpc_pipeline` and keep, per phase record it meters
    with a selection, what the selection audit reads: the phase subgraph,
    its partition and proposals, the selection, and the chunks in the order
    the selection meter visits them, read off its rounds (the members of
    each ``select`` volume round, in the phase subgraph's ids).  Returns
    them and the run's partition stats."""
    phases = []
    meter_phase = mpc.mpc_phase

    def recording(cluster, ph, **kwargs):
        with mock.patch.object(cluster, "execute_round_volumes", wraps=cluster.execute_round_volumes) as rounds:
            stats = meter_phase(cluster, ph, **kwargs)
        if ph.sol is not None:
            visited = [
                np.searchsorted(ph.ids, call.args[0])
                for call in rounds.call_args_list
                if call.kwargs["label"] == "select"
            ]
            phases.append((ph.sub, ph.hp, ph.props, ph.sol, visited))
        return stats

    with mock.patch.object(mpc, "mpc_phase", recording):
        _, met = mpc.mpc_pipeline(g, cfg, kind, 2, seed, d_floor=d_floor, adaptive=adaptive)
    return phases, met["partition_stats"]


def _audit_selection(sub, hp, props, sol, visited):
    """Locality audit of one metered selection.  Each chunk, in the order
    the meter visits it, recomputes its commits from the proposals whose
    layer lies in the chunk and the fates committed by the chunks visited
    before it (:func:`oracles.sweep_layers`); they must be ``sol``
    restricted to the chunk, and the fates at the end ``sol.removed``.
    Returns ``(mismatches, chunks spanning more than one layer)``."""
    alive = np.ones(sub.n, np.bool_)
    sel = sol.selected
    sel_layer = hp.layer[sel[:, 1]] if sol.kind == "matching" else hp.layer[sel]
    bad = wide = 0
    for members in visited:
        lo, hi = int(hp.layer[members].min()), int(hp.layer[members].max())
        # a chunk's members are all the nodes of its layers
        bad += members.size != int(((hp.layer >= lo) & (hp.layer <= hi)).sum())
        wide += hi > lo
        got = sweep_layers(sub, hp, props, alive, lo, hi)
        bad += not np.array_equal(got, sel[(sel_layer >= lo) & (sel_layer <= hi)])
    # the chunks tile the phase, and their fates are the selection's
    bad += not np.array_equal(np.sort(np.concatenate(visited)), np.arange(sub.n))
    bad += not np.array_equal(np.flatnonzero(~alive), sol.removed)
    return bad, wide


def test_cluster_selection_commits_chunk_by_chunk(announce):
    """Criterion 1, selection half: the selection meter walks the chunks in
    an order in which each chunk's commits follow from the proposals of its
    own layers and the fates the chunks before it committed, on every
    metered phase of the golden instances and of an independent set run
    with ball doubling (k >= 1)."""
    from test_golden_metering import GOLDEN

    cases = [(p.id, p.values[0]) for p in GOLDEN]
    cases.append((
        "layered-core-mis-doubling",
        ("layered-core", {"n": 1024, "depth": 100, "d": 3}, 0, "mis", 0.8, 3, False),
    ))
    mismatches = 0
    rows = []
    doubled_wide = 0
    for name, (family, params, seed, kind, delta, d_floor, adaptive) in cases:
        g = generate(family, params, seed=seed)
        phases, partition_stats = _recorded_selections(
            g, ClusterConfig.for_graph(g, delta), kind, seed, d_floor, adaptive
        )
        chunks = wide = winners = 0
        for phase in phases:
            bad, w = _audit_selection(*phase)
            mismatches += bad
            chunks += len(phase[4])
            wide += w
            winners += len(phase[3].selected)
        if any(s["k"] is not None and s["k"] >= 1 for s in partition_stats):
            doubled_wide += wide
        rows.append(f"{name}: {len(phases)} phases, {chunks} chunks audited "
                    f"({wide} of several layers), {winners} winners")
    ok = mismatches == 0 and doubled_wide > 0
    announce(1, ok, f"{mismatches} chunk selections disagree with the reference sweep "
                    f"in {len(cases)} metered runs", extra=rows)
    assert mismatches == 0
    assert doubled_wide > 0


def test_layer_tails_decay_geometrically(partition_corpus, announce):
    """Criterion 2: |layers >= i+1| <= (2*lam/d)|layers >= i| when d > 2*lam."""
    bad = 0
    checked = 0
    for spec in partition_corpus:
        g = realize(spec)
        lam = degeneracy(g).degeneracy
        for d in (2 * lam + 1, 4 * lam):
            if not layer_decay_ok(h_partition(g, d), lam):
                bad += 1
            checked += 1
    ok = bad == 0
    announce(2, ok, f"decay law holds in {checked - bad}/{checked} partitions "
                    f"(two thresholds per corpus graph)")
    assert bad == 0


def test_matching_round_clears_heavy_parents(announce):
    """Criterion 3: planted in-degree-d^4 nodes are removed or degree-stripped."""
    parents, per, decoys, d = 100, 256, 3, 4
    g = generate(
        "matching-gadget",
        {"parents": parents, "children": per, "decoys": decoys},
        seed=0,
    )
    child0 = parents + parents * decoys
    assert g.n == child0 + parents * per
    failures = 0
    trials = 0
    for seed in range(1000):
        ph, _ = reduce_once(*GraphView.full(g).compact(), "matching", d, seed)
        alive = np.ones(g.n, np.bool_)  # the phase subgraph is the whole graph
        alive[ph.sol.removed] = False
        kid_alive = alive[child0:].reshape(parents, per).sum(axis=1)
        failures += int((alive[:parents] & (kid_alive >= per)).sum())
        trials += parents
    rate = failures / trials
    ok = rate <= GADGET_FAILURE_TOL
    announce(3, ok, f"{failures}/{trials} heavy parents survived untouched "
                    f"(rate {rate:.5f}, tolerance {GADGET_FAILURE_TOL})")
    assert rate <= GADGET_FAILURE_TOL


def test_mis_round_settles_heavy_parents(announce):
    """Criterion 4: heavy nodes get removed/stripped and the planted cliques
    contribute the predicted number of independent-set joiners."""
    parents, cliques, csize, d = 4, 125, 5, 5
    per = cliques * csize
    g = generate(
        "mis-gadget",
        {"parents": parents, "cliques": cliques, "clique_size": csize},
        seed=0,
    )
    p = 1.0 / d ** 2
    expect = per * p * (1 - p) ** d
    fixed = 0
    join_sum = 0
    trials = 0
    for seed in range(1000):
        ph, _ = reduce_once(*GraphView.full(g).compact(), "mis", d, seed)
        alive = np.ones(g.n, np.bool_)  # the phase subgraph is the whole graph
        alive[ph.sol.removed] = False
        sel = np.zeros(g.n, np.bool_)
        sel[ph.sol.selected] = True
        kid_alive = alive[parents:].reshape(parents, per).sum(axis=1)
        fixed += int((~alive[:parents] | (kid_alive < per)).sum())
        join_sum += int(sel[parents:].sum())
        trials += parents
    fix_rate = fixed / trials
    mean_join = join_sum / trials
    lo, hi = expect * (1 - MIS_JOIN_BAND), expect * (1 + MIS_JOIN_BAND)
    ok = fix_rate >= MIS_FIX_RATE_MIN and lo <= mean_join <= hi
    announce(4, ok, f"fix rate {fix_rate:.4f} (min {MIS_FIX_RATE_MIN}); joiners/parent "
                    f"{mean_join:.3f} vs expected {expect:.3f} in [{lo:.2f}, {hi:.2f}]")
    assert fix_rate >= MIS_FIX_RATE_MIN
    assert lo <= mean_join <= hi


def test_solutions_maximal_and_identical_across_executions(pipeline_sweep, announce):
    """Criterion 5: every run of either solver, in either execution, is a
    maximal solution, and the cluster output matches the reference bit-for-bit."""
    bad = [
        r["instance"]
        for r in pipeline_sweep
        if not (r["maximal_centralized"] and r["maximal_mpc"] and r["digests_equal"])
    ]
    ok = not bad
    announce(5, ok, f"{len(pipeline_sweep) - len(bad)}/{len(pipeline_sweep)} runs maximal "
                    f"with equal digests (6 instances x 2 kinds x 50 seeds)"
                    + (f"; first bad: {bad[0]}" if bad else ""))
    assert not bad


def test_memory_budgets_and_virtual_edge_constant(pipeline_sweep, scaling_grid, announce):
    """Criterion 6: no budget violations anywhere, and the clique connector's
    virtual edges stay under a recorded constant times the alive count."""
    sweep_viol = sum(r["violations"] for r in pipeline_sweep)
    grid_viol = sum(r["violations"] for r in scaling_grid["rows"])
    peak_bad = [r for r in pipeline_sweep if not r["peak_ok"]]
    peak_bad += [r for r in scaling_grid["rows"] if not r["peak_ok"]]
    ratios = scaling_grid["vmax_by_exp"]
    exps = sorted(ratios)
    worst = max(ratios.values())
    head = max(ratios[e] for e in exps[:3])
    tail = max(ratios[e] for e in exps[-3:])
    table = [f"n=2^{e:<2d}  max virtual-edges / alive = {ratios[e]:.4f}" for e in exps]
    runs = len(pipeline_sweep) + len(scaling_grid["rows"])
    ok = (
        sweep_viol + grid_viol == 0
        and not peak_bad
        and worst <= VIRTUAL_EDGE_CONSTANT
        and tail <= head
    )
    announce(6, ok, f"{sweep_viol + grid_viol} budget violations in {runs} metered runs; "
                    f"virtual-edge constant {worst:.3f} <= {VIRTUAL_EDGE_CONSTANT} and "
                    f"non-increasing in n", extra=table)
    assert sweep_viol + grid_viol == 0
    assert not peak_bad
    assert worst <= VIRTUAL_EDGE_CONSTANT
    assert tail <= head


def test_alive_set_shrinks_doubly_exponentially(announce):
    """Criterion 7: once d >= (2*lam)^2, the alive count entering iteration i
    is at most (n/Delta)/Delta^(2^i).

    At these sizes the first iteration's 60 peel repetitions already empty the
    graph (per-repetition decay is >= 2x under the precondition), so the later
    iterations run with zero alive nodes: the bound holds with room to spare
    rather than being exercised near its edge.
    """
    n = 4096
    g = generate("tree", {"n": n}, seed=4)
    delta_max = g.max_degree()
    lam = degeneracy(g).degeneracy
    d = 4
    assert d >= (2 * lam) ** 2
    cfg = ClusterConfig.for_graph(g, 0.9, c_total=4.0)
    cl = init_cluster(g, cfg)
    sched = mpc.compute_schedule(delta_max, cfg.S, g.n, 0.9, c_pre=0.0)
    assert sched.k is not None
    _, stats = mpc.mpc_h_partition(
        cl, mpc._LayerMap(g, np.arange(g.n), h_partition(g, d)), sched, adaptive=False
    )
    later = [e for e in stats["iterations"] if e["iteration"] >= 1]
    rows = []
    bad = 0
    for e in later:
        bound = (n / delta_max) / delta_max ** (2 ** e["iteration"])
        rows.append(f"iteration {e['iteration']}: alive {e['alive_before']} <= {bound:.2f}")
        if e["alive_before"] > bound:
            bad += 1
    ok = stats["k"] >= 1 and bool(later) and bad == 0 and not cl.violations
    announce(7, ok, f"radius-doubling schedule k={stats['k']}, {len(later)} later "
                    f"iterations all within the shrink bound", extra=rows)
    assert stats["k"] >= 1
    assert later
    assert bad == 0
    assert not cl.violations


def test_round_count_scales_like_loglog_over_delta(scaling_grid, announce):
    """Criterion 8: measured rounds fit a*(1/delta)*log2 log2 n + b well, with
    no upward residual trend in n."""
    rows = scaling_grid["rows"]
    xs = np.array([(1.0 / r["delta"]) * math.log2(r["log2n"]) for r in rows])
    ys = np.array([float(r["rounds"]) for r in rows])
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    pred = design @ coef
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    resid = ys - pred
    log2n = np.array([float(r["log2n"]) for r in rows])
    trend = float(np.corrcoef(resid, log2n)[0, 1])
    table = [
        f"n=2^{r['log2n']:<2d} delta={r['delta']:.1f} x={x:7.3f} rounds={r['rounds']:5d}"
        for r, x in zip(rows, xs)
    ]
    table.append(f"fit: rounds ~ {coef[0]:.1f} * (1/delta) * log2 log2 n + {coef[1]:.1f}")
    ok = len(rows) == 18 and r2 >= ROUND_FIT_MIN_R2 and trend <= RESIDUAL_TREND_MAX
    announce(8, ok, f"R^2 = {r2:.4f} (min {ROUND_FIT_MIN_R2}); residual-vs-log2(n) "
                    f"correlation {trend:+.3f} (max {RESIDUAL_TREND_MAX:+.1f})", extra=table)
    assert len(rows) == 18
    assert r2 >= ROUND_FIT_MIN_R2
    assert trend <= RESIDUAL_TREND_MAX


def test_two_approximations_against_brute_force(announce):
    """Criterion 9: derived vertex cover <= 2*OPT and matching >= OPT/2,
    exhaustively for n <= 5 and on seeded samples for n = 6..14."""
    import random

    bad = 0
    checked = 0
    for n in range(2, 6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            g = from_mask(n, mask)
            sol, _ = solve(g, "matching", 2, 0)
            der = derive_2approx(g, sol)
            if not (
                der["cover_size"] <= 2 * opt_vertex_cover(g)
                and 2 * der["matching_size"] >= opt_matching(g)
            ):
                bad += 1
            checked += 1
    exhaustive = checked
    for n in range(6, 15):
        nbits = n * (n - 1) // 2
        for gseed in range(20):
            mask = random.Random(1000 * n + gseed).getrandbits(nbits)
            g = from_mask(n, mask)
            ovc = opt_vertex_cover(g)
            om = opt_matching(g)
            for seed in (0, 1, 2):
                sol, _ = solve(g, "matching", 2, seed)
                der = derive_2approx(g, sol)
                if not (der["cover_size"] <= 2 * ovc and 2 * der["matching_size"] >= om):
                    bad += 1
                checked += 1
    ok = bad == 0
    announce(9, ok, f"{checked - bad}/{checked} guarantee checks hold "
                    f"({exhaustive} exhaustive graphs with n <= 5, "
                    f"{checked - exhaustive} sampled runs with n = 6..14)")
    assert bad == 0
