"""The benchmark's traced run must still find, and reach, every layer it wraps.

``perfbench/tracer.py`` binds its wrappers to module attributes by name
(``reduction.reduce_once``, ``mpc.mpc_select``, ...).  Loading it here, read
only, makes a rename or removal of a traced layer fail the test suite
instead of only the traced benchmark run.  An attribute that exists but is
no longer called (the work moved into a private helper) reads 0 seconds in
the traced run, so the reduction layers are also called through here.  The
repetition counter behind ``mpc.gather_and_peel.productive_ratio`` is
applied to a metered run's repetitions, so it keeps counting what it says.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sparsempc  # noqa: F401  (imports every module the tracer looks in)
from sparsempc import mpc, rng
from sparsempc.generators import generate
from sparsempc.reduction import degree_reduce, solve
from sparsempc.runtime import ClusterConfig

import oracles

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_a_call_site_for_every_layer(tracer):
    sites = tracer.Tracer("check")._find_sites()
    assert {layer for layer, *_ in sites} == set(tracer.LAYERS)
    for _layer, owner, name, original in sites:
        assert getattr(owner, name) is original


def _resolve(module_name, attr):
    """The function object a LAYERS entry names (a method: off its class)."""
    *cls, name = attr.split(".")
    owner = sys.modules[module_name]
    return vars(getattr(owner, cls[0]) if cls else owner)[name]


def _finish_rounds(g, seed):
    """``(rounds that select, edges they select)`` in the matching finish of
    ``solve(g, "matching", 2, seed, d_floor=7)``, replayed with the
    edge-by-edge oracle round."""
    _, (_, ids), _ = degree_reduce(g, "matching", 2, seed=seed, d_floor=7)
    alive, finish_seed = oracles.alive_mask(g.n, ids), rng.derive_seed(seed, rng.FINISH_PHASE)
    rounds = edges = 0
    while won := oracles.luby_matching_round_by_edge(g, alive, finish_seed, rounds):
        alive[np.array(won).ravel()] = False
        rounds += 1
        edges += len(won)
    return rounds, edges


def test_solve_reaches_every_traced_reduction_layer(tracer, monkeypatch):
    # Wrap every call site of the traced sparsempc.reduction functions, as
    # the tracer does, with a call counter; one matching and one
    # independent-set solve must call each of them, and the matching finish
    # calls its round once per round that selects plus the final empty one.
    g = generate("preferential-attachment", {"n": 400, "c": 3}, seed=1)
    rounds, finish_edges = _finish_rounds(g, 3)
    assert rounds >= 2 and finish_edges > rounds  # not vacuous

    wanted = {}
    for entries in tracer.LAYERS.values():
        for module_name, attr in entries:
            if module_name == "sparsempc.reduction":
                wanted[id(_resolve(module_name, attr))] = attr
    calls = Counter()
    sizes = []
    for _layer, owner, name, original in tracer.Tracer("check")._find_sites():
        if id(original) not in wanted:
            continue

        def counted(*args, _fn=original, _attr=wanted[id(original)], **kwargs):
            calls[_attr] += 1
            out = _fn(*args, **kwargs)
            if _attr == "luby_matching_round":
                sizes.append(len(out))
            return out

        monkeypatch.setattr(owner, name, counted)

    solve(g, "matching", 2, 3, d_floor=7)
    assert calls["luby_matching_round"] == rounds + 1
    assert sizes[-1] == 0 and sum(sizes) == finish_edges
    solve(generate("tree", {"n": 2000}, seed=2), "mis", 2, 3)
    assert set(calls) == set(wanted.values())


def test_mpc_pipeline_reaches_every_traced_mpc_and_runtime_layer(tracer, monkeypatch):
    # As above for the cluster run: one independent-set and one matching
    # mpc_pipeline must call every traced sparsempc.mpc and
    # sparsempc.runtime function through a site the tracer wraps, except
    # connect_cliques, which runs only when balls double.  A meter that
    # stopped calling a bound name would read 0 seconds in the traced run.
    wanted = {}
    for layer, entries in tracer.LAYERS.items():
        if layer.split(".")[0] in ("mpc", "runtime") and layer != "mpc.connect_cliques":
            for module_name, attr in entries:
                wanted[id(_resolve(module_name, attr))] = attr
    calls = Counter()
    for _layer, owner, name, original in tracer.Tracer("check")._find_sites():
        if id(original) not in wanted:
            continue

        def counted(*args, _fn=original, _attr=wanted[id(original)], **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for family, params, kind, delta in (
        ("tree", {"n": 2000}, "mis", 0.5),
        ("preferential-attachment", {"n": 400, "c": 3}, "matching", 0.8),
    ):
        g = generate(family, params, seed=2)
        mpc.mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, 3)
    assert set(calls) == set(wanted.values())


def test_repetition_counter_reads_productive_and_silent_repetitions(tracer, monkeypatch):
    # The traced benchmark's productive_ratio sums the tracer's reader over
    # every gather_and_peel output.  On a metered doubling run it must count
    # one productive repetition per chunk, and none of the silent
    # repetitions that the fixed budget runs once the phase is empty.
    from test_golden_metering import GOLDEN

    param, read = tracer.COUNTERS["mpc.gather_and_peel"]
    assert param is None  # it reads the return value
    reads, silent, chunks = [], [0], [0]
    gather_and_peel, mpc_h_partition = mpc.gather_and_peel, mpc.mpc_h_partition

    def counted_rep(cluster, layers, done, radius, **kwargs):
        silent[0] += layers.live(done) == 0
        out = gather_and_peel(cluster, layers, done, radius, **kwargs)
        reads.append(int(read(out)))
        return out

    def counted_partition(*args, **kwargs):
        out = mpc_h_partition(*args, **kwargs)
        chunks[0] += len(out[0])
        return out

    monkeypatch.setattr(mpc, "gather_and_peel", counted_rep)
    monkeypatch.setattr(mpc, "mpc_h_partition", counted_partition)
    case = next(p.values[0] for p in GOLDEN if p.id == "layered-core-matching-doubling")
    family, params, seed, kind, delta, d_floor = case
    g = generate(family, params, seed=seed)
    mpc.mpc_pipeline(g, ClusterConfig.for_graph(g, delta), kind, 2, seed, d_floor=d_floor)
    productive = sum(reads)
    assert productive == chunks[0] > 0
    assert len(reads) - productive == silent[0] > 0
