"""The benchmark's traced run must still find, and reach, every layer it wraps.

``perfbench/tracer.py`` binds its wrappers to module attributes by name
(``reduction.reduce_once``, ``mpc.mpc_select``, ...).  Loading it here, read
only, makes a rename or removal of a traced layer fail the test suite
instead of only the traced benchmark run.  An attribute that exists but is
no longer called (the work moved into a private helper) reads 0 seconds in
the traced run, so the reduction layers are also called through here.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sparsempc  # noqa: F401  (imports every module the tracer looks in)
from sparsempc import rng
from sparsempc.generators import generate
from sparsempc.reduction import degree_reduce, solve

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
    _, view, _ = degree_reduce(g, "matching", 2, seed=seed, d_floor=7)
    alive, finish_seed = view.alive.copy(), rng.derive_seed(seed, rng.FINISH_PHASE)
    rounds = edges = 0
    while won := oracles.luby_matching_round_by_edge(view.graph, alive, finish_seed, rounds):
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
