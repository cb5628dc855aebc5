"""The benchmark's traced run must still find every layer it wraps.

``perfbench/tracer.py`` binds its wrappers to module attributes by name
(``reduction.reduce_once``, ``mpc.mpc_select``, ...).  Loading it here, read
only, makes a rename or removal of a traced layer fail the test suite
instead of only the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import sparsempc  # noqa: F401  (imports every module the tracer looks in)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_a_call_site_for_every_layer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    sites = tracer.Tracer("check")._find_sites()
    assert {layer for layer, *_ in sites} == set(tracer.LAYERS)
    for _layer, owner, name, original in sites:
        assert getattr(owner, name) is original
