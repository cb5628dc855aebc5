"""In-memory span tracer for the benchmark's traced run.

Each layer is measured from outside: its public functions are wrapped where
their callers look them up.  The package imports most kernels by name
(``from .kernels import peel_layers``), so replacing ``kernels.peel_layers``
alone would miss every call; instead every module attribute that *is* the
original function object gets the wrapper, and methods are wrapped on their
class.  Nothing under ``src/`` is edited; the wrappers are installed only for
traced work and removed afterwards, so untraced work runs the pristine code.

A span records (name, start, end, parent, workload, instance, count); spans
stay in memory until :meth:`Tracer.dump` writes them once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass

# layer name -> the (module, attribute) pairs whose calls the layer covers;
# "Class.method" wraps a method on its class
LAYERS = {
    "generators.generate": [("sparsempc.generators", "generate")],
    "kernels.degeneracy_order": [("sparsempc.kernels", "degeneracy_order")],
    "kernels.peel_layers": [("sparsempc.kernels", "peel_layers")],
    "kernels.ball_stats": [("sparsempc.kernels", "ball_stats")],
    "kernels.pack_bins": [("sparsempc.kernels", "pack_bins")],
    "graph.compact": [("sparsempc.graph", "GraphView.compact")],
    "peeling.h_partition": [("sparsempc.peeling", "h_partition")],
    "reduction.reduce_once": [("sparsempc.reduction", "reduce_once")],
    "reduction.mark_and_propose": [
        ("sparsempc.reduction", "mark_and_propose_matching"),
        ("sparsempc.reduction", "mark_and_propose_mis"),
    ],
    "reduction.select": [
        ("sparsempc.reduction", "select_matching"),
        ("sparsempc.reduction", "select_mis"),
    ],
    "reduction.finish_greedy": [("sparsempc.reduction", "finish_greedy")],
    "reduction.merge": [("sparsempc.reduction", "PartialSolution.merge")],
    "reduction.luby_round": [
        ("sparsempc.reduction", "luby_matching_round"),
        ("sparsempc.reduction", "luby_mis_round"),
    ],
    "mpc.mpc_pipeline": [("sparsempc.mpc", "mpc_pipeline")],
    "mpc.mpc_h_partition": [("sparsempc.mpc", "mpc_h_partition")],
    "mpc.gather_and_peel": [("sparsempc.mpc", "gather_and_peel")],
    "mpc.connect_cliques": [("sparsempc.mpc", "connect_cliques")],
    "mpc.mpc_mark_propose": [("sparsempc.mpc", "mpc_mark_propose")],
    "mpc.mpc_select": [("sparsempc.mpc", "mpc_select")],
    "runtime.init_cluster": [("sparsempc.runtime", "init_cluster")],
    "runtime.rebalance": [("sparsempc.runtime", "rebalance")],
    "runtime.round": [
        ("sparsempc.runtime", "Cluster.execute_round_bulk"),
        ("sparsempc.runtime", "Cluster.execute_round_volumes"),
        ("sparsempc.runtime", "Cluster.control_rounds"),
    ],
}

# layer name -> (parameter name or None for the return value, reader): the
# work a call carries, summed into the span's ``count``
COUNTERS = {
    "kernels.ball_stats": ("sources", len),
    "kernels.pack_bins": ("weights", len),
    # a repetition is productive when it layered at least one node
    "mpc.gather_and_peel": (None, lambda out: int((out[0] > 0).any())),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    workload: str
    instance: str
    count: int = 0


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sites: list | None = None  # (layer, owner, attribute, original)

    def _open(self, name: str, instance: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.workload, instance))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, instance: str):
        """A root span opened by the benchmark around one call into the package."""
        idx = self._open(name, instance)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        sig = inspect.signature(fn) if counter and counter[0] else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            instance = self.spans[self._stack[-1]].instance if self._stack else ""
            idx = self._open(layer, instance)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                param, read = counter
                value = out if param is None else sig.bind(*args, **kwargs).arguments[param]
                self.spans[idx].count = int(read(value))
            return out

        return traced

    def _find_sites(self) -> list:
        """Every (layer, owner, attribute, original) a wrapper must replace."""
        sites = []
        for layer, targets in LAYERS.items():
            found = 0
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    sites.append((layer, cls, meth, cls.__dict__[meth]))
                    found += 1
                    continue
                original = getattr(module, attr)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "sparsempc" and not mod_name.startswith("sparsempc."):
                        continue
                    for name, value in vars(mod).items():
                        if value is original:
                            sites.append((layer, mod, name, original))
                            found += 1
            if not found:
                raise RuntimeError(f"no call site found for layer {layer}")
        return sites

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore."""
        if self._sites is None:
            self._sites = self._find_sites()
        wrapped = {}
        try:
            for layer, owner, name, original in self._sites:
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(layer, original)
                setattr(owner, name, wrapped[id(original)])
            yield
        finally:
            for _layer, owner, name, original in self._sites:
                setattr(owner, name, original)

    def call_sites(self) -> list[str]:
        """Where the wrappers bind, as 'layer <- module.attribute' lines."""
        if self._sites is None:
            self._sites = self._find_sites()
        return sorted(
            f"{layer} <- {getattr(owner, '__name__', owner)}.{name}"
            for layer, owner, name, _ in self._sites
        )

    def layer_table(self) -> dict:
        """(instance, root span name, layer) -> [self seconds, calls, count].

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        root = [""] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
                root[i] = root[s.parent]  # parents are recorded before children
            else:
                root[i] = s.name
        table: dict = defaultdict(lambda: [0.0, 0, 0])
        for i, s in enumerate(self.spans):
            row = table[(s.instance, root[i], s.name)]
            row[0] += (s.end - s.start) - child[i]
            row[1] += 1
            row[2] += s.count
        return dict(table)

    def dump(self, path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "env": env,
            "call_sites": self.call_sites(),
            "fields": list(Span.__dataclass_fields__),
            "spans": [astuple(s) for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
