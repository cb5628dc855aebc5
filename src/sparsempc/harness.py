"""Experiment runner: generate corpora, execute both pipeline flavors,
cross-check them, and emit machine-readable reports.

A spec file (JSON) names instances and pipeline parameters; ``run`` produces
one record per (instance, seed) with solution digests, metrics, and named
invariant checks, and persists everything under the output directory.  Reruns
of the same spec are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import generators, mpc, reduction
from .graph import Graph
from .peeling import degeneracy, suffix_decay_ok
from .runtime import ClusterConfig

MODES = ("centralized", "mpc", "both")
SPEC_KEYS = ("instances", "pipeline", "mode", "out")
INSTANCE_KEYS = ("family", "params", "seeds", "name")


def _reject_unknown(where: str, doc: dict, known: tuple) -> None:
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {where} key {key!r}; known keys: {', '.join(known)}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


# every setting _run_one reads -> (the check its value must pass, what it must be)
PIPELINE_TYPES = {
    "kind": (lambda x: x in reduction.KINDS, "'matching' or 'mis'"),
    "target_delta": (_is_int, "an integer"),
    "exponent": (_is_number, "a number"),
    "d_floor": (lambda x: x is None or _is_int(x), "an integer or null"),
    "delta": (_is_number, "a number"),
    "c_total": (_is_number, "a number"),
    "c_pre": (_is_number, "a number"),
    "adaptive": (lambda x: isinstance(x, bool), "true or false"),
}
PIPELINE_KEYS = tuple(PIPELINE_TYPES)


@dataclass
class ExperimentSpec:
    instances: list  # dicts: {"family", "params", "seeds": [..], "name"?}
    pipeline: dict = field(default_factory=dict)
    mode: str = "both"
    out: str | None = None

    def __post_init__(self):
        if not isinstance(self.instances, list):
            raise ValueError("spec key 'instances' must be a list of instance objects")
        if not self.instances:
            raise ValueError("experiment spec names no instances")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.pipeline, dict):
            raise ValueError("spec key 'pipeline' must be an object")
        _reject_unknown("pipeline", self.pipeline, PIPELINE_KEYS)
        for key, value in self.pipeline.items():
            ok, want = PIPELINE_TYPES[key]
            if not ok(value):
                raise ValueError(f"pipeline key {key!r} must be {want}, got {value!r}")
        for inst in self.instances:
            if not isinstance(inst, dict):
                raise ValueError(f"every entry of 'instances' must be an object, got {inst!r}")
            _reject_unknown("instance", inst, INSTANCE_KEYS)
            if "family" not in inst:
                raise ValueError(f"instance {inst!r} has no 'family'")
            if not isinstance(inst.get("params", {}), dict):
                raise ValueError(f"instance {inst['family']}: 'params' must be an object")
            seeds = inst.get("seeds")
            if not seeds:
                raise ValueError(f"instance {inst['family']} has no explicit seeds")
            if not isinstance(seeds, list) or not all(_is_int(x) for x in seeds):
                raise ValueError(
                    f"instance {inst['family']}: 'seeds' must be a list of ints, got {seeds!r}"
                )

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"spec file {path} must hold a JSON object")
        _reject_unknown("spec", doc, SPEC_KEYS)
        return cls(
            instances=doc.get("instances"),
            pipeline=doc.get("pipeline", {}),
            mode=doc.get("mode", "both"),
            out=doc.get("out"),
        )


@dataclass
class RunRecord:
    instance: str
    family: str
    params: dict
    seed: int
    n: int
    m: int
    degeneracy: int
    kind: str
    digest_centralized: str | None
    digest_mpc: str | None
    solution_size: int
    phases: list
    rounds: int | None
    peak_words: int | None
    invariants: dict  # name -> bool

    def ok(self) -> bool:
        return all(self.invariants.values())


def _instance_name(inst: dict, seed: int) -> str:
    base = inst.get("name") or inst["family"]
    parts = [f"{k}={inst['params'][k]}" for k in sorted(inst.get("params", {}))]
    return f"{base}({','.join(parts)})#s{seed}"


def _decay_holds(report: reduction.ReductionReport, lam: int) -> bool:
    """The layer-decay law of :func:`sparsempc.peeling.suffix_decay_ok` in
    every phase of ``report``; a stalled phase fails it."""
    return all(
        not ph.get("stalled") and suffix_decay_ok(ph["layer_sizes"], ph["d_used"], lam)
        for ph in report.phases
    )


def _run_one(inst: dict, seed: int, pipeline: dict, mode: str) -> RunRecord:
    g = generators.generate(inst["family"], inst.get("params", {}), seed=seed)
    kind = pipeline.get("kind", "matching")
    target = pipeline.get("target_delta", 2)
    exponent = float(pipeline.get("exponent", 0.1))
    d_floor = pipeline.get("d_floor")
    lam = degeneracy(g).degeneracy
    inv: dict = {}
    dig_c = dig_m = None
    phases: list = []
    rounds = peak = None
    size = 0

    sol_c = rep_c = None
    if mode in ("centralized", "both"):
        sol_c, rep_c = reduction.solve(
            g, kind, target, seed, exponent=exponent, d_floor=d_floor
        )
        dig_c = reduction.solution_digest(sol_c, seed)
        inv["maximal_centralized"] = reduction.verify_maximal(g, sol_c)
        inv["layer_decay"] = _decay_holds(rep_c, lam)
        phases = rep_c.spec_rows()
        size = int(sol_c.selected.shape[0])
    if mode in ("mpc", "both"):
        delta = float(pipeline.get("delta", 0.5))
        cfg = ClusterConfig.for_graph(g, delta, c_total=float(pipeline.get("c_total", 4.0)))
        sol_m, met = mpc.mpc_pipeline(
            g,
            cfg,
            kind,
            target,
            seed,
            exponent=exponent,
            d_floor=d_floor,
            c_pre=float(pipeline.get("c_pre", 2.0)),
            adaptive=pipeline.get("adaptive", False),
            name=_instance_name(inst, seed),
        )
        dig_m = reduction.solution_digest(sol_m, seed)
        inv["maximal_mpc"] = reduction.verify_maximal(g, sol_m)
        inv["no_budget_violations"] = not met["violations"]
        rounds, peak = met["rounds"], met["peak_words"]
        if not phases:
            phases = reduction.ReductionReport(met["phases"]).spec_rows()
        size = int(sol_m.selected.shape[0])
    if mode == "both":
        inv["digests_equal"] = dig_c == dig_m
    return RunRecord(
        instance=_instance_name(inst, seed),
        family=inst["family"],
        params=dict(inst.get("params", {})),
        seed=seed,
        n=g.n,
        m=g.m,
        degeneracy=lam,
        kind=kind,
        digest_centralized=dig_c,
        digest_mpc=dig_m,
        solution_size=size,
        phases=phases,
        rounds=rounds,
        peak_words=peak,
        invariants=inv,
    )


def run(spec: ExperimentSpec) -> list[RunRecord]:
    """One record per (instance, seed); failures carry the instance name."""
    records = []
    for inst in spec.instances:
        for seed in inst["seeds"]:
            try:
                records.append(_run_one(inst, int(seed), spec.pipeline, spec.mode))
            except Exception as exc:
                raise RuntimeError(f"instance {_instance_name(inst, seed)}: {exc}") from exc
    if spec.out:
        os.makedirs(spec.out, exist_ok=True)
        with open(os.path.join(spec.out, "records.json"), "w") as fh:
            json.dump([asdict(r) for r in records], fh, indent=1, sort_keys=True)
            fh.write("\n")
        write_report(records, spec.out)
    return records


def write_report(records: list, out: str) -> dict:
    """Write ``report.csv`` and ``summary.json`` of :func:`report` into the
    directory ``out`` (created if missing); returns the summary."""
    csv_text, summary = report(records)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.csv"), "w") as fh:
        fh.write(csv_text)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def derive_2approx(g: Graph, sol: reduction.PartialSolution) -> dict:
    """Maximal matching -> factor-2 approximations: the matching itself for
    maximum matching, the set of matched endpoints for minimum vertex cover."""
    if sol.kind != "matching":
        raise ValueError("2-approximation derivation needs a matching solution")
    if not reduction.verify_maximal(g, sol):
        raise ValueError("refusing to derive guarantees from a non-maximal matching")
    cover = np.unique(sol.selected) if sol.selected.size else np.empty(0, np.int64)
    return {
        "matching_size": int(sol.selected.shape[0]),
        "vertex_cover": cover,
        "cover_size": int(cover.size),
    }


_CSV_COLS = (
    "instance", "n", "m", "degeneracy", "kind", "phases", "rounds",
    "peak_words", "solution_size", "digest_centralized", "digest_mpc", "invariants",
)


def report(records: list) -> tuple[str, dict]:
    """CSV (one row per record) plus a summary dict.

    The per-phase degree trajectory is packed into one column as
    ``before>after`` pairs separated by ``;`` so the schema stays fixed no
    matter how many phases a run took.
    """
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=_CSV_COLS, lineterminator="\n")
    w.writeheader()
    for r in records:
        r = asdict(r) if isinstance(r, RunRecord) else r
        w.writerow(
            {
                "instance": r["instance"],
                "n": r["n"],
                "m": r["m"],
                "degeneracy": r["degeneracy"],
                "kind": r["kind"],
                "phases": ";".join(
                    f"{p.get('delta_before')}>{p.get('delta_after')}" for p in r["phases"]
                ),
                "rounds": "" if r["rounds"] is None else r["rounds"],
                "peak_words": "" if r["peak_words"] is None else r["peak_words"],
                "solution_size": r["solution_size"],
                "digest_centralized": r["digest_centralized"] or "",
                "digest_mpc": r["digest_mpc"] or "",
                "invariants": ";".join(
                    f"{k}={'pass' if v else 'FAIL'}" for k, v in sorted(r["invariants"].items())
                ),
            }
        )
    rows = [asdict(r) if isinstance(r, RunRecord) else r for r in records]
    failed = [r["instance"] for r in rows if not all(r["invariants"].values())]
    summary = {
        "records": len(rows),
        "failed": failed,
        "all_pass": not failed,
        "total_rounds": sum(r["rounds"] or 0 for r in rows),
        "max_peak_words": max((r["peak_words"] or 0 for r in rows), default=0),
        "kinds": sorted({r["kind"] for r in rows}),
    }
    return buf.getvalue(), summary
