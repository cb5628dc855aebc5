"""Command-line front end: generate corpora, run experiments, compare the two
execution paths on a single instance, and re-emit reports from saved records.

Exit status is nonzero exactly when an invariant check fails, so CI can gate
on it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generators, harness, mpc, reduction
from .graph import GraphError, load_graph, save_graph
from .peeling import StallError
from .runtime import ClusterConfig, MPCError


def _parse_params(text: str | None) -> dict:
    """``n=1000,d=3`` -> {"n": 1000, "d": 3}; values parse as int when they can."""
    out: dict = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece.strip():
            continue
        key, _, val = piece.partition("=")
        if not _:
            raise SystemExit(f"bad --params piece {piece!r}, expected key=value")
        try:
            out[key.strip()] = int(val)
        except ValueError:
            try:
                out[key.strip()] = float(val)
            except ValueError:
                raise SystemExit(
                    f"bad --params piece {piece!r}, expected a number after '='"
                ) from None
    return out


def _cmd_generate(args) -> int:
    g, meta = generators.generate(
        args.family, _parse_params(args.params), seed=args.seed, return_meta=True
    )
    save_graph(g, args.out, meta=meta)
    print(json.dumps({"out": args.out, "n": g.n, "m": g.m, **meta}, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    spec = harness.ExperimentSpec.from_file(args.spec)
    if args.out:
        spec.out = args.out
    if args.mode:
        spec.mode = args.mode
    if args.seed is not None:
        for inst in spec.instances:
            inst["seeds"] = [args.seed]
    records = harness.run(spec)
    _, summary = harness.report(records)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["all_pass"] else 1


def _cmd_compare(args) -> int:
    # the settings flags given, by the spec keys they name, checked and
    # completed as a spec's pipeline table is, before any graph is read
    given = {key: getattr(args, key, None) for key in harness.PIPELINE_KEYS}
    p = harness.check_pipeline({key: v for key, v in given.items() if v is not None})
    if args.graph:
        g, _meta = load_graph(args.graph)
    else:
        g = generators.generate(args.family, _parse_params(args.params), seed=args.seed)
    sol_c, rep = reduction.solve(g, p["kind"], p["target_delta"], args.seed, d_floor=p["d_floor"])
    cfg = ClusterConfig.for_graph(g, p["delta"], c_total=p["c_total"])
    sol_m, met = mpc.mpc_pipeline(g, cfg, p["kind"], p["target_delta"], args.seed, d_floor=p["d_floor"])
    dig_c = reduction.solution_digest(sol_c, args.seed)
    dig_m = reduction.solution_digest(sol_m, args.seed)
    maximal = reduction.verify_maximal(g, sol_m)
    ok = dig_c == dig_m and maximal and not met["violations"]
    print(
        json.dumps(
            {
                "n": g.n,
                "m": g.m,
                "digest_centralized": dig_c,
                "digest_mpc": dig_m,
                "equal": dig_c == dig_m,
                "maximal": maximal,
                "rounds": met["rounds"],
                "peak_words": met["peak_words"],
                "stop_reason": rep.stop_reason,
                "violations": met["violations"],
            },
            sort_keys=True,
        )
    )
    return 0 if ok else 1


def _cmd_report(args) -> int:
    with open(args.records) as fh:
        rows = json.load(fh)
    summary = harness.write_report(rows, args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["all_pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsempc",
        description="Degree-reduction pipelines for sparse graphs with metered cluster simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a corpus graph as an edge-list file")
    p.add_argument("--family", required=True, choices=generators.FAMILIES)
    p.add_argument("--params", help="comma-separated key=value generator parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("run", help="execute an experiment spec")
    p.add_argument("--spec", required=True, help="JSON experiment file")
    p.add_argument("--out", help="output directory (overrides the spec)")
    p.add_argument("--mode", choices=harness.MODES)
    p.add_argument("--seed", type=int, help="override every instance's seed list")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compare", help="run one instance both ways and diff digests")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", help="edge-list graph file (alternative to --family)")
    source.add_argument("--family", choices=generators.FAMILIES)
    p.add_argument("--params", help="generator parameters for --family, as for generate")
    p.add_argument("--seed", type=int, default=0)
    # the pipeline settings default to the spec's (harness.PIPELINE_DEFAULTS)
    p.add_argument("--kind", choices=reduction.KINDS)
    p.add_argument("--target-delta", type=int)
    p.add_argument("--d-floor", type=int)
    p.add_argument("--delta", type=float, help="memory exponent")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("report", help="rebuild CSV/summary from saved records")
    p.add_argument("--records", required=True, help="records.json from a run")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    if args.command == "compare":
        if not (args.graph or args.family):
            parser.error("compare needs --graph or --family")
        if args.params is not None and not args.family:
            parser.error("compare --params needs --family")
    try:
        return args.fn(args)
    except (MPCError, StallError, GraphError, ValueError, RuntimeError, OSError) as exc:
        # user-correctable problems (exponent too small for the graph, bad
        # spec file, missing path, ...) get one readable line, not a traceback
        print(f"sparsempc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
