"""Experiment harness and command-line behavior."""

import csv
import inspect
import io
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import sparsempc
from sparsempc import cli, generators, harness, mpc, reduction
from sparsempc.graph import build_graph, load_graph
from sparsempc.runtime import ClusterConfig

from oracles import cycle, star


def _spec_doc(out=None):
    return {
        "instances": [
            {"family": "tree", "params": {"n": 60}, "seeds": [1, 2]},
            {"family": "grid", "params": {"rows": 6, "cols": 6}, "seeds": [0]},
        ],
        "pipeline": {"kind": "matching", "target_delta": 2, "delta": 0.5},
        "mode": "both",
        "out": out,
    }


# ---------------------------------------------------------------- spec


def test_spec_rejects_empty_instances():
    with pytest.raises(ValueError, match="no instances"):
        harness.ExperimentSpec(instances=[])


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        harness.ExperimentSpec(
            instances=[{"family": "tree", "params": {}, "seeds": [0]}],
            mode="fast",
        )


def test_spec_requires_explicit_seeds():
    with pytest.raises(ValueError, match="no explicit seeds"):
        harness.ExperimentSpec(instances=[{"family": "tree", "params": {"n": 10}}])


def test_spec_from_file(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(_spec_doc(out=str(tmp_path / "res"))))
    spec = harness.ExperimentSpec.from_file(p)
    assert spec.mode == "both"
    assert len(spec.instances) == 2
    assert spec.pipeline["kind"] == "matching"
    assert spec.out.endswith("res")


def test_spec_rejects_unknown_pipeline_key():
    # a misspelt setting must not run silently with its default
    # (here target_delta=2)
    doc = {**_spec_doc(), "pipeline": {"target": 5}}
    with pytest.raises(ValueError, match="unknown pipeline key 'target'"):
        harness.ExperimentSpec(**doc)


def test_spec_rejects_unknown_instance_key():
    doc = _spec_doc()
    doc["instances"][1]["seed"] = [3]
    with pytest.raises(ValueError, match="unknown instance key 'seed'"):
        harness.ExperimentSpec(**doc)


def test_spec_file_rejects_unknown_top_level_key(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({**_spec_doc(), "modes": "centralized"}))
    with pytest.raises(ValueError, match="unknown spec key 'modes'"):
        harness.ExperimentSpec.from_file(p)


def test_spec_accepts_every_key_the_runner_reads():
    pipeline = {"kind": "mis", "target_delta": 3, "d_floor": 3, "delta": 0.6, "c_total": 4.0}
    assert set(pipeline) == set(harness.PIPELINE_KEYS)
    inst = {"family": "tree", "params": {"n": 40}, "seeds": [0], "name": "t"}
    assert set(inst) == set(harness.INSTANCE_KEYS)
    (rec,) = harness.run(harness.ExperimentSpec(instances=[inst], pipeline=pipeline))
    assert rec.ok(), rec.invariants
    assert rec.kind == "mis" and rec.instance.startswith("t(")


def test_cli_run_rejects_unknown_pipeline_key(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({**_spec_doc(), "pipeline": {"target": 5}}))
    rc = cli.main(["run", "--spec", str(spec_path)])
    assert rc == 1
    assert "unknown pipeline key 'target'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,key",
    [
        ({}, "'instances'"),
        ([_spec_doc()], "JSON object"),
        ({"instances": {"family": "tree", "seeds": [0]}}, "'instances' must be a list"),
        ({"instances": ["tree"]}, "entry of 'instances'"),
        ({"instances": [{"params": {"n": 10}, "seeds": [0]}]}, "'family'"),
        ({"instances": [{"family": "tree", "params": [1], "seeds": [0]}]}, "'params'"),
        ({"instances": [{"family": "tree", "params": {"n": 10}, "seeds": 3}]}, "'seeds'"),
        ({"instances": [{"family": "tree", "params": {"n": 10}, "seeds": [1.5]}]}, "'seeds'"),
        ({"instances": [{"family": "tree", "params": {"n": 10}, "seeds": [True]}]}, "'seeds'"),
        ({**_spec_doc(), "pipeline": ["kind"]}, "'pipeline'"),
        ({"instances": [{"family": "tree", "seeds": [0], "name": []}]}, "'name'"),
        ({"instances": [{"family": "tree", "seeds": [0], "name": ""}]}, "'name'"),
        ({**_spec_doc(), "out": 5}, "'out'"),
    ],
    ids=[
        "no-instances", "not-an-object", "instances-object", "instance-not-object",
        "no-family", "params-list", "seeds-int", "seeds-float", "seeds-bool", "pipeline-list",
        "name-list", "name-empty", "out-int",
    ],
)
def test_cli_run_rejects_malformed_spec_in_one_line(tmp_path, capsys, monkeypatch, doc, key):
    # a name that is not a nonempty string was replaced by the family name,
    # and an "out" that is not a string ran every instance before it failed
    ran = []
    monkeypatch.setattr(harness, "_run_one", lambda *args: ran.append(args))
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(doc))
    rc = cli.main(["run", "--spec", str(spec_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsempc: error:") and err.count("\n") == 1
    assert key in err
    assert not ran


@pytest.mark.parametrize(
    "pipeline,key",
    [
        ({"kind": "Matching"}, "'kind'"),
        ({"kind": 1}, "'kind'"),
        ({"target_delta": 2.9}, "'target_delta'"),
        ({"target_delta": "3"}, "'target_delta'"),
        ({"target_delta": True}, "'target_delta'"),
        ({"d_floor": 3.0}, "'d_floor'"),
        ({"d_floor": False}, "'d_floor'"),
        ({"delta": None}, "'delta'"),
        ({"c_total": [4]}, "'c_total'"),
    ],
    ids=[
        "kind-case", "kind-int", "target-float", "target-str", "target-bool", "floor-float",
        "floor-bool", "delta-null", "c-total-list",
    ],
)
def test_spec_rejects_mistyped_pipeline_value(pipeline, key):
    # _run_one used to coerce: target_delta 2.9 ran as 2
    with pytest.raises(ValueError, match=f"pipeline key {key} must be"):
        harness.ExperimentSpec(**{**_spec_doc(), "pipeline": pipeline})


def test_spec_accepts_integral_numbers_and_no_floor():
    pipeline = {"delta": 1, "c_total": 4, "d_floor": None}
    spec = harness.ExperimentSpec(**{**_spec_doc(), "pipeline": pipeline})
    assert spec.pipeline == pipeline


def test_cli_run_rejects_mistyped_pipeline_value(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({**_spec_doc(), "pipeline": {"d_floor": "3"}}))
    rc = cli.main(["run", "--spec", str(spec_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsempc: error:") and err.count("\n") == 1
    assert "pipeline key 'd_floor' must be" in err


@pytest.mark.parametrize("key,value", [("exponent", 0.1), ("c_pre", 2.0), ("adaptive", False)])
def test_spec_rejects_the_settings_that_became_constants(key, value):
    # the peeling exponent and the preprocessing constant are the constants
    # reduction.EXPONENT and mpc.C_PRE, and the pipeline meters one regime:
    # a spec that still sets one of them is refused, even at the value the
    # run would take, rather than run without it
    with pytest.raises(ValueError, match=f"unknown pipeline key '{key}'"):
        harness.ExperimentSpec(**{**_spec_doc(), "pipeline": {key: value}})


def test_config_surfaces_name_the_same_settings(capsys):
    # the spec's pipeline table is the request of mpc_pipeline plus the
    # cluster of ClusterConfig.for_graph, and every settings flag of
    # compare names one of its keys: a setting added to one surface only
    # fails here
    request = set(inspect.signature(mpc.mpc_pipeline).parameters) - {"g", "cfg", "seed", "name"}
    cluster = set(inspect.signature(ClusterConfig.for_graph).parameters) - {"g"}
    assert request == {"kind", "target_delta", "d_floor"}
    assert set(harness.PIPELINE_KEYS) == request | cluster == set(harness.PIPELINE_DEFAULTS)
    with pytest.raises(SystemExit):
        cli.main(["compare", "--help"])
    flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
    settings = flags - {"help", "graph", "family", "params", "seed"}
    assert settings and {f.replace("-", "_") for f in settings} <= set(harness.PIPELINE_KEYS)


# ---------------------------------------------------------------- run


def test_run_records_and_cross_check():
    spec = harness.ExperimentSpec(**_spec_doc())
    records = harness.run(spec)
    assert len(records) == 3  # two tree seeds + one grid seed
    for r in records:
        assert r.ok(), r.invariants
        assert r.invariants["digests_equal"]
        assert r.digest_centralized == r.digest_mpc
        assert r.rounds is not None and r.rounds > 0
        assert r.peak_words is not None


@pytest.mark.parametrize("mode", harness.MODES)
def test_run_records_say_why_the_reduction_ended(mode):
    spec = harness.ExperimentSpec(**{**_spec_doc(), "mode": mode})
    for r in harness.run(spec):
        g = generators.generate(r.family, r.params, seed=r.seed)
        assert r.stop_reason == reduction.solve(g, "matching", 2, r.seed)[1].stop_reason


def test_run_is_deterministic():
    spec = harness.ExperimentSpec(**_spec_doc())
    a = [asdict(r) for r in harness.run(spec)]
    b = [asdict(r) for r in harness.run(spec)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_writes_stable_artifacts(tmp_path):
    out = tmp_path / "res"
    spec = harness.ExperimentSpec(**_spec_doc(out=str(out)))
    harness.run(spec)
    names = ("records.json", "report.csv", "summary.json")
    first = {n: (out / n).read_bytes() for n in names}
    assert all(first.values())
    harness.run(spec)  # rerun over the same directory
    for n in names:
        assert (out / n).read_bytes() == first[n]
    summary = json.loads(first["summary.json"])
    assert summary["all_pass"] is True
    assert summary["records"] == 3


def test_run_failure_names_the_instance():
    spec = harness.ExperimentSpec(
        instances=[{"family": "nosuch", "params": {}, "seeds": [4]}]
    )
    with pytest.raises(RuntimeError, match=r"instance nosuch\(\)#s4"):
        harness.run(spec)


def test_run_rejects_unknown_generator_parameter():
    spec = harness.ExperimentSpec(
        instances=[{"family": "tree", "params": {"n": 40, "foo": 1}, "seeds": [0]}]
    )
    with pytest.raises(RuntimeError, match="unknown tree parameter 'foo'"):
        harness.run(spec)


OUT_OF_RANGE = pytest.mark.parametrize(
    "pipeline,message",
    [
        ({"d_floor": 0}, "d_floor must be >= 1"),
        ({"target_delta": 0}, "target_delta must be >= 1"),
        ({"delta": 1.5}, r"delta must be in \(0, 1\]"),
        ({"c_total": 0}, "c_total must be a finite number > 0"),
    ],
    ids=["floor", "target", "delta", "c-total"],
)


@OUT_OF_RANGE
def test_run_rejects_a_pipeline_number_out_of_range(pipeline, message):
    # the spec itself is refused, by the checks the runs apply, so that no
    # instance is generated and solved before the bad number is found
    with pytest.raises(ValueError, match=message):
        harness.ExperimentSpec(
            instances=[{"family": "tree", "params": {"n": 40}, "seeds": [0]}], pipeline=pipeline
        )


@OUT_OF_RANGE
def test_cli_run_generates_no_instance_for_a_number_out_of_range(
    tmp_path, capsys, monkeypatch, pipeline, message
):
    generated = []
    monkeypatch.setattr(generators, "generate", lambda *args, **kwargs: generated.append(args))
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({**_spec_doc(), "pipeline": pipeline}))
    rc = cli.main(["run", "--spec", str(spec_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsempc: error:") and err.count("\n") == 1
    assert re.search(message, err)
    assert not generated


def test_centralized_only_mode_leaves_mpc_fields_empty():
    spec = harness.ExperimentSpec(**{**_spec_doc(), "mode": "centralized"})
    records = harness.run(spec)
    for r in records:
        assert r.digest_mpc is None
        assert r.rounds is None and r.peak_words is None
        assert r.invariants["maximal_centralized"]
        assert "digests_equal" not in r.invariants


# ---------------------------------------------------------------- 2-approx


def test_cover_from_cycle_matching_is_factor_two():
    g = cycle(4)
    sol, _ = reduction.solve(g, "matching", 2, seed=0)
    out = harness.derive_2approx(g, sol)
    # any maximal matching on C4 is perfect
    assert out["matching_size"] == 2
    assert out["cover_size"] == 4  # optimum vertex cover of C4 has 2 nodes
    assert sorted(out["vertex_cover"].tolist()) == [0, 1, 2, 3]


def test_cover_from_star_matching():
    g = star(5)
    sol, _ = reduction.solve(g, "matching", 2, seed=3)
    out = harness.derive_2approx(g, sol)
    assert out["matching_size"] == 1
    assert out["cover_size"] == 2  # optimum is the center alone
    assert 0 in out["vertex_cover"]


def test_cover_of_edgeless_graph_is_empty():
    g = build_graph(4, [])
    sol, _ = reduction.solve(g, "matching", 2, seed=0)
    out = harness.derive_2approx(g, sol)
    assert out["matching_size"] == 0 and out["cover_size"] == 0


def test_derivation_rejects_mis_solutions():
    g = star(3)
    sol, _ = reduction.solve(g, "mis", 2, seed=0)
    with pytest.raises(ValueError, match="needs a matching"):
        harness.derive_2approx(g, sol)


def test_derivation_rejects_non_maximal_matchings():
    g = cycle(4)
    empty = reduction.PartialSolution.empty("matching")
    with pytest.raises(ValueError, match="non-maximal"):
        harness.derive_2approx(g, empty)


# ---------------------------------------------------------------- report


def test_report_one_row_per_record():
    spec = harness.ExperimentSpec(**_spec_doc())
    records = harness.run(spec)
    csv_text, summary = harness.report(records)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row["instance"] == rec.instance
        assert int(row["rounds"]) == rec.rounds
        assert int(row["n"]) == rec.n
        assert ">" in row["phases"] or row["phases"] == ""
        assert "FAIL" not in row["invariants"]
    assert summary["all_pass"] and summary["records"] == len(records)
    assert summary["total_rounds"] == sum(r.rounds for r in records)


def test_report_accepts_plain_dict_rows():
    # the report verb reloads records from JSON, so dicts must work too
    spec = harness.ExperimentSpec(**{**_spec_doc(), "mode": "centralized"})
    rows = [asdict(r) for r in harness.run(spec)]
    csv_text, summary = harness.report(rows)
    parsed = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(parsed) == len(rows)
    assert all(p["rounds"] == "" for p in parsed)  # no simulated run
    assert summary["total_rounds"] == 0


def test_report_flags_failures():
    spec = harness.ExperimentSpec(**_spec_doc())
    rows = [asdict(r) for r in harness.run(spec)]
    rows[1]["invariants"]["maximal_mpc"] = False
    csv_text, summary = harness.report(rows)
    assert not summary["all_pass"]
    assert summary["failed"] == [rows[1]["instance"]]
    assert "maximal_mpc=FAIL" in csv_text


# ---------------------------------------------------------------- cli


def test_cli_parse_params():
    assert cli._parse_params("n=1000,d=3") == {"n": 1000, "d": 3}
    assert cli._parse_params("p=0.25") == {"p": 0.25}
    assert cli._parse_params(None) == {}
    with pytest.raises(SystemExit, match="key=value"):
        cli._parse_params("n:10")


@pytest.mark.parametrize("text, piece", [("n=", "n="), ("n=10,c=x", "c=x"), ("p=1e", "p=1e")])
def test_cli_parse_params_names_the_piece_that_is_not_a_number(text, piece):
    with pytest.raises(SystemExit) as exc:
        cli._parse_params(text)
    assert str(exc.value) == f"bad --params piece {piece!r}, expected a number after '='"


def test_cli_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = cli.main(
        ["generate", "--family", "tree", "--params", "n=50", "--seed", "2",
         "--out", str(out)]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 50 and info["family"] == "tree"
    g, meta = load_graph(out)
    assert g.n == 50 and g.m == info["m"]
    assert meta["seed"] == 2


def test_cli_run_and_report(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    out = tmp_path / "res"
    spec_path.write_text(json.dumps(_spec_doc()))
    rc = cli.main(["run", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["all_pass"] and summary["records"] == 3

    rep_out = tmp_path / "rep"
    rc = cli.main(
        ["report", "--records", str(out / "records.json"), "--out", str(rep_out)]
    )
    assert rc == 0
    assert (rep_out / "report.csv").read_text() == (out / "report.csv").read_text()


def test_cli_run_seed_override(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(_spec_doc()))
    rc = cli.main(
        ["run", "--spec", str(spec_path), "--mode", "centralized", "--seed", "9"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == 2  # one seed per instance now


def test_cli_compare_family(capsys):
    rc = cli.main(
        ["compare", "--family", "tree", "--params", "n=80", "--seed", "3",
         "--delta", "0.5"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equal"] and doc["maximal"]
    assert doc["violations"] == []
    g = generators.generate("tree", {"n": 80}, seed=3)
    assert doc["stop_reason"] == reduction.solve(g, "matching", 2, 3)[1].stop_reason


def test_cli_compare_checks_its_settings_before_any_work(capsys, monkeypatch):
    # compare used to solve the instance first and only then find that
    # --delta lies outside (0, 1]
    calls = []
    monkeypatch.setattr(reduction, "solve", lambda *args, **kwargs: calls.append(args))
    rc = cli.main(["compare", "--family", "tree", "--params", "n=300", "--delta", "1.5"])
    assert rc == 1
    assert capsys.readouterr().err == "sparsempc: error: delta must be in (0, 1], got 1.5\n"
    assert not calls


def test_cli_compare_graph_file(tmp_path, capsys):
    out = tmp_path / "g.edges"
    cli.main(["generate", "--family", "grid", "--params", "rows=5,cols=5",
              "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["compare", "--graph", str(out), "--kind", "mis"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["equal"]


def test_cli_compare_bad_edge_line_is_one_error_line(tmp_path, capsys):
    # an edge id past int64 names the file and the line, not a traceback
    out = tmp_path / "g.edges"
    out.write_text("3 2\n0 1\n0 99999999999999999999\n")
    rc = cli.main(["compare", "--graph", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"sparsempc: error: {out}: bad edge line 3\n"


def test_cli_generate_rejects_unknown_parameter(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = cli.main(
        ["generate", "--family", "tree", "--params", "n=10,foo=2", "--out", str(out)]
    )
    assert rc == 1
    assert "unknown tree parameter 'foo'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_rejects_non_integral_parameter(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = cli.main(["generate", "--family", "tree", "--params", "n=2.5", "--out", str(out)])
    assert rc == 1
    assert "parameter 'n' must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_without_required_parameter_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = cli.main(["generate", "--family", "tree", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "sparsempc: error: tree needs parameter 'n'\n"
    assert not out.exists()


def _tree_file(tmp_path, capsys):
    out = tmp_path / "t.edges"
    cli.main(["generate", "--family", "tree", "--params", "n=200", "--out", str(out)])
    capsys.readouterr()
    return str(out)


def test_cli_compare_graph_and_family_are_exclusive(tmp_path, capsys):
    graph = _tree_file(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--graph", graph, "--family", "grid", "--params", "rows=3,cols=3"])
    assert exc.value.code == 2
    assert "argument --family: not allowed with argument --graph" in capsys.readouterr().err


def test_cli_compare_params_need_family(tmp_path, capsys):
    graph = _tree_file(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--graph", graph, "--params", "rows=3,cols=3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "compare --params needs --family" in captured.err


def test_cli_compare_needs_a_graph_source(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--seed", "1"])
    assert exc.value.code == 2
    assert "--graph or --family" in capsys.readouterr().err


def test_cli_surfaces_model_errors_cleanly(capsys):
    # a star's hub row cannot fit one machine at this exponent; the capacity
    # rejection should come back as one error line and rc 1, not a traceback
    rc = cli.main(
        ["compare", "--family", "preferential-attachment",
         "--params", "n=800,c=2", "--seed", "5", "--delta", "0.3"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsempc: error:")
    assert "exceeds S" in err


def test_cli_missing_records_file_is_an_error_line(tmp_path, capsys):
    rc = cli.main(["report", "--records", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "sparsempc: error:" in capsys.readouterr().err


# ---------------------------------------------------------------- surface


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})  # its own asserts must hold
    assert capsys.readouterr().out.split()[-1] == "[]"  # no budget violations


def test_public_names_resolve_and_readme_lists_every_verb(capsys):
    names = sparsempc.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(sparsempc, n)] == []

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("sparsempc ")}
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    listed = set(usage.split("{", 1)[1].split("}", 1)[0].split(","))
    assert documented == listed
