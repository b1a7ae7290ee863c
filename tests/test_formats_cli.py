import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

from blockeq import cli, formats, oracle
from blockeq.characterization import generate_with_alphamin
from blockeq.families import path_graph, triangle_with_pendant_edge
from blockeq.gls import BinPackingInstance
from blockeq.graph import from_edge_list

SCHEMAS = Path(__file__).parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def validator(name):
    resources = [
        (p.name, Resource.from_contents(json.loads(p.read_text()), default_specification=DRAFT7))
        for p in SCHEMAS.glob("*.schema.json")
    ]
    registry = Registry().with_resources(resources)
    return jsonschema.Draft7Validator(load_schema(name), registry=registry)


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "blockeq.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


class TestFormats:
    def test_graph_json_round_trip_up_to_relabeling(self, graphs_up_to_7, tmp_path):
        for g in graphs_up_to_7[30:60]:
            d = formats.graph_to_json_dict(g)
            back = formats.graph_from_json_dict(json.loads(json.dumps(d)))
            assert oracle.canonical_form(back) == oracle.canonical_form(g)

    def test_edge_list_text(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("4\n0 1\n1 2\n2 3\n")
        g = formats.load_graph(p)
        assert g.n == 4 and g.edge_count() == 3

    def test_graph_json_validates(self):
        v = validator("graph")
        v.validate(formats.graph_to_json_dict(triangle_with_pendant_edge()))

    def test_certificate_round_trip(self):
        _, cert = generate_with_alphamin(3, max_clique=3, seed=11)
        d = formats.certificate_to_json_dict(cert)
        validator("certificate").validate(d)
        back = formats.certificate_from_json_dict(json.loads(json.dumps(d)))
        assert back == cert

    @settings(max_examples=60, deadline=None)
    @given(
        attachments=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=3)),
            max_size=8,
        ),
        labelled=st.booleans(),
    )
    def test_graph_json_round_trip_is_identity(self, attachments, labelled):
        # grow a block graph by gluing cliques onto existing vertices
        n, edges = 1, []
        for anchor, extra in attachments:
            clique = [anchor % n] + list(range(n, n + extra))
            edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
            n += extra
        labels = [f"v{i}" for i in range(n)] if labelled else None
        g = from_edge_list(n, edges, labels)
        back = formats.graph_from_json_dict(json.loads(json.dumps(formats.graph_to_json_dict(g))))
        assert back == g
        assert back.edges() == g.edges()
        assert back.labels == g.labels

    def test_dot_export_mentions_all_edges(self):
        dot = formats.graph_to_dot(path_graph(3))
        assert "0 -- 1" in dot and "1 -- 2" in dot


@pytest.fixture()
def graph_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(formats.graph_to_json_dict(triangle_with_pendant_edge())))
    return p


@pytest.fixture()
def instance_file(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(BinPackingInstance((3, 3, 3, 3), 3, 4).to_json_dict()))
    return p


class TestCli:
    def test_validate_ok(self, graph_file):
        proc = run_cli("validate", str(graph_file))
        assert proc.returncode == 0
        validator("validate_output").validate(json.loads(proc.stdout))

    def test_validate_bad_graph_exits_one(self, tmp_path):
        p = tmp_path / "c4.json"
        p.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}')
        proc = run_cli("validate", str(p))
        assert proc.returncode == 1
        out = json.loads(proc.stdout)
        assert out["valid"] is False and len(out["witness"]) == 2

    def test_params_schema(self, graph_file):
        proc = run_cli("params", str(graph_file))
        assert proc.returncode == 0
        validator("params").validate(json.loads(proc.stdout))

    def test_levels_schema(self, graph_file):
        proc = run_cli("levels", str(graph_file))
        assert proc.returncode == 0
        validator("levels_output").validate(json.loads(proc.stdout))

    def test_ais_flags(self, graph_file):
        proc = run_cli("ais", str(graph_file), "--w", "3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ais"] is True

    def test_char_gen_decompose_verify_pipeline(self, tmp_path):
        proc = run_cli("char", "gen", "--r", "3", "--seed", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        validator("certificate").validate(payload["certificate"])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(payload["certificate"]))
        proc = run_cli("char", "verify", str(cert_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

        graph_file = tmp_path / "gen.json"
        graph_file.write_text(json.dumps(payload["graph"]))
        proc = run_cli("char", "decompose", str(graph_file))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["found"] and out["certificate"]["r"] == 3

    def test_gls_build_and_color(self, instance_file):
        proc = run_cli("gls", "build", str(instance_file))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["n_vertices"] == 68 and out["alpha_min"] == 17

        proc = run_cli(
            "gls", "color-uniform", "--a", "3", "--n", "4", "--k", "3", "--B", "4", "--t", "5"
        )
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        validator("coloring").validate(out["coloring"])
        validator("count_matrix").validate(out["matrix"])
        assert out["check"] == {"proper": True, "equitable": True}

        proc = run_cli("gls", "color-n2", str(instance_file))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["t"] == 6 and out["check"]["equitable"]

    def test_exact_commands(self, graph_file, instance_file, tmp_path):
        proc = run_cli("exact", "chi-eq", str(graph_file))
        assert json.loads(proc.stdout)["chi_eq"] == 3

        proc = run_cli("exact", "spectrum", str(graph_file))
        validator("spectrum").validate(json.loads(proc.stdout))

        proc = run_cli("exact", "dc", str(graph_file))
        assert json.loads(proc.stdout)["dc"] == 1

        proc = run_cli("exact", "binpack", str(instance_file))
        out = json.loads(proc.stdout)
        assert proc.returncode == 0 and out["yes"] is False

    def test_enumerate_with_dump(self, tmp_path):
        out_dir = tmp_path / "graphs"
        proc = run_cli("enumerate", "--max-n", "4", "--out", str(out_dir))
        assert proc.returncode == 0
        counts = json.loads(proc.stdout)["counts"]
        assert counts == {"1": 1, "2": 1, "3": 2, "4": 4}
        dumped = sorted(out_dir.glob("*.json"))
        assert len(dumped) == 8
        v = validator("graph")
        for f in dumped:
            v.validate(json.loads(f.read_text()))

    def test_verify_sweep_report(self):
        proc = run_cli("verify", "dc-le-alphamin", "--max-n", "6")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        validator("sweep_report").validate(report)
        assert report["violations"] == []
        assert report["scope"]["graph_count"] == 39

    def test_verify_sweep_parallel_matches(self):
        for check in ("conjecture", "dc-le-alphamin", "characterization"):
            a = run_cli("verify", check, "--max-n", "7", "--jobs", "1")
            b = run_cli("verify", check, "--max-n", "7", "--jobs", "2")
            assert a.returncode == b.returncode == 0, check
            ra, rb = json.loads(a.stdout), json.loads(b.stdout)
            assert ra["violations"] == rb["violations"] == [], check
            assert ra["scope"] == rb["scope"], check
            assert ra["scope"]["graph_count"] == 98, check

    @pytest.mark.parametrize("kind", [1, 3, 4, 5])
    def test_char_verify_unknown_anchor_is_a_replay_failure(self, tmp_path, kind):
        base = {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3]]}
        step = {"kind": kind, "anchors": [99], "sizes": [2], "extension": None}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(
            {"base_graph": base, "base_vertex": 0, "r": 2, "steps": [step]}
        ))
        proc = run_cli("char", "verify", str(cert))
        assert proc.returncode == 1, proc.stderr
        out = json.loads(proc.stdout)
        assert out["ok"] is False and out["step_index"] == 0
        assert out["reason"].startswith("replay failure: anchor-unknown")

    def test_params_on_pendant_family(self, tmp_path):
        from blockeq.families import clique_with_pendant_cliques

        p = tmp_path / "fam.json"
        p.write_text(json.dumps(formats.graph_to_json_dict(clique_with_pendant_cliques(2))))
        proc = run_cli("params", str(p))
        out = json.loads(proc.stdout)
        assert out["alpha_min"] == 4 and out["window"] == [3, 4]

    def test_usage_error_exit_two(self, tmp_path):
        missing = tmp_path / "nope.json"
        proc = run_cli("params", str(missing))
        assert proc.returncode == 2

    @pytest.mark.parametrize("args, option", [
        (["verify", "conjecture", "--max-n", "4", "--jobs", "0"], "--jobs"),
        (["verify", "conjecture", "--max-n", "4", "--jobs", "-2"], "--jobs"),
        (["enumerate", "--max-n", "-3"], "--max-n"),
        (["verify", "conjecture", "--max-n", "-1"], "--max-n"),
    ], ids=["zero-jobs", "negative-jobs", "negative-enumerate-max-n", "negative-verify-max-n"])
    def test_non_positive_count_exits_two(self, args, option):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stdout
        assert f"argument {option}: expected an integer >= 1" in proc.stderr

    @pytest.mark.parametrize("graph, problem", [
        ({"n": -2, "edges": []}, "vertex count must be a nonnegative integer"),
        ({"n": 2.5, "edges": [[0, 1]]}, "vertex count must be a nonnegative integer"),
        ({"n": 2, "edges": [[0, True]]}, "vertex id that is not an integer"),
        ({"n": 2, "edges": [[0, 1.5]]}, "vertex id that is not an integer"),
        ({"n": 2, "edges": [[0, 1]], "labels": ["a"]}, "1 labels for 2 vertices"),
        ({"n": 2, "edges": [[0, 1, 1]]}, "edge [0, 1, 1] is not a pair of vertex ids"),
        ({"n": 2, "edges": [[0]]}, "edge [0] is not a pair of vertex ids"),
        ({"n": 2, "edges": [5]}, "edge 5 is not a pair of vertex ids"),
        ({"n": 2, "edges": 5}, "edges must be a list of vertex pairs, got 5"),
        ({"n": 2, "edges": [[0, 1]], "labels": 7}, "labels must be a list, got 7"),
    ], ids=["negative-n", "fractional-n", "bool-vertex", "float-vertex", "short-labels",
            "triple-edge", "single-edge", "scalar-edge", "scalar-edges", "scalar-labels"])
    def test_bad_graph_input_exits_two(self, tmp_path, graph, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(graph))
        proc = run_cli("params", str(p))
        assert proc.returncode == 2
        assert problem in proc.stderr

    @pytest.mark.parametrize("instance, problem", [
        ({"A": [1, 1], "k": 2.7, "B": 1}, "k must be an integer, got 2.7"),
        ({"A": [1, 1], "k": True, "B": 1}, "k must be an integer, got True"),
        ({"A": [1, 1], "k": 2, "B": "1"}, "B must be an integer, got '1'"),
        ({"A": [1, "1"], "k": 2, "B": 1}, "A must be a list of integers, got [1, '1']"),
        ({"A": [1, 1.0], "k": 2, "B": 1}, "A must be a list of integers, got [1, 1.0]"),
        ({"A": 2, "k": 2, "B": 1}, "A must be a list of integers, got 2"),
    ], ids=["fractional-k", "bool-k", "string-B", "string-item", "float-item", "scalar-A"])
    def test_bad_instance_input_exits_two(self, tmp_path, instance, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(instance))
        proc = run_cli("gls", "build", str(p))
        assert proc.returncode == 2, proc.stdout
        assert problem in proc.stderr

    @pytest.mark.parametrize("change, problem", [
        ({"anchors": ["x"]}, "step 0 anchors must be a list of integers, got ['x']"),
        ({"sizes": ["2"]}, "step 0 sizes must be a list of integers, got ['2']"),
        ({"sizes": [2.5]}, "step 0 sizes must be a list of integers, got [2.5]"),
        ({"anchors": 1}, "step 0 anchors must be a list of integers, got 1"),
        ({"kind": "1"}, "step 0 kind must be an integer, got '1'"),
        ({"kind": True}, "step 0 kind must be an integer, got True"),
        ({"extension": {"clique_index": 0.0, "size": 2}},
         "step 0 extension clique_index must be an integer, got 0.0"),
        ({"extension": {"clique_index": 0, "size": False}},
         "step 0 extension size must be an integer, got False"),
        ({"extension": 3}, "step 0 extension must be an object or null, got 3"),
        ({"base_vertex": 0.0}, "base_vertex must be an integer, got 0.0"),
        ({"steps": 4}, "steps must be a list, got 4"),
        ({"steps": [7]}, "step 0 must be an object, got 7"),
    ], ids=["string-anchor", "string-size", "float-size", "scalar-anchors", "string-kind",
            "bool-kind", "float-ext-index", "bool-ext-size", "scalar-ext", "float-base-vertex",
            "scalar-steps", "scalar-step"])
    def test_bad_certificate_input_exits_two(self, tmp_path, change, problem):
        base = {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3]]}
        step = {"kind": 1, "anchors": [1], "sizes": [2], "extension": None}
        cert = {"base_graph": base, "base_vertex": 0, "r": 2, "steps": [step]}
        if set(change) <= set(step):
            step.update(change)
        else:
            cert.update(change)
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        proc = run_cli("char", "verify", str(p))
        assert proc.returncode == 2, proc.stdout
        assert problem in proc.stderr

    def test_main_called_again_in_one_process_matches_fresh_runs(
        self, graph_file, tmp_path, capsys
    ):
        # main keeps one parser for the whole process; every call must
        # still print and exit exactly as a fresh `blockeq` process does
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": 5}')
        commands = [
            (["params"], 2),
            (["params", str(bad)], 2),
            (["params", str(graph_file)], 0),
            (["gls", "color-uniform", "--a", "3", "--n", "4", "--k", "3", "--B", "4",
              "--t", "5"], 0),
            (["params", str(graph_file)], 0),
        ]
        for argv, code in commands:
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                assert argv == ["params"], "only the usage error may exit directly"
                rc = e.code
            out, err = capsys.readouterr()
            proc = run_cli(*argv)
            assert rc == proc.returncode == code, argv
            assert out == proc.stdout, argv
            assert err == proc.stderr, argv
        assert json.loads(out)["n"] == 4

    def test_python_dash_m_blockeq(self, graph_file):
        proc = subprocess.run(
            [sys.executable, "-m", "blockeq", "params", str(graph_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        validator("params").validate(json.loads(proc.stdout))

    def test_dot_command(self, graph_file):
        proc = run_cli("dot", str(graph_file))
        assert proc.returncode == 0 and "graph" in proc.stdout

    def test_every_json_subcommand_output_validates(self, graph_file, instance_file, tmp_path):
        # one (args, schema) pair per JSON-emitting subcommand
        gen = run_cli("char", "gen", "--r", "2", "--seed", "1")
        cert_file = tmp_path / "c.json"
        cert_file.write_text(json.dumps(json.loads(gen.stdout)["certificate"]))
        cases = [
            (("validate", str(graph_file)), "validate_output"),
            (("params", str(graph_file)), "params"),
            (("levels", str(graph_file)), "levels_output"),
            (("ais", str(graph_file), "--w", "3"), "ais_output"),
            (("ais", str(graph_file), "--w", "3", "--base", "0"), "ais_output"),
            (("char", "gen", "--r", "2", "--seed", "1"), "char_gen_output"),
            (("char", "decompose", str(graph_file)), "char_decompose_output"),
            (("char", "verify", str(cert_file)), "char_verify_output"),
            (("gls", "build", str(instance_file)), "gls_build_output"),
            (("gls", "color-uniform", "--a", "2", "--n", "2", "--k", "1", "--B", "4",
              "--t", "3"), "color_uniform_output"),
            (("gls", "color-n2", str(instance_file)), "color_n2_output"),
            (("exact", "chi-eq", str(graph_file)), "chi_eq_output"),
            (("exact", "spectrum", str(graph_file)), "spectrum"),
            (("exact", "dc", str(graph_file)), "dc_output"),
            (("exact", "binpack", str(instance_file)), "binpack_output"),
            (("enumerate", "--max-n", "4"), "enumerate_output"),
            (("verify", "dc-le-alphamin", "--max-n", "5"), "sweep_report"),
        ]
        for args, schema in cases:
            proc = run_cli(*args)
            assert proc.returncode == 0, (args, proc.stderr)
            validator(schema).validate(json.loads(proc.stdout))
