import contextlib
import inspect
import io
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

from blockeq import cli, formats, gls, invariants, oracle
from blockeq.characterization import generate_with_alphamin
from blockeq.families import path_graph, triangle_with_pendant_edge
from blockeq.gls import BinPackingInstance, Coloring
from blockeq.graph import decompose, from_edge_list, generate_block_graphs

import brutes

ROOT = Path(__file__).parent.parent
SCHEMAS = ROOT / "schemas"
# marks a key that a bad-input case removes
DROP = object()


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
        for g in graphs_up_to_7:
            d = formats.graph_to_json_dict(g)
            back = formats.graph_from_json_dict(json.loads(json.dumps(d)))
            assert oracle.canonical_form(back) == oracle.canonical_form(g)

    def test_edge_list_text(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("4\n0 1\n1 2\n2 3\n")
        g = formats.load_graph(p)
        assert g.n == 4 and g.edge_count() == 3
        # a lone count is also a JSON number; it still reads as an edge list
        p.write_text("1\n")
        g = formats.load_graph(p)
        assert g.n == 1 and g.edge_count() == 0

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

    def test_dot_export_escapes_labels(self):
        g = from_edge_list(2, [(0, 1)], ['a\\"; evil', "b"])
        dot = formats.graph_to_dot(g)
        assert '  0 [label="a\\\\\\"; evil"];' in dot.splitlines()
        assert '  1 [label="b"];' in dot.splitlines()

    def test_coloring_round_trip(self):
        c = Coloring({0: 1, 1: 2, 2: 1}, 2)
        assert formats.coloring_from_json_dict(json.loads(json.dumps(c.to_json_dict()))) == c

    @pytest.mark.parametrize("colors, t, problem", [
        ({"0": 2.7, "1": 1}, 3, "color of vertex 0"),
        ({"0": 2, "1": True}, 3, "color of vertex 1"),
        ({"0": 2, "1": 1}, "3", "t must"),
        ([1], 2, "colors must be an object, got \\[1\\]"),
        ({"0": 5}, 2, "colors: vertex 0 has color 5 outside 1..2"),
        ({"-1": 1}, 2, "colors key '-1' is not a decimal vertex id"),
        ({"0": 0, "1": 1}, 2, "colors: vertex 0 has color 0 outside 1..2"),
        ({"x": 1}, 2, "colors key 'x' is not a decimal vertex id"),
        ({}, 0, "t must be at least 1, got 0"),
        ({"1": 1, "01": 2, "0": 1}, 2, "colors key '01' is not written as vertex id 1"),
    ])
    def test_coloring_takes_only_ints(self, colors, t, problem):
        with pytest.raises(ValueError, match=problem):
            formats.coloring_from_json_dict({"colors": colors, "t": t})


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

    @pytest.mark.parametrize("base", ["99", "-1"])
    def test_ais_unknown_base_exits_two(self, graph_file, base):
        proc = run_cli("ais", str(graph_file), "--w", "3", "--base", base)
        assert proc.returncode == 2
        assert proc.stderr == f"error: vertex {base} outside 0..3\n"

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

    def test_verify_violations_carry_their_edges(self, monkeypatch, capsys):
        # only a violation's record keeps the edges; force every graph to be one
        graphs = {key: g for g, key in generate_block_graphs(5)}

        def above_window(g, node_budget=None):
            am = invariants.alpha_min(g).value
            return invariants.counting_lower_bound(
                g.n, am, decompose(g).max_block_size()) + 2

        monkeypatch.setattr(oracle, "exact_chi_eq", above_window)
        assert cli.main(["verify", "conjecture", "--max-n", "5"]) == 1
        report = json.loads(capsys.readouterr().out)
        validator("sweep_report").validate(report)
        assert len(report["violations"]) == report["scope"]["graph_count"] == len(graphs)
        for record in report["violations"]:
            assert record["edges"] == [list(e) for e in graphs[record["graph"]].edges()]

    def test_verify_checks_the_graph_count(self, monkeypatch, capsys):
        # a generator that drops one graph is a bug, caught by the closed-form count
        def one_short(max_n):
            stream = generate_block_graphs(max_n)
            next(stream)
            yield from stream

        monkeypatch.setattr(cli, "generate_block_graphs", one_short)
        assert cli.main(["verify", "dc-le-alphamin", "--max-n", "6"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: generator produced 38 graphs, the count gives 39\n"

    def test_fixpoint_failure_exits_three(self, instance_file, monkeypatch, capsys):
        # a broken postcondition of the library is a bug, not bad input
        def stuck(g, stats=None):
            raise brutes.NotEquitableAtFixpointError(Coloring({}, 3), [1, 4, 1])

        monkeypatch.setattr(gls, "color_nplus2", stuck)
        assert cli.main(["gls", "color-n2", str(instance_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: local search fixpoint not equitable, class sizes [1, 1, 4]\n"

    def test_matrix_invariant_failure_exits_three(self, monkeypatch, capsys):
        # a deal that gives every vertex color 1 breaks every row sum
        def one_color(g, uc, sizes):
            return dict.fromkeys(range(g.graph.n), 1)

        monkeypatch.setattr(gls, "_deal", one_color)
        argv = ["gls", "color-uniform", "--a", "3", "--n", "4", "--k", "3", "--B", "4", "--t", "5"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: row sums [68, 0, 0, 0, 0] != ")

    def test_rejected_coloring_exits_one_with_its_check(self, instance_file, monkeypatch, capsys):
        # each coloring command still prints a coloring the oracle rejects
        def one_color(coloring):
            return Coloring(dict.fromkeys(coloring.color, 1), coloring.t)

        color_uniform, color_nplus2 = gls.color_uniform, gls.color_nplus2

        def uniform(*args):
            matrix, coloring = color_uniform(*args)
            return matrix, one_color(coloring)

        monkeypatch.setattr(gls, "color_uniform", uniform)
        monkeypatch.setattr(gls, "color_nplus2", lambda g: one_color(color_nplus2(g)))
        for argv in (["gls", "color-uniform", "--a", "3", "--n", "4", "--k", "3", "--B", "4",
                      "--t", "5"],
                     ["gls", "color-n2", str(instance_file)]):
            assert cli.main(argv) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["check"] == {"proper": False, "equitable": False}
            assert set(out["coloring"]["colors"].values()) == {1}

    @pytest.mark.parametrize("argv", [["validate"], ["char", "decompose"]])
    def test_out_of_memory_exits_two_naming_the_command(
            self, graph_file, monkeypatch, capsys, argv):
        # stands in for a graph file whose n asks for more adjacency sets than fit
        def exhausted(n, edges, labels=None):
            raise MemoryError()

        monkeypatch.setattr(formats, "from_edge_list", exhausted)
        assert cli.main([*argv, str(graph_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: MemoryError: out of memory in `{' '.join(argv)}`\n"

    @pytest.mark.parametrize("argv, text", [
        (["validate"], "[" * 100_000 + "]" * 100_000),
        (["gls", "build"], '{"A": ' + "[" * 100_000 + "]" * 100_000 + ', "k": 1, "B": 1}'),
    ], ids=["nested-graph-file", "nested-instance-file"])
    def test_deep_recursion_exits_two_naming_the_command(self, tmp_path, capsys, argv, text):
        # the JSON decoder recurses once per bracket
        p = tmp_path / "deep.json"
        p.write_text(text)
        assert cli.main([*argv, str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: RecursionError: recursion too deep in `{' '.join(argv)}`\n"

    @pytest.mark.parametrize("argv, want", [
        (["exact", "chi-eq"], {"chi_eq": 2}),
        # t = 3 takes exponentially many nodes on a long path, so the
        # budget leaves it unknown; the cap skips every t above 4
        (["exact", "spectrum", "--cap", "4", "--budget", "100000"],
         {"feasible_ts": [2, 4], "unknown_ts": [3]}),
    ], ids=["chi-eq", "spectrum"])
    def test_deep_exact_search_exits_zero(self, tmp_path, capsys, argv, want):
        # the exact search visits the 1,500 vertices of the path on an
        # explicit stack: 100 frames above this one are enough
        p = tmp_path / "path.json"
        p.write_text(json.dumps(formats.graph_to_json_dict(path_graph(1500))))
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code = cli.main([*argv, str(p)])
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == 0, err
        payload = json.loads(out)
        assert {key: payload[key] for key in want} == want

    def test_deep_reverse_search_exits_zero_with_a_verified_certificate(self, tmp_path, capsys):
        # the reverse search takes about 150 steps on a 300-vertex path, on
        # an explicit stack: 100 frames above this one are enough
        p = tmp_path / "path.json"
        p.write_text(json.dumps(formats.graph_to_json_dict(path_graph(300))))
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code = cli.main(["char", "decompose", str(p)])
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == 0, err
        payload = json.loads(out)
        assert payload["found"] and payload["certificate"]["r"] == 150
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload["certificate"]))
        assert cli.main(["char", "verify", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_empty_exception_message_prints_its_type(self, graph_file, monkeypatch, capsys):
        def broken(g):
            raise RuntimeError()

        monkeypatch.setattr(invariants, "bounds_report", broken)
        assert cli.main(["params", str(graph_file)]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError\n"

    def test_internal_lookup_fault_exits_three(self, graph_file, monkeypatch, capsys):
        # every missing input key is reported as a ValueError naming it,
        # so a KeyError is a fault in the program, not bad input
        def broken(g):
            raise KeyError(5)

        monkeypatch.setattr(invariants, "bounds_report", broken)
        assert cli.main(["params", str(graph_file)]) == 3
        assert capsys.readouterr().err == "internal error: 5\n"

    @pytest.mark.parametrize("edges, problem", [
        ([[0, 1], [1, 2], [3, 4]], "decomposition needs a connected graph"),
        ([[0, 1], [2, 3]], "decomposition needs a cut vertex"),
    ], ids=["with-cut-vertex", "without-cut-vertex"])
    def test_char_decompose_disconnected_exits_two(self, tmp_path, edges, problem):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 5, "edges": edges}))
        proc = run_cli("char", "decompose", str(p))
        assert proc.returncode == 2, proc.stdout
        assert proc.stdout == "" and problem in proc.stderr

    def test_readme_commands_parse(self):
        # every documented command line is one the parser accepts
        lines = []
        for line in (ROOT / "README.md").read_text().splitlines():
            if line.startswith(("blockeq ", "python -m blockeq ")):
                words = shlex.split(line, comments=True)
                lines.append(words[words.index("blockeq") + 1:])
        assert len(lines) >= 20
        parser = cli.build_parser()
        for argv in lines:
            assert parser.parse_args(argv).fn, argv

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

    def test_char_verify_disconnected_base_is_a_wrong_base(self, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "base_graph": {"n": 4, "edges": [[0, 1], [2, 3]]},
            "base_vertex": 0, "r": 1, "steps": [],
        }))
        proc = run_cli("char", "verify", str(cert))
        assert proc.returncode == 1, proc.stderr
        out = json.loads(proc.stdout)
        assert out["ok"] is False and out["step_index"] is None
        assert out["reason"] == "base graph is not a clique-star centered at the base vertex"

    @pytest.mark.parametrize("steps, reason", [
        ([{"kind": 5, "anchors": [1], "sizes": [2], "extension": None},
          {"kind": 1, "anchors": [1], "sizes": [2], "extension": None}],
         "alpha_min jumped to 2, expected 3"),
        ([{"kind": 5, "anchors": [1], "sizes": [3], "extension": None},
          {"kind": 4, "anchors": [3, 4], "sizes": [2, 2],
           "extension": {"clique_index": 0, "size": 2}}],
         "base vertex stopped realizing alpha_min"),
    ], ids=["condition-B", "condition-C"])
    def test_char_verify_rejects_a_replayed_step(self, tmp_path, steps, reason):
        # both steps replay on the path 1-0-2; the second breaks (B) or (C)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "base_graph": {"n": 3, "edges": [[0, 1], [0, 2]]},
            "base_vertex": 0, "r": 3, "steps": steps,
        }))
        proc = run_cli("char", "verify", str(cert))
        assert proc.returncode == 1, proc.stderr
        out = json.loads(proc.stdout)
        assert out["ok"] is False and out["step_index"] == 1
        assert out["reason"] == reason

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
        (["exact", "spectrum", "g.json", "--cap", "-2"], "--cap"),
        (["exact", "spectrum", "g.json", "--cap", "0"], "--cap"),
        (["exact", "spectrum", "g.json", "--budget", "-1"], "--budget"),
        (["exact", "chi-eq", "g.json", "--budget", "-3"], "--budget"),
    ], ids=["zero-jobs", "negative-jobs", "negative-enumerate-max-n", "negative-verify-max-n",
            "negative-spectrum-cap", "zero-spectrum-cap", "negative-spectrum-budget",
            "negative-chi-eq-budget"])
    def test_non_positive_count_exits_two(self, args, option):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stdout
        assert f"argument {option}: expected an integer >= 1" in proc.stderr

    def test_too_many_jobs_exits_two(self, capsys):
        # parser only, never `cli.main`: without the bound it would start that many processes
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(["verify", "conjecture", "--max-n", "4", "--jobs", "100000"])
        assert exit_info.value.code == 2
        assert f"argument --jobs: expected an integer <= {cli._MAX_JOBS}" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, problem", [
        ({"n": -2, "edges": []}, "vertex count must be a nonnegative integer"),
        ({"n": 2.5, "edges": [[0, 1]]}, "vertex count must be a nonnegative integer"),
        ({"n": 100_001, "edges": []}, "vertex count n = 100001 exceeds the maximum 100000"),
        ({"n": 2, "edges": [[0, True]]}, "vertex id that is not an integer"),
        ({"n": 2, "edges": [[0, 1.5]]}, "vertex id that is not an integer"),
        ({"n": 2, "edges": [[0, 1]], "labels": ["a"]}, "1 labels for 2 vertices"),
        ({"n": 2, "edges": [[0, 1, 1]]}, "edge [0, 1, 1] is not a pair of vertex ids"),
        ({"n": 2, "edges": [[0]]}, "edge [0] is not a pair of vertex ids"),
        ({"n": 2, "edges": [5]}, "edge 5 is not a pair of vertex ids"),
        ({"n": 2, "edges": 5}, "edges must be a list of vertex pairs, got 5"),
        ({"n": 2, "edges": [[0, 1]], "labels": 7}, "labels must be a list, got 7"),
        ([1], "graph JSON must be an object, got [1]"),
        ("x", "graph JSON must be an object, got 'x'"),
        (None, "graph JSON must be an object, got None"),
        ({"edges": [[0, 1]]}, "graph JSON lacks key 'n'"),
        ({"n": 2}, "graph JSON lacks key 'edges'"),
    ], ids=["negative-n", "fractional-n", "n-above-bound", "bool-vertex", "float-vertex",
            "short-labels", "triple-edge", "single-edge", "scalar-edge", "scalar-edges",
            "scalar-labels", "list-graph", "string-graph", "null-graph", "no-n", "no-edges"])
    def test_bad_graph_input_exits_two(self, tmp_path, graph, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(graph))
        proc = run_cli("params", str(p))
        assert proc.returncode == 2
        assert problem in proc.stderr

    def test_schema_bounds_n_as_the_reader_does(self):
        assert load_schema("graph")["properties"]["n"]["maximum"] == formats.MAX_VERTICES
        graph = {"n": formats.MAX_VERTICES, "edges": []}
        assert validator("graph").is_valid(graph)
        assert not validator("graph").is_valid({**graph, "n": formats.MAX_VERTICES + 1})

    @pytest.mark.parametrize("args, problem", [
        (["--r", "2", "--max-clique", "100000000"],
         "--r 2 with --max-clique 100000000 can grow 599999995 vertices, above the maximum 100000"),
        (["--r", "40000"], "--r 40000 with --max-clique 4 can grow 360001 vertices"),
        (["--r", "2", "--max-clique", "65"], "max_clique must be in 2..64"),
    ], ids=["huge-clique", "huge-r", "clique-above-cap"])
    def test_char_gen_bounds_exit_two_at_once(self, capsys, args, problem):
        # rejected before anything is drawn or allocated
        start = time.perf_counter()
        assert cli.main(["char", "gen", *args]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and problem in err

    @pytest.mark.parametrize("step, count", [
        ({"kind": 3, "anchors": [1], "sizes": [300_000_000]}, 300_000_004),
        ({"kind": 1, "anchors": [4], "sizes": [2],
          "extension": {"clique_index": 0, "size": 100_000}}, 100_005),
    ], ids=["huge-clique", "huge-extension"])
    def test_certificate_replay_above_the_bound_exits_two_at_once(
            self, tmp_path, capsys, step, count):
        # base: K4 and K2 sharing vertex 0; the replay would add size - 1
        # vertices per clique and extension, so it is rejected before it starts
        base = {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [0, 4]]}
        p = tmp_path / "cert.json"
        p.write_text(json.dumps({"base_graph": base, "base_vertex": 0, "steps": [step], "r": 2}))
        start = time.perf_counter()
        assert cli.main(["char", "verify", str(p)]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: certificate replay can grow {count} vertices, "
                       "above the maximum 100000\n")

    @pytest.mark.parametrize("argv, count", [
        (["gls", "build", "big.json"], 200_000_004),
        (["gls", "color-n2", "big.json"], 200_000_004),
        (["gls", "color-uniform", "--a", "1", "--n", "50000000", "--k", "1",
          "--B", "50000000", "--t", "3"], 200_000_002),
    ], ids=["build", "color-n2", "color-uniform"])
    def test_flower_graph_above_the_bound_exits_two_at_once(
            self, tmp_path, monkeypatch, capsys, argv, count):
        # |V| = (k+1)(kB+n+1) is checked before any block or item exists
        (tmp_path / "big.json").write_text('{"A": [100000000], "k": 1, "B": 100000000}')
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: flower graph vertex count (k+1)(kB+n+1) = {count} "
                       "exceeds the maximum 100000\n")

    def test_color_uniform_refuses_more_colors_than_vertices_at_once(self, capsys):
        # (a, n, k, B) = (1, 2, 2, 1) has |V| = (k+1)(kB+n+1) = 15 vertices;
        # t is refused before any of its t count-matrix rows exists
        argv = ["gls", "color-uniform", "--a", "1", "--n", "2", "--k", "2", "--B", "1", "--t"]
        start = time.perf_counter()
        assert cli.main(argv + ["1000000000000"]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: t=1000000000000 exceeds the vertex count |V|=15\n"
        assert cli.main(argv + ["15"]) == 0
        assert json.loads(capsys.readouterr().out)["check"] == {"proper": True, "equitable": True}

    def test_binpack_builds_no_flower_graph_and_stays_unbounded(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text('{"A": [100000000], "k": 1, "B": 100000000}')
        assert cli.main(["exact", "binpack", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["yes"] is True

    def test_char_gen_within_the_bounds_exits_zero(self):
        proc = run_cli("char", "gen", "--r", "16", "--max-clique", "4")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        validator("char_gen_output").validate(payload)
        assert payload["alpha_min"] == 16

    @pytest.mark.parametrize("text, problem", [
        ("4\n  # note\n0 1\n", None),
        ("four\n0 1\n", "vertex count must be a nonnegative integer, got 'four'"),
        ("3\n0 x\n", "bad edge line: '0 x'"),
        ("100001\n", "vertex count n = 100001 exceeds the maximum 100000"),
    ], ids=["indented-comment", "word-count", "word-vertex", "count-above-bound"])
    def test_edge_list_input(self, tmp_path, text, problem):
        # plain edge lists: comments may be indented, bad tokens are named
        p = tmp_path / "g.txt"
        p.write_text(text)
        proc = run_cli("params", str(p))
        if problem is None:
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["n"] == 4
        else:
            assert proc.returncode == 2, proc.stdout
            assert problem in proc.stderr

    @pytest.mark.parametrize("command, problem", [
        (["params"], "bounds_report of the empty graph"),
        (["exact", "chi-eq"], "exact chi-eq of the empty graph"),
    ], ids=["params", "exact-chi-eq"])
    def test_empty_graph_exits_two(self, tmp_path, command, problem):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"n": 0, "edges": []}))
        proc = run_cli(*command, str(p))
        assert proc.returncode == 2, proc.stdout
        assert problem in proc.stderr

    @pytest.mark.parametrize("instance, problem", [
        ({"A": [1, 1], "k": 2.7, "B": 1}, "k must be an integer, got 2.7"),
        ({"A": [1, 1], "k": True, "B": 1}, "k must be an integer, got True"),
        ({"A": [1, 1], "k": 2, "B": "1"}, "B must be an integer, got '1'"),
        ({"A": [1, "1"], "k": 2, "B": 1}, "A must be a list of integers, got [1, '1']"),
        ({"A": [1, 1.0], "k": 2, "B": 1}, "A must be a list of integers, got [1, 1.0]"),
        ({"A": 2, "k": 2, "B": 1}, "A must be a list of integers, got 2"),
        ([1], "instance must be an object, got [1]"),
        ({"A": [1, 1], "k": 2}, "instance lacks key 'B'"),
    ], ids=["fractional-k", "bool-k", "string-B", "string-item", "float-item", "scalar-A",
            "list-instance", "no-B"])
    def test_bad_instance_input_exits_two(self, tmp_path, instance, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(instance))
        for command in (["gls", "build"], ["gls", "color-n2"], ["exact", "binpack"]):
            proc = run_cli(*command, str(p))
            assert proc.returncode == 2, (command, proc.stdout)
            assert problem in proc.stderr, command

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
        ("x", "certificate must be an object, got 'x'"),
        (None, "certificate must be an object, got None"),
        ({"base_graph": [1]}, "base_graph must be an object, got [1]"),
        ({"steps": DROP}, "certificate lacks key 'steps'"),
        ({"kind": DROP}, "step 0 lacks key 'kind'"),
        ({"extension": {"size": 2}}, "step 0 extension lacks key 'clique_index'"),
        ({"base_graph": {"n": 5}}, "base_graph lacks key 'edges'"),
        ({"kind": 9}, "step 0 kind must be in 1..5, got 9"),
        ({"kind": 0}, "step 0 kind must be in 1..5, got 0"),
        ({"r": 99}, "certificate r is 99, but its step count 1 gives r = 2"),
        ({"r": "2"}, "r must be an integer, got '2'"),
    ], ids=["string-anchor", "string-size", "float-size", "scalar-anchors", "string-kind",
            "bool-kind", "float-ext-index", "bool-ext-size", "scalar-ext", "float-base-vertex",
            "scalar-steps", "scalar-step", "string-certificate", "null-certificate",
            "list-base-graph", "no-steps", "no-kind", "no-ext-index", "no-base-edges",
            "kind-above-five", "kind-zero", "r-off-the-steps", "string-r"])
    def test_bad_certificate_input_exits_two(self, tmp_path, change, problem):
        # `change` updates the certificate, or its step when it names only
        # step keys; a DROP value removes the key; a non-object replaces
        # the whole certificate
        base = {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3]]}
        step = {"kind": 1, "anchors": [1], "sizes": [2], "extension": None}
        cert = {"base_graph": base, "base_vertex": 0, "r": 2, "steps": [step]}
        if not isinstance(change, dict):
            cert = change
        else:
            target = step if set(change) <= set(step) else cert
            target.update(change)
            for key in [key for key, value in change.items() if value is DROP]:
                del target[key]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        proc = run_cli("char", "verify", str(p))
        assert proc.returncode == 2, proc.stdout
        assert problem in proc.stderr

    def test_certificate_r_must_count_its_steps(self, tmp_path):
        # a generated certificate passes as it is, and fails once its r is edited
        payload = json.loads(run_cli("char", "gen", "--r", "4", "--seed", "1").stdout)
        cert = payload["certificate"]
        p = tmp_path / "cert.json"
        for r, code in ((4, 0), (99, 2), (3, 2)):
            cert["r"] = r
            p.write_text(json.dumps(cert))
            proc = run_cli("char", "verify", str(p))
            assert proc.returncode == code, (r, proc.stdout)
            if code:
                assert proc.stdout == ""
                assert proc.stderr == (f"error: certificate r is {r}, "
                                       "but its step count 3 gives r = 4\n")
        # r is required, as in the certificate schema
        del cert["r"]
        p.write_text(json.dumps(cert))
        proc = run_cli("char", "verify", str(p))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: certificate lacks key 'r'\n"

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
            assert proc.stdout == json.dumps(json.loads(proc.stdout), sort_keys=True) + "\n", args


# -- any JSON value, given to every command that reads one ----------------

_SMALL = st.integers(min_value=-2, max_value=9)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=10,
)


def _or_any(strategy):
    """Mostly `strategy`, sometimes any JSON value in its place."""
    return st.one_of(strategy, strategy, strategy, _ANY_JSON)


@st.composite
def _grown_graph(draw):
    """A block graph dict grown by gluing cliques onto earlier vertices."""
    n, edges = 1, []
    for anchor, extra in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 3)),
                                       max_size=6)):
        clique = [anchor % n] + list(range(n, n + extra))
        edges += [[u, v] for i, u in enumerate(clique) for v in clique[i + 1:]]
        n += extra
    return {"n": n, "edges": edges}


_GRAPH = st.one_of(
    _grown_graph(),
    st.fixed_dictionaries(
        {"n": _or_any(_SMALL), "edges": _or_any(st.lists(_or_any(st.lists(_SMALL, min_size=2,
                                                                            max_size=2)),
                                                         max_size=8))},
        optional={"labels": _ANY_JSON},
    ),
)
_STEP = st.fixed_dictionaries({
    "kind": _or_any(st.integers(0, 6)),
    "anchors": _or_any(st.lists(_SMALL, min_size=1, max_size=2)),
    "sizes": _or_any(st.lists(st.integers(1, 4), min_size=1, max_size=2)),
    "extension": _or_any(st.none() | st.fixed_dictionaries(
        {"clique_index": _SMALL, "size": st.integers(1, 4)})),
})
_CERTIFICATE = st.one_of(
    st.builds(lambda r, seed: formats.certificate_to_json_dict(
        generate_with_alphamin(r, max_clique=3, seed=seed)[1]),
        st.integers(1, 4), st.integers(0, 9)),
    st.fixed_dictionaries({"base_graph": _or_any(_GRAPH), "base_vertex": _or_any(_SMALL),
                           "steps": _or_any(st.lists(_STEP, max_size=3)),
                           "r": _or_any(st.integers(1, 4))}),
)


@st.composite
def _packing(draw):
    """An instance whose k bins of capacity B are each cut into items."""
    k, capacity = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    items = []
    for _ in range(k):
        cuts = draw(st.sets(st.integers(1, capacity - 1), max_size=2)) if capacity > 1 else set()
        ends = [0, *sorted(cuts), capacity]
        items += [b - a for a, b in zip(ends, ends[1:])]
    return {"A": items, "k": k, "B": capacity}


_INSTANCE = st.one_of(_packing(), st.fixed_dictionaries({
    "A": _or_any(st.lists(st.integers(0, 5), max_size=5)),
    "k": _or_any(st.integers(0, 4)), "B": _or_any(st.integers(0, 6)),
}))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("any-json") / "input.json"


def _exit_code(argv):
    """`blockeq argv` run in-process: its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, out.getvalue()


class TestAnyJsonInput:
    """No JSON value makes a command report an internal error (exit 3),
    and a graph that validates gets the brute-force oracle's parameters."""

    @settings(max_examples=120, deadline=None)
    @given(value=st.one_of(_GRAPH, _GRAPH, _ANY_JSON), w=_SMALL, base=_SMALL)
    def test_graph_commands(self, input_file, value, w, base):
        input_file.write_text(json.dumps(value))
        path = str(input_file)
        code, out = _exit_code(["validate", path])
        report = json.loads(out) if code == 0 else {}
        n = report["n"] if report.get("valid") else 0
        # a bare JSON number reads as that many isolated vertices, and the
        # spectrum tries every t up to n unless capped
        spectrum = ["exact", "spectrum", path, *(["--cap=8"] if n > 8 else [])]
        for argv in (["ais", path, f"--w={w}"], ["ais", path, f"--w={w}", f"--base={base}"],
                     ["exact", "dc", path], ["levels", path], ["char", "decompose", path],
                     ["dot", path], ["exact", "chi-eq", path], spectrum):
            _exit_code(argv)
        code, out = _exit_code(["params", path])
        if n:  # the empty graph has no parameters
            assert code == 0, value
        if 0 < n <= oracle.BRUTE_CAP:  # the brute-force oracles refuse larger graphs
            rep = json.loads(out)
            g = formats.load_graph(path)
            assert rep["alpha"] == oracle.brute_alpha(g), value
            assert rep["alpha_min"] == min(oracle.brute_alpha_with(g, v) for v in range(g.n)), value
            assert rep["dc"] == oracle.brute_dc(g), value

    @settings(max_examples=60, deadline=None)
    @given(value=st.one_of(_CERTIFICATE, _ANY_JSON))
    def test_char_verify(self, input_file, value):
        input_file.write_text(json.dumps(value))
        _exit_code(["char", "verify", str(input_file)])

    @settings(max_examples=60, deadline=None)
    @given(value=st.one_of(_INSTANCE, _ANY_JSON))
    def test_instance_commands(self, input_file, value):
        input_file.write_text(json.dumps(value))
        for argv in (["gls", "build"], ["gls", "color-n2"], ["exact", "binpack"]):
            _exit_code([*argv, str(input_file)])
