import json
import time
from collections import Counter
from pathlib import Path

import pytest

from blockeq import formats, oracle
from blockeq.errors import (
    ColorOutOfRangeError,
    SearchBudgetExceededError,
    TooLargeError,
    UncoloredVertexError,
    UnknownVertexError,
)
from blockeq.families import (
    clique_with_pendant_cliques,
    complete_graph,
    path_graph,
    two_triangles_sharing_a_vertex,
)
from blockeq.gls import BinPackingInstance, Coloring, build_gls, color_nplus2
from blockeq.graph import BlockGraph, decompose, from_edge_list, generate_block_graphs

import brutes

FIXTURES = Path(__file__).parent / "data"


def k33():
    # not a block graph; the exact search accepts general graphs, but
    # check_coloring reads only the blocks, so it must not be given one
    return BlockGraph(6, [(i, j + 3) for i in range(3) for j in range(3)], _validated=True)


class TestCheckColoring:
    def test_proper_equitable_edge(self):
        res = oracle.check_coloring(from_edge_list(2, [(0, 1)]), Coloring({0: 1, 1: 2}, 2))
        assert res.proper and res.equitable

    def test_monochromatic_edge(self):
        res = oracle.check_coloring(from_edge_list(2, [(0, 1)]), Coloring({0: 1, 1: 1}, 2))
        assert not res.proper

    def test_unbalanced_classes(self):
        res = oracle.check_coloring(path_graph(3), Coloring({0: 1, 1: 2, 2: 1}, 3))
        assert res.proper and not res.equitable

    def test_missing_vertex(self):
        with pytest.raises(UncoloredVertexError):
            oracle.check_coloring(path_graph(3), Coloring({0: 1, 1: 2}, 2))

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRangeError):
            oracle.check_coloring(path_graph(2), Coloring({0: 1, 1: 3}, 2))

    def test_vertex_outside_graph(self):
        # class sizes [2, 1] would count the extra vertex 7
        with pytest.raises(UnknownVertexError, match="vertex 7 "):
            oracle.check_coloring(path_graph(2), Coloring({0: 1, 1: 2, 7: 1}, 2))

    def test_properness_matches_an_edge_list_scan(self):
        # the (n+2)-coloring of every box instance, and the same coloring
        # with one clique vertex moved onto its hub's color
        for i, (sizes, k, B) in enumerate(brutes.packing_box()):
            built = build_gls(BinPackingInstance(sizes, k, B), cross_check=False)
            g, coloring = built.graph, color_nplus2(built)
            j = i % (len(sizes) + 1)
            hub, v = built.universal_vertices[j], built.cliques[j][0][i % k]
            moved = Coloring({**coloring.color, v: coloring.color[hub]}, coloring.t)
            for col, proper in [(coloring, True), (moved, False)]:
                by_edges = brutes.proper_by_edge_scan(g, col)
                assert oracle.check_coloring(g, col).proper == by_edges == proper, (sizes, k, B)

    def test_block_test_matches_an_edge_scan_on_small_graphs(self, graphs_up_to_8):
        # graphs rebuilt from their edges, so their blocks come from
        # Hopcroft-Tarjan; an exact witness at each t from the clique
        # bound up, and that witness with one vertex moved onto the
        # color of its smallest neighbor
        for g in graphs_up_to_8:
            for t in range(oracle._clique_bound(g), g.n + 1):
                ok, w = oracle.exact_equitable_colorable(g, t)
                if not ok:
                    continue
                colorings = [w] + [
                    Coloring({**w.color, v: w.color[min(g.neighbors(v))]}, t)
                    for v in range(g.n) if g.degree(v)
                ]
                for col in colorings:
                    assert oracle.check_coloring(g, col).proper == \
                        brutes.proper_by_edge_scan(g, col), (g.edges(), col.color)

    def test_flower_coloring_is_checked_without_an_adjacency(self):
        built = build_gls(BinPackingInstance((3, 2, 4, 1, 2), 3, 4))
        chk = oracle.check_coloring(built.graph, color_nplus2(built))
        assert chk.proper and chk.equitable
        assert built.graph._adjacency is None


class TestExactEquitable:
    def test_k33_two_yes_three_no(self):
        g = k33()
        assert oracle.exact_equitable_colorable(g, 2)[0]
        assert not oracle.exact_equitable_colorable(g, 3)[0]

    def test_max_degree_plus_one_always_feasible(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if g.n == 0:
                continue
            t = min(g.max_degree() + 1, g.n)
            ok, w = oracle.exact_equitable_colorable(g, t)
            assert ok
            chk = oracle.check_coloring(g, w)
            assert chk.proper and chk.equitable

    def test_witnesses_pass_checker(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            for t in range(1, g.n + 1):
                ok, w = oracle.exact_equitable_colorable(g, t)
                if ok:
                    chk = oracle.check_coloring(g, w)
                    assert chk.proper and chk.equitable

    def test_shared_search_plan_changes_nothing(self, graphs_up_to_7):
        # exact_chi_eq and spectrum compute the plan once for every t
        for g in graphs_up_to_7:
            plan = oracle._search_plan(g)
            for t in range(1, g.n + 1):
                assert oracle.exact_equitable_colorable(g, t, _plan=plan) == \
                    oracle.exact_equitable_colorable(g, t)

    def test_vertex_order_is_repeated_minimum_degree(self, graphs_up_to_10):
        # the search's node counts depend on this exact order, ties included
        for g in graphs_up_to_10:
            assert oracle._degeneracy_order(g) == brutes.repeated_minimum_order(g)
        # a path 0-1-2-3-4 with a triangle {2, 5, 6}: ties at degrees 1 and 2
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (5, 6)])
        assert oracle._degeneracy_order(g) == brutes.repeated_minimum_order(g) == \
            [0, 1, 4, 3, 2, 5, 6]

    def test_twin_predecessors_match_the_definition(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            order, twin_prev = oracle._search_plan(g)
            want = brutes.true_twin_predecessors(g, order)
            assert twin_prev == [want.get(v, -1) for v in order], g.edges()

    def test_no_answers_match_plain_backtracking(self, graphs_up_to_8):
        # the search's prunes and symmetry breaking cut no equitable coloring
        answers = []
        for g in graphs_up_to_8:
            for t in range(1, g.n + 1):
                want = brutes.equitable_colorable_by_backtracking(g, t)
                assert oracle.exact_equitable_colorable(g, t)[0] == want, (g.edges(), t)
                answers.append(want)
        assert len(answers) > 1_900 and answers.count(False) > 600

    def test_budget_raises(self):
        g = clique_with_pendant_cliques(3)
        with pytest.raises(SearchBudgetExceededError):
            oracle.exact_equitable_colorable(g, 5, node_budget=3)

    def test_pendant_family_k2(self):
        g = clique_with_pendant_cliques(2)
        assert not oracle.exact_equitable_colorable(g, 3)[0]
        assert oracle.exact_equitable_colorable(g, 4)[0]


def _assert_matches_the_recursive_search(g, t):
    ok, witness, nodes = brutes.recursive_equitable_search(g, t)
    # same node count: the search passes at a budget of `nodes` and not below
    assert oracle.exact_equitable_colorable(g, t, node_budget=nodes) == (ok, witness), \
        (g.edges(), t)
    with pytest.raises(SearchBudgetExceededError):
        oracle.exact_equitable_colorable(g, t, node_budget=nodes - 1)


def _sweep_suite_graphs(workdir):
    """The graphs of the benchmark's `sweep` workload, written by its own
    seeded input suite."""
    plan = brutes.bench_inputs("sweep", workdir)
    return [formats.load_graph(workdir / name) for _, name in sorted(plan["graphs"])]


class TestReferenceSearch:
    """The search loop against the recursive search it replaced: same
    answer, witness and node count."""

    def test_every_graph_and_t_up_to_nine_vertices(self, graphs_up_to_9):
        for g in graphs_up_to_9:
            for t in range(1, g.n + 1):
                _assert_matches_the_recursive_search(g, t)

    def test_sweep_suite_graphs_from_the_clique_bound_to_chi_eq(self, tmp_path):
        graphs = _sweep_suite_graphs(tmp_path)
        assert len(graphs) == 40
        for g in graphs:
            for t in range(oracle._clique_bound(g), oracle.exact_chi_eq(g) + 1):
                _assert_matches_the_recursive_search(g, t)


class TestCliqueBound:
    def test_chi_eq_is_the_least_t_plain_backtracking_colors(self, graphs_up_to_8):
        # the scan starts at the clique bound; no t below it may be skipped wrongly
        for g in graphs_up_to_8:
            least = next(t for t in range(1, g.n + 1)
                         if brutes.equitable_colorable_by_backtracking(g, t))
            assert oracle.exact_chi_eq(g) == least, g.edges()

    def test_spectrum_matches_a_scan_from_one(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            full = {t for t in range(1, g.n + 1) if oracle.exact_equitable_colorable(g, t)[0]}
            assert oracle.spectrum(g).feasible_ts == full, g.edges()

    def test_bound_is_omega_on_block_graphs(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            assert oracle._clique_bound(g) == decompose(g).max_block_size()

    def test_block_that_is_no_clique_gives_no_bound(self):
        # K3,3 decomposes into one 6-vertex block, which is not a clique
        g = k33()
        assert [len(b) for b in decompose(g).blocks] == [6]
        assert oracle._clique_bound(g) == 1
        assert oracle.exact_chi_eq(g) == 2


class TestSpectrum:
    def test_k33_gap(self):
        rep = oracle.spectrum(k33())
        assert sorted(rep.feasible_ts) == [2, 4, 5, 6]
        assert rep.chi_eq == 2 and rep.chi_eq_star == 4
        assert rep.gap_free is False and rep.complete

    def test_k4_needs_all_colors(self):
        rep = oracle.spectrum(complete_graph(4))
        assert sorted(rep.feasible_ts) == [4]
        assert rep.chi_eq == 4 and rep.gap_free

    def test_final_t_always_feasible(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if g.n:
                assert g.n in oracle.spectrum(g).feasible_ts

    def test_edgeless_graph_matches_the_search(self):
        # answered without a search, with the fields a search over every
        # t up to the cap gives
        for n in range(1, 13):
            g = BlockGraph(n, [])
            for cap in (None, *range(1, n + 1)):
                t_cap = n if cap is None else cap
                searched = {t for t in range(1, t_cap + 1)
                            if oracle.exact_equitable_colorable(g, t)[0]}
                complete = t_cap == n
                expected = oracle.SpectrumReport(
                    n, t_cap, frozenset(searched), frozenset(), min(searched),
                    1 if complete else None, True if complete else None, complete)
                assert oracle.spectrum(g, cap) == expected, (n, cap)

    def test_edgeless_graph_answered_at_once(self):
        # the search over every t took about 4 s (2-vCPU VM, Python 3.11.7)
        g = BlockGraph(600, [])
        start = time.perf_counter()
        rep = oracle.spectrum(g)
        assert time.perf_counter() - start < 0.1
        assert rep.feasible_ts == frozenset(range(1, 601)) and rep.gap_free

    def test_small_uniform_flower_gap_free(self):
        from blockeq.gls import build_gls

        g = build_gls(BinPackingInstance((2, 2), 1, 4)).graph
        rep = oracle.spectrum(g)
        assert rep.chi_eq == 2 and rep.gap_free


class TestBrutes:
    def test_singleton(self):
        g = BlockGraph(1, [])
        assert oracle.brute_alpha(g) == 1
        assert oracle.brute_dc(g) == 0

    def test_path4(self):
        g = path_graph(4)
        assert oracle.brute_alpha(g) == 2
        assert oracle.brute_alpha_with(g, 1) == 2
        assert oracle.brute_dc(g) == 1

    def test_star_of_triangles(self):
        g = two_triangles_sharing_a_vertex()
        assert oracle.brute_alpha(g) == 2
        assert oracle.brute_alpha_with(g, 0) == 1
        assert oracle.brute_dc(g) == 1

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            oracle.brute_alpha(complete_graph(6), cap=5)


class TestBinPacking:
    def test_showcase_instance_is_no(self):
        assert oracle.bin_packing_decide(BinPackingInstance((3, 3, 3, 3), 3, 4))[0] is False

    def test_even_split(self):
        yes, parts = oracle.bin_packing_decide(BinPackingInstance((2, 2, 2, 2), 2, 4))
        assert yes
        assert sorted(sum(2 for _ in p) for p in parts) == [4, 4]

    def test_mixed_items(self):
        yes, parts = oracle.bin_packing_decide(BinPackingInstance((1, 2, 3), 2, 3))
        assert yes
        sums = sorted(sum((1, 2, 3)[i] for i in p) for p in parts)
        assert sums == [3, 3]


class TestCount:
    def test_matches_pinned_counts(self):
        pinned = json.loads((FIXTURES / "block_graph_counts.json").read_text())["counts"]
        assert {str(n): c for n, c in oracle.count_block_graphs(14).items()} == pinned

    def test_smallest_limits(self):
        assert oracle.count_block_graphs(0) == {}
        assert oracle.count_block_graphs(3) == {1: 1, 2: 1, 3: 2}


class TestGenerator:
    def test_matches_the_count(self):
        # pairwise distinct keys, as many graphs as there are classes:
        # the generator lists every class exactly once
        pairs = list(generate_block_graphs(11))
        keys = [key for _, key in pairs]
        assert len(keys) == len(set(keys))
        assert Counter(g.n for g, _ in pairs) == oracle.count_block_graphs(11)
        for g, key in pairs:
            if g.n <= 10:
                assert oracle.canonical_form(g).decode() == key
            assert g.is_connected()

    def test_counts_match_pinned_fixture(self):
        pinned = json.loads((FIXTURES / "block_graph_counts.json").read_text())["counts"]
        counts = {}
        for g, _ in generate_block_graphs(11):
            counts[str(g.n)] = counts.get(str(g.n), 0) + 1
        assert counts == {k: v for k, v in pinned.items() if int(k) <= 11}

    def test_small_graphs_pass_the_filter_oracle(self):
        for g, _ in generate_block_graphs(7):
            assert oracle.is_block_graph_by_filter(g)

    def test_graphs_built_from_blocks_equal_validated_ones(self):
        # the generator trusts its block lists; validation must agree
        for g, _ in generate_block_graphs(10):
            validated = BlockGraph(g.n, g.edges())
            assert validated == g
            assert hash(validated) == hash(g)
            assert decompose(validated) == decompose(g)

    def test_smallest_limits(self):
        assert list(generate_block_graphs(0)) == []
        assert [(g.n, key) for g, key in generate_block_graphs(1)] == [(1, "B1()")]


class TestCanonicalForm:
    def test_relabelings_agree(self):
        g1 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        g2 = from_edge_list(3, [(2, 1), (0, 1), (2, 0)])
        assert oracle.canonical_form(g1) == oracle.canonical_form(g2)

    def test_path_vs_star(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert oracle.canonical_form(path_graph(4)) != oracle.canonical_form(star)

    def test_random_relabelings_of_block_graph(self, graphs_up_to_7):
        import random

        rng = random.Random(4)
        for g in graphs_up_to_7:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert oracle.canonical_form(g) == oracle.canonical_form(relabeled)

    def test_distinct_strings_mean_non_isomorphic(self, graphs_up_to_7):
        # spot-verify canonical separation with the explicit search, and
        # that it finds a relabeled copy
        import random

        rng = random.Random(7)
        searched = 0
        for n in range(1, 8):
            same_n = [g for g in graphs_up_to_7 if g.n == n]
            for i, g1 in enumerate(same_n):
                degrees = sorted(g1.degree(v) for v in range(n))
                for g2 in same_n[i + 1:]:
                    searched += (g1.edge_count() == g2.edge_count()
                                 and degrees == sorted(g2.degree(v) for v in range(n)))
                    assert not oracle.isomorphic_brute(g1, g2)
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = from_edge_list(n, [(perm[u], perm[v]) for u, v in g1.edges()])
                assert oracle.isomorphic_brute(g1, relabeled)
        # pairs with equal edge counts and degree sequences, which only
        # the permutation search tells apart: 2 at n = 6, 21 at n = 7
        assert searched == 23

    def test_disconnected_graphs(self):
        g1 = from_edge_list(4, [(0, 1), (2, 3)])
        g2 = from_edge_list(4, [(0, 2), (1, 3)])
        assert oracle.canonical_form(g1) == oracle.canonical_form(g2)


class TestFilterOracle:
    def test_small_counts_match_the_count(self):
        counted = oracle.count_block_graphs(5)
        for n in range(1, 6):
            assert oracle.count_block_graphs_by_filter(n) == counted[n]

    def test_rejects_cycle_and_diamond(self):
        c4 = BlockGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], _validated=True)
        assert not oracle.is_block_graph_by_filter(c4)
        diamond = BlockGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], _validated=True)
        assert not oracle.is_block_graph_by_filter(diamond)
        assert oracle.is_block_graph_by_filter(path_graph(4))
