import json
import random

import pytest

from blockeq import invariants as inv
from blockeq import oracle
from blockeq.characterization import (
    _attach_cliques,
    _grown_alpha_with,
    find_decomposition,
    generate_with_alphamin,
)
from blockeq.errors import (
    EmptyGraphError,
    UnknownVertexError,
    WIsInClosedNeighborhoodError,
)
from blockeq.families import (
    clique_with_pendant_cliques,
    complete_graph,
    path_graph,
    triangle_with_pendant_edge,
    two_triangles_sharing_a_vertex,
)
from blockeq.formats import load_graph
from blockeq.gls import BinPackingInstance, build_gls
from blockeq.graph import BlockGraph, decompose, from_edge_list, generate_block_graphs

import brutes


class TestAlpha:
    def test_cliques_and_paths(self):
        assert inv.alpha(complete_graph(5)) == 1
        assert inv.alpha(path_graph(4)) == 2

    def test_two_triangles(self):
        # brute force over all 2^5 subsets agrees
        g = two_triangles_sharing_a_vertex()
        assert inv.alpha(g) == 2 == oracle.brute_alpha(g)

    def test_empty(self):
        assert inv.alpha(BlockGraph(0, [])) == 0

    def test_matches_brute_on_all_small(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            assert inv.alpha(g) == oracle.brute_alpha(g), g.edges()


class TestAlphaWith:
    def test_path3(self):
        g = path_graph(3)
        assert inv.alpha_with(g, 1) == 1
        assert inv.alpha_with(g, 0) == 2

    def test_triangle_pendant_cut_vertex(self):
        # N[2] covers everything, so {2} is the only set through it
        g = triangle_with_pendant_edge()
        assert inv.alpha_with(g, 2) == 1 == oracle.brute_alpha_with(g, 2)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            inv.alpha_with(path_graph(3), 9)

    def test_matches_brute_on_all_small(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            for v in range(g.n):
                assert inv.alpha_with(g, v) == oracle.brute_alpha_with(g, v), (g.edges(), v)

    def test_simplicial_vertex_attains_alpha(self, graphs_up_to_8):
        # a simplicial vertex always lies in some maximum independent set
        for g in graphs_up_to_8:
            deco = decompose(g)
            a = inv.alpha(g)
            for v in range(g.n):
                if v not in deco.cut_vertices:
                    assert inv.alpha_with(g, v) == a

    def test_attaching_clique_raises_alpha_with_by_at_most_one(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if g.n < 2:
                continue
            u = 0
            for size in (2, 3):
                fresh = list(range(g.n, g.n + size - 1))
                group = [u] + fresh
                edges = g.edges() + [
                    (group[i], group[j])
                    for i in range(len(group))
                    for j in range(i + 1, len(group))
                ]
                grown = from_edge_list(g.n + size - 1, edges)
                for v in range(g.n):
                    if v == u:
                        continue
                    assert inv.alpha_with(grown, v) <= 1 + inv.alpha_with(g, v)


class TestAlphaMin:
    def test_star_of_cliques(self):
        assert inv.alpha_min(two_triangles_sharing_a_vertex()).value == 1

    def test_pendant_family_k2(self):
        # alpha_min = k^2 for the k-clique-with-pendants family
        g = clique_with_pendant_cliques(2)
        assert g.n == 14
        assert inv.alpha_min(g).value == 4

    def test_path4(self):
        res = inv.alpha_min(path_graph(4))
        assert res.value == 2
        assert res.value == brutes.brute_alpha_min_full(path_graph(4), oracle.brute_alpha_with)

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            inv.alpha_min(BlockGraph(0, []))

    def test_matches_full_scan_on_all_small(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            assert inv.alpha_min(g).value == brutes.brute_alpha_min_full(
                g, oracle.brute_alpha_with
            ), g.edges()

    def test_disconnected_scanned_fully(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
        assert inv.alpha_min(g).value == brutes.brute_alpha_min_full(g, oracle.brute_alpha_with)

    def test_flower_graph_closed_form(self):
        # alpha_min = n+1+kB, recomputed on a flower graph of 1,000 vertices
        from blockeq.gls import BinPackingInstance, build_gls

        sizes = (40, 35, 30, 28, 27, 25, 20, 18, 17)
        g = build_gls(BinPackingInstance(sizes, 3, 80), cross_check=False).graph
        assert g.n == (3 + 1) * (3 * 80 + 9 + 1) == 1000
        assert inv.alpha_min(g).value == 9 + 1 + 3 * 80


class TestDc:
    def test_complete_graph(self):
        res = inv.dc_exact(complete_graph(5))
        assert res.value == 0 and res.dc_set == frozenset()

    def test_path4(self):
        res = inv.dc_exact(path_graph(4))
        assert res.value == 1 and res.dc_set == frozenset({1})

    def test_star_of_cliques_center(self):
        res = inv.dc_exact(two_triangles_sharing_a_vertex())
        assert res.value == 1 and res.dc_set == frozenset({0})

    def test_matches_brute(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            assert inv.dc_exact(g).value == oracle.brute_dc(g), g.edges()

    def test_matches_brute_on_disconnected_residuals(self, graphs_up_to_8):
        # G - N[v] is often disconnected: every component gets its own root
        for g in graphs_up_to_8:
            for v in range(g.n):
                h, _ = g.induced_subgraph(set(range(g.n)) - g.closed_neighborhood(v))
                assert inv.dc_exact(h).value == oracle.brute_dc(h), (g.edges(), v)
                for w in range(h.n):
                    assert inv.alpha_with(h, w) == oracle.brute_alpha_with(h, w)

    def test_dc_set_is_a_smallest_cluster_deletion(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            res = inv.dc_exact(g)
            assert len(res.dc_set) == res.value
            keep = set(range(g.n)) - res.dc_set
            for v in keep:
                nbrs = [w for w in g.neighbors(v) if w in keep]
                assert all(g.adjacent(a, b) for a in nbrs for b in nbrs if a != b), (
                    g.edges(), res.dc_set, v)

    def test_dc_never_exceeds_alpha_min(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            assert inv.dc_exact(g).value <= inv.alpha_min(g).value


class TestAis:
    def test_isolated_vertex(self):
        assert inv.is_ais(BlockGraph(1, []), 0)

    def test_triangle_vertex_not_ais(self):
        assert not inv.is_ais(complete_graph(3), 0)

    def test_path5_unique_maximum_set(self):
        # {0,2,4} is the only maximum independent set of the 5-path
        g = path_graph(5)
        _, sets = brutes.all_maximum_independent_sets(g)
        assert sets == [frozenset({0, 2, 4})]
        assert inv.is_ais(g, 0) and inv.is_ais(g, 2) and inv.is_ais(g, 4)
        assert not inv.is_ais(g, 1) and not inv.is_ais(g, 3)

    def test_agrees_with_definitional_oracle(self, graphs_up_to_9):
        for g in graphs_up_to_9:
            _, sets = brutes.all_maximum_independent_sets(g)
            core = frozenset.intersection(*sets)
            for v in range(g.n):
                assert inv.is_ais(g, v) == (v in core), (g.edges(), v)


class TestVAis:
    def test_path5_leaf_to_leaf(self):
        assert inv.is_v_ais(path_graph(5), 0, 4)

    @pytest.mark.parametrize("v", [99, -1])
    def test_unknown_base_vertex_is_named(self, v):
        # a graph built from its blocks, whose adjacency is never built here
        with pytest.raises(UnknownVertexError, match=rf"^vertex {v} outside 0\.\.4$"):
            inv.is_v_ais(path_graph(5), v, 4)

    def test_path3_leaves(self):
        assert inv.is_v_ais(path_graph(3), 0, 2)

    def test_triangle_plus_pendant(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert not inv.is_v_ais(g, 3, 1)

    def test_w_in_closed_neighborhood(self):
        with pytest.raises(WIsInClosedNeighborhoodError):
            inv.is_v_ais(path_graph(3), 0, 1)
        with pytest.raises(WIsInClosedNeighborhoodError):
            inv.is_v_ais(path_graph(3), 0, 0)

    def test_matches_definitional_oracle(self, graphs_up_to_9):
        # w is v-locked exactly when w lies in every maximum independent
        # set of the graph with N[v] removed
        for g in graphs_up_to_9:
            for v in range(g.n):
                closed = g.closed_neighborhood(v)
                residual, id_map = g.induced_subgraph(set(range(g.n)) - closed)
                if residual.n == 0:
                    continue
                _, sets = brutes.all_maximum_independent_sets(residual)
                core = frozenset.intersection(*sets)
                for w in range(g.n):
                    if w in closed:
                        continue
                    assert inv.is_v_ais(g, v, w) == (id_map[w] in core)

    def test_repeated_queries_agree_with_a_fresh_graph(self, graphs_up_to_7):
        # one graph object answers every query, base vertices taken in
        # descending order; a fresh equal graph answers each one cold
        for g in graphs_up_to_7:
            for v in reversed(range(g.n)):
                closed = g.closed_neighborhood(v)
                for w in range(g.n):
                    if w in closed:
                        continue
                    fresh = BlockGraph(g.n, g.edges())
                    assert inv.is_v_ais(g, v, w) == inv.is_v_ais(fresh, v, w), (g.edges(), v, w)


class TestAlphaPassLeftOut:
    def test_matches_brute_on_the_kept_subgraph(self, graphs_up_to_8):
        # any left-out set, not only a closed neighborhood: the pass over
        # g's forest agrees with brute force on G - L itself
        rng = random.Random(22)
        for g in graphs_up_to_8:
            for _ in range(4):
                left_out = {v for v in range(g.n) if rng.random() < 0.4}
                table = inv._alpha_pass(g, left_out)
                sub, id_map = g.induced_subgraph(set(range(g.n)) - left_out)
                assert table.alpha == oracle.brute_alpha(sub), (g.edges(), left_out)
                _, sets = brutes.all_maximum_independent_sets(sub)
                core = frozenset.intersection(*sets)
                for v, w in id_map.items():
                    assert table.alpha_with[v] == oracle.brute_alpha_with(sub, w)
                    assert table.ais[v] == (w in core), (g.edges(), left_out, v)


class TestAlphaPassBonus:
    def test_matches_the_built_graph(self, graphs_up_to_10):
        """Structures hung from g's vertices, passed as (x, d_inc, d_exc):
        plain cliques (0, 1), alone or two at once as in a twin attach, and
        a 2-block {w1, w2} extended at w2 (1, 1).  One pass over g's forest
        gives the built graph's alpha, its alpha_with on g's vertices, and
        in exc[w1] its alpha_with at w2; `_grown_alpha_with` gives every
        vertex's.  Checked against brute force where the built graph has
        at most 9 vertices."""
        rng = random.Random(25)
        hosts = [g for g in graphs_up_to_10 if g.n <= 7] + rng.sample(graphs_up_to_10, 400)
        hosts += [generate_with_alphamin(r, seed=r)[0] for r in range(2, 30)]
        brute_checked = 0
        for g in hosts:
            for _ in range(3):
                n_plain = rng.randint(0, 2)
                pairs = [(rng.randrange(g.n), rng.randint(2, 4)) for _ in range(n_plain)]
                bonus = [(a, 0, 1) for a, _ in pairs]
                extended = n_plain == 0 or rng.random() < 0.5
                if extended:
                    w1, pos = rng.randrange(g.n), rng.randint(0, n_plain)
                    pairs.insert(pos, (w1, 2))
                    bonus.append((w1, 1, 1))
                anchors = tuple(a for a, _ in pairs)
                sizes = tuple(s for _, s in pairs)
                if extended:
                    w2 = g.n + sum(s - 1 for s in sizes[:pos])
                    anchors, sizes = anchors + (w2,), sizes + (rng.randint(2, 3),)
                grown = _attach_cliques(g, anchors, sizes)
                table = inv._alpha_pass(g, bonus=bonus)
                want = [inv.alpha_with(grown, u) for u in range(grown.n)]
                case = (g.edges(), anchors, sizes)
                assert table.alpha == inv.alpha(grown), case
                assert table.alpha_with == want[:g.n], case
                if extended:
                    assert table.exc[w1] == want[w2], case
                assert _grown_alpha_with(g, anchors, sizes) == want, case
                if grown.n <= 9:
                    assert table.alpha == oracle.brute_alpha(grown), case
                    assert want == [oracle.brute_alpha_with(grown, u) for u in range(grown.n)], case
                    brute_checked += 1
        assert brute_checked > 100


def assert_walk_matches_vertex_reference(g, left_out=(), bonus=()):
    """The hub-and-block walk gives the vertex-by-vertex pass's alpha, its
    alpha_with and ais at every kept vertex, and its exc at every hub."""
    table = inv._alpha_pass(g, left_out, bonus)
    want = brutes.alpha_pass_by_vertices(g, left_out, bonus)
    case = (g.edges(), sorted(left_out), bonus)
    assert table.alpha == want.alpha, case
    kept = [u for u in range(g.n) if u not in left_out]
    assert [table.alpha_with[u] for u in kept] == [want.alpha_with[u] for u in kept], case
    assert [table.ais[u] for u in kept] == [want.ais[u] for u in kept], case
    hubs = (decompose(g).cut_vertices | {x for x, _, _ in bonus}).difference(left_out)
    assert {h: table.exc[h] for h in hubs} == {h: want.exc[h] for h in hubs}, case


def random_bonus(rng, g):
    """Up to three (x, d_inc, d_exc) structures at random vertices, cut or
    simplicial, plain cliques (0, 1) or extended 2-blocks (1, 1); one
    anchor may carry two."""
    bonus = [(rng.randrange(g.n), rng.randint(0, 1), 1) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        bonus.append((bonus[0][0], 0, 1))
    return bonus


class TestHubWalkMatchesVertexReference:
    """`_alpha_pass` and `dc_exact` walk the forest over hubs and blocks and
    count each block's simplicial vertices; `brutes` keeps the passes
    that visit every vertex."""

    def test_left_out_sets(self, graphs_up_to_10):
        rng = random.Random(32)
        for g in graphs_up_to_10:
            assert_walk_matches_vertex_reference(g)
            for _ in range(2):
                p = rng.random()
                assert_walk_matches_vertex_reference(
                    g, {v for v in range(g.n) if rng.random() < p})

    def test_bonus_lists(self, graphs_up_to_8):
        rng = random.Random(33)
        for g in graphs_up_to_8:
            assert_walk_matches_vertex_reference(g, bonus=random_bonus(rng, g))
            # one bonus at a simplicial vertex, one at a cut vertex
            simp = sorted(set(range(g.n)) - decompose(g).cut_vertices)
            bonus = [(rng.choice(simp), 1, 1)]
            if decompose(g).cut_vertices:
                bonus.append((min(decompose(g).cut_vertices), 0, 1))
            assert_walk_matches_vertex_reference(g, bonus=bonus)

    def test_disconnected_graphs_read_from_files(self, graphs_up_to_7, tmp_path):
        rng = random.Random(34)
        path = tmp_path / "graph.json"
        for _ in range(300):
            parts = rng.sample(graphs_up_to_7, rng.randint(2, 4))
            n, edges = rng.randint(0, 2), []  # isolated vertices first
            for h in parts:
                edges += [[u + n, v + n] for u, v in h.edges()]
                n += h.n
            path.write_text(json.dumps({"n": n, "edges": edges}))
            g = load_graph(path)
            assert_walk_matches_vertex_reference(g)
            assert_walk_matches_vertex_reference(g, {v for v in range(n) if rng.random() < 0.3})
            assert_walk_matches_vertex_reference(g, bonus=random_bonus(rng, g))
            assert inv.dc_exact(g) == brutes.dc_by_vertices(g), edges

    def test_box_flower_graphs(self):
        instances = brutes.packing_box()
        assert len(instances) == 911
        for sizes, k, B in instances:
            g = build_gls(BinPackingInstance(sizes, k, B)).graph
            assert_walk_matches_vertex_reference(g)

    def test_passes_of_the_certify_suite(self, tmp_path, monkeypatch):
        # every alpha pass made while the benchmark's 40 `certify` suite
        # graphs are generated and decomposed, replayed on both sides
        calls = []
        walk = inv._alpha_pass

        def recorded(g, left_out=(), bonus=()):
            left_out = frozenset(left_out)
            calls.append((g, left_out, tuple(bonus)))
            return walk(g, left_out, bonus)

        monkeypatch.setattr(inv, "_alpha_pass", recorded)
        plan = brutes.bench_inputs("certify", tmp_path)
        for _, r, seed in plan["certs"]:
            g, _ = generate_with_alphamin(r, seed=seed)
            assert find_decomposition(g) is not None
        monkeypatch.undo()
        assert len(calls) > 1000
        for g, left_out, bonus in calls:
            assert_walk_matches_vertex_reference(g, left_out, bonus)

    def test_dc_up_to_11(self):
        count = 0
        for g, _ in generate_block_graphs(11):
            assert inv.dc_exact(g) == brutes.dc_by_vertices(g), g.edges()
            count += 1
        assert count == 7259


class TestBoundsReport:
    def test_pendant_family_k2(self):
        rep = inv.bounds_report(clique_with_pendant_cliques(2))
        assert rep.lower_bound == 3
        assert rep.window == (3, 4)
        assert oracle.exact_chi_eq(clique_with_pendant_cliques(2)) == 4

    def test_k4(self):
        rep = inv.bounds_report(complete_graph(4))
        assert rep.lower_bound == 4
        assert oracle.exact_chi_eq(complete_graph(4)) == 4

    def test_showcase_flower_window(self):
        from blockeq.gls import BinPackingInstance, build_gls

        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4)).graph
        rep = inv.bounds_report(g)
        assert rep.n == 68 and rep.omega == 4 and rep.alpha_min == 17
        assert rep.lower_bound == 4 and rep.window == (4, 5)
        assert rep.dc == 5

    def test_dc_present_when_small(self):
        rep = inv.bounds_report(path_graph(4))
        assert rep.dc == 1 and rep.dc_set == frozenset({1})
