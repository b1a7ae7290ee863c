import json
import pickle
import random
import subprocess
import sys
from itertools import combinations

import pytest

from blockeq import invariants, oracle
from blockeq.characterization import (
    _attach_cliques,
    apply_operation,
    find_decomposition,
    generate_with_alphamin,
    verify_certificate,
)
from blockeq.errors import (
    DisconnectedError,
    EdgelessError,
    NotABlockGraphError,
    SelfLoopError,
    UnknownVertexError,
)
from blockeq.families import (
    clique_with_pendant_cliques,
    complete_graph,
    path_graph,
    star_of_cliques,
    triangle_with_pendant_edge,
    two_triangles_sharing_a_vertex,
)
from blockeq.gls import BinPackingInstance, build_gls
from blockeq.graph import (
    BlockGraph,
    clique_levels,
    clique_star_center,
    decompose,
    from_edge_list,
    generate_block_graphs,
)

import brutes


class TestFromEdgeList:
    def test_triangle_is_valid(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3 and g.edge_count() == 3

    def test_four_cycle_rejected_with_witness(self):
        with pytest.raises(NotABlockGraphError) as exc:
            from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        u, v = exc.value.witness
        assert u != v and {u, v} <= {0, 1, 2, 3}

    def test_triangle_plus_pendant_edge_valid(self):
        g = triangle_with_pendant_edge()
        blocks = [sorted(b) for b in decompose(g).blocks]
        assert blocks == [[0, 1, 2], [2, 3]]
        # matches the brute maximal-2-connected-subset oracle
        assert brutes.brute_blocks(g) == sorted(decompose(g).blocks, key=sorted)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(2, [(0, 0)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(UnknownVertexError):
            from_edge_list(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1


class TestDecompose:
    def test_single_triangle(self):
        deco = decompose(complete_graph(3))
        assert [sorted(b) for b in deco.blocks] == [[0, 1, 2]]
        assert not deco.cut_vertices

    def test_path4(self):
        deco = decompose(path_graph(4))
        assert [sorted(b) for b in deco.blocks] == [[0, 1], [1, 2], [2, 3]]
        assert sorted(deco.cut_vertices) == [1, 2]

    def test_triangle_pendant_cut_vertex(self):
        deco = decompose(triangle_with_pendant_edge())
        assert sorted(deco.cut_vertices) == [2]

    def test_cut_vertices_match_articulation_oracle(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert decompose(g).cut_vertices == frozenset(
                brutes.brute_articulation_points(g)
            ), g.edges()

    def test_every_vertex_cut_xor_simplicial(self, graphs_up_to_8):
        # simplicial exactly when not a cut vertex, for every vertex
        for g in graphs_up_to_8:
            deco = decompose(g)
            for v in range(g.n):
                nbrs = sorted(g.neighbors(v))
                simplicial = all(
                    g.adjacent(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                )
                assert simplicial == (v not in deco.cut_vertices)

    def test_block_sizes_sum_to_tree_count(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            deco = decompose(g)
            assert sum(len(b) - 1 for b in deco.blocks) == g.n - 1

    def test_edges_partition_into_blocks(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            deco = decompose(g)
            for u, v in g.edges():
                homes = [b for b in deco.blocks if u in b and v in b]
                assert len(homes) == 1

    def test_two_blocks_share_at_most_one_vertex(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            deco = decompose(g)
            for i, b1 in enumerate(deco.blocks):
                for b2 in deco.blocks[i + 1:]:
                    shared = b1 & b2
                    assert len(shared) <= 1
                    if shared:
                        assert shared <= deco.cut_vertices

    def test_block_cut_incidences_form_a_forest(self, graphs_up_to_7):
        # acyclic bipartite structure: edges = nodes - components
        for g in graphs_up_to_7:
            deco = decompose(g)
            nodes = len(deco.blocks) + len(deco.cut_vertices)
            comps = len(oracle.connected_components(g))
            assert sum(len(b & deco.cut_vertices) for b in deco.blocks) == nodes - comps


class TestCliqueLevels:
    def test_star_of_two_triangles(self):
        g = two_triangles_sharing_a_vertex()
        lv = clique_levels(g)
        assert set(lv.levels.values()) == {1}
        assert lv.unleveled_singleton == 0

    def test_path5_peeling(self):
        g = path_graph(5)
        lv = clique_levels(g)
        deco = decompose(g)
        by_block = {tuple(sorted(deco.blocks[i])): l for i, l in lv.levels.items()}
        assert by_block == {(0, 1): 1, (3, 4): 1, (1, 2): 2, (2, 3): 2}
        assert lv.unleveled_singleton == 2

    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        lv = clique_levels(g)
        assert list(lv.levels.values()) == [1]
        assert lv.unleveled_singleton is None

    def test_rejects_disconnected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            clique_levels(g)

    def test_rejects_edgeless(self):
        with pytest.raises(EdgelessError):
            clique_levels(BlockGraph(1, []))

    def test_level_one_blocks_are_pendant_blocks(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            if g.edge_count() == 0:
                continue
            lv = clique_levels(g)
            deco = decompose(g)
            level1 = {i for i, l in lv.levels.items() if l == 1}
            pendant = set(deco.pendant_block_indices())
            if len(deco.blocks) == 1:
                assert level1 == {0}
            else:
                assert level1 == pendant

    def test_matches_peel_by_rounds(self, graphs_up_to_10):
        for g in graphs_up_to_10:
            if g.edge_count() == 0:
                continue
            assert clique_levels(g) == brutes.peel_by_rounds(g), g.edges()

    def test_round_bound_half_diameter(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            if g.edge_count() == 0:
                continue
            lv = clique_levels(g)
            diam = brutes.bfs_diameter(g)
            assert lv.rounds <= -(diam // -2) + 1


class TestCliqueStar:
    def test_two_triangles(self):
        assert clique_star_center(two_triangles_sharing_a_vertex()) == 0

    def test_path4_not_star(self):
        assert clique_star_center(path_graph(4)) is None

    def test_single_clique_flagged(self):
        g = complete_graph(4)
        assert clique_star_center(g) is None and len(decompose(g).blocks) == 1

    def test_star_means_no_level_two(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if g.edge_count() == 0 or len(decompose(g).blocks) < 2:
                continue
            lv = clique_levels(g)
            assert (clique_star_center(g) is not None) == (max(lv.levels.values()) < 2)

    def test_matches_block_intersection(self, graphs_up_to_9):
        # the only cut vertex is the vertex common to every block
        for g in graphs_up_to_9:
            assert clique_star_center(g) == brutes.clique_star_center(g), g.edges()

    def test_disconnected_graph_raises(self):
        with pytest.raises(DisconnectedError):
            clique_star_center(from_edge_list(5, [(0, 1), (1, 2), (3, 4)]))


class TestSurgery:
    def test_delete_closed_neighborhood_of_path_center(self):
        p3 = path_graph(3)
        g, id_map = p3.induced_subgraph(set(range(p3.n)) - p3.closed_neighborhood(1))
        assert g.n == 0 and id_map == {}

    def test_k4_minus_vertex(self):
        g, id_map = complete_graph(4).induced_subgraph(set(range(4)) - {3})
        assert g.n == 3 and g.edge_count() == 3
        assert id_map == {0: 0, 1: 1, 2: 2}

    def test_triangle_pendant_minus_leaf(self):
        g, _ = triangle_with_pendant_edge().induced_subgraph(set(range(4)) - {3})
        assert g.n == 3 and g.edge_count() == 3

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            path_graph(3).induced_subgraph([0, 7])

    @pytest.mark.parametrize("keep, named", [([-3, 0, 7], -3), ([0, 7, 9], 7), ({9, 7, 0}, 7)])
    def test_unknown_vertex_named_first_in_sorted_order(self, keep, named):
        with pytest.raises(UnknownVertexError, match=rf"^vertex {named} outside 0\.\.4$"):
            path_graph(5).induced_subgraph(keep)

    def test_deletion_commutes_with_decomposition(self, graphs_up_to_7):
        # induced subgraph blocks agree with the brute biconnectivity
        # oracle run on the deleted graph directly
        for g in graphs_up_to_7:
            if g.n < 2:
                continue
            sub, _ = g.induced_subgraph(set(range(g.n)) - {g.n - 1})
            assert brutes.brute_blocks(sub) == sorted(decompose(sub).blocks, key=sorted)

    def test_labels_follow_deletion(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        sub, id_map = g.induced_subgraph(set(range(g.n)) - {0})
        assert sub.labels == ("b", "c")
        assert id_map == {1: 0, 2: 1}


def assert_same_decomposition(g):
    ref = decompose(BlockGraph(g.n, g.edges()))
    deco = decompose(g)
    assert deco.blocks == ref.blocks, g.edges()
    assert deco.cut_vertices == ref.cut_vertices, g.edges()
    for v in range(g.n):
        assert deco.block_indices_of(v) == ref.block_indices_of(v), g.edges()


class TestDerivedDecomposition:
    """Graphs built from a block list, not decomposed again, carry the
    decomposition Hopcroft-Tarjan finds on their edges."""

    def test_induced_subgraphs(self, graphs_up_to_9):
        rng = random.Random(6)
        disconnected = 0
        for g in graphs_up_to_9:
            for _ in range(3):
                sub, id_map = g.induced_subgraph(v for v in range(g.n) if rng.random() < 0.6)
                assert sub.edges() == [
                    (id_map[u], id_map[v]) for u, v in g.edges() if u in id_map and v in id_map
                ]
                assert_same_decomposition(sub)
                assert sub.is_connected() == (len(oracle.connected_components(sub)) <= 1)
                disconnected += not sub.is_connected()
        assert disconnected > 100

    def test_attached_cliques(self, graphs_up_to_9):
        for g in graphs_up_to_9:
            shapes = [((v,), (size,)) for v in range(g.n) for size in (2, 3, 4)]
            if g.n >= 2:
                shapes.append(((0, g.n - 1), (2, 3)))  # twin double attach
                # an extended twin: a clique at the first 2-block's fresh end
                shapes.append(((0, g.n - 1, g.n), (2, 3, 3)))
            for anchors, sizes in shapes:
                grown = _attach_cliques(g, anchors, sizes)
                cliques, nxt = [], g.n
                for a, size in zip(anchors, sizes):
                    cliques.append((a,) + tuple(range(nxt, nxt + size - 1)))
                    nxt += size - 1
                assert grown.n == nxt
                assert set(grown.edges()) == set(g.edges()) | {
                    (u, w) for c in cliques for u in c for w in c if u < w
                }
                assert_same_decomposition(grown)

    def test_block_list_must_cover_exactly_the_vertices(self):
        # the block list is trusted, but it must describe 0..n-1: a
        # vertex in no block gets no adjacency, an id beyond it no slot
        cases = [
            (3, [{0, 1}], r"0\.\.2: ids \[2\]"),
            (2, [{0, 5}], r"0\.\.1: ids \[1, 5\]"),
            (2, [{0, 1}, {1, 5}], r"0\.\.1: ids \[5\]"),
            (2, [{0, 1}, {-1, 1}], r"0\.\.1: ids \[-1\]"),
            (0, [{0}], r"ids \[0\]"),
        ]
        for n, blocks, ids in cases:
            with pytest.raises(AssertionError, match=ids):
                BlockGraph._from_blocks(n, [frozenset(b) for b in blocks])

    def test_ids_outside_the_graph_lie_in_no_block(self, graphs_up_to_7):
        grown = [_attach_cliques(g, (0,), (3,)) for g in graphs_up_to_7]
        for g in graphs_up_to_7 + grown:
            deco = decompose(g)
            assert deco.block_indices_of(-1) == () == deco.block_indices_of(g.n), g.edges()

    def test_named_families(self):
        # each constructor trusts its block list; the validated build of
        # the edges written from the family's definition must agree
        def cliques(*groups):
            return [e for grp in groups for e in combinations(grp, 2)]

        cases = []
        for n in range(6):
            cases.append((complete_graph(n), n, cliques(range(n))))
            cases.append((path_graph(n), n, [(i, i + 1) for i in range(n - 1)]))
        for k in (2, 3):
            hosts = [u for u in range(k) for _ in range(k + 1)]
            pendants = [(u,) + tuple(range(k * (i + 1), k * (i + 2))) for i, u in enumerate(hosts)]
            cases.append((clique_with_pendant_cliques(k), k + k * k * (k + 1),
                          cliques(range(k), *pendants)))
        cases += [
            (star_of_cliques([]), 1, []),
            (star_of_cliques([2]), 2, [(0, 1)]),
            (star_of_cliques([3, 2, 4]), 7, cliques((0, 1, 2), (0, 3), (0, 4, 5, 6))),
            (two_triangles_sharing_a_vertex(), 5, cliques((0, 1, 2), (0, 3, 4))),
            (triangle_with_pendant_edge(), 4, cliques((0, 1, 2), (2, 3))),
        ]
        for g, n, edges in cases:
            validated = BlockGraph(n, edges)
            assert validated == g, (g, edges)
            assert decompose(validated) == decompose(g), (g, edges)


def assert_adjacency_on_demand(g):
    """g, built from its blocks, has no adjacency yet; reading each N[v]
    off its decomposition builds none, and the built adjacency gives the
    same neighborhoods, which are the validated build's."""
    assert g._adjacency is None, g
    deco = decompose(g)
    before = [deco.closed_neighborhood(v) for v in range(g.n)]
    assert g._adjacency is None, g
    adj = g._adj
    assert g._adjacency is adj
    assert [g.closed_neighborhood(v) for v in range(g.n)] == before, g
    assert [g.neighbors(v) for v in range(g.n)] == [nv - {v} for v, nv in enumerate(before)], g
    assert adj == BlockGraph(g.n, g.edges())._adj, g


def _suite_certificates(tmp_path):
    """The 40 certificates `char gen` writes for the benchmark's `certify` suite."""
    plan = brutes.bench_inputs("certify", tmp_path)
    return [generate_with_alphamin(r, seed=seed)[1] for _, r, seed in plan["certs"]]


class TestAdjacencyOnDemand:
    """A graph built from its blocks derives its adjacency on the first
    read of `_adj`, and not before; until then N[v] is read off its
    decomposition."""

    def test_generated_graphs_and_their_closed_neighborhoods(self):
        count = 0
        for g, _ in generate_block_graphs(9):
            deco = decompose(g)
            subs = [g.induced_subgraph(deco.closed_neighborhood(v))[0] for v in range(g.n)]
            for h in [g] + subs:
                assert_adjacency_on_demand(h)
            count += 1
        assert count == 759

    def test_replayed_growth_steps(self, tmp_path):
        certs = _suite_certificates(tmp_path)
        assert len(certs) == 40
        for cert in certs:
            graphs = [cert.base_graph]
            for op in cert.steps:
                graphs.append(apply_operation(graphs[-1], cert.base_vertex, op))
            # each step read only N[v] and the blocks of the graph it grew
            for g in graphs:
                assert_adjacency_on_demand(g)

    def test_certificate_recovery_and_replay(self):
        # the reverse search, its base clique-star and the replay of the
        # certificate read only blocks
        found = 0
        for g, _ in generate_block_graphs(9):
            if not decompose(g).cut_vertices:
                continue
            cert = find_decomposition(g)
            assert verify_certificate(cert).ok
            assert g._adjacency is None and cert.base_graph._adjacency is None, g
            found += 1
        assert found == 759 - 9  # the nine cliques have no cut vertex

    def test_flower_graphs(self):
        instances = brutes.packing_box()
        assert len(instances) == 911
        for sizes, k, B in instances:
            assert_adjacency_on_demand(build_gls(BinPackingInstance(sizes, k, B)).graph)

    def test_named_families(self):
        graphs = [complete_graph(n) for n in range(6)] + [path_graph(n) for n in range(6)]
        graphs += [clique_with_pendant_cliques(k) for k in (2, 3)]
        graphs += [star_of_cliques([]), star_of_cliques([2]), star_of_cliques([3, 2, 4]),
                   two_triangles_sharing_a_vertex(), triangle_with_pendant_edge()]
        for g in graphs:
            assert_adjacency_on_demand(g)

    def test_gls_build_reads_no_adjacency(self):
        # what `gls build` reports: |V|, omega and alpha_min
        for sizes, k, B in brutes.packing_box():
            g = build_gls(BinPackingInstance(sizes, k, B)).graph
            invariants.alpha_min(g)
            decompose(g).max_block_size()
            assert g._adjacency is None, (sizes, k, B)

    def test_graphs_from_files_build_their_adjacency(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert g._adjacency is not None

    def test_pickle_before_and_after_the_build(self):
        for g, _ in generate_block_graphs(8):
            clone = pickle.loads(pickle.dumps(g))
            assert clone._adjacency is None
            assert decompose(clone) == decompose(g)
            assert clone._adj == g._adj
            again = pickle.loads(pickle.dumps(g))
            assert again._adjacency == g._adjacency
            assert decompose(again) == decompose(g)

    def test_parallel_sweep_matches_the_serial_one(self):
        def report(jobs):
            proc = subprocess.run(
                [sys.executable, "-m", "blockeq.cli", "verify", "dc-le-alphamin",
                 "--max-n", "9", "--jobs", str(jobs)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout)
            for key in ("runtime_seconds", "jobs"):
                out.pop(key)
            return out

        serial = report(1)
        assert serial["scope"]["graph_count"] == 759
        assert report(2) == serial
