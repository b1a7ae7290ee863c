import json
import random
from collections import Counter

import pytest

from blockeq import cli, formats, oracle
from blockeq import invariants as inv
from blockeq.errors import (
    AlgorithmInvariantError,
    InstanceInvariantError,
    NotUniformConsistentError,
    TBelowThresholdError,
)
from blockeq.gls import (
    BinPackingInstance,
    Coloring,
    _deal,
    _equitable_class_sizes,
    build_gls,
    color_nplus2,
    color_uniform,
    equitably_k1_colorable_uniform,
    uniform_gls,
)
from blockeq.graph import BlockGraph, decompose

import brutes


class TestBuild:
    def test_showcase_instance_closed_forms(self):
        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
        assert g.graph.n == 68
        assert decompose(g.graph).max_block_size() == 4
        assert inv.alpha_min(g.graph).value == 17

    def test_two_small_instances(self):
        assert build_gls(BinPackingInstance((2, 2), 1, 4)).graph.n == 14
        assert build_gls(BinPackingInstance((1,), 1, 1)).graph.n == 6

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InstanceInvariantError):
            build_gls(BinPackingInstance((3, 3), 2, 4))

    def test_oversized_item_rejected(self):
        with pytest.raises(InstanceInvariantError):
            build_gls(BinPackingInstance((5, 3), 2, 4))

    def test_closed_forms_across_instances(self):
        for sizes, k, B in [((1, 2), 1, 3), ((2, 2, 2), 3, 2), ((1, 1, 2), 2, 2)]:
            inst = BinPackingInstance(sizes, k, B)
            g = build_gls(inst)
            n = len(sizes)
            assert g.graph.n == (k + 1) * (k * B + n + 1)
            assert inv.alpha_min(g.graph).value == n + 1 + k * B

    def test_built_from_blocks_equals_validated_build(self):
        # build_gls trusts its block list; the validated build of the
        # edges written from the definition must agree
        instances = brutes.packing_box()
        assert len(instances) == 911
        for sizes, k, B in instances:
            inst = BinPackingInstance(sizes, k, B)
            edges = brutes.flower_edges(inst)
            validated = BlockGraph(1 + max(map(max, edges)), edges)
            g = build_gls(inst).graph
            assert validated == g, (sizes, k, B)
            assert decompose(validated) == decompose(g), (sizes, k, B)


class TestUniformDecision:
    def test_divisible(self):
        assert equitably_k1_colorable_uniform(2, 2, 1, 4)
        assert equitably_k1_colorable_uniform(1, 3, 3, 1)

    def test_not_divisible(self):
        assert not equitably_k1_colorable_uniform(3, 4, 3, 4)

    def test_inconsistent_rejected(self):
        with pytest.raises(NotUniformConsistentError):
            equitably_k1_colorable_uniform(2, 3, 1, 4)

    def test_matches_exact_search_small(self):
        # packing solvability really is (k+1)-colorability at desk scale
        for a, n, k, B in brutes.uniform_grid():
            g = build_gls(BinPackingInstance((a,) * n, k, B))
            if g.graph.n > 20:
                continue
            feasible, w = oracle.exact_equitable_colorable(g.graph, k + 1)
            assert feasible == (B % a == 0), (a, n, k, B)
            if feasible:
                chk = oracle.check_coloring(g.graph, w)
                assert chk.proper and chk.equitable


def _start_bound(a, n, k, B, t):
    """(largest start demand, smallest class, most hubs of one color) of
    `color_uniform`'s deal, in closed form.  Color 1 holds y_0, under
    B+1 cliques; colors 2..t split the other n hubs, each under a+1
    cliques, equitably in ascending color, as the class sizes are.  So
    among colors 2..t, color 2 has the largest class and the most hubs,
    and with them the largest demand: its class less its h hubs, plus
    h(a+1) cliques."""
    q, r = divmod((k + 1) * (k * B + n + 1), t)
    hubs = -(-n // (t - 1))
    return max(q + (r >= 1) + B, q + (r >= 2) + a * hubs), q, hubs


class TestColorUniform:
    def test_smallest_example_class_sizes(self):
        matrix, coloring = color_uniform(2, 2, 1, 4, 3)
        assert sorted(coloring.class_sizes(), reverse=True) == [5, 5, 4]
        g = build_gls(BinPackingInstance((2, 2), 1, 4))
        chk = oracle.check_coloring(g.graph, coloring)
        assert chk.proper and chk.equitable

    def test_showcase_instance_five_colors(self):
        matrix, coloring = color_uniform(3, 4, 3, 4, 5)
        assert sorted(coloring.class_sizes(), reverse=True) == [14, 14, 14, 13, 13]
        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
        chk = oracle.check_coloring(g.graph, coloring)
        assert chk.proper and chk.equitable

    def test_threshold_coloring(self):
        matrix, coloring = color_uniform(2, 3, 2, 3, 4)
        g = build_gls(BinPackingInstance((2, 2, 2), 2, 3))
        chk = oracle.check_coloring(g.graph, coloring)
        assert chk.proper and chk.equitable

    def test_t_below_threshold_rejected(self):
        with pytest.raises(TBelowThresholdError):
            color_uniform(2, 2, 1, 4, 2)

    def test_every_color_fits_the_deal_at_every_t(self):
        # the gap-free spectrum, by arithmetic: `_deal` colors the graph
        # whenever no color's start demand (units needed plus cliques
        # under a hub of its color) exceeds the clique count and every
        # class holds its hubs
        pairs = 0
        for a, n, k, B in brutes.uniform_grid(max_a=12, max_n=12, max_k=6):
            cliques = B + 1 + n * (a + 1)
            for t in range(k + 2, (k + 1) * (k * B + n + 1) + 1):
                demand, smallest, hubs = _start_bound(a, n, k, B, t)
                assert demand <= cliques and smallest >= hubs, (a, n, k, B, t)
                pairs += 1
        assert pairs == 100974

    def test_start_bound_reads_every_color(self):
        # the closed form against each color's demand, class size and
        # hub count, with the hub colors `color_uniform` chose
        for a, n, k, B in brutes.uniform_grid():
            total = (k + 1) * (k * B + n + 1)
            for t in range(k + 2, total + 1):
                matrix, _ = color_uniform(a, n, k, B, t)
                sizes = _equitable_class_sizes(total, t)
                demand = [0, *sizes]
                hubs = [0] * (t + 1)
                for c, cap in zip(matrix.universal_colors, matrix.caps()):
                    demand[c] += cap - 1
                    hubs[c] += 1
                expected = (max(demand), min(sizes), max(hubs))
                assert _start_bound(a, n, k, B, t) == expected, (a, n, k, B, t)

    def test_fill_reports_infeasible_totals(self):
        # color 1 is y_0's, so only flower 1's two cliques admit its
        # units, and a class of 4 leaves it one clique short
        g = build_gls(BinPackingInstance((1,), 1, 1))
        with pytest.raises(AlgorithmInvariantError, match="no feasible count matrix"):
            _deal(g, [1, 2], [4, 2])
        # and class sizes that miss |V| = 6 leave some clique short
        with pytest.raises(AlgorithmInvariantError, match="no feasible count matrix"):
            _deal(g, [1, 2], [3, 2])

    def test_deal_rereads_a_stale_demand(self):
        # color 1's demand falls from 4 to 1 over flower 0's cliques with
        # no push; read at its stale key, it would take flower 1's first
        # clique from color 3, at the full demand R = 4, and leave a unit
        # of color 3 that only flower 2, whose hub has color 3, is left for
        g = build_gls(BinPackingInstance((1, 1), 1, 2))
        coloring = Coloring(_deal(g, [1, 2, 3], [2, 2, 6]), 3)
        assert coloring.class_sizes() == [2, 2, 6]
        assert oracle.check_coloring(g.graph, coloring).proper

    @pytest.mark.parametrize("a,n,k,B,t", [(1, 1, 1, 1, 3), (1, 2, 2, 1, 4)])
    def test_matrix_meets_its_totals_with_little_slack(self, a, n, k, B, t):
        # (1, 1, 1, 1, 3): column 1 holds the hub of color 2, so color 2
        # has only column 0 left for its second unit
        total = (k + 1) * (a * n + n + 1)
        q, r = divmod(total, t)
        sizes = [q + 1] * r + [q] * (t - r)
        caps = [B + 1] + [a + 1] * n
        colsize = [(B + 1) * k + 1] + [(a + 1) * k + 1] * n
        matrix, _ = color_uniform(a, n, k, B, t)
        uc, columns = matrix.universal_colors, matrix.columns
        assert [sum(col.get(c, 0) for col in columns) for c in range(1, t + 1)] == sizes
        assert [sum(col.values()) for col in columns] == colsize
        for x, col in enumerate(columns):
            assert col[uc[x]] == 1
            assert all(count <= caps[x] for count in col.values())

    def test_matrix_invariants_across_grid(self):
        for a, n, k, B in brutes.uniform_grid():
            for t in range(k + 2, k + 7):
                total = (k + 1) * (a * n + n + 1)
                if t > total:
                    # more colors than vertices is refused
                    with pytest.raises(ValueError, match=f"t={t} exceeds the vertex count"):
                        color_uniform(a, n, k, B, t)
                    continue
                matrix, coloring = color_uniform(a, n, k, B, t)
                q, r = divmod(total, t)
                sizes = [q + 1] * r + [q] * (t - r)
                assert matrix.violations(sizes) == []
                assert sorted(coloring.class_sizes(), reverse=True) == sizes


# many colors on few, small flowers: the count matrix has little slack,
# so a fill must move units between cells to meet every column sum
HIGH_T_PAIRS = [
    (3, 3, 3, 3, 26), (3, 4, 4, 3, 42), (4, 5, 4, 5, 39), (5, 2, 2, 5, 13),
    (5, 3, 3, 5, 25), (5, 4, 4, 5, 41), (6, 3, 2, 9, 12), (7, 4, 4, 7, 36),
    (7, 4, 4, 7, 38),
]


@pytest.mark.parametrize("a,n,k,B,t", HIGH_T_PAIRS)
def test_high_t_pair_matrix_and_coloring(a, n, k, B, t):
    matrix, coloring = color_uniform(a, n, k, B, t)
    total = (k + 1) * (a * n + n + 1)
    q, r = divmod(total, t)
    sizes = [q + 1] * r + [q] * (t - r)
    assert matrix.violations(sizes) == []
    g = build_gls(BinPackingInstance((a,) * n, k, B))
    chk = oracle.check_coloring(g.graph, coloring)
    assert chk.proper and chk.equitable


def _grid_pairs():
    """Acceptance 05's pairs: every uniform instance with a <= 8, n <= 6,
    k <= 4 and every k+2 <= t <= |V|."""
    for a, n, k, B in brutes.uniform_grid(max_a=8, max_n=6, max_k=4):
        for t in range(k + 2, (k + 1) * (k * B + n + 1) + 1):
            yield a, n, k, B, t


class TestSparseMatchesDenseReference:
    """The deal, and the count matrix tallied off it, against the
    contract any equitable coloring of a flower graph meets, and against
    the dense transportation fill it replaced (`brutes`)."""

    def test_grid_pairs(self):
        # the columns meet every matrix invariant, hold only nonzero
        # cells, so no more than their flower's vertices, and are the
        # per-flower tallies of a proper equitable coloring
        pairs = 0
        for a, n, k, B, t in _grid_pairs():
            matrix, coloring = color_uniform(a, n, k, B, t)
            sizes = _equitable_class_sizes((k + 1) * (k * B + n + 1), t)
            assert matrix.violations(sizes) == [], (a, n, k, B, t)
            g = uniform_gls(a, n, k, B)
            chk = oracle.check_coloring(g.graph, coloring)
            assert chk.proper and chk.equitable, (a, n, k, B, t)
            for hub, cliques, col in zip(g.universal_vertices, g.cliques, matrix.columns):
                flower = [hub, *(v for members in cliques for v in members)]
                assert Counter(coloring.color[v] for v in flower) == col, (a, n, k, B, t)
            bounds = [(B + 1) * k + 1] + [(a + 1) * k + 1] * n
            for col, bound in zip(matrix.columns, bounds):
                assert len(col) <= bound and min(col.values()) >= 1, (a, n, k, B, t)
            pairs += 1
        assert pairs == 7938

    def test_deal_decides_as_the_dense_fill(self):
        # random hub colors, with y_0's apart from every other hub's, and
        # equitable class sizes with up to 3 units moved between classes:
        # the deal colors the graph exactly when the dense fill finds a
        # count matrix, and then to those class sizes, properly
        rng = random.Random(35)
        instances = brutes.packing_box()
        feasible = 0
        for _ in range(3000):
            sizes, k, B = rng.choice(instances)
            g = build_gls(BinPackingInstance(sizes, k, B), cross_check=False)
            t = rng.randint(k + 1, k + 6)
            uc = [rng.randint(1, t)]
            uc += [rng.choice([c for c in range(1, t + 1) if c != uc[0]]) for _ in sizes]
            classes = _equitable_class_sizes(g.graph.n, t)
            for _ in range(rng.randint(0, 3)):
                src, dst = rng.sample(range(t), 2)
                if classes[src]:
                    classes[src] -= 1
                    classes[dst] += 1
            caps = [B + 1, *(x + 1 for x in sizes)]
            colsize = [cap * k + 1 for cap in caps]
            case = (sizes, k, B, uc, classes)
            try:
                brutes.transport_fill_dense(classes, caps, colsize, uc)
            except AlgorithmInvariantError:
                with pytest.raises(AlgorithmInvariantError):
                    _deal(g, uc, classes)
                continue
            coloring = Coloring(_deal(g, uc, classes), t)
            assert coloring.class_sizes() == classes, case
            assert oracle.check_coloring(g.graph, coloring).proper, case
            feasible += 1
        assert feasible == 2365


class TestLinearSize:
    """Sizes that grow with |V| alone, whatever t is; nothing is timed.
    The bound on each column's cells is checked over the grid in
    `TestSparseMatchesDenseReference.test_grid_pairs`."""

    def test_color_uniform_output_at_t_equal_to_the_vertex_count(self, capsys):
        # the dense table alone printed 4,002 x 1,001 cells
        argv = ["gls", "color-uniform", "--a", "1", "--k", "1", "--n", "1000", "--B", "1000",
                "--t", "4002"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 200_000
        assert len(json.loads(out)["coloring"]["colors"]) == 4002


class TestColorNPlus2:
    def test_showcase_instance_sizes(self):
        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
        stats = {}
        for coloring in (color_nplus2(g),
                         brutes.recolor_to_equitable(g, brutes.greedy_start(g), stats)):
            assert sorted(coloring.class_sizes(), reverse=True) == [12, 12, 11, 11, 11, 11]
            chk = oracle.check_coloring(g.graph, coloring)
            assert chk.proper and chk.equitable
        # the paper's recoloring: committed moves strictly increase the class-size product
        assert all(b > a for a, b in zip(stats["products"], stats["products"][1:]))

    def test_small_instances(self):
        for sizes, k, B, expect in [
            ((2, 2), 1, 4, [4, 4, 3, 3]),
            ((1,), 1, 1, [2, 2, 2]),
        ]:
            g = build_gls(BinPackingInstance(sizes, k, B))
            coloring = color_nplus2(g)
            assert sorted(coloring.class_sizes(), reverse=True) == expect
            chk = oracle.check_coloring(g.graph, coloring)
            assert chk.proper and chk.equitable

    def test_equitable_start_commits_no_moves(self):
        # the paper's recoloring commits none from a greedy start that is
        # already equitable; the deal commits none anywhere
        g = build_gls(BinPackingInstance((1, 1, 1, 1), 2, 2))
        recolored, dealt = {}, {}
        colorings = (brutes.recolor_to_equitable(g, brutes.greedy_start(g), recolored),
                     color_nplus2(g, stats=dealt))
        assert recolored["moves"] == dealt["moves"] == 0
        for coloring in colorings:
            sizes = coloring.class_sizes()
            assert max(sizes) - min(sizes) <= 1

    def test_slide_unlocks_pendant_edge_flowers(self):
        # in the paper's recoloring from the greedy start, the generic
        # move alone stops one unit short of equitable on these k = 1
        # instances
        for sizes, k, B in [((4,), 1, 4), ((7,), 1, 7)]:
            g = build_gls(BinPackingInstance(sizes, k, B))
            stats = {}
            coloring = brutes.recolor_to_equitable(g, brutes.greedy_start(g), stats)
            assert stats["moves_by_kind"]["slide"] >= 1, (sizes, k, B)
            assert stats["moves"] == sum(stats["moves_by_kind"].values())
            chk = oracle.check_coloring(g.graph, coloring)
            assert chk.proper and chk.equitable, (sizes, k, B)

    def test_many_instances_reach_equitable(self):
        insts = [
            ((1, 2), 1, 3), ((2, 3), 1, 5), ((1, 1, 2), 2, 2), ((1, 2, 3), 2, 3),
            ((2, 2, 2), 2, 3), ((4, 4), 2, 4), ((1, 1, 1, 1), 2, 2), ((3, 3), 2, 3),
            ((2, 4), 1, 6), ((5, 5), 2, 5), ((1, 3), 1, 4), ((2, 2, 2, 2), 2, 4),
        ]
        for sizes, k, B in insts:
            g = build_gls(BinPackingInstance(sizes, k, B))
            coloring = color_nplus2(g)
            chk = oracle.check_coloring(g.graph, coloring)
            assert chk.proper and chk.equitable, (sizes, k, B)


def _flowers_suite_instances(workdir):
    """The packing instances of the benchmark's `flowers` workload, written
    by its own seeded input suite: the color-n2 instances and the big
    builds."""
    plan = brutes.bench_inputs("flowers", workdir)
    paths = plan["instances"] + plan["big_instances"]
    return [formats.instance_from_json(workdir / name) for name in sorted(paths)]


class TestReferenceGreedyStart:
    """The paper's recoloring: its greedy start read off the flowers
    against the degree-ordered greedy over the auxiliary graph's
    adjacency: the same coloring, and the same (n+2)-coloring recolored
    from it."""

    @staticmethod
    def _assert_matches_the_degree_order(inst):
        built = build_gls(inst, cross_check=False)
        reference = brutes.greedy_start_by_degree(built)
        assert brutes.greedy_start(built) == reference, inst
        assert (brutes.recolor_to_equitable(built, brutes.greedy_start(built))
                == brutes.recolor_to_equitable(built, reference)), inst

    def test_every_box_instance(self):
        instances = brutes.packing_box()
        assert len(instances) == 911
        for sizes, k, B in instances:
            self._assert_matches_the_degree_order(BinPackingInstance(sizes, k, B))

    def test_flowers_suite_instances(self, tmp_path):
        instances = _flowers_suite_instances(tmp_path)
        assert len(instances) == 42
        for inst in instances:
            self._assert_matches_the_degree_order(inst)


class TestDealAtNPlus2:
    """`color_nplus2` deals the cliques with hub y_j in color j+1."""

    def test_start_bound_by_arithmetic(self):
        # with M = kB+n+1 the deal has R = M+B cliques over (k+1)M
        # vertices; color j+1 starts with demand s_c + c_j - 1, at most
        # the largest class plus B (y_0's color, c_0 = B+1), and every
        # instance with sum(A) = kB and 1 <= a_j <= B has k <= n <= kB
        triples = 0
        for k in range(1, 7):
            for B in range(1, 41):
                for n in range(k, k * B + 1):
                    M = k * B + n + 1
                    R = M + B
                    sizes = _equitable_class_sizes((k + 1) * M, n + 2)
                    assert max(sizes) + B <= R and min(sizes) >= 1, (k, B, n)
                    assert sum(sizes) - (n + 1) == k * R, (k, B, n)
                    triples += 1
        assert triples == 16620

    @staticmethod
    def _assert_proper_and_equitable(inst):
        built = build_gls(inst, cross_check=False)
        coloring = color_nplus2(built)
        chk = oracle.check_coloring(built.graph, coloring)
        assert coloring.t == built.n_items + 2 and chk.proper and chk.equitable, inst

    def test_random_instances(self):
        rng = random.Random(36)
        for _ in range(2000):
            k, B = rng.randint(1, 6), rng.randint(1, 40)
            items, rest = [], k * B
            while rest:
                items.append(rng.randint(1, min(B, rest)))
                rest -= items[-1]
            self._assert_proper_and_equitable(BinPackingInstance(tuple(items), k, B))

    def test_flowers_suite_instances(self, tmp_path):
        instances = _flowers_suite_instances(tmp_path)
        assert len(instances) == 42
        for inst in instances:
            self._assert_proper_and_equitable(inst)

    def test_cli_colors_a_large_skewed_instance(self, tmp_path, capsys):
        # 9,616 vertices, where the recoloring made 775 moves, each
        # rescanning every simplicial vertex
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"A": [800, 800, 800], "k": 3, "B": 800}))
        assert cli.main(["gls", "color-n2", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t"] == 5 and len(out["coloring"]["colors"]) == 9616
        assert out["check"] == {"proper": True, "equitable": True}
