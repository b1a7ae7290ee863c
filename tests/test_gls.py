import json
import random
from collections import Counter
from itertools import product

import pytest

from blockeq import cli, formats, oracle
from blockeq import invariants as inv
from blockeq.errors import (
    AlgorithmInvariantError,
    InstanceInvariantError,
    NotUniformConsistentError,
    TBelowThresholdError,
    UnrealizableError,
)
from blockeq.gls import (
    BinPackingInstance,
    _greedy_start,
    _recolor_to_equitable,
    _transport_fill,
    build_gls,
    color_nplus2,
    color_uniform,
    equitably_k1_colorable_uniform,
    realize_flower,
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

    def test_row_one_has_enough_room(self):
        # color 1 holds the hub cell of column 0 and no flower hub, so it
        # has room 1 + n(a+1); that always covers the largest class
        for a, n, k, B in brutes.uniform_grid():
            total = (k + 1) * (a * n + n + 1)
            for t in range(k + 2, max(total, k + 6) + 1):
                assert 1 + n * (a + 1) >= -(total // -t)

    def test_fill_reports_infeasible_totals(self):
        # color 1 owns the only column's hub cell, which stays pinned
        # to 1, so it can never reach 3 vertices
        with pytest.raises(AlgorithmInvariantError, match="no feasible count matrix"):
            _transport_fill([3, 1], [2], [4], [1])

    @pytest.mark.parametrize("a,n,k,B,t", [(1, 1, 1, 1, 3), (1, 2, 2, 1, 4)])
    def test_fill_repairs_a_row_the_prefill_leaves_short(self, a, n, k, B, t):
        # (1, 1, 1, 1, 3): the prefill fills column 0 with colors 1 and 3,
        # and column 1 holds the hub of color 2, so color 2 is left one
        # short; only an augmenting path that moves a unit of color 3 from
        # column 0 to column 1 makes room for it
        total = (k + 1) * (a * n + n + 1)
        q, r = divmod(total, t)
        sizes = [q + 1] * r + [q] * (t - r)
        caps = [B + 1] + [a + 1] * n
        colsize = [(B + 1) * k + 1] + [(a + 1) * k + 1] * n
        matrix, _ = color_uniform(a, n, k, B, t)
        uc = list(matrix.universal_colors)
        columns = _transport_fill(sizes, caps, colsize, uc)
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


def _assert_deal(out, counts, a, k, hub):
    """`realize_flower`'s contract: a+1 cliques of k distinct ascending
    colors, none of them the hub's, tallying to the counts less the hub
    unit."""
    assert len(out) == a + 1
    for chosen in out:
        assert len(chosen) == k and list(chosen) == sorted(set(chosen)) and hub not in chosen
    assert Counter(c for chosen in out for c in chosen) + Counter({hub: 1}) == Counter(counts)


class TestSparseMatchesDenseReference:
    """The count matrix held and filled by its nonzero cells against the
    dense t x (n+1) table and fill it replaced (`brutes`), and its
    realization against the contract any realization must meet."""

    def test_grid_pairs(self):
        # the columns densify to the reference matrix, hold only nonzero
        # cells, so no more than their flower's vertices, and realize to a
        # proper equitable coloring whose per-flower tallies are the columns
        pairs = 0
        for a, n, k, B, t in _grid_pairs():
            matrix, coloring = color_uniform(a, n, k, B, t)
            reference = brutes.color_uniform_dense(a, n, k, B, t)
            dense = tuple(
                tuple(col.get(c, 0) for col in matrix.columns) for c in range(1, t + 1))
            assert dense == reference.entries, (a, n, k, B, t)
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

    def test_realize_flower_on_random_feasible_columns(self):
        rng = random.Random(33)
        for _ in range(1000):
            cliques, k = rng.randint(1, 60), rng.randint(1, 4)
            colors = rng.sample(range(1, 400), rng.randint(k, min(k * cliques, 300)))
            counts = {}
            for _ in range(k * cliques):
                # a color at the cap of one per clique gives its unit to the next
                c = rng.choice(colors)
                while counts.get(c, 0) == cliques:
                    c = colors[(colors.index(c) + 1) % len(colors)]
                counts[c] = counts.get(c, 0) + 1
            hub = rng.choice([c for c in range(1, 401) if c not in counts])
            counts[hub] = 1
            _assert_deal(realize_flower(counts, cliques - 1, k, hub), counts, cliques - 1, k, hub)


class TestLinearSize:
    """Sizes that grow with |V| alone, whatever t is; nothing is timed.
    The bound on each column's cells is checked over the grid, with the
    reference, in `TestSparseMatchesDenseReference.test_grid_pairs`."""

    def test_color_uniform_output_at_t_equal_to_the_vertex_count(self, capsys):
        # the dense table alone printed 4,002 x 1,001 cells
        argv = ["gls", "color-uniform", "--a", "1", "--k", "1", "--n", "1000", "--B", "1000",
                "--t", "4002"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 200_000
        assert len(json.loads(out)["coloring"]["colors"]) == 4002


class TestRealizeFlower:
    def test_two_cliques_two_colors(self):
        out = realize_flower({9: 1, 1: 2, 2: 2}, 1, 2, 9)
        assert out == [(1, 2), (1, 2)]

    def test_three_single_slots(self):
        out = realize_flower({7: 1, 1: 2, 2: 1}, 2, 1, 7)
        assert out == [(1,), (1,), (2,)]

    def test_deal_spreads_counts(self):
        out = realize_flower({9: 1, 1: 3, 2: 2, 3: 1}, 2, 2, 9)
        assert out == [(1, 2), (1, 2), (1, 3)]

    def test_realizes_exactly_the_columns_an_assignment_search_splits(self):
        # every column of up to 5 colors, each at most one over the cap,
        # on up to 4 cliques of up to 3 vertices
        vectors = feasible = 0
        for cliques, k in product(range(1, 5), range(1, 4)):
            a = cliques - 1
            for m in range(1, 6):
                for units in product(range(a + 3), repeat=m):
                    if sum(units) != k * cliques:
                        continue
                    vectors += 1
                    counts = dict(enumerate(units, start=1))
                    hub = m + 1
                    exists = brutes.flower_assignment_exists(counts, cliques, k)
                    try:
                        out = realize_flower({**counts, hub: 1}, a, k, hub)
                    except UnrealizableError:
                        assert not exists, (counts, cliques, k)
                        continue
                    assert exists, (counts, cliques, k)
                    _assert_deal(out, {**counts, hub: 1}, a, k, hub)
                    feasible += 1
        assert (vectors, feasible) == (2857, 1531)

    def test_hub_color_reuse_rejected(self):
        with pytest.raises(UnrealizableError):
            realize_flower({9: 2, 1: 2, 2: 2}, 1, 3, 9)

    def test_overfull_color_rejected(self):
        with pytest.raises(UnrealizableError):
            realize_flower({9: 1, 1: 4}, 1, 2, 9)


class TestColorNPlus2:
    def test_showcase_instance_sizes(self):
        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
        stats = {}
        coloring = color_nplus2(g, stats=stats)
        assert sorted(coloring.class_sizes(), reverse=True) == [12, 12, 11, 11, 11, 11]
        chk = oracle.check_coloring(g.graph, coloring)
        assert chk.proper and chk.equitable
        # committed moves strictly increase the class-size product
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
        g = build_gls(BinPackingInstance((1, 1, 1, 1), 2, 2))
        stats = {}
        coloring = color_nplus2(g, stats=stats)
        assert stats["moves"] == 0
        sizes = coloring.class_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_slide_unlocks_pendant_edge_flowers(self):
        # from the greedy start, the generic move alone stops one unit
        # short of equitable on these k = 1 instances
        for sizes, k, B in [((4,), 1, 4), ((7,), 1, 7)]:
            g = build_gls(BinPackingInstance(sizes, k, B))
            stats = {}
            coloring = color_nplus2(g, stats=stats)
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
    """The greedy start read off the flowers against the degree-ordered
    greedy over the auxiliary graph's adjacency that it replaced: the
    same coloring, and the same (n+2)-coloring recolored from it."""

    @staticmethod
    def _assert_matches_the_degree_order(inst):
        built = build_gls(inst, cross_check=False)
        reference = brutes.greedy_start_by_degree(built)
        assert _greedy_start(built) == reference, inst
        assert color_nplus2(built) == _recolor_to_equitable(built, reference), inst

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
