import pytest

from blockeq import invariants as inv
from blockeq import oracle
from blockeq.errors import (
    AlgorithmInvariantError,
    CycleFoundError,
    InstanceInvariantError,
    NotUniformConsistentError,
    TBelowThresholdError,
    UnrealizableError,
)
from blockeq.families import complete_graph, path_graph
from blockeq.gls import (
    BinPackingInstance,
    _transport_fill,
    Coloring,
    ComponentKind,
    alternating_components,
    build_gls,
    color_nplus2,
    color_uniform,
    equitably_k1_colorable_uniform,
    realize_flower,
)
from blockeq.graph import decompose


def uniform_grid(max_a=3, max_n=4, max_k=3):
    """All uniform instance parameters with a*n = k*B in the small box."""
    out = []
    for a in range(1, max_a + 1):
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                if (a * n) % k:
                    continue
                B = a * n // k
                if a <= B:
                    out.append((a, n, k, B))
    return out


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
        for a, n, k, B in uniform_grid():
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
        for a, n, k, B in uniform_grid():
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
        C = _transport_fill(sizes, caps, colsize, uc)
        assert [sum(row) for row in C] == sizes
        assert [sum(row[x] for row in C) for x in range(n + 1)] == colsize
        for x in range(n + 1):
            assert C[uc[x] - 1][x] == 1
            assert all(row[x] <= caps[x] for row in C)

    def test_matrix_invariants_across_grid(self):
        for a, n, k, B in uniform_grid():
            for t in range(k + 2, k + 7):
                matrix, coloring = color_uniform(a, n, k, B, t)
                total = (k + 1) * (a * n + n + 1)
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


class TestRealizeFlower:
    def test_two_cliques_two_colors(self):
        out = realize_flower({9: 1, 1: 2, 2: 2}, 1, 2, 9)
        assert out == [(1, 2), (1, 2)]

    def test_three_single_slots(self):
        out = realize_flower({7: 1, 1: 2, 2: 1}, 2, 1, 7)
        assert out == [(1,), (1,), (2,)]

    def test_greedy_spreads_counts(self):
        out = realize_flower({9: 1, 1: 3, 2: 2, 3: 1}, 2, 2, 9)
        assert out == [(1, 2), (1, 2), (1, 3)]
        # exhaustive check: the greedy output is one of the feasible
        # assignments (each color at most once per clique, counts exact)
        from itertools import combinations

        def feasible(counts, cliques, k):
            if not cliques:
                return all(v == 0 for v in counts.values())
            live = [c for c, v in counts.items() if v > 0]
            for pick in combinations(live, k):
                nxt = dict(counts)
                for c in pick:
                    nxt[c] -= 1
                if feasible(nxt, cliques - 1, k):
                    return True
            return False

        assert feasible({1: 3, 2: 2, 3: 1}, 3, 2)

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


class TestAlternatingComponents:
    def test_bicolored_path_is_non_star_tree(self):
        g = path_graph(4)
        c = Coloring({0: 1, 1: 2, 2: 1, 3: 2}, 2)
        comps = alternating_components(g, c, 1, 2)
        assert [kind for _, kind in comps] == [ComponentKind.NON_STAR_TREE]

    def test_triangle_pair_is_isolated_edge(self):
        g = complete_graph(3)
        c = Coloring({0: 1, 1: 2, 2: 3}, 3)
        comps = alternating_components(g, c, 1, 2)
        assert comps == [(frozenset({0, 1}), ComponentKind.ISOLATED_EDGE)]

    def test_improper_coloring_raises_cycle(self):
        g = complete_graph(3)
        c = Coloring({0: 1, 1: 2, 2: 1}, 2)
        with pytest.raises(CycleFoundError):
            alternating_components(g, c, 1, 2)

    def test_showcase_extreme_pair_is_starlike(self):
        # observational: components induced by the most and least used
        # colors; star shapes expected, non-star trees tolerated
        g = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
        coloring = color_nplus2(g)
        sizes = coloring.class_sizes()
        big = sizes.index(max(sizes)) + 1
        small = sizes.index(min(sizes)) + 1
        comps = alternating_components(g.graph, coloring, big, small)
        kinds = {kind for _, kind in comps}
        assert kinds <= {
            ComponentKind.ISOLATED_VERTEX,
            ComponentKind.ISOLATED_EDGE,
            ComponentKind.STAR,
            ComponentKind.NON_STAR_TREE,
        }
