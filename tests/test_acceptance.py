"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Everything here is exact; there are no tolerances to
tune.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from blockeq import invariants as inv
from blockeq import oracle
from blockeq.characterization import (
    apply_operation,
    find_decomposition,
    generate_with_alphamin,
    verify_certificate,
)
from blockeq.families import clique_with_pendant_cliques
from blockeq.gls import (
    BinPackingInstance,
    _equitable_class_sizes,
    build_gls,
    color_nplus2,
    color_uniform,
)
from blockeq.graph import decompose, generate_block_graphs

import brutes

FIXTURES = Path(__file__).parent / "data"


def test_criterion_01_dc_bounded_by_alpha_min(graphs_up_to_9):
    violations = []
    for g in graphs_up_to_9:
        dc = inv.dc_exact(g).value
        am = inv.alpha_min(g).value
        if dc > am:
            violations.append((g.edges(), dc, am))
    assert violations == []
    print(f"\nACCEPTANCE 01 PASS: dc <= alpha_min on all {len(graphs_up_to_9)} "
          "connected block graphs with <= 9 vertices")


def test_criterion_02_gap_one_window_small_scale(graphs_up_to_9):
    violations = []
    for g in graphs_up_to_9:
        rep = inv.bounds_report(g)
        chi = oracle.exact_chi_eq(g)
        if not rep.lower_bound <= chi <= rep.lower_bound + 1:
            violations.append((g.edges(), rep.lower_bound, chi))
    assert violations == []
    print(f"ACCEPTANCE 02 PASS: lower bound <= chi_eq <= lower bound + 1 on all "
          f"{len(graphs_up_to_9)} connected block graphs with <= 9 vertices")


def test_criterion_03_pendant_family_needs_one_extra_color():
    for k in (2, 3):
        g = clique_with_pendant_cliques(k)
        rep = inv.bounds_report(g)
        assert rep.lower_bound == k + 1, (k, rep.lower_bound)
        budget = 10**8
        feasible_low, _ = oracle.exact_equitable_colorable(g, k + 1, node_budget=budget)
        assert feasible_low is False, f"k={k}: k+1 colors should not suffice"
        feasible_high, w = oracle.exact_equitable_colorable(g, k + 2, node_budget=budget)
        assert feasible_high, f"k={k}: k+2 colors must suffice"
        chk = oracle.check_coloring(g, w)
        assert chk.proper and chk.equitable
        for t in range(1, k + 1):
            ok, _ = oracle.exact_equitable_colorable(g, t, node_budget=budget)
            assert not ok
    print("ACCEPTANCE 03 PASS: pendant-clique family has chi_eq = k+2 and "
          "lower bound k+1 for k in {2, 3} (gap exactly one)")


def test_criterion_04_flower_graph_closed_forms():
    built = build_gls(BinPackingInstance((3, 3, 3, 3), 3, 4))
    assert built.graph.n == 68
    assert decompose(built.graph).max_block_size() == 4
    # structural recomputation, not the closed-form formula
    assert inv.alpha_min(built.graph).value == 17
    print("ACCEPTANCE 04 PASS: showcase flower graph has |V|=68, omega=4, "
          "alpha_min=17 (recomputed structurally)")


def test_criterion_05_uniform_coloring_grid():
    failures = []
    runs = 0
    # every color count t >= k+2 up to |V| (and at least up to k+6, where
    # a t above |V| must be refused), on every uniform instance in the box
    # a <= 8, n <= 6, k <= 4
    for a, n, k, B in brutes.uniform_grid(max_a=8, max_n=6, max_k=4):
        g = build_gls(BinPackingInstance((a,) * n, k, B))
        total = g.graph.n
        for t in range(k + 2, max(total, k + 6) + 1):
            runs += 1
            if t > total:
                with pytest.raises(ValueError, match=f"t={t} exceeds the vertex count"):
                    color_uniform(a, n, k, B, t)
                continue
            matrix, coloring = color_uniform(a, n, k, B, t)
            chk = oracle.check_coloring(g.graph, coloring)
            q, r = divmod(total, t)
            sizes = [q + 1] * r + [q] * (t - r)
            bad = matrix.violations(sizes)
            # y_0 takes color 1; the other hubs fill 2..t in equitable runs
            y0, *hubs = matrix.universal_colors
            runs_ok = hubs == sorted(hubs) and [hubs.count(c) for c in range(2, t + 1)] == (
                _equitable_class_sizes(n, t - 1))
            if y0 != 1 or not runs_ok:
                bad.append(f"hub colors {matrix.universal_colors}")
            if not (chk.proper and chk.equitable) or bad:
                failures.append((a, n, k, B, t, chk, bad))
    assert failures == []
    assert runs == 7939
    print(f"ACCEPTANCE 05 PASS: uniform coloring proper+equitable with clean "
          f"count matrices on {runs} (instance, t) pairs")


def test_criterion_06_uniform_spectrum_gap_free():
    checked = 0
    for a, n, k, B in brutes.uniform_grid(max_a=8, max_n=4, max_k=3):
        total = (k + 1) * (a * n + n + 1)
        if total > 20:
            continue
        checked += 1
        g = build_gls(BinPackingInstance((a,) * n, k, B))
        rep = oracle.spectrum(g.graph)
        assert rep.complete
        expect_low = (B % a == 0)
        assert (rep.chi_eq == k + 1) == expect_low, (a, n, k, B, rep.chi_eq)
        for t in range(k + 2, total + 1):
            assert t in rep.feasible_ts, (a, n, k, B, t)
        assert rep.chi_eq_star <= k + 2
    assert checked >= 5
    print(f"ACCEPTANCE 06 PASS: exact spectra of {checked} small uniform flower "
          "graphs are gap-free with chi_eq = k+1 exactly when a divides B")


def _random_start(built, seed):
    """A seeded random proper (n+2)-coloring of the auxiliary graph (hubs
    joined into a clique) with every class nonempty: the hubs take
    distinct colors, the first other vertex the one color no hub has,
    and the rest, in random order, a random color free in their clique."""
    rng = random.Random(seed)
    colors = list(range(1, built.n_items + 3))
    rng.shuffle(colors)
    col = dict(zip(built.universal_vertices, colors))
    rest = [
        ((hub,) + members, v)
        for hub, flower in zip(built.universal_vertices, built.cliques)
        for members in flower
        for v in members
    ]
    rng.shuffle(rest)
    for i, (clique, v) in enumerate(rest):
        used = {col[u] for u in clique if u in col}
        col[v] = colors[-1] if i == 0 else rng.choice([c for c in colors if c not in used])
    return col


def test_criterion_07_n_plus_2_coloring_everywhere():
    instances = brutes.packing_box()
    assert len(instances) == 911
    for seed, (sizes, k, B) in enumerate(instances):
        built = build_gls(BinPackingInstance(sizes, k, B))
        for start in (brutes.greedy_start(built), _random_start(built, seed)):
            stats = {}
            try:
                coloring = brutes.recolor_to_equitable(built, start, stats)
            except brutes.NotEquitableAtFixpointError as e:  # pragma: no cover - failure path
                raise AssertionError(f"fixpoint not equitable on {sizes, k, B}: {e}")
            chk = oracle.check_coloring(built.graph, coloring)
            assert chk.proper and chk.equitable, (sizes, k, B)
            assert all(b > a for a, b in zip(stats["products"], stats["products"][1:]))
        coloring = color_nplus2(built)
        chk = oracle.check_coloring(built.graph, coloring)
        assert chk.proper and chk.equitable and coloring.t == len(sizes) + 2, (sizes, k, B)
        if sizes == (3, 3, 3, 3) and k == 3:
            assert sorted(coloring.class_sizes(), reverse=True) == [12, 12, 11, 11, 11, 11]
    print(f"ACCEPTANCE 07 PASS: the clique deal and the paper's product-maximizing "
          f"recoloring (from the greedy start and a seeded random start) each gave a "
          f"proper equitable (n+2)-coloring on all {len(instances)} flower instances "
          "with k <= 4, B <= 8, n <= 6")


def test_criterion_08_locked_vertex_test_matches_oracle(graphs_up_to_8):
    disagreements = []
    vertices = 0
    for g in graphs_up_to_8:
        _, sets = brutes.all_maximum_independent_sets(g)
        core = frozenset.intersection(*sets)
        for v in range(g.n):
            vertices += 1
            if inv.is_ais(g, v) != (v in core):
                disagreements.append((g.edges(), v))
    assert disagreements == []
    print(f"ACCEPTANCE 08 PASS: locked-vertex test agrees with the "
          f"all-maximum-sets oracle on {vertices} vertices across "
          f"{len(graphs_up_to_8)} graphs")


def test_criterion_09_certificates_round_trip(graphs_up_to_10):
    runs = 0
    for r in range(1, 6):
        for seed in range(40):
            g, cert = generate_with_alphamin(r, max_clique=3, seed=1000 * r + seed)
            runs += 1
            chk = verify_certificate(cert)
            assert chk.ok, (r, seed, chk.reason)
            cur = cert.base_graph
            prefix = [cur]
            for op in cert.steps:
                cur = apply_operation(cur, cert.base_vertex, op)
                prefix.append(cur)
            assert cur.n == g.n
            for i, gi in enumerate(prefix):
                brute_amin = min(
                    oracle.brute_alpha_with(gi, v, cap=40) for v in range(gi.n)
                )
                assert brute_amin == i + 1, (r, seed, i)
    decomposed = 0
    for g in graphs_up_to_10:
        if not decompose(g).cut_vertices:
            continue
        cert = find_decomposition(g)
        assert cert is not None, g.edges()
        assert cert.r == inv.alpha_min(g).value, g.edges()
        decomposed += 1
    print(f"ACCEPTANCE 09 PASS: {runs} seeded certificates verified with "
          f"brute-force prefixes; decomposition recovered on {decomposed} "
          "graphs with <= 10 vertices")


def test_criterion_10_enumeration_cross_validated():
    pinned = json.loads((FIXTURES / "block_graph_counts.json").read_text())["counts"]
    expected = {k: v for k, v in pinned.items() if int(k) <= 6}
    counted = {str(n): c for n, c in oracle.count_block_graphs(6).items()}
    assert counted == expected
    generated = Counter(str(g.n) for g, _ in generate_block_graphs(6))
    assert generated == expected
    live = {str(n): oracle.count_block_graphs_by_filter(n) for n in range(1, 7)}
    assert live == expected
    print("ACCEPTANCE 10 PASS: the closed-form count and the generator match "
          "the filter-all-graphs oracle for n <= 6 (pinned and recomputed)")
