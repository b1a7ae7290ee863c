import random
from itertools import product

import pytest

from blockeq import characterization
from blockeq import invariants as inv
from blockeq import oracle
from blockeq.characterization import (
    CharCertificate,
    _attach_cliques,
    _candidate_ops,
    _resolve_kind,
    _reverse_candidates,
    _reverse_search,
    _State,
    _steps_down,
    OpDescriptor,
    OpKind,
    StarExtension,
    apply_operation,
    find_decomposition,
    generate_with_alphamin,
    verify_certificate,
)
from blockeq.errors import (
    DisconnectedError,
    ExhaustedRetriesError,
    NoCutVertexError,
    PreconditionViolatedError,
    UnknownVertexError,
)
from blockeq.families import (
    clique_with_pendant_cliques,
    complete_graph,
    path_graph,
    star_of_cliques,
    two_triangles_sharing_a_vertex,
)
from blockeq.graph import BlockGraph, clique_levels, decompose, from_edge_list

import brutes

# two random graphs on which taking the first candidate that passes at
# each state dead-ends at witness 0
BACKTRACKING_GRAPHS = [
    [[0, 1], [1, 2, 3], [2, 4, 5, 6], [2, 7, 8, 9], [9, 10], [0, 11, 12], [7, 13], [2, 14],
     [8, 15], [6, 16, 17, 18], [5, 19, 20, 21], [0, 22, 23, 24], [14, 25], [12, 26]],
    [[0, 1, 2], [1, 3], [3, 4, 5], [1, 6, 7], [7, 8, 9], [8, 10, 11, 12], [6, 13],
     [7, 14, 15, 16], [1, 17, 18, 19], [0, 20, 21], [21, 22, 23, 24], [19, 25, 26], [14, 27]],
]


class TestApplyOperation:
    def test_pendant_cut_attach_needs_cut_vertex(self):
        # fresh clique-star: no cut vertex besides the center
        g = two_triangles_sharing_a_vertex()
        op = OpDescriptor(OpKind.ATTACH_AT_PENDANT_CUT, (1,), (3,))
        with pytest.raises(PreconditionViolatedError) as exc:
            apply_operation(g, 0, op)
        assert "op1" in exc.value.clause

    def test_pendant_cut_attach_rejects_center(self):
        g = two_triangles_sharing_a_vertex()
        op = OpDescriptor(OpKind.ATTACH_AT_PENDANT_CUT, (0,), (3,))
        with pytest.raises(PreconditionViolatedError) as exc:
            apply_operation(g, 0, op)
        assert exc.value.clause == "op1-anchor-is-base"

    def test_unique_simplicial_attach_grows_alpha_min(self):
        # star of a triangle and an edge: the edge block has one
        # simplicial end, a legal unique-simplicial anchor
        g = star_of_cliques([3, 2])
        op = OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (3,), (3,))
        grown = apply_operation(g, 0, op)
        assert inv.alpha_min(grown).value == 2
        assert brutes.brute_alpha_min_full(grown, oracle.brute_alpha_with) == 2

    def test_twin_attach_double(self):
        g = star_of_cliques([3, 3])
        op = OpDescriptor(OpKind.TWIN_ATTACH, (1, 2), (2, 2))
        grown = apply_operation(g, 0, op)
        # the double attach survives only if the block root stays free;
        # either way the result is a valid block graph
        assert grown.n in (g.n + 1, g.n + 2)

    @pytest.mark.parametrize("v", [99, -1])
    def test_unknown_base_vertex_is_named(self, v):
        g = star_of_cliques([3, 2])
        op = OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (3,), (3,))
        with pytest.raises(UnknownVertexError, match=rf"^vertex {v} outside 0\.\.3$"):
            apply_operation(g, v, op)

    def test_sizes_below_two_rejected(self):
        g = star_of_cliques([3, 3])
        with pytest.raises(PreconditionViolatedError):
            apply_operation(g, 0, OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (1,), (1,)))

    def test_extension_requires_two_block(self):
        g = star_of_cliques([3, 2])
        op = OpDescriptor(
            OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (3,), (3,), StarExtension(0, 2)
        )
        with pytest.raises(PreconditionViolatedError) as exc:
            apply_operation(g, 0, op)
        assert exc.value.clause == "ext-not-2-block"

    @pytest.mark.parametrize("g, kinds", [
        (complete_graph(1), {3, 4, 5}),
        (from_edge_list(5, [(0, 1), (1, 2), (3, 4)]), {2, 3, 4, 5}),
    ], ids=["one-vertex", "disconnected"])
    def test_graph_without_clique_levels_fails_a_named_guard(self, g, kinds):
        # the level guards need clique levels, which a graph without an
        # edge or with two components has none of
        seen = set()
        for kind, v in product(OpKind, range(g.n)):
            shapes = [(a,) for a in range(g.n)]
            if kind is OpKind.TWIN_ATTACH:
                shapes += list(product(range(g.n), repeat=2))
            for anchors in shapes:
                op = OpDescriptor(kind, anchors, (2,) * len(anchors))
                try:
                    apply_operation(g, v, op)
                except PreconditionViolatedError as e:
                    if e.clause == "no-clique-levels":
                        seen.add(kind.value)
        assert seen == kinds


class TestVerifyCertificate:
    def test_trivial_star_certificate(self):
        g = two_triangles_sharing_a_vertex()
        cert = CharCertificate(g, 0, ())
        assert verify_certificate(cert).ok

    def test_wrong_center_rejected(self):
        g = two_triangles_sharing_a_vertex()
        cert = CharCertificate(g, 1, ())
        chk = verify_certificate(cert)
        assert not chk.ok and "clique-star" in chk.reason

    def test_generated_certificates_verify(self):
        for seed in range(12):
            g, cert = generate_with_alphamin(3, max_clique=3, seed=seed)
            chk = verify_certificate(cert)
            assert chk.ok, chk.reason
            assert chk.alpha_min_trace == (1, 2, 3)

    def test_every_step_keeps_the_base_closed_neighborhood(self, graphs_up_to_9, tmp_path):
        # the replay reads N[v] once, off the base, for every step's state
        # (both certificates of each `certify` suite graph, and those of
        # `verify characterization --max-n 9`)
        plan = brutes.bench_inputs("certify", tmp_path)
        grown = [generate_with_alphamin(r, seed=seed) for _, r, seed in plan["certs"]]
        certs = [cert for _, cert in grown] + [find_decomposition(g) for g, _ in grown]
        certs += [find_decomposition(g) for g in graphs_up_to_9 if decompose(g).cut_vertices]
        assert len(certs) == 80 + 750
        steps = 0
        for cert in certs:
            g, v = cert.base_graph, cert.base_vertex
            nv = decompose(g).closed_neighborhood(v)
            for op in cert.steps:
                g = apply_operation(g, v, op)
                assert decompose(g).closed_neighborhood(v) == nv, (cert.base_graph.edges(), op)
                steps += 1
        assert steps > 1000

    def test_prefix_is_still_a_certificate(self):
        g, cert = generate_with_alphamin(3, max_clique=3, seed=5)
        shorter = CharCertificate(cert.base_graph, cert.base_vertex, cert.steps[:1])
        chk = verify_certificate(shorter)
        assert chk.ok  # still a valid r=2 certificate
        assert inv.alpha_min(g).value == 3

    def test_step_that_keeps_alpha_min_flat_is_rejected(self):
        g, cert = generate_with_alphamin(2, max_clique=3, seed=3)
        flat = None
        for kind, anchors in _candidate_ops(_State(g, 0)):
            op = OpDescriptor(kind, anchors, tuple(2 for _ in anchors))
            try:
                grown = apply_operation(g, 0, op)
            except PreconditionViolatedError:
                continue
            if inv.alpha_min(grown).value == 2:
                flat = op
                break
        assert flat is not None
        tampered = CharCertificate(cert.base_graph, cert.base_vertex, cert.steps + (flat,))
        chk = verify_certificate(tampered)
        assert not chk.ok
        assert chk.step_index == len(cert.steps)
        assert "alpha_min" in chk.reason

    @pytest.mark.parametrize("op, clause", [
        (OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (1,), (2, 2)),
         "shape: anchors and sizes must align"),
        (OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (1,), (1,)),
         "shape: attached block sizes must be >= 2"),
        (OpDescriptor(OpKind.TWIN_ATTACH, (1, 2, 3), (2, 2, 2)),
         "shape: twin attach takes 1 or 2 anchors"),
        (OpDescriptor(OpKind.ATTACH_AT_PENDANT_CUT, (1, 2), (2, 2)),
         "shape: single-anchor operation"),
        (OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (1,), (2,), StarExtension(0, 1)),
         "shape: extension size must be >= 2"),
        (OpDescriptor(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (1,), (2,), StarExtension(1, 2)),
         "shape: extension indexes an added clique"),
        (OpDescriptor(OpKind.TWIN_ATTACH, (1, 3), (2, 2)), "op4-anchors-split"),
        (OpDescriptor(OpKind.TWIN_ATTACH, (1, 1), (2, 2)), "op4-anchors-equal"),
    ], ids=["misaligned", "size-one", "three-twin-anchors", "two-kind1-anchors",
            "extension-size-one", "extension-past-cliques", "twin-anchors-split",
            "twin-anchors-equal"])
    def test_replay_names_the_rejected_clause(self, op, clause):
        # two triangles at vertex 0: blocks {0, 1, 2} and {0, 3, 4}
        cert = CharCertificate(star_of_cliques([3, 3]), 0, (op,))
        chk = verify_certificate(cert)
        assert not chk.ok
        assert chk.step_index == 0
        assert f"replay failure: {clause}" in chk.reason


class TestGenerate:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_alpha_min_hits_target(self, r):
        g, cert = generate_with_alphamin(r, max_clique=3, seed=20 + r)
        assert inv.alpha_min(g).value == r
        assert cert.r == r
        assert verify_certificate(cert).ok

    def test_deterministic_for_fixed_seed(self):
        g1, c1 = generate_with_alphamin(4, max_clique=3, seed=99)
        g2, c2 = generate_with_alphamin(4, max_clique=3, seed=99)
        assert g1 == g2 and c1 == c2

    def test_matches_the_build_then_check_reference(self, monkeypatch):
        """Deciding each attempt on g keeps exactly the attempts that the
        build-then-check loop (`brutes.generate_with_alphamin_by_building`)
        keeps, and builds only those: the same graph and certificate for
        120 seeds with r up to 30 and max_clique 2-6.  The corpus holds
        every kind, a twin that falls back to one clique and a star
        extension."""
        builds = []

        def counted(g, anchors, sizes):
            builds.append(anchors)
            return _attach_cliques(g, anchors, sizes)

        def outcome(gen, r, max_clique, seed):
            try:
                return gen(r, max_clique=max_clique, seed=seed)
            except ExhaustedRetriesError as e:
                return str(e)

        rng = random.Random(25)
        kinds, fallbacks, extensions = set(), 0, 0
        for seed in range(120):
            r, max_clique = rng.randint(1, 30), rng.randint(2, 6)
            want = outcome(brutes.generate_with_alphamin_by_building, r, max_clique, seed)
            builds.clear()
            with monkeypatch.context() as m:
                m.setattr(characterization, "_attach_cliques", counted)
                got = outcome(generate_with_alphamin, r, max_clique, seed)
            assert got == want, (r, max_clique, seed)
            if isinstance(got, str):
                continue
            cert = got[1]
            assert len(builds) == len(cert.steps)
            cur = cert.base_graph
            for op in cert.steps:
                kinds.add(op.kind)
                extensions += op.star_extension is not None
                anchors, _ = characterization._plan(_State(cur, 0), op)
                fallbacks += len(op.anchors) == 2 and sum(a < cur.n for a in anchors) == 1
                cur = apply_operation(cur, 0, op)
        assert kinds == set(OpKind)
        assert fallbacks > 0 and extensions > 0

    def test_steps_strictly_grow(self):
        g, cert = generate_with_alphamin(5, max_clique=4, seed=7)
        cur = cert.base_graph
        for op in cert.steps:
            nxt = apply_operation(cur, cert.base_vertex, op)
            assert nxt.n > cur.n
            cur = nxt
        assert cur.n == g.n


class TestFindDecomposition:
    def test_star_needs_no_steps(self):
        cert = find_decomposition(two_triangles_sharing_a_vertex())
        assert cert.r == 1 and cert.steps == ()

    def test_path5(self):
        cert = find_decomposition(path_graph(5))
        assert cert.r == 2
        assert verify_certificate(cert).ok

    def test_pendant_family_k2(self):
        g = clique_with_pendant_cliques(2)
        cert = find_decomposition(g)
        assert cert.r == 4
        assert verify_certificate(cert).ok

    def test_no_cut_vertex_raises(self):
        with pytest.raises(NoCutVertexError):
            find_decomposition(complete_graph(4))
        # the cut-vertex check comes first, also on a disconnected graph
        with pytest.raises(NoCutVertexError):
            find_decomposition(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_disconnected_graph_raises(self):
        # a cut vertex at 1, and an edge apart from it
        with pytest.raises(DisconnectedError, match="decomposition needs a connected graph"):
            find_decomposition(from_edge_list(5, [(0, 1), (1, 2), (3, 4)]))

    def test_succeeds_on_all_small_graphs(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if not decompose(g).cut_vertices:
                continue
            cert = find_decomposition(g)
            assert cert is not None, g.edges()
            assert cert.r == inv.alpha_min(g).value

    def test_replay_rebuilds_isomorphic_graph(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if not decompose(g).cut_vertices:
                continue
            cert = find_decomposition(g)
            cur = cert.base_graph
            for op in cert.steps:
                cur = apply_operation(cur, cert.base_vertex, op)
            assert oracle.canonical_form(cur) == oracle.canonical_form(g)

    def test_labels_do_not_matter(self):
        # a residual clique with two cut vertices and no hang vertex; a
        # root picked by vertex id made the search fail on this labeling
        # and on about a third of its relabelings
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 7), (4, 8),
                 (5, 6), (7, 8), (7, 9), (7, 10)]
        rng = random.Random(11)
        perms = [list(range(11))]
        for _ in range(50):
            perms.append(rng.sample(range(11), 11))
        for perm in perms:
            g = from_edge_list(11, [(perm[u], perm[w]) for u, w in edges])
            cert = find_decomposition(g)
            assert cert is not None, perm
            assert cert.r == inv.alpha_min(g).value == 4

    @pytest.mark.parametrize("blocks", BACKTRACKING_GRAPHS)
    def test_search_backtracks(self, blocks):
        # the search must back up a step at witness 0
        g = BlockGraph._from_blocks(max(map(max, blocks)) + 1, [frozenset(b) for b in blocks])
        assert _reverse_search(g, 0, inv.alpha_min(g).value) is not None
        assert verify_certificate(find_decomposition(g)).ok

    @pytest.mark.xfail(strict=True, reason="ROADMAP Known defect 1: no growth sequence found")
    def test_three_triangles_with_five_pendant_edges(self):
        # alpha_min = 5, realized only at vertex 1; the rooted forward
        # closure misses this graph too, so the operations cannot build it
        g = from_edge_list(12, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2),
                                (1, 11), (3, 4), (3, 10), (4, 9), (5, 6), (5, 8), (6, 7)])
        cert = find_decomposition(g)
        assert cert is not None and cert.r == 5


def _witnesses(graphs):
    """(g, v, alpha_min) for every graph with a cut vertex and every cut
    vertex v that realizes alpha_min."""
    for g in graphs:
        deco = decompose(g)
        am = inv.alpha_min(g).value if deco.cut_vertices else None
        for v in sorted(deco.cut_vertices):
            if inv.alpha_with(g, v) == am:
                yield g, v, am


def test_reverse_candidates_are_distinct(graphs_up_to_8):
    """No removal is offered twice: each (removed set, anchor set) occurs
    at most once among the candidates of the whole graph, at every cut
    vertex that realizes alpha_min."""
    checked = 0
    for g, v, _ in _witnesses(graphs_up_to_8):
        keys = [(c.removed, frozenset(c.anchors)) for c in _reverse_candidates(_State(g, v))]
        assert len(keys) == len(set(keys)), (g.edges(), v)
        checked += len(keys)
    assert checked > 0


def test_reverse_candidates_match_the_neighbor_reference(graphs_up_to_9):
    """Twin anchors paired by sharing a block of the state, a != b, give
    the candidate list that pairing by g's neighbor sets gives
    (`brutes.reverse_candidates_by_neighbors`): at every vertex v that
    realizes alpha_min, at the whole graph and at every state the search
    can reach from it."""
    states = twins = 0
    for g in graphs_up_to_9:
        if g.n < 2:
            continue
        am = inv.alpha_min(g).value
        for v in range(g.n):
            if inv.alpha_with(g, v) != am:
                continue
            todo, seen = [(_State(g, v), am)], set()
            while todo:
                S, am_s = todo.pop()
                cands = _reverse_candidates(S)
                assert cands == brutes.reverse_candidates_by_neighbors(S), (g.edges(), v, S.out)
                states += 1
                twins += bool(S.out) and any(c.kind for c in cands)
                for c in cands:
                    T = S.without(c.removed)
                    if T.out not in seen and _steps_down(S, am_s, c):
                        seen.add(T.out)
                        todo.append((T, am_s - 1))
    assert states > 7000 and twins > 600


def test_step_down_rule_matches_the_built_graph(graphs_up_to_9):
    """The reverse search's verdict on a candidate, read off the state's
    blocks alone, equals alpha_min(G[T]) = alpha_with(G[T], v) =
    alpha_min(G[S]) - 1 computed on G[T] built by `induced_subgraph`,
    for every candidate at every cut vertex v that realizes alpha_min."""
    verdicts = {}
    for g, v, am in _witnesses(graphs_up_to_9):
        S = _State(g, v)
        for c in _reverse_candidates(S):
            tsub, tmap = g.induced_subgraph(set(range(g.n)) - c.removed)
            built = inv.alpha_min(tsub).value == inv.alpha_with(tsub, tmap[v]) == am - 1
            assert _steps_down(S, am, c) == built, (g.edges(), v, c)
            shape = "twin" if c.kind else "extended" if c.ext else "plain"
            verdicts.setdefault(shape, set()).add(built)
    # twins and plain pieces both pass and fail; an extended piece always passes
    assert verdicts == {"twin": {False, True}, "plain": {False, True}, "extended": {True}}


def test_kind_is_read_off_the_guards(graphs_up_to_10):
    """`_resolve_kind`, which replays nothing, names the kind that
    replaying each kind in turn on G[T], built by `induced_subgraph`,
    names (`brutes.resolve_kind_by_replay`), for every candidate that
    passes `_steps_down` at every cut vertex v that realizes alpha_min;
    the search asks about no other.  A twin that passes never falls back
    to one clique on replay, while twins the step rule drops do."""
    seen = set()
    for g, v, am in _witnesses(graphs_up_to_10):
        S = _State(g, v)
        for c in _reverse_candidates(S):
            steps = _steps_down(S, am, c)
            tsub, tmap = g.induced_subgraph(set(range(g.n)) - c.removed)
            if steps:
                want = brutes.resolve_kind_by_replay(tsub, tmap, v, c)
                assert _resolve_kind(S.without(c.removed), c) is want, (g.edges(), v, c)
                shape = "twin" if c.kind else "extended" if c.ext else "plain"
                seen.add((steps, shape, want is not None))
            if c.kind:
                op = OpDescriptor(OpKind.TWIN_ATTACH, tuple(tmap[a] for a in c.anchors),
                                  c.sizes, c.ext)
                try:
                    grown = apply_operation(tsub, tmap[v], op)
                except PreconditionViolatedError:
                    continue
                if grown.n < g.n:
                    seen.add((steps, "extended twin" if c.ext else "twin", "fallback"))
    # kept candidates resolve to a kind and to None, extended pieces among
    # them; twins, plain and extended, fall back only among dropped ones
    assert {(True, "plain", True), (True, "plain", False), (True, "extended", True),
            (True, "twin", True), (False, "twin", "fallback"),
            (False, "extended twin", "fallback")} <= seen
    assert not any(steps and tag == "fallback" for steps, _, tag in seen)


def test_kind_rule_matches_the_first_accepted_kind(graphs_up_to_9):
    """`_resolve_kind` reads a piece's kind, or a twin's, off the anchor
    rule; it names the first kind whose guards `brutes._accepts` on T,
    for every reverse candidate at every cut vertex v, whether or not
    the candidate passes `_steps_down`."""
    seen = set()
    for g in graphs_up_to_9:
        for v in sorted(decompose(g).cut_vertices):
            S = _State(g, v)
            for c in _reverse_candidates(S):
                T = S.without(c.removed)
                want = brutes.resolve_kind_by_guards(T, c)
                assert _resolve_kind(T, c) is want, (g.edges(), v, c)
                seen.add(want)
    assert seen == set(OpKind) | {None}


def test_states_read_what_the_built_graph_has(graphs_up_to_9):
    """Every state the reverse search can reach, a state T = S minus a
    candidate that passes `_steps_down`, reads off g's own blocks what
    G[T] built by `induced_subgraph` has, mapped back through its id_map:
    the blocks, the cut vertices, the clique levels and roots, and the
    alpha table of G[T] - N[v] on T's vertices outside N[v]."""
    states = 0
    for g, v, am in _witnesses(graphs_up_to_9):
        nv = g.closed_neighborhood(v)
        todo, seen = [(_State(g, v), am)], set()
        while todo:
            S, am_s = todo.pop()
            for c in _reverse_candidates(S):
                if not _steps_down(S, am_s, c):
                    continue
                T = S.without(c.removed)
                if T.out in seen:
                    continue
                seen.add(T.out)
                tsub, tmap = g.induced_subgraph(set(range(g.n)) - T.out)
                back = {new: old for old, new in tmap.items()}
                want = decompose(tsub)
                assert T.deco.blocks == tuple(frozenset(back[u] for u in b) for b in want.blocks)
                assert T.deco.cut_vertices == {back[u] for u in want.cut_vertices}
                lv, want_lv = T.levels(), clique_levels(tsub)
                assert lv.levels == want_lv.levels and lv.rounds == want_lv.rounds
                assert lv.roots == {qi: back.get(z) for qi, z in want_lv.roots.items()}
                assert lv.unleveled_singleton == back.get(want_lv.unleveled_singleton)
                res = T.residual()
                want_res = inv._alpha_pass(tsub, tsub.closed_neighborhood(tmap[v]))
                assert res.alpha == want_res.alpha
                for u in set(tmap) - nv:
                    assert res.alpha_with[u] == want_res.alpha_with[tmap[u]], (g.edges(), v, u)
                    assert res.ais[u] == want_res.ais[tmap[u]], (g.edges(), v, u)
                states += 1
                todo.append((T, am_s - 1))
    assert states > 1000


def test_search_matches_the_subgraph_reference(graphs_up_to_9):
    """The search on g's own blocks returns the records of the recursion
    that builds every state with `induced_subgraph`
    (`brutes.reverse_search_by_subgraphs`): on every graph with n <= 9
    at every cut vertex that realizes alpha_min, on the graphs that need
    a backtrack, and on `char gen` graphs with r up to 16."""
    cases = list(_witnesses(graphs_up_to_9))
    for blocks in BACKTRACKING_GRAPHS:
        g = BlockGraph._from_blocks(max(map(max, blocks)) + 1, [frozenset(b) for b in blocks])
        cases.append((g, 0, inv.alpha_min(g).value))
    rng = random.Random(26)
    for seed in range(30):
        g, _ = generate_with_alphamin(rng.randint(2, 16), max_clique=rng.randint(2, 5), seed=seed)
        cases += _witnesses([g])
    found = 0
    for g, v, am in cases:
        got = _reverse_search(g, v, am)
        assert got == brutes.reverse_search_by_subgraphs(g, v, am), (g.edges(), v)
        found += got is not None
    assert found > 1500


def test_extension_anchor_is_never_v_locked(graphs_up_to_9):
    """Right after a 2-block {w1, w2} is attached at w1 outside N[v],
    w2's only neighbor is w1, so a maximum independent set through v and
    w1 can swap w1 for w2: w1 is never v-locked, and `apply_operation`
    decides the clause `ext-anchor-v-ais` as w1 = v."""
    checked = 0
    for g in graphs_up_to_9:
        for v in range(g.n):
            for w1 in set(range(g.n)) - g.closed_neighborhood(v):
                grown = _attach_cliques(g, (w1,), (2,))
                assert not inv.is_v_ais(grown, v, w1), (g.edges(), v, w1)
                checked += 1
    assert checked > 10_000


def test_twin_fallback_is_decided_on_g(graphs_up_to_8):
    """A two-anchor twin attach falls back to one clique exactly when the
    rule stated on the grown graph says so (`brutes.
    twin_falls_back_by_double_attach`), at every vertex v and every
    accepted pair of anchors; the replay then builds the single attach."""
    sizes = (2, 3)
    outcomes = set()
    for g in graphs_up_to_8:
        if g.n < 2:
            continue  # the guards read clique levels, which need an edge
        for v in range(g.n):
            for kind, anchors in brutes.candidate_ops_per_shape(g, v):
                if len(anchors) != 2:
                    continue
                falls_back = brutes.twin_falls_back_by_double_attach(g, v, anchors, sizes)
                kept = 1 if falls_back else 2
                want = _attach_cliques(g, anchors[:kept], sizes[:kept])
                grown = apply_operation(g, v, OpDescriptor(kind, anchors, sizes))
                assert grown.n == want.n and grown.edges() == want.edges(), (g.edges(), v, anchors)
                outcomes.add(falls_back)
    assert outcomes == {False, True}


def _clique_stars(n_max):
    """Block-size lists of every clique-star with at most n_max vertices."""
    def parts(room, largest):
        # multisets of fresh-vertex counts, nonincreasing
        yield ()
        for p in range(min(room, largest), 0, -1):
            for rest in parts(room - p, p):
                yield (p,) + rest
    return [[p + 1 for p in ps] for ps in parts(n_max - 1, n_max - 1) if len(ps) >= 2]


def _growth_steps(g, n_max):
    """Every operation the candidate list offers on g that fits in n_max
    vertices: each candidate with every block size and extension."""
    room = n_max - g.n
    for kind, anchors in _candidate_ops(_State(g, 0)):
        for sizes in product(range(2, room + 2), repeat=len(anchors)):
            used = sum(s - 1 for s in sizes)
            if used > room:
                continue
            yield OpDescriptor(kind, anchors, sizes)
            for ix, s in enumerate(sizes):
                if s == 2:
                    for e in range(2, room - used + 2):
                        yield OpDescriptor(kind, anchors, sizes, StarExtension(ix, e))


def _forward_closure(n_max):
    """Every state the operations reach from a clique-star within n_max
    vertices, keyed by its form rooted at the growth vertex 0, since a
    step's guards depend on that vertex."""
    level = {}
    for sizes in _clique_stars(n_max):
        g = star_of_cliques(sizes)
        level[brutes.rooted_canonical_form(g, 0)] = g
    reached = dict(level)
    am = 1
    while level:
        nxt = {}
        for g in level.values():
            for op in _growth_steps(g, n_max):
                try:
                    grown = apply_operation(g, 0, op)
                except PreconditionViolatedError:
                    continue
                if inv.alpha_min(grown).value != am + 1 or inv.alpha_with(grown, 0) != am + 1:
                    continue
                key = brutes.rooted_canonical_form(grown, 0)
                if key not in reached:
                    reached[key] = nxt[key] = grown
        level = nxt
        am += 1
    return reached


def test_forward_closure_reaches_every_graph_with_a_cut_vertex(graphs_up_to_10):
    """The operations reach every block graph with a cut vertex and
    n <= 10; acceptance criterion 09 runs the reverse search on the same
    graphs."""
    closure = {oracle.canonical_form(g): g for g in _forward_closure(10).values()}
    expected = {
        oracle.canonical_form(g) for g in graphs_up_to_10 if decompose(g).cut_vertices
    }
    assert len(expected) == 2289
    assert set(closure) == expected


def test_candidate_ops_match_the_per_shape_reference(graphs_up_to_8):
    """The one-pass list is the list that trying every shape on its own
    gives, in the same order: on every state of the n <= 9 forward
    closure at v = 0, and on every graph with n <= 8 and graphs without
    clique levels at every v."""
    states = _forward_closure(9).values()
    listed = set()
    for g in states:
        ops = _candidate_ops(_State(g, 0))
        assert ops == brutes.candidate_ops_per_shape(g, 0), g.edges()
        listed.update((kind, len(anchors)) for kind, anchors in ops)
    assert len(states) > 500
    assert listed == {(kind, 1) for kind in OpKind} | {(OpKind.TWIN_ATTACH, 2)}

    no_levels = [complete_graph(1), BlockGraph(5, [(0, 1), (1, 2), (3, 4)]),
                 BlockGraph(4, [(0, 1), (1, 2)])]
    for g in graphs_up_to_8 + no_levels:
        for v in range(g.n):
            want = brutes.candidate_ops_per_shape(g, v)
            assert _candidate_ops(_State(g, v)) == want, (g.edges(), v)
    # a cut vertex in a pendant block of a disconnected graph is still a kind-1 anchor
    assert _candidate_ops(_State(no_levels[1], 0)) == [(OpKind.ATTACH_AT_PENDANT_CUT, (1,))]
