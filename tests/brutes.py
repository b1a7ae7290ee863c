"""Test-side brute oracles and small exhaustive input grids, kept apart
from the package so the library never accidentally leans on them."""

import heapq
import importlib.util
import math
import random
from collections import deque
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path

from blockeq import invariants
from blockeq.characterization import (
    _RETRIES,
    CharCertificate,
    OpDescriptor,
    OpKind,
    StarExtension,
    _attach_cliques,
    _candidate_ops,
    _guards_ok,
    _Reverse,
    _State,
    apply_operation,
)
from blockeq.errors import (
    AlgorithmInvariantError,
    ExhaustedRetriesError,
    PreconditionViolatedError,
    SearchBudgetExceededError,
)
from blockeq.families import star_of_cliques
from blockeq.gls import Coloring
from blockeq.graph import BlockGraph, LevelAssignment, decompose
from blockeq.invariants import is_v_ais


def brute_articulation_points(g):
    """Vertices whose removal increases the component count."""
    base = len(_components(g, set(range(g.n))))
    out = set()
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if len(_components(g, rest)) > base - (0 if g.degree(v) else 1):
            out.add(v)
    return out


def _components(g, alive):
    comps = []
    seen = set()
    for s in sorted(alive):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in alive and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _is_2connected_subset(g, sub):
    sub = set(sub)
    if len(sub) == 1:
        return True
    if len(sub) == 2:
        a, b = sub
        return g.adjacent(a, b)
    if len(_components(g, sub)) != 1:
        return False
    return all(len(_components(g, sub - {v})) == 1 for v in sub)


def brute_blocks(g):
    """Maximal 2-connected vertex sets by subset enumeration, plus the
    singleton blocks of isolated vertices; exponential, test scale only."""
    cands = []
    verts = list(range(g.n))
    for size in range(2, g.n + 1):
        for sub in combinations(verts, size):
            if _is_2connected_subset(g, sub):
                cands.append(frozenset(sub))
    blocks = [c for c in cands if not any(c < d for d in cands)]
    for v in verts:
        if g.degree(v) == 0:
            blocks.append(frozenset((v,)))
    return sorted(blocks, key=sorted)


def clique_star_center(g):
    """The vertex that every block contains, when g has two or more
    blocks and they share one; None otherwise.  The clique-star test by
    intersecting the blocks."""
    blocks = decompose(g).blocks
    if len(blocks) < 2:
        return None
    common = frozenset.intersection(*blocks)
    return next(iter(common)) if common else None


def all_maximum_independent_sets(g):
    """Every maximum independent set, by subset enumeration."""
    best = 0
    sets = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if (mask >> v) & 1]
        if any(g.adjacent(u, w) for i, u in enumerate(members) for w in members[i + 1:]):
            continue
        if len(members) > best:
            best = len(members)
            sets = [frozenset(members)]
        elif len(members) == best:
            sets.append(frozenset(members))
    return best, sets


def equitable_colorable_by_backtracking(g, t):
    """Whether g has an equitable t-coloring, by plain backtracking over
    vertex ids with only two prunes: colors stay proper, and no class
    grows past ceil(n/t); a full coloring then counts only if every
    class reaches floor(n/t)."""
    floor, cap = g.n // t, -(-g.n // t)
    color, counts = {}, [0] * t

    def rec(v):
        if v == g.n:
            return min(counts) >= floor
        for c in range(t):
            if counts[c] == cap or any(color.get(w) == c for w in g.neighbors(v)):
                continue
            color[v], counts[c] = c, counts[c] + 1
            if rec(v + 1):
                return True
            del color[v]
            counts[c] -= 1
        return False

    return rec(0)


def recursive_equitable_search(g, t, node_budget=None):
    """The exact oracle's search as it was written recursively, one call
    per vertex, with its plan built by the definitions in this file: the
    reference that the loop in `oracle.exact_equitable_colorable` must
    match in answer, witness and node count.  Copied verbatim, save that
    it returns its node count as well."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = g.n
    if n == 0:
        return True, Coloring({}, t), 0
    floor, extra = divmod(n, t)
    cap_hi = floor + 1 if extra else floor
    order = list(reversed(repeated_minimum_order(g)))
    twin_prev = true_twin_predecessors(g, order)
    adj = g._adj
    counts = [0] * t
    assign = {}
    deficit = floor * t  # sum over classes of max(0, floor - count)
    nodes = 0

    def rec(idx):
        nonlocal nodes, deficit
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceededError(f"budget {node_budget} exhausted")
        if idx == n:
            return True
        v = order[idx]
        forbidden = {assign[w] for w in adj[v] if w in assign}
        lo = 0
        tw = twin_prev.get(v)
        if tw is not None and tw in assign:
            lo = assign[tw]
        remaining = n - idx - 1
        seen_empty = False
        for c in range(lo, t):
            if counts[c] == 0:
                if seen_empty:
                    break
                seen_empty = True
            if c in forbidden or counts[c] >= cap_hi:
                continue
            d_dec = 1 if counts[c] < floor else 0
            # also bars a class at floor once `extra` classes hold floor+1
            if deficit - d_dec > remaining:
                continue
            counts[c] += 1
            deficit -= d_dec
            assign[v] = c
            if rec(idx + 1):
                return True
            del assign[v]
            deficit += d_dec
            counts[c] -= 1
        return False

    if rec(0):
        return True, Coloring({v: c + 1 for v, c in assign.items()}, t), nodes
    return False, None, nodes


def brute_alpha_min_full(g, brute_alpha_with):
    """Minimum of alpha(g, v) over every vertex, via the given oracle."""
    return min(brute_alpha_with(g, v) for v in range(g.n))


def bfs_diameter(g):
    best = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist.values(), default=0))
    return best


def rooted_canonical_form(g, v):
    """Canonical string of a connected block graph with vertex v marked:
    its block-cut tree (blocks by size) encoded as a tree hanging from v,
    so two rooted graphs get the same string exactly when an isomorphism
    maps one root to the other."""
    deco = decompose(g)

    def block(qi, via):
        kids = sorted(cut(x, qi) for x in deco.blocks[qi] & deco.cut_vertices if x != via)
        return f"B{len(deco.blocks[qi])}(" + ",".join(kids) + ")"

    def cut(x, via):
        kids = sorted(block(qi, x) for qi in deco.block_indices_of(x) if qi != via)
        return "C(" + ",".join(kids) + ")"

    return cut(v, None)


def peel_by_rounds(g):
    """Clique levels by the definition: each round decomposes the residual
    graph afresh (a validated BlockGraph on the alive vertices), levels
    its pendant blocks and deletes their simplicial vertices.  Block
    indices are those of decompose(g) for a connected g with an edge."""
    index_of = {b: i for i, b in enumerate(decompose(BlockGraph(g.n, g.edges())).blocks)}
    levels = {}
    roots = {}
    unleveled = None
    alive = set(range(g.n))
    rounds = 0
    while alive:
        if len(alive) == 1:
            unleveled = next(iter(alive))
            break
        rounds += 1
        host = sorted(alive)
        new = {v: i for i, v in enumerate(host)}
        residual = BlockGraph(
            len(host), [(new[u], new[v]) for u, v in g.edges() if u in alive and v in alive]
        )
        deco = decompose(residual)
        drop = set()
        for rb in deco.blocks:
            b = frozenset(host[u] for u in rb)
            bcuts = {host[u] for u in rb & deco.cut_vertices}
            if len(bcuts) > 1:
                continue
            idx = index_of[b]
            levels[idx] = rounds
            roots[idx] = next(iter(bcuts)) if bcuts else None
            drop |= b - bcuts
        assert drop, "peeling made no progress"
        alive -= drop
    return LevelAssignment(levels, roots, unleveled, rounds)


def repeated_minimum_order(g):
    """Vertices in removal order by the definition: each step removes the
    live vertex of least (degree among live vertices, id)."""
    deg = {v: g.degree(v) for v in range(g.n)}
    alive = set(range(g.n))
    out = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        out.append(v)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
    return out


def true_twin_predecessors(g, order):
    """For each vertex that has one, by the definition: the nearest
    earlier vertex in `order` with the same closed neighborhood."""
    out = {}
    for i, v in enumerate(order):
        for u in reversed(order[:i]):
            if g.closed_neighborhood(u) == g.closed_neighborhood(v):
                out[v] = u
                break
    return out


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


def packing_box(max_k=4, max_b=8, max_n=6):
    """Every instance (A, k, B) with k <= max_k, B <= max_b and A a
    multiset of at most max_n items in 1..B summing to k*B."""
    out = []

    def extend(items, low, rest, k, B):
        if rest == 0:
            out.append((tuple(items), k, B))
        elif len(items) < max_n:
            for x in range(low, min(B, rest) + 1):
                extend(items + [x], x, rest - x, k, B)

    for k in range(1, max_k + 1):
        for B in range(1, max_b + 1):
            extend([], 1, k * B, k, B)
    return out


def flower_edges(inst):
    """Edge list of the flower graph of a packing instance (A, k, B),
    written from its definition: hub y_j is vertex j for j = 0..n, y_0
    is joined to every other hub, and flower j is B+1 (j = 0) or a_j+1
    (j >= 1) copies of K_k, each joined to y_j, numbered from n+1 on in
    flower order."""
    a, k, b = inst.item_sizes, inst.parts, inst.capacity
    edges = [(0, j) for j in range(1, len(a) + 1)]
    nxt = len(a) + 1
    for j, size in enumerate((b,) + a):
        for _ in range(size + 1):
            clique = range(nxt, nxt + k)
            nxt += k
            edges += [(j, v) for v in clique]
            edges += combinations(clique, 2)
    return edges


def bench_inputs(workload, workdir):
    """The plan of the benchmark's `workload` at seed 0, full size, with its
    input files written under `workdir` by the benchmark's own seeded
    suite (`perfbench/workloads.py`, loaded from its file)."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_inputs(workload, 0, "full", workdir)


def greedy_start_by_degree(g):
    """Proper (n+2)-coloring of the auxiliary graph: by decreasing degree,
    each vertex into its least-loaded free class, which leaves no class
    empty, so the class-size product starts positive.  No vertex runs out
    of classes: the hubs, an (n+1)-clique, come first; others see k <= n."""
    t = g.n_items + 2
    hubs = g.universal_vertices
    adj = [set(g.graph.neighbors(v)) for v in range(g.graph.n)]
    for u in hubs:
        adj[u].update(w for w in hubs if w != u)
    col = {}
    # (size, color) per class; a sorted list is already a heap
    heap = [(0, c) for c in range(1, t + 1)]
    for v in sorted(range(g.graph.n), key=lambda u: (-len(adj[u]), u)):
        used = {col[w] for w in adj[v] if w in col}
        skipped = []
        while heap[0][1] in used:
            skipped.append(heapq.heappop(heap))
        size, c = heap[0]
        heapq.heapreplace(heap, (size + 1, c))
        col[v] = c
        for entry in skipped:
            heapq.heappush(heap, entry)
    return col


class NotEquitableAtFixpointError(Exception):
    """Product-maximizing recoloring stopped on a non-equitable coloring.

    Signals a gap between the implementation and the recoloring argument;
    the offending coloring is attached for inspection.
    """

    def __init__(self, coloring, class_sizes):
        self.coloring = coloring
        self.class_sizes = class_sizes
        super().__init__(f"local search fixpoint not equitable, class sizes {sorted(class_sizes)}")


def greedy_start(g):
    """Proper (n+2)-coloring of the auxiliary graph: by decreasing degree,
    ties to the smaller id, each vertex into its least-loaded free class,
    ties to the smaller color.  That leaves no class empty, so the
    class-size product starts positive.

    The order is read off the flowers.  In the auxiliary graph hub y_j
    has degree n + c_j*k, where c_j is its flower's clique count (B+1
    or a_j+1), and every other vertex has degree k (its k-1 clique mates
    and its hub).  So the hubs come first, by (-c_j, id); as an
    (n+1)-clique they take colors 1..n+1 in that order.  Then every
    clique vertex follows in id order, and when its turn comes its only
    colored neighbors are its hub and its earlier mates.  The members of
    one clique therefore take, in order, the k least-loaded classes
    other than the hub's.  No clique runs out of classes: sum(A) = kB
    with every a_j <= B gives n >= k, so n+1 classes remain.
    """
    t = g.n_items + 2
    k = g.instance.parts
    hubs = g.universal_vertices
    order = sorted(range(len(hubs)), key=lambda j: (-len(g.cliques[j]), hubs[j]))
    col = {hubs[j]: c for c, j in enumerate(order, start=1)}
    # (size, color) per class; a sorted list is already a heap
    heap = [(0, t)] + [(1, c) for c in range(1, t)]
    for hub, flower in zip(hubs, g.cliques):
        own = col[hub]
        for members in flower:
            taken = []
            hub_entry = None
            while len(taken) < k:
                entry = heapq.heappop(heap)
                if entry[1] == own:
                    hub_entry = entry
                else:
                    taken.append(entry)
            for v, (size, c) in zip(members, taken):
                col[v] = c
                heapq.heappush(heap, (size + 1, c))
            if hub_entry is not None:
                heapq.heappush(heap, hub_entry)
    return col


def recolor_to_equitable(g, col, stats=None):
    """The paper's equitable (n+2)-coloring of a flower graph g: product-
    maximizing recoloring on the auxiliary graph with all hubs joined
    into a clique, from the coloring `col` (vertex -> color in 1..n+2,
    updated in place), which must be proper there and leave no class
    empty.  Only recolorings that strictly increase the product of class
    sizes are committed.  Two moves recolor a simplicial vertex into a
    class missing from its clique: the generic move into a class at
    least two smaller than its own, and the slide into a class one
    smaller, which leaves the product as it is and is kept only if a
    generic move then commits.  Any gap between these moves and the
    recoloring argument surfaces as NotEquitableAtFixpointError.
    `stats`, if given, receives the `products` after each commit, the
    `moves` count and `moves_by_kind`."""
    t = g.n_items + 2
    cliques = [tuple(g.universal_vertices)]
    for hub, flower in zip(g.universal_vertices, g.cliques):
        cliques.extend((hub,) + members for members in flower)
    clique_of = {v: ci for ci, members in enumerate(cliques[1:], start=1) for v in members[1:]}
    simplicials = sorted(clique_of)
    sizes = [0] * (t + 1)
    for c in col.values():
        sizes[c] += 1

    def present(ci):
        return {col[v] for v in cliques[ci]}

    def recolor(v, c):
        sizes[col[v]] -= 1
        sizes[c] += 1
        col[v] = c

    def generic_move():
        # move a simplicial vertex into a missing class at least 2 smaller
        for w in simplicials:
            cw = col[w]
            pres = present(clique_of[w])
            for c in range(1, t + 1):
                if c not in pres and sizes[c] <= sizes[cw] - 2:
                    recolor(w, c)
                    return True
        return False

    def slide_move():
        # product-neutral slide of a simplicial vertex, kept only if it
        # unlocks a generic move
        for w in simplicials:
            cw = col[w]
            pres = present(clique_of[w])
            for c in range(1, t + 1):
                if c in pres or sizes[c] != sizes[cw] - 1:
                    continue
                recolor(w, c)
                if generic_move():
                    return True
                recolor(w, cw)
        return False

    # an equitable coloring already maximizes the class-size product,
    # so no strictly improving move exists once the window is one unit
    products = [math.prod(sizes[1:])]
    by_kind = {"generic": 0, "slide": 0}
    while max(sizes[1:]) - min(sizes[1:]) > 1:
        kind = "generic" if generic_move() else "slide" if slide_move() else None
        if kind is None:
            break
        by_kind[kind] += 1
        p = math.prod(sizes[1:])
        if p <= products[-1]:
            raise AlgorithmInvariantError("committed move did not increase the product")
        products.append(p)
    if stats is not None:
        stats["products"] = products
        stats["moves"] = len(products) - 1
        stats["moves_by_kind"] = by_kind

    live = sizes[1:]
    if max(live) - min(live) > 2:
        raise AlgorithmInvariantError("fixpoint breaks the two-unit window claim")
    for members in cliques:
        seen = [col[v] for v in members]
        if len(set(seen)) != len(seen):
            raise AlgorithmInvariantError("fixpoint coloring not proper")
    coloring = Coloring(dict(col), t)
    if max(live) - min(live) > 1:
        raise NotEquitableAtFixpointError(coloring, live)
    return coloring


def resolve_kind_by_replay(tsub, tmap, v, cand):
    """First kind whose replay on G[T] (`tsub`, host-to-sub ids `tmap`)
    rebuilds every vertex the reverse-search candidate `cand` removed,
    or None: each kind is applied with `apply_operation` and the grown
    graph's vertex count compared."""
    anchors = tuple(tmap[a] for a in cand.anchors)
    for kind in OpKind:
        op = OpDescriptor(kind, anchors, cand.sizes, cand.ext)
        try:
            grown = apply_operation(tsub, tmap[v], op)
        except PreconditionViolatedError:
            continue
        if grown.n == tsub.n + len(cand.removed):
            return kind
    return None


def _accepts(at, kind, anchors):
    """Whether every structural guard of a `kind` step at `anchors` passes on `at`."""
    try:
        _guards_ok(at, kind, anchors)
    except PreconditionViolatedError:
        return False
    return True


def resolve_kind_by_guards(T, cand):
    """First kind whose guards `_accepts` on the state T, trying each in
    turn; two anchors can only be a twin."""
    kinds = (OpKind.TWIN_ATTACH,) if len(cand.anchors) == 2 else OpKind
    return next((kind for kind in kinds if _accepts(T, kind, cand.anchors)), None)


def candidate_ops_per_shape(g, v):
    """Every (kind, anchors) pair that `_guards_ok` accepts, trying each
    shape on its own: each cut vertex for kinds 1 and 2; then per block,
    each simplicial vertex for kind 3, each ordered pair and each single
    one for the twin attach, and each one for kind 5."""
    deco = decompose(g)
    cuts = deco.cut_vertices
    shapes = []
    for x in sorted(cuts):
        shapes += [(OpKind.ATTACH_AT_PENDANT_CUT, (x,)), (OpKind.ATTACH_AT_LEVEL2_K2_CUT, (x,))]
    for b in deco.blocks:
        simps = sorted(b - cuts)
        shapes += [(OpKind.ATTACH_AT_SIMPLICIAL_OF_RICH_CLIQUE, (s,)) for s in simps]
        shapes += [(OpKind.TWIN_ATTACH, pair) for pair in permutations(simps, 2)]
        shapes += [(OpKind.TWIN_ATTACH, (s,)) for s in simps]
        shapes += [(OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL, (s,)) for s in simps]
    out = []
    for kind, anchors in shapes:
        try:
            _guards_ok(_State(g, v), kind, anchors)
        except PreconditionViolatedError:
            continue
        out.append((kind, anchors))
    return out


def twin_falls_back_by_double_attach(g, v, anchors, sizes):
    """Whether a two-anchor twin attach at v that passes its guards falls
    back to one clique, by the rule as stated on the grown graph: build
    the double attach, and test that every root of the anchors' block is
    v, or lies outside N(v) and in every maximum independent set of the
    grown graph through v."""
    roots = _guards_ok(_State(g, v), OpKind.TWIN_ATTACH, anchors)
    grown = _attach_cliques(g, anchors, sizes)
    return all(z == v or (z not in grown.neighbors(v) and is_v_ais(grown, v, z)) for z in roots)


def generate_with_alphamin_by_building(r, max_clique=4, seed=None):
    """`generate_with_alphamin` as the build-then-check loop: every
    resampled attempt is built with `apply_operation`, and kept when
    the grown graph's alpha_min and vertex 0's alpha_with are both the
    target.  Draws the same random numbers in the same order."""
    rng = random.Random(seed)
    def size():  # 2 with odds 3 in max_clique + 1, else uniform over 3..max_clique
        return max(2, rng.randrange(max_clique + 1))
    base = star_of_cliques([size() for _ in range(rng.randint(2, 3))])
    g = base
    steps = []
    for i in range(1, r):
        target = i + 1
        cands = _candidate_ops(_State(g, 0))
        if not cands:
            raise ExhaustedRetriesError(f"no candidate operations at step {i}")
        for _ in range(_RETRIES):
            kind, anchors = rng.choice(cands)
            sizes = tuple(size() for _ in anchors)
            ext = None
            k2s = [ix for ix, s in enumerate(sizes) if s == 2]
            if k2s and rng.random() < 0.4:
                ext = StarExtension(rng.choice(k2s), size())
            op = OpDescriptor(kind, anchors, sizes, ext)
            try:
                grown = apply_operation(g, 0, op)
            except PreconditionViolatedError:
                continue
            if (
                invariants.alpha_min(grown).value == target
                and invariants.alpha_with(grown, 0) == target
            ):
                g = grown
                steps.append(op)
                break
        else:
            raise ExhaustedRetriesError(f"no accepted operation within {_RETRIES} tries at step {i}")
    return g, CharCertificate(base, 0, tuple(steps))


def reverse_candidates_by_neighbors(S):
    """`characterization._reverse_candidates` with the twin-pair rule
    read off g's neighbor sets: anchors a and b pair when b is in N(a),
    a set asked of g once per distinct anchor at each state."""
    g, deco = S.g, S.deco
    pieces = []
    for qi in deco.pendant_block_indices():
        block = deco.blocks[qi]
        x = next(iter(block & deco.cut_vertices))
        fresh = tuple(sorted(block - {x}))
        pieces.append(_Reverse(None, (x,), (len(block),), None, fresh))
        other = [deco.blocks[qj] for qj in deco._vertex_blocks[x] if qj != qi]
        if len(other) == 1 and len(other[0]) == 2:
            (w1,) = other[0] - {x}
            pieces.append(_Reverse(None, (w1,), (2,), StarExtension(0, len(block)), (x,) + fresh))
    pieces = [p for p in pieces if p.removed.isdisjoint(S.nv)]

    cands = list(pieces)
    nbrs = {a: g.neighbors(a) for (a,) in {p.anchors for p in pieces}} if len(pieces) > 1 else {}
    for p, q in permutations(pieces, 2):
        (a,), (b,) = p.anchors, q.anchors
        # an extended piece goes first; a plain pair, smaller anchor first
        if q.ext or (p.ext is None and a > b) or b not in nbrs[a]:
            continue
        if p.removed & q.removed or a in q.removed or b in p.removed:
            continue
        # replay adds p's clique, then q's, then p's extension
        n_p = 1 if p.ext else len(p.fresh)
        cands.append(_Reverse(OpKind.TWIN_ATTACH, (a, b), p.sizes + q.sizes, p.ext,
                              p.fresh[:n_p] + q.fresh + p.fresh[n_p:]))
    cands.sort(key=lambda c: (len(c.removed), sorted(c.removed), c.anchors, c.sizes))
    return cands


def _reverse_candidates_of_subgraph(g, v, sub, hosts):
    """Last-step removal candidates at a state S, read off G[S] (`sub`,
    whose vertex i is g's vertex hosts[i]).

    A piece is what one attached clique added: a pendant block of G[S]
    without the vertex it hangs from; or such a block E at w2 together
    with w2, when w2's only other block is a 2-block {w1, w2} (anchor
    w1, extended by E).  No piece meets N[v].  A candidate is one piece,
    or a twin attach of two pieces with distinct adjacent anchors,
    disjoint removals and neither anchor in the other's removal, of
    which at most one is extended and goes first.  A plain pair is
    listed once, smaller anchor first: the guards are symmetric in the
    two anchors."""
    deco = decompose(sub)
    nv = g.closed_neighborhood(v)
    pieces = []
    for qi in deco.pendant_block_indices():
        block = deco.blocks[qi]
        x = next(iter(block & deco.cut_vertices))
        fresh = tuple(sorted(hosts[u] for u in block - {x}))
        pieces.append(_Reverse(None, (hosts[x],), (len(block),), None, fresh))
        other = [deco.blocks[qj] for qj in deco._vertex_blocks[x] if qj != qi]
        if len(other) == 1 and len(other[0]) == 2:
            (w1,) = other[0] - {x}
            pieces.append(_Reverse(None, (hosts[w1],), (2,), StarExtension(0, len(block)),
                                   (hosts[x],) + fresh))
    pieces = [p for p in pieces if p.removed.isdisjoint(nv)]

    cands = list(pieces)
    for p, q in permutations(pieces, 2):
        (a,), (b,) = p.anchors, q.anchors
        # an extended piece goes first; a plain pair, smaller anchor first
        if q.ext or (p.ext is None and a > b) or b not in g.neighbors(a):
            continue
        if p.removed & q.removed or a in q.removed or b in p.removed:
            continue
        # replay adds p's clique, then q's, then p's extension
        n_p = 1 if p.ext else len(p.fresh)
        cands.append(_Reverse(OpKind.TWIN_ATTACH, (a, b), p.sizes + q.sizes, p.ext,
                              p.fresh[:n_p] + q.fresh + p.fresh[n_p:]))
    cands.sort(key=lambda c: (len(c.removed), sorted(c.removed), c.anchors, c.sizes))
    return cands


def _steps_down_on_subgraph(sub, smap, v, am, cand):
    """Whether removing `cand` from G[S] (`sub`, with host-to-sub ids
    `smap`), where v realizes alpha_min(G[S]) = am, leaves
    alpha_min(G[T]) = alpha_with(G[T], v) = am - 1.  G[T] is not built.

    A single piece is one clique, so removing it lowers each alpha_with
    by at most one and only v's value needs checking: it drops exactly
    when every maximum independent set of G[S] - N[v] meets the piece.
    An extended piece is a whole pendant block, which every such set
    meets.  A plain piece hanging from x is a whole component of
    G[S] - N[v] when x is next to v, and otherwise is avoided exactly by
    the maximum sets through x.  A twin removes two cliques and gets one
    alpha pass over G[S] with them left out."""
    sv = smap[v]
    if cand.kind is OpKind.TWIN_ATTACH:
        removed = {smap[u] for u in cand.removed}
        table = invariants._alpha_pass(sub, removed)
        kept_min = min(a for u, a in enumerate(table.alpha_with) if u not in removed)
        return table.alpha_with[sv] == kept_min == am - 1
    if cand.ext is not None:
        return True
    x = smap[cand.anchors[0]]
    if x in sub.neighbors(sv):
        return True
    table = invariants._alpha_pass(sub, sub.closed_neighborhood(sv))
    return table.alpha_with[x] < table.alpha


def _resolve_kind_on_subgraph(tsub, tmap, v, cand):
    """First kind whose guards pass on the shrunken graph G[T] (`tsub`,
    with host-to-sub ids `tmap`), as a whole graph; two anchors can only
    be a twin."""
    anchors = tuple(tmap[a] for a in cand.anchors)
    kinds = (OpKind.TWIN_ATTACH,) if len(anchors) == 2 else OpKind
    at = _State(tsub, tmap[v])
    return next((kind for kind in kinds if _accepts(at, kind, anchors)), None)


def reverse_search_by_subgraphs(g, v, target):
    """Growth records that shrink g to the clique-star around v, or None:
    the reverse search as a recursion that builds each state G[T] with
    `induced_subgraph` and reads its candidates, step rule and kind off
    the renumbered graph (`sub`, with `hosts` and the host-to-sub maps
    `smap`, `tmap`)."""
    base_set = frozenset(g.closed_neighborhood(v))
    failed = set()

    def search(S, sub, hosts, smap, am):
        if S == base_set:
            return []
        if S in failed:
            return None
        for cand in _reverse_candidates_of_subgraph(g, v, sub, hosts):
            if not _steps_down_on_subgraph(sub, smap, v, am, cand):
                continue
            T = S - cand.removed
            thosts = sorted(T)
            # a piece hangs from one vertex, so G[T] stays connected
            tsub, tmap = g.induced_subgraph(thosts)
            kind = _resolve_kind_on_subgraph(tsub, tmap, v, cand)
            if kind is None:
                continue
            rest = search(T, tsub, thosts, tmap, am - 1)
            if rest is not None:
                return rest + [replace(cand, kind=kind)]
        failed.add(S)
        return None

    ids = range(g.n)
    return search(frozenset(ids), g, ids, {u: u for u in ids}, target)


# -- the vertex-by-vertex forest passes ----------------------------------
#
# `invariants` walks the block-cut forest over its hubs and blocks and
# counts simplicial vertices per block; these are the passes that visit
# every kept vertex, kept as the reference it is checked against.


def rooted_forest_by_vertices(g, left_out=()):
    """The block-cut forest of G - left_out rooted at the smallest vertex
    of each component: (order, up, top) lists the kept vertices breadth
    first, the block up[v] through which v hangs from its parent vertex
    (-1 at a root, -2 if left out; v's other blocks are its child
    blocks) and the vertex top[b] from which block b hangs.  A block cut
    down to the kept vertices is still a clique, so this is g's own
    forest restricted: a left-out vertex is never a root and never
    hangs from a block."""
    deco = decompose(g)
    blocks, vertex_blocks = deco.blocks, deco._vertex_blocks
    up = [-1] * g.n
    for u in left_out:
        up[u] = -2
    top = [-1] * len(blocks)
    order = []
    for r in range(g.n):
        if up[r] != -1:
            continue
        # the loop visits what it appends: one component, breadth first
        comp = [r]
        for v in comp:
            for b in vertex_blocks[v]:
                if b == up[v]:
                    continue
                top[b] = v
                for u in blocks[b]:
                    if u != v and up[u] != -2:
                        up[u] = b
                        comp.append(u)
        order += comp
    return order, up, top


def alpha_pass_by_vertices(g, left_out=(), bonus=()):
    """The alpha table of G - left_out, indexed by g's vertex ids; the
    entries of left-out vertices mean nothing.

    `bonus` lists (x, d_inc, d_exc) triples, each a structure hung from
    the kept vertex x by one vertex and met by no other: it adds d_inc
    to the largest set within x's subtree through x and d_exc to the
    largest avoiding x.  A plain clique adds (0, 1): through x it gives
    nothing, avoiding x one fresh vertex.  A 2-block {x, w2} with a
    clique hung at w2 adds (1, 1): w2 through x, w2 or a clique vertex
    avoiding x.  The table is then the grown graph's on g's vertices,
    from one pass over g's own forest.

    An independent set takes at most one vertex per block.  inc[v] and
    exc[v] are the largest sets through and avoiding v, first within
    v's subtree; per block the post-order pass keeps the sum of its
    children's exc and the two largest gains inc - exc among them.  The
    rerooting pass adds to each child u what lies above its block: the
    parent vertex with the block cut off and u's siblings, where
    avoiding u frees the best gain left in the block.
    """
    order, up, top = rooted_forest_by_vertices(g, left_out)
    vertex_blocks = decompose(g)._vertex_blocks
    nb = len(top)
    inc = [1] * g.n
    exc = [0] * g.n
    for x, d_inc, d_exc in bonus:
        inc[x] += d_inc
        exc[x] += d_exc
    bsum = [0] * nb
    best = [0] * nb
    second = [0] * nb
    holder = [-1] * nb
    for v in reversed(order):
        b = up[v]
        for c in vertex_blocks[v]:
            if c != b:
                inc[v] += bsum[c]
                exc[v] += bsum[c] + best[c]
        if b >= 0:
            bsum[b] += exc[v]
            gain = inc[v] - exc[v]
            if gain > best[b]:
                best[b], second[b], holder[b] = gain, best[b], v
            elif gain > second[b]:
                second[b] = gain
    for u in order:
        b = up[u]
        if b < 0:
            continue
        p = top[b]
        rest_exc = exc[p] - bsum[b] - best[b]
        rest_gain = inc[p] - bsum[b] - rest_exc
        rest = rest_exc + bsum[b] - exc[u]
        inc[u] += rest
        freed = second[b] if holder[b] == u else best[b]
        exc[u] += rest + (rest_gain if rest_gain > freed else freed)
    # max(inc, exc) is the alpha of the vertex's component
    total = sum(max(inc[v], exc[v]) for v in order if up[v] < 0)
    return invariants._AlphaTable(
        total,
        [total if e <= i else total - e + i for i, e in zip(inc, exc)],
        [e < i for i, e in zip(inc, exc)],
        exc,
    )


def dc_by_vertices(g):
    """Smallest vertex set whose removal leaves disjoint cliques.

    The rest is a cluster graph exactly when every survivor keeps
    surviving neighbors in at most one of its blocks.  Per vertex v the
    post-order pass keeps the cheapest subtree with v deleted (drop),
    surviving with no survivor in its child blocks (alone), and
    surviving with survivors in at most one child block (joined); a
    survivor that shares its parent block with another survivor must be
    alone.  Deleting v costs 2^n - 2^(n-1-v), so distinct sets cost
    differently, the cheapest set is a smallest one and, among those,
    the lexicographically first, and its low n bits spell it out.
    """
    order, up, top = rooted_forest_by_vertices(g)
    vertex_blocks = decompose(g)._vertex_blocks
    n, nb = g.n, len(top)
    drop = [(1 << n) - (1 << (n - 1 - v)) for v in range(n)]
    alone = [0] * n
    # per block, over its children: all deleted; survivors all alone;
    # change when one child survives joined and the others are deleted
    closed = [0] * nb
    opened = [0] * nb
    lone = [0] * nb
    total = 0
    for v in reversed(order):
        joined = 0
        b = up[v]
        for c in vertex_blocks[v]:
            if c != b:
                drop[v] += min(opened[c], closed[c] + lone[c])
                alone[v] += closed[c]
                joined = min(joined, opened[c] - closed[c])
        joined += alone[v]
        if b < 0:
            total += min(drop[v], joined)
        else:
            closed[b] += drop[v]
            opened[b] += min(drop[v], alone[v])
            lone[b] = min(lone[b], joined - drop[v])
    size = -(-total >> n)
    spelled = (size << n) - total
    return invariants.DcResult(size, frozenset(v for v in range(n) if spelled >> (n - 1 - v) & 1))


# -- the dense count matrix fill ------------------------------------------

# `gls` colors the uniform flower graphs clique by clique by largest
# demand; this is the dense t x (n+1) transportation fill that it
# replaced, kept as the reference that decides whether a count matrix
# with given class sizes exists.


def transport_fill_dense(sizes, caps, colsize, uc):
    """Deterministic transportation fill of the count matrix.

    Rows are colors with totals `sizes`, columns are flowers with totals
    `colsize`.  The hub cell of column x (row uc[x]-1) is pinned to 1;
    every other cell holds at most caps[x].  A greedy prefill then goes
    column by column and gives the rows with the largest remaining need
    as many units as the cap and the column total allow.  Augmenting
    paths repair whatever the prefill leaves unmet; they run on the
    matrix itself: a forward step from row i to column x has room while
    C[i][x] < caps[x], a backward step from column x to row j takes back
    units while C[j][x] > 0.  They reach a full matrix from any partial
    fill that keeps the caps and the hub pins, so the prefill only saves
    search.  Any matrix that meets all totals realizes to a proper
    equitable coloring.
    """
    t, cols = len(sizes), len(caps)
    hub = [c - 1 for c in uc]
    C = [[0] * cols for _ in range(t)]
    need_row = list(sizes)
    need_col = list(colsize)
    for x in range(cols):
        C[hub[x]][x] = 1
        need_row[hub[x]] -= 1
        need_col[x] -= 1
    if min(need_row) < 0:
        raise AlgorithmInvariantError("hub placements alone overfill a class")

    for x in range(cols):
        for i in sorted(range(t), key=lambda i: (-need_row[i], i)):
            if need_col[x] == 0:
                break
            if i != hub[x]:
                units = min(need_row[i], caps[x], need_col[x])
                C[i][x] = units
                need_row[i] -= units
                need_col[x] -= units

    while any(need_row):
        row_from = {i: None for i in range(t) if need_row[i] > 0}
        col_from = {}
        queue = deque(row_from)
        end = None
        while queue and end is None:
            i = queue.popleft()
            for x in range(cols):
                if x in col_from or hub[x] == i or C[i][x] >= caps[x]:
                    continue
                col_from[x] = i
                if need_col[x] > 0:
                    end = x
                    break
                for j in range(t):
                    if j not in row_from and j != hub[x] and C[j][x] > 0:
                        row_from[j] = x
                        queue.append(j)
        if end is None:
            raise AlgorithmInvariantError("no feasible count matrix exists")

        steps = []  # (row, column, +1 forward / -1 backward)
        push = need_col[end]
        x = end
        while True:
            i = col_from[x]
            steps.append((i, x, 1))
            push = min(push, caps[x] - C[i][x])
            x = row_from[i]
            if x is None:
                push = min(push, need_row[i])
                break
            steps.append((i, x, -1))
            push = min(push, C[i][x])
        for r, x, sign in steps:
            C[r][x] += sign * push
        need_row[i] -= push  # i is the source row the walk ended at
        need_col[end] -= push
    return C
