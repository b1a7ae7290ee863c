"""Independent brute-force ground truth.

Everything here is deliberately naive or exhaustively exact so that it
shares no code path with the fast implementations in `invariants` and
`gls`: subset enumeration for independence numbers and cluster
deletion, backtracking with sound pruning for equitable colorability,
branch and bound for packing, permutation search for isomorphism, and
two counts of connected block graphs up to isomorphism: one by
filtering every small graph, one closed-form over block-cut trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations
from typing import Optional

from .errors import (
    ColorOutOfRangeError,
    EmptyGraphError,
    SearchBudgetExceededError,
    TooLargeError,
    UncoloredVertexError,
    UnknownVertexError,
)
from .gls import BinPackingInstance, Coloring
from .graph import BlockGraph, decompose

BRUTE_CAP = 20


@dataclass(frozen=True)
class CheckResult:
    proper: bool
    equitable: bool


def check_coloring(g: BlockGraph, coloring: Coloring) -> CheckResult:
    """Properness and equitability of a coloring of exactly g's vertices."""
    col = coloring.color
    t = coloring.t
    for v in range(g.n):
        if v not in col:
            raise UncoloredVertexError(f"vertex {v} has no color")
        if not (1 <= col[v] <= t):
            raise ColorOutOfRangeError(f"color {col[v]} outside 1..{t}")
    if len(col) != g.n:
        extra = min(set(col) - set(range(g.n)))
        raise UnknownVertexError(f"colored vertex {extra} outside 0..{g.n - 1}")
    adj = g._adj
    proper = all(col[u] != col[w] for u in range(g.n) for w in adj[u])
    sizes = [0] * t
    for v in range(g.n):
        sizes[col[v] - 1] += 1
    lo, hi = g.n // t, -(g.n // -t)
    equitable = all(s in (lo, hi) for s in sizes)
    return CheckResult(proper, equitable)


def _degeneracy_order(g: BlockGraph):
    """Vertices in removal order of repeated minimum degree, ties to the
    smallest id.  A heap of (degree, id) stands in for the minimum over
    the live vertices; an entry whose degree has since dropped is stale
    and skipped, since the vertex was pushed again with its new degree."""
    adj = g._adj
    deg = [len(s) for s in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    alive = [True] * g.n
    out = []
    while heap:
        d, v = heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        out.append(v)
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return out


def _true_twin_predecessors(g: BlockGraph, order):
    """For each position of `order`, the nearest earlier vertex with the
    same closed neighborhood as the vertex there (adjacent interchangeable
    twins), or -1 if none is; used to break color symmetry inside cliques."""
    adj = g._adj
    last = {}
    prev = []
    for v in order:
        key = adj[v] | {v}
        prev.append(last.get(key, -1))
        last[key] = v
    return prev


def _clique_bound(g: BlockGraph) -> int:
    """Size of the largest block of decompose(g) whose members are found
    pairwise adjacent in g, or 1 if none is.  That block is a clique, so
    no t below its size colors g properly, whatever decompose returned."""
    adj = g._adj
    best = 1
    for b in decompose(g).blocks:
        if len(b) > best and all(b - {u} <= adj[u] for u in b):
            best = len(b)
    return best


def _search_plan(g: BlockGraph):
    """Vertex order and twin predecessors by position of the backtracking
    search; they depend on g alone, so a scan over t computes them once."""
    order = list(reversed(_degeneracy_order(g)))
    return order, _true_twin_predecessors(g, order)


def exact_equitable_colorable(
    g: BlockGraph, t: int, node_budget: Optional[int] = None, _plan=None
):
    """Exact decision of equitable t-colorability, with witness.

    Backtracking in reverse degeneracy order under per-class caps, a
    floor-deficit prune, first-empty-class and twin symmetry breaking.
    Raises SearchBudgetExceededError when the node cap is hit, so a
    'gave up' is never conflated with a 'no'.  `_plan` is g's
    `_search_plan`, passed by callers that try several t.

    The search is one loop over the positions of the order: entering a
    position counts a node and scans its colors from the first allowed
    one; a scan that finds none backs up to the previous position, which
    undoes its color and resumes its scan at the next one.  Its depth is
    not bounded by Python's recursion limit.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = g.n
    if n == 0:
        return True, Coloring({}, t)
    floor, extra = divmod(n, t)
    cap_hi = floor + 1 if extra else floor
    order, twin_prev = _plan if _plan is not None else _search_plan(g)
    adj = g._adj
    # color t marks an uncolored vertex, whose bit is 0; the extra last
    # slot is 0, the lowest color, read through a twin predecessor of -1
    color = [t] * n + [0]
    bit = [1 << c for c in range(t)] + [0]
    counts = [0] * t
    deficit = floor * t  # sum over classes of max(0, floor - count)
    passed_empty = [False] * n  # per position: its scan has passed an empty class
    nodes = 0
    idx = 0
    entering = True
    while True:
        if entering:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetExceededError(f"budget {node_budget} exhausted")
            if idx == n:
                return True, Coloring({u: color[u] + 1 for u in order}, t)
            v = order[idx]
            c = color[twin_prev[idx]]
            seen_empty = False
        else:
            v = order[idx]
            c = color[v]
            counts[c] -= 1
            if counts[c] < floor:
                deficit += 1
            color[v] = t
            c += 1
            seen_empty = passed_empty[idx]
        forbidden = 0
        for w in adj[v]:
            forbidden |= bit[color[w]]
        remaining = n - idx - 1
        entering = False
        for c in range(c, t):
            k = counts[c]
            if k == 0:
                if seen_empty:
                    break
                seen_empty = True
            if forbidden & bit[c] or k >= cap_hi:
                continue
            d_dec = k < floor
            # also bars a class at floor once `extra` classes hold floor+1
            if deficit - d_dec > remaining:
                continue
            counts[c] = k + 1
            deficit -= d_dec
            color[v] = c
            passed_empty[idx] = seen_empty
            entering = True
            break
        if entering:
            idx += 1
        else:
            idx -= 1
            if idx < 0:
                return False, None


@dataclass(frozen=True)
class SpectrumReport:
    """Which color counts admit an equitable coloring."""

    n: int
    t_cap: int
    feasible_ts: frozenset
    unknown_ts: frozenset
    chi_eq: Optional[int]
    chi_eq_star: Optional[int]
    gap_free: Optional[bool]
    complete: bool

    def to_json_dict(self):
        return {
            "n": self.n,
            "t_cap": self.t_cap,
            "feasible_ts": sorted(self.feasible_ts),
            "unknown_ts": sorted(self.unknown_ts),
            "chi_eq": self.chi_eq,
            "chi_eq_star": self.chi_eq_star,
            "gap_free": self.gap_free,
            "complete": self.complete,
        }


def spectrum(g: BlockGraph, t_cap: Optional[int] = None, node_budget: Optional[int] = None) -> SpectrumReport:
    """Scan t = 1..t_cap with the exact solver; every t below
    `_clique_bound(g)` is infeasible without a search.  A graph with no
    edges needs no search: n isolated vertices split into t classes of
    sizes differing by at most one for every t <= n."""
    cap = g.n if t_cap is None else t_cap
    if cap > g.n:
        raise ValueError("t_cap exceeds the vertex count")
    feasible = set()
    unknown = set()
    if any(g._adj):
        plan = _search_plan(g)
        for t in range(_clique_bound(g), cap + 1):
            try:
                ok, _ = exact_equitable_colorable(g, t, node_budget, _plan=plan)
            except SearchBudgetExceededError:
                unknown.add(t)
                continue
            if ok:
                feasible.add(t)
    else:
        feasible.update(range(1, cap + 1))
    complete = not unknown and cap == g.n
    chi_eq = min(feasible) if feasible else None
    chi_star = None
    if complete and feasible:
        chi_star = cap
        while chi_star - 1 in feasible and chi_star - 1 >= 1:
            chi_star -= 1
    gap_free = (chi_eq == chi_star) if (chi_eq is not None and chi_star is not None) else None
    return SpectrumReport(
        g.n, cap, frozenset(feasible), frozenset(unknown), chi_eq, chi_star, gap_free, complete
    )


def exact_chi_eq(g: BlockGraph, node_budget: Optional[int] = None) -> int:
    """Smallest t admitting an equitable coloring (t = n always works,
    so only the empty graph, which has no such t, raises).  The scan
    starts at `_clique_bound(g)`, below which no t works."""
    plan = _search_plan(g)
    for t in range(_clique_bound(g), g.n + 1):
        ok, _ = exact_equitable_colorable(g, t, node_budget, _plan=plan)
        if ok:
            return t
    raise EmptyGraphError("exact chi-eq of the empty graph")


# -- naive independence and cluster numbers ------------------------------


def _check_cap(g, cap):
    if g.n > cap:
        raise TooLargeError(f"brute force capped at {cap} vertices, got {g.n}")


def _brute_alpha_search(g: BlockGraph, forced: Optional[int], cap: int) -> int:
    """Largest independent set by include/exclude enumeration; with
    `forced`, the largest one that contains that vertex."""
    _check_cap(g, cap)
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0

    def rec(v, blocked, size):
        nonlocal best
        if size + (g.n - v) <= best:
            return
        if v == g.n:
            best = max(best, size)
            return
        if not (blocked >> v) & 1:
            rec(v + 1, blocked | masks[v], size + 1)
        rec(v + 1, blocked, size)

    if forced is None:
        rec(0, 0, 0)
    else:
        g._check_vertex(forced)
        # the forced vertex is taken up front: it and its neighbors start blocked
        rec(0, masks[forced] | 1 << forced, 1)
    return best


def brute_alpha(g: BlockGraph, cap: int = BRUTE_CAP) -> int:
    """Maximum independent set size by include/exclude enumeration."""
    return _brute_alpha_search(g, None, cap)


def brute_alpha_with(g: BlockGraph, v: int, cap: int = BRUTE_CAP) -> int:
    """Maximum independent set containing v, enumerated directly."""
    return _brute_alpha_search(g, v, cap)


def brute_dc(g: BlockGraph, cap: int = BRUTE_CAP) -> int:
    """Distance to cluster by subset enumeration, cluster = no induced P_3."""
    _check_cap(g, cap)
    verts = list(range(g.n))
    for size in range(g.n + 1):
        for sub in combinations(verts, size):
            keep = set(verts) - set(sub)
            if _no_induced_p3(g, keep):
                return size
    raise AssertionError("unreachable")


def _no_induced_p3(g, keep):
    adj = g._adj
    for v in keep:
        nbrs = [w for w in adj[v] if w in keep]
        for i, a in enumerate(nbrs):
            row = adj[a]
            for b in nbrs[i + 1:]:
                if b not in row:
                    return False
    return True


def bin_packing_decide(inst: BinPackingInstance, cap: int = BRUTE_CAP):
    """Exact packing decision with a partition witness.

    Branch and bound over items in descending size; parts with equal
    load are interchangeable and tried once.
    """
    inst.validate()
    items = sorted(range(len(inst.item_sizes)), key=lambda i: -inst.item_sizes[i])
    if len(items) > cap:
        raise TooLargeError(f"packing capped at {cap} items")
    k, b = inst.parts, inst.capacity
    loads = [0] * k
    placed = [[] for _ in range(k)]

    def rec(pos):
        if pos == len(items):
            return True
        item = items[pos]
        size = inst.item_sizes[item]
        tried = set()
        for p in range(k):
            if loads[p] in tried or loads[p] + size > b:
                continue
            tried.add(loads[p])
            loads[p] += size
            placed[p].append(item)
            if rec(pos + 1):
                return True
            placed[p].pop()
            loads[p] -= size
        return False

    if rec(0):
        return True, [sorted(p) for p in placed]
    return False, None


# -- canonical forms and counts of block graphs ---------------------------


def canonical_form(g: BlockGraph) -> bytes:
    """Isomorphism-invariant canonical encoding of a block graph.

    A block graph is determined by its block-cut forest with block
    sizes, so the canonical string is the classic rooted-tree encoding
    of that forest, rooted at tree centers.
    """
    deco = decompose(g)

    def encode(node, parent, neigh):
        kids = sorted(encode(w, node, neigh) for w in neigh[node] if w != parent)
        label = f"B{len(deco.blocks[node[1]])}" if node[0] == "B" else "C"
        return label + "(" + ",".join(kids) + ")"

    comps = []
    for comp in sorted(connected_components(g), key=sorted):
        bidx = sorted({i for v in comp for i in deco.block_indices_of(v)})
        nodes = [("B", i) for i in bidx] + [
            ("C", v) for v in sorted(comp & deco.cut_vertices)
        ]
        neigh = {nd: [] for nd in nodes}
        for i in bidx:
            for v in deco.blocks[i] & deco.cut_vertices:
                neigh[("B", i)].append(("C", v))
                neigh[("C", v)].append(("B", i))
        centers = _tree_centers(nodes, neigh)
        comps.append(min(encode(c, None, neigh) for c in centers))
    return "|".join(sorted(comps)).encode("ascii")


def _tree_centers(nodes, neigh):
    if len(nodes) == 1:
        return list(nodes)
    degree = {nd: len(neigh[nd]) for nd in nodes}
    leaves = [nd for nd in nodes if degree[nd] <= 1]
    remaining = len(nodes)
    while remaining > 2:
        nxt = []
        for leaf in leaves:
            for w in neigh[leaf]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[leaf] = 0
            remaining -= 1
        leaves = nxt
    return leaves


def isomorphic_brute(g1: BlockGraph, g2: BlockGraph, cap: int = 8) -> bool:
    """Isomorphism by permutation search; test-scale only."""
    if g1.n > cap or g2.n > cap:
        raise TooLargeError(f"isomorphism search capped at {cap} vertices")
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != sorted(
        g2.degree(v) for v in range(g2.n)
    ):
        return False
    e1 = set(g1.edges())
    for perm in permutations(range(g2.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e1 for u, v in g2.edges()):
            return True
    return False


def _mset_at(a, top):
    """Coefficient of x^top in MSET(a) = prod_k (1 - x^k)^(-a[k]), with
    a[k] objects of size k >= 1: m_0 = 1, n*m_n = sum_{k=1..n} c_k*m_{n-k}
    and c_k = sum_{d | k} d*a[d]; every division is exact."""
    c = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(top + 1)]
    m = [1] + [0] * top
    for n in range(1, top + 1):
        m[n] = sum(c[k] * m[n - k] for k in range(1, n + 1)) // n
    return m[top]


def count_block_graphs(n_max: int) -> dict:
    """Connected block graphs on n vertices up to isomorphism, for each n
    in 1..n_max, counted over block-cut trees as integer power series:
    R (rooted at a vertex) = x*MSET(H); H (blocks hung from a root, each
    with a nonempty multiset of rooted graphs at its other members) =
    sum_{k>=1} MSET_k(R) = MSET(R) - 1; and free A = R + sum_{k>=2}
    MSET_k(R) - R*H = H - R*H, by the dissymmetry theorem: rooted at a
    vertex, plus at a block, minus at a vertex-block incidence."""
    r = [0] * (n_max + 1)
    h = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        r[n] = _mset_at(h, n - 1)
        h[n] = _mset_at(r, n)
    return {n: h[n] - sum(r[i] * h[n - i] for i in range(1, n)) for n in range(1, n_max + 1)}


def is_block_graph_by_filter(g: BlockGraph) -> bool:
    """Block-graph test independent of the decomposition code.

    Uses the forbidden-subgraph characterization: no induced cycle of
    length >= 4 and no induced diamond.
    """
    n, adj = g.n, g._adj
    for quad in combinations(range(n), 4):
        sub = [(u, v) for u, v in combinations(quad, 2) if g.adjacent(u, v)]
        if len(sub) == 5:
            return False  # diamond
    for size in range(4, n + 1):
        for sub in combinations(range(n), size):
            degs = {v: sum(1 for w in sub if g.adjacent(v, w)) for v in sub}
            if all(d == 2 for d in degs.values()) and len(_components(adj, set(sub))) == 1:
                return False
    return True


def _components(adj, within):
    """The vertex sets of the components of the graph that `adj` induces
    on `within`: the oracle's one graph walk, a depth-first search."""
    seen, comps = set(), []
    for s in within:
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w in within and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


def connected_components(g: BlockGraph):
    """The vertex sets of g's connected components, read off its adjacency."""
    return _components(g._adj, range(g.n))


def count_block_graphs_by_filter(n: int) -> int:
    """Count connected block graphs on exactly n labeled-free vertices
    by filtering all 2^(n choose 2) graphs; the independent cross-check
    for `count_block_graphs`."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = BlockGraph(n, edges, _validated=True)
        if len(connected_components(g)) > 1:
            continue
        if not is_block_graph_by_filter(g):
            continue
        seen.add(canonical_form(g))
    return len(seen)
