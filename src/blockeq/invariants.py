"""Structural parameters of block graphs.

Every parameter comes from linear passes over the block-cut forest of
`graph.decompose`: a post-order and a rerooting pass give the alpha
table (cached on the graph), from which `alpha`, `alpha_with`,
`alpha_min` and the AIS test are read off, and one more post-order
pass gives the distance to cluster.  The v-AIS test is the same alpha
pass over the host graph's forest with N[v] left out, made per query;
no residual graph G - N[v] is built.  The deliberately naive
counterparts live in `oracle` so the two code paths stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyGraphError, WIsInClosedNeighborhoodError
from .graph import BlockGraph, decompose


def _rooted_forest(g: BlockGraph, left_out=()):
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


class _AlphaTable(NamedTuple):
    alpha: int
    alpha_with: list  # largest independent set containing v
    ais: list  # whether v lies in every maximum independent set
    exc: list  # largest independent set of v's component avoiding v


def _alpha_table(g: BlockGraph) -> _AlphaTable:
    """The alpha table of g, computed once and cached on the graph."""
    if g._alpha is None:
        g._alpha = _alpha_pass(g)
    return g._alpha


def _alpha_pass(g: BlockGraph, left_out=(), bonus=()) -> _AlphaTable:
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
    order, up, top = _rooted_forest(g, left_out)
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
    return _AlphaTable(
        total,
        [total if e <= i else total - e + i for i, e in zip(inc, exc)],
        [e < i for i, e in zip(inc, exc)],
        exc,
    )


def alpha(g: BlockGraph) -> int:
    """Size of a largest independent set."""
    return _alpha_table(g).alpha


def alpha_with(g: BlockGraph, v: int) -> int:
    """Size of a largest independent set containing v."""
    g._check_vertex(v)
    return _alpha_table(g).alpha_with[v]


@dataclass(frozen=True)
class AlphaMinResult:
    value: int
    witness: int


def alpha_min(g: BlockGraph) -> AlphaMinResult:
    """Minimum over vertices of alpha_with, plus a witness.

    Ties break toward the smallest id.  A simplicial vertex attains
    alpha itself, so below alpha only cut vertices realize the minimum.
    """
    if g.n == 0:
        raise EmptyGraphError("alpha_min of the empty graph")
    aw = _alpha_table(g).alpha_with
    value = min(aw)
    return AlphaMinResult(value, aw.index(value))


@dataclass(frozen=True)
class DcResult:
    value: int
    dc_set: frozenset


def dc_exact(g: BlockGraph) -> DcResult:
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
    order, up, top = _rooted_forest(g)
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
    return DcResult(size, frozenset(v for v in range(n) if spelled >> (n - 1 - v) & 1))


def is_ais(g: BlockGraph, w: int) -> bool:
    """Whether w lies in every maximum independent set, that is, whether
    avoiding w costs independence."""
    g._check_vertex(w)
    return _alpha_table(g).ais[w]


def is_v_ais(g: BlockGraph, v: int, w: int) -> bool:
    """Whether w lies in every maximum independent set containing v,
    that is, in every maximum independent set of G - N[v]: one alpha
    pass over g's own forest with N[v] left out."""
    g._check_vertex(w)
    g._check_vertex(v)
    nv = decompose(g).closed_neighborhood(v)
    if w in nv:
        raise WIsInClosedNeighborhoodError(f"w={w} lies in N[{v}]")
    return _alpha_pass(g, nv).ais[w]


@dataclass(frozen=True)
class ParamReport:
    """All structural parameters plus the bound window they induce."""

    n: int
    alpha: int
    alpha_min: int
    alpha_min_witness: int
    omega: int
    delta: int
    dc: int
    dc_set: frozenset
    lower_bound: int
    window: tuple
    hs_upper: int

    def to_json_dict(self):
        return {
            "n": self.n,
            "alpha": self.alpha,
            "alpha_min": self.alpha_min,
            "alpha_min_witness": self.alpha_min_witness,
            "omega": self.omega,
            "delta": self.delta,
            "dc": self.dc,
            "dc_set": sorted(self.dc_set),
            "lower_bound": self.lower_bound,
            "window": list(self.window),
            "hs_upper": self.hs_upper,
        }


def counting_lower_bound(n: int, amin: int, omega: int) -> int:
    """max(omega, ceil((n+1)/(alpha_min+1))), in exact integers."""
    return max(omega, -((n + 1) // -(amin + 1)))


def bounds_report(g: BlockGraph) -> ParamReport:
    """Fill every parameter field."""
    if g.n == 0:
        raise EmptyGraphError("bounds_report of the empty graph")
    am = alpha_min(g)
    omega = decompose(g).max_block_size()
    dc = dc_exact(g)
    lb = counting_lower_bound(g.n, am.value, omega)
    return ParamReport(
        n=g.n,
        alpha=alpha(g),
        alpha_min=am.value,
        alpha_min_witness=am.witness,
        omega=omega,
        delta=g.max_degree(),
        dc=dc.value,
        dc_set=dc.dc_set,
        lower_bound=lb,
        window=(lb, lb + 1),
        hs_upper=g.max_degree() + 1,
    )
