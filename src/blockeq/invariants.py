"""Structural parameters of block graphs.

Every parameter comes from linear passes over the block-cut forest of
`graph.decompose`, walked over its hubs (the cut vertices) and blocks
only (`_rooted_forest`): the simplicial vertices of a block all get
the same values, so the walk never steps to one and each block lists
its own.  A post-order and a rerooting pass give the alpha table
(cached on the graph), from which `alpha`, `alpha_with`, `alpha_min`
and the AIS test are read off; it counts each block's simplicial
vertices.  One more post-order pass over the same walk gives the
distance to cluster; it folds their costs into their block's totals.
The v-AIS test is the same alpha pass over the host graph's forest
with N[v] left out, made per query; no residual graph G - N[v] is
built.  The deliberately naive counterparts live in `oracle` so the
two code paths stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyGraphError, WIsInClosedNeighborhoodError
from .graph import BlockGraph, decompose


def _rooted_forest(g: BlockGraph, left_out=(), anchors=()):
    """The block-cut forest of G - left_out over its hubs and blocks.

    The hubs are g's kept cut vertices plus the kept `anchors`; every
    other kept vertex is simplicial and lies in one block.  A BFS from
    each hub not yet reached enters each block once, from the hub it
    hangs from, and steps only to the block's other hubs: (order, up,
    top, simp, loose) lists the hubs breadth first, the block up[h]
    through which hub h hangs from its parent hub (-1 at a root; a
    hub's other blocks are its child blocks), the hub top[b] from which
    block b hangs, and the kept simplicial members simp[b] of each
    entered block.  A block cut down to the kept vertices is still a
    clique, so this is g's own forest restricted.  The kept vertices of
    a block that no hub reaches form a component of their own, a clique
    with no hub; `loose` lists them per such block."""
    deco = decompose(g)
    blocks, vertex_blocks = deco.blocks, deco._vertex_blocks
    hubs = skip = deco.cut_vertices
    if left_out or anchors:
        gone = set(left_out)
        hubs = hubs.union(anchors).difference(gone)
        skip = hubs.union(gone)
    nb = len(blocks)
    up = [-1] * g.n
    top = [-1] * nb
    simp = [()] * nb
    order = []
    for r in hubs:
        if up[r] != -1:
            continue
        # the loop visits what it appends: one component, breadth first
        comp = [r]
        for v in comp:
            for b in vertex_blocks[v]:
                if b == up[v]:
                    continue
                top[b] = v
                block = blocks[b]
                simp[b] = rest = block - skip
                if len(rest) + 1 < len(block):  # some member besides v is a hub or left out
                    for u in block & hubs:
                        if u != v:
                            up[u] = b
                            comp.append(u)
        order += comp
    loose = []
    if -1 in top:  # some block no hub reaches
        loose = [kept for b, t in enumerate(top) if t == -1 and (kept := blocks[b] - skip)]
    return order, up, top, simp, loose


class _AlphaTable(NamedTuple):
    alpha: int
    alpha_with: list  # largest independent set containing v
    ais: list  # whether v lies in every maximum independent set
    exc: list  # at a hub h, the largest independent set of h's component avoiding h


def _alpha_table(g: BlockGraph) -> _AlphaTable:
    """The alpha table of g, computed once and cached on the graph."""
    if g._alpha is None:
        g._alpha = _alpha_pass(g)
    return g._alpha


def _alpha_pass(g: BlockGraph, left_out=(), bonus=()) -> _AlphaTable:
    """The alpha table of G - left_out, indexed by g's vertex ids; the
    entries of left-out vertices mean nothing, and `exc` means something
    only at the hubs of `_rooted_forest`.

    `bonus` lists (x, d_inc, d_exc) triples, each a structure hung from
    the kept vertex x by one vertex and met by no other: it adds d_inc
    to the largest set within x's subtree through x and d_exc to the
    largest avoiding x.  A plain clique adds (0, 1): through x it gives
    nothing, avoiding x one fresh vertex.  A 2-block {x, w2} with a
    clique hung at w2 adds (1, 1): w2 through x, w2 or a clique vertex
    avoiding x.  Each x is a hub of the walk.  The table is then the
    grown graph's on g's vertices, from one pass over g's own forest.

    An independent set takes at most one vertex per block.  inc[h] and
    exc[h] are the largest sets through and avoiding hub h, first
    within h's subtree; per block the post-order pass keeps the sum of
    its child hubs' exc and the two largest gains inc - exc among its
    children.  A gain is at most 1, since a set through h without h
    avoids h, and a simplicial child's is exactly 1 (inc 1, exc 0), so
    a block's simplicial members are counted, never visited: one makes
    its best gain 1, two make its second 1 too.  The rerooting pass
    adds to each child hub u what lies above its block: the parent hub
    with the block cut off and u's siblings, where avoiding u frees the
    best gain left in the block.

    A simplicial vertex lies in some maximum set of its component (swap
    it for the set's vertex in its block), so it has alpha_with = alpha.
    It lies in every one only when it is its block's lone kept
    simplicial vertex and neither the rest above the block nor a child
    hub gains anything from the block being free of it, or when it is
    alone in a component with no hub.
    """
    order, up, top, simp, loose = _rooted_forest(g, left_out, [x for x, _, _ in bonus])
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
    lone = []  # blocks with one kept simplicial member
    for v in reversed(order):
        b = up[v]
        i, e = inc[v], exc[v]
        for c in vertex_blocks[v]:
            if c != b:
                k = len(simp[c])
                if k:
                    # the simplicial members' gains of 1 top the block's
                    second[c] = 1 if k > 1 else best[c]
                    best[c] = 1
                    holder[c] = -1
                    if k == 1:
                        lone.append(c)
                i += bsum[c]
                e += bsum[c] + best[c]
        inc[v], exc[v] = i, e
        if b >= 0:
            bsum[b] += e
            gain = i - e
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
    # max(inc, exc) at a root is the alpha of its component
    total = sum(max(inc[v], exc[v]) for v in order if up[v] < 0) + len(loose)
    alpha_with = [total] * g.n
    ais = [False] * g.n
    for v in order:
        i, e = inc[v], exc[v]
        if e < i:
            ais[v] = True
        elif e > i:
            alpha_with[v] = total - e + i
    for b in lone:
        p = top[b]
        rest_exc = exc[p] - bsum[b] - best[b]
        if inc[p] - bsum[b] - rest_exc < 1 and second[b] < 1:
            (s,) = simp[b]
            ais[s] = True
    for kept in loose:
        if len(kept) == 1:
            (s,) = kept
            ais[s] = True
    return _AlphaTable(total, alpha_with, ais, exc)


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
    surviving neighbors in at most one of its blocks.  Per hub v of
    `_rooted_forest` the post-order pass keeps the cheapest subtree
    with v deleted (drop), surviving with no survivor in its child
    blocks (alone), and surviving with survivors in at most one child
    block (joined); a survivor that shares its parent block with
    another survivor must be alone.  A simplicial vertex has no child
    block, so each block folds its simplicial members in as it is read.
    Deleting v costs 2^n - 2^(n-1-v), so distinct sets cost
    differently, the cheapest set is a smallest one and, among those,
    the lexicographically first, and its low n bits spell it out.
    """
    order, up, top, simp, _ = _rooted_forest(g)
    vertex_blocks = decompose(g)._vertex_blocks
    n, nb = g.n, len(top)
    full = 1 << n
    # per block, over its children: all deleted; survivors all alone;
    # change when one child survives joined and the others are deleted
    closed = [0] * nb
    opened = [0] * nb
    lone = [0] * nb
    total = 0
    for v in reversed(order):
        drop = full - (1 << (n - 1 - v))
        alone = joined = 0
        b = up[v]
        for c in vertex_blocks[v]:
            if c != b:
                # a simplicial child is deleted or survives alone at no
                # cost: making it the one joined child never beats every
                # child alone, so it adds to `closed` only
                shut = closed[c]
                for s in simp[c]:
                    shut += full - (1 << (n - 1 - s))
                drop += min(opened[c], shut + lone[c])
                alone += shut
                joined = min(joined, opened[c] - shut)
        joined += alone
        if b < 0:
            total += min(drop, joined)
        else:
            closed[b] += drop
            opened[b] += min(drop, alone)
            lone[b] = min(lone[b], joined - drop)
    # a component with no cut vertex is one clique, and deletes nothing
    size = -(-total >> n)
    spelled = (size << n) - total
    dc_set = []
    while spelled:
        bit = spelled.bit_length() - 1
        dc_set.append(n - 1 - bit)
        spelled ^= 1 << bit
    return DcResult(size, frozenset(dc_set))


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
