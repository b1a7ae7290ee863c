"""Flower-gadget block graphs built from bin-packing instances.

A packing instance (item sizes A, part count k, capacity B with
sum(A) = k*B) turns into a block graph made of flowers: flower j >= 1
is a_j + 1 disjoint K_k cliques joined to a hub y_j, flower 0 plays the
same role for the capacity B, and y_0 is joined to every other hub.
This module builds those graphs, colors the uniform ones equitably with
any k+2 <= t <= |V| colors, and colors every instance equitably with
n+2 colors via product-maximizing recoloring.

The uniform coloring deals the cliques one by one, each to the k colors
other than its hub's with the largest demand (units still needed plus
uncolored cliques under a hub of that color); no demand ever exceeds the
cliques left.  The tests check that bound at the start, by arithmetic,
on all 100,974 pairs with a, n <= 12, k <= 6 and k+2 <= t <= |V|.  At
t = 3 on (1, N, 1, N), graph built, it takes 13 / 28 ms at N = 2,500 /
5,000 (2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional, Tuple

from . import invariants
from .errors import (
    AlgorithmInvariantError,
    InstanceInvariantError,
    NotEquitableAtFixpointError,
    NotUniformConsistentError,
    TBelowThresholdError,
    require_int,
    require_ints,
    require_object,
)
from .graph import BlockGraph, check_vertex_count

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BinPackingInstance:
    """Items A to be split into `parts` groups each summing to `capacity`."""

    item_sizes: Tuple[int, ...]
    parts: int
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "item_sizes", tuple(self.item_sizes))

    def validate(self):
        a, k, b = self.item_sizes, self.parts, self.capacity
        if not a or k < 1 or b < 1:
            raise InstanceInvariantError("need items, parts >= 1, capacity >= 1")
        if any(x < 1 for x in a):
            raise InstanceInvariantError("item sizes must be positive")
        if any(x > b for x in a):
            raise InstanceInvariantError("item size exceeds capacity")
        if sum(a) != k * b:
            raise InstanceInvariantError(f"sum(A)={sum(a)} != k*B={k * b}")

    def to_json_dict(self):
        return {"A": list(self.item_sizes), "k": self.parts, "B": self.capacity}

    @classmethod
    def from_json_dict(cls, d):
        require_object(d, "instance", ("A", "k", "B"))
        return cls(
            require_ints(d["A"], "A"), require_int(d["k"], "k"), require_int(d["B"], "B")
        )


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map with colors drawn from 1..t."""

    color: dict
    t: int

    def class_sizes(self):
        sizes = [0] * self.t
        for c in self.color.values():
            sizes[c - 1] += 1
        return sizes

    def to_json_dict(self):
        # in insertion order: `cli` dumps every output with sorted keys
        return {
            "t": self.t,
            "colors": {str(v): c for v, c in self.color.items()},
            "class_sizes": self.class_sizes(),
        }


@dataclass(frozen=True)
class GlsGraph:
    """A flower graph plus the bookkeeping the coloring routines need."""

    graph: BlockGraph
    universal_vertices: Tuple[int, ...]
    cliques: tuple  # cliques[j] = tuple of k-vertex tuples of flower j
    instance: BinPackingInstance

    @property
    def n_items(self):
        return len(self.instance.item_sizes)


def build_gls(inst: BinPackingInstance, cross_check: bool = True) -> GlsGraph:
    """Construct the flower graph for a packing instance.

    The graph is built from its block list, which the construction
    knows: the 2-block {y_0, y_j} per item and the (k+1)-clique of each
    flower clique with its hub.  It is not validated or decomposed
    again; only graphs read from files are.  With cross_check, only the
    closed form alpha_min = n+1+kB is checked, against its recomputation:
    |V| = (k+1)(kB+n+1) and omega = k+1 hold by construction once
    sum(A) = kB, as the loop writes n+1 hubs and k(B+1+sum(a_j+1)) more.
    """
    inst.validate()
    a, k, b = inst.item_sizes, inst.parts, inst.capacity
    n = len(a)
    _check_flower_size(n, k, b)
    blocks = [frozenset((0, j)) for j in range(1, n + 1)]
    cliques = []
    nxt = n + 1
    for j in range(n + 1):
        count = (b if j == 0 else a[j - 1]) + 1
        mine = []
        for _ in range(count):
            members = tuple(range(nxt, nxt + k))
            nxt += k
            mine.append(members)
            blocks.append(frozenset((j,) + members))
        cliques.append(tuple(mine))
    g = BlockGraph._from_blocks(nxt, blocks)
    if cross_check:
        amin = invariants.alpha_min(g).value
        if amin != n + 1 + k * b:
            raise AlgorithmInvariantError(f"alpha_min={amin} != n+1+kB={n + 1 + k * b}")
    return GlsGraph(g, tuple(range(n + 1)), tuple(cliques), inst)


def _check_flower_size(n, k, b):
    """Bound |V| = (k+1)(kB+n+1) of the flower graph before any block exists."""
    check_vertex_count((k + 1) * (k * b + n + 1), "flower graph vertex count (k+1)(kB+n+1)")


def equitably_k1_colorable_uniform(a: int, n: int, k: int, B: int) -> bool:
    """Decide equitable (k+1)-colorability of the uniform flower graph.

    For uniform instances the packing is solvable exactly when a | B,
    and packing solvability is equivalent to (k+1)-colorability.
    """
    _check_uniform(a, n, k, B)
    return B % a == 0


def _check_uniform(a, n, k, B):
    if min(a, n, k, B) < 1:
        raise NotUniformConsistentError("parameters must be positive")
    if a * n != k * B:
        raise NotUniformConsistentError(f"a*n={a * n} != k*B={k * B}")
    if a > B:
        raise NotUniformConsistentError("item size exceeds capacity")


@lru_cache(maxsize=1)
def uniform_gls(a, n, k, B) -> GlsGraph:
    """The uniform flower graph for (a, n, k, B), built with its closed
    forms cross-checked.  Only the last instance is kept, since callers
    ask for one instance at a time (twice per `gls color-uniform`, and
    pair by pair in grid sweeps).  The result is shared by every caller
    that asks for the same parameters, so it must not be mutated.
    """
    _check_flower_size(n, k, B)  # before the n items exist
    return build_gls(BinPackingInstance((a,) * n, k, B))


@dataclass(frozen=True)
class CountMatrix:
    """Per-(color, flower) vertex counts; rows are colors, columns flowers.

    Each column holds only its nonzero cells, so the matrix has at most
    |V| cells whatever t is.
    """

    columns: tuple  # per flower, a dict color -> count of its nonzero cells, hub included
    a: int
    n: int
    k: int
    B: int
    t: int
    universal_colors: tuple  # color of the hub of each flower

    def row_sums(self):
        sums = [0] * self.t
        for col in self.columns:
            for c, count in col.items():
                sums[c - 1] += count
        return sums

    def col_sums(self):
        return [sum(col.values()) for col in self.columns]

    def caps(self):
        return [self.B + 1] + [self.a + 1] * self.n

    def flower_sizes(self):
        return [(self.B + 1) * self.k + 1] + [(self.a + 1) * self.k + 1] * self.n

    def violations(self, class_sizes):
        """All broken matrix invariants, as human-readable strings.

        Every column must be the tally of a proper coloring of its
        flower: the hub color appears exactly once (the hub itself),
        every other color at most cap times, and the column sums to the
        flower size.  A column over its cap is spelled out in full, over
        all t colors.
        """
        bad = []
        caps = self.caps()
        if self.row_sums() != list(class_sizes):
            bad.append(f"row sums {self.row_sums()} != class sizes {list(class_sizes)}")
        if self.col_sums() != self.flower_sizes():
            bad.append(f"column sums {self.col_sums()} != flower sizes {self.flower_sizes()}")
        for j, (col, uc) in enumerate(zip(self.columns, self.universal_colors)):
            if any(x > caps[j] for x in col.values()):
                dense = [col.get(c, 0) for c in range(1, self.t + 1)]
                bad.append(f"column {j} exceeds cap {caps[j]}: {dense}")
            if col.get(uc, 0) != 1:
                bad.append(f"column {j} hub color {uc} has count {col.get(uc, 0)} != 1")
        return bad

    def to_json_dict(self):
        return {
            "t": self.t,
            "a": self.a,
            "n": self.n,
            "k": self.k,
            "B": self.B,
            "columns": [[[c, col[c]] for c in sorted(col)] for col in self.columns],
            "universal_colors": list(self.universal_colors),
        }


def _equitable_class_sizes(total, t):
    q, r = divmod(total, t)
    return [q + 1] * r + [q] * (t - r)


def _deal(g: GlsGraph, uc, sizes) -> dict:
    """Color flower graph g clique by clique, with hub colors `uc` (one
    per flower) and class sizes `sizes` (by color 1..t).

    A color's demand is the units it still needs plus the uncolored
    cliques whose hub has its color.  In `g.cliques` order, each clique
    takes the k colors other than its hub's that still need a unit and
    have the largest demand, ties to the smaller color: Ryser's greedy
    for 0/1 matrices, each hub color a forced entry.  The colors sit on
    a heap keyed (-demand, color); only the hub color's demand drops
    without a push, so an entry popped with a stale key goes back.

    It is exact.  With R cliques left, the demands sum to (k+1)R and
    none exceeds R.  At a clique whose hub color h has demand >= 1, at
    most k other colors have demand R; each still needs a unit (at most
    R-1 cliques left have its hub color) and is taken, so the bound
    holds for R-1.  And h needs at most R-1 units, so the others need
    kR-(R-1) units: at least k of them need one.  The start bound is
    necessary, since a color's units go to distinct cliques under hubs
    of other colors; failing it, no count matrix exists.
    """
    k = g.instance.parts
    R = sum(map(len, g.cliques))
    need = [0, *sizes]  # by color; color 0 does not exist
    demand = list(need)
    for c, flower in zip(uc, g.cliques):
        need[c] -= 1
        demand[c] += len(flower) - 1
    if min(need) < 0 or max(demand) > R or sum(need) != k * R:
        raise AlgorithmInvariantError("no feasible count matrix exists")

    color = dict(zip(g.universal_vertices, uc))
    heap = [(-d, c) for c, d in enumerate(demand) if need[c]]
    heapq.heapify(heap)
    for hub, flower in zip(uc, g.cliques):
        for members in flower:
            demand[hub] -= 1
            taken = []
            hub_out = False
            while len(taken) < k:
                neg, c = heapq.heappop(heap)
                if c == hub:
                    hub_out = True
                elif -neg != demand[c]:
                    heapq.heappush(heap, (-demand[c], c))
                else:
                    taken.append(c)
            for v, c in zip(members, taken):
                color[v] = c
                need[c] -= 1
                demand[c] -= 1
                if need[c]:
                    heapq.heappush(heap, (-demand[c], c))
            if hub_out:
                heapq.heappush(heap, (-demand[hub], hub))
    return color


def color_uniform(a: int, n: int, k: int, B: int, t: int):
    """Equitable t-coloring of the uniform flower graph, k+2 <= t <= |V|.

    Spreads the hub colors evenly, colors the cliques by `_deal` to the
    equitable class sizes, tallies the count matrix (rows are colors,
    columns flowers) off that coloring and checks every matrix
    invariant.  The graph it colors comes from the shared cached builder
    `uniform_gls`.  Returns (CountMatrix, Coloring).
    """
    _check_uniform(a, n, k, B)
    if t < k + 2:
        raise TBelowThresholdError(f"t={t} < k+2={k + 2}")
    total = (k + 1) * (k * B + n + 1)
    if t > total:
        # refused before any of the t rows exists
        raise ValueError(f"t={t} exceeds the vertex count |V|={total}")

    gls = uniform_gls(a, n, k, B)
    sizes = _equitable_class_sizes(total, t)

    # hub colors: y_0 gets 1, the other hubs split equitably over 2..t
    uc = [1]
    for color, count in enumerate(_equitable_class_sizes(n, t - 1), start=2):
        uc += [color] * count

    color = _deal(gls, uc, sizes)
    columns = tuple(Counter(map(color.__getitem__, chain((hub,), *flower)))
                    for hub, flower in zip(gls.universal_vertices, gls.cliques))

    matrix = CountMatrix(columns, a, n, k, B, t, tuple(uc))
    bad = matrix.violations(sizes)
    if bad:
        raise AlgorithmInvariantError("; ".join(bad))
    return matrix, Coloring(color, t)


# -- equitable (n+2)-coloring by product-maximizing recoloring -----------


def color_nplus2(g: GlsGraph, stats: Optional[dict] = None) -> Coloring:
    """Equitable (n+2)-coloring of any flower graph.

    Works on the auxiliary graph with all hubs joined into a clique,
    starts from a greedy proper coloring, and commits only recolorings
    that strictly increase the product of class sizes.  Two moves
    recolor a simplicial vertex into a class missing from its clique:
    the generic move into a class at least two smaller than its own, and
    the slide into a class one smaller, which leaves the product as it
    is and is kept only if a generic move then commits.  On all 911
    instances with k <= 4, B <= 8, n <= 6, from greedy and seeded random
    starts, only k = 1 (flowers of pendant edges) ever needs the slide.
    Any gap between these moves and the recoloring argument surfaces as
    NotEquitableAtFixpointError.  `stats`, if given, receives the
    `products` after each commit, the `moves` count and `moves_by_kind`.
    """
    return _recolor_to_equitable(g, _greedy_start(g), stats)


def _greedy_start(g: GlsGraph) -> dict:
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


def _recolor_to_equitable(g: GlsGraph, col: dict, stats: Optional[dict] = None) -> Coloring:
    """Run the two moves of `color_nplus2` from the coloring `col` (vertex
    -> color in 1..n+2, updated in place), which must be proper on the
    auxiliary graph and leave no class empty."""
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
    log.debug("fixpoint class sizes %s (window %d)", sorted(live), max(live) - min(live))
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

