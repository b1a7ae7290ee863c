"""Flower-gadget block graphs built from bin-packing instances.

A packing instance (item sizes A, part count k, capacity B with
sum(A) = k*B) turns into a block graph made of flowers: flower j >= 1
is a_j + 1 disjoint K_k cliques joined to a hub y_j, flower 0 plays the
same role for the capacity B, and y_0 is joined to every other hub.
This module builds those graphs, colors the uniform ones equitably with
any k+2 <= t <= |V| colors via a count-matrix construction, and colors
every instance equitably with n+2 colors via product-maximizing
recoloring.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from . import invariants
from .errors import (
    AlgorithmInvariantError,
    InstanceInvariantError,
    NotEquitableAtFixpointError,
    NotUniformConsistentError,
    TBelowThresholdError,
    UnrealizableError,
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

        Every column must be realizable inside its flower: the hub
        color appears exactly once (the hub itself), every other color
        at most cap times, and the column sums to the flower size.
        Together with the row sums these are exactly the conditions the
        flower realization needs.  A column over its cap is spelled out
        in full, over all t colors.
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


def _transport_fill(sizes, caps, colsize, uc):
    """Deterministic transportation fill of the count matrix.

    Rows are colors 1..t with totals `sizes`, columns are flowers with
    totals `colsize`; each column comes back as a dict color -> count of
    its nonzero cells.  The hub cell of column x (color uc[x]) is pinned
    to 1; every other cell holds at most caps[x].  A greedy prefill then
    goes column by column and gives the colors with the largest
    remaining need as many units as the cap and the column total allow:
    they come off a heap keyed (-need, color), and go back on it once the
    column is done, so a column costs about its nonzero cells.
    Augmenting paths repair whatever the prefill leaves unmet; they run
    on the matrix itself: a forward step from color i to column x has
    room while C[x][i] < caps[x], a backward step from column x to color
    j takes back units from a nonzero cell, visited in ascending color.
    They reach a full matrix from any partial fill that keeps the caps
    and the hub pins, so the prefill only saves search.  Any matrix that
    meets all totals realizes to a proper equitable coloring.
    """
    t, cols = len(sizes), len(caps)
    C = [{c: 1} for c in uc]
    need_row = [0, *sizes]  # by color; color 0 does not exist
    need_col = [size - 1 for size in colsize]
    for c in uc:
        need_row[c] -= 1
    if min(need_row) < 0:
        raise AlgorithmInvariantError("hub placements alone overfill a class")

    heap = [(-need, c) for c, need in enumerate(need_row) if need > 0]
    heapq.heapify(heap)
    for x in range(cols):
        col, cap, hub, left = C[x], caps[x], uc[x], need_col[x]
        popped = []
        while left and heap:
            neg_need, c = heapq.heappop(heap)
            popped.append(c)
            if c != hub:
                units = min(-neg_need, cap, left)
                col[c] = units
                need_row[c] -= units
                left -= units
        need_col[x] = left
        for c in popped:
            if need_row[c]:
                heapq.heappush(heap, (-need_row[c], c))

    short = sorted(c for _, c in heap)  # the colors the prefill leaves short
    while short:
        row_from = dict.fromkeys(short)
        col_from = {}
        queue = deque(short)
        end = None
        while queue and end is None:
            i = queue.popleft()
            for x in range(cols):
                if x in col_from or uc[x] == i or C[x].get(i, 0) >= caps[x]:
                    continue
                col_from[x] = i
                if need_col[x] > 0:
                    end = x
                    break
                if len(row_from) == t:
                    continue  # every color is reached already
                for j in sorted(C[x]):
                    if j not in row_from and j != uc[x]:
                        row_from[j] = x
                        queue.append(j)
        if end is None:
            raise AlgorithmInvariantError("no feasible count matrix exists")

        steps = []  # (color, column, +1 forward / -1 backward)
        push = need_col[end]
        x = end
        while True:
            i = col_from[x]
            steps.append((i, x, 1))
            push = min(push, caps[x] - C[x].get(i, 0))
            x = row_from[i]
            if x is None:
                push = min(push, need_row[i])
                break
            steps.append((i, x, -1))
            push = min(push, C[x][i])
        for r, x, sign in steps:
            cell = C[x].get(r, 0) + sign * push
            if cell:
                C[x][r] = cell
            else:
                del C[x][r]
        need_row[i] -= push  # i is the source color the walk ended at
        need_col[end] -= push
        if not need_row[i]:
            short.remove(i)
    return C


def color_uniform(a: int, n: int, k: int, B: int, t: int):
    """Equitable t-coloring of the uniform flower graph, k+2 <= t <= |V|.

    Spreads the hub colors evenly, fills the count matrix (rows are
    colors, columns flowers) with one transportation fill that meets the
    equitable class sizes and the per-flower caps, checks every matrix
    invariant, then realizes it flower by flower.  The graph it colors
    comes from the shared cached builder `uniform_gls`.  Returns
    (CountMatrix, Coloring).
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

    caps = [B + 1] + [a + 1] * n
    colsize = [(B + 1) * k + 1] + [(a + 1) * k + 1] * n

    # hub colors: y_0 gets 1, the other hubs split equitably over 2..t
    uc = [1]
    for color, count in enumerate(_equitable_class_sizes(n, t - 1), start=2):
        uc += [color] * count

    columns = _transport_fill(sizes, caps, colsize, uc)

    matrix = CountMatrix(tuple(columns), a, n, k, B, t, tuple(uc))
    bad = matrix.violations(sizes)
    if bad:
        raise AlgorithmInvariantError("; ".join(bad))

    coloring = _realize(gls, matrix)
    return matrix, coloring


def realize_flower(counts, a: int, k: int, universal_color: int):
    """Turn one flower's per-color counts into per-clique color sets.

    `counts` maps color -> vertex count inside the flower, hub unit
    included; the flower has a+1 cliques whose non-hub part has k
    vertices.  Greedy largest-remaining-first, ties to the smaller
    color, which never runs short once the four input checks pass.

    The live colors sit in buckets by remaining count: one min-heap of
    colors per count that some color has, the buckets in ascending
    count.  A clique takes whole buckets from the top and the smallest
    colors of the next; a whole bucket steps down one count as it is,
    and a bucket joins its neighbor when their counts meet, which moves
    at most k colors.  So a flower costs about its vertex count, and
    only each clique's own k colors are put in order.
    """
    rem = {c: int(v) for c, v in dict(counts).items() if v > 0}
    if rem.get(universal_color, 0) < 1:
        raise UnrealizableError("hub color absent from its own flower")
    rem[universal_color] -= 1
    if rem[universal_color] != 0:
        raise UnrealizableError("hub color reused inside its own flower")
    del rem[universal_color]
    if sum(rem.values()) != k * (a + 1):
        raise UnrealizableError(
            f"non-hub counts sum {sum(rem.values())} != k(a+1)={k * (a + 1)}"
        )
    if any(v > a + 1 for v in rem.values()):
        raise UnrealizableError("some color exceeds the per-flower cap a+1")
    by_count = {}
    for c in sorted(rem):
        by_count.setdefault(rem[c], []).append(c)  # ascending, so already a heap
    buckets = [[v, by_count[v]] for v in sorted(by_count)]
    out = []
    for _ in range(a + 1):
        chosen = []
        i = len(buckets)
        while len(chosen) < k:
            i -= 1
            bucket = buckets[i]
            count, colors = bucket
            want = k - len(chosen)
            if len(colors) > want:
                # its `want` smallest colors step down; the rest meets the
                # bucket taken whole above it
                moved = [heapq.heappop(colors) for _ in range(want)]
                chosen += moved
                buckets.insert(i, [count - 1, moved])
                _join_buckets(buckets, i + 1)
            else:
                chosen += colors
                bucket[0] = count - 1
        _join_buckets(buckets, i - 1)
        if count == 1:  # the lowest bucket ran out
            del buckets[0]
        chosen.sort()
        out.append(tuple(chosen))
    return out


def _join_buckets(buckets, j):
    """Merge buckets[j + 1] into buckets[j] when both hold the same count,
    pushing the colors of the smaller heap into the larger."""
    if 0 <= j < len(buckets) - 1 and buckets[j][0] == buckets[j + 1][0]:
        big, small = buckets[j][1], buckets.pop(j + 1)[1]
        if len(big) < len(small):
            big, small = small, big
            buckets[j][1] = big
        for c in small:
            heapq.heappush(big, c)


def _realize(gls: GlsGraph, matrix: CountMatrix) -> Coloring:
    color = {}
    for j, (col, uc) in enumerate(zip(matrix.columns, matrix.universal_colors)):
        color[gls.universal_vertices[j]] = uc
        per_clique = realize_flower(col, matrix.B if j == 0 else matrix.a, matrix.k, uc)
        for members, chosen in zip(gls.cliques[j], per_clique):
            color.update(zip(members, chosen))
    return Coloring(color, matrix.t)


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

