"""Flower-gadget block graphs built from bin-packing instances.

A packing instance (item sizes A, part count k, capacity B with
sum(A) = k*B) turns into a block graph made of flowers: flower j >= 1
is a_j + 1 disjoint K_k cliques joined to a hub y_j, flower 0 plays the
same role for the capacity B, and y_0 is joined to every other hub.
This module builds those graphs, colors the uniform ones equitably with
any t >= k+2 colors via a count-matrix construction, and colors every
instance equitably with n+2 colors via product-maximizing recoloring.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

from . import invariants
from .errors import (
    AlgorithmInvariantError,
    CycleFoundError,
    InstanceInvariantError,
    NotEquitableAtFixpointError,
    NotUniformConsistentError,
    TBelowThresholdError,
    UnrealizableError,
    require_int,
    require_ints,
)
from .graph import BlockGraph, decompose, from_edge_list

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
        return {
            "t": self.t,
            "colors": {str(v): c for v, c in sorted(self.color.items())},
            "class_sizes": self.class_sizes(),
        }


@dataclass(frozen=True)
class GlsGraph:
    """A flower graph plus the bookkeeping the coloring routines need."""

    graph: BlockGraph
    universal_vertices: Tuple[int, ...]
    flower_of: dict
    cliques: tuple  # cliques[j] = tuple of k-vertex tuples of flower j
    instance: BinPackingInstance

    @property
    def n_items(self):
        return len(self.instance.item_sizes)

    @property
    def part_count(self):
        return self.instance.parts


def build_gls(inst: BinPackingInstance, cross_check: bool = True) -> GlsGraph:
    """Construct the flower graph for a packing instance.

    Cross-checks the closed forms |V| = (k+1)(kB+n+1), omega = k+1 and
    alpha_min = n+1+kB against structural recomputation.
    """
    inst.validate()
    a, k, b = inst.item_sizes, inst.parts, inst.capacity
    n = len(a)
    edges = [(0, j) for j in range(1, n + 1)]
    flower_of = {j: j for j in range(n + 1)}
    cliques = []
    nxt = n + 1
    for j in range(n + 1):
        count = (b if j == 0 else a[j - 1]) + 1
        mine = []
        for _ in range(count):
            members = tuple(range(nxt, nxt + k))
            nxt += k
            mine.append(members)
            for v in members:
                flower_of[v] = j
                edges.append((j, v))
            edges.extend(
                (members[i], members[jj])
                for i in range(k)
                for jj in range(i + 1, k)
            )
        cliques.append(tuple(mine))
    g = from_edge_list(nxt, edges)

    expected_n = (k + 1) * (k * b + n + 1)
    if g.n != expected_n:
        raise AlgorithmInvariantError(f"|V|={g.n} != closed form {expected_n}")
    if cross_check:
        omega = decompose(g).max_block_size()
        if omega != k + 1:
            raise AlgorithmInvariantError(f"omega={omega} != k+1={k + 1}")
        amin = invariants.alpha_min(g).value
        if amin != n + 1 + k * b:
            raise AlgorithmInvariantError(f"alpha_min={amin} != n+1+kB={n + 1 + k * b}")
    return GlsGraph(g, tuple(range(n + 1)), flower_of, tuple(cliques), inst)


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


@lru_cache(maxsize=64)
def uniform_gls(a, n, k, B) -> GlsGraph:
    """The uniform flower graph for (a, n, k, B), built with its closed
    forms cross-checked and cached for the last 64 parameter sets.

    The result is shared by every caller that asks for the same
    parameters, so it must not be mutated.
    """
    return build_gls(BinPackingInstance((a,) * n, k, B))


@dataclass(frozen=True)
class CountMatrix:
    """Per-(color, flower) vertex counts; rows are colors, columns flowers."""

    entries: tuple  # t rows x (n+1) columns
    a: int
    n: int
    k: int
    B: int
    t: int
    universal_colors: tuple  # color of the hub of each flower

    def entry(self, color, flower):
        return self.entries[color - 1][flower]

    def row_sums(self):
        return [sum(row) for row in self.entries]

    def col_sums(self):
        return [sum(row[j] for row in self.entries) for j in range(self.n + 1)]

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
        flower realization needs.
        """
        bad = []
        caps = self.caps()
        if self.row_sums() != list(class_sizes):
            bad.append(f"row sums {self.row_sums()} != class sizes {list(class_sizes)}")
        if self.col_sums() != self.flower_sizes():
            bad.append(f"column sums {self.col_sums()} != flower sizes {self.flower_sizes()}")
        for j in range(self.n + 1):
            col = [row[j] for row in self.entries]
            if any(x > caps[j] for x in col):
                bad.append(f"column {j} exceeds cap {caps[j]}: {col}")
            uc = self.universal_colors[j]
            if col[uc - 1] != 1:
                bad.append(f"column {j} hub color {uc} has count {col[uc - 1]} != 1")
        return bad

    def to_json_dict(self):
        return {
            "t": self.t,
            "a": self.a,
            "n": self.n,
            "k": self.k,
            "B": self.B,
            "entries": [list(r) for r in self.entries],
            "universal_colors": list(self.universal_colors),
        }


def _equitable_class_sizes(total, t):
    q, r = divmod(total, t)
    return [q + 1] * r + [q] * (t - r)


def _transport_fill(sizes, caps, colsize, uc):
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


def color_uniform(a: int, n: int, k: int, B: int, t: int):
    """Equitable t-coloring of the uniform flower graph, t >= k+2.

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

    gls = uniform_gls(a, n, k, B)
    total = gls.graph.n
    sizes = _equitable_class_sizes(total, t)

    cols = n + 1
    caps = [B + 1] + [a + 1] * n
    colsize = [(B + 1) * k + 1] + [(a + 1) * k + 1] * n

    # hub colors: y_0 gets 1, the rest take 2..t with ceil quotas
    uc = [0] * cols
    uc[0] = 1
    j = 1
    for ci, color in enumerate(range(2, t + 1)):
        quota = max(0, -((n - ci) // -(t - 1)))
        for _ in range(quota):
            if j > n:
                break
            uc[j] = color
            j += 1
    if j != n + 1:
        raise AlgorithmInvariantError("hub quotas did not cover all flowers")

    C = _transport_fill(sizes, caps, colsize, uc)

    matrix = CountMatrix(tuple(tuple(row) for row in C), a, n, k, B, t, tuple(uc))
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
    color.
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
    out = []
    for _ in range(a + 1):
        live = sorted((c for c, v in rem.items() if v > 0), key=lambda c: (-rem[c], c))
        if len(live) < k:
            raise UnrealizableError("fewer than k colors left for a clique")
        chosen = sorted(live[:k])
        for c in chosen:
            rem[c] -= 1
        out.append(tuple(chosen))
    if any(v for v in rem.values()):
        raise UnrealizableError("counts left over after all cliques")
    return out


def _realize(gls: GlsGraph, matrix: CountMatrix) -> Coloring:
    color = {}
    for j in range(matrix.n + 1):
        uc = matrix.universal_colors[j]
        color[gls.universal_vertices[j]] = uc
        counts = {c: matrix.entry(c, j) for c in range(1, matrix.t + 1)}
        per_clique = realize_flower(
            counts, matrix.B if j == 0 else matrix.a, matrix.k, uc
        )
        for members, chosen in zip(gls.cliques[j], per_clique):
            for v, c in zip(members, chosen):
                color[v] = c
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
    each vertex into its least-loaded free class, which leaves no class
    empty, so the class-size product starts positive."""
    t = g.n_items + 2
    hubs = g.universal_vertices
    adj = [set(g.graph.neighbors(v)) for v in range(g.graph.n)]
    for u in hubs:
        adj[u].update(w for w in hubs if w != u)
    col = {}
    sizes = [0] * (t + 1)
    for v in sorted(range(g.graph.n), key=lambda u: (-len(adj[u]), u)):
        used = {col[w] for w in adj[v] if w in col}
        free = [c for c in range(1, t + 1) if c not in used]
        if not free:
            raise AlgorithmInvariantError("greedy start needed more than n+2 colors")
        c = min(free, key=lambda c: (sizes[c], c))
        col[v] = c
        sizes[c] += 1
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


class ComponentKind(Enum):
    ISOLATED_VERTEX = "isolated_vertex"
    ISOLATED_EDGE = "isolated_edge"
    STAR = "star"
    NON_STAR_TREE = "non_star_tree"


def alternating_components(g: BlockGraph, coloring: Coloring, i: int, j: int):
    """Classify the components induced by two color classes.

    In a properly colored block graph these are always trees; a cycle
    would mean the coloring is broken, and raises.
    """
    if i == j:
        raise ValueError("need two distinct colors")
    sub, id_map = g.induced_subgraph(v for v, c in coloring.color.items() if c in (i, j))
    host = sorted(id_map)
    comps = []
    for comp in sub.connected_components():
        members = frozenset(host[u] for u in comp)
        if sum(sub.degree(u) for u in comp) // 2 != len(comp) - 1:
            raise CycleFoundError(f"classes {i},{j} induce a cycle on {sorted(members)}")
        if len(comp) == 1:
            kind = ComponentKind.ISOLATED_VERTEX
        elif len(comp) == 2:
            kind = ComponentKind.ISOLATED_EDGE
        else:
            center_like = sum(1 for u in comp if sub.degree(u) > 1)
            kind = ComponentKind.STAR if center_like == 1 else ComponentKind.NON_STAR_TREE
        comps.append((members, kind))
    return comps
