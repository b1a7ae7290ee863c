"""Validated block-graph representation and structural decomposition.

A block graph is a simple undirected graph in which every maximal
2-connected subgraph (block) is a clique.  Vertices are dense ids
0..n-1.  Graphs are immutable after construction; every operation here
is a pure function, so instances can be shared freely.

There are two ways to build a graph.  `BlockGraph(n, edges)` (and
`from_edge_list`, which also checks the input types) validates: it runs
Hopcroft-Tarjan on the edges, checks that every block is a clique, and
caches the decomposition; only graphs read from files are built this
way.  `BlockGraph._from_blocks(n, blocks)` trusts a block list that is
already known, caches the decomposition read off it, and runs no
search; every graph the library builds itself outside the brute-force
oracle is built this way: induced subgraphs, the growth operations'
clique attachments, the generator's graphs, the flower graphs and the
named families.  Such a graph derives its adjacency from the blocks on
the first read of `_adj` and keeps it.  `neighbors(v)` and
`closed_neighborhood(v)` read that adjacency; the kernels take N[v] off
the decomposition instead, so they never build it.  Besides these a
graph caches only its alpha table (`invariants`), not its clique levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Optional

from .errors import (
    DisconnectedError,
    EdgelessError,
    NotABlockGraphError,
    SelfLoopError,
    UnknownVertexError,
)

# The largest vertex count of a graph read from a file or built from
# input, as the `maximum` of `n` in schemas/graph.schema.json; checked
# before any adjacency exists.
MAX_VERTICES = 100_000


def check_vertex_count(n, what="vertex count n"):
    """Raise ValueError when the vertex count `n` exceeds MAX_VERTICES."""
    if type(n) is int and n > MAX_VERTICES:
        raise ValueError(f"{what} = {n} exceeds the maximum {MAX_VERTICES}")


def _biconnected_components(adj):
    """Blocks of the graph with adjacency sets `adj`, as (vertex frozenset,
    edge count) pairs in no particular order.

    Iterative Hopcroft-Tarjan on an edge stack, which holds each edge
    once, so a block's edges are the ones popped with it; an isolated
    vertex yields a singleton block with no edge.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    blocks = []
    timer = 0
    for root in range(len(adj)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        estack = []
        # frame: [vertex, parent, neighbor iterator]
        frames = [[root, -1, iter(adj[root])]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            parent = frame[1]
            moved = False
            for w in frame[2]:
                if w == parent:
                    continue
                if disc[w] < 0:
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, v, iter(adj[w])])
                    moved = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if moved:
                continue
            frames.pop()
            if parent == -1:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= disc[parent]:
                comp = set()
                edges = 0
                while True:
                    e = estack.pop()
                    edges += 1
                    comp.add(e[0])
                    comp.add(e[1])
                    if e == (parent, v):
                        break
                blocks.append((frozenset(comp), edges))
        if estack:
            raise AssertionError("edge stack not drained")
        if not adj[root]:
            blocks.append((frozenset((root,)), 0))
    return blocks


class BlockGraph:
    """Immutable simple graph whose blocks are all cliques."""

    __slots__ = ("n", "_adjacency", "labels", "_decomp", "_alpha")

    def __init__(self, n, edges, labels=None, _validated=False):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise UnknownVertexError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._fill(n, tuple(map(frozenset, adj)), labels, None)
        if not _validated:
            self._validate()

    @classmethod
    def _from_blocks(cls, n, blocks, labels=None):
        """The graph on 0..n-1 whose blocks are `blocks`, trusted as given.

        Every vertex lies in some block (an isolated one in a singleton
        block), and two blocks share at most one vertex.  The
        decomposition is read off the block list, so the graph is neither
        validated nor decomposed again, and no adjacency is built: it is
        derived from the blocks on its first read (`_adj`).  Blocks that
        miss a vertex or name one outside 0..n-1 raise AssertionError.
        """
        deco = _decomposition(blocks)
        vertex_blocks = deco._vertex_blocks
        if len(vertex_blocks) != n or n and not 0 <= min(vertex_blocks) <= max(vertex_blocks) < n:
            odd = sorted(vertex_blocks.keys() ^ range(n))
            raise AssertionError(f"blocks do not cover exactly 0..{n - 1}: ids {odd}")
        g = cls.__new__(cls)
        g._fill(n, None, labels, deco)
        return g

    @property
    def _adj(self):
        """The neighbor frozensets by vertex id.  A graph built from its
        blocks derives them on this first read, and keeps them: a
        vertex's neighbors are its one block without it, or the union of
        its blocks without it."""
        adj = self._adjacency
        if adj is None:
            # `BlockDecomposition.closed_neighborhood` inline, a third faster
            blocks = self._decomp.blocks
            adj = [None] * self.n
            for u, ix in self._decomp._vertex_blocks.items():
                if len(ix) == 1:
                    adj[u] = blocks[ix[0]] - {u}
                else:
                    adj[u] = frozenset().union(*[blocks[i] for i in ix]) - {u}
            adj = self._adjacency = tuple(adj)
        return adj

    def _fill(self, n, adj, labels, decomp):
        self.n = n
        self._adjacency = adj
        self.labels = tuple(labels) if labels is not None else None
        self._decomp = decomp
        self._alpha = None

    def _validate(self):
        found = _biconnected_components(self._adj)
        # the decomposition stays cached for the graph's later use
        self._decomp = _decomposition([b for b, _ in found])
        # a block is a clique exactly when it holds every pair of its members
        if all(m == len(b) * (len(b) - 1) // 2 for b, m in found):
            return
        # the witness: the first missing pair, in sorted order, of the first block
        adj = self._adj
        for b in self._decomp.blocks:
            bs = sorted(b)
            for i, u in enumerate(bs):
                for v in bs[i + 1:]:
                    if v not in adj[u]:
                        raise NotABlockGraphError((u, v))

    # -- basic accessors ------------------------------------------------

    def neighbors(self, v):
        self._check_vertex(v)
        return self._adj[v]

    def closed_neighborhood(self, v):
        self._check_vertex(v)
        return self._adj[v] | {v}

    def degree(self, v):
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self):
        return max((len(s) for s in self._adj), default=0)

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        adj = self._adj
        return [(u, v) for u in range(self.n) for v in sorted(adj[u]) if u < v]

    def edge_count(self):
        return sum(len(s) for s in self._adj) // 2

    def adjacent(self, u, v):
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise UnknownVertexError(f"vertex {v} outside 0..{self.n - 1}")

    def is_connected(self):
        return decompose(self).is_connected()

    # -- induced-subgraph surgery ----------------------------------------

    def induced_subgraph(self, keep):
        """Induced subgraph on `keep`, re-densified.

        Returns (graph, id_map) where id_map sends old ids to new ones.
        The blocks of the result are the blocks of this graph cut down to
        `keep`, where at least two vertices remain, plus a singleton
        block per kept vertex left isolated; only the blocks of kept
        vertices are visited.  The result may be disconnected.
        """
        kept = sorted(set(keep))
        if kept and (kept[0] < 0 or kept[-1] >= self.n):
            self._check_vertex(next(v for v in kept if not 0 <= v < self.n))
        id_map = {old: new for new, old in enumerate(kept)}
        deco = decompose(self)
        vertex_blocks = deco._vertex_blocks
        blocks = []
        for qi in {qi for v in kept for qi in vertex_blocks[v]}:
            part = [id_map[u] for u in deco.blocks[qi] if u in id_map]
            if len(part) > 1:
                blocks.append(frozenset(part))
        covered = set().union(*blocks)
        blocks += [frozenset((u,)) for u in range(len(kept)) if u not in covered]
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in kept]
        return BlockGraph._from_blocks(len(kept), blocks, labels), id_map

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BlockGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"BlockGraph(n={self.n}, m={self.edge_count()})"


def from_edge_list(n, edges, labels=None):
    """Build and validate a BlockGraph; duplicate edges collapse.

    Edges must be a list (or tuple) of 2-element tuples or lists, the
    vertex count and every vertex id must be ints (bool refused), the
    count must be nonnegative, and labels, if given, a list (or tuple)
    with one per vertex.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"edges must be a list of vertex pairs, got {edges!r}")
    if labels is not None:
        if not isinstance(labels, (list, tuple)):
            raise ValueError(f"labels must be a list, got {labels!r}")
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise ValueError(f"edge {e!r} is not a pair of vertex ids")
        if type(e[0]) is not int or type(e[1]) is not int:
            raise UnknownVertexError(f"edge {e!r} has a vertex id that is not an integer")
    return BlockGraph(n, edges, labels)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, cut vertices, and their bipartite incidences."""

    blocks: tuple
    cut_vertices: frozenset
    _vertex_blocks: dict = field(repr=False, hash=False, compare=False)

    def block_indices_of(self, v):
        return self._vertex_blocks.get(v, ())

    def closed_neighborhood(self, v):
        """N[v], for a vertex v of these blocks: the union of v's blocks."""
        blocks = self.blocks
        ix = self._vertex_blocks[v]
        return blocks[ix[0]] if len(ix) == 1 else frozenset().union(*[blocks[i] for i in ix])

    def pendant_block_indices(self):
        """Blocks containing exactly one cut vertex."""
        return tuple(
            i for i, b in enumerate(self.blocks) if len(b & self.cut_vertices) == 1
        )

    def max_block_size(self):
        return max(map(len, self.blocks), default=0)

    def is_connected(self):
        """Whether the blocks make one connected graph (or none)."""
        # the vertex-block incidence graph is a forest with as many
        # components as the graph: vertices + blocks - incidences
        blocks = self.blocks
        return len(self._vertex_blocks) + len(blocks) - sum(map(len, blocks)) <= 1


def _decomposition(blocks):
    """The BlockDecomposition of a block list, in any order: blocks are
    sorted by their sorted members (`_indexed`)."""
    return _indexed(tuple(sorted(blocks, key=sorted)))


def _indexed(blocks):
    """The BlockDecomposition of a block tuple that is already in
    `_decomposition`'s order, such as part of one; the cut vertices are
    the vertices that lie in two or more blocks.  A cut vertex gathers
    its blocks in a list that becomes a tuple once, so a vertex in d
    blocks costs d steps, not d^2/2 (a flower graph's root hub lies in
    n + B + 1 blocks)."""
    vertex_blocks = {}
    cuts = set()
    for i, b in enumerate(blocks):
        for v in b:
            if v not in vertex_blocks:
                vertex_blocks[v] = (i,)
            elif v in cuts:
                vertex_blocks[v].append(i)
            else:
                vertex_blocks[v] = [*vertex_blocks[v], i]
                cuts.add(v)
    for v in cuts:
        vertex_blocks[v] = tuple(vertex_blocks[v])
    return BlockDecomposition(blocks, frozenset(cuts), vertex_blocks)


def decompose(g: BlockGraph) -> BlockDecomposition:
    """Biconnected decomposition; cached on the graph instance."""
    if g._decomp is None:
        g._decomp = _decomposition([b for b, _ in _biconnected_components(g._adj)])
    return g._decomp


@dataclass(frozen=True)
class LevelAssignment:
    """Clique levels from iterative pendant peeling.

    `levels[i]` is the level of block i of decompose(g); `roots[i]` is
    the vertex through which block i hangs off the rest of the graph at
    peel time (None when the block was the final residual clique).  A
    final one-vertex residual gets no level and is recorded as
    `unleveled_singleton`.
    """

    levels: dict
    roots: dict
    unleveled_singleton: Optional[int]
    rounds: int


def clique_levels(g: BlockGraph) -> LevelAssignment:
    """Assign peel levels to every block of a connected graph.

    Pendant cliques of the current residual get the current level, then
    their simplicial vertices are deleted and the process repeats.  The
    residual is always a union of whole blocks, so one pass over the
    block-cut tree does the peeling (`_peel`), made on each call: the
    growth guards and the reverse search peel their own states.
    """
    return _peel(decompose(g))


def _peel(deco: BlockDecomposition) -> LevelAssignment:
    """The clique levels of the graph that deco's blocks make, in its own
    vertex ids, which need not be 0..n-1: the peel counts the unpeeled
    blocks through each vertex of the vertex-to-blocks index, and a block
    is pendant once at most one of its vertices lies in two or more of
    them."""
    if not deco.is_connected():
        raise DisconnectedError("clique levels are defined for connected graphs")
    # a connected graph has an edge exactly when it has a block of two
    if deco.max_block_size() < 2:
        raise EdgelessError("clique levels require at least one edge")

    blocks, vertex_blocks = deco.blocks, deco._vertex_blocks
    live = {v: len(ix) for v, ix in vertex_blocks.items()}
    shared = [len(b & deco.cut_vertices) for b in blocks]
    levels = {}
    roots = {}
    frontier = [i for i, c in enumerate(shared) if c <= 1]
    rounds = 0
    while frontier:
        rounds += 1
        peeled = frontier
        # roots are read before any of this round's blocks is removed
        for i in peeled:
            levels[i] = rounds
            roots[i] = next((v for v in blocks[i] if live[v] > 1), None)
        frontier = []
        for i in peeled:
            for v in blocks[i]:
                live[v] -= 1
                if live[v] != 1:
                    continue
                for j in vertex_blocks[v]:
                    if j not in levels:
                        shared[j] -= 1
                        if shared[j] == 1:
                            frontier.append(j)
    if len(levels) != len(blocks):
        raise AssertionError("peeling made no progress")
    # the last round peels one residual clique, or cliques around one vertex
    return LevelAssignment(levels, roots, roots[peeled[0]], rounds)


def clique_star_center(g: BlockGraph) -> Optional[int]:
    """The center of g when g is a clique-star (two or more blocks that
    share one vertex), else None.  A connected block graph is a
    clique-star exactly when it has one cut vertex, which then lies in
    every block."""
    if not g.is_connected():
        raise DisconnectedError("clique-star test is defined for connected graphs")
    cuts = decompose(g).cut_vertices
    return next(iter(cuts)) if len(cuts) == 1 else None


# -- isomorph-free generation ----------------------------------------------


class _Piece:
    """A rooted part of a block-cut tree, with its encoding.

    A vertex piece (`block_size` 0) is a vertex and the blocks hanging
    from it; `size` counts its vertices.  A block piece is a block of
    `block_size` vertices hanging from a parent vertex, and `kids` are
    the vertex pieces of those members that carry blocks of their own;
    `size` counts the vertices below the parent.  A piece at the center
    of a whole tree is built the same way, with `size` the vertex count.
    `height` is the number of tree edges down to the deepest leaf block.
    """

    __slots__ = ("size", "height", "block_size", "kids", "code")

    def __init__(self, size, block_size, kids):
        self.size = size
        self.block_size = block_size
        self.kids = kids
        self.height = 1 + max(k.height for k in kids) if kids else 0
        label = f"B{block_size}" if block_size else "C"
        self.code = label + "(" + ",".join(sorted(k.code for k in kids)) + ")"


def _multisets(pieces, total, start=0):
    """Every multiset of `pieces` (ordered by size) whose sizes sum to
    `total`, once each, as a nondecreasing run of indices from `start`."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(pieces)):
        p = pieces[i]
        if p.size > total:
            break
        for rest in _multisets(pieces, total - p.size, i):
            yield (p,) + rest


def _strata(by_height):
    """(pieces of height h, pieces lower than h) for every height h, each
    list ordered by size; `by_height[h]` holds the pieces of height h."""
    out = []
    low = []
    for top in by_height:
        out.append((top, low))
        low = sorted(low + top, key=attrgetter("size"))
    return out


def _centered(strata, total):
    """Multisets summing to `total` whose two highest pieces have equal
    height: the branches at the center of a tree."""
    for top, low in strata:
        for high_total in range(total + 1):
            for high in _multisets(top, high_total):
                if len(high) >= 2:
                    for rest in _multisets(low, total - high_total):
                        yield high + rest


def _realize(center):
    """The graph of a centered piece, built from its block list: each
    block piece hung at vertex v is the block of v and its fresh ids."""
    if center.block_size:
        members = range(center.block_size)
        blocks = [frozenset(members)]
        stack = list(zip(members, center.kids))
        nxt = center.block_size
    else:
        blocks = []
        stack = [(0, center)]
        nxt = 1
    while stack:
        v, piece = stack.pop()
        for b in piece.kids:
            fresh = range(nxt, nxt + b.block_size - 1)
            nxt += b.block_size - 1
            blocks.append(frozenset(fresh).union((v,)))
            stack += zip(fresh, b.kids)
    return BlockGraph._from_blocks(nxt, blocks)


def generate_block_graphs(max_n):
    """Every connected block graph with at most `max_n` vertices, once per
    isomorphism class, as (graph, key) pairs in order of vertex count.

    A block-cut tree has only blocks as leaves, so every leaf-to-leaf
    path has even length and the tree has one center.  Rooted pieces are
    built bottom-up by size: a vertex piece hangs a multiset of block
    pieces, and a block piece of size s a multiset of at most s-1 vertex
    pieces (its other members are simplicial).  A graph is a piece at
    its center: a lone block, or a vertex or block whose two highest
    branches have equal height.  Each piece carries the rooted-tree
    encoding with children sorted, so `key` equals
    `oracle.canonical_form(graph).decode()` and no canonical form is
    computed.  Only pieces with at most max_n - 2 vertices are kept.
    """
    vertex_pieces = []  # ordered by size
    block_pieces = []  # ordered by size
    vertex_by_height = []
    block_by_height = []
    for n in range(1, max_n + 1):
        k = n - 2
        if k >= 2:
            for kids in _multisets(block_pieces, k - 1):
                p = _Piece(k, 0, kids)
                vertex_pieces.append(p)
                _add_by_height(vertex_by_height, p)
        if k >= 1:
            for below in range(k + 1):
                for kids in _multisets(vertex_pieces, below):
                    # the parent, k - below simplicial members, one member per kid
                    p = _Piece(k, 1 + (k - below) + len(kids), kids)
                    block_pieces.append(p)
                    _add_by_height(block_by_height, p)
        vertex_strata = _strata(vertex_by_height)
        centers = chain(
            [_Piece(n, n, ())],
            (
                _Piece(n, n - below + len(kids), kids)
                for below in range(n + 1)
                for kids in _centered(vertex_strata, below)
            ),
            (_Piece(n, 0, kids) for kids in _centered(_strata(block_by_height), n - 1)),
        )
        for c in centers:
            yield _realize(c), c.code


def _add_by_height(by_height, piece):
    while len(by_height) <= piece.height:
        by_height.append([])
    by_height[piece.height].append(piece)
