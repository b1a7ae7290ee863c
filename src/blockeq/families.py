"""Small named graph constructors.  Tests use them; in the program
only `characterization.generate_with_alphamin` calls one, building its
base with `star_of_cliques`.

Each graph is built from its block list, which the construction knows,
so it is not validated or decomposed again; a lone vertex is a
singleton block.
"""

from .graph import BlockGraph


def complete_graph(n: int) -> BlockGraph:
    if n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    return BlockGraph._from_blocks(n, [frozenset(range(n))] if n else [])


def path_graph(n: int) -> BlockGraph:
    if n < 2:
        return complete_graph(n)
    return BlockGraph._from_blocks(n, [frozenset((i, i + 1)) for i in range(n - 1)])


def star_of_cliques(sizes) -> BlockGraph:
    """Cliques of the given sizes all sharing vertex 0.

    Each size counts the whole block, so size s contributes s-1 fresh
    vertices.
    """
    blocks = []
    nxt = 1
    for s in sizes:
        if s < 2:
            raise ValueError("block size must be >= 2")
        blocks.append(frozenset(range(nxt, nxt + s - 1)).union((0,)))
        nxt += s - 1
    return BlockGraph._from_blocks(nxt, blocks or [frozenset((0,))])


def clique_with_pendant_cliques(k: int) -> BlockGraph:
    """K_k with k+1 pendant (k+1)-cliques hanging off each vertex.

    The family whose equitable chromatic number exceeds the counting
    lower bound by exactly one; it has k + k^2(k+1) vertices.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    blocks = [frozenset(range(k))]
    nxt = k
    for u in range(k):
        for _ in range(k + 1):
            blocks.append(frozenset(range(nxt, nxt + k)).union((u,)))
            nxt += k
    return BlockGraph._from_blocks(nxt, blocks)


def two_triangles_sharing_a_vertex() -> BlockGraph:
    return star_of_cliques([3, 3])


def triangle_with_pendant_edge() -> BlockGraph:
    return BlockGraph._from_blocks(4, [frozenset((0, 1, 2)), frozenset((2, 3))])
