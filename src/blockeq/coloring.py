"""Equitable colorings of block graphs found from their blocks alone.

`equitable_witness` is a heuristic, not a decision: it may stall where
an equitable coloring exists.  It reads only `graph.decompose`, so a
graph built from its blocks builds no adjacency here.  A caller that
takes its coloring as a proof, such as `verify conjecture` taking an
equitable omega-coloring as proof that chi_eq = omega, checks it with
`oracle.check_coloring` first.
"""

from __future__ import annotations

from typing import Optional

from .gls import Coloring
from .graph import BlockGraph, decompose


def equitable_witness(g: BlockGraph, t: int) -> Optional[Coloring]:
    """An equitable coloring of g on colors 1..t, or None when t is below
    the largest block size or the repair stalls.

    Greedy: the blocks are visited breadth first over the block-cut
    forest, from a largest block of each component; a block's uncolored
    members take distinct colors the block does not hold yet, least
    filled first, ties to the smaller color.  Repair: while the largest
    and smallest classes differ by 2 or more, a vertex of a largest
    class moves to a smallest class that none of its blocks holds, the
    smallest such vertex and then color first; after n moves it stops.
    """
    deco = decompose(g)
    blocks, vertex_blocks = deco.blocks, deco._vertex_blocks
    if t < max(deco.max_block_size(), 1):
        return None
    n = g.n
    col = [-1] * n  # 0-based colors; -1 is uncolored
    size = [0] * t
    lengths = list(map(len, blocks))
    for start in sorted(range(len(blocks)), key=lengths.__getitem__, reverse=True):
        if col[next(iter(blocks[start]))] >= 0:
            continue  # its component is colored
        # (block, the vertex it is entered through): in a forest walk that
        # vertex is the block's one colored member, and -1 at the start
        queue = [(start, -1)]
        for i, entry in queue:  # grows while it is read: a breadth-first walk
            # least filled first, ties to the smaller color (a stable sort)
            free = sorted(range(t), key=size.__getitem__)
            if entry >= 0:
                free.remove(col[entry])
            k = 0
            for v in blocks[i]:
                if v != entry:
                    c = col[v] = free[k]
                    size[c] += 1
                    k += 1
                    ix = vertex_blocks[v]
                    if len(ix) > 1:
                        queue += [(j, v) for j in ix if j != i]
    moves = 0
    while max(size) - min(size) >= 2:
        if moves == n:
            return None
        hi, lo = max(size), min(size)
        smallest = [c for c in range(t) if size[c] == lo]
        target = None
        for v in range(n):
            if size[col[v]] == hi:
                near = {col[u] for u in deco.closed_neighborhood(v)}
                target = next((c for c in smallest if c not in near), None)
                if target is not None:
                    break
        if target is None:
            return None
        size[col[v]] -= 1
        size[target] += 1
        col[v] = target
        moves += 1
    return Coloring({v: c + 1 for v, c in enumerate(col)}, t)
