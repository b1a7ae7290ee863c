"""Constructive characterization of block graphs by alpha_min.

A connected block graph with a cut-vertex witness v of alpha_min = r
grows from the clique-star induced by N[v] through r-1 clique
attachments, each raising alpha_min by exactly one while v keeps
realizing it.  This module applies those growth operations, verifies
certificates by replay, samples random graphs with prescribed
alpha_min, and recovers a certificate for a given graph by exhaustive
reverse search.

The reverse search undoes one step at a time by a single piece rule.  A
piece is what one attached clique added: a pendant block without the
vertex it hangs from, or such a block E at w2 together with w2 when
w2's only other block is a 2-block {w1, w2} (an attached edge at w1
extended by E).  A candidate last step is one piece, or a twin attach
of two pieces; which operation kind rebuilt it is then read off the
anchor rule that the candidate list reads too (`_anchor_kinds`), so
the search lists no operation shapes of its own.  Whether a candidate
lowers alpha_min by exactly one while v keeps realizing it is decided
on the current state: a piece passes when every maximum independent
set of G[S] - N[v] meets it, and a twin gets one alpha pass with both
pieces left out.

The search runs on g's own blocks and builds no subgraph.  Every state
S is a union of whole blocks of g (a piece is a pendant block minus its
anchor), so a state is the list of g's blocks that miss the removed
vertices, in g's vertex ids (`_State`): its decomposition is built from
that list, its clique levels are peeled from it when a guard reads
them, and its alpha tables are passes over g's forest with V - S left
out.  The search keeps its path on an explicit stack, so its depth is
not bounded by the recursion limit.

Guard evaluation graphs are pinned clause by clause: structural guards
(cut/pendant/level/simplicial counts) are read off the pre-attachment
graph g.  The two all-independent-set guards (the twin-attach root test
and the extension anchor test) are stated on the grown graph and
decided on g, with the proofs in `_plan`'s docstring.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, permutations
from typing import Optional, Tuple

from . import invariants
from .errors import (
    DisconnectedError,
    EdgelessError,
    ExhaustedRetriesError,
    NoCutVertexError,
    PreconditionViolatedError,
)
from .families import star_of_cliques
from .graph import (
    BlockGraph,
    _indexed,
    _peel,
    clique_star_center,
    decompose,
)

log = logging.getLogger(__name__)

# random operations `generate_with_alphamin` tries per step before it gives up
_RETRIES = 400
# the largest block `generate_with_alphamin` attaches, 16 times its default
MAX_CLIQUE = 64


class OpKind(Enum):
    ATTACH_AT_PENDANT_CUT = 1
    ATTACH_AT_LEVEL2_K2_CUT = 2
    ATTACH_AT_SIMPLICIAL_OF_RICH_CLIQUE = 3
    TWIN_ATTACH = 4
    ATTACH_AT_UNIQUE_SIMPLICIAL = 5


@dataclass(frozen=True)
class StarExtension:
    """Follow-up clique hung on the fresh end of an attached 2-block."""

    clique_index: int
    size: int


@dataclass(frozen=True)
class OpDescriptor:
    """One growth step: where to attach and how big the new blocks are.

    Sizes count whole blocks (anchor included), so every size is >= 2
    and a size-s attachment contributes s-1 fresh vertices.  A twin
    attach carries two anchors; its replay adds both cliques unless
    every root of their block becomes locked into every maximum
    independent set through v, in which case only the first is added.
    """

    kind: OpKind
    anchors: Tuple[int, ...]
    sizes: Tuple[int, ...]
    star_extension: Optional[StarExtension] = None

    def check_shape(self):
        if len(self.anchors) != len(self.sizes) or not self.anchors:
            raise PreconditionViolatedError("shape", "anchors and sizes must align")
        if any(s < 2 for s in self.sizes):
            raise PreconditionViolatedError("shape", "attached block sizes must be >= 2")
        if self.kind is OpKind.TWIN_ATTACH:
            if len(self.anchors) not in (1, 2):
                raise PreconditionViolatedError("shape", "twin attach takes 1 or 2 anchors")
        elif len(self.anchors) != 1:
            raise PreconditionViolatedError("shape", "single-anchor operation")
        if self.star_extension is not None:
            if self.star_extension.size < 2:
                raise PreconditionViolatedError("shape", "extension size must be >= 2")
            if not 0 <= self.star_extension.clique_index < len(self.anchors):
                raise PreconditionViolatedError("shape", "extension indexes an added clique")


@dataclass(frozen=True)
class CharCertificate:
    """Base clique-star, its center, and the ordered growth steps."""

    base_graph: BlockGraph
    base_vertex: int
    steps: Tuple[OpDescriptor, ...]

    @property
    def r(self):
        return len(self.steps) + 1


def _block_roots(deco, lv, qi):
    """Possible roots of a leveled block: the vertex it hangs from, or
    every cut vertex of the final residual clique, which hangs from none
    (so no one of them is singled out by vertex ids)."""
    z = lv.roots.get(qi)
    if z is not None:
        return (z,)
    return tuple(sorted(deco.blocks[qi] & deco.cut_vertices))


class _State:
    """A graph G[S] made of whole blocks of g, in g's vertex ids, as the
    guards of a step at base vertex v read it: g itself while it grows
    or replays, or a reverse-search state.  `deco` is its decomposition,
    `out` is V - S and `nv` is N[v], which lies in S, so it is g's and
    every state of one search shares it.  G[S] is never built: its
    clique levels are peeled from `deco`, and the residual alpha table
    is one alpha pass over g's forest with `out` and N[v] left out, each
    made when first read."""

    __slots__ = ("g", "v", "deco", "out", "nv", "_levels", "_residual")

    def __init__(self, g: BlockGraph, v: int, deco=None, out=frozenset(), nv=None):
        self.g = g
        self.v = v
        self.deco = decompose(g) if deco is None else deco
        self.out = out
        if nv is None:
            g._check_vertex(v)
        self.nv = self.deco.closed_neighborhood(v) if nv is None else nv
        self._levels = None
        self._residual = None

    def without(self, removed):
        """The state left when `removed`, a union of pieces, is taken out:
        the blocks that miss it.  A piece is a pendant block minus the
        vertex it hangs from, so the blocks that meet it lie inside it,
        but for that vertex."""
        blocks = tuple(b for b in self.deco.blocks if b.isdisjoint(removed))
        return _State(self.g, self.v, _indexed(blocks), self.out | removed, self.nv)

    def levels(self):
        """The clique levels; a graph that has none fails the step's guards."""
        if self._levels is None:
            try:
                self._levels = _peel(self.deco)
            except (DisconnectedError, EdgelessError) as e:
                raise PreconditionViolatedError("no-clique-levels", str(e)) from None
        return self._levels

    def residual(self):
        """The alpha table of G[S] - N[v], indexed by g's vertex ids."""
        if self._residual is None:
            self._residual = invariants._alpha_pass(self.g, chain(self.out, self.nv))
        return self._residual

    def locks(self, x):
        """Whether x is v, or is outside N[v] and in every maximum
        independent set of G[S] - N[v]."""
        return x == self.v or (x not in self.nv and self.residual().ais[x])


def _in_pendant_block(deco, x):
    """Whether x lies in a block with exactly one cut vertex."""
    return any(len(deco.blocks[qi] & deco.cut_vertices) == 1 for qi in deco._vertex_blocks[x])


def _in_level2_k2(deco, lv, x):
    """Whether x lies in a 2-block of clique level 2."""
    blocks = deco.blocks
    return any(lv.levels.get(qi) == 2 and len(blocks[qi]) == 2 for qi in deco._vertex_blocks[x])


def _level3_misfit(deco, lv, qi):
    """The first level-2 block meeting the level-3 block qi that is not a
    2-block, unless some root of qi lies in every such block; else None."""
    big = [b for bj, b in enumerate(deco.blocks)
           if lv.levels.get(bj) == 2 and b & deco.blocks[qi] and len(b) != 2]
    if big and not any(all(z in b for b in big) for z in _block_roots(deco, lv, qi)):
        return big[0]
    return None


def _anchor_kinds(at: _State, x):
    """The kinds whose guards pass at the single anchor x on `at`, in
    kind order, read off the clause predicates `_guards_ok` raises from.
    A cut vertex can take kinds 1 and 2; a simplicial one at most one of
    kinds 3-5, which its block's level and simplicial count pick.  The
    clique levels and the v-lock are read only when a kind after kind 1
    is asked for; with no clique levels only kind 1 can pass."""
    deco = at.deco
    cut = x in deco.cut_vertices
    if cut and x != at.v and _in_pendant_block(deco, x):
        yield OpKind.ATTACH_AT_PENDANT_CUT
    try:
        lv = at.levels()
    except PreconditionViolatedError:
        return
    if cut:
        if _in_level2_k2(deco, lv, x) and not at.locks(x):
            yield OpKind.ATTACH_AT_LEVEL2_K2_CUT
        return
    qi = deco._vertex_blocks[x][0]
    level = lv.levels[qi]
    if level in (1, 2):
        simps = len(deco.blocks[qi] - deco.cut_vertices)
        if simps >= 3:
            yield OpKind.ATTACH_AT_SIMPLICIAL_OF_RICH_CLIQUE
        else:
            yield OpKind.TWIN_ATTACH if simps == 2 else OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL
    elif level == 3 and _level3_misfit(deco, lv, qi) is None:
        yield OpKind.ATTACH_AT_SIMPLICIAL_OF_RICH_CLIQUE


def _guards_ok(at: _State, kind: OpKind, anchors):
    """Check every structural guard of a `kind` step at `anchors` against
    `at` (the graph being grown, at base vertex at.v).  Reads its
    decomposition, its clique levels for kinds 2-5, and kind 2's v-lock.
    Returns the possible roots of the twin-attach block when relevant.
    Raises PreconditionViolatedError with the failed clause."""
    deco = at.deco
    cuts = deco.cut_vertices

    if kind is OpKind.ATTACH_AT_PENDANT_CUT:
        x = anchors[0]
        if x == at.v:
            raise PreconditionViolatedError("op1-anchor-is-base", f"anchor {x} equals v")
        if x not in cuts:
            raise PreconditionViolatedError("op1-anchor-not-cut", f"{x} is simplicial")
        if not _in_pendant_block(deco, x):
            raise PreconditionViolatedError("op1-not-in-pendant", f"{x} in no pendant clique")
        return None

    if kind is OpKind.ATTACH_AT_LEVEL2_K2_CUT:
        x = anchors[0]
        if x not in cuts:
            raise PreconditionViolatedError("op2-anchor-not-cut", f"{x} is simplicial")
        if not _in_level2_k2(deco, at.levels(), x):
            raise PreconditionViolatedError("op2-no-level2-k2", f"{x} in no level-2 2-block")
        if at.locks(x):
            raise PreconditionViolatedError("op2-anchor-v-ais", f"{x} locked into v's maximum sets")
        return None

    if not isinstance(kind, OpKind):
        raise PreconditionViolatedError("kind", f"unknown kind {kind}")
    # kinds 3-5 anchor at simplicial vertices of one block
    for s in anchors:
        if s in cuts:
            raise PreconditionViolatedError(
                f"op{kind.value}-anchor-not-simplicial", f"{s} is a cut vertex"
            )
    qis = {deco._vertex_blocks[s][0] for s in anchors}
    if len(qis) != 1:  # only a twin attach takes two anchors
        raise PreconditionViolatedError("op4-anchors-split", "anchors in different blocks")
    (qi,) = qis
    lv = at.levels()
    level = lv.levels.get(qi)
    simps = deco.blocks[qi] - cuts

    if kind is OpKind.ATTACH_AT_SIMPLICIAL_OF_RICH_CLIQUE:
        if level in (1, 2):
            if len(simps) < 3:
                raise PreconditionViolatedError(
                    "op3-too-few-simplicial", f"block has {len(simps)} simplicial vertices"
                )
            return None
        if level == 3:
            big = _level3_misfit(deco, lv, qi)
            if big is not None:
                raise PreconditionViolatedError(
                    "op3-level2-not-k2", f"level-2 block {sorted(big)} has size {len(big)}"
                )
            return None
        raise PreconditionViolatedError("op3-level", f"block level {level} not in 1..3")

    if level not in (1, 2):
        raise PreconditionViolatedError(f"op{kind.value}-level", f"block level {level}")
    if kind is OpKind.ATTACH_AT_UNIQUE_SIMPLICIAL:
        if len(simps) != 1:
            raise PreconditionViolatedError("op5-not-unique", "block has other simplicial vertices")
        return None
    if len(simps) != 2:
        raise PreconditionViolatedError(
            "op4-simplicial-count", f"block has {len(simps)} simplicial vertices, need 2"
        )
    if len(anchors) == 2 and anchors[0] == anchors[1]:
        raise PreconditionViolatedError("op4-anchors-equal", "twin anchors must differ")
    return _block_roots(deco, lv, qi)


def _attach_cliques(g: BlockGraph, anchors, sizes):
    """g plus one fresh clique per (anchor, size) pair, its fresh vertices
    numbered on from g.n in pair order; an anchor may be a fresh vertex
    of an earlier pair.  The new graph's blocks are g's blocks plus one
    per pair (an anchor's singleton block is gone)."""
    blocks = [b for b in decompose(g).blocks if len(b) > 1 or b.isdisjoint(anchors)]
    nxt = g.n
    for anchor, size in zip(anchors, sizes):
        blocks.append(frozenset(range(nxt, nxt + size - 1)) | {anchor})
        nxt += size - 1
    return BlockGraph._from_blocks(nxt, blocks)


def _plan(at: _State, op: OpDescriptor):
    """The (anchors, sizes) pairs that `_attach_cliques` builds for one
    growth step on g = at.g at base vertex v = at.v, after the twin fallback and with the extension
    clique last; raises PreconditionViolatedError on any failed guard.
    The clauses stated on the grown graph are decided on g.

    Twin fallback.  Let X = g - N[v].  After a fresh clique is attached
    at each anchor, every maximum independent set of grown - N[v] holds
    exactly one vertex per anchor side: the anchor, or a fresh vertex,
    which can always replace the anchor.  So these sets meet X - {a, b}
    in exactly the maximum independent sets of X - {a, b}.  A root z is
    therefore locked after the double attach iff z = v, or z is not in
    N(v) and lies in every maximum set of X - {a, b}.  The same holds
    for anchors in N[v]: their fresh cliques leave with N[v], or stand
    apart as their own component.

    Extension.  Once the 2-block {w1, w2} is attached with w1 != v, w2's
    only neighbor is w1, and w2 is not in N[v].  So a maximum set
    through w1 can swap w1 for w2, and w1 is locked only when w1 = v.

    What the plan adds hangs from g's anchors, one structure each: a
    plain clique, or the extended 2-block at w1.  Seen from its anchor,
    a plain clique adds (d_inc, d_exc) = (0, 1) to the largest sets
    through and avoiding it, and the extended 2-block (1, 1).  Their
    other vertices are simplicial, and realize alpha, except w2, which
    realizes the largest set avoiding w1 (`_grown_alpha_with`).
    """
    op.check_shape()
    g, v = at.g, at.v
    for a in op.anchors:
        if not 0 <= a < g.n:
            raise PreconditionViolatedError("anchor-unknown", f"anchor {a} outside 0..{g.n - 1}")
    roots = _guards_ok(at, op.kind, op.anchors)
    anchors, sizes = op.anchors, op.sizes

    if op.kind is OpKind.TWIN_ATTACH and len(anchors) == 2:
        locked = invariants._alpha_pass(g, at.nv | set(anchors)).ais
        if all(z == v or (z not in at.nv and locked[z]) for z in roots):
            # the double attach would lock every root into every maximum
            # independent set through v; fall back to a single clique
            anchors, sizes = anchors[:1], sizes[:1]

    ext = op.star_extension
    if ext is not None:
        if ext.clique_index >= len(anchors):
            raise PreconditionViolatedError(
                "ext-clique-missing", "extension targets a clique the fallback dropped"
            )
        if sizes[ext.clique_index] != 2:
            raise PreconditionViolatedError("ext-not-2-block", "extension needs an attached 2-block")
        w1 = anchors[ext.clique_index]
        if w1 == v:
            raise PreconditionViolatedError("ext-anchor-v-ais", f"{w1} locked into v's maximum sets")
        w2 = g.n + sum(s - 1 for s in sizes[:ext.clique_index])  # the 2-block's fresh end
        anchors, sizes = anchors + (w2,), sizes + (ext.size,)
    return anchors, sizes


def apply_operation(g: BlockGraph, v: int, op: OpDescriptor) -> BlockGraph:
    """One growth step, built as one graph from its plan (`_plan`);
    raises PreconditionViolatedError on any failed guard."""
    return _attach_cliques(g, *_plan(_State(g, v), op))


def _grown_alpha_with(g: BlockGraph, anchors, sizes):
    """alpha_with of the graph `_attach_cliques(g, anchors, sizes)` would
    build from a plan, over g's vertices and then its fresh ones, from
    one alpha pass over g's own forest.  Needs g connected, so that the
    largest set avoiding w1 is exc[w1]; w1 carries a bonus, so it is a
    hub of the walk, where `exc` is kept."""
    w2 = anchors[-1] if anchors[-1] >= g.n else None  # an extension's anchor comes last
    bonus, w1, nxt = [], None, g.n
    for a, s in zip(anchors, sizes):
        if a >= g.n:
            break
        if nxt == w2:  # the 2-block whose fresh end w2 is
            w1 = a
        bonus.append((a, int(nxt == w2), 1))
        nxt += s - 1
    table = invariants._alpha_pass(g, bonus=bonus)
    aw = table.alpha_with + [table.alpha] * (sum(sizes) - len(sizes))
    if w1 is not None:
        aw[w2] = table.exc[w1]
    return aw


@dataclass(frozen=True)
class CertCheck:
    ok: bool
    reason: Optional[str] = None
    step_index: Optional[int] = None
    alpha_min_trace: Tuple[int, ...] = ()


def verify_certificate(cert: CharCertificate) -> CertCheck:
    """Replay a certificate and check base shape plus conditions (B), (C).

    N[v] is read once, off the base: no step attaches at v.  Kind 1
    refuses v, kind 2's v-lock refuses it, kinds 3-5 and the twin attach
    anchor at simplicial vertices while v stays a cut vertex, and an
    extension refuses w1 = v.  So every step's state shares it."""
    g = cert.base_graph
    v = cert.base_vertex
    if not g.is_connected() or clique_star_center(g) != v:
        return CertCheck(False, "base graph is not a clique-star centered at the base vertex", None)
    nv = decompose(g).closed_neighborhood(v)
    # v is adjacent to every vertex, so alpha_min = alpha(., v) = 1
    trace = [1]
    for i, op in enumerate(cert.steps):
        try:
            g = _attach_cliques(g, *_plan(_State(g, v, nv=nv), op))
        except PreconditionViolatedError as e:
            return CertCheck(False, f"replay failure: {e}", i, tuple(trace))
        am = invariants.alpha_min(g).value
        trace.append(am)
        if am != i + 2:
            return CertCheck(False, f"alpha_min jumped to {am}, expected {i + 2}", i, tuple(trace))
        if invariants.alpha_with(g, v) != am:
            return CertCheck(False, "base vertex stopped realizing alpha_min", i, tuple(trace))
    return CertCheck(True, None, None, tuple(trace))


def _candidate_ops(at: _State):
    """Every (kind, anchors) pair that `_guards_ok` accepts for one step
    on `at`, in this order: each cut vertex for kinds 1 and 2; then per block,
    each simplicial vertex for kind 3, each ordered pair and each single
    one for the twin attach, and each one for kind 5.

    Read in one pass over g's cut vertices and blocks through the anchor
    rule (`_anchor_kinds`), with nothing raised.  The guards of kinds
    3-5 read only the anchors' block (and that twin anchors differ), so
    a block's first simplicial vertex gives the kind of all of them."""
    deco = at.deco
    cuts = deco.cut_vertices
    out = [(kind, (x,)) for x in sorted(cuts) for kind in _anchor_kinds(at, x)]
    for b in deco.blocks:
        simps = sorted(b - cuts)
        kind = next(_anchor_kinds(at, simps[0]), None) if simps else None
        if kind is OpKind.TWIN_ATTACH:
            out += [(kind, pair) for pair in permutations(simps, 2)]
        if kind is not None:
            out += [(kind, (s,)) for s in simps]
    return out


def generate_with_alphamin(r: int, max_clique: int = 4, seed: Optional[int] = None):
    """Random block graph with alpha_min exactly r, plus its certificate.

    Grows a random clique-star around vertex 0 and then applies r-1
    random legal operations, resampling any candidate that fails to
    raise alpha_min by one or to keep vertex 0 a witness.

    Each attempt is decided on g, the graph being grown, and only the
    kept one is built.  Its plan (`_plan`) hangs plain cliques, which
    add (d_inc, d_exc) = (0, 1) at their anchors, or an extended 2-block,
    which adds (1, 1) at w1, so one alpha pass over g's forest gives the
    grown graph's alpha_with on g's vertices.  Fresh vertices of a
    pendant clique are simplicial and realize alpha, and the 2-block's
    fresh end w2 realizes the largest set avoiding w1
    (`_grown_alpha_with`).  An attempt is kept when vertex 0's value and
    the minimum of all of these are both the target.  A single plain
    clique at x leaves alpha_with(., x) as it was, so if x realizes
    alpha_min(g) the attempt is rejected with no pass at all.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 2 <= max_clique <= MAX_CLIQUE:
        raise ValueError(f"max_clique must be in 2..{MAX_CLIQUE}")
    rng = random.Random(seed)
    def size():  # 2 with odds 3 in max_clique + 1, else uniform over 3..max_clique
        return max(2, rng.randrange(max_clique + 1))
    base = star_of_cliques([size() for _ in range(rng.randint(2, 3))])
    g = base
    aw = invariants._alpha_table(base).alpha_with  # alpha_with of g, whose alpha_min is i
    nv = decompose(base).closed_neighborhood(0)  # no step attaches at 0 (`verify_certificate`)
    steps = []
    for i in range(1, r):
        target = i + 1
        at = _State(g, 0, nv=nv)
        cands = _candidate_ops(at)
        if not cands:
            raise ExhaustedRetriesError(f"no candidate operations at step {i}")
        for _ in range(_RETRIES):
            kind, anchors = rng.choice(cands)
            sizes = tuple(size() for _ in anchors)
            ext = None
            k2s = [ix for ix, s in enumerate(sizes) if s == 2]
            if k2s and rng.random() < 0.4:
                ext = StarExtension(rng.choice(k2s), size())
            op = OpDescriptor(kind, anchors, sizes, ext)
            try:
                plan = _plan(at, op)
            except PreconditionViolatedError:
                continue
            if len(plan[0]) == 1 and aw[plan[0][0]] == i:
                continue  # a lone plain clique at x keeps alpha_with(., x) = alpha_min(g)
            grown_aw = _grown_alpha_with(g, *plan)
            if grown_aw[0] == target == min(grown_aw):
                g = _attach_cliques(g, *plan)
                aw = grown_aw
                steps.append(op)
                break
        else:
            raise ExhaustedRetriesError(f"no accepted operation within {_RETRIES} tries at step {i}")
    return g, CharCertificate(base, 0, tuple(steps))


# -- reverse search -------------------------------------------------------


@dataclass(frozen=True)
class _Reverse:
    """One undone step, in host-graph vertex ids."""

    kind: OpKind
    anchors: Tuple[int, ...]
    sizes: Tuple[int, ...]
    ext: Optional[StarExtension]
    fresh: Tuple[int, ...]  # removed vertices, in the order replay creates them
    removed: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "removed", frozenset(self.fresh))


def _reverse_candidates(S: _State):
    """Last-step removal candidates at a state S, read off its blocks.

    A piece is what one attached clique added: a pendant block of G[S]
    without the vertex it hangs from; or such a block E at w2 together
    with w2, when w2's only other block is a 2-block {w1, w2} (anchor
    w1, extended by E).  No piece meets N[v].  A candidate is one piece,
    or a twin attach of two pieces with distinct adjacent anchors,
    disjoint removals and neither anchor in the other's removal, of
    which at most one is extended and goes first.  A plain pair is
    listed once, smaller anchor first: the guards are symmetric in the
    two anchors.  Anchors a != b are adjacent exactly when they share a
    block of S, since a removed piece's block keeps only its anchor."""
    deco = S.deco
    pieces = []
    for qi in deco.pendant_block_indices():
        block = deco.blocks[qi]
        x = next(iter(block & deco.cut_vertices))
        fresh = tuple(sorted(block - {x}))
        pieces.append(_Reverse(None, (x,), (len(block),), None, fresh))
        other = [deco.blocks[qj] for qj in deco._vertex_blocks[x] if qj != qi]
        if len(other) == 1 and len(other[0]) == 2:
            (w1,) = other[0] - {x}
            pieces.append(_Reverse(None, (w1,), (2,), StarExtension(0, len(block)), (x,) + fresh))
    pieces = [p for p in pieces if p.removed.isdisjoint(S.nv)]

    cands = list(pieces)
    for p in pieces:
        (a,) = p.anchors
        homes = set(deco._vertex_blocks[a])
        for q in pieces:
            (b,) = q.anchors
            # an extended piece goes first; a plain pair, smaller anchor first
            if (q.ext or (p.ext is None and a > b) or a == b
                    or homes.isdisjoint(deco._vertex_blocks[b])):
                continue
            if p.removed & q.removed or a in q.removed or b in p.removed:
                continue
            # replay adds p's clique, then q's, then p's extension
            n_p = 1 if p.ext else len(p.fresh)
            cands.append(_Reverse(OpKind.TWIN_ATTACH, (a, b), p.sizes + q.sizes, p.ext,
                                  p.fresh[:n_p] + q.fresh + p.fresh[n_p:]))
    cands.sort(key=lambda c: (len(c.removed), sorted(c.removed), c.anchors, c.sizes))
    return cands


def _steps_down(S: _State, am, cand):
    """Whether removing `cand` from the state S, where v realizes
    alpha_min(G[S]) = am, leaves alpha_min(G[T]) = alpha_with(G[T], v)
    = am - 1.  Neither graph is built.

    A single piece is one clique, so removing it lowers each alpha_with
    by at most one and only v's value needs checking: it drops exactly
    when every maximum independent set of G[S] - N[v] meets the piece.
    An extended piece is a whole pendant block, which every such set
    meets.  A plain piece hanging from x is a whole component of
    G[S] - N[v] when x is next to v, and otherwise is avoided exactly by
    the maximum sets through x.  A twin removes two cliques and gets one
    alpha pass over g's forest with V - S and both left out."""
    g, v = S.g, S.v
    if cand.kind is OpKind.TWIN_ATTACH:
        removed = cand.removed
        table = invariants._alpha_pass(g, chain(S.out, removed))
        aw = table.alpha_with
        kept_min = min(aw[u] for u in S.deco._vertex_blocks if u not in removed)
        return aw[v] == kept_min == am - 1
    if cand.ext is not None:
        return True
    x = cand.anchors[0]
    if x in S.nv:  # never v: a plain piece hanging from v would lie in N[v]
        return True
    table = S.residual()
    return table.alpha_with[x] < table.alpha


def _resolve_kind(T: _State, cand):
    """First kind whose replay on the shrunken state T rebuilds every
    removed vertex, for a candidate that passed `_steps_down`; None when
    no kind does.  Nothing is replayed: the candidate's sizes and
    extension add exactly its removed vertices, and a twin that passes
    the step rule never falls back to one clique, so the kind is the
    first whose guards pass on T, read off the anchor rule
    (`_anchor_kinds`) at the first anchor.  The extension clause
    `ext-anchor-v-ais` needs w1 = v, which would put the removed w2 in
    N[v], so it cannot fire.

    Two anchors can only be a twin.  They differ and are adjacent in T,
    so they lie in one block once both are simplicial: the twin passes
    when a takes the twin attach and b is simplicial.

    Why no twin falls back.  The kind-4 guard makes the twin anchors a
    and b simplicial in one block of G[T], so each root z of it is next
    to both, and a, b are both in N(v) or neither is.  Were both, v's
    value would drop by two; so a, b lie in X = G[T] - N[v], and a root
    in N(v) is never locked.  Plain twin: the step rule puts an anchor
    in some maximum set of X, and dropping that anchor gives a maximum
    set of X - {a, b} that avoids z.  Extended twin (2-block at a): b
    lies in every maximum set I of X, and I - b is a maximum set of
    X - {a, b} that avoids z."""
    anchors = cand.anchors
    kind = next(_anchor_kinds(T, anchors[0]), None)
    if len(anchors) == 2 and (kind is not OpKind.TWIN_ATTACH or anchors[1] in T.deco.cut_vertices):
        return None
    return kind


def _reverse_search(g: BlockGraph, v: int, target: int):
    """Growth records that shrink g to the clique-star around v, one
    alpha_min step at a time, or None when no sequence exists.

    Every state is a union of whole blocks of g: a piece is a pendant
    block minus its anchor, so a state keeps the blocks that miss the
    removed vertices, and stays connected.  A depth-first search on an
    explicit stack: each frame is a state, its alpha_min and what is
    left of its candidates; a state whose candidates all fail joins
    `failed` and is never entered again."""
    root = _State(g, v)
    base_size = len(root.nv)
    if g.n == base_size:
        return []
    failed = set()
    frames = [(root, target, iter(_reverse_candidates(root)))]
    records = []  # records[i] leads from frames[i] to frames[i + 1]
    while frames:
        S, am, cands = frames[-1]
        for cand in cands:
            if not _steps_down(S, am, cand):
                continue
            T = S.without(cand.removed)
            kind = _resolve_kind(T, cand)
            if kind is None:
                continue
            if T.out in failed:
                continue
            records.append(replace(cand, kind=kind))
            # N[v] lies in every state, so T is the base when it is that small
            if len(T.deco._vertex_blocks) == base_size:
                return records[::-1]
            frames.append((T, am - 1, iter(_reverse_candidates(T))))
            break
        else:
            failed.add(S.out)
            frames.pop()
            if records:
                records.pop()
    return None


def find_decomposition(g: BlockGraph) -> Optional[CharCertificate]:
    """Recover a growth certificate for g, or None after exhausting the
    reverse search from every cut vertex that realizes alpha_min, in id
    order (a None on a valid input would be a counterexample worth
    logging)."""
    deco = decompose(g)
    if not deco.cut_vertices:
        raise NoCutVertexError("decomposition needs a cut vertex")
    if not g.is_connected():
        raise DisconnectedError("decomposition needs a connected graph")
    target = invariants.alpha_min(g).value
    witnesses = [x for x in sorted(deco.cut_vertices) if invariants.alpha_with(g, x) == target]
    if not witnesses:
        raise AssertionError("some cut vertex must realize alpha_min")

    for v in witnesses:
        records = _reverse_search(g, v, target)
        if records is not None:
            break
    else:
        log.warning("reverse search exhausted on %r; potential counterexample", g)
        return None

    base_sub, base_map = g.induced_subgraph(sorted(deco.closed_neighborhood(v)))
    id_map = dict(base_map)
    nxt = base_sub.n
    steps = []
    for rec in records:
        anchors = tuple(id_map[a] for a in rec.anchors)
        for old in rec.fresh:
            id_map[old] = nxt
            nxt += 1
        steps.append(OpDescriptor(rec.kind, anchors, rec.sizes, rec.ext))
    cert = CharCertificate(base_sub, base_map[v], tuple(steps))
    check = verify_certificate(cert)
    if not check.ok:
        raise AssertionError(f"reverse search produced an invalid certificate: {check.reason}")
    return cert
