"""Labeled oriented trees: data model, parsing and tree-level structure.

A LOT is a finite oriented tree whose edges each carry a vertex as label.
Everything here is purely combinatorial: properties (injective, compressed,
boundary reduced, prime), sub-LOTs, collapses, complete sets of sub-LOTs,
free decompositions, reorientation and vertex sign change.

All values are immutable; operations are pure functions.  Deterministic
orders are used everywhere (file order for vertices/edges, sorted edge-id
sets for subtree enumerations) so that searches are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ParseError, PreconditionError, StructureError

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


class LotEdge(NamedTuple):
    """Oriented labeled edge; its id is its position in the edge tuple.  A
    named (tail, head, label) tuple: it unpacks, and equals the plain tuple."""
    tail: str
    head: str
    label: str


@dataclass(frozen=True)
class Lot:
    """Labeled oriented tree on named vertices.

    Invariants: labels are vertices, no self-loops, edge ids are dense
    positions 0..E-1, and the underlying undirected graph is a tree.
    ``name`` is metadata and ignored for equality.  ``_iv`` keeps the int
    view and ``_paths`` the root paths (see ``_root_paths``) that the tree
    check walks, for the edge closures; ``_closures`` keeps those, once
    ``_edge_closures`` has computed them.  None of the three takes part in
    equality, hashing or repr.
    """
    vertices: tuple[str, ...]
    edges: tuple[LotEdge, ...]
    name: str = field(default="", compare=False)
    _iv: _IntView = field(init=False, repr=False, compare=False)
    _paths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _closures: Optional[tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        iv = _int_view(self)
        object.__setattr__(self, "_paths", _tree_paths(iv))
        object.__setattr__(self, "_iv", iv)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _lot_from_view(vertices: tuple[str, ...], edges: tuple[LotEdge, ...],
                   iv: _IntView, paths: tuple[int, ...], name: str = "") -> Lot:
    """A Lot built without ``__post_init__``.  The caller guarantees the
    invariants that ``__post_init__`` checks, and passes exactly the view
    and root paths it would compute."""
    lot = object.__new__(Lot)
    object.__setattr__(lot, "vertices", vertices)
    object.__setattr__(lot, "edges", edges)
    object.__setattr__(lot, "name", name)
    object.__setattr__(lot, "_iv", iv)
    object.__setattr__(lot, "_paths", paths)
    return lot


@dataclass(frozen=True)
class SignedLot:
    """A LOT with a sign in {+1,-1} attached to every vertex."""
    lot: Lot
    sign: tuple[int, ...]  # aligned with lot.vertices

    def __post_init__(self):
        if len(self.sign) != len(self.lot.vertices):
            raise StructureError("sign map is not total on the vertices")
        if any(s not in (1, -1) for s in self.sign):
            raise StructureError("signs must be +1 or -1")

    def sign_of(self, vertex: str) -> int:
        if vertex not in self.lot.vertices:
            raise StructureError(f"unknown vertex {vertex!r}")
        return self.sign[self.lot.vertices.index(vertex)]


@dataclass(frozen=True)
class PropertyReport:
    injective: bool
    compressed: bool
    boundary_reducible: Optional[tuple[int, str]]  # (edge id, outer leaf)
    reduced: bool
    prime: bool
    proper_sublot_witness: Optional[frozenset[int]]


@dataclass(frozen=True)
class ChainStep:
    """One collapse: a sub-LOT of the current quotient, given by the edge
    ids it has in the *original* LOT, and the vertex it collapses to."""
    sublot_edges: frozenset[int]
    collapse_vertex: str


@dataclass(frozen=True)
class CollapseChain:
    steps: tuple[ChainStep, ...]
    final_quotient: Lot


@dataclass(frozen=True)
class FreeDecomposition:
    left_edges: frozenset[int]
    right_edges: frozenset[int]
    shared_vertex: str


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_lot(text: str) -> Lot:
    """Parse the line-based LOT file format into a Lot.

    Grammar: ``# comment`` | ``lot NAME`` | ``vertex NAME`` |
    ``edge TAIL HEAD LABEL``.  Vertices are implied by edge endpoints in
    order of first appearance; edge ids follow file order.  Labels must name
    a declared or implied vertex, and the underlying graph must be a tree
    (``StructureError`` otherwise).  Names become vertex indices as the
    lines are read, so the Lot comes with its int view built.
    """
    name = ""
    index: dict[str, int] = {}  # vertex -> index, in order of first appearance
    lines: list[tuple[list[str], int]] = []  # each edge line's words and number

    def add(v, lineno):
        # a name seen before passed this check where it first came
        if not _IDENT.match(v):
            raise ParseError(f"bad identifier {v!r}", lineno)
        index[v] = len(index)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "edge":
            if len(parts) != 4:
                raise ParseError("expected: edge TAIL HEAD LABEL", lineno)
            _, tail, head, _ = parts
            if tail == head:
                raise ParseError(f"self-loop at {tail!r}", lineno)
            if tail not in index:
                add(tail, lineno)
            if head not in index:
                add(head, lineno)
            lines.append((parts, lineno))
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex NAME", lineno)
            if parts[1] not in index:
                add(parts[1], lineno)
        elif kw == "lot":
            if len(parts) != 2:
                raise ParseError("expected: lot NAME", lineno)
            name = parts[1]
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)

    edges = []
    for (_, tail, head, label), lineno in lines:
        if label not in index:
            raise ParseError(f"unknown vertex in label: {label!r}", lineno)
        edges.append((index[tail], index[head], index[label]))
    iv = _view(len(index), tuple(edges))
    named = tuple([LotEdge._make(p[1:]) for p, _ in lines])
    return _lot_from_view(tuple(index), named, iv, _tree_paths(iv), name)


def format_lot(lot: Lot) -> str:
    lines = [f"lot {lot.name}" if lot.name else "lot unnamed"]
    lines += [f"vertex {v}" for v in lot.vertices]
    lines += [f"edge {t} {h} {l}" for t, h, l in lot.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# int-indexed view (performance: the exhaustive sweeps run these hot).  Each
# Lot builds its view once, in __post_init__, and keeps it in the ``_iv``
# field, which takes no part in equality, hashing or repr.
# ---------------------------------------------------------------------------

class _IntView(NamedTuple):
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (tail, head, label) as indices
    incident: tuple[tuple[int, ...], ...]    # vertex -> incident edge ids
    labelled: tuple[int, ...]                # vertex -> mask of edges it labels


def _int_view(lot: Lot) -> _IntView:
    """The view, checking on the way that vertex names are distinct, that
    every endpoint and label is a vertex and that no edge is a loop."""
    idx: dict[str, int] = {}
    for v in lot.vertices:
        if v in idx:
            raise StructureError(f"duplicate vertex {v!r}")
        idx[v] = len(idx)
    edges = []
    for i, (t, h, l) in enumerate(lot.edges):
        if t == h:
            raise StructureError(f"edge {i} is a self-loop at {t!r}")
        for v in (t, h):
            if v not in idx:
                raise StructureError(f"edge {i} uses unknown vertex {v!r}")
        if l not in idx:
            raise StructureError(f"edge {i} has unknown label {l!r}")
        edges.append((idx[t], idx[h], idx[l]))
    return _view(len(idx), tuple(edges))


def _tree_paths(iv: _IntView) -> tuple[int, ...]:
    """The view's root paths (``_root_paths``); StructureError unless its
    graph is a tree: n - 1 edges, and a walk from vertex 0 reaches every
    vertex.  The count comes first, so a LOT with no vertices walks nothing."""
    paths = _root_paths(iv) if len(iv.edges) == iv.n - 1 else [-1]
    if min(paths) < 0:
        raise StructureError("underlying graph is not a tree")
    return tuple(paths)


def _view(n: int, edges: tuple[tuple[int, int, int], ...]) -> _IntView:
    """The view of n vertices and the given (tail, head, label) edges."""
    inc = [[] for _ in range(n)]
    lab = [0] * n
    for i, (t, h, l) in enumerate(edges):
        inc[t].append(i)
        inc[h].append(i)
        lab[l] |= 1 << i
    return _IntView(n, edges, tuple(map(tuple, inc)), tuple(lab))


def sublot_vertices(lot: Lot, edge_ids: Iterable[int]) -> frozenset[str]:
    """Vertices spanned by a set of edges."""
    edges, names, out = lot._iv.edges, lot.vertices, set()
    for i in edge_ids:
        if not 0 <= i < len(edges):
            raise StructureError(f"unknown edge id {i}")
        t, h, _ = edges[i]
        out.add(names[t])
        out.add(names[h])
    return frozenset(out)


def is_sublot(lot: Lot, edge_ids: Iterable[int]) -> bool:
    """True iff the edges span a subtree with >= 1 edge whose labels are all
    vertices of that subtree.  Edges of a tree form a forest, which has
    |V| - |E| components, so k edges on k + 1 vertices are connected."""
    iv = lot._iv
    ids = set(edge_ids)
    if not ids or not all(0 <= i < len(iv.edges) for i in ids):
        return False
    vs = set()
    for i in ids:
        t, h, _ = iv.edges[i]
        vs.add(t)
        vs.add(h)
    return len(ids) == len(vs) - 1 and all(iv.edges[i][2] in vs for i in ids)


def extract_sublot(lot: Lot, edge_ids: Iterable[int]) -> Lot:
    """Standalone Lot for a sub-LOT: vertices in ambient order, edges in
    ambient id order (re-indexed densely)."""
    ids = sorted(set(edge_ids))
    if not is_sublot(lot, ids):
        raise PreconditionError(f"edge set {ids} is not a sub-LOT")
    edges = [lot._iv.edges[i] for i in ids]
    return _lot_on(lot, sorted({v for t, h, _ in edges for v in (t, h)}), edges,
                   tuple([lot.edges[i] for i in ids]))


def _lot_on(lot: Lot, kept: Sequence[int], edges: Iterable[tuple[int, int, int]],
            lot_edges: tuple[LotEdge, ...], name: str = "") -> Lot:
    """The Lot on the LOT's vertices ``kept`` (ascending indices) and the
    (tail, head, label) ``edges`` among them, named ``lot_edges``, built
    from the LOT's view; the caller guarantees that it is a LOT."""
    index = dict(zip(kept, range(len(kept))))
    view = _view(len(kept), tuple([(index[t], index[h], index[l])
                                   for t, h, l in edges]))
    return _lot_from_view(tuple(map(lot.vertices.__getitem__, kept)), lot_edges,
                          view, tuple(_root_paths(view)), name)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def is_injective(lot: Lot) -> bool:
    return all(not m & (m - 1) for m in lot._iv.labelled)


def is_compressed(lot: Lot) -> bool:
    return all(l != t and l != h for t, h, l in lot._iv.edges)


def boundary_reducible_witness(lot: Lot) -> Optional[tuple[int, str]]:
    """First boundary vertex (in vertex order) that never occurs as an edge
    label, together with its unique incident edge.  None if boundary reduced."""
    found = _leaf_witness(lot._iv, (1 << lot.num_edges) - 1, (1 << len(lot.vertices)) - 1)
    return found and (found[0], lot.vertices[found[1]])


def _leaf_witness(iv: _IntView, emask: int, vmask: int) -> Optional[tuple[int, int]]:
    """``boundary_reducible_witness`` of the sub-LOT on the edges ``emask``
    and vertices ``vmask``, as an edge id and a vertex index."""
    labelled, incident = iv.labelled, iv.incident
    for v in _bits(vmask):
        if not labelled[v] & emask:
            at = [i for i in incident[v] if emask >> i & 1]
            if len(at) == 1:
                return at[0], v
    return None


def check_properties(lot: Lot) -> PropertyReport:
    """All LOT-level property flags, with witnesses.

    The prime witness, when present, is the smallest proper sub-LOT in
    (size, sorted edge ids) order.
    """
    inj = is_injective(lot)
    comp = is_compressed(lot)
    bdry = boundary_reducible_witness(lot)
    # a smallest proper sub-LOT holds no smaller one, so it is the closure
    # of each of its edges
    full = (1 << lot.num_edges) - 1
    proper = {_bits(c) for c in _edge_closures(lot) if c != full}
    witness = (frozenset(min(proper, key=lambda ids: (len(ids), ids)))
               if proper else None)
    return PropertyReport(
        injective=inj,
        compressed=comp,
        boundary_reducible=bdry,
        reduced=comp and bdry is None,
        prime=witness is None,
        proper_sublot_witness=witness,
    )


# ---------------------------------------------------------------------------
# sub-LOTs
# ---------------------------------------------------------------------------

def sublot_closure(lot: Lot, seed_edge: int) -> frozenset[int]:
    """Minimal sub-LOT containing the seed edge.

    While some label of the current subtree is not one of its vertices,
    adjoin the unique tree path from the subtree to that label; the fixpoint
    is unique because tree paths are.  Read off the LOT's closure pass
    (``_edge_closures``).
    """
    if not 0 <= seed_edge < len(lot.edges):
        raise StructureError(f"unknown edge id {seed_edge}")
    return frozenset(_bits(_edge_closures(lot)[seed_edge]))


def _edge_closures(lot: Lot) -> tuple[int, ...]:
    """Every edge's closure as a mask, in one pass by edge id, each reusing
    those of smaller ids (``_closure_mask``); computed on first use and
    kept on the lot.

    The closure of edge e lies inside every sub-LOT that contains e, so a
    sub-LOT is the union of its edges' closures, and the union of two
    sub-LOTs that share a vertex is a sub-LOT: every sub-LOT question in
    this module is answered from the closures."""
    if lot._closures is None:
        iv, closures = lot._iv, []
        for e in range(len(iv.edges)):
            closures.append(_closure_mask(iv, lot._paths, e, closures))
        object.__setattr__(lot, "_closures", tuple(closures))
    return lot._closures


def _root_paths(iv: _IntView) -> list[int]:
    """Per vertex, the edge bitmask of its tree path to vertex 0; the path
    between u and v is then ``paths[u] ^ paths[v]``.  A vertex the walk
    from vertex 0 does not reach gets -1."""
    paths = [-1] * iv.n
    paths[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for ei in iv.incident[v]:
            t, h, _ = iv.edges[ei]
            w = h if t == v else t
            if paths[w] < 0:
                paths[w] = paths[v] | 1 << ei
                stack.append(w)
    return paths


def _closure_mask(iv: _IntView, paths: tuple[int, ...], seed_edge: int,
                  known: Sequence[int] = ()) -> int:
    """``sublot_closure`` as an edge bitmask (bit i = edge i).

    Adjoining the path from each label to the seed's tail adds exactly the
    path from the label to the subtree, since the rest of it already lies
    inside; so each edge's label is handled once, when the edge joins.  An
    edge f < len(known) brings its closure ``known[f]`` in whole instead:
    a sub-LOT holding f, whose labels are its own vertices."""
    base = paths[iv.edges[seed_edge][0]]
    mask = new = 1 << seed_edge
    k = len(known)
    while new:
        grow = 0
        while new:
            low = new & -new
            new ^= low
            f = low.bit_length() - 1
            if f < k:  # its closure's edges need no walk either
                mask |= known[f]
                new &= ~known[f]
            else:
                grow |= paths[iv.edges[f][2]] ^ base
        new = grow & ~mask
        mask |= new
    return mask


# [k][b]: the set bits of byte value b at byte k of a mask, as bit numbers
_BYTE_BITS = tuple(tuple(tuple(8 * k + i for i in range(8) if b >> i & 1)
                         for b in range(256)) for k in range(4))


def _bits(mask: int) -> tuple[int, ...]:
    """Edge ids of a bitmask, ascending, a byte at a time from
    ``_BYTE_BITS``; bytes past the fourth by their offset from byte 0."""
    t0, t1, t2, t3 = _BYTE_BITS
    if mask < 256:
        return t0[mask]
    out = (t0[mask & 255] + t1[mask >> 8 & 255] + t2[mask >> 16 & 255]
           + t3[mask >> 24 & 255])
    for offset in range(32, mask.bit_length(), 8):
        out += tuple(map(offset.__add__, t0[mask >> offset & 255]))
    return out


def _touch_masks(edges, rep, alive: int) -> list[int]:
    """Per edge id, the edges of ``alive`` meeting it, vertex v read as ``rep[v]``."""
    at = [0] * len(rep)
    for i in _bits(alive):
        t, h, _ = edges[i]
        at[rep[t]] |= 1 << i
        at[rep[h]] |= 1 << i
    return [at[rep[t]] | at[rep[h]] for t, h, _ in edges]


def _maximal(closures, edges, rep, alive: int) -> list[int]:
    """The maximal proper sub-LOTs, as masks sorted by sorted edge ids, of
    the quotient on the edge mask ``alive`` that reads vertex v of the
    (tail, head, label) ``edges`` as ``rep[v]``: closures[e] & alive.

    Every proper sub-LOT is a union of proper closures, so when their
    union U is connected and proper it is the one maximal sub-LOT.  Else
    a maximal proper sub-LOT M misses some edge e.  The closures of M's
    edges avoid e and, M being connected, lie in one connected piece of
    the union of all closures avoiding e; that piece is a proper sub-LOT
    containing M, so it is M.  The candidates are these pieces for every
    e, and the answer is their maximal members.
    """
    union = vs = 0
    for e in _bits(alive):
        if closures[e] & alive != alive:
            union |= closures[e] & alive
    if not union:
        return []
    for i in _bits(union):
        t, h, _ = edges[i]
        vs |= 1 << rep[t] | 1 << rep[h]
    if union != alive and vs.bit_count() == union.bit_count() + 1:
        return [union]
    # two or more maximal sub-LOTs: 584 quotients in certifying the <=6
    # sweep (46,550 settled by U), 51 on perfbench's large seeds 0-9 (968)
    touch = _touch_masks(edges, rep, alive)
    live = [closures[f] & alive for f in _bits(alive)]
    pieces = set()
    for e in _bits(alive):
        rest = 0
        for c in live:
            if not c >> e & 1:
                rest |= c
        while rest:
            piece = frontier = rest & -rest
            while frontier:
                frontier = _near(touch, frontier) & rest & ~piece
                piece |= frontier
            pieces.add(piece)
            rest &= ~piece
    tops = [p for p in pieces if not any(p != q and p & q == p for q in pieces)]
    return sorted(tops, key=_bits)


def _near(touch, edges: int) -> int:
    """Edges sharing a vertex with some edge of the mask."""
    out = 0
    for i in _bits(edges):
        out |= touch[i]
    return out


def _is_prime(lot: Lot, emask: int) -> bool:
    """No proper sub-LOT in the sub-LOT ``emask``: each edge closes up to it."""
    closures = _edge_closures(lot)
    return all(closures[e] == emask for e in _bits(emask))


def maximal_sublots(lot: Lot) -> list[frozenset[int]]:
    """The inclusion-maximal proper sub-LOTs, sorted by sorted edge ids."""
    iv = lot._iv
    return [frozenset(_bits(p)) for p in _maximal(
        _edge_closures(lot), iv.edges, range(iv.n), (1 << len(iv.edges)) - 1)]


def enumerate_sublots(lot: Lot) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """All sub-LOTs and the inclusion-maximal proper ones, both sorted by
    their sorted edge-id tuples.

    The search starts from the closures and grows each found S to
    S | closure(f) for every edge f outside S that touches it.  A sub-LOT
    S is reached from the closure of any of its edges, since while the
    current set is short of S some edge of S touches it.  So it takes
    time proportional to the number found (times m^2), never a scan of
    the 2^m edge subsets; the maximal ones come in polynomial time.
    """
    closures, iv = _edge_closures(lot), lot._iv
    touch = _touch_masks(iv.edges, range(iv.n), (1 << len(iv.edges)) - 1)
    found = set(closures)
    stack = list(found)
    while stack:
        s = stack.pop()
        near = _near(touch, s) & ~s
        while near:
            low = near & -near
            near ^= low
            grown = s | closures[low.bit_length() - 1]
            if grown not in found:
                found.add(grown)
                stack.append(grown)
    return [frozenset(ids) for ids in sorted(map(_bits, found))], maximal_sublots(lot)


# ---------------------------------------------------------------------------
# collapse and complete sets
# ---------------------------------------------------------------------------

def collapse(lot: Lot, sublot_edges: Iterable[int]) -> tuple[Lot, str]:
    """Collapse a sub-LOT to its unlabeled vertex.

    The quotient keeps the edges outside the sub-LOT (in ambient id order,
    re-indexed densely) and maps every vertex of the sub-LOT, as endpoint
    or label, to the collapse vertex: ``_collapse`` on the LOT's int view,
    as in the complete-set search.
    """
    ids = sorted(set(sublot_edges))
    if not is_sublot(lot, ids):
        raise PreconditionError(f"edge set {ids} is not a sub-LOT")
    if not is_injective(lot):
        raise PreconditionError("collapse requires an injective LOT")
    sub = sum(1 << i for i in ids)
    x, rep = _collapse(lot._iv.edges, range(lot._iv.n), sub)
    full = (1 << lot.num_edges) - 1
    return _quotient(lot, full & ~sub, rep, (1 << len(rep)) - 1), lot.vertices[x]


def complete_set_search(lot: Lot) -> Optional[tuple[list[frozenset[int]], CollapseChain]]:
    """Search for a complete set of sub-LOTs.

    Backtracks over choices of maximal proper sub-LOTs of the successive
    quotients (sorted by sorted edge ids) until a compressed injective
    prime quotient with at least one edge is reached.  Each quotient's
    closures are the LOT's own, masked to the quotient's edges, so a step
    costs polynomial time; only the number of choices explored can grow.
    Returns the disjoint preimage sub-LOTs of the original LOT plus the
    collapse chain, or None if no choice sequence works.

    Every quotient stays in the LOT's edge ids and vertex indices, as the
    verifier's chain replay does: ``alive`` masks the edges not yet
    collapsed, and ``rep`` maps each vertex to the quotient vertex it
    became.  The sub-LOTs of a quotient Q = L/S are those of L that avoid
    S's vertices and, with S taken out, those that hold S; so an edge's
    closure in Q is its closure in L minus S, and along the chain
    closure_Q(e) = closure_L(e) & alive.  Only the final quotient is built.
    """
    full = (1 << lot.num_edges) - 1
    if not is_injective(lot) or not is_compressed(lot):
        raise PreconditionError("complete_set_search requires an injective compressed LOT")
    if _is_prime(lot, full):
        raise PreconditionError("complete_set_search requires a non-prime LOT")
    found = _chain_search(lot, full, (1 << len(lot.vertices)) - 1)
    if found is None:
        return None
    steps = tuple([ChainStep(frozenset(_bits(sub)), lot.vertices[x])
                   for sub, x in found[0]])
    return [s.sublot_edges for s in steps], CollapseChain(steps, found[1])


def _chain_search(lot: Lot, emask: int, vmask: int):
    """``complete_set_search`` on the sub-LOT of the edges ``emask`` and
    vertices ``vmask``: (sub-LOT mask, collapse vertex) steps, final quotient."""
    iv, closures = lot._iv, _edge_closures(lot)

    def rec(alive: int, rep, steps: tuple[tuple[int, int], ...]):
        subs = _maximal(closures, iv.edges, rep, alive)
        if not subs:  # prime: the end, if compressed with an edge
            final = _quotient(lot, alive, rep, vmask) if steps and alive else None
            return (steps, final) if final and is_compressed(final) else None
        # no measured certify run has backtracked, but no lemma forbids it
        for sub in subs:
            x, new_rep = _collapse(iv.edges, rep, sub)
            found = rec(alive & ~sub, new_rep, steps + ((sub, x),))
            if found is not None:
                return found
        return None

    return rec(emask, range(iv.n), ())


def _collapse(edges, rep, sub: int) -> tuple[int, list[int]]:
    """Collapses the sub-LOT ``sub`` (edge mask) of the quotient that maps
    vertex v to ``rep[v]`` to its one vertex x labeling none of its edges
    (one, as the LOT is injective); returns x and the new vertex map."""
    inside = labels = 0
    for i in _bits(sub):
        t, h, l = edges[i]
        inside |= 1 << rep[t] | 1 << rep[h]
        labels |= 1 << rep[l]
    x = (inside & ~labels).bit_length() - 1
    return x, [x if inside >> r & 1 else r for r in rep]


def _quotient(lot: Lot, alive: int, rep, vmask: int) -> Lot:
    """The quotient on the edges ``alive`` of the sub-LOT on the vertices
    ``vmask``, v renamed ``rep[v]``; an edge off the collapses keeps its ``LotEdge``."""
    names, view, ids = lot.vertices, lot._iv.edges, _bits(alive)
    edges = [(rep[t], rep[h], rep[l]) for t, h, l in map(view.__getitem__, ids)]
    named = [lot.edges[i] if q == view[i] else
             LotEdge(names[q[0]], names[q[1]], names[q[2]])
             for i, q in zip(ids, edges)]
    return _lot_on(lot, [v for v in _bits(vmask) if rep[v] == v], edges,
                   tuple(named), lot.name)


# ---------------------------------------------------------------------------
# free decomposition
# ---------------------------------------------------------------------------

def free_decomposition(lot: Lot) -> Optional[FreeDecomposition]:
    """First decomposition of the LOT into two sub-LOTs sharing one vertex.

    Both sides are proper sub-LOTs holding every edge, so an edge whose
    closure is the whole LOT rules a decomposition out.  Else vertices are
    scanned in order.  At vertex v, number the branches hanging off v by
    smallest edge id.  A union of branches is a sub-LOT exactly when it
    holds the closure of each of its edges, so the valid sides are the
    nonempty proper unions of the classes of branches linked by the
    closure of an edge of one meeting the edges of another.  A closure is
    connected, so one that meets two branches holds both of their edges
    at v: the classes, as masks of v's edges, are the masks of v's edges
    that the closures hold, merged where they overlap.

    The left side is the class with the smallest branch mask: the first
    valid side a binary counter over the branches would meet.  Of two
    disjoint masks the smaller has the lower highest branch, so it is the
    class whose greatest smallest edge id is least.  The branch through
    v's edge f is the union of the tree paths from v that start with f,
    each read off the root paths as ``paths[v] ^ paths[w]``.
    """
    full = (1 << lot.num_edges) - 1
    found = _free_split(lot, full, (1 << len(lot.vertices)) - 1)
    if found is None:
        return None
    left, v = found
    return FreeDecomposition(frozenset(_bits(left)),
                             frozenset(_bits(left ^ full)), lot.vertices[v])


def _free_split(lot: Lot, emask: int, vmask: int) -> Optional[tuple[int, int]]:
    """``free_decomposition`` of the sub-LOT on the edges ``emask`` and
    vertices ``vmask``: the left side's edge mask and the shared vertex."""
    closures, ids = _edge_closures(lot), _bits(emask)
    if len(ids) < 2 or emask in map(closures.__getitem__, ids):
        return None
    iv, paths, vs = lot._iv, lot._paths, _bits(vmask)
    for v in vs:
        at_v = sum([1 << f for f in iv.incident[v]]) & emask
        if not at_v & (at_v - 1):
            continue
        classes: list[int] = []
        for held in {closures[e] & at_v for e in ids} - {0}:
            for other in [c for c in classes if c & held]:
                classes.remove(other)
                held |= other
            classes.append(held)
        if len(classes) < 2:
            continue
        branch = dict.fromkeys([1 << f for f in _bits(at_v)], 0)
        for w in vs:
            if w != v:
                p = paths[w] ^ paths[v]
                branch[p & at_v] |= p
        sides = [[branch[1 << f] for f in _bits(c)] for c in classes]
        return sum(min(sides, key=lambda bs: max(b & -b for b in bs))), v
    return None


# ---------------------------------------------------------------------------
# reorientation and sign change
# ---------------------------------------------------------------------------

def reorient(lot: Lot, flipped: Iterable[int]) -> Lot:
    """Swap tail and head on exactly the given edges; labels and ids stay."""
    flip = set(flipped)
    for i in flip:
        if not 0 <= i < lot.num_edges:
            raise StructureError(f"unknown edge id {i}")
    edges = tuple(LotEdge(e[1], e[0], e[2]) if i in flip else e
                  for i, e in enumerate(lot.edges))
    return Lot(lot.vertices, edges, name=lot.name)


def sign_change(lot: Lot, X: Iterable[str]) -> SignedLot:
    """Signed LOT with sign -1 exactly on X; the underlying LOT is unchanged."""
    xs = set(X)
    unknown = xs - set(lot.vertices)
    if unknown:
        raise StructureError(f"unknown vertices {sorted(unknown)}")
    return SignedLot(lot, tuple(-1 if v in xs else 1 for v in lot.vertices))
