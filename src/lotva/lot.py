"""Labeled oriented graphs and trees: data model, parsing and tree-level structure.

A LOG is a finite oriented graph whose edges each carry a vertex as label; a
LOT is a LOG whose underlying graph is a tree.  Everything here is purely
combinatorial: properties (injective, compressed, boundary reduced, prime),
sub-LOTs, collapses, complete sets of sub-LOTs, free decompositions,
reorientation and vertex sign change.

All values are immutable; operations are pure functions.  Deterministic
orders are used everywhere (file order for vertices/edges, sorted edge-id
sets for subtree enumerations) so that searches are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import ParseError, PreconditionError, StructureError

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class LotEdge:
    """Oriented labeled edge; its id is its position in the edge tuple."""
    tail: str
    head: str
    label: str


@dataclass(frozen=True)
class Log:
    """Labeled oriented graph on named vertices.

    Invariants: labels are vertices, no self-loops, edge ids are dense
    positions 0..E-1.  ``name`` is metadata and ignored for equality.
    """
    vertices: tuple[str, ...]
    edges: tuple[LotEdge, ...]
    name: str = field(default="", compare=False)
    _iv: _IntView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_iv", _int_view(self))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_tree(self) -> bool:
        """n - 1 edges, and a walk from vertex 0 reaches every vertex."""
        iv = self._iv
        return len(iv.edges) == iv.n - 1 and min(_root_paths(iv)) >= 0

    def as_lot(self, name: str | None = None) -> "Lot":
        return Lot(self.vertices, self.edges,
                   name=self.name if name is None else name)


@dataclass(frozen=True)
class Lot(Log):
    """A LOG whose underlying undirected graph is a tree."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_tree():
            raise StructureError("underlying graph is not a tree")


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

def parse_log(text: str) -> Log:
    """Parse the line-based LOT file format into a Log.

    Grammar: ``# comment`` | ``lot NAME`` | ``vertex NAME`` |
    ``edge TAIL HEAD LABEL``.  Vertices are implied by edge endpoints in
    order of first appearance; edge ids follow file order.  Labels must name
    a declared or implied vertex.
    """
    name = ""
    vertices: list[str] = []
    vset: set[str] = set()
    raw_edges: list[tuple[str, str, str, int]] = []

    def add_vertex(v, lineno):
        if not _IDENT.match(v):
            raise ParseError(f"bad identifier {v!r}", lineno)
        if v not in vset:
            vset.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "lot":
            if len(parts) != 2:
                raise ParseError("expected: lot NAME", lineno)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex NAME", lineno)
            add_vertex(parts[1], lineno)
        elif kw == "edge":
            if len(parts) != 4:
                raise ParseError("expected: edge TAIL HEAD LABEL", lineno)
            tail, head, label = parts[1:]
            if tail == head:
                raise ParseError(f"self-loop at {tail!r}", lineno)
            add_vertex(tail, lineno)
            add_vertex(head, lineno)
            raw_edges.append((tail, head, label, lineno))
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)

    for tail, head, label, lineno in raw_edges:
        if label not in vset:
            raise ParseError(f"unknown vertex in label: {label!r}", lineno)
    edges = tuple(LotEdge(t, h, l) for t, h, l, _ in raw_edges)
    return Log(tuple(vertices), edges, name=name)


def parse_lot(text: str) -> Lot:
    """Parse a LOT file and require the tree invariant."""
    return parse_log(text).as_lot()


def format_lot(lot: Log) -> str:
    lines = [f"lot {lot.name}" if lot.name else "lot unnamed"]
    lines += [f"vertex {v}" for v in lot.vertices]
    lines += [f"edge {e.tail} {e.head} {e.label}" for e in lot.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# int-indexed view (performance: the exhaustive sweeps run these hot).  Each
# Log builds its view once, in __post_init__, and keeps it in the ``_iv``
# field, which takes no part in equality, hashing or repr.
# ---------------------------------------------------------------------------

class _IntView(NamedTuple):
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (tail, head, label) as indices
    incident: tuple[tuple[int, ...], ...]    # vertex -> incident edge ids
    label_count: tuple[int, ...]             # vertex -> #edges labeled by it


def _int_view(lot: Log) -> _IntView:
    """The view, checking the Log invariants on the way."""
    idx: dict[str, int] = {}
    for v in lot.vertices:
        if v in idx:
            raise StructureError(f"duplicate vertex {v!r}")
        idx[v] = len(idx)
    n = len(idx)
    edges = []
    inc = [[] for _ in range(n)]
    lab = [0] * n
    for i, e in enumerate(lot.edges):
        if e.tail == e.head:
            raise StructureError(f"edge {i} is a self-loop at {e.tail!r}")
        for v in (e.tail, e.head):
            if v not in idx:
                raise StructureError(f"edge {i} uses unknown vertex {v!r}")
        if e.label not in idx:
            raise StructureError(f"edge {i} has unknown label {e.label!r}")
        t, h, l = idx[e.tail], idx[e.head], idx[e.label]
        edges.append((t, h, l))
        inc[t].append(i)
        inc[h].append(i)
        lab[l] += 1
    return _IntView(n, tuple(edges), tuple(map(tuple, inc)), tuple(lab))


def _spans_connected(lot: Log, edge_ids: Iterable[int]) -> bool:
    iv = lot._iv
    ids = list(edge_ids)
    if not ids:
        return True
    inset = set(ids)
    verts = set()
    for i in ids:
        t, h, _ = iv.edges[i]
        verts.add(t)
        verts.add(h)
    start = iv.edges[ids[0]][0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for ei in iv.incident[v]:
            if ei in inset:
                t, h, _ = iv.edges[ei]
                w = h if t == v else t
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen == verts


def sublot_vertices(lot: Log, edge_ids: Iterable[int]) -> frozenset[str]:
    """Vertices spanned by a set of edges."""
    out = set()
    for i in edge_ids:
        if not 0 <= i < len(lot.edges):
            raise StructureError(f"unknown edge id {i}")
        e = lot.edges[i]
        out.add(e.tail)
        out.add(e.head)
    return frozenset(out)


def is_sublot(lot: Log, edge_ids: Iterable[int]) -> bool:
    """True iff the edges span a subtree with >= 1 edge whose labels are all
    vertices of that subtree."""
    iv = lot._iv
    ids = sorted(set(edge_ids))
    if not ids or not all(0 <= i < len(iv.edges) for i in ids):
        return False
    vs = set()
    for i in ids:
        t, h, _ = iv.edges[i]
        vs.add(t)
        vs.add(h)
    if len(ids) != len(vs) - 1 or not _spans_connected(lot, ids):
        return False
    return all(iv.edges[i][2] in vs for i in ids)


def extract_sublot(lot: Lot, edge_ids: Iterable[int], name: str = "") -> Lot:
    """Standalone Lot for a sub-LOT: vertices in ambient order, edges in
    ambient id order (re-indexed densely)."""
    ids = sorted(set(edge_ids))
    if not is_sublot(lot, ids):
        raise PreconditionError(f"edge set {ids} is not a sub-LOT")
    vs = sublot_vertices(lot, ids)
    vertices = tuple(v for v in lot.vertices if v in vs)
    edges = tuple(lot.edges[i] for i in ids)
    return Lot(vertices, edges, name=name)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def is_injective(lot: Log) -> bool:
    return all(c <= 1 for c in lot._iv.label_count)


def is_compressed(lot: Log) -> bool:
    return all(l != t and l != h for t, h, l in lot._iv.edges)


def boundary_reducible_witness(lot: Lot) -> Optional[tuple[int, str]]:
    """First boundary vertex (in vertex order) that never occurs as an edge
    label, together with its unique incident edge.  None if boundary reduced."""
    iv = lot._iv
    for vi, v in enumerate(lot.vertices):
        if len(iv.incident[vi]) == 1 and iv.label_count[vi] == 0:
            return (iv.incident[vi][0], v)
    return None


def check_properties(lot: Lot) -> PropertyReport:
    """All LOT-level property flags, with witnesses.

    The prime witness, when present, is the smallest proper sub-LOT in
    (size, sorted edge ids) order.
    """
    inj = is_injective(lot)
    comp = is_compressed(lot)
    bdry = boundary_reducible_witness(lot)
    witness = SublotStructure(lot).witness()
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
    is unique because tree paths are.
    """
    iv = lot._iv
    if not 0 <= seed_edge < len(iv.edges):
        raise StructureError(f"unknown edge id {seed_edge}")
    return frozenset(_bits(_closure_mask(iv, _root_paths(iv), seed_edge)))


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


def _closure_mask(iv: _IntView, paths: list[int], seed_edge: int) -> int:
    """``sublot_closure`` as an edge bitmask (bit i = edge i).

    Adjoining the path from each label to the seed's tail adds exactly the
    path from the label to the subtree, since the rest of it already lies
    inside; so each edge's label is handled once, when the edge joins."""
    base = paths[iv.edges[seed_edge][0]]
    mask = new = 1 << seed_edge
    while new:
        grow = 0
        while new:
            low = new & -new
            new ^= low
            grow |= paths[iv.edges[low.bit_length() - 1][2]] ^ base
        new = grow & ~mask
        mask |= new
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    """Edge ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class SublotStructure:
    """Sub-LOT structure of one LOT, from its m edge closures.

    The closure of edge e lies inside every sub-LOT that contains e, so a
    sub-LOT is the union of its edges' closures, and the union of two
    sub-LOTs that share a vertex is a sub-LOT.  Everything below follows
    from that in polynomial time, except ``all_sublots``, whose cost grows
    with the number of sub-LOTs it returns.  Build one per LOT and pass it
    along; nothing is cached beyond the instance.
    """

    __slots__ = ("closures", "full", "_touch")

    def __init__(self, lot: Lot):
        iv = lot._iv
        self.full = (1 << len(iv.edges)) - 1
        # edge bitmasks: closure of each edge; edges sharing a vertex with it
        paths = _root_paths(iv)
        self.closures = tuple(_closure_mask(iv, paths, e)
                              for e in range(len(iv.edges)))
        at = [0] * iv.n
        for i, (t, h, _) in enumerate(iv.edges):
            at[t] |= 1 << i
            at[h] |= 1 << i
        self._touch = tuple(at[t] | at[h] for t, h, _ in iv.edges)

    @property
    def prime(self) -> bool:
        """No proper sub-LOT: every closure is the whole LOT."""
        return all(c == self.full for c in self.closures)

    def witness(self) -> Optional[frozenset[int]]:
        """The smallest proper sub-LOT in (size, sorted edge ids) order, or
        None if prime.  A smallest one holds no smaller sub-LOT, so it is
        the closure of each of its edges."""
        proper = {_bits(c) for c in self.closures if c != self.full}
        if not proper:
            return None
        return frozenset(min(proper, key=lambda ids: (len(ids), ids)))

    def maximal(self) -> list[frozenset[int]]:
        """The inclusion-maximal proper sub-LOTs, sorted by sorted edge ids.

        A maximal proper sub-LOT M misses some edge e.  The closures of
        M's edges avoid e and, M being connected, lie in one connected
        piece of the union of all closures avoiding e; that piece is a
        proper sub-LOT containing M, so it is M.  The candidates are these
        pieces for every e, and the answer is their maximal members.
        """
        pieces = set()
        for e in range(len(self.closures)):
            rest = 0
            for c in self.closures:
                if not c >> e & 1:
                    rest |= c
            while rest:
                piece = self._piece(rest, rest & -rest)
                pieces.add(piece)
                rest &= ~piece
        tops = [p for p in pieces
                if not any(p != q and p & q == p for q in pieces)]
        return [frozenset(ids) for ids in sorted(map(_bits, tops))]

    def all_sublots(self) -> list[frozenset[int]]:
        """Every sub-LOT, sorted by sorted edge ids.

        Starts from the closures and grows each found S to S | closure(f)
        for every edge f outside S that touches it.  A sub-LOT S is reached
        from the closure of any of its edges, since while the current set
        is short of S some edge of S touches it."""
        found = set(self.closures)
        stack = list(found)
        while stack:
            s = stack.pop()
            near = self._near(s) & ~s
            while near:
                low = near & -near
                near ^= low
                grown = s | self.closures[low.bit_length() - 1]
                if grown not in found:
                    found.add(grown)
                    stack.append(grown)
        return [frozenset(ids) for ids in sorted(map(_bits, found))]

    def _near(self, edges: int) -> int:
        """Edges sharing a vertex with some edge of the mask."""
        out = 0
        for i in _bits(edges):
            out |= self._touch[i]
        return out

    def _piece(self, edges: int, start: int) -> int:
        """The connected piece of the edge mask ``edges`` holding ``start``."""
        piece = frontier = start
        while frontier:
            frontier = self._near(frontier) & edges & ~piece
            piece |= frontier
        return piece


def enumerate_sublots(lot: Lot) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """All sub-LOTs and the inclusion-maximal proper ones.

    Both come from ``SublotStructure``: the maximal ones in polynomial time,
    the full list in time proportional to its length (times m^2), never by
    a scan of the 2^m edge subsets.  Both lists are sorted by their sorted
    edge-id tuples.
    """
    sub = SublotStructure(lot)
    return sub.all_sublots(), sub.maximal()


def is_prime(lot: Lot) -> bool:
    return SublotStructure(lot).prime


# ---------------------------------------------------------------------------
# collapse and complete sets
# ---------------------------------------------------------------------------

def collapse_vertex_of(lot: Lot, sublot_edges: Iterable[int]) -> str:
    """The unique vertex of the sub-LOT not occurring as a label inside it.

    Existence and uniqueness need injectivity of the ambient LOT; anything
    else is reported as a precondition violation.
    """
    ids = sorted(set(sublot_edges))
    vs = sublot_vertices(lot, ids)
    internal_labels = {lot.edges[i].label for i in ids}
    candidates = sorted(vs - internal_labels)
    if len(candidates) != 1:
        raise PreconditionError(
            f"collapse vertex is not unique ({candidates}); input not injective?")
    return candidates[0]


def collapse(lot: Lot, sublot_edges: Iterable[int]) -> tuple[Lot, str]:
    """Collapse a sub-LOT to its unlabeled vertex.

    The quotient keeps the edges outside the sub-LOT (in ambient id order,
    re-indexed densely), remaps endpoints inside the sub-LOT to the collapse
    vertex and leaves labels unchanged.
    """
    ids = sorted(set(sublot_edges))
    if not is_sublot(lot, ids):
        raise PreconditionError(f"edge set {ids} is not a sub-LOT")
    if not is_injective(lot):
        raise PreconditionError("collapse requires an injective LOT")
    x = collapse_vertex_of(lot, ids)
    inside = sublot_vertices(lot, ids)

    def q(v: str) -> str:
        return x if v in inside else v

    kept = [i for i in range(lot.num_edges) if i not in set(ids)]
    edges = tuple(LotEdge(q(lot.edges[i].tail), q(lot.edges[i].head),
                          q(lot.edges[i].label)) for i in kept)
    vset = {x}
    for e in edges:
        vset.add(e.tail)
        vset.add(e.head)
    vertices = tuple(v for v in lot.vertices if v in vset)
    return Lot(vertices, edges, name=lot.name), x


def complete_set_search(lot: Lot) -> Optional[tuple[list[frozenset[int]], CollapseChain]]:
    """Search for a complete set of sub-LOTs.

    Backtracks over choices of maximal proper sub-LOTs of the successive
    quotients (``SublotStructure.maximal``, sorted by sorted edge ids) until
    a compressed injective prime quotient with at least one edge is
    reached.  Each quotient's structure comes from its edge closures, so a
    step costs polynomial time; only the number of choices explored can
    grow.  Returns the disjoint preimage sub-LOTs of the original LOT plus
    the collapse chain, or None if no choice sequence works.
    """
    if not is_injective(lot) or not is_compressed(lot):
        raise PreconditionError("complete_set_search requires an injective compressed LOT")
    structure = SublotStructure(lot)
    if structure.prime:
        raise PreconditionError("complete_set_search requires a non-prime LOT")
    return search_complete_set(lot, structure)


def search_complete_set(lot: Lot, structure: SublotStructure
                        ) -> Optional[tuple[list[frozenset[int]], CollapseChain]]:
    """``complete_set_search`` on a LOT whose structure the caller has
    already built, without the precondition checks."""

    def rec(current: Lot, structure: SublotStructure,
            orig_ids: tuple[int, ...], steps: tuple[ChainStep, ...]):
        # orig_ids[i] = original edge id of current's edge i
        if structure.prime:
            if steps and is_compressed(current) and current.num_edges >= 1:
                return steps, current
            return None
        for sub in structure.maximal():
            local = sorted(sub)
            orig = frozenset(orig_ids[i] for i in local)
            quotient, x = collapse(current, local)
            kept = [i for i in range(current.num_edges) if i not in sub]
            new_orig = tuple(orig_ids[i] for i in kept)
            found = rec(quotient, SublotStructure(quotient), new_orig,
                        steps + (ChainStep(orig, x),))
            if found is not None:
                return found
        return None

    found = rec(lot, structure, tuple(range(lot.num_edges)), ())
    if found is None:
        return None
    steps, final = found
    sublots = [s.sublot_edges for s in steps]
    return sublots, CollapseChain(steps, final)


# ---------------------------------------------------------------------------
# free decomposition
# ---------------------------------------------------------------------------

def free_decomposition(lot: Lot) -> Optional[FreeDecomposition]:
    """First decomposition of the LOT into two sub-LOTs sharing one vertex.

    Vertices are scanned in order.  At vertex v, number the branches
    hanging off v by smallest edge id.  A side holding an edge e whose
    label is not v must also hold the branch containing label(e), so the
    valid sides are exactly the nonempty proper unions of the classes of
    branches linked that way.  The left side is the class with the
    smallest branch mask: the first valid side a binary counter over the
    branches would meet.
    """
    if lot.num_edges < 2:
        return None
    iv = lot._iv
    for vi in range(iv.n):
        if len(iv.incident[vi]) < 2:
            continue
        branches, branch_of = _branches_at(iv, vi)
        linked: list[list[int]] = [[] for _ in branches]
        for j, edges in enumerate(branches):
            for ei in _bits(edges):
                label = iv.edges[ei][2]
                if label != vi:
                    linked[j].append(branch_of[label])
                    linked[branch_of[label]].append(j)
        classes = []
        placed = [False] * len(branches)
        for j in range(len(branches)):
            if placed[j]:
                continue
            placed[j] = True
            mask, stack = 0, [j]
            while stack:
                b = stack.pop()
                mask |= 1 << b
                for c in linked[b]:
                    if not placed[c]:
                        placed[c] = True
                        stack.append(c)
            classes.append(mask)
        if len(classes) >= 2:
            left = 0
            for j in _bits(min(classes)):
                left |= branches[j]
            right = left ^ ((1 << lot.num_edges) - 1)
            return FreeDecomposition(frozenset(_bits(left)),
                                     frozenset(_bits(right)), lot.vertices[vi])
    return None


def _branches_at(iv: _IntView, vi: int) -> tuple[list[int], list[int]]:
    """Edge bitmasks of the connected components hanging off vertex vi,
    ordered by smallest edge id, and the branch index of every other
    vertex (-1 at vi)."""
    owner = [-1] * iv.n  # vertex -> the edge of vi its branch hangs off
    masks: dict[int, int] = {}
    for start in iv.incident[vi]:
        t, h, _ = iv.edges[start]
        first = h if t == vi else t
        owner[first] = start
        masks[start] = 0
        stack = [first]
        while stack:
            v = stack.pop()
            for ei in iv.incident[v]:
                masks[start] |= 1 << ei
                a, b, _ = iv.edges[ei]
                w = b if a == v else a
                if w != vi and owner[w] < 0:
                    owner[w] = start
                    stack.append(w)
    order = sorted(masks, key=lambda s: masks[s] & -masks[s])
    index = {s: j for j, s in enumerate(order)}
    branch_of = [index[o] if o >= 0 else -1 for o in owner]
    return [masks[s] for s in order], branch_of


# ---------------------------------------------------------------------------
# reorientation and sign change
# ---------------------------------------------------------------------------

def reorient(lot: Lot, flipped: Iterable[int]) -> Lot:
    """Swap tail and head on exactly the given edges; labels and ids stay."""
    flip = set(flipped)
    for i in flip:
        if not 0 <= i < lot.num_edges:
            raise StructureError(f"unknown edge id {i}")
    edges = tuple(LotEdge(e.head, e.tail, e.label) if i in flip else e
                  for i, e in enumerate(lot.edges))
    return Lot(lot.vertices, edges, name=lot.name)


def sign_change(lot: Lot, X: Iterable[str]) -> SignedLot:
    """Signed LOT with sign -1 exactly on X; the underlying LOT is unchanged."""
    xs = set(X)
    unknown = xs - set(lot.vertices)
    if unknown:
        raise StructureError(f"unknown vertices {sorted(unknown)}")
    return SignedLot(lot, tuple(-1 if v in xs else 1 for v in lot.vertices))
