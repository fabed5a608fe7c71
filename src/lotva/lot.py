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
from typing import Iterable, Optional

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
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise StructureError(f"duplicate vertex {v!r}")
            seen.add(v)
        for i, e in enumerate(self.edges):
            if e.tail == e.head:
                raise StructureError(f"edge {i} is a self-loop at {e.tail!r}")
            for v in (e.tail, e.head):
                if v not in seen:
                    raise StructureError(f"edge {i} uses unknown vertex {v!r}")
            if e.label not in seen:
                raise StructureError(f"edge {i} has unknown label {e.label!r}")
        object.__setattr__(self, "_iv", _int_view(self))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_tree(self) -> bool:
        if len(self.edges) != len(self.vertices) - 1:
            return False
        if not self.edges:
            return len(self.vertices) == 1
        return (sublot_vertices(self, range(len(self.edges))) == frozenset(self.vertices)
                and _spans_connected(self, range(len(self.edges))))

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

@dataclass(frozen=True)
class _IntView:
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (tail, head, label) as indices
    incident: tuple[tuple[int, ...], ...]    # vertex -> incident edge ids
    label_count: tuple[int, ...]             # vertex -> #edges labeled by it


def _int_view(lot: Log) -> _IntView:
    idx = {v: i for i, v in enumerate(lot.vertices)}
    n = len(lot.vertices)
    edges = tuple((idx[e.tail], idx[e.head], idx[e.label]) for e in lot.edges)
    inc = [[] for _ in range(n)]
    lab = [0] * n
    for i, (t, h, l) in enumerate(edges):
        inc[t].append(i)
        inc[h].append(i)
        lab[l] += 1
    return _IntView(n, edges, tuple(map(tuple, inc)), tuple(lab))


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
    proper = [s for s in enumerate_sublots(lot)[0] if len(s) < lot.num_edges]
    witness = min(proper, key=lambda s: (len(s), tuple(sorted(s)))) if proper else None
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
    ids = {seed_edge}
    t, h, _ = iv.edges[seed_edge]
    verts = {t, h}
    while True:
        missing = None
        for i in sorted(ids):
            l = iv.edges[i][2]
            if l not in verts:
                missing = l
                break
        if missing is None:
            return frozenset(ids)
        # BFS from the missing label back into the current subtree
        prev = {missing: (-1, -1)}
        queue = [missing]
        hit = None
        while queue and hit is None:
            v = queue.pop(0)
            if v in verts:
                hit = v
                break
            for ei in iv.incident[v]:
                t, h, _ = iv.edges[ei]
                w = h if t == v else t
                if w not in prev:
                    prev[w] = (v, ei)
                    queue.append(w)
        v = hit
        while v != missing:
            pv, pe = prev[v]
            ids.add(pe)
            verts.add(v)
            verts.add(pv)
            v = pv


def enumerate_sublots(lot: Lot) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """All sub-LOTs and the inclusion-maximal proper ones.

    Brute force over connected edge subsets; fine at desk scale.  Both lists
    are sorted by their sorted edge-id tuples.
    """
    iv = lot._iv
    m = len(iv.edges)
    all_subs: list[frozenset[int]] = []
    for mask in range(1, 1 << m):
        ids = [i for i in range(m) if mask >> i & 1]
        vs = set()
        for i in ids:
            t, h, _ = iv.edges[i]
            vs.add(t)
            vs.add(h)
        if len(ids) != len(vs) - 1:
            continue
        if not all(iv.edges[i][2] in vs for i in ids):
            continue
        if not _spans_connected(lot, ids):
            continue
        all_subs.append(frozenset(ids))
    all_subs.sort(key=lambda s: tuple(sorted(s)))
    proper = [s for s in all_subs if len(s) < m]
    maximal = [s for s in proper
               if not any(s < t for t in proper)]
    return all_subs, maximal


def is_prime(lot: Lot) -> bool:
    return check_properties(lot).prime


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
    quotients, in ``enumerate_sublots`` order, until a compressed injective
    prime quotient with at least one edge is reached.  Returns the disjoint
    preimage sub-LOTs of the original LOT plus the collapse chain, or None
    if no choice sequence works.
    """
    if not is_injective(lot) or not is_compressed(lot):
        raise PreconditionError("complete_set_search requires an injective compressed LOT")
    if is_prime(lot):
        raise PreconditionError("complete_set_search requires a non-prime LOT")

    def rec(current: Lot, orig_ids: tuple[int, ...], steps: tuple[ChainStep, ...]):
        # orig_ids[i] = original edge id of current's edge i
        report = check_properties(current)
        if report.prime:
            if steps and report.compressed and current.num_edges >= 1:
                return steps, current
            return None
        _, maximal = enumerate_sublots(current)
        for sub in maximal:
            local = sorted(sub)
            orig = frozenset(orig_ids[i] for i in local)
            quotient, x = collapse(current, local)
            kept = [i for i in range(current.num_edges) if i not in sub]
            new_orig = tuple(orig_ids[i] for i in kept)
            found = rec(quotient, new_orig, steps + (ChainStep(orig, x),))
            if found is not None:
                return found
        return None

    found = rec(lot, tuple(range(lot.num_edges)), ())
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

    Deterministic scan: vertices in order; at each vertex the incident
    branches (ordered by smallest edge id) are bipartitioned by a binary
    counter, the bit-set side becoming the left half.
    """
    if lot.num_edges < 2:
        return None
    iv = lot._iv
    all_ids = frozenset(range(lot.num_edges))
    for vi in range(iv.n):
        if len(iv.incident[vi]) < 2:
            continue
        branches = _branches_at(lot, vi)
        k = len(branches)
        for mask in range(1, (1 << k) - 1):
            left = frozenset().union(*(branches[j] for j in range(k) if mask >> j & 1))
            right = all_ids - left
            if _labels_internal(lot, left) and _labels_internal(lot, right):
                return FreeDecomposition(left, right, lot.vertices[vi])
    return None


def _branches_at(lot: Lot, vi: int) -> list[frozenset[int]]:
    """Edge sets of the connected components hanging off vertex vi,
    ordered by smallest edge id."""
    iv = lot._iv
    seen_edges: set[int] = set()
    branches = []
    for start in iv.incident[vi]:
        if start in seen_edges:
            continue
        comp = {start}
        t, h, _ = iv.edges[start]
        frontier = [h if t == vi else t]
        visited = {vi}
        while frontier:
            v = frontier.pop()
            if v in visited:
                continue
            visited.add(v)
            for ei in iv.incident[v]:
                if ei not in comp:
                    comp.add(ei)
                    t, h, _ = iv.edges[ei]
                    w = h if t == v else t
                    if w != vi:
                        frontier.append(w)
        seen_edges |= comp
        branches.append(frozenset(comp))
    branches.sort(key=min)
    return branches


def _labels_internal(lot: Lot, edge_ids: frozenset[int]) -> bool:
    iv = lot._iv
    vs = set()
    for i in edge_ids:
        t, h, _ = iv.edges[i]
        vs.add(t)
        vs.add(h)
    return all(iv.edges[i][2] in vs for i in edge_ids)


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
