"""Link graphs of one-vertex 2-complexes.

The link lk(L) is a multigraph on the edge-ends x+ (near the start of edge
x) and x- (near the end); its edges are the corners of 2-cells.  The corner
at position i of a cell with boundary w = l_1 ... l_q joins the terminal end
of l_i to the initial end of l_{i+1}, read cyclically:

    terminal(x, +) = x-    initial(x, +) = x+
    terminal(x, -) = x+    initial(x, -) = x-

Also here: the positive/negative sublinks, the relative link lk(L, K) with
its Delta-blocks, and the relative forest check (quotient multigraph has no
cycles) used by the weight machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .errors import PreconditionError, StructureError
from .complexes import SubcomplexFamily, TwoComplex, validate_family


class EdgeEnd(NamedTuple):
    edge: str
    polarity: int  # +1 for x+, -1 for x-

    def __str__(self):
        return f"{self.edge}{'+' if self.polarity > 0 else '-'}"


class Corner(NamedTuple):
    """Unordered pair of edge-ends with a stable id.

    ``provenance`` is ("cell", cell name, position) for genuine corners and
    ("delta", block index) for synthetic Delta edges of a relative link.
    """
    id: int
    a: EdgeEnd
    b: EdgeEnd
    provenance: tuple

    @property
    def corner_class(self) -> str:
        pa = self.a.polarity
        if pa != self.b.polarity:
            return "+-"
        return "++" if pa > 0 else "--"

    @property
    def is_delta(self) -> bool:
        return self.provenance[0] == "delta"


@dataclass(frozen=True)
class DeltaBlock:
    nodes: frozenset[EdgeEnd]
    corner_ids: frozenset[int]


@dataclass(frozen=True)
class LinkGraph:
    """Multigraph on edge-ends; loops and parallel corners are allowed.

    ``ends`` holds the corners' ends as node positions: ends[2 * i] and
    ends[2 * i + 1] are where a and b of corners[i] sit in ``nodes``.  The
    builders pass it in; otherwise it is derived from the corners here.
    """
    nodes: tuple[EdgeEnd, ...]
    corners: tuple[Corner, ...]
    delta_blocks: Optional[tuple[DeltaBlock, ...]] = None
    ends: Optional[tuple[int, ...]] = field(default=None, compare=False,
                                            repr=False)

    def __post_init__(self):
        if self.ends is None:
            pos = {n: i for i, n in enumerate(self.nodes)}
            try:
                ends = tuple(pos[e] for c in self.corners for e in (c.a, c.b))
            except KeyError as exc:
                raise StructureError(f"corner end {exc.args[0]} is not a node") from None
            object.__setattr__(self, "ends", ends)


def corner_offsets(cx: TwoComplex) -> list[int]:
    """Per cell, the id in lk(L) of its corner at position 0; then the
    number of corners.  Corners are numbered cell by cell, by position."""
    return list(accumulate((len(c.boundary) for c in cx.cells), initial=0))


def int_corners(cx: TwoComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The corners of lk(L) on ints, in one pass over the cells.

    Corner i joins ends[2 * i] and ends[2 * i + 1]; the corners of cell j
    are first[j] .. first[j + 1] - 1 (``corner_offsets``).  An end is
    2 * edge index + (0 for x+, 1 for x-), so the initial end of the
    letter x^s is 2k + (s < 0) and its terminal end that number ^ 1.
    """
    col = {x: 2 * k for k, x in enumerate(cx.edge_names)}
    ends: list[int] = []
    for cell in cx.cells:
        init = [col[x] + (s < 0) for x, s in cell.boundary.letters]
        for u, v in zip(init, init[1:] + init[:1]):
            ends += (u ^ 1, v)
    return tuple(ends), tuple(corner_offsets(cx))


def _complex_corners(cx: TwoComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``int_corners(cx)``, computed on first use and kept on cx."""
    if cx._int_corners is None:
        object.__setattr__(cx, "_int_corners", int_corners(cx))
    return cx._int_corners


def _link(cx: TwoComplex, removed: frozenset[str]) -> tuple[
        tuple[EdgeEnd, ...], list[Corner], list[int]]:
    """The nodes x+, x- per edge in edge order (so end e is nodes[e]), and
    the corners and their ends of every cell not in ``removed``, numbered
    from 0."""
    nodes = tuple(EdgeEnd(x, s) for x in cx.edge_names for s in (1, -1))
    ends, first = _complex_corners(cx)
    corners, kept_ends = [], []
    for j, cell in enumerate(cx.cells):
        if cell.name in removed:
            continue
        lo = first[j]
        for i in range(lo, first[j + 1]):
            a, b = ends[2 * i], ends[2 * i + 1]
            corners.append(Corner(len(corners), nodes[a], nodes[b],
                                  ("cell", cell.name, i - lo)))
            kept_ends += (a, b)
    return nodes, corners, kept_ends


def build_link(cx: TwoComplex) -> LinkGraph:
    """Absolute link: all edge-ends, one corner per boundary position."""
    nodes, corners, ends = _link(cx, frozenset())
    return LinkGraph(nodes, tuple(corners), None, tuple(ends))


def signed_sublinks(g: LinkGraph) -> tuple[LinkGraph, LinkGraph]:
    """Full subgraphs on the positive / negative nodes (corner ids kept)."""
    if g.delta_blocks is not None:
        raise PreconditionError("signed_sublinks expects an absolute link")
    return (_polarity_subgraph(g, 1), _polarity_subgraph(g, -1))


def _polarity_subgraph(g: LinkGraph, pol: int) -> LinkGraph:
    nodes = tuple(n for n in g.nodes if n.polarity == pol)
    corners = tuple(c for c in g.corners
                    if c.a.polarity == pol and c.b.polarity == pol)
    return LinkGraph(nodes, corners)


def build_relative_link(cx: TwoComplex, fam: SubcomplexFamily) -> LinkGraph:
    """lk(L, K): corners of K-cells removed, a Delta-block inserted per part.

    Delta(K_i) is the complete graph on the ends of part i's edges plus one
    loop at every such end.  Corners of cells outside K are kept even when
    both their endpoints lie in a part.
    """
    validate_family(cx, fam)
    nodes, corners, ends = _link(cx, fam.all_cells)
    blocks = []
    for bi, (edges, _cells) in enumerate(fam.parts):
        block = [e for k, x in enumerate(cx.edge_names) if x in edges
                 for e in (2 * k, 2 * k + 1)]
        prov = ("delta", bi)
        start = len(corners)
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                corners.append(Corner(len(corners), nodes[u], nodes[v], prov))
                ends += (u, v)
        for u in block:
            corners.append(Corner(len(corners), nodes[u], nodes[u], prov))
            ends += (u, u)
        blocks.append(DeltaBlock(frozenset(nodes[u] for u in block),
                                 frozenset(range(start, len(corners)))))
    return LinkGraph(nodes, tuple(corners), tuple(blocks), tuple(ends))


# ---------------------------------------------------------------------------
# relative forest check
# ---------------------------------------------------------------------------

class UnionFind:
    """Union by size over nodes 0..n-1, list-indexed, with undo.

    There is no path compression, so every union can be rolled back;
    union by size keeps ``find`` logarithmic.  The orientation search
    adds and removes one edge's corners per step of its depth-first walk.
    """

    __slots__ = ("parent", "size", "_joined")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self._joined: list[int] = []  # absorbed roots, in union order

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        """Join the classes of u and v; False (and no change) if they are
        already one class, i.e. the pair closes a cycle (a loop counts)."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] > self.size[rv]:
            ru, rv = rv, ru
        self.parent[ru] = rv
        self.size[rv] += self.size[ru]
        self._joined.append(ru)
        return True

    def undo(self) -> None:
        """Revert the most recent successful union."""
        ru = self._joined.pop()
        rv = self.parent[ru]
        self.size[rv] -= self.size[ru]
        self.parent[ru] = ru


def forest_cycle_index(n: int, pairs: list[tuple[int, int]]) -> int:
    """Union-find over nodes 0..n-1: the index of the first pair whose
    endpoints are already connected (a loop counts), or -1 if the pairs
    form a forest."""
    uf = UnionFind(n)
    for i, (u, v) in enumerate(pairs):
        if not uf.union(u, v):
            return i
    return -1


def relative_forest_check(
    g: LinkGraph,
    blocks: Iterable[tuple[frozenset[EdgeEnd], frozenset[int]]],
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Is g a forest relative to the given blocks?

    Each block is (node subset, designated corner ids); its nodes are
    contracted to a point and its designated corners vanish.  Any loop,
    parallel pair or longer cycle in the quotient multigraph counts as a
    cycle; the witness is such a cycle as a tuple of original corner ids.
    """
    blocks = list(blocks)
    index: dict[EdgeEnd, int] = {}
    dropped: set[int] = set()
    for i, (nodes, ids) in enumerate(blocks):
        if any(n in index for n in nodes):
            raise PreconditionError("blocks overlap")
        index.update(dict.fromkeys(nodes, i))
        dropped |= set(ids)

    size = len(blocks)
    pairs: list[tuple[int, int]] = []
    kept: list[int] = []
    for c in g.corners:
        if c.id in dropped:
            continue
        for n in (c.a, c.b):
            if n not in index:
                index[n] = size
                size += 1
        pairs.append((index[c.a], index[c.b]))
        kept.append(c.id)
    return _forest_witness(size, pairs, kept)


def _forest_witness(size: int, pairs: list[tuple[int, int]], kept: list[int]
                    ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(True, None) if the pairs on nodes 0..size-1 form a forest, else
    (False, a cycle): the closing pair's corner id after the tree path
    between its ends, in ``kept`` ids (one per pair)."""
    closing = forest_cycle_index(size, pairs)
    if closing < 0:
        return True, None
    # the pairs before the closing one form a forest holding its endpoints
    adj: dict[int, list[tuple[int, int]]] = {}
    for (u, v), cid in zip(pairs[:closing], kept):
        adj.setdefault(u, []).append((v, cid))
        adj.setdefault(v, []).append((u, cid))
    u, v = pairs[closing]
    return False, tuple(_tree_path(adj, u, v) + [kept[closing]])


def _tree_path(adj: dict, u, v) -> list[int]:
    """Corner ids on the path from u to v in a forest, by breadth-first
    search; the path is unique, so the visiting order does not matter."""
    prev = {u: (None, None)}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y, cid in adj[x]:
            if y not in prev:
                prev[y] = (x, cid)
                queue.append(y)
    path = []
    x = v
    while prev[x][0] is not None:
        path.append(prev[x][1])
        x = prev[x][0]
    path.reverse()
    return path


def signed_relative_forest_check(cx: TwoComplex, fam: SubcomplexFamily, pol: int
                                 ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Is lk^pol(L) a forest relative to lk^pol(K)?

    lk^pol(L) keeps the corners of lk(L) with both ends of polarity
    ``pol``; part i's ends of that polarity contract to one node, and the
    corners of part-i cells vanish.  The witness is a cycle of lk(L)
    corner ids.  Works on ``int_corners``; no link is built.
    """
    if pol not in (1, -1):
        raise PreconditionError(f"polarity must be 1 or -1, got {pol!r}")
    validate_family(cx, fam)
    ends, first = _complex_corners(cx)
    n = len(cx.edge_names)
    part = {x: n + i for i, (edges, _) in enumerate(fam.parts) for x in edges}
    # per edge, the quotient node of its end of polarity pol
    node = [part.get(x, k) for k, x in enumerate(cx.edge_names)]
    side = pol < 0  # the parity of the ends of polarity pol
    part_cells = fam.all_cells
    pairs, kept = [], []
    for j, cell in enumerate(cx.cells):
        if cell.name in part_cells:
            continue
        for i in range(first[j], first[j + 1]):
            a, b = ends[2 * i], ends[2 * i + 1]
            if a & 1 == side and b & 1 == side:
                pairs.append((node[a >> 1], node[b >> 1]))
                kept.append(i)
    return _forest_witness(n + len(fam.parts), pairs, kept)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot_node_name(n: EdgeEnd) -> str:
    return f"{n.edge}_{'plus' if n.polarity > 0 else 'minus'}"


def to_dot(g: LinkGraph, name: str = "lk") -> str:
    """Graphviz text: polarity-shaded nodes, Delta blocks as clusters,
    one edge line per corner labeled cell:pos or delta:i."""
    lines = [f"graph {name} {{", "  node [style=filled];"]
    in_block: set[EdgeEnd] = set()
    if g.delta_blocks:
        for bi, blk in enumerate(g.delta_blocks):
            lines.append(f"  subgraph cluster_delta_{bi} {{")
            lines.append(f'    label="delta {bi}";')
            for n in sorted(blk.nodes):
                shade = "#d0d0ff" if n.polarity > 0 else "#ffd0d0"
                lines.append(f'    {_dot_node_name(n)} [fillcolor="{shade}"];')
                in_block.add(n)
            lines.append("  }")
    for n in g.nodes:
        if n in in_block:
            continue
        shade = "#d0d0ff" if n.polarity > 0 else "#ffd0d0"
        lines.append(f'  {_dot_node_name(n)} [fillcolor="{shade}"];')
    for c in g.corners:
        if c.is_delta:
            label = f"delta:{c.provenance[1]}"
        else:
            label = f"{c.provenance[1]}:{c.provenance[2]}"
        lines.append(f'  {_dot_node_name(c.a)} -- {_dot_node_name(c.b)} '
                     f'[label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
