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

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import PreconditionError, StructureError
from .complexes import SubcomplexFamily, TwoComplex, validate_family


class EdgeEnd(NamedTuple):
    edge: str
    polarity: int  # +1 for x+, -1 for x-

    def __str__(self):
        return f"{self.edge}{'+' if self.polarity > 0 else '-'}"


def terminal_end(letter) -> EdgeEnd:
    x, s = letter
    return EdgeEnd(x, -s)


def initial_end(letter) -> EdgeEnd:
    x, s = letter
    return EdgeEnd(x, s)


@dataclass(frozen=True)
class Corner:
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
        pols = sorted((self.a.polarity, self.b.polarity), reverse=True)
        return {(1, 1): "++", (-1, -1): "--", (1, -1): "+-"}[tuple(pols)]

    @property
    def is_delta(self) -> bool:
        return self.provenance[0] == "delta"

    def ends(self) -> tuple[EdgeEnd, EdgeEnd]:
        return (self.a, self.b)

    def other(self, end: EdgeEnd) -> EdgeEnd:
        if end == self.a:
            return self.b
        if end == self.b:
            return self.a
        raise StructureError(f"{end} is not an endpoint of corner {self.id}")


@dataclass(frozen=True)
class DeltaBlock:
    nodes: frozenset[EdgeEnd]
    corner_ids: frozenset[int]


@dataclass(frozen=True)
class LinkGraph:
    """Multigraph on edge-ends; loops and parallel corners are allowed."""
    nodes: tuple[EdgeEnd, ...]
    corners: tuple[Corner, ...]
    delta_blocks: Optional[tuple[DeltaBlock, ...]] = None


def _cell_corners(cx: TwoComplex, removed: frozenset[str] = frozenset()
                  ) -> tuple[tuple[EdgeEnd, ...], list[Corner]]:
    """All edge-ends x+, x- in edge order, and one corner per boundary
    position of every cell not in ``removed``, numbered from 0."""
    nodes = tuple(EdgeEnd(x, s) for x in cx.edge_names for s in (1, -1))
    corners = []
    for cell in cx.cells:
        if cell.name in removed:
            continue
        ls = cell.boundary.letters
        q = len(ls)
        for i in range(q):
            corners.append(Corner(len(corners), terminal_end(ls[i]),
                                  initial_end(ls[(i + 1) % q]),
                                  ("cell", cell.name, i)))
    return nodes, corners


def build_link(cx: TwoComplex) -> LinkGraph:
    """Absolute link: all edge-ends, one corner per boundary position."""
    nodes, corners = _cell_corners(cx)
    return LinkGraph(nodes, tuple(corners))


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
    nodes, corners = _cell_corners(cx, fam.all_cells)
    cid = len(corners)
    blocks = []
    for bi, (edges, _cells) in enumerate(fam.parts):
        block_nodes = []
        for x in cx.edge_names:
            if x in edges:
                block_nodes.append(EdgeEnd(x, 1))
                block_nodes.append(EdgeEnd(x, -1))
        ids = []
        for i, u in enumerate(block_nodes):
            for v in block_nodes[i + 1:]:
                corners.append(Corner(cid, u, v, ("delta", bi)))
                ids.append(cid)
                cid += 1
        for u in block_nodes:
            corners.append(Corner(cid, u, u, ("delta", bi)))
            ids.append(cid)
            cid += 1
        blocks.append(DeltaBlock(frozenset(block_nodes), frozenset(ids)))
    return LinkGraph(nodes, tuple(corners), tuple(blocks))


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
    prev = {u: (None, None)}
    queue = [u]
    while queue:
        x = queue.pop(0)
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
    """Route 1: is lk^pol(L) a forest relative to lk^pol(K)?

    Block i is the part-i ends of polarity ``pol`` with the same-polarity
    corners of part-i cells as its designated corners.
    """
    validate_family(cx, fam)
    sub = _polarity_subgraph(build_link(cx), pol)
    by_cell: dict[str, list[int]] = {}
    for c in sub.corners:
        by_cell.setdefault(c.provenance[1], []).append(c.id)
    blocks = [(frozenset(EdgeEnd(x, pol) for x in edges),
               frozenset(cid for cn in cells for cid in by_cell.get(cn, ())))
              for edges, cells in fam.parts]
    return relative_forest_check(sub, blocks)


def delta_relative_forest_check(cx: TwoComplex, fam: SubcomplexFamily, pol: int
                                ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Route 2: is lk^pol(L, K) a forest relative to Delta^pol(K)?

    Agrees with route 1 on forest/not-forest; both are kept so they can be
    cross-checked.
    """
    rg = build_relative_link(cx, fam)
    sub = _polarity_subgraph(rg, pol)
    blocks = []
    for blk in rg.delta_blocks:
        nodes = frozenset(n for n in blk.nodes if n.polarity == pol)
        ids = frozenset(c.id for c in rg.corners
                        if c.id in blk.corner_ids
                        and c.a.polarity == pol and c.b.polarity == pol)
        blocks.append((nodes, ids))
    return relative_forest_check(sub, blocks)


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
