"""Link graphs of one-vertex 2-complexes.

The link lk(L) is a multigraph on the edge-ends x+ (near the start of edge
x) and x- (near the end); its edges are the corners of 2-cells.  The corner
at position i of a cell with boundary w = l_1 ... l_q joins the terminal end
of l_i to the initial end of l_{i+1}, read cyclically:

    terminal(x, +) = x-    initial(x, +) = x+
    terminal(x, -) = x+    initial(x, -) = x-

Also here: the int pass over the corners that links and checks share, the
relative link lk(L, K) with its Delta-blocks, and the signed relative forest
check (lk^pol(L) relative to lk^pol(K) has no cycle), which reads the int
corners and builds no link, on the core's ``UnionFind`` (``lotva.orient``).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import PreconditionError, StructureError
from .complexes import (EdgeEnd, IntCorners, SubcomplexFamily, TwoComplex,
                        _corner_pass, validate_family)
from .orient import UnionFind


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


class _Value:
    """Equality, hashing and a dataclass-style repr over ``_fields``."""
    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


class DeltaBlock(_Value):
    """The nodes of one Delta-block.  Its Delta corners are those whose
    provenance is ("delta", block index)."""
    __slots__ = ("nodes",)
    _fields = ("nodes",)

    def __init__(self, nodes: frozenset[EdgeEnd]):
        self.nodes = nodes


class LinkGraph(_Value):
    """Multigraph on edge-ends; loops and parallel corners are allowed.

    ``ends`` holds the corners' ends as node positions: ends[2 * i] and
    ends[2 * i + 1] are where a and b of corners[i] sit in ``nodes``.

    ``_ids`` is every corner's id by position, and ``_runs`` the corners
    in runs (cell name, position of the first in its cell, count), one per
    corner in a link built by hand.  ``_orders`` holds the Delta-blocks as
    (block index, node order, position of the first corner, position after
    the last), or is None when the Delta corners are not in the layout of
    ``build_relative_link`` (``_held_orders``): the weight tests read only
    held blocks, each as a whole.  A built link holds no ``Corner``:
    ``ends`` adds the Delta ends on its first read, and ``corners`` builds
    them all on its first read; the weight tests read ids, ends and runs.

    ``_source`` is (complex, family parts or None) for a link built by
    ``build_link`` or ``build_relative_link``, (None, None) for one built
    by hand: ``relative_weight_test`` takes a link built from its complex
    object and an equal family for lk(L, K) unchecked.  It takes no part
    in equality, hashing or repr, which read ``_fields``.
    """
    __slots__ = ("nodes", "delta_blocks", "_corners", "_ends", "_ids", "_orders",
                 "_runs", "_source")
    _fields = ("nodes", "corners", "delta_blocks")

    def __init__(self, nodes: tuple[EdgeEnd, ...], corners: tuple[Corner, ...],
                 delta_blocks: Optional[tuple[DeltaBlock, ...]] = None):
        pos = {n: i for i, n in enumerate(nodes)}
        try:
            ends = tuple(pos[e] for c in corners for e in (c.a, c.b))
        except KeyError as exc:
            raise StructureError(f"corner end {exc.args[0]} is not a node") from None
        self.nodes, self.delta_blocks = nodes, delta_blocks
        self._corners, self._ends = corners, ends
        self._ids = tuple(c.id for c in corners)
        self._orders = _held_orders(nodes, corners, ends, delta_blocks or ())
        self._runs = tuple((c.provenance[1], 0 if c.is_delta else c.provenance[2], 1)
                           for c in corners)
        self._source = (None, None)

    @property
    def corners(self) -> tuple[Corner, ...]:
        if len(self._corners) < len(self._ids):
            ns = list(map(self.nodes.__getitem__, self.ends))
            where = [("cell", name, i) for name, _, k in self._runs for i in range(k)]
            for bi, _, start, end in self._orders:
                where += repeat(("delta", bi), end - start)
            self._corners = tuple(map(tuple.__new__, repeat(Corner), zip(
                self._ids, ns[::2], ns[1::2], where)))
        return self._corners

    @property
    def ends(self) -> tuple[int, ...]:
        if len(self._ends) < 2 * len(self._ids):
            self._ends += tuple(e for _, order, _, _ in self._orders
                                for e in delta_ends(len(order))(order))
        return self._ends


def _held_orders(nodes, corners, ends, blocks) -> Optional[tuple]:
    """``LinkGraph._orders`` of a link built by hand: the Delta corners
    follow the cell corners, block after block in block order, and block
    i's run is ``delta_ends`` of an order of its nodes that alternates x+,
    x-, which its loops, the last k corners of the run, give.  Corner ids
    and the order of the link's nodes may be anything.  Else None."""
    start = next((i for i, c in enumerate(corners) if c.is_delta), len(corners))
    orders = []
    for bi, blk in enumerate(blocks):
        k = len(blk.nodes)
        end = start + k * (k + 1) // 2
        order = ends[2 * end - 2 * k:2 * end:2]
        if end > len(corners) or any(c.provenance != ("delta", bi)
                                     for c in corners[start:end]) \
                or [nodes[u].polarity for u in order] != [1, -1] * (k // 2) \
                or {nodes[u] for u in order} != blk.nodes \
                or ends[2 * start:2 * end] != delta_ends(k)(order):
            return None
        orders.append((bi, order, start, end))
        start = end
    return tuple(orders) if start == len(corners) else None


def int_corners(cx: TwoComplex) -> IntCorners:
    """The nodes and the corners of lk(L) on ints (``complexes._corner_pass``),
    from the initial ends of each cell's letters."""
    col = cx._edge_index
    return _corner_pass(cx.edge_names, (
        [2 * col[x] + (s < 0) for x, s in c.boundary.letters] for c in cx.cells))


def _complex_corners(cx: TwoComplex) -> IntCorners:
    """``int_corners(cx)``, kept on cx: ``build_complex`` makes it, and any
    other complex computes it on first use."""
    if cx._int_corners is None:
        object.__setattr__(cx, "_int_corners", int_corners(cx))
    return cx._int_corners


def _built(cx: TwoComplex, fam: Optional[SubcomplexFamily] = None) -> LinkGraph:
    """lk(L) of cx, or lk(L, K) of cx and fam, laid out as
    ``build_relative_link`` says: corner ids are positions, the kept cell
    corners are held as one run per cell and their ends, and each block as
    its node order; no ``Corner`` is built (see ``LinkGraph``)."""
    nodes, ends, first = _complex_corners(cx)
    removed = fam.all_cells if fam else ()
    kept = [(c.name, first[j], first[j + 1]) for j, c in enumerate(cx.cells)
            if c.name not in removed]
    if len(kept) < len(cx.cells):
        ends = tuple(e for _, lo, hi in kept for e in ends[2 * lo:2 * hi])
    orders, blocks, start, col = [], [], len(ends) // 2, cx._edge_index
    for bi, (edges, _) in enumerate(fam.parts if fam else ()):
        order = tuple(sorted(2 * col[x] + s for x in edges for s in (0, 1)))
        end = start + len(order) * (len(order) + 1) // 2
        orders.append((bi, order, start, end))
        blocks.append(DeltaBlock(frozenset(map(nodes.__getitem__, order))))
        start = end
    g = object.__new__(LinkGraph)
    g.nodes, g._corners, g._ends, g._ids = nodes, (), ends, range(start)
    g._runs = tuple((name, 0, hi - lo) for name, lo, hi in kept)
    g.delta_blocks, g._orders = (tuple(blocks) if fam else None), tuple(orders)
    g._source = (cx, fam.parts if fam else None)
    return g


def build_link(cx: TwoComplex) -> LinkGraph:
    """Absolute link: all edge-ends, one corner per boundary position."""
    return _built(cx)


@lru_cache(maxsize=64)
def delta_ends(k: int) -> Callable[[Sequence], tuple]:
    """The Delta corners of a block of k nodes, as a function of the
    block's node order: it returns their ends, two per corner, for every
    pair i < j (node i, then node j) row by row, then a loop (i, i) at
    every node.  On range(k) it returns the pattern itself."""
    pairs = [v for i in range(k) for j in range(i + 1, k) for v in (i, j)]
    return itemgetter(*pairs, *(v for i in range(k) for v in (i, i))) if k \
        else (lambda order: ())


def build_relative_link(cx: TwoComplex, fam: SubcomplexFamily) -> LinkGraph:
    """lk(L, K): corners of K-cells removed, a Delta-block inserted per part.

    Delta(K_i) is the complete graph on the ends of part i's edges plus one
    loop at every such end.  Corners of cells outside K are kept even when
    both their endpoints lie in a part.

    Layout: the kept cell corners come first, in ``build_link`` order;
    then the blocks, in part order, each one contiguous run of corners.
    A block's node order is its ends in edge order (x+, x- per edge, so
    polarities alternate), and its corners are ``delta_ends`` of that
    order.  Corner ids are positions.  The cell corners are held as runs
    and ends, and each block as its node order: the ``Corner``s and the
    Delta ends are a view (see ``LinkGraph``), and the weight tests read
    each block as a whole (see ``relative_weight_test``).
    """
    validate_family(cx, fam)
    return _built(cx, fam)


# ---------------------------------------------------------------------------
# relative forest check
# ---------------------------------------------------------------------------

def _forest_witness(size: int, pairs: list[tuple[int, int]], kept: list[int]
                    ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(True, None) if the pairs on nodes 0..size-1 form a forest, else
    (False, a cycle): the closing pair's corner id after the tree path
    between its ends, in ``kept`` ids (one per pair).  The closing pair is
    the first whose ends union-find has already joined (a loop counts)."""
    uf = UnionFind(size)
    for closing, (u, v) in enumerate(pairs):
        if not uf.union(u, v):
            break
    else:
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
    _, ends, first = _complex_corners(cx)
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
