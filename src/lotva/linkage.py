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
from itertools import accumulate, count, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import PreconditionError, StructureError
from .complexes import SubcomplexFamily, TwoComplex, validate_family
from .orient import UnionFind


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

    ``_ids`` is every corner's id by position.  ``_orders`` holds the
    Delta-blocks as (block index, node order, position of the first
    corner, position after the last), or is None when the link's Delta
    corners are not in the layout of ``build_relative_link`` (see
    ``_held_orders``): the weight tests read only held blocks, each as a
    whole, and refuse any other relative link.  The Delta corners and ends
    of a built link are a view of ``delta_ends``, filled into ``_corners``
    and ``_ends`` on the first read of ``corners`` or ``ends``; it is
    filled exactly when ``len(_corners) == len(_ids)``.
    """
    __slots__ = ("nodes", "delta_blocks", "_corners", "_ends", "_ids", "_orders")
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

    @property
    def corners(self) -> tuple[Corner, ...]:
        return self._filled()._corners

    @property
    def ends(self) -> tuple[int, ...]:
        return self._filled()._ends

    def _filled(self) -> LinkGraph:
        if len(self._corners) == len(self._ids):
            return self
        corners, ends = list(self._corners), list(self._ends)
        for bi, order, start, _ in self._orders:
            pattern = delta_ends(len(order))
            ns = pattern(list(map(self.nodes.__getitem__, order)))
            corners += map(tuple.__new__, repeat(Corner), zip(
                count(start), ns[::2], ns[1::2], repeat(("delta", bi))))
            ends += pattern(order)
        self._corners, self._ends = tuple(corners), tuple(ends)
        return self


def _built(nodes, corners, ends, delta_blocks=None, orders=()) -> LinkGraph:
    """A link of ``build_link`` or ``build_relative_link``: corner ids are
    positions (see ``LinkGraph``)."""
    g = object.__new__(LinkGraph)
    g.nodes, g.delta_blocks, g._corners, g._ends = nodes, delta_blocks, corners, ends
    g._orders, g._ids = orders, range(orders[-1][3] if orders else len(corners))
    return g


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


def int_corners(cx: TwoComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The corners of lk(L) on ints, in one pass over the cells.

    Corner i joins ends[2 * i] and ends[2 * i + 1].  Corners are numbered
    cell by cell, by position: the corners of cell j are first[j] ..
    first[j + 1] - 1, and first ends with their number.  An end is
    2 * edge index + (0 for x+, 1 for x-), so the initial end of the
    letter x^s is 2k + (s < 0) and its terminal end that number ^ 1.
    """
    col = cx._edge_index
    ends: list[int] = []
    for cell in cx.cells:
        init = [2 * col[x] + (s < 0) for x, s in cell.boundary.letters]
        for u, v in zip(init, init[1:] + init[:1]):
            ends += (u ^ 1, v)
    return tuple(ends), tuple(accumulate((len(c.boundary) for c in cx.cells),
                                         initial=0))


def _complex_corners(cx: TwoComplex) -> tuple[
        tuple[EdgeEnd, ...], tuple[int, ...], tuple[int, ...]]:
    """The nodes x+, x- per edge in edge order (so end e is nodes[e]), then
    ``int_corners(cx)``; computed on first use and kept on cx."""
    if cx._int_corners is None:
        # tuple.__new__ is what the named tuples' _make calls, minus its frame
        nodes = tuple(map(tuple.__new__, repeat(EdgeEnd),
                          [(x, s) for x in cx.edge_names for s in (1, -1)]))
        object.__setattr__(cx, "_int_corners", (nodes, *int_corners(cx)))
    return cx._int_corners


def _link(cx: TwoComplex, removed: frozenset[str]) -> tuple[
        tuple[EdgeEnd, ...], list[Corner], list[int]]:
    """The nodes of ``_complex_corners``, and the corners and their ends of
    every cell not in ``removed``, numbered from 0."""
    nodes, ends, first = _complex_corners(cx)
    kept = [(cell.name, first[j], first[j + 1]) for j, cell in enumerate(cx.cells)
            if cell.name not in removed]
    kept_ends = [e for _, lo, hi in kept for e in ends[2 * lo:2 * hi]]
    ns = list(map(list(nodes).__getitem__, kept_ends))
    provenance = [("cell", name, i) for name, lo, hi in kept for i in range(hi - lo)]
    corners = list(map(tuple.__new__, repeat(Corner),
                       zip(count(), ns[::2], ns[1::2], provenance)))
    return nodes, corners, kept_ends


def build_link(cx: TwoComplex) -> LinkGraph:
    """Absolute link: all edge-ends, one corner per boundary position."""
    nodes, corners, ends = _link(cx, frozenset())
    return _built(nodes, tuple(corners), tuple(ends))


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
    order.  Corner ids are positions.  Each block is held as its node
    order: its Delta corners are a view, filled on first read of
    ``corners`` or ``ends`` (see ``LinkGraph``), and the weight tests read
    the block as a whole (see ``relative_weight_test``).
    """
    validate_family(cx, fam)
    nodes, corners, ends = _link(cx, fam.all_cells)
    col = cx._edge_index
    orders, blocks = [], []
    start = len(corners)
    for bi, (edges, _cells) in enumerate(fam.parts):
        order = tuple(sorted(2 * col[x] + s for x in edges for s in (0, 1)))
        end = start + len(order) * (len(order) + 1) // 2
        orders.append((bi, order, start, end))
        blocks.append(DeltaBlock(frozenset(map(nodes.__getitem__, order))))
        start = end
    return _built(nodes, tuple(corners), tuple(ends), tuple(blocks), tuple(orders))


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
