"""Corner weights and the (relative) weight tests.

Weights are exact nonnegative rationals.  The canonical assignment gives 0
to (++)- and (--)-corners and 1 to (+-)-corners; on a relative link this is
exactly the prescribed Delta weighting (0 inside Delta+ or Delta-, 1 across).

Cycle conditions:

* absolute test: every reduced cycle (no corner immediately followed by its
  own reversal, read cyclically) must have weight >= 2.  The minimum is
  computed exactly on the directed-corner ("dart") transition graph with a
  nonnegative shortest-path search from each dart back to itself; a loop is
  a reduced cycle of length 1.
* relative test: every homology reduced cycle with at least one non-Delta
  corner must have weight >= 2.  A minimal violating cycle can be taken
  simple, so it suffices to check, for each non-Delta corner, that corner
  plus a shortest path between its endpoints avoiding it.

Both searches run on exact ints, every weight times den, the lcm of the
denominators (``WeightAssignment.scaled``), and each Dijkstra run is
bounded by a limit that every cycle found lowers.  The weight-0 corners,
H0, pick the runs that can succeed (``_core_corner``, ``_zero_cuts``).  A
relative link's Delta-blocks, laid out as ``build_relative_link`` lays
them out, are read whole: a run expands a block once per (block,
polarity), from the first of its nodes it settles.  Why each of these
returns the minimum, witness and verdict of an unbounded Fraction search
through every dart is set out beside the tests that hold them to that
search (``tests/test_weights.py``, ``TestFractionReference``).

The decision procedure needs none of this: its orientation search asks
for forests, not weights, and lives in the core (``lotva.orient``).
"""

from __future__ import annotations

import heapq
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from numbers import Rational
from operator import xor
from typing import Iterable, Optional, Sequence

from .errors import ParseError, PreconditionError, StructureError
from .complexes import (SubcomplexFamily, TwoComplex, exponent_sum,
                        validate_family)
from .linkage import LinkGraph, _complex_corners, delta_ends
from .orient import UnionFind

Dart = tuple[int, int]  # (corner id, direction 0: a->b, 1: b->a)
_WEIGHTS = (Fraction(0), Fraction(1))


class _CanonicalWeights(Mapping):
    """Read-only total map corner ids[i] -> the shared Fraction of
    ints[i], 0 or 1 (``canonical_weights``)."""
    __slots__ = ("_ids", "_ints", "by_id", "_at")

    def __init__(self, ids: Sequence[int], ints: tuple[int, ...]):
        self._ids, self._ints = ids, ints
        # the ints indexed by corner id, where every id is its position
        self.by_id = ints if ids == range(len(ints)) else None
        self._at = None  # id -> position, built on the first lookup

    def __getitem__(self, cid) -> Fraction:
        if self._at is None:
            self._at = dict(zip(self._ids, count()))
        return _WEIGHTS[self._ints[self._at[cid]]]

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class WeightAssignment:
    """Total map corner id -> nonnegative rational.  A user map is a dict;
    ``canonical_weights`` gives a read-only mapping that holds 0/1 ints."""
    weights: Mapping[int, Fraction]

    def __getitem__(self, cid: int) -> Fraction:
        return self.weights[cid]

    def check_total(self, ids: Iterable[int]) -> None:
        missing = [i for i in ids if i not in self.weights]
        if missing:
            raise StructureError(f"weights missing for corners {missing[:5]}")

    def scaled(self, ids: Sequence[int]) -> tuple[int, list[int]]:
        """(den, iw): den is the lcm of the denominators of the weights of
        corners ``ids`` and iw[i] = den * (weight of ids[i]), an exact int.
        Raises StructureError if an id has no weight, and PreconditionError
        unless every weight is a numbers.Rational >= 0."""
        ints = self.weights.by_id if type(self.weights) is _CanonicalWeights else None
        if ints is not None and (not ids or min(ids) >= 0):
            try:
                return 1, list(map(ints.__getitem__, ids))
            except (IndexError, TypeError):  # an id with no weight
                pass
        ws = list(map(self.weights.get, ids))
        if all(issubclass(t, Rational) for t in set(map(type, ws))):
            nums = [x.numerator for x in ws]
            if not nums or min(nums) >= 0:
                dens = [x.denominator for x in ws]
                den = math.lcm(*dens)
                return den, [n * (den // d) for n, d in zip(nums, dens)]
        self.check_total(ids)
        bad = next(x for x in ws if not isinstance(x, Rational) or x < 0)
        raise PreconditionError(f"weights must be nonnegative rationals, got {bad!r}")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    # violation: ("cell", cell name, weight) or ("cycle", darts, weight)
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def canonical_weights(g: LinkGraph) -> WeightAssignment:
    """Class-based 0/1 weights; covers Delta corners with their fixed values.

    The weights are ints by position: a corner outside held Delta-blocks
    is weighted from its ends, a held block gets ``_delta_ints`` in bulk.
    The read-only map answers each id with one of two shared Fractions;
    ``scaled`` returns the ints with den 1, and ``_scaled_cells`` compares
    a block's ints to the pattern at once."""
    side = [(1 - n.polarity) >> 1 for n in g.nodes]  # 0 for x+, 1 for x-
    orders = g._orders or ()
    ends = g._ends[:2 * orders[0][2]] if orders else g._ends
    ints = list(map(xor, map(side.__getitem__, ends[::2]),
                    map(side.__getitem__, ends[1::2])))
    for _, order, _, _ in orders:
        ints += _delta_ints(len(order))
    return WeightAssignment(_CanonicalWeights(g._ids, tuple(ints)))


def check_cell_condition(cx: TwoComplex, g: LinkGraph, w: WeightAssignment,
                         excluded_cells: frozenset[str] = frozenset()) -> Verdict:
    """Condition (1): every non-excluded cell's corner weights sum to <= q-2.
    On a relative link only the cell corners are read, as in
    ``relative_weight_test``: its Delta-blocks must be held and carry their
    prescribed weights (``_scaled_cells``)."""
    den, iw = w.scaled(g._ids) if g.delta_blocks is None else _scaled_cells(g, w)
    return _cell_condition(cx, _cell_sums(g, iw), den, excluded_cells)


def _cell_sums(g: LinkGraph, iw: list[int]) -> dict[str, int]:
    """Each cell's sum of iw, the scaled weights of the first corners, by run."""
    sums: dict[str, int] = {}
    p = 0  # the position of the run's first corner
    for name, _, k in g._runs:
        sums[name] = sums.get(name, 0) + sum(iw[p:p + k])
        p += k
    return sums


def _cell_condition(cx: TwoComplex, sums: dict[str, int], den: int,
                    excluded_cells: frozenset[str]) -> Verdict:
    """Condition (1) on each cell's scaled corner weight sum."""
    for cell in cx.cells:
        if cell.name in excluded_cells:
            continue
        total = sums.get(cell.name, 0)
        if total > (len(cell.boundary) - 2) * den:
            return Verdict(False, ("cell", cell.name, Fraction(total, den)))
    return Verdict(True)


# ---------------------------------------------------------------------------
# reduced cycles via the dart graph
# ---------------------------------------------------------------------------

def _darts(g: LinkGraph, path: list[int]) -> tuple[Dart, ...]:
    ids = g._ids
    return tuple((ids[d >> 1], d & 1) for d in path)


def min_weight_reduced_cycle(g: LinkGraph, w: WeightAssignment
                             ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """Exact minimum weight over all reduced cycles, with a witness.

    Returns None when the link has no reduced cycle at all.  A relative
    link is refused, as ``weight_test`` refuses it.
    """
    if g.delta_blocks is not None:
        raise PreconditionError("min_weight_reduced_cycle expects an absolute link")
    den, iw = w.scaled(g._ids)
    # a shortest walk repeats no dart, so every distance is below this limit
    return _min_reduced_cycle(g, den, iw, 2 * sum(iw) + 1)


def _min_reduced_cycle(g: LinkGraph, den: int, iw: list[int], limit: int
                       ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """The minimum reduced cycle if it weighs less than ``limit`` (scaled
    units): the first dart, in dart order, to reach the minimum, and its
    Dijkstra path.  Else None."""
    tails = g.ends  # of darts d = 2*i + direction of corners[i]; d ^ 1 reverses d
    zero = [i for i, x in enumerate(iw) if not x]
    core = _core_corner(len(g.nodes), tails, zero)
    start = stop = 0  # the first dart to search; no cycle weighs less than stop
    if core is not None:
        # every dart before 2 * core fails, and 2 * core starts a weight-0 cycle
        start, limit = 2 * core, min(limit, 1)
    else:
        stop = min(filter(None, iw), default=limit)
        if 2 * stop >= limit:  # a cycle under the limit has one positive corner
            trees = UnionFind(len(g.nodes))
            for i in zero:
                trees.union(tails[2 * i], tails[2 * i + 1])
            if not any(0 < x < limit and trees.find(tails[2 * i]) ==
                       trees.find(tails[2 * i + 1]) for i, x in enumerate(iw)):
                return None
    # a dart as heavy as the limit is never pushed, so it is left out
    out: list[list[tuple[int, int]]] = [[] for _ in g.nodes]
    for d, t in enumerate(tails):
        if iw[d >> 1] < limit:
            out[t].append((d, iw[d >> 1]))
    best = None
    for d0 in range(start, len(tails)):
        found = _dijkstra_cycle_through(out, tails, iw, d0, limit)
        if found is not None:
            limit, best = found
            if limit == stop:
                break
    return None if best is None else (Fraction(limit, den), _darts(g, best))


def _core_corner(n: int, tails, zero: list[int]) -> Optional[int]:
    """The first corner of ``zero`` on the 2-core of the graph they form
    on nodes 0..n-1, or None if they form a forest.  Leaves are peeled one
    at a time; a node keeps the xor of its remaining neighbours, which is
    a leaf's last one.  A corner is on the core when both its ends are."""
    deg, nbrs = [0] * n, [0] * n
    for i in zero:
        a, b = tails[2 * i], tails[2 * i + 1]
        deg[a] += 1
        deg[b] += 1
        nbrs[a] ^= b
        nbrs[b] ^= a
    leaves = [y for y in range(n) if deg[y] == 1]
    while leaves:
        y = leaves.pop()
        if deg[y] == 1:
            z = nbrs[y]
            deg[y] = 0
            deg[z] -= 1
            nbrs[z] ^= y
            if deg[z] == 1:
                leaves.append(z)
    return next((i for i in zero if deg[tails[2 * i]] and deg[tails[2 * i + 1]]),
                None)


def _dijkstra_cycle_through(out, tails, iw, d0: int, limit: int
                            ) -> Optional[tuple[int, list[int]]]:
    """Cheapest reduced closed walk whose first dart is d0, if it weighs
    less than ``limit``.  Walks of weight >= limit are never pushed, which
    only ends the search sooner: the heap pops the rest in the same order.
    A popped dart u may be followed by the darts ``out`` of its head but
    its reverse."""
    if iw[d0 >> 1] >= limit:
        return None
    start_node, back = tails[d0], d0 ^ 1
    dist = [limit] * len(tails)
    prev = [-1] * len(tails)
    dist[d0] = iw[d0 >> 1]
    counter = 0
    heap = [(dist[d0], counter, d0)]
    while heap:
        du, _, u = heapq.heappop(heap)
        if du != dist[u]:
            continue
        # closing costs nothing, so the first closable pop is minimal
        head = tails[u ^ 1]
        if head == start_node and u != back:
            path = [u]
            while u != d0:
                u = prev[u]
                path.append(u)
            path.reverse()
            return du, path
        for v, x in out[head]:
            if v == u ^ 1:
                continue
            nd = du + x
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return None


# ---------------------------------------------------------------------------
# homology reduced cycles on relative links
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _delta_ints(k: int) -> tuple[int, ...]:
    """The prescribed weights of the corners of ``delta_ends(k)`` on
    nodes of alternating polarity: 1 across a polarity, else 0."""
    pattern = delta_ends(k)(range(k))
    return tuple((i ^ j) & 1 for i, j in zip(pattern[::2], pattern[1::2]))


def _scaled_cells(g: LinkGraph, w: WeightAssignment) -> tuple[int, list[int]]:
    """(den, iw): den and the scaled weights, by position, of the cell
    corners of a relative link, which come first.  Every Delta-block must
    be held (``LinkGraph._orders``) and carry its prescribed weights, 0
    within a polarity and 1 across, compared in bulk: the ints of a
    canonical map of the link's ids, else the weights.  Else
    PreconditionError, or StructureError for a missing weight.  The blocks'
    weights are 0 and 1, so they do not change den."""
    if g._orders is None:
        raise PreconditionError("Delta corners are not laid out as "
                                "build_relative_link lays them out")
    ws, ids = w.weights, g._ids
    ints = ws._ints if type(ws) is _CanonicalWeights and ws._ids == ids else None
    for _, order, start, end in g._orders:
        xs = ints[start:end] if ints else tuple(map(ws.get, ids[start:end]))
        want = _delta_ints(len(order))
        if xs != want or not ints and not all(
                issubclass(t, Rational) for t in set(map(type, xs))):
            w.check_total(ids[start:end])
            j = next(j for j, x in enumerate(xs)
                     if x != want[j] or not isinstance(x, Rational))
            raise PreconditionError(f"delta corner {ids[start + j]} must have "
                                    f"weight {want[j]}, got {xs[j]!r}")
    return w.scaled(ids[:g._orders[0][2]] if g._orders else ids)


def find_homred_violation(g: LinkGraph, w: WeightAssignment
                          ) -> Optional[tuple[tuple[Dart, ...], Fraction]]:
    """A homology reduced cycle of weight < 2 with >= 1 non-Delta corner,
    or None if there is none.

    Any violating cycle splits at repeated vertices into homology reduced
    pieces, and the piece keeping a chosen non-Delta corner weighs no more;
    so it suffices to scan each non-Delta corner e = {u, v} and ask for
    w(e) + (shortest u-v path avoiding e) < 2, or w(e) < 2 when e is a loop.
    The first violation in the link's corner order is returned.  Scans
    that the weight-0 corners settle run no Dijkstra search (see the
    module docstring); with canonical weights every scan is settled so,
    and only the first violating corner is searched, for its witness.

    Each Delta-block is searched as a block (see ``_homred_violation``).
    So the link must have its Delta corners in the layout of
    ``build_relative_link`` (ids and node order may differ) and the
    weights must give them their prescribed values; else
    PreconditionError, or StructureError for a missing weight.
    """
    if g.delta_blocks is None:
        raise PreconditionError("find_homred_violation expects a relative link "
                                "(delta decoration present, possibly empty)")
    return _homred_violation(g, *_scaled_cells(g, w))


def _homred_violation(g: LinkGraph, den: int, iw: list[int]
                      ) -> Optional[tuple[tuple[Dart, ...], Fraction]]:
    """The scan of ``find_homred_violation``; iw holds the scaled weights
    of the cell corners, by position.  Their darts form an undirected
    adjacency list, in dart order; then each node of a Delta-block holds
    one entry that expands the block once per (block, polarity) and search
    (see the module docstring)."""
    tails, ids = g._ends, g._ids
    # (other end, dart, weight) per corner end, a loop once; (-1, b, t) for
    # node t of block b
    adj: list[list[tuple[int, int, int]]] = [[] for _ in g.nodes]
    for i, x in enumerate(iw):
        a, b = tails[2 * i], tails[2 * i + 1]
        adj[a].append((b, 2 * i, x))
        if a != b:
            adj[b].append((a, 2 * i + 1, x))
    for b, (_, order, _, _) in enumerate(g._orders):
        for t, u in enumerate(order):
            adj[u].append((-1, b, t))
    blocks = [(order, start, len(order)) for _, order, start, _ in g._orders]
    # scans the weight-0 corners decide (see the module docstring)
    light = min(filter(None, iw), default=0)
    cuts = None
    for i, x in enumerate(iw):
        u, v = tails[2 * i + 1], tails[2 * i]
        if u == v:
            if x < 2 * den:
                return ((ids[i], 0),), Fraction(x, den)
            continue
        # a positive scan that can follow only weight-0 darts, or a weight-0
        # scan with no positive weight below den
        if 0 < x and 2 * den - x <= light or not x and not 0 < light < den:
            if cuts is None:
                cuts, comp = _zero_cuts(len(g.nodes), tails, iw, g._orders, 2 * den)
            if (comp[u] != comp[v]) if x else (i in cuts):
                continue
        found = _shortest_path_avoiding(adj, blocks, u, v, i, 2 * den - x, den)
        if found is not None:
            return ((ids[i], 0),) + _darts(g, found[1]), Fraction(x + found[0], den)
    return None


def _zero_cuts(n: int, tails, iw: list[int], orders: tuple, limit: int
               ) -> tuple[set[int], list[int]]:
    """The weight-0 corners, by position, whose scan fails when no
    positive weight is below den: the bridges of H0/~ that no positive
    corner lighter than ``limit`` crosses; and the component of H0/~ of
    each of the ``n`` nodes, which settles a scan that follows only
    weight-0 darts.  The depth-first search numbers nodes in preorder, so a
    subtree is an interval; the tree corner into y is such a bridge when no
    other corner joins y's subtree to the rest of its component."""
    rep = list(range(n))  # a block's class is its first node of a polarity
    for _, order, _, _ in orders:
        for t, y in enumerate(order):
            rep[y] = order[t & 1]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    pairs = [(order[0], order[1], -1) for _, order, _, _ in orders]  # -1: positive
    for j, x in enumerate(iw):
        a, b = rep[tails[2 * j]], rep[tails[2 * j + 1]]
        if a != b and x < limit:
            pairs.append((a, b, -1 if x else j))
            if not x:
                adj[a].append((b, j))
                adj[b].append((a, j))
    # an isolated node is its own component, and the search skips it
    pre, up, parent, root = [-1] * n, [-1] * n, [-1] * n, list(range(n))
    seq: list[int] = []
    for r in range(n):
        stack = [r] if pre[r] < 0 and adj[r] else ()
        while stack:
            y = stack.pop()
            if pre[y] < 0:
                pre[y], root[y] = len(seq), r
                seq.append(y)
                for z, j in adj[y]:
                    if pre[z] < 0:
                        parent[z], up[z] = y, j
                        stack.append(z)
    lo, hi = pre[:], pre[:]  # the least and greatest preorder reached
    for a, b, j in pairs:
        if root[a] == root[b] and (j < 0 or up[a] != j != up[b]):
            lo[a], hi[a] = min(lo[a], pre[b]), max(hi[a], pre[b])
            lo[b], hi[b] = min(lo[b], pre[a]), max(hi[b], pre[a])
    size = [1] * n
    for y in reversed(seq):  # children before parents
        p = parent[y]
        if p >= 0:
            lo[p], hi[p] = min(lo[p], lo[y]), max(hi[p], hi[y])
            size[p] += size[y]
    return ({up[y] for y in seq
             if parent[y] >= 0 and lo[y] == pre[y] and hi[y] < pre[y] + size[y]},
            [root[y] for y in rep])


def _shortest_path_avoiding(adj, blocks, src: int, dst: int, banned: int,
                            limit: int, den: int) -> Optional[tuple[int, list[int]]]:
    """Dijkstra on the undirected multigraph minus corner ``banned``: the
    shortest src-dst path as (weight, darts) if it weighs less than
    ``limit``, else None.  The predecessor tree, (dart, node) per node,
    makes the path simple; as in the cycle search, nothing of weight >=
    limit is pushed.  An adjacency entry (-1, b, t) is node t of
    block blocks[b] = (node order, position of its first corner, node
    count), expanded once per (block, polarity)."""
    dist = [limit] * len(adj)
    prev: list = [None] * len(adj)
    expanded = [False] * (2 * len(blocks))
    dist[src] = 0
    counter = 0
    heap = [(0, counter, src)]
    while heap:
        du, _, u = heapq.heappop(heap)
        if du != dist[u]:
            continue
        if u == dst:
            path = []
            while u != src:
                d, u = prev[u]
                path.append(d)
            path.reverse()
            return du, path
        for v, d, x in adj[u]:
            if v < 0:
                if expanded[2 * d + (x & 1)]:
                    continue
                expanded[2 * d + (x & 1)] = True
                order, p, k = blocks[d]
                # node x's Delta darts in dart order: corner (j, x) backwards
                # for each j < x, then corner (x, j) for each j > x
                p += x - 1  # the position of corner (0, x)
                for j in range(k):
                    if j < x:
                        dart = 2 * p + 1
                        p += k - j - 2
                    elif j > x:
                        p += 1
                        dart = 2 * p
                    else:
                        continue
                    nd = du + den if (j ^ x) & 1 else du
                    y = order[j]
                    if nd < dist[y]:
                        dist[y] = nd
                        prev[y] = dart, u
                        counter += 1
                        heapq.heappush(heap, (nd, counter, y))
                continue
            if d >> 1 == banned:
                continue
            nd = du + x
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = d, u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return None


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def weight_test(cx: TwoComplex, g: LinkGraph, w: WeightAssignment) -> Verdict:
    """Gersten's weight test on an absolute link."""
    if g.delta_blocks is not None:
        raise PreconditionError("weight_test expects an absolute link")
    den, iw = w.scaled(g._ids)
    cell_verdict = _cell_condition(cx, _cell_sums(g, iw), den, frozenset())
    if not cell_verdict:
        return cell_verdict
    found = _min_reduced_cycle(g, den, iw, 2 * den)
    if found is not None:
        return Verdict(False, ("cycle", found[1], found[0]))
    return Verdict(True)


def _relative_cell_sums(cx: TwoComplex, fam: SubcomplexFamily, g: LinkGraph,
                        iw: list[int]) -> dict[str, int]:
    """Each cell's scaled corner weight sum, once g is found to be lk(L, K)
    of cx and fam (see ``relative_weight_test``), else PreconditionError.
    iw holds the weights of the cell corners, which come first; the held
    blocks behind them (``_scaled_cells``) are checked against the parts
    by their nodes.  Ends are compared as ends of ``int_corners(cx)``,
    which a link built from cx has as positions, a run at a time; a run
    that differs is walked to name the first corner at fault."""
    nodes, want, first = _complex_corners(cx)
    ends, parts, blocks = g._ends, fam.parts, g.delta_blocks
    if g.nodes is not nodes:
        code = list(map(dict(zip(nodes, count())).get, g.nodes))
        if len(code) != len(nodes) or set(code) != set(range(len(nodes))):
            raise PreconditionError("link nodes are not the edge-ends of this complex")
        ends = tuple(map(code.__getitem__, ends[:2 * len(iw)]))
    if blocks is None or len(blocks) != len(parts) or any(
            blk.nodes != {(x, s) for x in edges for s in (1, -1)}
            for blk, (edges, _) in zip(blocks, parts)):
        raise PreconditionError("link is not the relative link of this family")
    k_cells = fam.all_cells
    span = {c.name: (first[j], first[j + 1]) for j, c in enumerate(cx.cells)
            if c.name not in k_cells}
    sums = dict.fromkeys(span, 0)
    seen = bytearray(first[-1])  # 1 at each int_corners index met
    p = 0
    for where, at, k in g._runs:
        if p >= len(iw):
            break
        lo, hi = span.get(where, (0, 0))
        key = lo + at
        if not (lo <= key and key + k <= hi and seen.find(1, key, key + k) < 0
                and ends[2 * p:2 * p + 2 * k] == want[2 * key:2 * key + 2 * k]):
            for i in range(p, p + k):  # the run's corners, one by one
                c, pos, j = g.corners[i], at + i - p, key + i - p
                if not lo <= j < hi:
                    raise PreconditionError(
                        f"link keeps corner {c.id} of K-cell {where!r}"
                        if where in k_cells else f"corner {c.id} at {where!r} "
                        f"position {pos} is no corner of lk(L, K)")
                u, v, a, b = ends[2 * i], ends[2 * i + 1], want[2 * j], want[2 * j + 1]
                if not (u == a and v == b or u == b and v == a):
                    raise PreconditionError(
                        f"corner {c.id} at {where!r} position {pos} joins {c.a} "
                        f"and {c.b}, not {nodes[a]} and {nodes[b]}")
                if seen[j]:  # a run's own positions are distinct
                    raise PreconditionError(f"link repeats corner {c.id}")
        seen[key:key + k] = b"\1" * k
        sums[where] += sum(iw[p:p + k])
        p += k
    if len(iw) != sum(hi - lo for lo, hi in span.values()):
        raise PreconditionError("link misses corners of the relative link")
    return sums


def relative_weight_test(cx: TwoComplex, fam: SubcomplexFamily,
                         w: WeightAssignment, link: LinkGraph) -> Verdict:
    """Weight test relative to K = K_1 v ... v K_n.

    ``link`` must be lk(L, K) of cx and fam, as ``build_relative_link``
    builds it up to corner ids, the order of nodes and of the cell
    corners, and the order of each cell corner's two ends.  Else
    PreconditionError:

    * its nodes are the edge-ends of cx, and its Delta-blocks, one per
      part in part order, hold exactly the ends of that part's edges;
    * its Delta corners follow its cell corners in the builder's layout
      (``LinkGraph._orders``), and weigh 0 within a polarity and 1 across;
    * the corner of a cell outside K at position p joins the two
      edge-ends that ``int_corners(cx)`` gives there, in either order;
    * each cell corner comes once and none is missing: one per position
      of each cell outside K.  Any other corner, such as one of a K-cell,
      is refused.

    A K-cell of nonzero exponent sum raises PreconditionError too, a
    family whose parts are not subcomplexes of cx StructureError, and so
    does a corner with no weight.

    Each Delta-block is checked by one comparison and searched as a block
    (``_homred_violation``): only the cell corners' weights are scaled,
    summed and checked one by one.
    """
    validate_family(cx, fam)
    k_cells = fam.all_cells
    for cn in sorted(k_cells):
        if exponent_sum(cx.cell(cn).boundary) != 0:
            raise PreconditionError(
                f"K-cell {cn!r} has exponent sum {exponent_sum(cx.cell(cn).boundary)}")
    den, iw = _scaled_cells(link, w)
    sums = _relative_cell_sums(cx, fam, link, iw)
    cell_verdict = _cell_condition(cx, sums, den, k_cells)
    if not cell_verdict:
        return cell_verdict
    found = _homred_violation(link, den, iw)
    if found is not None:
        return Verdict(False, ("cycle", found[0], found[1]))
    return Verdict(True)


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

_WLINE = re.compile(
    r"corner\s+([A-Za-z][A-Za-z0-9_]*)\s+(\d+)\s*=\s*(-?\d+)(?:\s*/\s*(\d+))?$")


def parse_weights(text: str, g: LinkGraph) -> WeightAssignment:
    """Weight file: ``corner CELL POS = P/Q`` lines.

    Unlisted corners keep their canonical weights, so a file can override
    selectively; Delta corners are not addressable.
    """
    base = dict(canonical_weights(g).weights)
    by_loc = {(c.provenance[1], c.provenance[2]): c.id
              for c in g.corners if not c.is_delta}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _WLINE.match(line)
        if not m:
            raise ParseError("expected: corner CELL POS = P/Q", lineno)
        try:
            pos, p, q = int(m.group(2)), int(m.group(3)), int(m.group(4) or 1)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(str(exc), lineno) from None
        if q == 0:
            raise ParseError(f"zero denominator in {p}/0", lineno)
        loc = (m.group(1), pos)
        if loc not in by_loc:
            raise ParseError(f"unknown corner {loc[0]}:{pos}", lineno)
        base[by_loc[loc]] = Fraction(p, q)
    return WeightAssignment(base)


def format_weights(g: LinkGraph, w: WeightAssignment) -> str:
    lines = []
    for c in g.corners:
        if c.is_delta:
            continue
        f = w[c.id]
        val = f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
        lines.append(f"corner {c.provenance[1]} {c.provenance[2]} = {val}")
    return "\n".join(lines) + "\n"
