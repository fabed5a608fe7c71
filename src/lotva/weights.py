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

Both searches run on exact ints: every weight times den, the lcm of the
denominators (``WeightAssignment.scaled``), so 2 becomes 2*den and a result
is Fraction(total, den).  Each Dijkstra run is bounded: nothing is pushed
that weighs as much as the limit.  In the absolute search the limit starts
where the caller needs it (2*den for the weight test, above every reduced
cycle for ``min_weight_reduced_cycle``) and drops to 1 when a union-find
pass finds a cycle among the weight-0 corners (the minimum is then 0).
Corners as heavy as that limit are left out of the dart graph, and each
cycle found lowers the limit to its weight.  In the relative search the
limit is what would take the scanned corner's cycle to 2.  A lower limit
that is still above the answer drops only pushes that would pop after it,
and ties break by push order, so the witnesses are those of an unbounded
search.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence

from .errors import ParseError, PreconditionError, StructureError
from .complexes import (SubcomplexFamily, TwoComplex, exponent_sum,
                        validate_family)
from .linkage import EdgeEnd, LinkGraph, UnionFind, forest_cycle_index
from .lot import Lot, sublot_vertices, is_sublot

Dart = tuple[int, int]  # (corner id, direction 0: a->b, 1: b->a)
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class WeightAssignment:
    """Total map corner id -> nonnegative rational."""
    weights: dict[int, Fraction]

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


def _corner_ids(g: LinkGraph) -> list[int]:
    return [c.id for c in g.corners]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    # violation: ("cell", cell name, weight) or ("cycle", darts, weight)
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def canonical_weights(g: LinkGraph) -> WeightAssignment:
    """Class-based 0/1 weights; covers Delta corners with their fixed values."""
    pol = [n.polarity for n in g.nodes]
    ends = g.ends
    return WeightAssignment({c.id: _ONE if pol[a] != pol[b] else _ZERO
                             for c, a, b in zip(g.corners, ends[::2], ends[1::2])})


def check_cell_condition(cx: TwoComplex, g: LinkGraph, w: WeightAssignment,
                         excluded_cells: frozenset[str] = frozenset()) -> Verdict:
    """Condition (1): every non-excluded cell's corner weights sum to <= q-2."""
    den, iw = w.scaled(_corner_ids(g))
    return _cell_condition(cx, _cell_sums(g, iw), den, excluded_cells)


def _cell_sums(g: LinkGraph, iw: list[int]) -> dict[str, int]:
    sums: dict[str, int] = {}
    for c, x in zip(g.corners, iw):
        if not c.is_delta:
            sums[c.provenance[1]] = sums.get(c.provenance[1], 0) + x
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
    return tuple((g.corners[d >> 1].id, d & 1) for d in path)


def min_weight_reduced_cycle(g: LinkGraph, w: WeightAssignment
                             ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """Exact minimum weight over all reduced cycles, with a witness.

    Returns None when the link has no reduced cycle at all.
    """
    den, iw = w.scaled(_corner_ids(g))
    # a shortest walk repeats no dart, so every distance is below this limit
    return _min_reduced_cycle(g, den, iw, 2 * sum(iw) + 1)


def _min_reduced_cycle(g: LinkGraph, den: int, iw: list[int], limit: int
                       ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """The minimum reduced cycle if it weighs less than ``limit`` (scaled
    units): the first dart, in dart order, to reach the minimum, and its
    Dijkstra path.  Else None."""
    tails = g.ends  # of darts d = 2*i + direction of corners[i]; d ^ 1 reverses d
    # Weights are nonnegative, so the minimum is 0 exactly when the weight-0
    # corners hold a cycle (a loop or parallel pair counts).
    zero = [(tails[2 * i], tails[2 * i + 1]) for i, x in enumerate(iw) if x == 0]
    if limit > 1 and forest_cycle_index(len(g.nodes), zero) >= 0:
        limit = 1
    # a dart as heavy as the limit is never pushed, so it is left out
    out: list[list[tuple[int, int]]] = [[] for _ in g.nodes]
    for d, t in enumerate(tails):
        if iw[d >> 1] < limit:
            out[t].append((d, iw[d >> 1]))
    # the darts that may follow d: out of its head, except its reverse
    succ = [[vx for vx in out[tails[d ^ 1]] if vx[0] != d ^ 1]
            if iw[d >> 1] < limit else () for d in range(len(tails))]
    best = None
    for d0 in range(len(tails)):
        found = _dijkstra_cycle_through(succ, tails, iw, d0, limit)
        if found is not None:
            limit, best = found
            if limit == 0:
                break
    return None if best is None else (Fraction(limit, den), _darts(g, best))


def _dijkstra_cycle_through(succ, tails, iw, d0: int, limit: int
                            ) -> Optional[tuple[int, list[int]]]:
    """Cheapest reduced closed walk whose first dart is d0, if it weighs
    less than ``limit``.  Walks of weight >= limit are never pushed, which
    only ends the search sooner: the heap pops the rest in the same order."""
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
        if tails[u ^ 1] == start_node and u != back:
            path = [u]
            while u != d0:
                u = prev[u]
                path.append(u)
            path.reverse()
            return du, path
        for v, x in succ[u]:
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

def find_homred_violation(g: LinkGraph, w: WeightAssignment
                          ) -> Optional[tuple[tuple[Dart, ...], Fraction]]:
    """A homology reduced cycle of weight < 2 with >= 1 non-Delta corner,
    or None if there is none.

    Any violating cycle splits at repeated vertices into homology reduced
    pieces, and the piece keeping a chosen non-Delta corner weighs no more;
    so it suffices to scan each non-Delta corner e = {u, v} and ask for
    w(e) + (shortest u-v path avoiding e) < 2, or w(e) < 2 when e is a loop.
    The first violation in corner-id order is returned.
    """
    if g.delta_blocks is None:
        raise PreconditionError("find_homred_violation expects a relative link "
                                "(delta decoration present, possibly empty)")
    return _homred_violation(g, *w.scaled(_corner_ids(g)))


def _homred_violation(g: LinkGraph, den: int, iw: list[int]
                      ) -> Optional[tuple[tuple[Dart, ...], Fraction]]:
    tails = g.ends
    # undirected multigraph: (other end, dart, weight) per corner end, a loop once
    adj: list[list[tuple[int, int, int]]] = [[] for _ in g.nodes]
    for d, t in enumerate(tails):
        if d & 1 == 0 or t != tails[d ^ 1]:
            adj[t].append((tails[d ^ 1], d, iw[d >> 1]))
    for i, c in enumerate(g.corners):
        if c.is_delta:
            continue
        if tails[2 * i] == tails[2 * i + 1]:
            if iw[i] < 2 * den:
                return ((c.id, 0),), Fraction(iw[i], den)
            continue
        found = _shortest_path_avoiding(adj, tails, tails[2 * i + 1], tails[2 * i],
                                        i, 2 * den - iw[i])
        if found is not None:
            return ((c.id, 0),) + _darts(g, found[1]), Fraction(iw[i] + found[0], den)
    return None


def _shortest_path_avoiding(adj, tails, src: int, dst: int, banned: int,
                            limit: int) -> Optional[tuple[int, list[int]]]:
    """Dijkstra on the undirected multigraph minus corner ``banned``: the
    shortest src-dst path as (weight, darts) if it weighs less than
    ``limit``, else None.  The predecessor tree makes the path simple; as in
    the cycle search, nothing of weight >= limit is pushed."""
    dist = [limit] * len(adj)
    prev = [-1] * len(adj)
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
                path.append(prev[u])
                u = tails[prev[u]]
            path.reverse()
            return du, path
        for v, d, x in adj[u]:
            if d >> 1 == banned:
                continue
            nd = du + x
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = d
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
    den, iw = w.scaled(_corner_ids(g))
    cell_verdict = _cell_condition(cx, _cell_sums(g, iw), den, frozenset())
    if not cell_verdict:
        return cell_verdict
    found = _min_reduced_cycle(g, den, iw, 2 * den)
    if found is not None:
        return Verdict(False, ("cycle", found[1], found[0]))
    return Verdict(True)


def _relative_cell_sums(cx: TwoComplex, g: LinkGraph, k_cells: frozenset[str],
                        den: int, iw: list[int]) -> dict[str, int]:
    """Each cell's scaled corner weight sum, after checking that g has the
    corners of lk(L, K): every position of every cell outside K once, and
    per Delta-block one corner on each pair of its nodes and one loop at
    each node, all inside the block.  Delta corners must weigh 0 within a
    polarity and 1 across (condition (3)).  Else PreconditionError."""
    n = len(g.nodes)
    pol = [x.polarity for x in g.nodes]
    pos = {x: i for i, x in enumerate(g.nodes)}
    block_of: list[Optional[int]] = [None] * n
    need = 0
    for bi, blk in enumerate(g.delta_blocks):
        if not blk.nodes <= pos.keys():
            raise PreconditionError("link is not the relative link of this family")
        for x in blk.nodes:
            block_of[pos[x]] = bi
        need += len(blk.nodes) * (len(blk.nodes) + 1) // 2
    size = {c.name: len(c.boundary) for c in cx.cells if c.name not in k_cells}
    need += sum(size.values())
    sums = dict.fromkeys(size, 0)
    keys: list = []  # an int per Delta corner's node pair, a provenance per cell corner
    ends = g.ends
    for c, a, b, x in zip(g.corners, ends[::2], ends[1::2], iw):
        prov = c.provenance
        where = prov[1]
        if prov[0] == "delta":
            if block_of[a] != where or block_of[b] != where:
                raise PreconditionError(f"delta corner {c.id} leaves its block")
            expected = int(pol[a] != pol[b])
            if x != expected * den:
                raise PreconditionError(f"delta corner {c.id} must have weight "
                                        f"{expected}, got {Fraction(x, den)}")
            keys.append(a * n + b if a <= b else b * n + a)
        else:
            if where in k_cells:
                raise PreconditionError(f"link keeps corner {c.id} of K-cell "
                                        f"{where!r}")
            if not 0 <= prov[2] < size.get(where, 0):
                raise PreconditionError(f"corner {c.id} at {where!r} position "
                                        f"{prov[2]} is no corner of lk(L, K)")
            sums[where] += x
            keys.append(prov)
    if len(set(keys)) != len(keys):
        seen: set = set()
        for c, key in zip(g.corners, keys):
            if key in seen:
                raise PreconditionError(f"link repeats corner {c.id}")
            seen.add(key)
    if len(keys) != need:
        raise PreconditionError("link misses corners of the relative link")
    return sums


def relative_weight_test(cx: TwoComplex, fam: SubcomplexFamily,
                         w: WeightAssignment, link: LinkGraph) -> Verdict:
    """Weight test relative to K = K_1 v ... v K_n.

    ``link`` is lk(L, K) as ``build_relative_link(cx, fam)`` builds it: one
    Delta-block per part, on exactly that part's edge-ends, holding the
    part's Delta corners, and each corner of a cell outside K once.  Any
    other link raises PreconditionError, as do a K-cell of nonzero
    exponent sum and Delta corners that do not carry their fixed weights.
    A family whose parts are not subcomplexes of cx raises StructureError.
    """
    validate_family(cx, fam)
    k_cells = fam.all_cells
    cmap = {c.name: c for c in cx.cells}
    for cn in sorted(k_cells):
        if exponent_sum(cmap[cn].boundary) != 0:
            raise PreconditionError(
                f"K-cell {cn!r} has exponent sum {exponent_sum(cmap[cn].boundary)}")
    blocks = link.delta_blocks
    if blocks is None or len(blocks) != len(fam.parts) or any(
            blk.nodes != {EdgeEnd(x, s) for x in edges for s in (1, -1)}
            for blk, (edges, _) in zip(blocks, fam.parts)):
        raise PreconditionError("link is not the relative link of this family")
    den, iw = w.scaled(_corner_ids(link))
    sums = _relative_cell_sums(cx, link, k_cells, den, iw)
    cell_verdict = _cell_condition(cx, sums, den, k_cells)
    if not cell_verdict:
        return cell_verdict
    found = _homred_violation(link, den, iw)
    if found is not None:
        return Verdict(False, ("cycle", found[0], found[1]))
    return Verdict(True)


# ---------------------------------------------------------------------------
# orientation search
# ---------------------------------------------------------------------------

def flip_mask(lot: Lot, flipped: Iterable[int]) -> int:
    """Bitmask of a flip set of edge ids."""
    flip = 0
    for ei in flipped:
        if not 0 <= ei < lot.num_edges:
            raise StructureError(f"unknown edge id {ei}")
        flip |= 1 << ei
    return flip


class FlipForests:
    """lk+ and lk- of K(lot), with edges flipped per bitmask, each checked
    for being a forest relative to lk+/-(K(fixed)).

    Each fixed sub-LOT's vertices are contracted to one node and its own
    corners dropped once, here; a check then costs one union-find pass over
    the remaining (++) or (--) corners.  Other nodes keep their vertex
    index, so with no fixed sub-LOTs ``pairs`` gives the corners of K(lot).
    """

    def __init__(self, lot: Lot, fixed: Iterable[frozenset[int]]):
        iv = lot._iv
        node = list(range(iv.n))
        dropped: set[int] = set()
        size = iv.n
        for ids in fixed:
            for i in ids:
                if not 0 <= i < len(iv.edges):
                    raise StructureError(f"unknown edge id {i}")
                t, h, _ = iv.edges[i]
                node[t] = node[h] = size
            dropped |= set(ids)
            size += 1
        self._size = size
        # per kept edge: its bit, and its label, tail and head nodes
        self._edges = [(1 << i, node[l], node[t], node[h])
                       for i, (t, h, l) in enumerate(iv.edges) if i not in dropped]

    def pairs(self, flip: int, pol: int) -> list[tuple[int, int]]:
        """Per kept edge, in edge order, its (++) corner label+ -- tail+
        (pol 1) or its (--) corner label- -- head- (pol -1), after the flip."""
        if pol > 0:
            return [(l, h if flip & bit else t) for bit, l, t, h in self._edges]
        return [(l, t if flip & bit else h) for bit, l, t, h in self._edges]

    def is_forest(self, flip: int, pol: int) -> bool:
        return forest_cycle_index(self._size, self.pairs(flip, pol)) < 0

    def first_forest_flip(self) -> Optional[int]:
        """Smallest flip mask, in binary-counter order over the kept edges,
        for which lk+ and lk- are both forests; None if there is none.

        Depth-first from the highest kept edge, trying "not flipped" before
        "flipped", which visits masks in counter order.  Each step adds the
        edge's lk+ and lk- corners to one union-find (lk- nodes offset by
        the node count) and cuts the branch when either closes a cycle:
        adding corners never removes a cycle, so no completion can work.
        The walk keeps its own stack, so depth is not bounded by Python's
        recursion limit.
        """
        size = self._size
        uf = UnionFind(2 * size)
        edges = self._edges[::-1]
        choice = [0] * len(edges)  # per depth: next to try, 0 keep, 1 flip
        flip = depth = 0
        while depth < len(edges):
            bit, l, t, h = edges[depth]
            if choice[depth] == 2:  # both tried: back up one edge
                choice[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                uf.undo()
                uf.undo()
                flip &= ~edges[depth][0]
                continue
            flipped = choice[depth]
            choice[depth] += 1
            pos_end, neg_end = (h, t) if flipped else (t, h)
            if uf.union(l, pos_end):
                if uf.union(size + l, size + neg_end):
                    if flipped:
                        flip |= bit
                    depth += 1
                    continue
                uf.undo()
        return flip


def orientation_search(lot: Lot, fixed: Iterable[frozenset[int]] = ()
                       ) -> Optional[frozenset[int]]:
    """Smallest (binary-counter order) flip set of non-fixed edges making
    lk+ and lk- forests relative to lk+/-(K(fixed)); None if no orientation
    works.  Edges inside fixed sub-LOTs are never flipped.  The search is
    depth-first and pruned (``FlipForests.first_forest_flip``), so it stops
    short of the 2^k flip sets whenever a cycle shows early.
    """
    fixed = list(fixed)
    seen_edges: set[int] = set()
    seen_verts: set[str] = set()
    for ids in fixed:
        if not is_sublot(lot, ids):
            raise PreconditionError(f"fixed edge set {sorted(ids)} is not a sub-LOT")
        vs = sublot_vertices(lot, ids)
        if ids & seen_edges or vs & seen_verts:
            raise PreconditionError("fixed sub-LOTs overlap")
        seen_edges |= set(ids)
        seen_verts |= vs

    flip = FlipForests(lot, fixed).first_forest_flip()
    if flip is None:
        return None
    return frozenset(ei for ei in range(lot.num_edges) if flip >> ei & 1)


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
