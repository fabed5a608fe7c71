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
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ParseError, PreconditionError, StructureError
from .complexes import SubcomplexFamily, TwoComplex, exponent_sum
from .linkage import LinkGraph, build_relative_link, EdgeEnd, forest_cycle_index
from .lot import Lot, sublot_vertices, is_sublot

Dart = tuple[int, int]  # (corner id, direction 0: a->b, 1: b->a)


@dataclass(frozen=True)
class WeightAssignment:
    """Total map corner id -> nonnegative rational."""
    weights: dict[int, Fraction]

    def __getitem__(self, cid: int) -> Fraction:
        return self.weights[cid]

    def check_total(self, g: LinkGraph) -> None:
        missing = [c.id for c in g.corners if c.id not in self.weights]
        if missing:
            raise StructureError(f"weights missing for corners {missing[:5]}")

    def check_nonnegative(self) -> None:
        if any(w < 0 for w in self.weights.values()):
            raise PreconditionError("negative weights are not supported")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    # violation: ("cell", cell name, weight) or ("cycle", darts, weight)
    violation: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def canonical_weights(g: LinkGraph) -> WeightAssignment:
    """Class-based 0/1 weights; covers Delta corners with their fixed values."""
    w = {}
    for c in g.corners:
        w[c.id] = Fraction(1) if c.corner_class == "+-" else Fraction(0)
    return WeightAssignment(w)


def check_cell_condition(cx: TwoComplex, g: LinkGraph, w: WeightAssignment,
                         excluded_cells: frozenset[str] = frozenset()) -> Verdict:
    """Condition (1): every non-excluded cell's corner weights sum to <= q-2."""
    w.check_total(g)
    sums: dict[str, Fraction] = {}
    for c in g.corners:
        if c.is_delta:
            continue
        sums[c.provenance[1]] = sums.get(c.provenance[1], Fraction(0)) + w[c.id]
    for cell in cx.cells:
        if cell.name in excluded_cells:
            continue
        q = len(cell.boundary)
        total = sums.get(cell.name, Fraction(0))
        if total > q - 2:
            return Verdict(False, ("cell", cell.name, total))
    return Verdict(True)


# ---------------------------------------------------------------------------
# reduced cycles via the dart graph
# ---------------------------------------------------------------------------

def _corner_map(g: LinkGraph) -> dict[int, "object"]:
    return {c.id: c for c in g.corners}


def _reverse(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def min_weight_reduced_cycle(g: LinkGraph, w: WeightAssignment
                             ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """Exact minimum weight over all reduced cycles, with a witness.

    Returns None when the link has no reduced cycle at all.
    """
    w.check_total(g)
    w.check_nonnegative()
    if not g.corners:
        return None
    by_id = _corner_map(g)

    def tail(d):
        c = by_id[d[0]]
        return c.a if d[1] == 0 else c.b

    def head(d):
        c = by_id[d[0]]
        return c.b if d[1] == 0 else c.a

    darts_out: dict[EdgeEnd, list[Dart]] = {}
    for c in g.corners:
        darts_out.setdefault(c.a, []).append((c.id, 0))
        darts_out.setdefault(c.b, []).append((c.id, 1))

    best: Optional[tuple[Fraction, tuple[Dart, ...]]] = None
    for c in g.corners:
        for d0 in ((c.id, 0), (c.id, 1)):
            found = _dijkstra_cycle_through(w, darts_out, tail, head, d0)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
                if best[0] == 0:
                    return best
    return best


def _dijkstra_cycle_through(w, darts_out, tail, head, d0: Dart
                            ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """Cheapest reduced closed walk whose first dart is d0."""
    start_node = tail(d0)
    dist: dict[Dart, Fraction] = {d0: w[d0[0]]}
    prev: dict[Dart, Optional[Dart]] = {d0: None}
    counter = 0
    heap = [(dist[d0], counter, d0)]
    best = None
    while heap:
        du, _, u = heapq.heappop(heap)
        if du != dist[u]:
            continue
        # closing costs nothing, so the first closable pop is minimal
        if head(u) == start_node and u != _reverse(d0):
            path = []
            x: Optional[Dart] = u
            while x is not None:
                path.append(x)
                x = prev[x]
            path.reverse()
            best = (du, tuple(path))
            break
        for v in darts_out.get(head(u), []):
            if v == _reverse(u):
                continue
            nd = du + w[v[0]]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return best


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
    w.check_total(g)
    w.check_nonnegative()
    two = Fraction(2)
    for c in g.corners:
        if c.is_delta:
            continue
        if c.a == c.b:
            if w[c.id] < two:
                return ((c.id, 0),), w[c.id]
            continue
        dist, path = _shortest_path_avoiding(g, w, c.b, c.a, c.id)
        if dist is not None and w[c.id] + dist < two:
            return ((c.id, 0),) + tuple(path), w[c.id] + dist
    return None


def _shortest_path_avoiding(g: LinkGraph, w: WeightAssignment,
                            src: EdgeEnd, dst: EdgeEnd, banned: int):
    """Dijkstra on the undirected multigraph minus one corner; the
    predecessor tree makes the returned path simple."""
    adj: dict[EdgeEnd, list[tuple[EdgeEnd, Dart]]] = {}
    for c in g.corners:
        if c.id == banned:
            continue
        adj.setdefault(c.a, []).append((c.b, (c.id, 0)))
        if c.a != c.b:
            adj.setdefault(c.b, []).append((c.a, (c.id, 1)))
    dist = {src: Fraction(0)}
    prev: dict[EdgeEnd, tuple[Optional[EdgeEnd], Optional[Dart]]] = {src: (None, None)}
    counter = 0
    heap = [(Fraction(0), counter, src)]
    while heap:
        du, _, u = heapq.heappop(heap)
        if du != dist.get(u):
            continue
        if u == dst:
            path = []
            x = u
            while prev[x][0] is not None:
                path.append(prev[x][1])
                x = prev[x][0]
            path.reverse()
            return du, path
        for v, dart in adj.get(u, []):
            nd = du + w[dart[0]]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = (u, dart)
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return None, None


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def weight_test(cx: TwoComplex, g: LinkGraph, w: WeightAssignment) -> Verdict:
    """Gersten's weight test on an absolute link."""
    if g.delta_blocks is not None:
        raise PreconditionError("weight_test expects an absolute link")
    cell_verdict = check_cell_condition(cx, g, w)
    if not cell_verdict:
        return cell_verdict
    found = min_weight_reduced_cycle(g, w)
    if found is not None and found[0] < 2:
        return Verdict(False, ("cycle", found[1], found[0]))
    return Verdict(True)


def check_delta_weights(g: LinkGraph, w: WeightAssignment) -> None:
    """Condition (3): Delta corners weigh 0 within a polarity, 1 across."""
    for c in g.corners:
        if not c.is_delta:
            continue
        expected = Fraction(1) if c.corner_class == "+-" else Fraction(0)
        if w[c.id] != expected:
            raise PreconditionError(
                f"delta corner {c.id} must have weight {expected}, got {w[c.id]}")


def relative_weight_test(cx: TwoComplex, fam: SubcomplexFamily,
                         w: WeightAssignment,
                         link: Optional[LinkGraph] = None) -> Verdict:
    """Weight test relative to K = K_1 v ... v K_n.

    Preconditions: all K-cells have exponent sum 0 and w obeys the fixed
    Delta weights.  ``link`` may pass the relative link if the caller
    already built it (construction is deterministic either way).
    """
    cmap = {c.name: c for c in cx.cells}
    for cn in sorted(fam.all_cells):
        if exponent_sum(cmap[cn].boundary) != 0:
            raise PreconditionError(
                f"K-cell {cn!r} has exponent sum {exponent_sum(cmap[cn].boundary)}")
    g = link if link is not None else build_relative_link(cx, fam)
    w.check_total(g)
    check_delta_weights(g, w)
    cell_verdict = check_cell_condition(cx, g, w, excluded_cells=fam.all_cells)
    if not cell_verdict:
        return cell_verdict
    found = find_homred_violation(g, w)
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


def orientation_search(lot: Lot, fixed: Iterable[frozenset[int]] = ()
                       ) -> Optional[frozenset[int]]:
    """Smallest (binary-counter order) flip set of non-fixed edges making
    lk+ and lk- forests relative to lk+/-(K(fixed)); None if no orientation
    works.  Edges inside fixed sub-LOTs are never flipped.
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

    forests = FlipForests(lot, fixed)
    free = [i for i in range(lot.num_edges) if i not in seen_edges]
    for counter in range(1 << len(free)):
        flip = 0
        for j, ei in enumerate(free):
            if counter >> j & 1:
                flip |= 1 << ei
        if forests.is_forest(flip, 1) and forests.is_forest(flip, -1):
            return frozenset(ei for ei in free if flip >> ei & 1)
    return None


def orientation_search_check(lot: Lot, fixed: Iterable[frozenset[int]],
                             flipped: frozenset[int]) -> bool:
    """Do lk+ and lk- both pass the relative forest check under this flip
    set?  The certificate verifier makes the same two checks one by one."""
    forests = FlipForests(lot, fixed)
    flip = flip_mask(lot, flipped)
    return forests.is_forest(flip, 1) and forests.is_forest(flip, -1)


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
        cell, pos, p, q = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
        loc = (cell, pos)
        if loc not in by_loc:
            raise ParseError(f"unknown corner {cell}:{pos}", lineno)
        base[by_loc[loc]] = Fraction(p, int(q)) if q else Fraction(p)
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
