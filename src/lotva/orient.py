"""The orientation walk of the decision procedure, and the one union-find
forest kernel, which the verifier and the paper's forest and weight tests
share.  ``orientation_search`` walks flips of a LOT's edges on its int
view (``FlipForests``).  Where each node but a root labels one free edge,
a walk that backs up often is decided by Edmonds' two-paths test, then
pruned by each colour's reachability of the root, keeping the same first
mask.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import LotvaError, PreconditionError, StructureError
from .lot import Lot, is_sublot, sublot_vertices


class UnionFind:
    """Union by size over nodes 0..n-1, list-indexed; without path
    compression, union by size keeps ``find`` logarithmic."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        """Join the classes of u and v; False (and no change) if they are
        already one class, i.e. the pair closes a cycle (a loop counts)."""
        parent, size = self.parent, self.size  # roots found inline, as in find
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return False
        if size[u] > size[v]:
            u, v = v, u
        parent[u] = v
        size[v] += size[u]
        return True


class FlipForests:
    """The orientation walk over flips of a LOT's edges that make lk+ and
    lk- of K(lot) forests relative to lk+/-(K(fixed)).

    The LOT's ``edges`` are (tail, head, label) triples of vertex indices
    below ``n`` (a sub-LOT's are its root's), edge j the flip's bit j.  Each
    fixed sub-LOT's vertices are contracted to one node and its own corners
    dropped once, here; other nodes keep their vertex index.  The walk
    (``first_forest_flip``) joins the remaining (++) and (--) corners.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]],
                 fixed: Iterable[frozenset[int]] = ()):
        node = list(range(n))
        dropped: set[int] = set()
        size = n
        for ids in fixed:
            for i in ids:
                if not 0 <= i < len(edges):
                    raise StructureError(f"unknown edge id {i}")
                t, h, _ = edges[i]
                node[t] = node[h] = size
            dropped |= set(ids)
            size += 1
        self._size = size
        # per kept edge: its bit, and its label, tail and head nodes
        self._edges = [(1 << i, node[l], node[t], node[h])
                       for i, (t, h, l) in enumerate(edges) if i not in dropped]

    def first_forest_flip(self, budget: Optional[int] = None) -> Optional[int]:
        """Smallest flip mask, in binary-counter order over the kept edges,
        for which lk+ and lk- are both forests; None if there is none.

        Depth-first from the highest kept edge, trying "not flipped" before
        "flipped", which visits masks in counter order.  Each step joins
        the edge's lk+ and lk- corners in one union-find (lk- nodes offset
        by the node count), logging the roots it absorbs, and cuts the
        branch when either closes a cycle: adding corners never removes a
        cycle.  The walk keeps its own stack, so depth is not bounded by
        Python's recursion limit.  With a ``budget``, it raises
        ``LotvaError`` at the first back-up past that many.  Where
        ``_checks`` applies, at 4 back-ups per kept edge the walk returns
        None if no flip works, else starts again from the top with their
        check in place of the union-find; at 4 more per kept edge, per kept
        edge, once more, also propagating.  Both cut only branches no
        completion rescues, so the first mask stays the same.
        """
        size, edges = self._size, self._edges[::-1]
        k = len(edges)
        up, n = list(range(2 * size)), [1] * (2 * size)
        joined = [(0, 0)] * k  # per placed depth: the two roots it absorbed
        choice = [0] * k       # per depth: the next to try, 0 keep, 1 flip
        level = backups = flip = depth = 0  # level 1 checks, 2 propagates
        while depth < k:
            c = choice[depth]
            if c == 2:  # both tried: back up one edge
                backups += 1
                if budget is not None and backups > budget:
                    raise LotvaError(f"orientation search gave up "
                                     f"after {budget} back-ups")
                if level < 2 and backups == 4 * k * (1 + level * k) and (
                        level or (checks := self._checks()) is not None):
                    placed, fits, propagates, orientable = checks
                    if not orientable:
                        return None
                    placed[:] = [-1] * k
                    choice, flip, depth, level = [0] * k, 0, 0, level + 1
                    continue
                choice[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                if level:
                    placed[depth] = -1
                else:
                    for x in joined[depth]:
                        n[up[x]] -= n[x]
                        up[x] = x
                flip &= ~edges[depth][0]
                continue
            choice[depth] = c + 1
            bit, x, t, h = edges[depth]
            if level:
                placed[depth] = c
                if not (fits(depth, c) and (level < 2 or propagates(depth))):
                    placed[depth] = -1
                    continue
            else:
                y, z, w = (h, size + x, size + t) if c else (t, size + x, size + h)
                while up[x] != x:
                    x = up[x]
                while up[y] != y:
                    y = up[y]
                if x == y:
                    continue
                while up[z] != z:
                    z = up[z]
                while up[w] != w:
                    w = up[w]
                if z == w:
                    continue
                if n[x] > n[y]:
                    x, y = y, x
                if n[z] > n[w]:
                    z, w = w, z
                up[x], up[z] = y, w
                n[y] += n[x]
                n[w] += n[z]
                joined[depth] = x, z
            if c:
                flip |= bit
            depth += 1
        return flip

    def _checks(self) -> Optional[tuple]:
        """The checks of a walk where every node of the kept edges but one,
        the root, labels exactly one: ``placed`` (per depth, its choice or
        -1), ``fits(j, c)``, ``propagates(depth)`` and whether any flip
        works; None on other walks.

        Each node but the root owns one corner per colour, so a finished
        colour is a forest iff its arcs label -> other end form an in-tree
        to the root.  A flip works iff the arcs l -> t, l -> h hold two
        arc-disjoint in-trees to the root, iff each node has two
        arc-disjoint paths to it (Edmonds 1973, "Edge-disjoint branchings"),
        iff each edge's t and h reach the root without its label.  ``fits``:
        the depth-j edge's label, with choice c, still reaches the root in
        each colour through the placed arcs and both arcs of each edge not
        placed, as an in-tree needs; the other nodes reached it before, so
        they still do.  ``propagates``: edges below ``depth`` with one
        choice left take it, until one has none (False) or all have two.
        """
        edges = self._edges[::-1]
        k = len(edges)
        labels = [l for _, l, _, _ in edges]
        roots = {v for _, _, t, h in edges for v in (t, h)} - set(labels)
        if len(roots) != 1 or len(set(labels)) < k:
            return None
        root = roots.pop()
        ends = [(t, h) for _, _, t, h in edges]  # per depth: the lk+ end
        at = dict(zip(labels, range(k)))          # label: depth
        placed = [-1] * k

        def reaches(x: int, j: int, neg: int) -> bool:
            # x to the root in lk+ (neg 0) or lk- (1), avoiding labels[j]?
            seen, stack = {labels[j]}, [x]
            while stack:
                x = stack.pop()
                while x != root and x not in seen:
                    seen.add(x)
                    i = at[x]
                    if placed[i] < 0:
                        stack.append(ends[i][1])
                        x = ends[i][0]
                    else:
                        x = ends[i][placed[i] ^ neg]
                if x == root:
                    return True
            return False

        def fits(j: int, c: int) -> bool:
            return reaches(ends[j][c], j, 0) and reaches(ends[j][c ^ 1], j, 1)

        def propagates(depth: int) -> bool:
            saved, changed, left = placed[:], True, (0,)
            while changed and left:
                changed = False
                for j in range(depth + 1, k):
                    if placed[j] < 0:
                        left = [c for c in (0, 1) if fits(j, c)]
                        if len(left) < 2:
                            if not left:
                                break
                            placed[j], changed = left[0], True
            placed[:] = saved
            return bool(left)

        return placed, fits, propagates, all(fits(j, 0) for j in range(k))


def orientation_search(lot: Lot, fixed: Iterable[frozenset[int]] = (),
                       budget: Optional[int] = None
                       ) -> Optional[frozenset[int]]:
    """Smallest (binary-counter order) flip set of non-fixed edges making
    lk+ and lk- forests relative to lk+/-(K(fixed)); None if no orientation
    works.  Edges inside fixed sub-LOTs are never flipped.  The search is
    depth-first and pruned (``FlipForests.first_forest_flip``): a cycle cuts
    a branch.  Where each node but a root labels one free edge, each such
    node owns one corner per colour, so a finished colour is an in-tree to
    the root: there a colour in which some node no longer reaches the root
    cuts too, and Edmonds' test answers None in polynomial time.  Other
    walks can still take exponential time, which a ``budget`` of back-ups
    bounds by raising ``LotvaError``.
    """
    fixed = list(fixed)
    seen: set[str] = set()  # sub-LOTs that share an edge share its ends
    for ids in fixed:
        if not is_sublot(lot, ids):
            raise PreconditionError(f"fixed edge set {sorted(ids)} is not a sub-LOT")
        vs = sublot_vertices(lot, ids)
        if vs & seen:
            raise PreconditionError("fixed sub-LOTs overlap")
        seen |= vs
    flip = FlipForests(lot._iv.n, lot._iv.edges, fixed).first_forest_flip(budget)
    if flip is None:
        return None
    return frozenset(ei for ei in range(lot.num_edges) if flip >> ei & 1)
