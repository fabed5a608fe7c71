"""Exhaustive desk-scale generation of small LOTs.

Used by the verification sweeps: every injective compressed LOT with up to a
handful of edges, one representative per isomorphism class.  Tree shapes
come from Prufer enumeration deduplicated by AHU canonical forms; labelings
and orientations on a shape are deduplicated under its automorphism group by
keeping lexicographically minimal orbit representatives.

Vertices are named v0, v1, ...  Also provides seeded random generators used
by the property tests.
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import lru_cache
from typing import Iterator

from .lot import Lot, LotEdge


def _prufer_decode(seq, n: int) -> list[tuple[int, int]]:
    """Edges of the tree on n >= 2 vertices with Prufer sequence ``seq``, as
    (leaf, neighbor) pairs in removal order; the empty sequence gives (0, 1)."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    h = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(h)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(h), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(h, x)
    edges.append((heapq.heappop(h), heapq.heappop(h)))
    return edges


def _prufer_trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    if n == 1:
        yield ()
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tuple(sorted((min(e), max(e)) for e in _prufer_decode(seq, n)))


def _ahu_key(edges: tuple[tuple[int, int], ...], n: int) -> str:
    """AHU canonical string of a free tree, rooted at its center(s)."""
    if n == 1:
        return "()"
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    # peel leaves to find the center(s)
    deg = [len(adj[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        remaining -= len(layer)
        layer = nxt
    centers = layer

    def canon(v: int, parent: int) -> str:
        subs = sorted(canon(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return canon(centers[0], -1)
    a, b = centers
    return min(canon(a, b) + "|" + canon(b, a),
               canon(b, a) + "|" + canon(a, b))


@lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One representative per unlabeled tree on n vertices."""
    reps: dict[str, tuple] = {}
    for t in _prufer_trees(n):
        key = _ahu_key(t, n)
        if key not in reps:
            reps[key] = t
    return tuple(sorted(reps.values()))


def automorphisms(shape: tuple[tuple[int, int], ...], n: int
                  ) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations preserving adjacency, degree-pruned backtracking."""
    adj = [set() for _ in range(n)]
    for a, b in shape:
        adj[a].add(b)
        adj[b].add(a)
    deg = [len(adj[v]) for v in range(n)]
    out = []
    assign = [-1] * n

    def rec(v: int, used: int):
        if v == n:
            out.append(tuple(assign))
            return
        for img in range(n):
            if used >> img & 1 or deg[img] != deg[v]:
                continue
            ok = True
            for w in range(v):
                if (w in adj[v]) != (assign[w] in adj[img]):
                    ok = False
                    break
            if ok:
                assign[v] = img
                rec(v + 1, used | 1 << img)
        assign[v] = -1

    rec(0, 0)
    return tuple(out)


def _aut_tables(shape: tuple[tuple[int, int], ...], n: int):
    """Per nontrivial automorphism: vertex map plus, for each edge i, the
    image edge index and whether the (low -> high) direction flips."""
    pos = {e: i for i, e in enumerate(shape)}
    tables = []
    for p in automorphisms(shape, n):
        if p == tuple(range(n)):
            continue
        emap = []
        for a, b in shape:
            ia, ib = p[a], p[b]
            j = pos[(min(ia, ib), max(ia, ib))]
            emap.append((j, ia > ib))  # image of a is the high end -> flipped
        tables.append((p, tuple(emap)))
    return tuple(tables)


def _labelings(shape, n: int) -> Iterator[tuple[int, ...]]:
    """Injective compressed labelings: distinct labels avoiding endpoints."""
    m = len(shape)

    def rec(i: int, used: int, acc: tuple):
        if i == m:
            yield acc
            return
        a, b = shape[i]
        for v in range(n):
            if v != a and v != b and not used >> v & 1:
                yield from rec(i + 1, used | 1 << v, acc + (v,))

    yield from rec(0, 0, ())


def _is_orbit_min(shape, n, tables, orient: int, labels: tuple[int, ...]) -> bool:
    """Keep a candidate iff it is the lexicographic minimum of its orbit."""
    m = len(shape)
    me = (orient, labels)
    for p, emap in tables:
        new_orient = 0
        new_labels = [0] * m
        for i in range(m):
            j, flip = emap[i]
            bit = orient >> i & 1
            if bit != flip:
                new_orient |= 1 << j
            new_labels[j] = p[labels[i]]
        if (new_orient, tuple(new_labels)) < me:
            return False
    return True


def iter_small_lots(max_edges: int, orientations: bool = True) -> Iterator[Lot]:
    """All injective compressed LOTs with 0..max_edges edges.

    With ``orientations=False`` every edge runs low index -> high index,
    which is enough for orientation-independent properties (sub-LOTs,
    collapses, free decompositions).  One representative per isomorphism
    class is produced.
    """
    yield Lot(("v0",), ())
    for n in range(2, max_edges + 2):
        m = n - 1
        for shape in tree_shapes(n):
            tables = _aut_tables(shape, n)
            names = tuple(f"v{i}" for i in range(n))
            omax = (1 << m) if orientations else 1
            for labels in _labelings(shape, n):
                for orient in range(omax):
                    if tables and not _is_orbit_min(shape, n, tables,
                                                    orient, labels):
                        continue
                    edges = []
                    for i, (a, b) in enumerate(shape):
                        t, h = (b, a) if orient >> i & 1 else (a, b)
                        edges.append(LotEdge(names[t], names[h], names[labels[i]]))
                    yield Lot(names, tuple(edges))


# ---------------------------------------------------------------------------
# seeded random generators for property tests
# ---------------------------------------------------------------------------

def random_lot(rng: random.Random, n_edges: int, injective: bool = True,
               compressed: bool = True) -> Lot:
    """Random LOT on n_edges+1 vertices via a random Prufer sequence."""
    n = n_edges + 1
    names = tuple(f"v{i}" for i in range(n))
    if n == 1:
        return Lot(names, ())
    if n == 2 and compressed:
        raise ValueError("a single-edge LOT is labeled by one of its "
                         "endpoints, so it cannot be compressed")
    shape = _prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
    labels: list[int] = []
    avail = list(range(n))
    rng.shuffle(avail)
    for a, b in shape:
        pick = None
        if injective:
            for v in avail:
                if compressed and v in (a, b):
                    continue
                pick = v
                break
            if pick is not None:
                avail.remove(pick)
        else:
            for _ in range(4 * n):
                v = rng.randrange(n)
                if not (compressed and v in (a, b)):
                    pick = v
                    break
        if pick is None:  # rare dead end; retry with a fresh tree
            return random_lot(rng, n_edges, injective, compressed)
        labels.append(pick)
    edges = []
    for (a, b), l in zip(shape, labels):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(LotEdge(names[a], names[b], names[l]))
    return Lot(names, tuple(edges))
