"""Exhaustive desk-scale generation of small LOTs.

Used by the verification sweeps: every injective compressed LOT with up to a
handful of edges, one representative per isomorphism class.  Tree shapes
come from Prufer enumeration deduplicated by AHU canonical forms, stopping
once Otter's count of free trees is reached.  Labelings and orientations on
a shape are deduplicated under its automorphism group by keeping the
lexicographically minimal (orientation, labeling) of each orbit.  How an
automorphism moves an orientation does not depend on the labeling, so each
shape precomputes, over all orientation masks, which ones an automorphism
maps below or onto themselves; each labeling then applies every
automorphism once and keeps the orientations no automorphism lowers.

``iter_small_lots`` hands each LOT the int view a ``Lot`` would derive from
names: incident lists and root paths (free of orientation and labels) per
shape, label counts and int triples per labeling, and only edge tuples per
kept orientation.

Vertices are named v0, v1, ...  Also provides seeded random generators used
by the property tests.
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import lru_cache
from operator import getitem
from typing import Iterator, Optional

from .lot import Lot, LotEdge, _IntView, _lot_from_view, _root_paths


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


def _free_tree_count(n: int) -> int:
    """Number of unlabeled free trees on n >= 1 vertices (Otter 1948).

    r(k), the rooted trees on k vertices, follow the Euler transform
    r(k+1) = (1/k) sum_{j=1..k} (sum_{d|j} d r(d)) r(k-j+1); then
    t(n) = r(n) - (sum_{i=1..n-1} r(i) r(n-i) - [n even] r(n/2)) / 2."""
    if n < 1:
        raise ValueError(f"a tree cannot have {n} vertices")
    r = [0, 1]
    for k in range(1, n):
        r.append(sum(sum(d * r[d] for d in range(1, j + 1) if j % d == 0)
                     * r[k - j + 1] for j in range(1, k + 1)) // k)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


@lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One representative per unlabeled tree on n vertices: the first of
    its class in Prufer order, read up to the sequence that completes
    Otter's count (index 5,349 of 262,144 for n = 8)."""
    reps: dict[str, tuple] = {}
    count = _free_tree_count(n)
    for t in _prufer_trees(n):
        key = _ahu_key(t, n)
        if key not in reps:
            reps[key] = t
            if len(reps) == count:
                break
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


def _orbit_tables(shape: tuple[tuple[int, int], ...], n: int, omax: int):
    """How the nontrivial automorphisms act on candidates (orient, labels).

    g maps orientation mask o to the mask whose bit j is set when edge
    j = g(edge i) runs high -> low: that is bit i of o, flipped when g
    sends the low end of edge i to the high end of edge j.  Over the masks
    0..omax-1, ``lt`` holds those g maps strictly below themselves and
    ``le`` those g maps at or below themselves.  Returns the union of every
    ``lt``, which are rejected whatever the labeling, and, per g whose
    ``le`` adds to that union, (vertex map, source edge of each image
    edge, ``le``)."""
    pos = {e: i for i, e in enumerate(shape)}
    always = 0
    tables = []
    for p in automorphisms(shape, n):
        if p == tuple(range(n)):
            continue
        src = [0] * len(shape)
        flips = []
        for i, (a, b) in enumerate(shape):
            ia, ib = p[a], p[b]
            j = pos[(min(ia, ib), max(ia, ib))]
            src[j] = i
            flips.append((i, 1 << j, ia > ib))
        lt = le = 0
        for o in range(omax):
            img = 0
            for i, bit, flip in flips:
                if (o >> i & 1) != flip:
                    img |= bit
            if img < o:
                lt |= 1 << o
            if img <= o:
                le |= 1 << o
        always |= lt
        tables.append((p, tuple(src), le))
    return always, tuple(t for t in tables if t[2] & ~always)


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


def iter_small_lots(max_edges: int, orientations: bool = True) -> Iterator[Lot]:
    """All injective compressed LOTs with 0..max_edges edges.

    With ``orientations=False`` every edge runs low index -> high index,
    which is enough for orientation-independent properties (sub-LOTs,
    collapses, free decompositions).  One representative per isomorphism
    class is produced: the candidate (orientation mask, labeling) that no
    automorphism of its shape maps lexicographically lower.  Orientations
    come before labels in that order, so per labeling an automorphism
    rejects the orientations it lowers (its ``lt`` mask), plus those it
    fixes (the rest of ``le``) when it also lowers the labeling; each
    labeling applies every automorphism once, not once per orientation.
    Order: shapes by size, then labelings, then orientation masks.

    Each ``Lot`` gets its int view, not re-derived from names: incident
    lists and root paths per shape, label counts and both int triples of
    each edge per labeling, edge tuples per kept orientation.
    """
    if max_edges < 0:
        return
    yield Lot(("v0",), ())
    for n in range(2, max_edges + 2):
        m = n - 1
        names = tuple(f"v{i}" for i in range(n))
        omax = (1 << m) if orientations else 1
        # orientation mask -> per edge, 0 for a -> b or 1 for b -> a
        flips = [[o >> i & 1 for i in range(m)] for o in range(omax)]
        # (edge a-b, label l) -> (a -> b, b -> a); shared by every LOT on n
        pairs = {(a, b): tuple((LotEdge(names[a], names[b], names[l]),
                                LotEdge(names[b], names[a], names[l]))
                               for l in range(n))
                 for a in range(n) for b in range(a + 1, n)}
        for shape in tree_shapes(n):
            always, tables = _orbit_tables(shape, n, omax)
            ends = [pairs[e] for e in shape]
            incident = tuple(tuple(i for i, e in enumerate(shape) if v in e)
                             for v in range(n))
            paths = tuple(_root_paths(_IntView(
                n, tuple((a, b, 0) for a, b in shape), incident, ())))
            for labels in _labelings(shape, n):
                rejected = always
                for p, src, le in tables:
                    if le & ~rejected and \
                            tuple([p[labels[i]] for i in src]) < labels:
                        rejected |= le
                choice = [ends[i][labels[i]] for i in range(m)]
                ints = [((a, b, l), (b, a, l))
                        for (a, b), l in zip(shape, labels)]
                labelled = [0] * n
                for i, l in enumerate(labels):
                    labelled[l] |= 1 << i
                labelled = tuple(labelled)
                for orient, bits in enumerate(flips):
                    if not rejected >> orient & 1:
                        yield _lot_from_view(
                            names, tuple(map(getitem, choice, bits)),
                            _IntView(n, tuple(map(getitem, ints, bits)),
                                     incident, labelled), paths)


# ---------------------------------------------------------------------------
# seeded random generators for property tests
# ---------------------------------------------------------------------------

def random_lot(rng: random.Random, n_edges: int, injective: bool = True,
               compressed: bool = True) -> Lot:
    """Random LOT on n_edges+1 vertices via a random Prufer sequence."""
    if n_edges < 0:
        raise ValueError(f"a LOT cannot have {n_edges} edges")
    n = n_edges + 1
    names = tuple(f"v{i}" for i in range(n))
    if n == 1:
        return Lot(names, ())
    if n == 2 and compressed:
        raise ValueError("a single-edge LOT is labeled by one of its "
                         "endpoints, so it cannot be compressed")
    while True:  # a rare dead end draws a fresh tree
        shape = _prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        labels = _random_labels(rng, shape, n, injective, compressed)
        if labels is not None:
            break
    edges = []
    for (a, b), l in zip(shape, labels):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(LotEdge(names[a], names[b], names[l]))
    return Lot(names, tuple(edges))


def _random_labels(rng: random.Random, shape, n: int, injective: bool,
                   compressed: bool) -> Optional[list[int]]:
    """One label per edge of ``shape``, or None at a dead end."""
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
        if pick is None:
            return None
        labels.append(pick)
    return labels
