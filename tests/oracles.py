"""Independent oracles and random generators shared by the unit tests and
the acceptance suite.

The oracles deliberately use different algorithms from the library:
reduced-cycle minima come from a length-bounded dynamic program over dart
walks, homology-reduced violations from exhaustive DFS enumeration of
simple cycles (the inclusion-minimal homology reduced cycles), and relative
forests from leaf peeling rather than union-find.
"""

import random
from collections import Counter
from fractions import Fraction

from lotva import (BoundaryWord, Cell, LinkGraph, SubcomplexFamily, TwoComplex,
                   WeightAssignment, build_link, build_relative_link)


def _dart_tail(g, d):
    c = g.corners[d[0]]
    return c.a if d[1] == 0 else c.b


def _dart_head(g, d):
    c = g.corners[d[0]]
    return c.b if d[1] == 0 else c.a


def oracle_min_reduced_cycle(g: LinkGraph, w: WeightAssignment, max_len=12):
    """Minimum weight over reduced cycles of length <= max_len, by DP over
    walk length; None if there are none."""
    darts = [(c.id, d) for c in g.corners for d in (0, 1)]
    out = {}
    for d in darts:
        out.setdefault(_dart_tail(g, d), []).append(d)
    best = None
    for d0 in darts:
        layer = {d0: w[d0[0]]}
        for _ in range(max_len):
            for d, val in layer.items():
                if _dart_head(g, d) == _dart_tail(g, d0) and d != (d0[0], 1 - d0[1]):
                    if best is None or val < best:
                        best = val
            nxt = {}
            for d, val in layer.items():
                for d2 in out.get(_dart_head(g, d), []):
                    if d2 == (d[0], 1 - d[1]):
                        continue
                    nv = val + w[d2[0]]
                    if d2 not in nxt or nv < nxt[d2]:
                        nxt[d2] = nv
            layer = nxt
            if not layer:
                break
    return best


def oracle_homred_violation_exists(g: LinkGraph, w: WeightAssignment) -> bool:
    """Exhaustive simple-cycle enumeration: is there a homology reduced
    cycle of weight < 2 containing a non-delta corner?

    Simple cycles are exactly the inclusion-minimal homology reduced
    cycles, and splitting at repeated vertices shows a violation exists iff
    a simple-cycle violation exists.
    """
    two = Fraction(2)
    delta = {c.id for c in g.corners if c.is_delta}
    # loops
    for c in g.corners:
        if c.a == c.b and c.id not in delta and w[c.id] < two:
            return True
    adj = {}
    for c in g.corners:
        if c.a == c.b:
            continue
        adj.setdefault(c.a, []).append((c.b, c.id))
        adj.setdefault(c.b, []).append((c.a, c.id))
    nodes = sorted(adj)
    found = [False]

    def dfs(start, node, visited, used, weight, has_plain):
        if found[0]:
            return
        for nb, cid in adj.get(node, []):
            if cid in used:
                continue
            nw = weight + w[cid]
            if nw >= two:
                continue
            plain = has_plain or cid not in delta
            if nb == start:
                if plain and len(used) >= 1:  # closing: length >= 2
                    found[0] = True
                    return
                continue
            if nb in visited or nb < start:
                continue
            dfs(start, nb, visited | {nb}, used | {cid}, nw, plain)

    for start in nodes:
        dfs(start, start, {start}, frozenset(), Fraction(0), False)
        if found[0]:
            return True
    return False


def quotient_corners(g: LinkGraph, blocks) -> dict:
    """Corner id -> its endpoints in the quotient of g by the blocks: block
    nodes contracted to ("block", i), designated corners dropped."""
    rep = {}
    dropped = set()
    for i, (nodes, ids) in enumerate(blocks):
        for n in nodes:
            rep[n] = ("block", i)
        dropped |= set(ids)
    return {c.id: (rep.get(c.a, c.a), rep.get(c.b, c.b))
            for c in g.corners if c.id not in dropped}


def oracle_relative_forest(g: LinkGraph, blocks) -> bool:
    """Leaf peeling: in the quotient, strip a corner with a degree-1 end
    until none is left; the quotient is a forest iff no corner survives.
    A loop adds 2 to its node's degree, so it is never stripped."""
    ends = quotient_corners(g, blocks)
    degree = Counter()
    for u, v in ends.values():
        degree[u] += 1
        degree[v] += 1
    stripped = True
    while stripped:
        stripped = False
        for cid, (u, v) in list(ends.items()):
            if degree[u] == 1 or degree[v] == 1:
                del ends[cid]
                degree[u] -= 1
                degree[v] -= 1
                stripped = True
    return not ends


def is_closed_cycle(g: LinkGraph, blocks, witness) -> bool:
    """Do the witness corners, all distinct and none designated, form a
    closed walk in the quotient, in the given order?"""
    ends = quotient_corners(g, blocks)
    if not witness or len(set(witness)) != len(witness) \
            or any(cid not in ends for cid in witness):
        return False
    for start in ends[witness[0]]:
        at = start
        for cid in witness:
            u, v = ends[cid]
            if at == u:
                at = v
            elif at == v:
                at = u
            else:
                break
        else:
            if at == start:
                return True
    return False


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_weights(rng: random.Random, g: LinkGraph) -> WeightAssignment:
    return WeightAssignment({
        c.id: Fraction(rng.randrange(0, 9), rng.choice([1, 2, 3, 4]))
        for c in g.corners})


def random_complex(rng: random.Random, max_corners=12,
                   n_edges=None) -> TwoComplex:
    if n_edges is None:
        n_edges = rng.randrange(2, 6)
    names = [f"x{i}" for i in range(n_edges)]
    cells = []
    total = 0
    budget = rng.randrange(2, max_corners + 1)
    ci = 0
    while total < budget:
        q = min(rng.randrange(1, 5), budget - total)
        letters = tuple((rng.choice(names), rng.choice((1, -1)))
                        for _ in range(q))
        cells.append(Cell(f"c{ci}", BoundaryWord(letters)))
        ci += 1
        total += q
    return TwoComplex(tuple(names), tuple(cells))


def random_link(rng: random.Random, max_corners=12) -> LinkGraph:
    return build_link(random_complex(rng, max_corners))


def random_relative_link(rng: random.Random) -> LinkGraph:
    """Random relative link on <= 12 nodes with small delta parts, so that
    simple cycles never exceed length 12."""
    n_edges = rng.randrange(2, 7)
    cx = random_complex(rng, max_corners=10, n_edges=n_edges)
    pool = list(cx.edge_names)
    rng.shuffle(pool)
    parts = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        take = rng.randrange(1, 3)
        if take > len(pool):
            break
        edges = frozenset(pool[:take])
        pool = pool[take:]
        cells = frozenset(c.name for c in cx.cells
                          if all(x in edges for x, _ in c.boundary.letters))
        parts.append((edges, cells))
    fam = SubcomplexFamily(tuple(parts))
    return build_relative_link(cx, fam)
