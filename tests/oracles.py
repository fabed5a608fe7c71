"""Independent oracles and random generators shared by the unit tests and
the acceptance suite.

The oracles deliberately use different algorithms from the library:
reduced-cycle minima come from a length-bounded dynamic program over dart
walks, homology-reduced violations from exhaustive DFS enumeration of
simple cycles (the inclusion-minimal homology reduced cycles), and relative
forests from leaf peeling rather than union-find.  The LOT-level oracles
are the brute-force scans the library replaced: every edge subset for the
sub-LOT structure, each tested by merging its edges into vertex groups
rather than with the library's ``is_sublot``, a binary counter over flip
sets for the orientation search, and a binary counter over the branches
at a vertex for the free decomposition.  The weight-cycle searches the library replaced are kept
too, in their ``Fraction`` form with no bound on any Dijkstra run, as the
reference the library's witnesses must match exactly, and so is the
vertex-by-vertex corner walk of a surface diagram, with its pairwise scan
for folding corners, that the one-pass gluing replaced.  The routes through
a built lk(L) that the int-indexed corners replaced stay too: the signed
forest check on the polarity subgraph, and corner ids of diagram corners
read from the link's provenance.  Two second routes to a library decision
live here as well: the forest check through the relative link's
Delta-blocks, and the flip-set forest check of lk+ and lk- as one yes/no.
Small-LOT generation has its filter-then-test form here: tree shapes from
every Prufer sequence, and each (orientation, labeling) candidate tested
against every automorphism on its own.  So does the certificate reader that
one split pass replaced, which built each atom one character at a time and
read every atom ``int()`` accepts as an int.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

from lotva import (BoundaryWord, Cell, EdgeEnd, FreeDecomposition,
                   LinkGraph, Lot, LotEdge, ParseError, PreconditionError,
                   SubcomplexFamily, SurfaceDiagram, TwoComplex,
                   WeightAssignment, build_link, build_relative_link,
                   relative_forest_check, signed_sublinks,
                   sublot_closure, sublot_vertices, validate_diagram)
from lotva.certify import MAX_CERT_DEPTH, _from_sexp
from lotva.sweep import _ahu_key, _labelings, _prufer_decode, automorphisms
from lotva.weights import FlipForests, flip_mask


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
# second routes to the forest decisions
# ---------------------------------------------------------------------------

def delta_relative_forest_check(cx: TwoComplex, fam: SubcomplexFamily, pol: int):
    """Is lk^pol(L, K) a forest relative to Delta^pol(K)?  The route through
    the relative link; it agrees with ``signed_relative_forest_check`` on
    forest / not forest."""
    rg = build_relative_link(cx, fam)
    kept = tuple(c for c in rg.corners
                 if c.a.polarity == pol and c.b.polarity == pol)
    sub = LinkGraph(tuple(n for n in rg.nodes if n.polarity == pol), kept)
    blocks = [(frozenset(n for n in blk.nodes if n.polarity == pol),
               frozenset(c.id for c in kept if c.id in blk.corner_ids))
              for blk in rg.delta_blocks]
    return relative_forest_check(sub, blocks)


def link_signed_relative_forest_check(cx: TwoComplex, fam: SubcomplexFamily,
                                      pol: int):
    """``signed_relative_forest_check`` through a built link: lk^pol(L) as
    the polarity subgraph of build_link(cx), with one block per part: its
    ends of polarity pol, designating the corners of its cells."""
    pos, neg = signed_sublinks(build_link(cx))
    sub = pos if pol == 1 else neg
    by_cell = {}
    for c in sub.corners:
        by_cell.setdefault(c.provenance[1], []).append(c.id)
    blocks = [(frozenset(EdgeEnd(x, pol) for x in edges),
               frozenset(cid for cn in cells for cid in by_cell.get(cn, ())))
              for edges, cells in fam.parts]
    return relative_forest_check(sub, blocks)


def closure_family(lot):
    """Edge closures that are proper sub-LOTs, kept greedily in edge order
    while vertex-disjoint from those already kept."""
    parts, used = [], set()
    for e in range(lot.num_edges):
        part = sublot_closure(lot, e)
        vs = sublot_vertices(lot, part)
        if len(part) < lot.num_edges and not vs & used:
            parts.append(part)
            used |= vs
    return parts


def orientation_search_check(lot, fixed, flipped) -> bool:
    """Do lk+ and lk- both pass the relative forest check under this flip
    set?  The certificate verifier makes the same two checks one by one."""
    forests = FlipForests(lot, fixed)
    flip = flip_mask(lot, flipped)
    return forests.is_forest(flip, 1) and forests.is_forest(flip, -1)


# ---------------------------------------------------------------------------
# weight-cycle searches in Fraction arithmetic
# ---------------------------------------------------------------------------
# The library's searches before they moved to an integer scale with bounded
# Dijkstra runs.  They search every dart and every corner to the end, and
# their witnesses are what the library must still return.

Dart = tuple[int, int]  # (corner id, direction 0: a->b, 1: b->a)


def _check_nonnegative(w: WeightAssignment) -> None:
    if any(x < 0 for x in w.weights.values()):
        raise PreconditionError("negative weights are not supported")


def _corner_map(g: LinkGraph) -> dict[int, "object"]:
    return {c.id: c for c in g.corners}


def _reverse(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def reference_min_weight_reduced_cycle(g: LinkGraph, w: WeightAssignment
                                       ) -> Optional[tuple[Fraction, tuple[Dart, ...]]]:
    """Exact minimum weight over all reduced cycles, with a witness.

    Returns None when the link has no reduced cycle at all.
    """
    w.check_total(c.id for c in g.corners)
    _check_nonnegative(w)
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

def reference_find_homred_violation(g: LinkGraph, w: WeightAssignment
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
    w.check_total(c.id for c in g.corners)
    _check_nonnegative(w)
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
# small-LOT generation by filter-then-test
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def reference_tree_shapes(n: int):
    """One tree per AHU class, first in Prufer order, from a scan of all
    n^(n-2) Prufer sequences."""
    if n == 1:
        return ((),)
    reps = {}
    for seq in product(range(n), repeat=n - 2):
        t = tuple(sorted((min(e), max(e)) for e in _prufer_decode(seq, n)))
        reps.setdefault(_ahu_key(t, n), t)
    return tuple(sorted(reps.values()))


def _is_orbit_min(tables, orient: int, labels: tuple) -> bool:
    """No automorphism maps (orient, labels) lexicographically below
    itself; each one is applied edge by edge to this candidate."""
    m = len(labels)
    me = (orient, labels)
    for p, emap in tables:
        new_orient = 0
        new_labels = [0] * m
        for i in range(m):
            j, flip = emap[i]
            if (orient >> i & 1) != flip:
                new_orient |= 1 << j
            new_labels[j] = p[labels[i]]
        if (new_orient, tuple(new_labels)) < me:
            return False
    return True


def reference_small_lots(max_edges: int, orientations: bool = True):
    """``iter_small_lots`` as filter-then-test: every (labeling, orientation)
    of every shape, kept iff it is the minimum of its orbit."""
    if max_edges < 0:
        return
    yield Lot(("v0",), ())
    for n in range(2, max_edges + 2):
        names = tuple(f"v{i}" for i in range(n))
        for shape in reference_tree_shapes(n):
            pos = {e: i for i, e in enumerate(shape)}
            tables = []
            for p in automorphisms(shape, n):
                if p != tuple(range(n)):
                    tables.append((p, [(pos[(min(p[a], p[b]), max(p[a], p[b]))],
                                        p[a] > p[b]) for a, b in shape]))
            for labels in _labelings(shape, n):
                for orient in range((1 << len(shape)) if orientations else 1):
                    if not _is_orbit_min(tables, orient, labels):
                        continue
                    edges = []
                    for i, (a, b) in enumerate(shape):
                        t, h = (b, a) if orient >> i & 1 else (a, b)
                        edges.append(LotEdge(names[t], names[h],
                                             names[labels[i]]))
                    yield Lot(names, tuple(edges))


# ---------------------------------------------------------------------------
# LOT structure by exhaustive scans
# ---------------------------------------------------------------------------

def reference_is_sublot(lot, edge_ids) -> bool:
    """The sub-LOT test by definition, with no library code: a nonempty set
    of the LOT's edge ids whose edges merge, by shared endpoints, into one
    vertex group with one vertex more than there are edges (a subtree),
    and whose labels all lie in that group."""
    ids = set(edge_ids)
    if not ids or not ids <= set(range(len(lot.edges))):
        return False
    # connectivity via repeated edge-merging
    groups = [{lot.edges[i].tail, lot.edges[i].head} for i in ids]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    if len(groups) != 1 or len(groups[0]) != len(ids) + 1:
        return False
    return all(lot.edges[i].label in groups[0] for i in ids)


def oracle_sublots(lot):
    """Independent enumeration: every edge subset that passes
    ``reference_is_sublot``."""
    m = lot.num_edges
    return {frozenset(combo) for k in range(1, m + 1)
            for combo in combinations(range(m), k)
            if reference_is_sublot(lot, combo)}


def oracle_sublot_structure(lot):
    """(all sub-LOTs, maximal proper ones, smallest-proper witness, prime)
    from a scan of all 2^m edge masks; lists sorted by sorted edge ids."""
    m = lot.num_edges
    all_subs = [frozenset(i for i in range(m) if mask >> i & 1)
                for mask in range(1, 1 << m)]
    all_subs = sorted((s for s in all_subs if reference_is_sublot(lot, s)),
                      key=sorted)
    proper = [s for s in all_subs if len(s) < m]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    witness = min(proper, key=lambda s: (len(s), sorted(s))) if proper else None
    return all_subs, maximal, witness, not proper


def oracle_orientation_search(lot, fixed=()):
    """First flip set of the non-fixed edges, in binary-counter order
    (bit j = j-th free edge), that passes ``orientation_search_check``."""
    fixed = list(fixed)
    fixed_edges = frozenset().union(*fixed)
    free = [i for i in range(lot.num_edges) if i not in fixed_edges]
    for counter in range(1 << len(free)):
        flip = frozenset(ei for j, ei in enumerate(free) if counter >> j & 1)
        if orientation_search_check(lot, fixed, flip):
            return flip
    return None


def oracle_free_decomposition(lot):
    """At each vertex in order, a binary counter over its branches (ordered
    by smallest edge id); the first bit-set side whose halves are both
    sub-LOTs is the left one."""
    m = lot.num_edges
    if m < 2:
        return None
    all_ids = frozenset(range(m))
    for v in lot.vertices:
        at_v = [i for i, e in enumerate(lot.edges) if v in (e.tail, e.head)]
        if len(at_v) < 2:
            continue
        # grow each branch from an edge at v without passing through v
        branches = []
        for start in at_v:
            comp, verts, grew = {start}, set(sublot_vertices(lot, [start])), True
            while grew:
                grew = False
                for i, e in enumerate(lot.edges):
                    if i not in comp and ({e.tail, e.head} & (verts - {v})):
                        comp.add(i)
                        verts |= {e.tail, e.head}
                        grew = True
            branches.append(frozenset(comp))
        branches.sort(key=min)
        k = len(branches)
        for mask in range(1, (1 << k) - 1):
            left = frozenset().union(*(branches[j] for j in range(k) if mask >> j & 1))
            if reference_is_sublot(lot, left) and \
                    reference_is_sublot(lot, all_ids - left):
                return FreeDecomposition(left, all_ids - left, v)
    return None


# ---------------------------------------------------------------------------
# certificate reader
# ---------------------------------------------------------------------------

def _reference_tokenize(text: str) -> list[str]:
    out = []
    cur = ""
    for ch in text:
        if ch in "()":
            if cur:
                out.append(cur)
                cur = ""
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append(cur)
                cur = ""
        else:
            cur += ch
    if cur:
        out.append(cur)
    return out


def _reference_read(tokens: list[str]):
    """The single s-expression the tokens spell; integer atoms become ints."""
    stack: list[list] = [[]]
    for tok in tokens:
        if len(stack) == 1 and stack[0]:
            raise ParseError("trailing data after certificate")
        if tok == "(":
            if len(stack) > MAX_CERT_DEPTH:
                raise ParseError(f"certificate nests deeper than {MAX_CERT_DEPTH}")
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ParseError("unexpected )")
            done = stack.pop()
            stack[-1].append(done)
        else:
            try:
                stack[-1].append(int(tok))
            except ValueError:
                stack[-1].append(tok)
    if len(stack) > 1:
        raise ParseError("unbalanced parentheses")
    if not stack[0]:
        raise ParseError("unexpected end of certificate")
    return stack[0][0]


def reference_parse_certificate(text: str):
    """``parse_certificate`` with the reader it had before: the library's
    node builder over the nested lists that ``_reference_read`` spells.
    The builder's ``_int`` takes an int atom as it is and raises the same
    error as before on any other atom.  Its ``_name`` takes ``str()`` of an
    atom, so a name that reads as an int comes back in ``int()``'s
    spelling ("01" as "1")."""
    return _from_sexp(_reference_read(_reference_tokenize(text)))


# ---------------------------------------------------------------------------
# vertex links of surface diagrams
# ---------------------------------------------------------------------------

def link_corner_ids(cx: TwoComplex) -> dict[tuple[str, int], int]:
    """(cell name, position) -> corner id, read from build_link(cx)."""
    return {(c.provenance[1], c.provenance[2]): c.id
            for c in build_link(cx).corners}


def reference_vertex_corners(d: SurfaceDiagram, cx: TwoComplex
                             ) -> dict[str, list[tuple[int, int, str]]]:
    """Per vertex of a valid diagram, its corners in rotation order as
    (corner id in lk(L), direction, face name), walked vertex by vertex.

    Each walk starts at the first dart, in face order, that ends at the
    vertex, and steps from a corner (incoming a, outgoing b) to the corner
    whose incoming dart is b reversed.  Corner ids come from
    ``link_corner_ids``.
    """
    rotations = validate_diagram(d, cx).rotations
    idx = link_corner_ids(cx)
    succ, corner_of = {}, {}
    for f, r in zip(d.faces, rotations):
        q = len(f.boundary)
        for i, dart in enumerate(f.boundary):
            succ[dart] = f.boundary[(i + 1) % q]
            if f.orientation > 0:
                corner_of[dart] = (idx[(f.cell, (i + r) % q)], 1, f.name)
            else:
                corner_of[dart] = (idx[(f.cell, (q - 2 - i - r) % q)], -1, f.name)

    def head(dart):
        e = d.edges[dart[0]]
        return e.head if dart[1] > 0 else e.tail

    first_in = {}
    for a in succ:
        first_in.setdefault(head(a), a)
    out = {}
    for v in d.vertices:
        start = dart = first_in[v]
        out[v] = []
        while True:
            out[v].append(corner_of[dart])
            nxt = succ[dart]
            dart = (nxt[0], -nxt[1])
            if dart == start:
                break
    return out


def reference_curvature(d: SurfaceDiagram, corners, w: WeightAssignment):
    """(face curvature, vertex curvature) by name from the corners of
    ``reference_vertex_corners``: every corner of d lies at one vertex."""
    face_sum = {f.name: -(len(f.boundary) - 2) for f in d.faces}
    vertex_curv = {}
    for v, around in corners.items():
        vertex_curv[v] = 2 - sum((w[cid] for cid, _, _ in around), Fraction(0))
        for cid, _, face in around:
            face_sum[face] += w[cid]
    return face_sum, vertex_curv


def reference_find_folding_vertices(d: SurfaceDiagram, corners, scope=None):
    """Per vertex, the first pair (i < j) of its ``corners`` (from
    ``reference_vertex_corners``) reading one link corner in opposite
    directions, by a scan over all pairs."""
    scope_cells = scope.all_cells if scope is not None else frozenset()
    outside = {f.name for f in d.faces if f.cell not in scope_cells}
    out = []
    for v, around in corners.items():
        pairs = [(f1, f2) for (c1, s1, f1), (c2, s2, f2) in combinations(around, 2)
                 if c1 == c2 and s1 == -s2 and f1 in outside and f2 in outside]
        if pairs:
            out.append((v, pairs[0]))
    return out


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
