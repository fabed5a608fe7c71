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
a built lk(L) that the int-indexed corners replaced stay too: the
polarity sublinks (``signed_sublinks``), the forest check of a built link
relative to blocks of its nodes (``relative_forest_check``), the signed
forest check on the polarity subgraph, and corner ids of diagram corners
read from the link's provenance.  Two second routes to a library decision
live here as well: the forest check through the relative link's
Delta-blocks, and the flip-set forest check of lk+ and lk- as one yes/no
on vertex names with a union-find of its own.
Small-LOT generation has its filter-then-test form here: tree shapes from
every Prufer sequence, and each (orientation, labeling) candidate tested
against every automorphism on its own.  So does the certificate reader that
one split pass replaced, which built each atom one character at a time and
read every atom ``int()`` accepts as an int; kept with its own node builder,
and with atoms left as text it is the nested-list reader that the
token-list reader replaced.  So do the LOT reader that collected names
before ``Lot(...)`` mapped them to ints, and the certificate writer
that one pass of lines replaced, which printed nested lists.  The collapse
that the library makes on int views has its name-level form here
(``named_collapse``, with ``collapse_vertex_of``).  The complete-set search
has a name-level form that builds every quotient with it, and so do the
verifier's own checks of a complete-set node: fullness through K(lot)
(``is_full``), both relative forests through the reoriented K(lot)
(``signed_relative_forest_check``) and the collapse chain replayed on
named quotients with ``maximal_sublots``.  The closure of an edge mask
walked from scratch (``reference_closure``) is the definition behind the
verifier's amortized closure checks.  The orientation walk with a cycle as its only
cut, on ``UnionFind`` with an undo log (``reference_first_forest_flip``),
is the reference for the library walk's reachability checks.  The prover
that built every child node as a ``Lot`` of its own, and decided it with
the Lot-level calls, is kept as ``reference_certify``: the library prover,
which walks masks of the root's view, must return its certificates.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

from lotva import (BaseTrivial, BoundaryReduction, BoundaryWord, Cell,
                   CertifyFailure, ChainStep, CollapseChain,
                   CompleteSetRelative, EdgeEnd, FreeDecomposition,
                   FreeDecompositionNode, LinkGraph, Lot, LotEdge, LotvaError,
                   ParseError, PreconditionError, PrimeWeightTest,
                   SubcomplexFamily, SurfaceDiagram, TwoComplex,
                   WeightAssignment, boundary_reduce,
                   boundary_reducible_witness, build_complex, build_link,
                   build_relative_link, canonical_weights, check_properties,
                   complete_set_search, derive_subcomplexes, exponent_sum,
                   extract_sublot, free_decomposition, is_compressed,
                   is_injective, is_sublot, orientation_search, reorient,
                   signed_relative_forest_check, sublot_closure,
                   sublot_vertices, validate_diagram, verify_certificate)
from lotva.certify import MAX_CERT_DEPTH, _unreadable
from lotva.complexes import validate_family
from lotva.linkage import _forest_witness
from lotva.lot import _IDENT, maximal_sublots
from lotva.orient import UnionFind
from lotva.sweep import _ahu_key, _labelings, _prufer_decode, automorphisms


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
# routes to the forest decisions through built links
# ---------------------------------------------------------------------------

def signed_sublinks(g: LinkGraph) -> tuple[LinkGraph, LinkGraph]:
    """Full subgraphs of an absolute link on the positive / negative nodes
    (corner ids kept)."""
    if g.delta_blocks is not None:
        raise PreconditionError("signed_sublinks expects an absolute link")
    return (_polarity_subgraph(g, 1), _polarity_subgraph(g, -1))


def _polarity_subgraph(g: LinkGraph, pol: int) -> LinkGraph:
    nodes = tuple(n for n in g.nodes if n.polarity == pol)
    corners = tuple(c for c in g.corners
                    if c.a.polarity == pol and c.b.polarity == pol)
    return LinkGraph(nodes, corners)


def relative_forest_check(g: LinkGraph, blocks):
    """Is g a forest relative to the given blocks?

    Each block is (node subset, designated corner ids); its nodes are
    contracted to a point and its designated corners vanish.  Any loop,
    parallel pair or longer cycle in the quotient multigraph counts as a
    cycle; the witness is such a cycle as a tuple of original corner ids.
    """
    blocks = list(blocks)
    index: dict[EdgeEnd, int] = {}
    dropped: set[int] = set()
    for i, (nodes, ids) in enumerate(blocks):
        if any(n in index for n in nodes):
            raise PreconditionError("blocks overlap")
        index.update(dict.fromkeys(nodes, i))
        dropped |= set(ids)
    size = len(blocks)
    pairs: list[tuple[int, int]] = []
    kept: list[int] = []
    for c in g.corners:
        if c.id in dropped:
            continue
        for n in (c.a, c.b):
            if n not in index:
                index[n] = size
                size += 1
        pairs.append((index[c.a], index[c.b]))
        kept.append(c.id)
    return _forest_witness(size, pairs, kept)


def delta_relative_forest_check(cx: TwoComplex, fam: SubcomplexFamily, pol: int):
    """Is lk^pol(L, K) a forest relative to Delta^pol(K)?  The route through
    the relative link; it agrees with ``signed_relative_forest_check`` on
    forest / not forest."""
    rg = build_relative_link(cx, fam)
    kept = tuple(c for c in rg.corners
                 if c.a.polarity == pol and c.b.polarity == pol)
    sub = LinkGraph(tuple(n for n in rg.nodes if n.polarity == pol), kept)
    blocks = [(frozenset(n for n in blk.nodes if n.polarity == pol),
               frozenset(c.id for c in kept if c.provenance == ("delta", bi)))
              for bi, blk in enumerate(rg.delta_blocks)]
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
    set?  On vertex names: each fixed sub-LOT's vertices merge into one
    node (``sublot_vertices``, which refuses an unknown edge id), its own
    edges drop out, and each colour's corners label+ -- tail+ and label- --
    head- of the reoriented edges go through ``_names_form_forest``."""
    node = {v: v for v in lot.vertices}
    inside = set()
    for k, ids in enumerate(fixed):
        for v in sublot_vertices(lot, ids):
            node[v] = ("part", k)
        inside |= set(ids)
    flipped = set(flipped)
    pos, neg = [], []
    for i, (t, h, l) in enumerate(lot.edges):
        if i not in inside:
            if i in flipped:
                t, h = h, t
            pos.append((node[l], node[t]))
            neg.append((node[l], node[h]))
    return _names_form_forest(pos) and _names_form_forest(neg)


def _names_form_forest(pairs) -> bool:
    """Whether the pairs of nodes form a forest: plain links to a root in
    a dict, no union by size, a loop a cycle."""
    up = {}

    def root(x):
        while x in up:
            x = up[x]
        return x

    for a, b in pairs:
        a, b = root(a), root(b)
        if a == b:
            return False
        up[a] = b
    return True


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


def reference_closure(edges, paths, mask: int) -> int:
    """The smallest sub-LOT holding the edges of the nonempty bitmask
    ``mask``, which need not be connected, as a bitmask: the definition the
    verifier's ``_closes_up`` answers for many masks at once.

    ``edges`` are (tail, head, label) vertex indices and ``paths`` root
    paths as in ``lot._root_paths``; the path between u and v is
    ``paths[u] ^ paths[v]``.  The paths from one tail to every edge's tail
    span the mask; then each edge's label adds its path to the span,
    until no edge comes in."""
    base = paths[edges[(mask & -mask).bit_length() - 1][0]]
    new = mask
    for i in range(len(edges)):
        if mask >> i & 1:
            new |= paths[edges[i][0]] ^ base
    mask = 0
    while new:
        mask |= new
        grow = 0
        for i in range(len(edges)):
            if new >> i & 1:
                grow |= paths[edges[i][2]] ^ base
        new = grow & ~mask
    return mask


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


def reference_first_forest_flip(forests, budget=None):
    """``FlipForests.first_forest_flip`` as a plain depth-first walk: one
    union-find with an undo log over lk+ and lk- (lk- nodes offset by the
    node count), a cycle the only cut, and no existence test.  It returns
    the same mask, None included, and raises at the same budget where the
    library walk never prunes."""
    size = forests._size
    uf = _UndoUnionFind(2 * size)
    limit = budget
    edges = forests._edges[::-1]
    choice = [0] * len(edges)  # per depth: next to try, 0 keep, 1 flip
    flip = depth = 0
    while depth < len(edges):
        bit, l, t, h = edges[depth]
        if choice[depth] == 2:  # both tried: back up one edge
            if budget is not None:
                budget -= 1
                if budget < 0:
                    raise LotvaError(f"orientation search gave up "
                                     f"after {limit} back-ups")
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


class _UndoUnionFind(UnionFind):
    """Union-find that logs the roots it absorbs, so the last union can be
    rolled back (there is no path compression)."""

    def __init__(self, n):
        super().__init__(n)
        self.joined = []

    def union(self, u, v):
        u, v = self.find(u), self.find(v)
        if u == v:
            return False
        if self.size[u] > self.size[v]:
            u, v = v, u
        self.parent[u] = v
        self.size[v] += self.size[u]
        self.joined.append(u)
        return True

    def undo(self):
        u = self.joined.pop()
        self.size[self.parent[u]] -= self.size[u]
        self.parent[u] = u


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


def collapse_vertex_of(lot: Lot, sublot_edges) -> str:
    """The unique vertex of the sub-LOT not occurring as a label inside it.

    Existence and uniqueness need injectivity of the ambient LOT; anything
    else is reported as a precondition violation.
    """
    ids = sorted(set(sublot_edges))
    vs = sublot_vertices(lot, ids)
    internal_labels = {lot.edges[i].label for i in ids}
    candidates = sorted(vs - internal_labels)
    if len(candidates) != 1:
        raise PreconditionError(
            f"collapse vertex is not unique ({candidates}); input not injective?")
    return candidates[0]


def named_collapse(lot: Lot, sublot_edges) -> tuple[Lot, str]:
    """``collapse`` on vertex names: the quotient keeps the edges outside
    the sub-LOT (in ambient id order, re-indexed densely), maps every
    vertex of the sub-LOT to ``collapse_vertex_of`` and is built through
    ``Lot``'s own checks.  Same preconditions, in the same order."""
    ids = sorted(set(sublot_edges))
    if not is_sublot(lot, ids):
        raise PreconditionError(f"edge set {ids} is not a sub-LOT")
    if not is_injective(lot):
        raise PreconditionError("collapse requires an injective LOT")
    x = collapse_vertex_of(lot, ids)
    inside = sublot_vertices(lot, ids)

    def q(v: str) -> str:
        return x if v in inside else v

    kept = [i for i in range(lot.num_edges) if i not in set(ids)]
    edges = tuple(LotEdge(q(lot.edges[i].tail), q(lot.edges[i].head),
                          q(lot.edges[i].label)) for i in kept)
    vset = {x}
    for e in edges:
        vset.add(e.tail)
        vset.add(e.head)
    vertices = tuple(v for v in lot.vertices if v in vset)
    return Lot(vertices, edges, name=lot.name), x


def reference_search_complete_set(lot):
    """``complete_set_search`` with every quotient a named ``Lot`` built by
    ``named_collapse``, each with its own closures and ``maximal_sublots``,
    backtracking over the maximal sub-LOTs in the same order."""

    def rec(current, orig_ids, steps):
        # orig_ids[i] = original edge id of current's edge i
        maximal = maximal_sublots(current)
        if not maximal:  # prime
            if steps and is_compressed(current) and current.num_edges >= 1:
                return steps, current
            return None
        for sub in maximal:
            local = sorted(sub)
            orig = frozenset(orig_ids[i] for i in local)
            quotient, x = named_collapse(current, local)
            kept = [i for i in range(current.num_edges) if i not in sub]
            new_orig = tuple(orig_ids[i] for i in kept)
            found = rec(quotient, new_orig, steps + (ChainStep(orig, x),))
            if found is not None:
                return found
        return None

    found = rec(lot, tuple(range(lot.num_edges)), ())
    if found is None:
        return None
    steps, final = found
    return [s.sublot_edges for s in steps], CollapseChain(steps, final)


class _ReferenceGiveUp(Exception):
    """Carries the ``CertifyFailure`` of a search that came up empty."""


def reference_certify(lot):
    """``certify_va`` with every bdry-red, free-dec and complete-set child a
    ``Lot`` of its own, built with ``boundary_reduce`` and
    ``extract_sublot``, and each node decided by the Lot-level calls:
    ``boundary_reducible_witness``, ``check_properties``,
    ``orientation_search``, ``free_decomposition`` and
    ``complete_set_search``.  Its certificates, final quotients included,
    are the library prover's."""
    try:
        return _reference_certify(lot)
    except _ReferenceGiveUp as stop:
        return stop.args[0]


def _reference_certify(lot):
    if lot.num_edges <= 1:
        return BaseTrivial()
    bw = boundary_reducible_witness(lot)
    if bw is not None:
        return BoundaryReduction(*bw, _reference_certify(boundary_reduce(lot, *bw)))
    if check_properties(lot).prime:
        flipped = orientation_search(lot)
        if flipped is None:
            raise _ReferenceGiveUp(CertifyFailure(
                "prime-orientation-search",
                f"no orientation of {lot.name or 'lot'} gives lk+/lk- forests"))
        return PrimeWeightTest(flipped, *_reference_corners(lot, flipped))
    fd = free_decomposition(lot)
    if fd is not None:
        return FreeDecompositionNode(
            fd.left_edges, fd.right_edges, fd.shared_vertex,
            _reference_certify(extract_sublot(lot, fd.left_edges)),
            _reference_certify(extract_sublot(lot, fd.right_edges)))
    found = complete_set_search(lot)
    if found is None:
        raise _ReferenceGiveUp(CertifyFailure(
            "complete-set-search",
            "non-prime LOT with neither a free decomposition nor a complete set"))
    sublots, chain = found
    flipped = orientation_search(lot, sublots)
    if flipped is None:
        raise _ReferenceGiveUp(CertifyFailure(
            "relative-orientation-search",
            "no orientation gives relative lk+/lk- forests"))
    children = tuple(_reference_certify(extract_sublot(lot, p)) for p in sublots)
    return CompleteSetRelative(tuple(sublots), chain, flipped,
                               *_reference_corners(lot, flipped), children)


def _reference_corners(lot, flipped):
    """The lk+ and lk- corner pairs, label+ -- tail+ and label- -- head-
    of each edge of the LOT reoriented by ``flipped``."""
    edges = reorient(lot, flipped).edges
    return (tuple((l, t) for t, _, l in edges),
            tuple((l, h) for _, h, l in edges))


def is_full(cx: TwoComplex, fam: SubcomplexFamily) -> tuple[bool, ...]:
    """Per part: every cell whose boundary letters all lie in the part's
    edges must belong to the part's cells."""
    validate_family(cx, fam)
    return tuple(all(c.name in cells for c in cx.cells
                     if all(x in edges for x, _ in c.boundary.letters))
                 for edges, cells in fam.parts)


def reference_verify_complete_set(lot, cert) -> tuple[bool, Optional[str]]:
    """``verify_certificate`` on a complete-set node, with the node's own
    checks made on named LOTs: disjointness by vertex names, fullness and
    exponent sums through K(lot) (``build_complex``,
    ``derive_subcomplexes``, ``is_full``), both forests through K of the
    reoriented LOT (``signed_relative_forest_check``), the witness pairs
    by name and the chain replayed by ``reference_replay_chain``.  The
    children go to the library's ``verify_certificate``.  Returns (accepted, failing check)."""
    try:
        check = _reference_complete_set_check(lot, cert)
    except LotvaError:
        check = "malformed-certificate"
    return check is None, check


def _reference_complete_set_check(lot, cert) -> Optional[str]:
    """The first check of the node that fails, or None."""
    m = lot.num_edges
    if not is_injective(lot):
        return "node-injective"
    if not is_compressed(lot):
        return "node-compressed"
    if boundary_reducible_witness(lot) is not None:
        return "complete-set-boundary-reduced"
    if len(cert.children) != len(cert.sublots):
        return "complete-set-children-count"
    if not cert.chain.steps:
        return "complete-set-chain-nonempty"
    seen_e: set[int] = set()
    seen_v: set[str] = set()
    for part in cert.sublots:
        if not part or not all(0 <= i < m for i in part):
            return "complete-set-disjoint"
        vs = sublot_vertices(lot, part)
        if part & seen_e or vs & seen_v:
            return "complete-set-disjoint"
        seen_e |= part
        seen_v |= vs
    cx = build_complex(lot)
    try:
        full = all(is_full(cx, derive_subcomplexes(lot, cert.sublots)))
    except LotvaError:
        full = False
    if not full:
        return "complete-set-full"
    if any(exponent_sum(c.boundary) for c in cx.cells):
        return "complete-set-exponent-sums"
    if not all(0 <= i < m for i in cert.flipped) or cert.flipped & seen_e:
        return "complete-set-flipped-outside"
    flipped = reorient(lot, cert.flipped)
    cx = build_complex(flipped)
    fam = derive_subcomplexes(flipped, cert.sublots)
    if not signed_relative_forest_check(cx, fam, 1)[0]:
        return "complete-set-positive-forest"
    if not signed_relative_forest_check(cx, fam, -1)[0]:
        return "complete-set-negative-forest"
    pos, neg = (tuple((l, t) for t, _, l in flipped.edges),
                tuple((l, h) for _, h, l in flipped.edges))
    if (pos, neg) != (tuple(map(tuple, cert.pos_corners)),
                      tuple(map(tuple, cert.neg_corners))):
        return "complete-set-witness-match"
    check, _ = reference_replay_chain(lot, cert.chain)
    if check is not None:
        return check
    if tuple(s.sublot_edges for s in cert.chain.steps) != cert.sublots:
        return "complete-set-sublots-match-chain"
    for part, child in zip(cert.sublots, cert.children):
        if not is_sublot(lot, part):
            return "complete-set-sublot-in-original"
        verdict = verify_certificate(extract_sublot(lot, part), child)
        if not verdict.accepted:
            return verdict.failing_check
    return None


def reference_replay_chain(lot, chain) -> tuple[Optional[str], Lot]:
    """The collapse chain replayed on named quotients: each step's edges,
    mapped from original ids, must be a proper sub-LOT of the current
    quotient that ``maximal_sublots(current)`` lists, collapsing
    to the recorded vertex (``collapse_vertex_of``, ``named_collapse``);
    the last quotient must equal the recorded one and be prime, compressed
    and hold an edge (``check_properties``).  Returns the first failing check or
    None, and the last quotient reached.  A non-unique collapse vertex
    raises ``PreconditionError``."""
    current = lot
    orig = tuple(range(lot.num_edges))
    for step in chain.steps:
        pos_map = {o: i for i, o in enumerate(orig)}
        if not all(o in pos_map for o in step.sublot_edges):
            return "complete-set-step-sublot", current
        local = frozenset(pos_map[o] for o in step.sublot_edges)
        if not (is_sublot(current, local) and len(local) < current.num_edges):
            return "complete-set-step-sublot", current
        if local not in maximal_sublots(current):
            return "complete-set-step-maximal", current
        if collapse_vertex_of(current, local) != step.collapse_vertex:
            return "complete-set-collapse-vertex", current
        current, _ = named_collapse(current, sorted(local))
        orig = tuple(o for o in orig if o not in step.sublot_edges)
    if current != chain.final_quotient:
        return "complete-set-final-quotient-match", current
    rep = check_properties(current)
    if not (rep.prime and rep.compressed and current.num_edges >= 1):
        return "complete-set-final-prime", current
    return None, current


# ---------------------------------------------------------------------------
# LOT reader
# ---------------------------------------------------------------------------

def reference_parse_lot(text: str) -> Lot:
    """``parse_lot`` as it was before it built the int view in its line
    loop: vertex and edge names first, then ``Lot(...)``, whose
    ``__post_init__`` maps the names to ints."""
    name = ""
    vertices: list[str] = []
    vset: set[str] = set()
    raw_edges: list[tuple[str, str, str, int]] = []

    def add_vertex(v, lineno):
        if v not in vset:
            if not _IDENT.match(v):
                raise ParseError(f"bad identifier {v!r}", lineno)
            vset.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "lot":
            if len(parts) != 2:
                raise ParseError("expected: lot NAME", lineno)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex NAME", lineno)
            add_vertex(parts[1], lineno)
        elif kw == "edge":
            if len(parts) != 4:
                raise ParseError("expected: edge TAIL HEAD LABEL", lineno)
            tail, head, label = parts[1:]
            if tail == head:
                raise ParseError(f"self-loop at {tail!r}", lineno)
            add_vertex(tail, lineno)
            add_vertex(head, lineno)
            raw_edges.append((tail, head, label, lineno))
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)

    for tail, head, label, lineno in raw_edges:
        if label not in vset:
            raise ParseError(f"unknown vertex in label: {label!r}", lineno)
    edges = tuple(LotEdge(t, h, l) for t, h, l, _ in raw_edges)
    return Lot(tuple(vertices), edges, name=name)


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


def _reference_read(tokens: list[str], int_atoms: bool = True):
    """The single s-expression the tokens spell; with ``int_atoms``,
    integer atoms become ints."""
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
                stack[-1].append(int(tok) if int_atoms else tok)
            except ValueError:
                stack[-1].append(tok)
    if len(stack) > 1:
        raise ParseError("unbalanced parentheses")
    if not stack[0]:
        raise ParseError("unexpected end of certificate")
    return stack[0][0]


def _ref_int(x) -> int:
    try:
        return int(x)
    except (TypeError, ValueError):
        raise ParseError(f"expected edge id, got {x!r}") from None


def _ref_name(x) -> str:
    if isinstance(x, list):
        raise ParseError(f"expected a vertex name, got {x!r}")
    return str(x)


def _ref_items(x, key: str, n: Optional[int] = None) -> list:
    if not (isinstance(x, list) and x and x[0] == key):
        raise ParseError(f"expected a ({key} ...) field, got {x!r:.80}")
    if n is not None and len(x) != n + 1:
        raise ParseError(f"({key} ...) takes {n} item{'s' * (n != 1)}, "
                         f"got {len(x) - 1}")
    return x[1:]


def _ref_int_set(items) -> frozenset:
    if not isinstance(items, list):
        raise ParseError(f"expected a list of edge ids, got {items!r}")
    ids = [_ref_int(x) for x in items]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ParseError(f"edge ids must be distinct and increasing, "
                         f"got ({' '.join(map(str, items))})")
    return frozenset(ids)


def _ref_pairs(items) -> tuple:
    out = []
    for p in items:
        if not (isinstance(p, list) and len(p) == 2):
            raise ParseError(f"expected a corner pair, got {p!r}")
        out.append((_ref_name(p[0]), _ref_name(p[1])))
    return tuple(out)


def _reference_from_sexp(sexp):
    """The node ``sexp`` spells, field by field in the writer's order."""
    if not isinstance(sexp, list) or not sexp:
        raise ParseError("certificate node must be a list")
    head = sexp[0]
    if head == "base":
        _ref_items(sexp, head, 0)
        return BaseTrivial()
    if head == "bdry-red":
        edge, vertex, child = _ref_items(sexp, head, 3)
        return BoundaryReduction(_ref_int(*_ref_items(edge, "edge", 1)),
                                 _ref_name(*_ref_items(vertex, "vertex", 1)),
                                 _reference_from_sexp(child))
    if head == "free-dec":
        left, right, shared, left_child, right_child = _ref_items(sexp, head, 5)
        return FreeDecompositionNode(
            _ref_int_set(_ref_items(left, "left")),
            _ref_int_set(_ref_items(right, "right")),
            _ref_name(*_ref_items(shared, "shared", 1)),
            _reference_from_sexp(left_child), _reference_from_sexp(right_child))
    if head == "prime-wt":
        flipped, pos, neg = _ref_items(sexp, head, 3)
        return PrimeWeightTest(_ref_int_set(_ref_items(flipped, "flipped")),
                               _ref_pairs(_ref_items(pos, "pos")),
                               _ref_pairs(_ref_items(neg, "neg")))
    if head == "complete-set":
        sublots, chain, final, flipped, pos, neg, children = _ref_items(sexp, head, 7)
        steps = []
        for step in _ref_items(chain, "chain"):
            ids, vertex = _ref_items(step, "step", 2)
            steps.append(ChainStep(_ref_int_set(ids), _ref_name(vertex)))
        final_items = _ref_items(final, "final")
        if not final_items:
            raise ParseError(f"expected a (vertices ...) field in {final!r}")
        vertices, *edges = final_items
        quotient = Lot(tuple(map(_ref_name, _ref_items(vertices, "vertices"))),
                       tuple(LotEdge(*map(_ref_name, _ref_items(e, "edge", 3)))
                             for e in edges))
        return CompleteSetRelative(
            tuple(map(_ref_int_set, _ref_items(sublots, "sublots"))),
            CollapseChain(tuple(steps), quotient),
            _ref_int_set(_ref_items(flipped, "flipped")),
            _ref_pairs(_ref_items(pos, "pos")), _ref_pairs(_ref_items(neg, "neg")),
            tuple(map(_reference_from_sexp, _ref_items(children, "children"))))
    raise ParseError(f"unknown certificate keyword {head!r}")


def reference_parse_certificate(text: str, int_atoms: bool = True):
    """``parse_certificate`` as it was: nested lists from a character-by-
    character reader (``_reference_read``), then a node builder that reads
    each node's fields by position (``_reference_from_sexp``).  With
    ``int_atoms``, the reader before the one-split-pass reader: every atom
    ``int()`` accepts becomes an int, so a name that reads as an int comes
    back in ``int()``'s spelling ("01" as "1").  Without it, every atom
    stays its text, as in the reader that the token-list reader replaced,
    whose values and error messages it gives."""
    return _reference_from_sexp(_reference_read(_reference_tokenize(text), int_atoms))


# ---------------------------------------------------------------------------
# certificate writer
# ---------------------------------------------------------------------------

def reference_serialize_certificate(cert) -> str:
    """``serialize_certificate`` as it was before it wrote lines directly:
    the certificate as nested lists, printed by ``_pp``.  The same bytes,
    except that a ``complete-set`` node whose ``pos`` or ``neg`` field
    opens a corner pair with a vertex named like a node keyword (``base``,
    say) is printed one pair per line: ``_pp`` takes such a pair for a
    certificate node."""
    names: set = set()
    sexp = _to_sexp(cert, names)
    if names and ("" in names or _unreadable("".join(names))):
        raise PreconditionError(
            f"vertex name {min(filter(_unreadable, names))!r} cannot be "
            "written as one certificate atom")
    return _pp(sexp, 0) + "\n"


def _to_sexp(cert, names: set):
    if isinstance(cert, BaseTrivial):
        return ["base"]
    if isinstance(cert, BoundaryReduction):
        names.add(cert.outer_vertex)
        return ["bdry-red", ["edge", cert.edge_id], ["vertex", cert.outer_vertex],
                _to_sexp(cert.child, names)]
    if isinstance(cert, FreeDecompositionNode):
        names.add(cert.shared_vertex)
        return ["free-dec",
                ["left"] + sorted(cert.left_edges),
                ["right"] + sorted(cert.right_edges),
                ["shared", cert.shared_vertex],
                _to_sexp(cert.left_child, names),
                _to_sexp(cert.right_child, names)]
    if isinstance(cert, PrimeWeightTest):
        return ["prime-wt", ["flipped"] + sorted(cert.flipped),
                *_corner_sexps(cert, names)]
    if isinstance(cert, CompleteSetRelative):
        chain = ["chain"]
        for step in cert.chain.steps:
            names.add(step.collapse_vertex)
            chain.append(["step", sorted(step.sublot_edges), step.collapse_vertex])
        final = cert.chain.final_quotient
        names.update(final.vertices)
        final_s = ["final", ["vertices"] + list(final.vertices)]
        for e in final.edges:
            final_s.append(["edge", e.tail, e.head, e.label])
        return ["complete-set",
                ["sublots"] + [sorted(p) for p in cert.sublots],
                chain, final_s,
                ["flipped"] + sorted(cert.flipped), *_corner_sexps(cert, names),
                ["children"] + [_to_sexp(c, names) for c in cert.children]]
    raise LotvaError(f"cannot serialize {cert!r}")


def _corner_sexps(cert, names: set) -> list:
    names.update(*cert.pos_corners, *cert.neg_corners)
    return [["pos"] + [list(p) for p in cert.pos_corners],
            ["neg"] + [list(p) for p in cert.neg_corners]]


_NESTED = {"bdry-red", "free-dec", "complete-set", "children", "chain"}
_NODE_KEYWORDS = {"base", "bdry-red", "free-dec", "prime-wt", "complete-set"}


def _pp(node, depth: int) -> str:
    pad = "  " * depth
    if not isinstance(node, list):
        return pad + str(node)
    if not any(isinstance(x, list) and x and x[0] in _NODE_KEYWORDS
               for x in node) and node[0] not in _NESTED:
        return pad + _flat(node)
    parts = [pad + "(" + str(node[0])]
    for x in node[1:]:
        if isinstance(x, list):
            parts.append(_pp(x, depth + 1))
        else:
            parts.append("  " * (depth + 1) + str(x))
    parts[-1] += ")"
    return "\n".join(parts)


def _flat(node) -> str:
    return "(" + " ".join(_flat(x) if isinstance(x, list) else str(x)
                          for x in node) + ")"


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
    """Random weights on the cell corners; Delta corners keep their
    prescribed weights, the only ones the relative tests accept."""
    return with_cell_weights(g, lambda: Fraction(rng.randrange(0, 9),
                                                 rng.choice([1, 2, 3, 4])))


def with_cell_weights(g: LinkGraph, draw) -> WeightAssignment:
    """Canonical weights of g, with every cell corner's weight drawn by
    ``draw()``, in corner order."""
    weights = dict(canonical_weights(g).weights)
    for c in g.corners:
        if not c.is_delta:
            weights[c.id] = draw()
    return WeightAssignment(weights)


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
