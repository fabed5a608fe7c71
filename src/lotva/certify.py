"""Certificate-producing decision procedure for vertex asphericity.

``certify_va`` runs the recursion: trivial base, boundary reduction, prime
orientation search, free decomposition, complete-set relative reduction.
Search failures yield a structured failure report, never a negative claim.
Every node is an edge mask and a vertex mask of the root's int view, and a
child is a sub-LOT of the root, so its edge closures are the root's: the
prover builds a Lot only for each complete-set node's final quotient.

``verify_certificate`` re-derives every hypothesis of every node from the
LOT alone; it never trusts recorded search state.  Its verdict names the
first failing check, which the tamper tests rely on.  It decides sub-LOT
structure with a closure kernel of its own (``_closes_up``): primality,
and for a complete-set node the maximality of each chain step, the
collapses and the final quotient.  Every node is an edge mask and a vertex
mask of the root's int view, and so is every child: it builds no Lot.
Partitions, parts, fullness and boundary vertices it reads off those
masks, and it checks lk+ and lk- for forests with one union-find pass each
over the node's edges, each part contracted by its vertex mask.  Of the
prover's code it calls only ``_named_pairs`` (the witness pairs, read
straight off the node's named edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import LotvaError, ParseError, PreconditionError
from .lot import (CollapseChain, ChainStep, Lot, LotEdge, _bits, _chain_search,
                  _free_split, _is_prime, _leaf_witness, is_compressed,
                  is_injective)
from .orient import FlipForests, UnionFind


# ---------------------------------------------------------------------------
# certificate nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseTrivial:
    kind = "base"


@dataclass(frozen=True)
class BoundaryReduction:
    kind = "bdry-red"
    edge_id: int
    outer_vertex: str
    child: "Certificate"


@dataclass(frozen=True)
class FreeDecompositionNode:
    kind = "free-dec"
    left_edges: frozenset[int]
    right_edges: frozenset[int]
    shared_vertex: str
    left_child: "Certificate"
    right_child: "Certificate"


@dataclass(frozen=True)
class PrimeWeightTest:
    kind = "prime-wt"
    flipped: frozenset[int]
    pos_corners: tuple[tuple[str, str], ...]  # label+/tail+ pairs, reoriented
    neg_corners: tuple[tuple[str, str], ...]  # label-/head- pairs, reoriented


@dataclass(frozen=True)
class CompleteSetRelative:
    kind = "complete-set"
    sublots: tuple[frozenset[int], ...]
    chain: CollapseChain
    flipped: frozenset[int]
    pos_corners: tuple[tuple[str, str], ...]
    neg_corners: tuple[tuple[str, str], ...]
    children: tuple["Certificate", ...]


Certificate = Union[BaseTrivial, BoundaryReduction, FreeDecompositionNode,
                    PrimeWeightTest, CompleteSetRelative]


@dataclass(frozen=True)
class CertifyFailure:
    """No certificate found; which search gave up, and where."""
    stage: str
    detail: str


@dataclass(frozen=True)
class VerificationVerdict:
    accepted: bool
    failing_check: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self):
        return self.accepted


# ---------------------------------------------------------------------------
# helpers: boundary reduction (a Lot of its own) and the witness pairs (shared)
# ---------------------------------------------------------------------------

def boundary_reduce(lot: Lot, edge_id: int, outer_vertex: str) -> Lot:
    """Remove a boundary-reducible leaf and its edge; Lot's own checks
    decide, from the names, whether that leaves a LOT."""
    return Lot(tuple(u for u in lot.vertices if u != outer_vertex),
               tuple([e for i, e in enumerate(lot.edges) if i != edge_id]),
               name=lot.name)


def _named_pairs(edges, flip: int
                 ) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """lk+ and lk- corner endpoint pairs of a LOT's named ``edges``
    reoriented by a flip mask, in edge order: label+ -- tail+ and label- --
    head- of each edge, its tail and head swapped where the flip has its bit."""
    pos, neg = [], []
    for i, (t, h, l) in enumerate(edges):
        if flip >> i & 1:
            t, h = h, t
        pos.append((l, t))
        neg.append((l, h))
    return tuple(pos), tuple(neg)


# ---------------------------------------------------------------------------
# the prover
# ---------------------------------------------------------------------------

def certify_va(lot: Lot) -> Union[Certificate, CertifyFailure]:
    """Certificate that K(lot) is vertex aspherical.

    The input must be injective and compressed (precondition, enforced).
    Returns a Certificate, or a CertifyFailure if one of the bounded
    searches comes up empty (which the underlying theory rules out for
    valid inputs; such a report signals an anomaly, not a negative answer).
    """
    if not is_injective(lot):
        raise PreconditionError("certify_va requires an injective LOT")
    if not is_compressed(lot):
        raise PreconditionError("certify_va requires a compressed LOT")
    try:
        return _certify(lot, (1 << lot.num_edges) - 1,
                        (1 << len(lot.vertices)) - 1, lot.name)
    except _GiveUp as stop:
        return stop.args[0]


class _GiveUp(Exception):
    """Raised with the ``CertifyFailure`` of a search that came up empty,
    which ``certify_va`` returns."""


def _certify(lot: Lot, emask: int, vmask: int, name: str) -> Certificate:
    """The certificate of the node on the LOT's edges ``emask`` and vertices
    ``vmask``, named ``name`` while only boundary reductions lead to it.
    Node edge j is the LOT's ``ids[j]``; only written fields take ranks."""
    iv = lot._iv
    ids = _bits(emask)
    if len(ids) <= 1:
        return BaseTrivial()

    leaf = _leaf_witness(iv, emask, vmask)
    if leaf is not None:
        e, v = leaf
        return BoundaryReduction(ids.index(e), lot.vertices[v],
                                 _certify(lot, emask ^ 1 << e, vmask ^ 1 << v, name))

    edges = [iv.edges[i] for i in ids]
    if _is_prime(lot, emask):
        flip = FlipForests(iv.n, edges).first_forest_flip()
        if flip is None:
            raise _GiveUp(CertifyFailure(
                "prime-orientation-search",
                f"no orientation of {name or 'lot'} gives lk+/lk- forests"))
        pos, neg = _named_pairs(map(lot.edges.__getitem__, ids), flip)
        return PrimeWeightTest(frozenset(_bits(flip)), pos, neg)

    fd = _free_split(lot, emask, vmask)
    if fd is not None:
        left, v = fd
        return FreeDecompositionNode(
            _local(emask, left), _local(emask, emask ^ left), lot.vertices[v],
            _certify(lot, left, _ends(iv, left), ""),
            _certify(lot, emask ^ left, _ends(iv, emask ^ left), ""))

    found = _chain_search(lot, emask, vmask)
    if found is None:
        raise _GiveUp(CertifyFailure(
            "complete-set-search",
            "non-prime LOT with neither a free decomposition nor a complete set"))
    steps, final = found
    sublots = tuple([_local(emask, sub) for sub, _ in steps])
    # the search's sub-LOTs are disjoint sub-LOTs, which orientation_search
    # would check again
    flip = FlipForests(iv.n, edges, sublots).first_forest_flip()
    if flip is None:
        raise _GiveUp(CertifyFailure(
            "relative-orientation-search",
            "no orientation gives relative lk+/lk- forests"))
    children = tuple([_certify(lot, sub, _ends(iv, sub), "") for sub, _ in steps])
    chain = CollapseChain(tuple([ChainStep(part, lot.vertices[x]) for part, (_, x)
                                 in zip(sublots, steps)]), final)
    pos, neg = _named_pairs(map(lot.edges.__getitem__, ids), flip)
    return CompleteSetRelative(sublots, chain, frozenset(_bits(flip)),
                               pos, neg, children)


def _local(emask: int, mask: int) -> frozenset[int]:
    """Node-local ids, ranks among the node's edges ``emask``, of ``mask``."""
    return frozenset([(emask & (1 << i) - 1).bit_count() for i in _bits(mask)])


def _ends(iv, emask: int) -> int:
    """The vertex mask of the view's edges ``emask``."""
    return sum({1 << v for i in _bits(emask) for v in iv.edges[i][:2]})


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

class _Reject(Exception):
    def __init__(self, check, detail=""):
        self.check = check
        self.detail = detail


def _need(cond, check, detail=""):
    if not cond:
        raise _Reject(check, detail)


def verify_certificate(lot: Lot, cert: Certificate) -> VerificationVerdict:
    """Re-derive every hypothesis of every certificate node."""
    try:
        # a child node's edges are some of its parent's, with the same
        # labels, so it is injective and compressed when the root is
        _need(is_injective(lot), "node-injective")
        _need(is_compressed(lot), "node-compressed")
        _verify(lot, cert, (1 << lot.num_edges) - 1, (1 << len(lot.vertices)) - 1)
    except _Reject as r:
        return VerificationVerdict(False, r.check, r.detail)
    except LotvaError as exc:
        return VerificationVerdict(False, "malformed-certificate", str(exc))
    return VerificationVerdict(True)


def _verify(lot: Lot, cert: Certificate, emask: int, vmask: int) -> None:
    """Checks ``cert`` on the node of the LOT's edges ``emask`` and vertices
    ``vmask``, a subtree: the node's edge j is the LOT's edge ``ids[j]``."""
    iv, names = lot._iv, lot.vertices
    edges, ids = iv.edges, _bits(emask)
    m = len(ids)

    if isinstance(cert, BaseTrivial):
        _need(m <= 1, "base-edge-count", f"{m} edges")
        return

    if isinstance(cert, BoundaryReduction):
        _need(0 <= cert.edge_id < m, "boundary-reduction-edge-valid")
        e = ids[cert.edge_id]
        leaf = next((v for v in edges[e][:2] if names[v] == cert.outer_vertex), -1)
        _need(leaf >= 0, "boundary-reduction-outer-vertex",
              "vertex not on the removed edge")
        _need(sum(emask >> i & 1 for i in iv.incident[leaf]) == 1,
              "boundary-reduction-outer-vertex", "vertex is not a boundary vertex")
        _need(all(edges[i][2] != leaf for i in ids),
              "boundary-reduction-vertex-unlabeled",
              f"{cert.outer_vertex} occurs as an edge label")
        _verify(lot, cert.child, emask ^ 1 << e, vmask ^ 1 << leaf)
        return

    if isinstance(cert, FreeDecompositionNode):
        left, right = cert.left_edges, cert.right_edges
        _need(left and right and left | right == frozenset(range(m))
              and not left & right, "free-decomposition-partition")
        halves = [_span(edges, map(ids.__getitem__, s)) for s in (left, right)]
        for side, (em, vm, labels) in zip(("left", "right"), halves):
            _need(vm.bit_count() == em.bit_count() + 1
                  and not labels & ~vm, f"free-decomposition-{side}-sublot")
        shared = [names[v] for v in _bits(halves[0][1] & halves[1][1])]
        _need(shared == [cert.shared_vertex], "free-decomposition-single-shared-vertex",
              f"intersection is {sorted(shared)}")
        _verify(lot, cert.left_child, *halves[0][:2])
        _verify(lot, cert.right_child, *halves[1][:2])
        return

    if isinstance(cert, PrimeWeightTest):
        _need(_boundary_reduced(edges, ids), "prime-weight-test-boundary-reduced")
        _need(_closes_up(edges, lot._paths, 0, emask), "prime-weight-test-prime")
        _need(all(0 <= i < m for i in cert.flipped),
              "prime-weight-test-flipped-valid")
        _check_forests_and_witnesses(lot, ids, cert, [], "prime-weight-test")
        return

    if isinstance(cert, CompleteSetRelative):
        _need(_boundary_reduced(edges, ids), "complete-set-boundary-reduced")
        _need(len(cert.children) == len(cert.sublots),
              "complete-set-children-count")
        _need(len(cert.chain.steps) >= 1, "complete-set-chain-nonempty")

        union = seen_v = 0
        parts = []  # (edge mask, vertex mask) per part
        for part in cert.sublots:
            _need(bool(part), "complete-set-disjoint", "empty part")
            _need(all(0 <= i < m for i in part),
                  "complete-set-disjoint", "edge id out of range")
            pe, pv, _ = _span(edges, map(ids.__getitem__, part))
            _need(not (pe & union) and not (pv & seen_v),
                  "complete-set-disjoint")
            union, seen_v = union | pe, seen_v | pv
            parts.append((pe, pv))

        # K(part) is a full subcomplex of K(lot): cell d_j has the letters
        # tail_j, label_j and head_j, so it lies on K(part)'s edges exactly
        # when the part's vertices hold all three, and that must happen
        # exactly for the part's own edges
        for k, (pe, pv) in enumerate(parts):
            for j, i in enumerate(ids):
                t, h, l = edges[i]
                if (pv >> t & pv >> h & pv >> l & 1) != (pe >> i & 1):
                    raise _Reject("complete-set-full", f"part {k}, cell d_{j}")
        # cell d_j reads tail_j label_j head_j^-1 label_j^-1 (build_complex);
        # a LOT is unsigned, so every exponent sum is 0 and this always holds
        _need(sum((1, 1, -1, -1)) == 0, "complete-set-exponent-sums")

        _need(all(0 <= i < m and not union >> ids[i] & 1 for i in cert.flipped),
              "complete-set-flipped-outside")
        _check_forests_and_witnesses(lot, ids, cert, parts, "complete-set")
        _replay_chain(lot, cert.chain, ids, emask, vmask)
        _need(tuple(s.sublot_edges for s in cert.chain.steps) == cert.sublots,
              "complete-set-sublots-match-chain")

        # complete-set-full put every label of a part among its vertices,
        # so a part is a sub-LOT exactly when it is connected
        for (pe, pv), child in zip(parts, cert.children):
            _need(pv.bit_count() == pe.bit_count() + 1,
                  "complete-set-sublot-in-original")
            _verify(lot, child, pe, pv)
        return

    raise _Reject("malformed-certificate", f"unknown node {cert!r}")


def _replay_chain(lot: Lot, chain: CollapseChain, ids, emask, vmask) -> None:
    """Replays a complete-set node's collapse chain on the LOT's int view.

    The quotients keep the LOT's edge ids and vertex indices: ``alive``
    masks the node's edges not yet collapsed, and ``rep`` maps each vertex
    to the quotient vertex it became, itself when it is still there.  A
    collapsed sub-LOT is a subtree, so a tree path meets it in one stretch,
    and masking the LOT's root paths with ``alive`` gives the quotient's."""
    iv = lot._iv
    names = lot.vertices
    edges, paths = iv.edges, lot._paths
    m, alive = len(ids), emask
    rep = list(range(iv.n))
    for step in chain.steps:
        _need(all(0 <= o < m and alive >> ids[o] & 1 for o in step.sublot_edges),
              "complete-set-step-sublot", "edges already collapsed")
        sub, inside, labels = _span(edges, map(ids.__getitem__, step.sublot_edges))
        k = len(step.sublot_edges)
        # k edges of a tree on k + 1 vertices are connected
        _need(0 < k < alive.bit_count() and inside.bit_count() == k + 1
              and not labels & ~inside, "complete-set-step-sublot")
        # a sub-LOT S is maximal when S and any one edge more close up to
        # the whole quotient
        _need(_closes_up(edges, paths, sub, alive), "complete-set-step-maximal")
        free = inside & ~labels
        if free & (free - 1):
            raise PreconditionError(
                f"collapse vertex is not unique "
                f"({sorted(names[v] for v in _bits(free))}); input not injective?")
        x = free.bit_length() - 1
        _need(names[x] == step.collapse_vertex, "complete-set-collapse-vertex",
              f"expected {names[x]}, certificate says {step.collapse_vertex}")
        alive &= ~sub
        rep = [x if inside >> r & 1 else r for r in rep]
        edges = tuple([(rep[t], rep[h], rep[l]) for t, h, l in iv.edges])
        paths = tuple([p & alive for p in paths])

    kept = [v for v in _bits(vmask) if rep[v] == v]
    index = {v: j for j, v in enumerate(kept)}
    final = chain.final_quotient
    _need(final.vertices == tuple([names[v] for v in kept])
          and final._iv.edges == tuple([(index[t], index[h], index[l]) for t, h, l
                                        in map(edges.__getitem__, _bits(alive))]),
          "complete-set-final-quotient-match")
    _need(alive and all(l != t and l != h for t, h, l
                        in map(edges.__getitem__, _bits(alive)))
          and _closes_up(edges, paths, 0, alive), "complete-set-final-prime")


def _closes_up(edges, paths, sub: int, alive: int) -> bool:
    """Whether closure(sub | e), the smallest sub-LOT holding sub and e, is
    ``alive`` for every edge e of ``alive`` outside ``sub``, which is 0 or
    a sub-LOT; ``edges`` and ``paths`` are as in ``_replay_chain``.

    Closure is monotone, so a walk that meets an edge f already shown to
    close up holds closure(sub | f) = alive and stops there.  And sub's
    labels are its own vertices, so closure(sub | e) starts from sub, e and
    the path from e's tail to sub, and only later edges' labels are walked."""
    low, done = (sub & -sub).bit_length() - 1, 0
    for e in _bits(alive & ~sub):
        base = paths[edges[e if low < 0 else low][0]]
        mask, new = sub, (paths[edges[e][0]] ^ base) & ~sub | 1 << e
        while new and not new & done and mask | new != alive:
            mask |= new
            grow = 0
            for i in _bits(new):
                grow |= paths[edges[i][2]] ^ base
            new = grow & ~mask
        if not new:
            return False
        done |= 1 << e
    return True


def _span(edges, ids) -> tuple[int, int, int]:
    """The edge, vertex and label masks of the edges ``ids``."""
    emask = vmask = labels = 0
    for i in ids:
        t, h, l = edges[i]
        emask |= 1 << i
        vmask |= 1 << t | 1 << h
        labels |= 1 << l
    return emask, vmask, labels


def _boundary_reduced(edges, ids) -> bool:
    """Whether every leaf of the subtree on the edges ``ids`` labels one."""
    once = more = labels = 0
    for i in ids:
        t, h, l = edges[i]
        more |= once & (1 << t | 1 << h)
        once |= 1 << t | 1 << h
        labels |= 1 << l
    return not once & ~more & ~labels


def _check_forests_and_witnesses(lot, ids, cert, parts, prefix):
    """lk+ and then lk- of the node on the LOT's edges ``ids``, reoriented
    by ``cert.flipped`` (node ids), must be forests relative to the parts'
    lk+ and lk-: each part, an (edge mask, vertex mask) pair, contracted to
    one node, and its own edges' corners dropped.  One union-find pass per
    colour, over label+ -- tail+ (label- -- head-) of each edge outside the
    parts; then the recorded corner pairs must be the node's own."""
    iv = lot._iv
    flip = sum([1 << j for j in cert.flipped])
    node, inside = list(range(iv.n)), 0
    for k, (pe, pv) in enumerate(parts):
        for v in _bits(pv):
            node[v] = iv.n + k
        inside |= pe
    for neg, colour in ((0, "positive"), (1, "negative")):
        forest = UnionFind(iv.n + len(parts))
        for j, i in enumerate(ids):
            if not inside >> i & 1:
                t, h, l = iv.edges[i]
                end = h if flip >> j & 1 ^ neg else t
                _need(forest.union(node[l], node[end]), f"{prefix}-{colour}-forest")
    _need(_named_pairs(map(lot.edges.__getitem__, ids), flip) ==
          (tuple(map(tuple, cert.pos_corners)), tuple(map(tuple, cert.neg_corners))),
          f"{prefix}-witness-match")


# ---------------------------------------------------------------------------
# serialization: line-oriented s-expressions
# ---------------------------------------------------------------------------

def serialize_certificate(cert: Certificate) -> str:
    """The certificate as line-oriented s-expressions, laid out by node
    kind: a ``base`` or ``prime-wt`` node takes one line; a ``bdry-red``,
    ``free-dec`` or ``complete-set`` node opens a line with its keyword and
    puts each field and child node on a line of its own, two spaces deeper,
    and so do the ``chain`` and ``children`` fields with their steps and
    child nodes.  Every other field takes one line."""
    lines: list[str] = []
    names: set[str] = set()
    _write(cert, 0, lines, names)
    # one test of all the names at once; the per-name one finds the culprit
    if names and ("" in names or _unreadable("".join(names))):
        raise PreconditionError(
            f"vertex name {min(filter(_unreadable, names))!r} cannot be "
            "written as one certificate atom")
    return "\n".join(lines) + "\n"


def _unreadable(name: str) -> bool:
    """Whether ``parse_certificate`` would not read ``name`` back as one
    atom: it is empty, or holds whitespace or a parenthesis."""
    return name.split() != [name] or "(" in name or ")" in name


def _ids(ids) -> str:
    """Edge ids in increasing order, each with a space in front."""
    return "".join([f" {i}" for i in sorted(ids)])


def _write(cert: Certificate, depth: int, lines: list[str],
           names: set[str]) -> None:
    """Appends the lines of ``cert``, indented ``depth`` steps, to
    ``lines``, and every vertex name written to ``names``."""
    pad = "  " * depth
    inner = pad + "  "
    if isinstance(cert, BaseTrivial):
        lines.append(pad + "(base)")
    elif isinstance(cert, BoundaryReduction):
        names.add(cert.outer_vertex)
        lines += [pad + "(bdry-red", f"{inner}(edge {cert.edge_id})",
                  f"{inner}(vertex {cert.outer_vertex})"]
        _write(cert.child, depth + 1, lines, names)
        lines[-1] += ")"
    elif isinstance(cert, FreeDecompositionNode):
        names.add(cert.shared_vertex)
        lines += [pad + "(free-dec", f"{inner}(left{_ids(cert.left_edges)})",
                  f"{inner}(right{_ids(cert.right_edges)})",
                  f"{inner}(shared {cert.shared_vertex})"]
        _write(cert.left_child, depth + 1, lines, names)
        _write(cert.right_child, depth + 1, lines, names)
        lines[-1] += ")"
    elif isinstance(cert, PrimeWeightTest):
        pos, neg = _corner_fields(cert, names)
        lines.append(f"{pad}(prime-wt (flipped{_ids(cert.flipped)}) {pos} {neg})")
    elif isinstance(cert, CompleteSetRelative):
        lines += [pad + "(complete-set", inner + "(sublots" + "".join(
            [f" ({_ids(p).lstrip()})" for p in cert.sublots]) + ")", inner + "(chain"]
        for step in cert.chain.steps:
            names.add(step.collapse_vertex)
            lines.append(f"{inner}  (step ({_ids(step.sublot_edges).lstrip()}) "
                         f"{step.collapse_vertex})")
        lines[-1] += ")"
        final = cert.chain.final_quotient
        names.update(final.vertices)  # a Lot's edges name only its vertices
        lines.append(f"{inner}(final (vertices"
                     + "".join([f" {v}" for v in final.vertices]) + ")"
                     + "".join([f" (edge {t} {h} {l})"
                                for t, h, l in final.edges]) + ")")
        lines += [f"{inner}(flipped{_ids(cert.flipped)})",
                  *(inner + f for f in _corner_fields(cert, names)),
                  inner + "(children"]
        for child in cert.children:
            _write(child, depth + 2, lines, names)
        lines[-1] += "))"
    else:
        raise LotvaError(f"cannot serialize {cert!r}")


def _corner_fields(cert, names: set[str]) -> tuple[str, str]:
    """The (pos ...) and (neg ...) fields of a node; adds their names."""
    names.update(*cert.pos_corners, *cert.neg_corners)
    return ("(pos" + "".join([f" ({a} {b})" for a, b in cert.pos_corners]) + ")",
            "(neg" + "".join([f" ({a} {b})" for a, b in cert.neg_corners]) + ")")


MAX_CERT_DEPTH = 500
"""Deepest parenthesis nesting ``parse_certificate`` accepts.  Every node
sits at least one level below its parent node, and node building and the
verifier recurse once per node, so this also bounds their recursion."""

_ITEM_COUNTS = {"base": 0, "bdry-red": 3, "free-dec": 5, "prime-wt": 3,
                "complete-set": 7}


def parse_certificate(text: str) -> Certificate:
    """The certificate ``text`` spells in exactly the layout ``_write``
    writes, built by ``_node`` straight off its tokens: the parentheses and
    the whitespace-separated runs between them.  A fault in the
    parentheses, or data after the certificate, is reported first."""
    t = text.replace("(", " ( ").replace(")", " ) ").split()
    try:
        cert, end = _node(t, 0, 1)
    except (LotvaError, LookupError, ValueError):
        if _read(t, 0)[1] == len(t):
            raise
        end = -1
    if end != len(t):
        raise ParseError("trailing data after certificate")
    return cert


def _node(t: list[str], i: int, depth: int):
    """The node whose "(" is t[i], ``depth`` levels deep, and the index past
    its ")".  Where the parentheses balance, its first fault raises the
    LotvaError that names it: a wrong item count, then a fault in its
    fields in order (a complete-set node's sublots after its final
    quotient), then one in its children."""
    if depth > MAX_CERT_DEPTH:
        raise ValueError("nested too deep")
    kind = t[i + 1] if t[i] == "(" else None
    if kind not in _ITEM_COUNTS:
        x = _read(t, i)[0]
        if not (isinstance(x, list) and x):
            raise ParseError("certificate node must be a list")
        raise ParseError(f"unknown certificate keyword {x[0]!r}")
    k, reach = i + 2, 1  # reach: how many levels its own fields nest
    try:
        if kind == "base":
            node, reach = BaseTrivial(), 0
        elif kind == "bdry-red":
            (edge,), k = _field(t, k, "edge", 1, ids=True)
            (vertex,), k = _field(t, k, "vertex", 1)
            child, k = _node(t, k, depth + 1)
            node = BoundaryReduction(edge, vertex, child)
        elif kind == "free-dec":
            left, k = _field(t, k, "left", ids=True)
            right, k = _field(t, k, "right", ids=True)
            (shared,), k = _field(t, k, "shared", 1)
            left_child, k = _node(t, k, depth + 1)
            right_child, k = _node(t, k, depth + 1)
            node = FreeDecompositionNode(left, right, shared, left_child,
                                         right_child)
        elif kind == "prime-wt":
            flipped, k = _field(t, k, "flipped", ids=True)
            pos, k = _corners(t, k, "pos")
            neg, k = _corners(t, k, "neg")
            node, reach = PrimeWeightTest(flipped, pos, neg), 1 + bool(pos or neg)
        else:
            sublots, k = _read(t, k)
            chain, k = _read(t, k)
            steps = tuple(ChainStep(_int_set(ids), _name(vertex)) for ids, vertex
                          in (_items(s, "step", 2) for s in _items(chain, "chain")))
            k = _open(t, k, "final")
            if t[k] == ")":
                raise ParseError("expected a (vertices ...) field in ['final']")
            vertices, k = _field(t, k, "vertices")
            edges = []
            while t[k] != ")":
                edge, k = _field(t, k, "edge", 3)
                edges.append(LotEdge._make(edge))
            chain = CollapseChain(steps, Lot(tuple(vertices), tuple(edges)))
            sublots = tuple(map(_int_set, _items(sublots, "sublots")))
            flipped, k = _field(t, k + 1, "flipped", ids=True)
            pos, k = _corners(t, k, "pos")
            neg, k = _corners(t, k, "neg")
            k, children = _open(t, k, "children"), []
            while t[k] != ")":
                child, k = _node(t, k, depth + 2)
                children.append(child)
            node = CompleteSetRelative(sublots, chain, flipped, pos, neg,
                                       tuple(children))
            k, reach = k + 1, 2 + bool(steps)
        if t[k] != ")":
            raise ParseError("")  # an item too many, which the count names
    except LotvaError:
        _items(_read(t, i)[0], kind, _ITEM_COUNTS[kind])
        raise
    if depth + reach > MAX_CERT_DEPTH:
        raise ValueError("nested too deep")
    return node, k + 1


def _read(t: list[str], k: int):
    """The item at t[k] as nested lists of atoms, and the index past it,
    with the open lists on a stack no deeper than MAX_CERT_DEPTH."""
    stack: list[list] = []
    out: list = []
    for k in range(k, len(t)):
        tok = t[k]
        if tok == "(":
            if len(stack) == MAX_CERT_DEPTH:
                raise ParseError(f"certificate nests deeper than {MAX_CERT_DEPTH}")
            stack.append(out)
            out = []
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected )")
            done, out = out, stack.pop()
            out.append(done)
        else:
            out.append(tok)
        if not stack:
            return out[0], k + 1
    raise ParseError("unbalanced parentheses" if t
                     else "unexpected end of certificate")


def _open(t: list[str], k: int, key: str) -> int:
    """The index past the "( key" that opens the field at t[k]."""
    if t[k] != "(" or t[k + 1] != key:
        _items(_read(t, k)[0], key)  # raises
    return k + 2


def _field(t: list[str], k: int, key: str, n: Optional[int] = None,
           ids: bool = False):
    """The atoms of the field (key ...) at t[k], n of them if n is given,
    as a set of edge ids if ``ids``; and the index past the field."""
    if t[k] == "(" and t[k + 1] == key:
        j = t.index(")", k)
        items = t[k + 2:j]
        if "(" not in items and (n is None or j - k - 2 == n):
            return (_int_set(items) if ids else items), j + 1
    x, j = _read(t, k)
    items = _items(x, key, n)
    return (_int_set(items) if ids else list(map(_name, items))), j


def _corners(t: list[str], k: int, key: str):
    """The pairs of the field (key (a b) ...) at t[k], read in 4-token
    strides, and the index past it."""
    if t[k] == "(" and t[k + 1] == key:
        s = j = k + 2
        end = len(t)
        while j < end and t[j] == "(":
            j += 4
        a, b = t[s + 1:j:4], t[s + 2:j:4]
        if (t[j:j + 1] == [")"] and t[s + 3:j:4].count(")") == len(a)
                and "(" not in a and ")" not in a and "(" not in b
                and ")" not in b):
            return tuple(zip(a, b)), j + 1
    x, j = _read(t, k)
    pairs = _items(x, key)
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2):
            raise ParseError(f"expected a corner pair, got {p!r}")
        _name(p[0]), _name(p[1])
    return tuple(map(tuple, pairs)), j


def _items(x, key: str, n: Optional[int] = None) -> list:
    """The items after ``key`` of ``x``, a list that starts with ``key``;
    exactly n of them when n is given."""
    if not (isinstance(x, list) and x and x[0] == key):
        raise ParseError(f"expected a ({key} ...) field, got {x!r:.80}")
    if n is not None and len(x) != n + 1:
        raise ParseError(f"({key} ...) takes {n} item{'s' * (n != 1)}, "
                         f"got {len(x) - 1}")
    return x[1:]


def _name(x) -> str:
    if isinstance(x, list):
        raise ParseError(f"expected a vertex name, got {x!r}")
    return x


def _int_set(items) -> frozenset[int]:
    """Edge ids as the writer writes them: each once, in increasing order."""
    if not isinstance(items, list):
        raise ParseError(f"expected a list of edge ids, got {items!r}")
    try:
        ids = list(map(int, items))
    except (TypeError, ValueError):
        for x in items:  # name the first that is not an id
            try:
                int(x)
            except (TypeError, ValueError):
                raise ParseError(f"expected edge id, got {x!r}") from None
    if ids != sorted(set(ids)):
        raise ParseError(f"edge ids must be distinct and increasing, "
                         f"got ({' '.join(map(str, items))})")
    return frozenset(ids)
