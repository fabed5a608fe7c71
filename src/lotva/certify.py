"""Certificate-producing decision procedure for vertex asphericity.

``certify_va`` runs the recursion: trivial base, boundary reduction, prime
orientation search, free decomposition, complete-set relative reduction.
Search failures yield a structured failure report, never a negative claim.

``verify_certificate`` re-derives every hypothesis of every node from the
LOT alone, using only the lot/complex/linkage primitives; it never trusts
recorded search state.  Its verdict names the first failing check, which the
tamper tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import LotvaError, ParseError, PreconditionError
from .complexes import build_complex, derive_subcomplexes, exponent_sum, is_full
from .lot import (CollapseChain, ChainStep, Lot, LotEdge, SublotStructure,
                  boundary_reducible_witness, check_properties, collapse,
                  collapse_vertex_of, extract_sublot, free_decomposition,
                  is_compressed, is_injective, is_sublot, search_complete_set,
                  sublot_vertices)
from .weights import FlipForests, flip_mask, orientation_search


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
# helpers shared by prover and verifier
# ---------------------------------------------------------------------------

def boundary_reduce(lot: Lot, edge_id: int, outer_vertex: str) -> Lot:
    """Remove a boundary-reducible leaf and its edge."""
    edges = tuple(e for i, e in enumerate(lot.edges) if i != edge_id)
    vertices = tuple(v for v in lot.vertices if v != outer_vertex)
    return Lot(vertices, edges, name=lot.name)


def _witness_pairs(lot: Lot, flipped: frozenset[int]
                   ) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """lk+ and lk- corner endpoint pairs of the reoriented LOT, by name."""
    corners = FlipForests(lot, ())
    flip = flip_mask(lot, flipped)
    names = lot.vertices
    pos, neg = (tuple((names[a], names[b]) for a, b in corners.pairs(flip, pol))
                for pol in (1, -1))
    return pos, neg


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
    return _certify(lot)


def _certify(lot: Lot) -> Union[Certificate, CertifyFailure]:
    if lot.num_edges <= 1:
        return BaseTrivial()

    bw = boundary_reducible_witness(lot)
    if bw is not None:
        edge_id, v = bw
        child = _certify(boundary_reduce(lot, edge_id, v))
        if isinstance(child, CertifyFailure):
            return child
        return BoundaryReduction(edge_id, v, child)

    structure = SublotStructure(lot)
    if structure.prime:
        flipped = orientation_search(lot, [])
        if flipped is None:
            return CertifyFailure(
                "prime-orientation-search",
                f"no orientation of {lot.name or 'lot'} gives lk+/lk- forests")
        pos, neg = _witness_pairs(lot, flipped)
        return PrimeWeightTest(flipped, pos, neg)

    fd = free_decomposition(lot)
    if fd is not None:
        left = _certify(extract_sublot(lot, fd.left_edges))
        if isinstance(left, CertifyFailure):
            return left
        right = _certify(extract_sublot(lot, fd.right_edges))
        if isinstance(right, CertifyFailure):
            return right
        return FreeDecompositionNode(fd.left_edges, fd.right_edges,
                                     fd.shared_vertex, left, right)

    found = search_complete_set(lot, structure)
    if found is None:
        return CertifyFailure(
            "complete-set-search",
            "non-prime LOT with neither a free decomposition nor a complete set")
    sublots, chain = found
    flipped = orientation_search(lot, sublots)
    if flipped is None:
        return CertifyFailure(
            "relative-orientation-search",
            "no orientation gives relative lk+/lk- forests")
    children = []
    for part in sublots:
        child = _certify(extract_sublot(lot, part))
        if isinstance(child, CertifyFailure):
            return child
        children.append(child)
    pos, neg = _witness_pairs(lot, flipped)
    return CompleteSetRelative(tuple(sublots), chain, flipped, pos, neg,
                               tuple(children))


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
        _verify(lot, cert)
    except _Reject as r:
        return VerificationVerdict(False, r.check, r.detail)
    except LotvaError as exc:
        return VerificationVerdict(False, "malformed-certificate", str(exc))
    return VerificationVerdict(True)


def _verify(lot: Lot, cert: Certificate) -> None:
    _need(is_injective(lot), "node-injective")
    _need(is_compressed(lot), "node-compressed")

    if isinstance(cert, BaseTrivial):
        _need(lot.num_edges <= 1, "base-edge-count",
              f"{lot.num_edges} edges")
        return

    if isinstance(cert, BoundaryReduction):
        _need(0 <= cert.edge_id < lot.num_edges, "boundary-reduction-edge-valid")
        e = lot.edges[cert.edge_id]
        _need(cert.outer_vertex in (e.tail, e.head),
              "boundary-reduction-outer-vertex",
              "vertex not on the removed edge")
        degree = sum(1 for d in lot.edges
                     if cert.outer_vertex in (d.tail, d.head))
        _need(degree == 1, "boundary-reduction-outer-vertex",
              "vertex is not a boundary vertex")
        _need(all(d.label != cert.outer_vertex for d in lot.edges),
              "boundary-reduction-vertex-unlabeled",
              f"{cert.outer_vertex} occurs as an edge label")
        _verify(boundary_reduce(lot, cert.edge_id, cert.outer_vertex), cert.child)
        return

    if isinstance(cert, FreeDecompositionNode):
        all_ids = frozenset(range(lot.num_edges))
        _need(cert.left_edges and cert.right_edges
              and cert.left_edges | cert.right_edges == all_ids
              and not cert.left_edges & cert.right_edges,
              "free-decomposition-partition")
        _need(is_sublot(lot, cert.left_edges), "free-decomposition-left-sublot")
        _need(is_sublot(lot, cert.right_edges), "free-decomposition-right-sublot")
        shared = sublot_vertices(lot, cert.left_edges) & \
            sublot_vertices(lot, cert.right_edges)
        _need(shared == {cert.shared_vertex},
              "free-decomposition-single-shared-vertex",
              f"intersection is {sorted(shared)}")
        _verify(extract_sublot(lot, cert.left_edges), cert.left_child)
        _verify(extract_sublot(lot, cert.right_edges), cert.right_child)
        return

    if isinstance(cert, PrimeWeightTest):
        _need(boundary_reducible_witness(lot) is None,
              "prime-weight-test-boundary-reduced")
        _need(SublotStructure(lot).prime, "prime-weight-test-prime")
        _need(all(0 <= i < lot.num_edges for i in cert.flipped),
              "prime-weight-test-flipped-valid")
        _check_forests_and_witnesses(lot, cert.flipped, [], cert.pos_corners,
                                     cert.neg_corners, "prime-weight-test")
        return

    if isinstance(cert, CompleteSetRelative):
        _need(boundary_reducible_witness(lot) is None,
              "complete-set-boundary-reduced")
        _need(len(cert.children) == len(cert.sublots),
              "complete-set-children-count")
        _need(len(cert.chain.steps) >= 1, "complete-set-chain-nonempty")

        seen_e: set[int] = set()
        seen_v: set[str] = set()
        for part in cert.sublots:
            _need(bool(part), "complete-set-disjoint", "empty part")
            _need(all(0 <= i < lot.num_edges for i in part),
                  "complete-set-disjoint", "edge id out of range")
            vs = sublot_vertices(lot, part)
            _need(not (part & seen_e) and not (vs & seen_v),
                  "complete-set-disjoint")
            seen_e |= set(part)
            seen_v |= set(vs)

        cx = build_complex(lot)
        try:
            fam = derive_subcomplexes(lot, cert.sublots)
            _need(all(is_full(cx, fam)), "complete-set-full")
        except LotvaError as exc:
            raise _Reject("complete-set-full", str(exc))
        _need(all(exponent_sum(c.boundary) == 0 for c in cx.cells),
              "complete-set-exponent-sums")

        union = frozenset().union(*cert.sublots)
        _need(all(0 <= i < lot.num_edges for i in cert.flipped)
              and not (cert.flipped & union),
              "complete-set-flipped-outside")
        _check_forests_and_witnesses(lot, cert.flipped, list(cert.sublots),
                                     cert.pos_corners, cert.neg_corners,
                                     "complete-set")

        # replay the collapse chain
        current = lot
        orig = tuple(range(lot.num_edges))
        for step in cert.chain.steps:
            pos_map = {o: i for i, o in enumerate(orig)}
            _need(all(o in pos_map for o in step.sublot_edges),
                  "complete-set-step-sublot", "edges already collapsed")
            local = frozenset(pos_map[o] for o in step.sublot_edges)
            _need(is_sublot(current, local) and len(local) < current.num_edges,
                  "complete-set-step-sublot")
            _need(local in SublotStructure(current).maximal(),
                  "complete-set-step-maximal")
            x = collapse_vertex_of(current, local)
            _need(x == step.collapse_vertex, "complete-set-collapse-vertex",
                  f"expected {x}, certificate says {step.collapse_vertex}")
            current, _ = collapse(current, sorted(local))
            orig = tuple(o for o in orig if o not in step.sublot_edges)
        _need(current == cert.chain.final_quotient,
              "complete-set-final-quotient-match")
        rep = check_properties(current)
        _need(rep.prime and rep.compressed and current.num_edges >= 1,
              "complete-set-final-prime")
        _need(tuple(s.sublot_edges for s in cert.chain.steps) == cert.sublots,
              "complete-set-sublots-match-chain")

        for part, child in zip(cert.sublots, cert.children):
            _need(is_sublot(lot, part), "complete-set-sublot-in-original")
            _verify(extract_sublot(lot, part), child)
        return

    raise _Reject("malformed-certificate", f"unknown node {cert!r}")


def _check_forests_and_witnesses(lot, flipped, fixed, pos_rec, neg_rec, prefix):
    forests = FlipForests(lot, fixed)
    flip = flip_mask(lot, flipped)
    _need(forests.is_forest(flip, 1), f"{prefix}-positive-forest")
    _need(forests.is_forest(flip, -1), f"{prefix}-negative-forest")
    _need(_witness_pairs(lot, flipped) ==
          (tuple(map(tuple, pos_rec)), tuple(map(tuple, neg_rec))),
          f"{prefix}-witness-match")


# ---------------------------------------------------------------------------
# serialization: line-oriented s-expressions
# ---------------------------------------------------------------------------

def serialize_certificate(cert: Certificate) -> str:
    names: set[str] = set()
    sexp = _to_sexp(cert, names)
    # one test of all the names at once; the per-name one finds the culprit
    if names and ("" in names or _unreadable("".join(names))):
        raise PreconditionError(
            f"vertex name {min(filter(_unreadable, names))!r} cannot be "
            "written as one certificate atom")
    return _pp(sexp, 0) + "\n"


def _unreadable(name: str) -> bool:
    """Whether ``parse_certificate`` would not read ``name`` back as one
    atom: it is empty, or holds whitespace or a parenthesis."""
    return name.split() != [name] or "(" in name or ")" in name


def _ids(s) -> list:
    return sorted(s)


def _to_sexp(cert: Certificate, names: set[str]):
    """The nested lists the writer prints; every vertex name placed in them
    is added to ``names``."""
    if isinstance(cert, BaseTrivial):
        return ["base"]
    if isinstance(cert, BoundaryReduction):
        names.add(cert.outer_vertex)
        return ["bdry-red", ["edge", cert.edge_id], ["vertex", cert.outer_vertex],
                _to_sexp(cert.child, names)]
    if isinstance(cert, FreeDecompositionNode):
        names.add(cert.shared_vertex)
        return ["free-dec",
                ["left"] + _ids(cert.left_edges),
                ["right"] + _ids(cert.right_edges),
                ["shared", cert.shared_vertex],
                _to_sexp(cert.left_child, names),
                _to_sexp(cert.right_child, names)]
    if isinstance(cert, PrimeWeightTest):
        return ["prime-wt", ["flipped"] + _ids(cert.flipped),
                *_corner_fields(cert, names)]
    if isinstance(cert, CompleteSetRelative):
        chain = ["chain"]
        for step in cert.chain.steps:
            names.add(step.collapse_vertex)
            chain.append(["step", _ids(step.sublot_edges), step.collapse_vertex])
        final = cert.chain.final_quotient
        names.update(final.vertices)  # a Lot's edges name only its vertices
        final_s = ["final", ["vertices"] + list(final.vertices)]
        for e in final.edges:
            final_s.append(["edge", e.tail, e.head, e.label])
        return ["complete-set",
                ["sublots"] + [_ids(p) for p in cert.sublots],
                chain, final_s,
                ["flipped"] + _ids(cert.flipped), *_corner_fields(cert, names),
                ["children"] + [_to_sexp(c, names) for c in cert.children]]
    raise LotvaError(f"cannot serialize {cert!r}")


def _corner_fields(cert, names: set[str]) -> list:
    """The (pos ...) and (neg ...) fields of a node; adds their names."""
    names.update(*cert.pos_corners, *cert.neg_corners)
    return [["pos"] + [list(p) for p in cert.pos_corners],
            ["neg"] + [list(p) for p in cert.neg_corners]]


_NESTED = {"bdry-red", "free-dec", "complete-set", "children", "chain"}


def _pp(node, depth: int) -> str:
    pad = "  " * depth
    if not isinstance(node, list):
        return pad + _atom(node)
    if not any(isinstance(x, list) and x and x[0] in _NODE_KEYWORDS
               for x in node) and node[0] not in _NESTED:
        return pad + _flat(node)
    head = node[0]
    parts = [pad + "(" + str(head)]
    for x in node[1:]:
        if isinstance(x, list):
            parts.append(_pp(x, depth + 1))
        else:
            parts.append("  " * (depth + 1) + _atom(x))
    parts[-1] += ")"
    return "\n".join(parts)


def _flat(node) -> str:
    out = []
    for x in node:
        out.append(_flat(x) if isinstance(x, list) else _atom(x))
    return "(" + " ".join(out) + ")"


def _atom(x) -> str:
    return str(x)


MAX_CERT_DEPTH = 500
"""Deepest parenthesis nesting ``parse_certificate`` accepts.  Every node
sits at least one level below its parent node, and node building and the
verifier recurse once per node, so this also bounds their recursion."""


def parse_certificate(text: str) -> Certificate:
    return _from_sexp(_read(text))


def _read(text: str):
    """The single s-expression ``text`` spells, every atom kept as its text.

    The tokens are the parentheses and the whitespace-separated runs
    between them.  Iterative, with the open lists on an explicit stack no
    deeper than MAX_CERT_DEPTH.
    """
    root: list = []
    stack = [root]
    cur = root
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())
    for tok in tokens:
        if tok == ")":
            if cur is root:
                raise ParseError("unexpected )")
            stack.pop()
            cur = stack[-1]
            if cur is root:
                break
        elif tok == "(":
            if len(stack) > MAX_CERT_DEPTH:
                raise ParseError(f"certificate nests deeper than {MAX_CERT_DEPTH}")
            cur.append([])
            cur = cur[-1]
            stack.append(cur)
        else:
            cur.append(tok)
            if cur is root:
                break
    if len(stack) > 1:
        raise ParseError("unbalanced parentheses")
    if not root:
        raise ParseError("unexpected end of certificate")
    if next(tokens, None) is not None:
        raise ParseError("trailing data after certificate")
    return root[0]


def _int(x) -> int:
    try:
        return int(x)
    except (TypeError, ValueError):
        raise ParseError(f"expected edge id, got {x!r}") from None


def _name(x) -> str:
    if isinstance(x, list):
        raise ParseError(f"expected a vertex name, got {x!r}")
    return str(x)


def _items(x, key: str, n: Optional[int] = None) -> list:
    """The items after ``key`` of ``x``, a list that starts with ``key``;
    exactly n of them when n is given."""
    if not (isinstance(x, list) and x and x[0] == key):
        raise ParseError(f"expected a ({key} ...) field, got {x!r:.80}")
    if n is not None and len(x) != n + 1:
        raise ParseError(f"({key} ...) takes {n} item{'s' * (n != 1)}, "
                         f"got {len(x) - 1}")
    return x[1:]


def _int_set(items) -> frozenset[int]:
    if not isinstance(items, list):
        raise ParseError(f"expected a list of edge ids, got {items!r}")
    return frozenset(_int(x) for x in items)


def _pairs(items) -> tuple[tuple[str, str], ...]:
    out = []
    for p in items:
        if not (isinstance(p, list) and len(p) == 2):
            raise ParseError(f"expected a corner pair, got {p!r}")
        out.append((_name(p[0]), _name(p[1])))
    return tuple(out)


def _from_sexp(sexp) -> Certificate:
    """The node ``sexp`` spells, read by position in exactly the layout
    ``_to_sexp`` writes: a missing, extra, repeated or out-of-order field
    or a stray atom is a ParseError."""
    if not isinstance(sexp, list) or not sexp:
        raise ParseError("certificate node must be a list")
    head = sexp[0]
    if head == "base":
        _items(sexp, head, 0)
        return BaseTrivial()
    if head == "bdry-red":
        edge, vertex, child = _items(sexp, head, 3)
        return BoundaryReduction(_int(*_items(edge, "edge", 1)),
                                 _name(*_items(vertex, "vertex", 1)),
                                 _from_sexp(child))
    if head == "free-dec":
        left, right, shared, left_child, right_child = _items(sexp, head, 5)
        return FreeDecompositionNode(
            _int_set(_items(left, "left")), _int_set(_items(right, "right")),
            _name(*_items(shared, "shared", 1)),
            _from_sexp(left_child), _from_sexp(right_child))
    if head == "prime-wt":
        flipped, pos, neg = _items(sexp, head, 3)
        return PrimeWeightTest(_int_set(_items(flipped, "flipped")),
                               _pairs(_items(pos, "pos")),
                               _pairs(_items(neg, "neg")))
    if head == "complete-set":
        sublots, chain, final, flipped, pos, neg, children = _items(sexp, head, 7)
        steps = []
        for step in _items(chain, "chain"):
            ids, vertex = _items(step, "step", 2)
            steps.append(ChainStep(_int_set(ids), _name(vertex)))
        final_items = _items(final, "final")
        if not final_items:
            raise ParseError(f"expected a (vertices ...) field in {final!r}")
        vertices, *edges = final_items
        quotient = Lot(tuple(map(_name, _items(vertices, "vertices"))),
                       tuple(LotEdge(*map(_name, _items(e, "edge", 3)))
                             for e in edges))
        return CompleteSetRelative(
            tuple(map(_int_set, _items(sublots, "sublots"))),
            CollapseChain(tuple(steps), quotient),
            _int_set(_items(flipped, "flipped")),
            _pairs(_items(pos, "pos")), _pairs(_items(neg, "neg")),
            tuple(map(_from_sexp, _items(children, "children"))))
    raise ParseError(f"unknown certificate keyword {head!r}")


_NODE_KEYWORDS = {"base", "bdry-red", "free-dec", "prime-wt", "complete-set"}
