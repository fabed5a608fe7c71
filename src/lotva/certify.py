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
    return _pp(_to_sexp(cert), 0) + "\n"


def _ids(s) -> list:
    return sorted(s)


def _to_sexp(cert: Certificate):
    if isinstance(cert, BaseTrivial):
        return ["base"]
    if isinstance(cert, BoundaryReduction):
        return ["bdry-red", ["edge", cert.edge_id], ["vertex", cert.outer_vertex],
                _to_sexp(cert.child)]
    if isinstance(cert, FreeDecompositionNode):
        return ["free-dec",
                ["left"] + _ids(cert.left_edges),
                ["right"] + _ids(cert.right_edges),
                ["shared", cert.shared_vertex],
                _to_sexp(cert.left_child), _to_sexp(cert.right_child)]
    if isinstance(cert, PrimeWeightTest):
        return ["prime-wt",
                ["flipped"] + _ids(cert.flipped),
                ["pos"] + [list(p) for p in cert.pos_corners],
                ["neg"] + [list(p) for p in cert.neg_corners]]
    if isinstance(cert, CompleteSetRelative):
        chain = ["chain"]
        for step in cert.chain.steps:
            chain.append(["step", _ids(step.sublot_edges), step.collapse_vertex])
        final = cert.chain.final_quotient
        final_s = ["final", ["vertices"] + list(final.vertices)]
        for e in final.edges:
            final_s.append(["edge", e.tail, e.head, e.label])
        return ["complete-set",
                ["sublots"] + [_ids(p) for p in cert.sublots],
                chain, final_s,
                ["flipped"] + _ids(cert.flipped),
                ["pos"] + [list(p) for p in cert.pos_corners],
                ["neg"] + [list(p) for p in cert.neg_corners],
                ["children"] + [_to_sexp(c) for c in cert.children]]
    raise LotvaError(f"cannot serialize {cert!r}")


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
    return _from_sexp(_read(_tokenize(text)))


def _tokenize(text: str) -> list[str]:
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


def _read(tokens: list[str]):
    """The single s-expression the tokens spell; integer atoms become ints.

    Iterative, with the open lists on an explicit stack no deeper than
    MAX_CERT_DEPTH.
    """
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


def _field(sexp: list, key: str) -> list:
    for x in sexp[1:]:
        if isinstance(x, list) and x and x[0] == key:
            return x
    raise ParseError(f"certificate node {sexp[0]!r} is missing field {key!r}")


def _int(x) -> int:
    if not isinstance(x, int):
        raise ParseError(f"expected edge id, got {x!r}")
    return x


def _name(x) -> str:
    if isinstance(x, list):
        raise ParseError(f"expected a vertex name, got {x!r}")
    return str(x)


def _fields(x, n: int, what: str) -> list:
    """``x`` if it is a list of exactly n items."""
    if not (isinstance(x, list) and len(x) == n):
        raise ParseError(f"expected {what}, got {x!r}")
    return x


def _int_field(sexp: list, key: str) -> int:
    return _int(_fields(_field(sexp, key), 2, f"({key} ID)")[1])


def _name_field(sexp: list, key: str) -> str:
    return _name(_fields(_field(sexp, key), 2, f"({key} NAME)")[1])


def _int_set(items) -> frozenset[int]:
    if not isinstance(items, list):
        raise ParseError(f"expected a list of edge ids, got {items!r}")
    return frozenset(_int(x) for x in items)


def _pairs(items) -> tuple[tuple[str, str], ...]:
    out = []
    for p in items:
        a, b = _fields(p, 2, "a corner pair")
        out.append((_name(a), _name(b)))
    return tuple(out)


def _child_nodes(sexp: list) -> list:
    return [x for x in sexp[1:] if isinstance(x, list) and x
            and isinstance(x[0], str) and x[0] in _NODE_KEYWORDS]


def _from_sexp(sexp) -> Certificate:
    if not isinstance(sexp, list) or not sexp:
        raise ParseError("certificate node must be a list")
    head = sexp[0]
    if head == "base":
        return BaseTrivial()
    if head == "bdry-red":
        edge_id = _int_field(sexp, "edge")
        vertex = _name_field(sexp, "vertex")
        children = _child_nodes(sexp)
        if len(children) != 1:
            raise ParseError("bdry-red needs exactly one child")
        return BoundaryReduction(edge_id, vertex, _from_sexp(children[0]))
    if head == "free-dec":
        children = _child_nodes(sexp)
        if len(children) != 2:
            raise ParseError("free-dec needs exactly two children")
        return FreeDecompositionNode(
            _int_set(_field(sexp, "left")[1:]),
            _int_set(_field(sexp, "right")[1:]),
            _name_field(sexp, "shared"),
            _from_sexp(children[0]), _from_sexp(children[1]))
    if head == "prime-wt":
        return PrimeWeightTest(
            _int_set(_field(sexp, "flipped")[1:]),
            _pairs(_field(sexp, "pos")[1:]),
            _pairs(_field(sexp, "neg")[1:]))
    if head == "complete-set":
        sublots = tuple(_int_set(p) for p in _field(sexp, "sublots")[1:])
        steps = []
        for st in _field(sexp, "chain")[1:]:
            if not (isinstance(st, list) and len(st) == 3 and st[0] == "step"):
                raise ParseError(f"bad chain step {st!r}")
            steps.append(ChainStep(_int_set(st[1]), _name(st[2])))
        final_s = _field(sexp, "final")
        vertices = tuple(_name(v) for v in _field(final_s, "vertices")[1:])
        edges = tuple(LotEdge(*map(_name, _fields(e, 4, "(edge TAIL HEAD LABEL)")[1:]))
                      for e in final_s[1:]
                      if isinstance(e, list) and e and e[0] == "edge")
        final = Lot(vertices, edges)
        children = tuple(_from_sexp(c) for c in _field(sexp, "children")[1:])
        return CompleteSetRelative(
            sublots, CollapseChain(tuple(steps), final),
            _int_set(_field(sexp, "flipped")[1:]),
            _pairs(_field(sexp, "pos")[1:]),
            _pairs(_field(sexp, "neg")[1:]),
            children)
    raise ParseError(f"unknown certificate keyword {head!r}")


_NODE_KEYWORDS = {"base", "bdry-red", "free-dec", "prime-wt", "complete-set"}
