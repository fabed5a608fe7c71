"""Combinatorial surface diagrams over a one-vertex 2-complex.

A diagram is a closed orientable surface with a cell structure plus a
combinatorial map to a complex: each diagram edge carries an image complex
edge with a sign, each face an image cell with an orientation.  Darts are
directed diagram edges; every dart lies in exactly one face boundary, which
is what makes the gluing closed and orientation-coherent.

Reading a face through the edge images must give its cell's boundary word up
to rotation (+ faces) or the inverse word up to rotation (- faces, the
mirror case folding pairs are made of).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (DegenerateDiagramError, ParseError, PreconditionError,
                     StructureError)
from .complexes import TwoComplex, exponent_sum
from .linkage import LinkGraph, build_link
from .weights import WeightAssignment

Dart = tuple[int, int]  # (edge index, +1 along tail->head, -1 against)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class DiagramEdge:
    name: str
    tail: str
    head: str
    image_edge: str
    image_sign: int  # the dart (edge, +1) maps to image_edge^image_sign


@dataclass(frozen=True)
class DiagramFace:
    name: str
    cell: str
    orientation: int  # +1 or -1
    boundary: tuple[Dart, ...]


@dataclass(frozen=True)
class SurfaceDiagram:
    name: str
    complex_name: str
    vertices: tuple[str, ...]
    edges: tuple[DiagramEdge, ...]
    faces: tuple[DiagramFace, ...]


@dataclass(frozen=True)
class DiagramReport:
    valid: bool
    error: Optional[str]
    chi: Optional[int] = None
    genus: Optional[int] = None
    sphere: bool = False
    connected: bool = False
    rotations: tuple[int, ...] = ()  # per face, how far the read word is rotated


@dataclass(frozen=True)
class VertexLinkCycle:
    vertex: str
    corners: tuple[tuple[int, int], ...]  # (corner id in lk(L), direction)


@dataclass(frozen=True)
class CurvatureReport:
    face_curvature: dict[str, Fraction]
    vertex_curvature: dict[str, Fraction]
    total: Fraction
    chi: int


def _dart_tail(d: SurfaceDiagram, dart: Dart) -> str:
    e = d.edges[dart[0]]
    return e.tail if dart[1] > 0 else e.head


def _dart_head(d: SurfaceDiagram, dart: Dart) -> str:
    e = d.edges[dart[0]]
    return e.head if dart[1] > 0 else e.tail


def _dart_image(d: SurfaceDiagram, dart: Dart) -> tuple[str, int]:
    e = d.edges[dart[0]]
    return (e.image_edge, e.image_sign * dart[1])


def _rotation_match(read: tuple, target: tuple) -> Optional[int]:
    """r such that read[i] == target[(i + r) % q], if any."""
    q = len(target)
    if len(read) != q:
        return None
    for r in range(q):
        if all(read[i] == target[(i + r) % q] for i in range(q)):
            return r
    return None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_diagram(d: SurfaceDiagram, cx: TwoComplex) -> DiagramReport:
    """Structural validation; reports Euler characteristic, genus and the
    per-face rotation aligning the read word with the cell boundary."""

    def fail(msg):
        return DiagramReport(False, msg)

    vset = set(d.vertices)
    if len(vset) != len(d.vertices):
        return fail("duplicate vertex names")
    enames = set()
    for e in d.edges:
        if e.name in enames:
            return fail(f"duplicate edge name {e.name!r}")
        enames.add(e.name)
        if e.tail not in vset or e.head not in vset:
            return fail(f"edge {e.name!r} has unknown endpoint")
        if e.image_edge not in cx.edge_names:
            return fail(f"edge {e.name!r} maps to unknown complex edge")
        if e.image_sign not in (1, -1):
            return fail(f"edge {e.name!r} has bad image sign")

    cmap = {c.name: c for c in cx.cells}
    used: dict[Dart, str] = {}
    rotations = []
    for f in d.faces:
        if f.cell not in cmap:
            return fail(f"face {f.name!r} maps to unknown cell {f.cell!r}")
        if not f.boundary:
            return fail(f"face {f.name!r} has empty boundary")
        q = len(f.boundary)
        for i, dart in enumerate(f.boundary):
            if not 0 <= dart[0] < len(d.edges) or dart[1] not in (1, -1):
                return fail(f"face {f.name!r} has a dangling dart")
            if dart in used:
                return fail(
                    f"dart {d.edges[dart[0]].name}^{dart[1]} used twice "
                    f"(non-orientable or broken gluing)")
            used[dart] = f.name
            if _dart_head(d, dart) != _dart_tail(d, f.boundary[(i + 1) % q]):
                return fail(f"face {f.name!r} boundary is not a closed walk")
        read = tuple(_dart_image(d, dart) for dart in f.boundary)
        word = cmap[f.cell].boundary
        target = word.letters if f.orientation > 0 else word.inverse().letters
        r = _rotation_match(read, target)
        if r is None:
            return fail(f"face {f.name!r} word mismatch with cell {f.cell!r}")
        rotations.append(r)

    for ei in range(len(d.edges)):
        for s in (1, -1):
            if (ei, s) not in used:
                return fail(f"dart {d.edges[ei].name}^{s} lies in no face "
                            "(surface not closed)")

    # each vertex must have a single rotation cycle of corners
    succ, _ = _succ_and_positions(d)
    corner_count = dict.fromkeys(d.vertices, 0)
    for dart in succ:
        corner_count[_dart_head(d, dart)] += 1
    for v in d.vertices:
        if corner_count[v] == 0:
            return fail(f"vertex {v!r} is isolated")
    for v in d.vertices:
        if len(_vertex_rotation(d, v, succ)) != corner_count[v]:
            return fail(f"link of vertex {v!r} is not a single circle")

    V, E, F = len(d.vertices), len(d.edges), len(d.faces)
    chi = V - E + F
    connected = _is_connected(d)
    genus = (2 - chi) // 2 if connected else None
    return DiagramReport(True, None, chi=chi, genus=genus,
                         sphere=connected and chi == 2, connected=connected,
                         rotations=tuple(rotations))


def _vertex_rotation(d: SurfaceDiagram, v: str,
                     succ_in_face: dict[Dart, Dart]) -> list[tuple[Dart, Dart]]:
    """Orbit of face corners around v: a corner is (incoming dart, outgoing
    dart); the next corner continues in the face of the outgoing dart's
    reversal.  Once every dart lies in exactly one face, this step is a
    permutation of the corners, so the orbit closes."""
    start = None
    for dart in succ_in_face:
        if _dart_head(d, dart) == v:
            start = (dart, succ_in_face[dart])
            break
    if start is None:
        return []
    orbit = []
    cur = start
    while True:
        orbit.append(cur)
        out = cur[1]
        rev = (out[0], -out[1])
        cur = (rev, succ_in_face[rev])
        if cur == start:
            return orbit


def _is_connected(d: SurfaceDiagram) -> bool:
    if not d.vertices:
        return False
    adj: dict[str, list[str]] = {v: [] for v in d.vertices}
    for e in d.edges:
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen = {d.vertices[0]}
    stack = [d.vertices[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(d.vertices)


def _require_valid(d: SurfaceDiagram, cx: TwoComplex) -> DiagramReport:
    report = validate_diagram(d, cx)
    if not report.valid:
        raise PreconditionError(f"invalid diagram: {report.error}")
    return report


# ---------------------------------------------------------------------------
# vertex links and folding vertices
# ---------------------------------------------------------------------------

def _face_corner_to_link(d: SurfaceDiagram, g: LinkGraph, rotations
                         ) -> dict[tuple[str, int], tuple[int, int]]:
    """Map (face name, position) to (corner id in g = lk(L), direction).

    Position i sits between boundary darts i and i+1.  With rotation r, a
    + face's position i reads the cell corner (i + r) mod q; a - face reads
    corner (q - 2 - i - r) mod q, traversed backwards.
    """
    idx = {(c.provenance[1], c.provenance[2]): c.id for c in g.corners}
    out = {}
    for fi, f in enumerate(d.faces):
        q = len(f.boundary)
        r = rotations[fi]
        for i in range(q):
            if f.orientation > 0:
                j = (i + r) % q
                out[(f.name, i)] = (idx[(f.cell, j)], 1)
            else:
                j = (q - 2 - i - r) % q
                out[(f.name, i)] = (idx[(f.cell, j)], -1)
    return out


def vertex_link_cycle(d: SurfaceDiagram, vertex: str, cx: TwoComplex) -> VertexLinkCycle:
    """The image z(v) of the link of v: a closed edge path in lk(L)."""
    report = _require_valid(d, cx)
    if vertex not in d.vertices:
        raise StructureError(f"unknown vertex {vertex!r}")
    succ, pos_of = _succ_and_positions(d)
    corner_map = _face_corner_to_link(d, build_link(cx), report.rotations)
    orbit = _vertex_rotation(d, vertex, succ)
    corners = []
    for incoming, outgoing in orbit:
        fname, i = pos_of[incoming]
        corners.append(corner_map[(fname, i)])
    return VertexLinkCycle(vertex, tuple(corners))


def _succ_and_positions(d: SurfaceDiagram):
    succ: dict[Dart, Dart] = {}
    pos_of: dict[Dart, tuple[str, int]] = {}
    for f in d.faces:
        q = len(f.boundary)
        for i, dart in enumerate(f.boundary):
            succ[dart] = f.boundary[(i + 1) % q]
            pos_of[dart] = (f.name, i)  # corner between dart i and dart i+1
    return succ, pos_of


def find_folding_vertices(d: SurfaceDiagram, cx: TwoComplex,
                          scope=None) -> list[tuple[str, tuple[str, str]]]:
    """Vertices whose z(v) is not homology reduced, with one witnessing face
    pair each.  With ``scope`` (a SubcomplexFamily), only pairs whose faces
    map to cells outside every part are reported."""
    report = _require_valid(d, cx)
    scope_cells = scope.all_cells if scope is not None else frozenset()
    succ, pos_of = _succ_and_positions(d)
    corner_map = _face_corner_to_link(d, build_link(cx), report.rotations)
    face_cell = {f.name: f.cell for f in d.faces}
    out = []
    for v in d.vertices:
        orbit = _vertex_rotation(d, v, succ)
        entries = []
        for incoming, outgoing in orbit:
            fname, i = pos_of[incoming]
            cid, direction = corner_map[(fname, i)]
            entries.append((cid, direction, fname))
        found = None
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if entries[i][0] == entries[j][0] and entries[i][1] == -entries[j][1]:
                    f1, f2 = entries[i][2], entries[j][2]
                    if scope is not None and (face_cell[f1] in scope_cells
                                              or face_cell[f2] in scope_cells):
                        continue
                    found = (v, (f1, f2))
                    break
            if found:
                break
        if found:
            out.append(found)
    return out


def is_vertex_reduced(d: SurfaceDiagram, cx: TwoComplex) -> bool:
    return not find_folding_vertices(d, cx)


def k_thin_check(d: SurfaceDiagram, cx: TwoComplex, fam) -> tuple[bool, Optional[str]]:
    """True iff every vertex has an incident face mapped outside all parts."""
    _require_valid(d, cx)
    outside = {f.name for f in d.faces if f.cell not in fam.all_cells}
    good: set[str] = set()
    for f in d.faces:
        if f.name not in outside:
            continue
        for dart in f.boundary:
            good.add(_dart_head(d, dart))
            good.add(_dart_tail(d, dart))
    for v in d.vertices:
        if v not in good:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_report(d: SurfaceDiagram, cx: TwoComplex,
                     w: WeightAssignment) -> CurvatureReport:
    """Pull weights back along the face images and sum curvatures.

    kappa(face) = sum of its corner weights - (q - 2); kappa(v) = 2 - sum of
    the corner weights at v.  The total always equals 2 * chi exactly.
    w must give every corner of lk(L) a nonnegative rational weight
    (``WeightAssignment.scaled``).
    """
    report = _require_valid(d, cx)
    g = build_link(cx)
    den, iw = w.scaled(g)  # corner ids of lk(L) are its positions
    corner_map = _face_corner_to_link(d, g, report.rotations)
    face_curv: dict[str, Fraction] = {}
    vertex_sum = dict.fromkeys(d.vertices, 0)
    for f in d.faces:
        q = len(f.boundary)
        s = 0
        for i in range(q):
            x = iw[corner_map[(f.name, i)][0]]
            s += x
            vertex_sum[_dart_head(d, f.boundary[i])] += x
        face_curv[f.name] = Fraction(s, den) - (q - 2)
    vertex_curv = {v: 2 - Fraction(s, den) for v, s in vertex_sum.items()}
    total = sum(face_curv.values(), Fraction(0)) + sum(vertex_curv.values(), Fraction(0))
    if total != 2 * report.chi:
        raise RuntimeError("internal error: combinatorial Gauss-Bonnet failed")
    return CurvatureReport(face_curv, vertex_curv, total, report.chi)


# ---------------------------------------------------------------------------
# sinks and sources
# ---------------------------------------------------------------------------

def find_sink_source(d: SurfaceDiagram, cx: TwoComplex
                     ) -> tuple[str, str, dict[str, int]]:
    """A sink (all edges incoming) and a source (all edges outgoing) of the
    diagram with edges oriented by their pulled-back complex orientation.

    Needs every face image to have exponent sum 0 and the diagram to be
    connected; heights are exponent sums of paths from the first vertex.
    """
    _require_valid(d, cx)
    cmap = {c.name: c for c in cx.cells}
    for f in d.faces:
        es = exponent_sum(cmap[f.cell].boundary)
        if es != 0:
            raise PreconditionError(
                f"face {f.name!r} maps to cell with exponent sum {es}")
    if not _is_connected(d):
        raise PreconditionError("diagram is not connected")
    if len(d.vertices) == 1:
        raise DegenerateDiagramError(
            "degenerate-single-vertex",
            "single-vertex diagram: every edge both enters and leaves")

    # oriented edge u -> v where the image sign is positive
    oriented = []
    for e in d.edges:
        if e.image_sign > 0:
            oriented.append((e.tail, e.head))
        else:
            oriented.append((e.head, e.tail))
    h: dict[str, int] = {d.vertices[0]: 0}
    queue = [d.vertices[0]]
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in d.vertices}
    for u, v in oriented:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    while queue:
        x = queue.pop(0)
        for y, delta in adj[x]:
            hy = h[x] + delta
            if y not in h:
                h[y] = hy
                queue.append(y)
            elif h[y] != hy:
                raise StructureError("height inconsistency: diagram cycles "
                                     "have nonzero exponent sum")
    sink = max(d.vertices, key=lambda v: (h[v], -d.vertices.index(v)))
    source = min(d.vertices, key=lambda v: (h[v], d.vertices.index(v)))
    for u, v in oriented:
        if u == sink:
            raise RuntimeError("internal error: sink has an outgoing edge")
        if v == source:
            raise RuntimeError("internal error: source has an incoming edge")
    return sink, source, h


# ---------------------------------------------------------------------------
# the doubled-cell sphere
# ---------------------------------------------------------------------------

def double_cell_sphere(cx: TwoComplex, cell_name: str) -> SurfaceDiagram:
    """Mirror sphere over one cell: two faces (the cell with + and with -),
    q edges, q vertices.  Every vertex is a folding vertex."""
    cell = cx.cell(cell_name)
    q = len(cell.boundary)
    vertices = tuple(f"v{i}" for i in range(q))
    edges = []
    for i, (x, s) in enumerate(cell.boundary.letters):
        edges.append(DiagramEdge(f"e{i}", f"v{i}", f"v{(i + 1) % q}", x, s))
    front = DiagramFace("front", cell_name, 1,
                        tuple((i, 1) for i in range(q)))
    back = DiagramFace("back", cell_name, -1,
                       tuple((i, -1) for i in reversed(range(q))))
    return SurfaceDiagram(f"double_{cell_name}", cx.name, vertices,
                          tuple(edges), (front, back))


# ---------------------------------------------------------------------------
# diagram files
# ---------------------------------------------------------------------------

def parse_diagram(text: str) -> SurfaceDiagram:
    """Grammar: ``diagram NAME over COMPLEXNAME`` | ``vertex NAME`` |
    ``edge NAME TAIL HEAD maps EDGE SIGN`` |
    ``face NAME cell CELL orient S boundary E1,±E2,...`` (S is + or -)."""
    name = ""
    complex_name = ""
    vertices: list[str] = []
    vset: set[str] = set()
    edges: list[DiagramEdge] = []
    eidx: dict[str, int] = {}
    faces: list[DiagramFace] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "diagram":
            if len(parts) != 4 or parts[2] != "over":
                raise ParseError("expected: diagram NAME over COMPLEXNAME", lineno)
            name, complex_name = parts[1], parts[3]
        elif kw == "vertex":
            if len(parts) != 2 or not _IDENT.match(parts[1]):
                raise ParseError("expected: vertex NAME", lineno)
            if parts[1] not in vset:
                vset.add(parts[1])
                vertices.append(parts[1])
        elif kw == "edge":
            if len(parts) != 7 or parts[4] != "maps" or parts[6] not in ("+", "-"):
                raise ParseError("expected: edge NAME TAIL HEAD maps EDGE SIGN", lineno)
            ename, tail, head, _, img, sgn = parts[1:]
            if ename in eidx:
                raise ParseError(f"duplicate edge {ename!r}", lineno)
            for v in (tail, head):
                if v not in vset:
                    vset.add(v)
                    vertices.append(v)
            eidx[ename] = len(edges)
            edges.append(DiagramEdge(ename, tail, head, img, 1 if sgn == "+" else -1))
        elif kw == "face":
            m = re.match(r"face\s+(\w+)\s+cell\s+(\w+)\s+orient\s+([+-])\s+"
                         r"boundary\s+(.+)$", line)
            if not m:
                raise ParseError(
                    "expected: face NAME cell CELL orient ± boundary E1,±E2,...", lineno)
            fname, cell, orient, blist = m.groups()
            boundary = []
            for tok in blist.split(","):
                tok = tok.strip()
                s = 1
                if tok.startswith("-"):
                    s, tok = -1, tok[1:]
                elif tok.startswith("+"):
                    tok = tok[1:]
                if tok not in eidx:
                    raise ParseError(f"unknown diagram edge {tok!r}", lineno)
                boundary.append((eidx[tok], s))
            faces.append(DiagramFace(fname, cell, 1 if orient == "+" else -1,
                                     tuple(boundary)))
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)
    return SurfaceDiagram(name, complex_name, tuple(vertices), tuple(edges),
                          tuple(faces))


def format_diagram(d: SurfaceDiagram) -> str:
    lines = [f"diagram {d.name or 'unnamed'} over {d.complex_name or 'unnamed'}"]
    lines += [f"vertex {v}" for v in d.vertices]
    for e in d.edges:
        sgn = "+" if e.image_sign > 0 else "-"
        lines.append(f"edge {e.name} {e.tail} {e.head} maps {e.image_edge} {sgn}")
    for f in d.faces:
        orient = "+" if f.orientation > 0 else "-"
        boundary = ",".join(
            ("" if s > 0 else "-") + d.edges[ei].name for ei, s in f.boundary)
        lines.append(f"face {f.name} cell {f.cell} orient {orient} boundary {boundary}")
    return "\n".join(lines) + "\n"
