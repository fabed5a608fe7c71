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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (DegenerateDiagramError, ParseError, PreconditionError,
                     StructureError)
from .complexes import TwoComplex, exponent_sum
from .linkage import _complex_corners
from .lot import _IDENT
from .weights import WeightAssignment

Dart = tuple[int, int]  # (edge index, +1 along tail->head, -1 against)


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
    _glued: Optional[tuple[TwoComplex, _Gluing]] = field(
        default=None, init=False, repr=False, compare=False)


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
    """The least r such that read[i] == target[(i + r) % q], if any."""
    return next((r for r in range(len(target))
                 if read == target[r:] + target[:r]), None)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class _Gluing(NamedTuple):
    """A diagram's validation report and, when it is valid, the corners
    around each vertex in rotation order, as (face index, position) pairs.
    Position i of a face is its corner between boundary darts i and i+1."""
    report: DiagramReport
    cycles: dict[str, list[tuple[int, int]]]


def _dart_id(dart: Dart) -> int:
    """2 * edge index, plus 1 against the edge: id ^ 1 is the reversed dart."""
    return 2 * dart[0] + (dart[1] < 0)


def validate_diagram(d: SurfaceDiagram, cx: TwoComplex) -> DiagramReport:
    """Structural validation; reports Euler characteristic, genus and the
    per-face rotation aligning the read word with the cell boundary."""
    return _gluing(d, cx).report


def _glue(d: SurfaceDiagram, cx: TwoComplex) -> _Gluing:
    """Validation and the corner cycles, in time linear in the size of d.

    The corner after dart a in its face continues, around a's head, at the
    corner after the reversal of a's successor: a -> succ(a) ^ 1 permutes
    the darts once every dart lies in exactly one face.  The link of a
    vertex is a single circle iff the vertex owns exactly one cycle of this
    permutation.  Walking the darts in face order starts each cycle at the
    vertex's first incoming dart.
    """

    def fail(msg):
        return _Gluing(DiagramReport(False, msg), {})

    if not (d.vertices or d.edges or d.faces):
        return fail("empty diagram")
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
        if e.image_edge not in cx._edge_index:
            return fail(f"edge {e.name!r} maps to unknown complex edge")
        if e.image_sign not in (1, -1):
            return fail(f"edge {e.name!r} has bad image sign")

    cell_at = cx._cell_index
    where: list[Optional[tuple[int, int]]] = [None] * (2 * len(d.edges))
    succ = [0] * len(where)
    fnames = set()
    rotations = []
    for fi, f in enumerate(d.faces):
        if f.name in fnames:
            return fail(f"duplicate face name {f.name!r}")
        fnames.add(f.name)
        if f.cell not in cell_at:
            return fail(f"face {f.name!r} maps to unknown cell {f.cell!r}")
        if not f.boundary:
            return fail(f"face {f.name!r} has empty boundary")
        if any(not 0 <= dart[0] < len(d.edges) or dart[1] not in (1, -1)
               for dart in f.boundary):
            return fail(f"face {f.name!r} has a dangling dart")
        q = len(f.boundary)
        for i, dart in enumerate(f.boundary):
            a, nxt = _dart_id(dart), f.boundary[(i + 1) % q]
            if where[a] is not None:
                return fail(
                    f"dart {d.edges[dart[0]].name}^{dart[1]} used twice "
                    f"(non-orientable or broken gluing)")
            where[a] = (fi, i)
            succ[a] = _dart_id(nxt)
            if _dart_head(d, dart) != _dart_tail(d, nxt):
                return fail(f"face {f.name!r} boundary is not a closed walk")
        read = tuple(_dart_image(d, dart) for dart in f.boundary)
        word = cx.cells[cell_at[f.cell]].boundary
        target = word.letters if f.orientation > 0 else word.inverse().letters
        r = _rotation_match(read, target)
        if r is None:
            return fail(f"face {f.name!r} word mismatch with cell {f.cell!r}")
        rotations.append(r)

    for a, pos in enumerate(where):
        if pos is None:
            return fail(f"dart {d.edges[a >> 1].name}^{-1 if a & 1 else 1} "
                        "lies in no face (surface not closed)")

    cycles: dict[str, list[tuple[int, int]]] = {}
    split = set()
    seen = [False] * len(where)
    for f in d.faces:
        for dart in f.boundary:
            a = _dart_id(dart)
            if seen[a]:
                continue
            v = _dart_head(d, dart)
            if v in cycles:
                split.add(v)
            cycle = []
            while not seen[a]:
                seen[a] = True
                cycle.append(where[a])
                a = succ[a] ^ 1
            cycles.setdefault(v, cycle)
    for v in d.vertices:
        if v not in cycles:
            return fail(f"vertex {v!r} is isolated")
    for v in d.vertices:
        if v in split:
            return fail(f"link of vertex {v!r} is not a single circle")

    V, E, F = len(d.vertices), len(d.edges), len(d.faces)
    chi = V - E + F
    connected = _is_connected(d)
    genus = (2 - chi) // 2 if connected else None
    return _Gluing(DiagramReport(True, None, chi=chi, genus=genus,
                                 sphere=connected and chi == 2,
                                 connected=connected,
                                 rotations=tuple(rotations)), cycles)


def _is_connected(d: SurfaceDiagram) -> bool:
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


def _gluing(d: SurfaceDiagram, cx: TwoComplex) -> _Gluing:
    """``_glue(d, cx)``, valid or not, kept on d (``_glued``, outside
    equality, hashing and repr) for the complex object it was glued on."""
    if d._glued is None or d._glued[0] is not cx:
        object.__setattr__(d, "_glued", (cx, _glue(d, cx)))
    return d._glued[1]


def _require_valid(d: SurfaceDiagram, cx: TwoComplex) -> _Gluing:
    gluing = _gluing(d, cx)
    if not gluing.report.valid:
        raise PreconditionError(f"invalid diagram: {gluing.report.error}")
    return gluing


# ---------------------------------------------------------------------------
# vertex links and folding vertices
# ---------------------------------------------------------------------------

def _face_corner_to_link(d: SurfaceDiagram, cx: TwoComplex, rotations
                         ) -> list[list[tuple[int, int]]]:
    """Per face index and position, the (corner id in lk(L), direction).

    With rotation r, a + face's position i reads the cell corner
    (i + r) mod q; a - face reads corner (q - 2 - i - r) mod q, traversed
    backwards.  Corner p of a cell has id (its first corner's id) + p.
    """
    first, at = _complex_corners(cx)[2], cx._cell_index
    out = []
    for f, r in zip(d.faces, rotations):
        q, base = len(f.boundary), first[at[f.cell]]
        if f.orientation > 0:
            out.append([(base + (i + r) % q, 1) for i in range(q)])
        else:
            out.append([(base + (q - 2 - i - r) % q, -1) for i in range(q)])
    return out


def vertex_link_cycles(d: SurfaceDiagram, cx: TwoComplex
                       ) -> dict[str, VertexLinkCycle]:
    """z(v) of every vertex, by name in vertex order; validates d once."""
    gluing = _require_valid(d, cx)
    corners = _face_corner_to_link(d, cx, gluing.report.rotations)
    return {v: VertexLinkCycle(v, tuple(corners[fi][i]
                                        for fi, i in gluing.cycles[v]))
            for v in d.vertices}


def vertex_link_cycle(d: SurfaceDiagram, vertex: str, cx: TwoComplex) -> VertexLinkCycle:
    """The image z(v) of the link of v: a closed edge path in lk(L)."""
    cycles = vertex_link_cycles(d, cx)
    if vertex not in cycles:
        raise StructureError(f"unknown vertex {vertex!r}")
    return cycles[vertex]


def find_folding_vertices(d: SurfaceDiagram, cx: TwoComplex,
                          scope=None) -> list[tuple[str, tuple[str, str]]]:
    """Vertices whose z(v) is not homology reduced, with one witnessing face
    pair each: the first pair of corners around v, in rotation order, that
    read one link corner in opposite directions.  With ``scope`` (a
    SubcomplexFamily), only pairs whose faces map to cells outside every
    part are reported."""
    gluing = _require_valid(d, cx)
    corners = _face_corner_to_link(d, cx, gluing.report.rotations)
    scope_cells = scope.all_cells if scope is not None else frozenset()
    inside = [f.cell in scope_cells for f in d.faces]
    out = []
    for v in d.vertices:
        # backwards, so later[key] is the nearest later face reading key
        later: dict[tuple[int, int], int] = {}
        pair = None
        for fi, i in reversed(gluing.cycles[v]):
            if inside[fi]:
                continue
            cid, direction = corners[fi][i]
            fj = later.get((cid, -direction))
            if fj is not None:
                pair = (d.faces[fi].name, d.faces[fj].name)
            later[(cid, direction)] = fi
        if pair:
            out.append((v, pair))
    return out


def is_vertex_reduced(d: SurfaceDiagram, cx: TwoComplex) -> bool:
    return not find_folding_vertices(d, cx)


def k_thin_check(d: SurfaceDiagram, cx: TwoComplex, fam) -> tuple[bool, Optional[str]]:
    """True iff every vertex has an incident face mapped outside all parts."""
    gluing = _require_valid(d, cx)
    outside = [f.cell not in fam.all_cells for f in d.faces]
    for v in d.vertices:
        if not any(outside[fi] for fi, _ in gluing.cycles[v]):
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
    (``WeightAssignment.scaled``).  Each face and vertex is summed in
    scaled ints, units of 1/den, and made one Fraction at the end.
    """
    gluing = _require_valid(d, cx)
    corners = _face_corner_to_link(d, cx, gluing.report.rotations)
    den, iw = w.scaled(range(_complex_corners(cx)[2][-1]))  # the corner ids of lk(L)
    faces = [sum(iw[cid] for cid, _ in fc) - (len(fc) - 2) * den for fc in corners]
    vertices = [2 * den - sum(iw[corners[fi][i][0]] for fi, i in gluing.cycles[v])
                for v in d.vertices]
    face_curv = {f.name: Fraction(x, den) for f, x in zip(d.faces, faces)}
    vertex_curv = {v: Fraction(x, den) for v, x in zip(d.vertices, vertices)}
    total = Fraction(sum(faces) + sum(vertices), den)
    if total != 2 * gluing.report.chi:
        raise RuntimeError("internal error: combinatorial Gauss-Bonnet failed")
    return CurvatureReport(face_curv, vertex_curv, total, gluing.report.chi)


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
    report = _require_valid(d, cx).report
    for f in d.faces:
        es = exponent_sum(cx.cell(f.cell).boundary)
        if es != 0:
            raise PreconditionError(
                f"face {f.name!r} maps to cell with exponent sum {es}")
    if not report.connected:
        raise PreconditionError("diagram is not connected")
    if len(d.vertices) == 1:
        raise DegenerateDiagramError(
            "degenerate-single-vertex",
            "single-vertex diagram: every edge both enters and leaves")

    # oriented edge u -> v where the image sign is positive
    oriented = [(e.tail, e.head) if e.image_sign > 0 else (e.head, e.tail)
                for e in d.edges]
    h: dict[str, int] = {d.vertices[0]: 0}
    queue = deque([d.vertices[0]])
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in d.vertices}
    for u, v in oriented:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    while queue:
        x = queue.popleft()
        for y, delta in adj[x]:
            hy = h[x] + delta
            if y not in h:
                h[y] = hy
                queue.append(y)
            elif h[y] != hy:
                raise StructureError("height inconsistency: diagram cycles "
                                     "have nonzero exponent sum")
    order = {v: k for k, v in enumerate(d.vertices)}
    sink = max(d.vertices, key=lambda v: (h[v], -order[v]))
    source = min(d.vertices, key=lambda v: (h[v], order[v]))
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
    q edges, q vertices.  Every vertex is a folding vertex.  When every
    letter's sign is +1 or -1, it comes glued on cx (``_gluing``) as
    ``_glue`` would glue it, from the sphere's closed form; any other sign
    is left to ``_glue``, which rejects it."""
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
    d = SurfaceDiagram(f"double_{cell_name}", cx.name, vertices,
                       tuple(edges), (front, back))
    if all(e.image_sign in (1, -1) for e in edges):
        report = DiagramReport(True, None, chi=2, genus=0, sphere=True,
                               connected=True, rotations=(0, 0))
        cycles = {vertices[(i + 1) % q]: [(0, i), (1, (q - 2 - i) % q)]
                  for i in range(q)}
        object.__setattr__(d, "_glued", (cx, _Gluing(report, cycles)))
    return d


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
    fnames: set[str] = set()

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
            for v in (ename, tail, head):
                if not _IDENT.match(v):
                    raise ParseError(f"bad identifier {v!r}", lineno)
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
            if not _IDENT.match(fname):
                raise ParseError(f"bad identifier {fname!r}", lineno)
            if fname in fnames:
                raise ParseError(f"duplicate face {fname!r}", lineno)
            fnames.add(fname)
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
