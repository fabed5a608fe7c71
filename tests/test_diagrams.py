import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from lotva import (DegenerateDiagramError, DiagramEdge, DiagramFace,
                   ParseError, PreconditionError, StructureError,
                   SubcomplexFamily, SurfaceDiagram, VertexLinkCycle,
                   WeightAssignment, build_complex, build_link,
                   canonical_weights, curvature_report, derive_subcomplexes,
                   double_cell_sphere, find_folding_vertices,
                   find_sink_source, format_diagram, is_vertex_reduced,
                   k_thin_check, parse_complex, parse_diagram, sign_change,
                   validate_diagram, vertex_link_cycle, vertex_link_cycles)
from lotva.lot import maximal_sublots

from oracles import (random_weights, reference_find_folding_vertices,
                     reference_vertex_corners)


@pytest.fixture(scope="module")
def prime_cx(prime):
    return build_complex(prime)


@pytest.fixture(scope="module")
def pillow(prime_cx):
    return double_cell_sphere(prime_cx, "d_0")


class TestValidate:
    def test_pillow(self, pillow, prime_cx):
        rep = validate_diagram(pillow, prime_cx)
        assert rep.valid and rep.chi == 2 and rep.sphere
        assert len(pillow.vertices) == 4 and len(pillow.edges) == 4
        assert len(pillow.faces) == 2

    def test_mirror_orientation_required(self, pillow, prime_cx):
        bad = SurfaceDiagram(
            pillow.name, pillow.complex_name, pillow.vertices, pillow.edges,
            (pillow.faces[0],
             DiagramFace("back", "d_0", 1, pillow.faces[1].boundary)))
        rep = validate_diagram(bad, prime_cx)
        assert not rep.valid and "word mismatch" in rep.error

    def test_torus(self, torus, square_complex):
        rep = validate_diagram(torus, square_complex)
        assert rep.valid and rep.chi == 0 and rep.genus == 1 and not rep.sphere

    def test_dart_reuse_rejected(self, square_complex):
        # projective-plane style gluing uses the same dart twice
        d = SurfaceDiagram("rp2", "square", ("v",),
                           (DiagramEdge("e", "v", "v", "x", 1),),
                           (DiagramFace("f", "sq", 1,
                                        ((0, 1), (0, 1), (0, -1), (0, -1))),))
        rep = validate_diagram(d, square_complex)
        assert not rep.valid and "twice" in rep.error

    def test_open_surface_rejected(self, prime_cx):
        # one face only: the reversed darts bound nothing
        pillow = double_cell_sphere(prime_cx, "d_0")
        d = SurfaceDiagram("disk", "", pillow.vertices, pillow.edges,
                           (pillow.faces[0],))
        rep = validate_diagram(d, prime_cx)
        assert not rep.valid and "no face" in rep.error

    def test_duplicate_face_names_rejected(self, pillow, prime_cx):
        front, back = pillow.faces
        d = SurfaceDiagram(pillow.name, pillow.complex_name, pillow.vertices,
                           pillow.edges,
                           (front, DiagramFace("front", back.cell,
                                               back.orientation, back.boundary)))
        rep = validate_diagram(d, prime_cx)
        assert not rep.valid and rep.error == "duplicate face name 'front'"
        g = build_link(prime_cx)
        for op in (lambda: find_folding_vertices(d, prime_cx),
                   lambda: vertex_link_cycle(d, "v0", prime_cx),
                   lambda: curvature_report(d, prime_cx, canonical_weights(g))):
            with pytest.raises(PreconditionError, match="duplicate face name"):
                op()

    def test_empty_diagram_rejected(self, square_complex):
        rep = validate_diagram(parse_diagram(""), square_complex)
        assert not rep.valid and rep.error == "empty diagram"

    @pytest.mark.parametrize("fault, message", [
        ("vertex twice", "duplicate vertex names"),
        ("edge name twice", "duplicate edge name 'e0'"),
        ("unknown endpoint", "edge 'e0' has unknown endpoint"),
        ("unknown image", "edge 'e0' maps to unknown complex edge"),
        ("image sign 0", "edge 'e0' has bad image sign"),
        ("unknown cell", "face 'front' maps to unknown cell 'd_9'"),
        ("empty boundary", "face 'front' has empty boundary"),
        ("dart past the edges", "face 'front' has a dangling dart"),
        ("dart sign 0", "face 'front' has a dangling dart"),
        ("vertex on no edge", "vertex 'w' is isolated"),
        ("two pillows at v0", "link of vertex 'v0' is not a single circle"),
    ])
    def test_one_fault_each(self, pillow, prime_cx, fault, message):
        d = _with_fault(pillow, fault)
        rep = validate_diagram(d, prime_cx)
        assert rep.valid is False and rep.error == message
        with pytest.raises(PreconditionError) as exc:
            find_folding_vertices(d, prime_cx)
        assert str(exc.value) == f"invalid diagram: {message}"

    def test_fuzz_random_edits(self, prime_cx, square_complex, torus):
        """Random single edits are either rejected by validate_diagram or the
        other operations stay total on them."""
        rng = random.Random(31)
        samples = [double_cell_sphere(prime_cx, "d_0"),
                   double_cell_sphere(prime_cx, "d_1")]
        g = build_link(prime_cx)
        w = canonical_weights(g)
        for base in samples:
            for _ in range(60):
                d = _mutate(rng, base)
                rep = validate_diagram(d, prime_cx)
                if not rep.valid:
                    continue
                vertex_link_cycle(d, d.vertices[0], prime_cx)
                find_folding_vertices(d, prime_cx)
                curvature_report(d, prime_cx, w)


def _renamed(d, suffix, keep=()):
    """A copy of d with every vertex, edge and face name but those in
    ``keep`` suffixed."""
    name = lambda x: x if x in keep else x + suffix
    return SurfaceDiagram(
        d.name, d.complex_name, tuple(map(name, d.vertices)),
        tuple(DiagramEdge(name(e.name), name(e.tail), name(e.head),
                          e.image_edge, e.image_sign) for e in d.edges),
        tuple(DiagramFace(name(f.name), f.cell, f.orientation, f.boundary)
              for f in d.faces))


def _beside(d, other):
    """d and other side by side, other's darts moved past d's edges."""
    k = len(d.edges)
    faces = tuple(DiagramFace(f.name, f.cell, f.orientation,
                              tuple((i + k, s) for i, s in f.boundary))
                  for f in other.faces)
    vertices = d.vertices + tuple(v for v in other.vertices
                                  if v not in d.vertices)
    return SurfaceDiagram(d.name, d.complex_name, vertices,
                          d.edges + other.edges, d.faces + faces)


def _with_fault(pillow, fault):
    """The pillow with one validation fault."""
    (e0, *edges), (front, back) = pillow.edges, pillow.faces
    edge = lambda **kw: (replace(e0, **kw), *edges)
    face = lambda **kw: (replace(front, **kw), back)
    return {
        "vertex twice": lambda: replace(pillow, vertices=pillow.vertices + ("v0",)),
        "edge name twice": lambda: replace(
            pillow, edges=(e0, replace(edges[0], name="e0"), *edges[1:])),
        "unknown endpoint": lambda: replace(pillow, edges=edge(tail="w")),
        "unknown image": lambda: replace(pillow, edges=edge(image_edge="z")),
        "image sign 0": lambda: replace(pillow, edges=edge(image_sign=0)),
        "unknown cell": lambda: replace(pillow, faces=face(cell="d_9")),
        "empty boundary": lambda: replace(pillow, faces=face(boundary=())),
        "dart past the edges": lambda: replace(
            pillow, faces=face(boundary=front.boundary + ((4, 1),))),
        "dart sign 0": lambda: replace(
            pillow, faces=face(boundary=((0, 0),) + front.boundary[1:])),
        "vertex on no edge": lambda: replace(pillow, vertices=pillow.vertices + ("w",)),
        "two pillows at v0": lambda: _beside(pillow, _renamed(pillow, "_2", {"v0"})),
    }[fault]()


def _mutate(rng, d):
    """One random edit.  Kinds 0-3 (reverse an edge, flip an image sign,
    flip a boundary dart, flip a face's orientation) break a valid
    diagram; kinds 4-6 (rotate a face's boundary, reverse an edge and
    every dart on it, reorder the faces and the vertices) keep it valid."""
    kind = rng.randrange(7)
    vertices = list(d.vertices)
    edges = list(d.edges)
    faces = list(d.faces)
    if kind == 0 and edges:
        i = rng.randrange(len(edges))
        e = edges[i]
        edges[i] = DiagramEdge(e.name, e.head, e.tail, e.image_edge,
                               e.image_sign)
    elif kind == 1 and edges:
        i = rng.randrange(len(edges))
        e = edges[i]
        edges[i] = DiagramEdge(e.name, e.tail, e.head, e.image_edge,
                               -e.image_sign)
    elif kind == 2 and faces:
        i = rng.randrange(len(faces))
        f = faces[i]
        b = list(f.boundary)
        j = rng.randrange(len(b))
        b[j] = (b[j][0], -b[j][1])
        faces[i] = DiagramFace(f.name, f.cell, f.orientation, tuple(b))
    elif kind == 4 and faces:
        i = rng.randrange(len(faces))
        f = faces[i]
        k = rng.randrange(len(f.boundary))
        faces[i] = DiagramFace(f.name, f.cell, f.orientation,
                               f.boundary[k:] + f.boundary[:k])
    elif kind == 5 and edges:
        i = rng.randrange(len(edges))
        e = edges[i]
        edges[i] = DiagramEdge(e.name, e.head, e.tail, e.image_edge,
                               -e.image_sign)
        faces = [DiagramFace(f.name, f.cell, f.orientation,
                             tuple((ei, -s if ei == i else s)
                                   for ei, s in f.boundary))
                 for f in faces]
    elif kind == 6:
        rng.shuffle(vertices)
        rng.shuffle(faces)
    else:
        i = rng.randrange(len(faces))
        f = faces[i]
        faces[i] = DiagramFace(f.name, f.cell, -f.orientation, f.boundary)
    return SurfaceDiagram(d.name, d.complex_name, tuple(vertices),
                          tuple(edges), tuple(faces))


def _mutants(rng, d, count):
    """``count`` diagrams, each made from d by one to three edits."""
    out = []
    for _ in range(count):
        m = d
        for _ in range(rng.randrange(1, 4)):
            m = _mutate(rng, m)
        out.append(m)
    return out


def torus_grid(n):
    """The n x n grid of squares on the torus over the square complex:
    n^2 vertices, 2n^2 edges (x across, y up) and n^2 faces."""
    def v(i, j):
        return f"v{i % n}_{j % n}"

    def h(i, j):
        return 2 * ((j % n) * n + i % n)

    edges = []
    for j in range(n):
        for i in range(n):
            edges.append(DiagramEdge(f"x{i}_{j}", v(i, j), v(i + 1, j), "x", 1))
            edges.append(DiagramEdge(f"y{i}_{j}", v(i, j), v(i, j + 1), "y", 1))
    faces = tuple(
        DiagramFace(f"f{i}_{j}", "sq", 1,
                    ((h(i, j), 1), (h(i + 1, j) + 1, 1), (h(i, j + 1), -1),
                     (h(i, j) + 1, -1)))
        for j in range(n) for i in range(n))
    vertices = tuple(v(i, j) for j in range(n) for i in range(n))
    return SurfaceDiagram(f"grid{n}", "square", vertices, tuple(edges), faces)


def doubled_grid(n, m):
    """The n x m disk of squares over the square complex glued to its
    mirror image along the boundary circle: a sphere in which each
    boundary vertex folds at every corner, so the first folding pair in
    rotation order is a real choice."""
    def v(i, j, side):
        inner = 0 < i < n and 0 < j < m
        return f"{'w' if side and inner else 'v'}{i}_{j}"

    edges, eid = [], {}

    def add(key, tail, head, on_boundary):
        for side in (0, 1):
            if side and on_boundary:
                eid[key, 1] = eid[key, 0]
                continue
            eid[key, side] = len(edges)
            edges.append(DiagramEdge(f"{key[0]}{key[1]}_{key[2]}{'m' * side}",
                                     v(*tail, side), v(*head, side), key[0], 1))

    for j in range(m + 1):
        for i in range(n):
            add(("x", i, j), (i, j), (i + 1, j), j in (0, m))
    for j in range(m):
        for i in range(n + 1):
            add(("y", i, j), (i, j), (i, j + 1), i in (0, n))
    faces = []
    for side in (0, 1):
        for j in range(m):
            for i in range(n):
                b = ((eid[("x", i, j), side], 1), (eid[("y", i + 1, j), side], 1),
                     (eid[("x", i, j + 1), side], -1), (eid[("y", i, j), side], -1))
                if side:
                    b = tuple((e, -s) for e, s in reversed(b))
                faces.append(DiagramFace(f"f{i}_{j}{'m' * side}", "sq",
                                         1 - 2 * side, b))
    vertices = tuple(dict.fromkeys(v(i, j, side) for side in (0, 1)
                                   for j in range(m + 1) for i in range(n + 1)))
    return SurfaceDiagram(f"double{n}x{m}", "square", vertices, tuple(edges),
                          tuple(faces))


class TestAgainstWalkReference:
    """The one-pass corner cycles against the vertex-by-vertex walk in
    ``oracles``: the same z(v) for every vertex, and the same folding
    witnesses with and without a scope."""

    @staticmethod
    def check(d, cx, scopes, vertices=None):
        """z(v) for ``vertices`` (all by default) and the folding vertices
        with no scope and with each of ``scopes``."""
        assert validate_diagram(d, cx).valid
        ref = reference_vertex_corners(d, cx)
        for v in d.vertices if vertices is None else vertices:
            assert vertex_link_cycle(d, v, cx).corners == \
                tuple((cid, s) for cid, s, _ in ref[v])
        for scope in (None, *scopes):
            assert find_folding_vertices(d, cx, scope) == \
                reference_find_folding_vertices(d, ref, scope)

    def test_pillows_over_sweep_sample(self, sweep6_every97):
        """Every cell's pillow, scoped to a maximal proper sub-LOT when
        there is one; z(v) of the last vertex, whose walk does not start at
        the first dart."""
        checked = 0
        for lot in sweep6_every97:
            cx = build_complex(lot)
            maximal = maximal_sublots(lot)[:1]
            scopes = [derive_subcomplexes(lot, maximal)] if maximal else []
            for cell in cx.cells:
                d = double_cell_sphere(cx, cell.name)
                self.check(d, cx, scopes, d.vertices[-1:])
                checked += 1
        assert checked > 5000

    def test_torus_grids(self, square_complex):
        rng = random.Random(4)
        scopes = [SubcomplexFamily(()),
                  SubcomplexFamily(((frozenset({"x", "y"}), frozenset({"sq"})),))]
        for n in range(1, 9):
            grid = torus_grid(n)
            self.check(grid, square_complex, scopes)
            for mutant in _mutants(rng, grid, 12):
                if validate_diagram(mutant, square_complex).valid:
                    self.check(mutant, square_complex, scopes)

    def test_doubled_grids(self, square_complex):
        rng = random.Random(6)
        scopes = [SubcomplexFamily(())]
        for n, m in ((1, 1), (2, 1), (3, 2), (4, 4)):
            d = doubled_grid(n, m)
            assert validate_diagram(d, square_complex).sphere
            self.check(d, square_complex, scopes)
            for mutant in _mutants(rng, d, 12):
                if validate_diagram(mutant, square_complex).valid:
                    self.check(mutant, square_complex, scopes)

    def test_mutated_pillows(self, prime, prime_cx):
        rng = random.Random(5)
        scopes = [derive_subcomplexes(prime, [frozenset({0, 1})]),
                  derive_subcomplexes(prime, [])]
        valid = 0
        for cell in ("d_0", "d_1"):
            for mutant in _mutants(rng, double_cell_sphere(prime_cx, cell), 100):
                if validate_diagram(mutant, prime_cx).valid:
                    self.check(mutant, prime_cx, scopes)
                    valid += 1
        assert valid > 20

    def test_fan_sphere(self):
        cx, d = fan_sphere()
        self.check(d, cx, [SubcomplexFamily(
            ((frozenset({"q", "t"}), frozenset({"cfan"})),))])


def test_80x80_torus_grid_in_linear_time(square_complex):
    """6,400 vertices.  These four calls take under 1 s on a 2-CPU x86-64
    host with Python 3.11; a scan over every dart per vertex took 63 s."""
    d = torus_grid(80)
    w = canonical_weights(build_link(square_complex))
    start = time.perf_counter()
    rep = validate_diagram(d, square_complex)
    assert rep.valid and rep.genus == 1
    assert find_folding_vertices(d, square_complex) == []
    assert curvature_report(d, square_complex, w).total == 0
    z = vertex_link_cycle(d, d.vertices[-1], square_complex)
    assert sorted(cid for cid, _ in z.corners) == [0, 1, 2, 3]
    assert time.perf_counter() - start < 5


def test_vertex_link_cycles_of_80x80_torus_grid(square_complex):
    """z(v) of all 6,400 vertices in one call, equal to the walk reference."""
    d = torus_grid(80)
    cycles = vertex_link_cycles(d, square_complex)
    ref = reference_vertex_corners(d, square_complex)
    assert list(cycles) == list(d.vertices)
    for v in d.vertices:
        assert cycles[v] == VertexLinkCycle(
            v, tuple((cid, s) for cid, s, _ in ref[v]))


class TestVertexLinks:
    def test_pillow_mirror_cycle(self, pillow, prime_cx):
        for v in pillow.vertices:
            z = vertex_link_cycle(pillow, v, prime_cx)
            assert len(z.corners) == 2
            (c1, d1), (c2, d2) = z.corners
            assert c1 == c2 and d1 == -d2

    def test_torus_covers_cell(self, torus, square_complex):
        z = vertex_link_cycle(torus, "v", square_complex)
        assert sorted(cid for cid, _ in z.corners) == [0, 1, 2, 3]

    def test_corner_count_matches_incidence(self, pillow, prime_cx):
        counts = {v: 0 for v in pillow.vertices}
        for f in pillow.faces:
            for ei, s in f.boundary:
                e = pillow.edges[ei]
                counts[e.head if s > 0 else e.tail] += 1
        for v in pillow.vertices:
            assert len(vertex_link_cycle(pillow, v, prime_cx).corners) == counts[v]

    def test_unknown_vertex(self, pillow, prime_cx):
        from lotva import StructureError
        with pytest.raises(StructureError):
            vertex_link_cycle(pillow, "nope", prime_cx)


class TestFolding:
    def test_pillow_all_folding(self, pillow, prime_cx):
        found = find_folding_vertices(pillow, prime_cx)
        assert [v for v, _ in found] == list(pillow.vertices)
        assert all(pair == ("front", "back") for _, pair in found)
        assert not is_vertex_reduced(pillow, prime_cx)

    def test_torus_reduced(self, torus, square_complex):
        assert find_folding_vertices(torus, square_complex) == []
        assert is_vertex_reduced(torus, square_complex)

    def test_scope_excludes_k_cells(self, prime, prime_cx):
        fam = derive_subcomplexes(prime, [frozenset({0, 1})])
        pillow = double_cell_sphere(prime_cx, "d_0")
        assert find_folding_vertices(pillow, prime_cx, scope=fam) == []
        empty = derive_subcomplexes(prime, [])
        assert find_folding_vertices(pillow, prime_cx, scope=empty)

    def test_corpus_spheres_over_passing_complex_fold(self, prime, prime_cx):
        """The prime complex passes the weight test, so the corpus spheres
        over it must all have folding vertices."""
        from lotva import build_link, canonical_weights, weight_test
        g = build_link(prime_cx)
        assert weight_test(prime_cx, g, canonical_weights(g)).ok
        for cell in ("d_0", "d_1"):
            sphere = double_cell_sphere(prime_cx, cell)
            assert find_folding_vertices(sphere, prime_cx)


def fan_sphere():
    """Sphere with an interior vertex w surrounded by three fan faces and a
    single outer face: V=4, E=6, F=4."""
    cx = parse_complex(
        "complex fan\nedge q\nedge t\n"
        "cell cfan = q,t,-q\ncell couter = -t,-t,-t\n")
    ring = ["p1", "p2", "p3"]
    edges = []
    for i in range(3):
        edges.append(DiagramEdge(f"s{i + 1}", "w", ring[i], "q", 1))
    for i in range(3):
        edges.append(DiagramEdge(f"r{i + 1}", ring[i], ring[(i + 1) % 3], "t", 1))
    faces = []
    for i in range(3):
        faces.append(DiagramFace(
            f"fan{i + 1}", "cfan", 1,
            ((i, 1), (3 + i, 1), ((i + 1) % 3, -1))))
    faces.append(DiagramFace("outer", "couter", 1,
                             ((5, -1), (4, -1), (3, -1))))
    d = SurfaceDiagram("fan", "fan", ("w", "p1", "p2", "p3"),
                       tuple(edges), tuple(faces))
    return cx, d


class TestKThin:
    def test_pillow_over_non_k_cell(self, prime, prime_cx):
        fam = derive_subcomplexes(prime, [])
        pillow = double_cell_sphere(prime_cx, "d_0")
        assert k_thin_check(pillow, prime_cx, fam) == (True, None)

    def test_pillow_over_k_cell(self, prime, prime_cx):
        fam = derive_subcomplexes(prime, [frozenset({0, 1})])
        pillow = double_cell_sphere(prime_cx, "d_0")
        ok, v = k_thin_check(pillow, prime_cx, fam)
        assert not ok and v == "v0"

    def test_mixed_sphere_one_k_only_vertex(self):
        from lotva import SubcomplexFamily
        cx, d = fan_sphere()
        rep = validate_diagram(d, cx)
        assert rep.valid and rep.sphere
        fam = SubcomplexFamily(((frozenset({"q", "t"}), frozenset({"cfan"})),))
        ok, v = k_thin_check(d, cx, fam)
        assert not ok and v == "w"
        # every other vertex touches the outer face
        empty = SubcomplexFamily(())
        assert k_thin_check(d, cx, empty) == (True, None)


class TestCurvature:
    def test_pillow_canonical(self, pillow, prime_cx):
        g = build_link(prime_cx)
        rep = curvature_report(pillow, prime_cx, canonical_weights(g))
        assert all(k == 0 for k in rep.face_curvature.values())
        assert sum(rep.vertex_curvature.values()) == 4
        assert rep.total == 4 == 2 * rep.chi

    def test_pillow_zero_weights(self, pillow, prime_cx):
        g = build_link(prime_cx)
        w = WeightAssignment({c.id: Fraction(0) for c in g.corners})
        rep = curvature_report(pillow, prime_cx, w)
        assert all(k == -2 for k in rep.face_curvature.values())
        assert all(k == 2 for k in rep.vertex_curvature.values())
        assert rep.total == 4

    def test_torus_cancellation(self, torus, square_complex):
        g = build_link(square_complex)
        rng = random.Random(17)
        for _ in range(20):
            w = random_weights(rng, g)
            rep = curvature_report(torus, square_complex, w)
            assert rep.total == 0 == 2 * rep.chi

    def test_missing_weight_rejected(self, pillow, prime_cx):
        g = build_link(prime_cx)
        w = WeightAssignment({c.id: Fraction(1) for c in g.corners[1:]})
        with pytest.raises(StructureError, match="weights missing"):
            curvature_report(pillow, prime_cx, w)

    @pytest.mark.parametrize("bad", [0.5, Fraction(-1, 2)],
                             ids=["float", "negative"])
    def test_non_rational_or_negative_rejected(self, pillow, prime_cx, bad):
        g = build_link(prime_cx)
        w = WeightAssignment({c.id: bad for c in g.corners})
        with pytest.raises(PreconditionError, match="nonnegative rationals"):
            curvature_report(pillow, prime_cx, w)

    def test_random_weights_always_2chi(self, pillow, prime_cx):
        g = build_link(prime_cx)
        rng = random.Random(18)
        for _ in range(30):
            rep = curvature_report(pillow, prime_cx, random_weights(rng, g))
            assert rep.total == 2 * rep.chi


class TestSinkSource:
    def test_pillow(self, pillow, prime_cx):
        sink, source, h = find_sink_source(pillow, prime_cx)
        assert sink == "v2" and source == "v0"
        assert h == {"v0": 0, "v1": 1, "v2": 2, "v3": 1}

    def test_literal_predicates(self, prime_cx):
        for cell in ("d_0", "d_1"):
            pillow = double_cell_sphere(prime_cx, cell)
            sink, source, _ = find_sink_source(pillow, prime_cx)
            for e in pillow.edges:
                u, v = (e.tail, e.head) if e.image_sign > 0 else (e.head, e.tail)
                assert u != sink and v != source

    def test_exponent_sum_hypothesis(self, prime):
        slot = sign_change(prime, {"b"})
        cx = build_complex(slot)
        pillow = double_cell_sphere(cx, "d_0")
        with pytest.raises(PreconditionError):
            find_sink_source(pillow, cx)

    def test_disconnected(self, pillow, prime_cx):
        two = _beside(pillow, _renamed(pillow, "_2"))
        rep = validate_diagram(two, prime_cx)
        assert rep.valid and rep.connected is False and rep.genus is None
        with pytest.raises(PreconditionError, match="^diagram is not connected$"):
            find_sink_source(two, prime_cx)

    def test_torus_degenerate(self, torus, square_complex):
        with pytest.raises(DegenerateDiagramError) as exc:
            find_sink_source(torus, square_complex)
        assert exc.value.code == "degenerate-single-vertex"


class TestKeptGluing:
    """A diagram keeps its gluing for the complex object it was glued on."""

    @pytest.fixture
    def glued(self, monkeypatch):
        """The complexes ``_glue`` is called with, in order."""
        import lotva.diagrams as diagrams_module
        calls = []
        real = diagrams_module._glue
        monkeypatch.setattr(diagrams_module, "_glue",
                            lambda d, cx: calls.append(cx) or real(d, cx))
        return calls

    def test_one_gluing_per_complex(self, prime, glued):
        """Curvature and sink/source on one pillow and complex glue once;
        an equal but distinct complex is glued again, with the same
        results, and then kept in turn."""
        cx, twin = build_complex(prime), build_complex(prime)
        d = double_cell_sphere(cx, "d_0")
        w = canonical_weights(build_link(cx))
        first = (curvature_report(d, cx, w), find_sink_source(d, cx))
        assert glued == [cx] and glued[0] is cx
        assert (curvature_report(d, twin, w), find_sink_source(d, twin)) == first
        assert len(glued) == 2 and glued[1] is twin
        assert validate_diagram(d, twin).valid
        assert vertex_link_cycles(d, twin) == vertex_link_cycles(d, cx)
        assert len(glued) == 3 and glued[2] is cx

    def test_invalid_diagram_raises_every_call(self, pillow, prime_cx, glued):
        d = _with_fault(pillow, "unknown cell")
        w = canonical_weights(build_link(prime_cx))
        for call in (lambda: curvature_report(d, prime_cx, w),
                     lambda: find_sink_source(d, prime_cx),
                     lambda: find_folding_vertices(d, prime_cx)):
            with pytest.raises(PreconditionError, match="^invalid diagram: face "
                               "'front' maps to unknown cell 'd_9'$"):
                call()
        assert not validate_diagram(d, prime_cx).valid
        assert len(glued) == 1


class TestDoubleSphere:
    def test_q4(self, prime_cx):
        d = double_cell_sphere(prime_cx, "d_0")
        rep = validate_diagram(d, prime_cx)
        assert rep.valid and rep.chi == 2
        assert len(d.vertices) == 4 and len(d.edges) == 4 and len(d.faces) == 2

    def test_q1(self):
        cx = parse_complex("complex c\nedge x\ncell mono = x\n")
        d = double_cell_sphere(cx, "mono")
        rep = validate_diagram(d, cx)
        assert rep.valid and rep.chi == 2
        assert len(d.vertices) == 1 and len(d.edges) == 1 and len(d.faces) == 2

    def test_all_vertices_folding(self, prime_cx):
        d = double_cell_sphere(prime_cx, "d_1")
        found = find_folding_vertices(d, prime_cx)
        assert len(found) == len(d.vertices)


class TestDiagramFiles:
    def test_round_trip(self, pillow, prime_cx):
        d2 = parse_diagram(format_diagram(pillow))
        assert d2.vertices == pillow.vertices
        assert d2.edges == pillow.edges
        assert d2.faces == pillow.faces
        assert validate_diagram(d2, prime_cx).valid

    def test_torus_file(self, torus, square_complex):
        assert validate_diagram(torus, square_complex).valid

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_diagram("diagram d over c\nface f cell q orient + boundary e\n")
        # every vertex, edge and face name is an identifier, wherever it is
        # first named, so that format_diagram's output parses again
        head = "diagram d over c\nvertex v\n"
        for line, name in [("edge e 1a v maps x +", "1a"),
                           ("edge e v 1a maps x +", "1a"),
                           ("edge f,g v v maps x +", "f,g"),
                           ("edge 1e v v maps x +", "1e")]:
            with pytest.raises(ParseError,
                               match=f"^line 3: bad identifier '{name}'$"):
                parse_diagram(head + line + "\n")
        with pytest.raises(ParseError, match="^line 4: bad identifier '1f'$"):
            parse_diagram(head + "edge e v v maps x +\n"
                          "face 1f cell q orient + boundary e\n")

    def test_duplicate_face_name(self, pillow):
        text = format_diagram(pillow).replace("face back", "face front")
        with pytest.raises(ParseError, match="line 11: duplicate face 'front'"):
            parse_diagram(text)
