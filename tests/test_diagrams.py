import random
from fractions import Fraction

import pytest

from lotva import (DegenerateDiagramError, DiagramEdge, DiagramFace,
                   PreconditionError, StructureError, SurfaceDiagram,
                   WeightAssignment, build_complex, build_link,
                   canonical_weights, curvature_report, derive_subcomplexes,
                   double_cell_sphere, find_folding_vertices, find_sink_source,
                   format_diagram, is_vertex_reduced, k_thin_check,
                   parse_complex, parse_diagram, sign_change, validate_diagram,
                   vertex_link_cycle)

from oracles import random_weights


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


def _mutate(rng, d):
    kind = rng.randrange(4)
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
    else:
        i = rng.randrange(len(faces))
        f = faces[i]
        faces[i] = DiagramFace(f.name, f.cell, -f.orientation, f.boundary)
    return SurfaceDiagram(d.name, d.complex_name, d.vertices, tuple(edges),
                          tuple(faces))


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

    def test_torus_degenerate(self, torus, square_complex):
        with pytest.raises(DegenerateDiagramError) as exc:
            find_sink_source(torus, square_complex)
        assert exc.value.code == "degenerate-single-vertex"


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
        from lotva import ParseError
        with pytest.raises(ParseError):
            parse_diagram("diagram d over c\nface f cell q orient + boundary e\n")
