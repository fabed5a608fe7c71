import random

import pytest

from lotva import (BoundaryWord, ParseError, PreconditionError, StructureError,
                   build_complex, derive_subcomplexes, exponent_sum,
                   format_complex, parse_complex, parse_lot, sign_change,
                   SubcomplexFamily)
from lotva.complexes import validate_family
from lotva.sweep import random_lot

from oracles import is_full


def letters(cx, name):
    return cx.cell(name).boundary.letters


class TestBuildComplex:
    def test_prime_cells(self, prime):
        cx = build_complex(prime)
        assert cx.edge_names == ("a", "b", "c")
        assert letters(cx, "d_0") == (("a", 1), ("c", 1), ("b", -1), ("c", -1))
        assert letters(cx, "d_1") == (("b", 1), ("a", 1), ("c", -1), ("a", -1))

    def test_single_edge_self_label_cell(self):
        lot = parse_lot("vertex a\nvertex b\nedge a b a\n")
        cx = build_complex(lot)
        assert letters(cx, "d_0") == (("a", 1), ("a", 1), ("b", -1), ("a", -1))

    def test_signed_cell(self, prime):
        slot = sign_change(prime, {"b"})
        cx = build_complex(slot)
        assert letters(cx, "d_0") == (("a", 1), ("c", 1), ("b", 1), ("c", -1))
        assert exponent_sum(cx.cell("d_0").boundary) == 2

    def test_all_positive_exponent_sums_vanish(self):
        rng = random.Random(2)
        for _ in range(30):
            lot = random_lot(rng, rng.randrange(1, 8), compressed=False)
            cx = build_complex(lot)
            assert all(exponent_sum(c.boundary) == 0 for c in cx.cells)

    def test_sublot_sign_change_keeps_zero_sums(self, fig1):
        """Negating every vertex of a sub-LOT keeps the sub-LOT's own cells
        at exponent sum 0 (both cell endpoints flip together)."""
        from lotva import sublot_vertices
        part = frozenset({1, 2, 3, 4})
        slot = sign_change(fig1, sublot_vertices(fig1, part))
        cx = build_complex(slot)
        for i in sorted(part):
            assert exponent_sum(cx.cell(f"d_{i}").boundary) == 0
        # the two boundary-crossing cells pick up nonzero sums
        assert exponent_sum(cx.cell("d_0").boundary) != 0
        assert exponent_sum(cx.cell("d_5").boundary) != 0

    def test_sign_change_same_sizes(self, fig1):
        rng = random.Random(4)
        for _ in range(20):
            X = {v for v in fig1.vertices if rng.random() < 0.5}
            cx0 = build_complex(fig1)
            cx1 = build_complex(sign_change(fig1, X))
            assert cx0.edge_names == cx1.edge_names
            assert len(cx0.cells) == len(cx1.cells)
            assert all(len(a.boundary) == len(b.boundary)
                       for a, b in zip(cx0.cells, cx1.cells))


class TestExponentSum:
    def test_lot_cell(self):
        assert exponent_sum(BoundaryWord((("a", 1), ("c", 1), ("b", -1),
                                          ("c", -1)))) == 0

    def test_signed(self):
        assert exponent_sum(BoundaryWord((("a", 1), ("c", 1), ("b", 1),
                                          ("c", -1)))) == 2

    def test_single_letter(self):
        assert exponent_sum(BoundaryWord((("a", 1),))) == 1


class TestSubcomplexes:
    def test_fig1_family(self, fig1):
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        edges, cells = fam.parts[0]
        assert edges == frozenset({"a", "b", "c", "d", "e"})
        assert cells == frozenset({"d_1", "d_2", "d_3", "d_4"})

    def test_empty_family(self, fig1):
        fam = derive_subcomplexes(fig1, [])
        assert fam.parts == ()

    def test_two_disjoint_parts(self, fig3):
        fam = derive_subcomplexes(fig3, [frozenset({0, 1}), frozenset({4, 5})])
        assert len(fam.parts) == 2
        assert fam.parts[0][0] == frozenset({"x1", "x2", "x3"})
        assert fam.parts[1][0] == frozenset({"y1", "y2", "y3"})

    def test_overlap_rejected(self, fig1):
        with pytest.raises(PreconditionError):
            derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4}),
                                       frozenset({2, 3, 4})])

    def test_family_parts_overlap(self):
        part = (frozenset({"a"}), frozenset())
        with pytest.raises(StructureError, match="^family parts overlap$"):
            SubcomplexFamily((part, part))

    def test_family_with_unknown_edges(self, fig1):
        fam = SubcomplexFamily(((frozenset({"a"}), frozenset()),
                                (frozenset({"z"}), frozenset())))
        with pytest.raises(StructureError, match="^part 1 has unknown edges$"):
            validate_family(build_complex(fig1), fam)

    def test_unknown_edge_ids_rejected(self, fig1):
        for bad in (99, -1):
            with pytest.raises(StructureError, match=f"unknown edge id {bad}"):
                derive_subcomplexes(fig1, [frozenset({bad})])

    def test_fig1_fullness(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        assert is_full(cx, fam) == (True,)

    def test_missing_cell_not_full(self, fig1):
        cx = build_complex(fig1)
        fam = SubcomplexFamily(((frozenset({"a", "b", "c", "d", "e"}),
                                 frozenset({"d_1", "d_2", "d_3"})),))
        assert is_full(cx, fam) == (False,)

    def test_empty_part_full(self, fig1):
        cx = build_complex(fig1)
        fam = SubcomplexFamily(((frozenset(), frozenset()),))
        assert is_full(cx, fam) == (True,)

    def test_sublot_parts_always_full(self):
        from lotva import enumerate_sublots
        rng = random.Random(6)
        checked = 0
        for _ in range(40):
            lot = random_lot(rng, rng.randrange(2, 8))
            cx = build_complex(lot)
            all_subs, _ = enumerate_sublots(lot)
            for s in all_subs:
                fam = derive_subcomplexes(lot, [s])
                assert is_full(cx, fam) == (True,)
                checked += 1
        assert checked > 30


class TestComplexFiles:
    def test_parse(self, square_complex):
        assert square_complex.edge_names == ("x", "y")
        assert square_complex.cell("sq").boundary.letters == \
            (("x", 1), ("y", 1), ("x", -1), ("y", -1))

    def test_round_trip(self, fig1):
        cx = build_complex(fig1)
        assert parse_complex(format_complex(cx)) == cx

    def test_unknown_edge(self):
        with pytest.raises(ParseError):
            parse_complex("complex c\nedge x\ncell d = x,-y\n")

    def test_bad_cell_line(self):
        with pytest.raises(ParseError):
            parse_complex("complex c\nedge x\ncell d x\n")


class TestCyclicWords:
    def test_inverse(self):
        a = BoundaryWord((("x", 1), ("y", -1), ("z", 1)))
        assert a.inverse().letters == (("z", -1), ("y", 1), ("x", -1))

    def test_empty_rejected(self):
        with pytest.raises(StructureError):
            BoundaryWord(())
