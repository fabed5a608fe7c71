"""No module-level cache keeps library values alive after their last use,
and what a value keeps on itself takes no part in its identity: a Lot's
closures, a complex's indexes and corner pass, a family's validation and a
diagram's gluing."""

import gc
import weakref

import pytest

from lotva import (BoundaryWord, Cell, Lot, ParseError, StructureError,
                   SubcomplexFamily, TwoComplex, build_complex, build_link,
                   build_relative_link, canonical_weights, certify_va,
                   curvature_report, derive_subcomplexes, double_cell_sphere,
                   find_sink_source, parse_complex, parse_lot,
                   relative_weight_test, signed_relative_forest_check,
                   sublot_closure, verify_certificate)


def test_lot_and_complex_are_collected(fixture_dir):
    lot = parse_lot((fixture_dir / "fig1.lot").read_text())
    cert = certify_va(lot)
    assert verify_certificate(lot, cert).accepted
    sublot_closure(lot, 0)
    cx = build_complex(lot)
    pillow = double_cell_sphere(cx, "d_0")
    curvature_report(pillow, cx, canonical_weights(build_link(cx)))
    find_sink_source(pillow, cx)
    fam = derive_subcomplexes(lot, [frozenset({1, 2, 3, 4})])
    build_relative_link(cx, fam)
    for pol in (1, -1):
        signed_relative_forest_check(cx, fam, pol)
    assert lot._closures is not None  # the lot keeps its closure pass
    assert cx._int_corners is not None  # the complex keeps its corner pass
    assert cx._cell_index["d_0"] == 0  # and its index
    assert pillow._glued[0] is cx  # the pillow keeps its gluing on cx
    assert fam._valid_on is cx  # and the family its validation

    lot_ref, cx_ref = weakref.ref(lot), weakref.ref(cx)
    del lot, cert, cx, pillow, fam
    gc.collect()
    assert lot_ref() is None
    assert cx_ref() is None


def test_kept_structure_is_not_identity(fixture_dir):
    """A Lot whose closures were read and a TwoComplex whose indexes and
    corner pass were used equal, hash and print as fresh copies of
    themselves."""
    lot = parse_lot((fixture_dir / "fig1.lot").read_text())
    fresh = Lot(lot.vertices, lot.edges, name=lot.name)
    sublot_closure(lot, 3)
    assert lot._closures is not None and fresh._closures is None
    assert lot == fresh and hash(lot) == hash(fresh) and repr(lot) == repr(fresh)
    assert "_closures" not in repr(lot)

    cx = build_complex(lot)
    build_link(cx)
    assert cx.cell("d_2") is cx.cells[2]
    again = TwoComplex(cx.edge_names, cx.cells, name=cx.name)
    assert cx._int_corners is not None and again._int_corners is None
    assert cx == again and hash(cx) == hash(again) and repr(cx) == repr(again)
    assert not any(f in repr(cx) for f in ("_edge_index", "_cell_index", "_int_corners"))

    fam = derive_subcomplexes(lot, [frozenset({1, 2, 3, 4})])
    unchecked = SubcomplexFamily(fam.parts)
    build_relative_link(cx, fam)
    assert fam._valid_on is cx and unchecked._valid_on is None
    assert fam == unchecked and hash(fam) == hash(unchecked)
    assert repr(fam) == repr(unchecked) and "_valid_on" not in repr(fam)

    pillow, unglued = double_cell_sphere(cx, "d_0"), double_cell_sphere(cx, "d_0")
    find_sink_source(pillow, cx)
    assert pillow._glued[0] is cx and unglued._glued is None
    assert pillow == unglued and hash(pillow) == hash(unglued)
    assert repr(pillow) == repr(unglued) and "_glued" not in repr(pillow)


class _CountingIndex(dict):
    """A cell index that counts its ``get`` calls, which only the family
    check makes: one per part cell."""
    gets = 0

    def get(self, *args):
        _CountingIndex.gets += 1
        return super().get(*args)


def test_family_validated_once_per_complex(fig1, monkeypatch):
    """The relative link, the relative weight test and both signed forest
    checks on one family and one complex check the family once; an equal
    but distinct complex checks it again, as does the first complex once
    another has been checked.  A family checked on one complex is still
    refused by a complex that lacks its edges."""
    monkeypatch.setattr(_CountingIndex, "gets", 0)
    fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
    cxs = [build_complex(fig1) for _ in range(2)]
    for cx in cxs:
        object.__setattr__(cx, "_cell_index", _CountingIndex(cx._cell_index))
    for cx in (cxs[0], cxs[0], cxs[1], cxs[0]):
        g = build_relative_link(cx, fam)
        relative_weight_test(cx, fam, canonical_weights(g), g)
        for pol in (1, -1):
            signed_relative_forest_check(cx, fam, pol)
    assert _CountingIndex.gets == 3 * 4  # three checks of the four part cells
    other = parse_complex("complex c\nedge a\ncell d_1 = a\n")
    for call in (lambda: build_relative_link(other, fam),
                 lambda: signed_relative_forest_check(other, fam, 1)):
        with pytest.raises(StructureError, match="^part 0 has unknown edges$"):
            call()
    assert fam._valid_on is cxs[0]


def _cell(name, *letters):
    return Cell(name, BoundaryWord(tuple((x, 1) for x in letters)))


@pytest.mark.parametrize("edges, cells, message", [
    (("x", "y", "x"), (), "duplicate edge names"),
    (("x", "y"), (_cell("c", "x"), _cell("c", "y")), "duplicate cell names"),
    (("x",), (_cell("c", "x"), _cell("d", "x", "z")), "cell 'd' uses unknown edge 'z'"),
])
def test_complex_errors(edges, cells, message):
    """The complex's checks raise the messages they raised before it kept
    its indexes, and a complex file reports them as parse errors."""
    with pytest.raises(StructureError, match=f"^{message}$"):
        TwoComplex(edges, cells)
    text = "".join(f"edge {x}\n" for x in edges) + "".join(
        f"cell {c.name} = {','.join(x for x, _ in c.boundary.letters)}\n" for c in cells)
    with pytest.raises(ParseError, match=message):
        parse_complex(text)


def test_cell_miss(square_complex):
    assert square_complex.cell(square_complex.cells[0].name) is square_complex.cells[0]
    for name in ("nope", "", 3):
        with pytest.raises(StructureError, match=f"^no cell named {name!r}$"):
            square_complex.cell(name)
