"""No module-level cache keeps library values alive after their last use."""

import gc
import weakref

from lotva import (build_complex, build_link, build_relative_link,
                   canonical_weights, certify_va, curvature_report,
                   derive_subcomplexes, double_cell_sphere, parse_lot,
                   signed_relative_forest_check, verify_certificate)


def test_lot_and_complex_are_collected(fixture_dir):
    lot = parse_lot((fixture_dir / "fig1.lot").read_text())
    cert = certify_va(lot)
    assert verify_certificate(lot, cert).accepted
    cx = build_complex(lot)
    pillow = double_cell_sphere(cx, "d_0")
    curvature_report(pillow, cx, canonical_weights(build_link(cx)))
    fam = derive_subcomplexes(lot, [frozenset({1, 2, 3, 4})])
    build_relative_link(cx, fam)
    for pol in (1, -1):
        signed_relative_forest_check(cx, fam, pol)
    assert cx._int_corners is not None  # the complex keeps its corner pass

    lot_ref, cx_ref = weakref.ref(lot), weakref.ref(cx)
    del lot, cert, cx, pillow
    gc.collect()
    assert lot_ref() is None
    assert cx_ref() is None
