"""The int-indexed link code against the routes through a built lk(L) in
``oracles``: both signed relative forest checks, curvature and folding
vertices, and the weight searches on links rebuilt by hand."""

import random

import pytest

from lotva import (DeltaBlock, LinkGraph, WeightAssignment, build_complex,
                   build_link, build_relative_link, canonical_weights,
                   curvature_report, derive_subcomplexes, double_cell_sphere,
                   find_folding_vertices, find_homred_violation,
                   min_weight_reduced_cycle, relative_weight_test,
                   signed_relative_forest_check, weight_test)
from lotva.sweep import random_lot

from oracles import (closure_family, link_signed_relative_forest_check,
                     random_weights, reference_curvature,
                     reference_find_folding_vertices, reference_vertex_corners)


@pytest.fixture(scope="module")
def cases(sweep6_every97):
    """(complex, greedy closure family) of every LOT of the sweep sample
    and of 150 random LOTs with 8-24 edges."""
    rng = random.Random(97)
    lots = list(sweep6_every97)
    lots += [random_lot(rng, rng.randrange(8, 25)) for _ in range(150)]
    return [(build_complex(lot), derive_subcomplexes(lot, closure_family(lot)))
            for lot in lots]


def test_signed_forest_checks_match_link_route(cases):
    """Same verdict and the same witness cycle, for both polarities."""
    verdicts = []
    for cx, fam in cases:
        for pol in (1, -1):
            got = signed_relative_forest_check(cx, fam, pol)
            assert got == link_signed_relative_forest_check(cx, fam, pol)
            verdicts.append(got[0])
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_curvature_and_folding_match_link_route(cases):
    """Pillows over the first and the last cell: curvature under canonical
    and random weights, and folding vertices with and without the family
    as scope, against corner ids read from lk(L)."""
    rng = random.Random(98)
    for cx, fam in cases:
        g = build_link(cx)
        for cell in {c.name for c in cx.cells[:1] + cx.cells[-1:]}:
            d = double_cell_sphere(cx, cell)
            ref = reference_vertex_corners(d, cx)
            for w in (canonical_weights(g), random_weights(rng, g)):
                rep = curvature_report(d, cx, w)
                assert (rep.face_curvature, rep.vertex_curvature) == \
                    reference_curvature(d, ref, w)
            for scope in (None, fam):
                assert find_folding_vertices(d, cx, scope) == \
                    reference_find_folding_vertices(d, ref, scope)


def _relabeled(rng, g: LinkGraph, w: WeightAssignment):
    """g with corner i renamed 3 * i + 7 and its nodes shuffled, so its
    ids are not positions and its ends are derived afresh; w to match."""
    new = {c.id: 3 * i + 7 for i, c in enumerate(g.corners)}
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    blocks = None if g.delta_blocks is None else tuple(
        DeltaBlock(b.nodes, frozenset(new[i] for i in b.corner_ids))
        for b in g.delta_blocks)
    corners = tuple(c._replace(id=new[c.id]) for c in g.corners)
    return (LinkGraph(tuple(nodes), corners, blocks),
            WeightAssignment({new[i]: x for i, x in w.weights.items()}))


def _results(cx, fam, h: LinkGraph, w: WeightAssignment):
    """The (relative) weight test under canonical weights, then the
    minimum reduced cycle (absolute link) or the first homology reduced
    violation (relative link) under w; witness corners by position."""
    pos = {c.id: i for i, c in enumerate(h.corners)}

    def at(x):
        return tuple((pos[cid], s) for cid, s in x) if isinstance(x, tuple) else x

    if h.delta_blocks is None:
        verdict = weight_test(cx, h, canonical_weights(h))
        found = min_weight_reduced_cycle(h, w)
    else:
        verdict = relative_weight_test(cx, fam, canonical_weights(h), h)
        found = find_homred_violation(h, w)
    return (verdict.ok, verdict.violation and tuple(map(at, verdict.violation)),
            found and tuple(map(at, found)))


def test_rebuilt_links_match_built_links(cases):
    """A link rebuilt from its own parts derives the same int ends; it and
    a copy whose corner ids are not positions give the built link's
    results."""
    rng = random.Random(99)
    outcomes = set()
    for cx, fam in cases:
        for g in (build_link(cx), build_relative_link(cx, fam)):
            w = random_weights(rng, g)
            same = LinkGraph(g.nodes, g.corners, g.delta_blocks)
            assert same.ends == g.ends
            expect = _results(cx, fam, g, w)
            assert _results(cx, fam, same, w) == expect
            assert _results(cx, fam, *_relabeled(rng, g, w)) == expect
            outcomes.add((g.delta_blocks is None, expect[0], expect[2] is None))
    # passing and failing tests, found and missing cycles, on both kinds
    assert len({(kind, ok) for kind, ok, _ in outcomes}) == 4
    assert len({(kind, none) for kind, _, none in outcomes}) == 4
