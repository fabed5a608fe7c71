"""The int-indexed link code against the routes through a built lk(L) in
``oracles``: both signed relative forest checks, curvature and folding
vertices, and the weight searches on links rebuilt by hand."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lotva import (LinkGraph, PreconditionError, WeightAssignment,
                   build_complex, build_link, build_relative_link,
                   canonical_weights, curvature_report, derive_subcomplexes,
                   double_cell_sphere, find_folding_vertices,
                   find_homred_violation, min_weight_reduced_cycle,
                   parse_weights, relative_weight_test,
                   signed_relative_forest_check, weight_test)
from lotva.sweep import random_lot

from oracles import (closure_family, link_signed_relative_forest_check,
                     random_weights, reference_curvature,
                     reference_find_folding_vertices,
                     reference_find_homred_violation, reference_vertex_corners,
                     with_cell_weights)


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
    ids are not positions and its ends are derived afresh; w to match.
    Its corners keep their order, so it is in the builder's layout."""
    new = {c.id: 3 * i + 7 for i, c in enumerate(g.corners)}
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    corners = tuple(c._replace(id=new[c.id]) for c in g.corners)
    return (LinkGraph(tuple(nodes), corners, g.delta_blocks),
            WeightAssignment({new[i]: x for i, x in w.weights.items()}))


def _held(h: LinkGraph) -> list:
    """The blocks h holds, with their node orders as edge-ends."""
    return [(bi, tuple(map(h.nodes.__getitem__, order)), start, end)
            for bi, order, start, end in h._orders]


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
    a copy whose corner ids are not positions and whose nodes are
    shuffled hold every Delta-block of the built link, in the same node
    order, and give its results under random cell weights."""
    rng = random.Random(99)
    outcomes = set()
    for cx, fam in cases:
        for g in (build_link(cx), build_relative_link(cx, fam)):
            w = random_weights(rng, g)
            same = LinkGraph(g.nodes, g.corners, g.delta_blocks)
            assert same.ends == g.ends
            expect = _results(cx, fam, g, w)
            for h, hw in ((same, w), _relabeled(rng, g, w)):
                assert _held(h) == _held(g)
                assert _results(cx, fam, h, hw) == expect
            outcomes.add((g.delta_blocks is None, expect[0], expect[2] is None))
    # passing and failing tests, found and missing cycles, on both kinds
    assert len({(kind, ok) for kind, ok, _ in outcomes}) == 4
    assert len({(kind, none) for kind, _, none in outcomes}) == 4


def _reversed_block(g: LinkGraph, bi: int) -> LinkGraph:
    """g with the Delta corners of block bi listed in reverse order, ids
    kept: the same lk(L, K), but not in the builder's layout."""
    ids = {c.id for c in g.corners if c.provenance == ("delta", bi)}
    back = iter([c for c in g.corners if c.id in ids][::-1])
    return LinkGraph(g.nodes, tuple(next(back) if c.id in ids else c
                                    for c in g.corners), g.delta_blocks)


def _off_prescribed(rng, g: LinkGraph, w: WeightAssignment):
    """w with one Delta corner of g given another weight; that corner."""
    weights = dict(w.weights)
    cid = rng.choice([c.id for c in g.corners if c.is_delta])
    weights[cid] = rng.choice([x for x in (0, Fraction(1, 2), 1, 2)
                               if x != weights[cid]])
    return WeightAssignment(weights), cid


def test_block_search_matches_reference(cases):
    """Delta-blocks searched as blocks give the corner-by-corner
    reference's cycle, darts and weight: under canonical weights on the
    built links and on their relabeled copies, which hold their blocks,
    and under random cell weights on the built links.  Copies with the
    largest block's Delta corners reversed are not in the builder's
    layout, and a Delta corner off its prescribed weight is no relative
    weighting: both relative functions refuse them."""
    rng = random.Random(103)
    seen = Counter()
    for cx, fam in cases:
        g = build_relative_link(cx, fam)
        for h in (g, _relabeled(rng, g, canonical_weights(g))[0]):
            w = canonical_weights(h)
            assert _held(h) == _held(g)
            ref = reference_find_homred_violation(h, w)
            verdict = relative_weight_test(cx, fam, w, h)
            if verdict.ok or verdict.violation[0] == "cycle":
                assert (None if verdict.ok else verdict.violation[1:]) == ref
            else:
                assert find_homred_violation(h, w) == ref
            seen[verdict.ok or verdict.violation[0], h is g] += 1
        w = random_weights(rng, g)
        found = find_homred_violation(g, w)
        assert found == reference_find_homred_violation(g, w)
        seen["random cells", found is None] += 1
        sizes = [len(b.nodes) for b in g.delta_blocks]
        if sizes:
            w, cid = _off_prescribed(rng, g, canonical_weights(g))
            with pytest.raises(PreconditionError,
                               match=f"delta corner {cid} must have weight"):
                find_homred_violation(g, w)
            seen["refused", "weight"] += 1
        if max(sizes, default=0) > 2:
            h = _reversed_block(g, sizes.index(max(sizes)))
            assert h._orders is None
            w = canonical_weights(h)
            for call in (lambda: find_homred_violation(h, w),
                         lambda: relative_weight_test(cx, fam, w, h)):
                with pytest.raises(PreconditionError, match="not laid out"):
                    call()
            seen["refused", "layout"] += 1
    # passes and cycle violations on built and relabeled links, both
    # outcomes under random cell weights, and both refusals
    assert all(seen[kind, built] for kind in (True, "cycle")
               for built in (False, True))
    assert all(seen["random cells", none] for none in (False, True))
    assert seen["refused", "weight"] and seen["refused", "layout"]


def test_filled_view_keeps_blocks_whole(fig1):
    """A built relative link whose Delta view was filled, by reading
    ``corners`` or through ``parse_weights``, still holds every block and
    gives a fresh link's verdict and first homology reduced violation under
    canonical weights: on fig1 with K = {1, 2, 3, 4} and on random
    16-24-edge LOTs with the greedy closure family."""
    lots = [(fig1, [frozenset({1, 2, 3, 4})])]
    for s in (0, 6, 7, 9, 11):  # seeds whose closure family is not empty
        lot = random_lot(random.Random(s), 16 + s % 9)
        lots.append((lot, closure_family(lot)))
    outcomes = set()
    for lot, parts in lots:
        cx = build_complex(lot)
        fam = derive_subcomplexes(lot, parts)
        fresh = build_relative_link(cx, fam)
        w = canonical_weights(fresh)
        expect = (relative_weight_test(cx, fam, w, fresh),
                  find_homred_violation(fresh, w))
        assert len(fresh._corners) < len(fresh._ids)
        for fill in ("corners", "weights file"):
            g = build_relative_link(cx, fam)
            if fill == "corners":
                assert len(g.corners) == len(g._ids)
                gw = canonical_weights(g)
            else:
                gw = parse_weights("", g)
            assert len(g._corners) == len(g._ids), "the Delta view is unfilled"
            assert gw == w
            assert _held(g) == _held(fresh)
            assert (relative_weight_test(cx, fam, gw, g),
                    find_homred_violation(g, gw)) == expect
        outcomes.add(expect[0].ok)
    assert outcomes == {False, True}


def test_zero_weight_shortcut_matches_reference(cases, monkeypatch):
    """Scans settled by the components of the weight-0 corners give the
    reference's violation, in darts and weight, under non-canonical cell
    weights: halves (den 2) and every positive weight at least 2 (weight-0
    scans, which the components must not settle); on built and relabeled
    links.  Reversed-block links and one Delta corner off its prescribed
    weight are refused.  The relative weight test under canonical weights
    leaves a built link's Delta view unread."""
    import lotva.weights as weights_module
    finds = Counter()  # lookups of a node's weight-0 component, by kind
    kind = "canonical"

    class Counting(list):
        def __getitem__(self, x):
            finds[kind] += 1
            return super().__getitem__(x)

    def counted(*args, _cuts=weights_module._zero_cuts):
        cuts, comp = _cuts(*args)
        return cuts, Counting(comp)

    monkeypatch.setattr(weights_module, "_zero_cuts", counted)
    rng = random.Random(107)
    seen = Counter()
    half, two = Fraction(1, 2), Fraction(2)
    for cx, fam in cases[::5]:
        g = build_relative_link(cx, fam)
        kind = "canonical"
        verdict = relative_weight_test(cx, fam, canonical_weights(g), g)
        assert verdict == relative_weight_test(cx, fam, canonical_weights(g),
                                               build_relative_link(cx, fam))
        if fam.parts:
            assert len(g._corners) < len(g._ids), "the Delta view was read"
        sizes = [len(b.nodes) for b in g.delta_blocks]
        for kind, values in (("halves", (0, half, 3 * half)),
                             ("heavy", (0, 0, two, 5 * half))):
            g = build_relative_link(cx, fam)
            w = with_cell_weights(g, lambda: rng.choice(values))
            for h, hw in ((g, w), _relabeled(rng, g, w)):
                found = find_homred_violation(h, hw)
                assert found == reference_find_homred_violation(h, hw)
                seen[kind, found is None] += 1
            if max(sizes, default=0) > 2:
                with pytest.raises(PreconditionError, match="not laid out"):
                    find_homred_violation(
                        _reversed_block(g, sizes.index(max(sizes))), w)
                seen[kind, "refused"] += 1
            if sizes:
                with pytest.raises(PreconditionError, match="must have weight"):
                    find_homred_violation(g, _off_prescribed(rng, g, w)[0])
                seen["one-delta", "refused"] += 1
    assert all(seen[kind, none] for kind in ("halves", "heavy")
               for none in (False, True))
    assert all(seen[kind, "refused"] for kind in ("halves", "heavy", "one-delta"))
    assert finds["canonical"] and finds["halves"]
