"""The int-indexed link code against the routes through a built lk(L) in
``oracles``: both signed relative forest checks, curvature and folding
vertices, and the weight searches on links rebuilt by hand."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lotva import (DeltaBlock, LinkGraph, WeightAssignment, build_complex,
                   build_link, build_relative_link, canonical_weights,
                   curvature_report, derive_subcomplexes, double_cell_sphere,
                   find_folding_vertices, find_homred_violation,
                   min_weight_reduced_cycle, parse_weights,
                   relative_weight_test, signed_relative_forest_check,
                   weight_test)
from lotva.sweep import random_lot
from lotva.weights import _whole_blocks

from oracles import (closure_family, link_signed_relative_forest_check,
                     random_weights, reference_curvature,
                     reference_find_folding_vertices,
                     reference_find_homred_violation, reference_vertex_corners)


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
    results.  Both are built by hand, so their Delta-blocks are read
    corner by corner: on relative links this checks the block route
    against the corner route."""
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


def _reversed_block(g: LinkGraph, bi: int) -> LinkGraph:
    """g with the Delta corners of block bi listed in reverse order, ids
    kept: the same lk(L, K), but not in the builder's layout."""
    ids = g.delta_blocks[bi].corner_ids
    back = iter([c for c in g.corners if c.id in ids][::-1])
    return LinkGraph(g.nodes, tuple(next(back) if c.id in ids else c
                                    for c in g.corners), g.delta_blocks)


def test_block_search_matches_reference(cases):
    """Delta-blocks searched as blocks give the corner-by-corner
    reference's cycle, darts and weight, under canonical weights: on the
    built links (blocks read whole), and on their relabeled copies and
    copies with the largest block's Delta corners reversed (built by hand,
    so every block is read corner by corner).  ``find_homred_violation``
    with one Delta corner reweighted (that block read corner by corner)
    also gives the reference's cycle."""
    rng = random.Random(103)
    seen = Counter()
    for cx, fam in cases:
        g = build_relative_link(cx, fam)
        links = [(g, len(g.delta_blocks)),
                 (_relabeled(rng, g, canonical_weights(g))[0], 0)]
        sizes = [len(b.nodes) for b in g.delta_blocks]
        if sizes and max(sizes) > 2:
            links.append((_reversed_block(g, sizes.index(max(sizes))), 0))
        for h, whole in links:
            w = canonical_weights(h)
            assert len(_whole_blocks(h, w)) == whole
            ref = reference_find_homred_violation(h, w)
            verdict = relative_weight_test(cx, fam, w, h)
            if verdict.ok or verdict.violation[0] == "cycle":
                assert (None if verdict.ok else verdict.violation[1:]) == ref
            else:
                assert find_homred_violation(h, w) == ref
            seen[verdict.ok or verdict.violation[0], whole < len(sizes)] += 1
        delta = [c.id for c in g.corners if c.is_delta]
        if delta:
            weights = dict(canonical_weights(g).weights)
            weights[rng.choice(delta)] = Fraction(rng.randrange(0, 5), 2)
            w = WeightAssignment(weights)
            assert len(_whole_blocks(g, w)) < len(sizes) or \
                weights == canonical_weights(g).weights
            found = find_homred_violation(g, w)
            assert found == reference_find_homred_violation(g, w)
            seen["reweighted", found is None] += 1
    # passes and cycle violations on both routes, and both outcomes with a
    # reweighted Delta corner
    assert all(seen[kind, route] for kind in (True, "cycle")
               for route in (False, True))
    assert all(seen["reweighted", none] for none in (False, True))


def test_filled_view_keeps_blocks_whole(fig1):
    """A built relative link whose Delta view was filled, by reading
    ``corners`` or through ``parse_weights``, still reads every block
    whole under canonical weights, and gives a fresh link's verdict and
    first homology reduced violation: on fig1 with K = {1, 2, 3, 4} and on
    random 16-24-edge LOTs with the greedy closure family."""
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
        assert len(_whole_blocks(fresh, w)) == len(fresh.delta_blocks)
        for fill in ("corners", "weights file"):
            g = build_relative_link(cx, fam)
            if fill == "corners":
                assert len(g.corners) == len(g._ids)
                gw = canonical_weights(g)
            else:
                gw = parse_weights("", g)
            assert len(g._corners) == len(g._ids), "the Delta view is unfilled"
            assert gw == w
            assert len(_whole_blocks(g, gw)) == len(g.delta_blocks)
            assert (relative_weight_test(cx, fam, gw, g),
                    find_homred_violation(g, gw)) == expect
        outcomes.add(expect[0].ok)
    assert outcomes == {False, True}


def _cell_reweighted(rng, g: LinkGraph, values, across=None) -> WeightAssignment:
    """Canonical weights of g, with every cell corner drawn from ``values``
    and, with ``across``, every Delta corner across a polarity set to it."""
    weights = dict(canonical_weights(g).weights)
    for c in g.corners:
        if not c.is_delta:
            weights[c.id] = rng.choice(values)
        elif across is not None and weights[c.id]:
            weights[c.id] = across
    return WeightAssignment(weights)


def test_zero_weight_shortcut_matches_reference(cases, monkeypatch):
    """Scans settled by the components of the weight-0 corners give the
    reference's violation, in darts and weight, under non-canonical
    weights: halves (den 2, whole blocks), every positive weight at least 2
    (weight-0 scans, which the components must not settle), and one
    reweighted Delta corner; on built, relabeled and reversed-block links.
    The relative weight test under canonical weights leaves a built link's
    Delta view unread."""
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
        for kind, values, across in (("halves", (0, half, 3 * half), None),
                                     ("heavy", (0, 0, two, 5 * half), two),
                                     ("one-delta", (0, half, 3 * half), None)):
            g = build_relative_link(cx, fam)
            w = _cell_reweighted(rng, g, values, across)
            if kind == "one-delta" and sizes:
                weights = dict(w.weights)
                delta = [c.id for c in g.corners if c.is_delta]
                weights[rng.choice(delta)] = rng.choice((0, half, 1, 3 * half))
                w = WeightAssignment(weights)
            links = [(g, w), _relabeled(rng, g, w)]
            if sizes and max(sizes) > 2:
                links.append((_reversed_block(g, sizes.index(max(sizes))), w))
            for h, hw in links:
                found = find_homred_violation(h, hw)
                assert found == reference_find_homred_violation(h, hw)
                seen[kind, found is None] += 1
    assert all(seen[kind, none] for kind in ("halves", "heavy", "one-delta")
               for none in (False, True))
    assert finds["canonical"] and finds["halves"] and finds["one-delta"]
