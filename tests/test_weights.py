import random
from fractions import Fraction

import pytest

from lotva import (Lot, LotEdge, PreconditionError, StructureError,
                   WeightAssignment, build_complex, build_link,
                   build_relative_link, canonical_weights,
                   check_cell_condition, derive_subcomplexes, enumerate_sublots,
                   find_homred_violation, format_weights,
                   min_weight_reduced_cycle, orientation_search, parse_complex,
                   parse_lot, parse_weights, relative_weight_test, reorient,
                   sign_change, signed_relative_forest_check, signed_sublinks,
                   sublot_closure, sublot_vertices, weight_test)
from lotva.weights import FlipForests, orientation_search_check
from lotva.sweep import random_lot

from oracles import (oracle_homred_violation_exists, oracle_min_reduced_cycle,
                     oracle_orientation_search, random_link,
                     random_relative_link, random_weights)


class TestCanonicalWeights:
    def test_lot_cell_pattern(self, prime):
        g = build_link(build_complex(prime))
        w = canonical_weights(g)
        by_class = {}
        for c in g.corners:
            by_class.setdefault(c.corner_class, set()).add(w[c.id])
        assert by_class["++"] == {0} and by_class["--"] == {0}
        assert by_class["+-"] == {1}

    def test_delta_weights(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        w = canonical_weights(g)
        for c in g.corners:
            if c.is_delta:
                if c.a.polarity == c.b.polarity:
                    assert w[c.id] == 0
                else:
                    assert w[c.id] == 1


class TestCellCondition:
    def test_lot_cells_sum_exactly_two(self, fig1):
        cx = build_complex(fig1)
        g = build_link(cx)
        w = canonical_weights(g)
        assert check_cell_condition(cx, g, w).ok
        sums = {}
        for c in g.corners:
            sums[c.provenance[1]] = sums.get(c.provenance[1], 0) + w[c.id]
        assert all(v == 2 for v in sums.values())

    def test_all_ones_fail(self, prime):
        cx = build_complex(prime)
        g = build_link(cx)
        w = WeightAssignment({c.id: Fraction(1) for c in g.corners})
        verdict = check_cell_condition(cx, g, w)
        assert not verdict.ok
        assert verdict.violation == ("cell", "d_0", Fraction(4))

    def test_excluded_cells_skipped(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        w = canonical_weights(g)
        assert check_cell_condition(cx, g, w, excluded_cells=fam.all_cells).ok


class TestMinReducedCycle:
    def test_fig1_witness(self, fig1):
        g = build_link(build_complex(fig1))
        w = canonical_weights(g)
        weight, darts = min_weight_reduced_cycle(g, w)
        assert weight == 0
        assert sorted(cid for cid, _ in darts) == [5, 13]

    def test_prime_minimum_two(self, prime):
        g = build_link(build_complex(prime))
        w = canonical_weights(g)
        weight, _ = min_weight_reduced_cycle(g, w)
        assert weight == 2

    def test_single_loop(self):
        cx = parse_complex("complex c\nedge x\ncell d = -x,x\n")
        g = build_link(cx)
        loop = next(c for c in g.corners if c.a == c.b)
        w = WeightAssignment({c.id: Fraction(0) if c.a == c.b else Fraction(1)
                              for c in g.corners})
        weight, darts = min_weight_reduced_cycle(g, w)
        assert weight == 0
        assert darts == ((loop.id, 0),) or darts == ((loop.id, 1),)

    def test_forest_link_none(self, prime):
        g = build_link(build_complex(prime))
        pos, _ = signed_sublinks(g)
        assert min_weight_reduced_cycle(pos, canonical_weights(pos)) is None

    def test_negative_weight_rejected(self, prime):
        g = build_link(build_complex(prime))
        w = WeightAssignment({c.id: Fraction(-1) for c in g.corners})
        with pytest.raises(PreconditionError):
            min_weight_reduced_cycle(g, w)

    def test_against_dp_oracle(self):
        rng = random.Random(60)
        for _ in range(60):
            g = random_link(rng)
            w = random_weights(rng, g)
            got = min_weight_reduced_cycle(g, w)
            expect = oracle_min_reduced_cycle(g, w)
            if expect is None:
                assert got is None
            else:
                assert got is not None and got[0] == expect

    def test_relabeling_and_flip_invariance(self):
        """Minimum is stable under permuting corner ids and swapping a
        corner's stored endpoint order."""
        from lotva.linkage import Corner, LinkGraph
        rng = random.Random(62)
        for _ in range(25):
            g = random_link(rng)
            if not g.corners:
                continue
            w = random_weights(rng, g)
            perm = list(range(len(g.corners)))
            rng.shuffle(perm)
            corners = []
            new_w = {}
            for new_id, old_id in enumerate(perm):
                c = g.corners[old_id]
                a, b = (c.b, c.a) if rng.random() < 0.5 else (c.a, c.b)
                corners.append(Corner(new_id, a, b, c.provenance))
                new_w[new_id] = w[c.id]
            g2 = LinkGraph(g.nodes, tuple(corners))
            w2 = WeightAssignment(new_w)
            got1 = min_weight_reduced_cycle(g, w)
            got2 = min_weight_reduced_cycle(g2, w2)
            if got1 is None:
                assert got2 is None
            else:
                assert got2 is not None and got1[0] == got2[0]

    def test_witness_weight_matches(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_link(rng)
            w = random_weights(rng, g)
            got = min_weight_reduced_cycle(g, w)
            if got is None:
                continue
            weight, darts = got
            assert sum(w[cid] for cid, _ in darts) == weight
            # and the walk is a reduced cycle
            from oracles import _dart_head, _dart_tail
            for i, d in enumerate(darts):
                nxt = darts[(i + 1) % len(darts)]
                assert _dart_head(g, d) == _dart_tail(g, nxt)
                assert nxt != (d[0], 1 - d[1])


class TestHomredViolation:
    def test_fig1_relative_none(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        assert find_homred_violation(g, canonical_weights(g)) is None

    def test_fig1_empty_delta_violation(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [])
        g = build_relative_link(cx, fam)
        found = find_homred_violation(g, canonical_weights(g))
        assert found is not None
        darts, weight = found
        assert weight == 0
        assert sorted(cid for cid, _ in darts) == [5, 13]

    def test_requires_delta_decoration(self, fig1):
        g = build_link(build_complex(fig1))
        with pytest.raises(PreconditionError):
            find_homred_violation(g, canonical_weights(g))

    def test_against_simple_cycle_oracle(self):
        rng = random.Random(70)
        for _ in range(60):
            g = random_relative_link(rng)
            w = random_weights(rng, g) if rng.random() < 0.5 \
                else canonical_weights(g)
            got = find_homred_violation(g, w)
            assert (got is not None) == oracle_homred_violation_exists(g, w)
            if got is not None:
                darts, weight = got
                assert weight < 2
                assert weight == sum(w[cid] for cid, _ in darts)
                assert any(not g.corners[cid].is_delta for cid, _ in darts)


class TestWeightTest:
    def test_prime_passes(self, prime):
        cx = build_complex(prime)
        g = build_link(cx)
        assert weight_test(cx, g, canonical_weights(g)).ok

    def test_fig1_fails_all_orientations(self, fig1):
        for mask in range(64):
            lot = reorient(fig1, {i for i in range(6) if mask >> i & 1})
            cx = build_complex(lot)
            g = build_link(cx)
            verdict = weight_test(cx, g, canonical_weights(g))
            assert not verdict.ok
            kind, darts, weight = verdict.violation
            assert kind == "cycle" and weight < 2

    def test_cell_free_passes(self):
        cx = parse_complex("complex c\nedge a\n")
        g = build_link(cx)
        assert weight_test(cx, g, canonical_weights(g)).ok


class TestRelativeWeightTest:
    def test_fig1_relative_passes(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        assert relative_weight_test(cx, fam, canonical_weights(g), link=g).ok

    def test_delta_reweighting_rejected(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        w = dict(canonical_weights(g).weights)
        loop = next(c for c in g.corners if c.is_delta and c.a == c.b)
        w[loop.id] = Fraction(1)
        with pytest.raises(PreconditionError):
            relative_weight_test(cx, fam, WeightAssignment(w), link=g)

    def test_signed_part_cell_rejected(self, prime):
        # sign change inside the would-be part gives a K-cell of exponent sum 2
        slot = sign_change(prime, {"c"})
        cx = build_complex(slot)
        from lotva import SubcomplexFamily
        fam = SubcomplexFamily(((frozenset({"a", "b", "c"}),
                                 frozenset({"d_0", "d_1"})),))
        g = build_relative_link(cx, fam)
        with pytest.raises(PreconditionError):
            relative_weight_test(cx, fam, canonical_weights(g), link=g)

    def test_forests_imply_pass(self):
        """Theorem direction: both relative forests => canonical-weight
        relative test passes."""
        rng = random.Random(80)
        hits = 0
        while hits < 60:
            lot = random_lot(rng, rng.randrange(2, 7))
            all_subs, _ = enumerate_sublots(lot)
            proper = [s for s in all_subs if len(s) < lot.num_edges]
            fam_sets = []
            used = set()
            for s in proper:
                vs = sublot_vertices(lot, s)
                if not vs & used and rng.random() < 0.7:
                    fam_sets.append(s)
                    used |= vs
            cx = build_complex(lot)
            fam = derive_subcomplexes(lot, fam_sets)
            if not signed_relative_forest_check(cx, fam, 1)[0]:
                continue
            if not signed_relative_forest_check(cx, fam, -1)[0]:
                continue
            g = build_relative_link(cx, fam)
            assert relative_weight_test(cx, fam, canonical_weights(g), link=g).ok
            hits += 1


class TestOrientationSearch:
    def test_prime_subfixture(self):
        lot = parse_lot("edge b c e\nedge c d b\nedge d e c\n")
        assert orientation_search(lot) == frozenset({0})

    def test_fig1_with_fixed(self, fig1):
        assert orientation_search(fig1, [frozenset({1, 2, 3, 4})]) == frozenset()

    def test_fig1_absolute_none(self, fig1):
        assert orientation_search(fig1) is None

    def test_never_flips_fixed_edges(self, fig1):
        found = orientation_search(fig1, [frozenset({1, 2, 3, 4})])
        assert not (found & {1, 2, 3, 4})

    def test_deep_walk_needs_no_recursion(self):
        """Path v0 -> ... -> v1500, edge i labeled v(i+2), the last one v0:
        lk+ and lk- are already paths, so the search walks 1,500 edges deep
        without backing up, past Python's default recursion limit."""
        n = 1500
        names = tuple(f"v{i}" for i in range(n + 1))
        lot = Lot(names, tuple(LotEdge(names[i], names[i + 1],
                                       names[(i + 2) % (n + 1)])
                               for i in range(n)))
        assert orientation_search(lot) == frozenset()

    def test_unknown_fixed_edge_ids(self, fig1):
        with pytest.raises(StructureError, match="unknown edge id 99"):
            orientation_search_check(fig1, [frozenset({99})], frozenset())
        with pytest.raises(StructureError, match="unknown edge id -1"):
            FlipForests(fig1, [frozenset({-1})])

    def test_overlapping_fixed_rejected(self, fig3):
        with pytest.raises(PreconditionError):
            orientation_search(fig3, [frozenset({0, 1}), frozenset({0, 1, 2})])

    def test_fixed_families_match_link_route(self, sweep6_every97):
        """With non-empty fixed families, the flip-set forest check agrees
        with building the reoriented complex and checking both signed
        relative forests, on a stride sample of the <=6-edge sweep."""
        rng = random.Random(91)
        compared = 0
        for lot in sweep6_every97:
            parts, used = [], set()
            for e in rng.sample(range(lot.num_edges), lot.num_edges):
                part = sublot_closure(lot, e)
                vs = sublot_vertices(lot, part)
                if len(part) < lot.num_edges and not vs & used:
                    parts.append(part)
                    used |= vs
            if not parts:
                continue
            fixed_edges = frozenset().union(*parts)
            for _ in range(2):
                flip = frozenset(i for i in range(lot.num_edges)
                                 if i not in fixed_edges and rng.random() < 0.5)
                flipped = reorient(lot, flip)
                cx = build_complex(flipped)
                fam = derive_subcomplexes(flipped, parts)
                pos = signed_relative_forest_check(cx, fam, 1)[0]
                neg = signed_relative_forest_check(cx, fam, -1)[0]
                forests = FlipForests(lot, parts)
                mask = sum(1 << i for i in flip)
                assert (forests.is_forest(mask, 1),
                        forests.is_forest(mask, -1)) == (pos, neg)
                assert orientation_search_check(lot, parts, flip) == (pos and neg)
                compared += 1
        assert compared > 1000

    def test_matches_counter_oracle(self, sweep6_every97):
        """The pruned depth-first search returns what the binary counter
        over all flip sets returns, None included, with and without fixed
        families: every 97th LOT of the <=6 sweep, then random LOTs with
        2-12 edges, a third of them not injective."""
        rng = random.Random(93)
        lots = list(sweep6_every97)
        for _ in range(150):
            m = rng.randrange(2, 13)
            lots.append(random_lot(rng, m, injective=rng.random() < 0.67))
        found = nones = with_fixed = 0
        for lot in lots:
            expect = oracle_orientation_search(lot)
            assert orientation_search(lot) == expect
            found += expect is not None
            nones += expect is None
            parts, used = [], set()
            for e in rng.sample(range(lot.num_edges), lot.num_edges):
                part = sublot_closure(lot, e)
                vs = sublot_vertices(lot, part)
                if len(part) < lot.num_edges and not vs & used:
                    parts.append(part)
                    used |= vs
            if parts:
                assert orientation_search(lot, parts) == \
                    oracle_orientation_search(lot, parts)
                with_fixed += 1
        assert found > 100 and nones > 100 and with_fixed > 500

    def test_fast_path_matches_link_route(self):
        """The pair-based forest check agrees with building the complex and
        links explicitly."""
        from lotva import relative_forest_check
        rng = random.Random(90)
        for _ in range(40):
            lot = random_lot(rng, rng.randrange(2, 7))
            flip = frozenset(i for i in range(lot.num_edges)
                             if rng.random() < 0.5)
            flipped_lot = reorient(lot, flip)
            cx = build_complex(flipped_lot)
            g = build_link(cx)
            pos, neg = signed_sublinks(g)
            expect = relative_forest_check(pos, [])[0] and \
                relative_forest_check(neg, [])[0]
            assert orientation_search_check(lot, [], flip) == expect


class TestWeightFiles:
    def test_round_trip(self, prime):
        cx = build_complex(prime)
        g = build_link(cx)
        w = canonical_weights(g)
        text = format_weights(g, w)
        assert parse_weights(text, g).weights == w.weights

    def test_override(self, prime):
        cx = build_complex(prime)
        g = build_link(cx)
        w = parse_weights("corner d_0 0 = 3/2\n", g)
        target = next(c for c in g.corners
                      if c.provenance[1] == "d_0" and c.provenance[2] == 0)
        assert w[target.id] == Fraction(3, 2)

    def test_unknown_corner(self, prime):
        from lotva import ParseError
        cx = build_complex(prime)
        g = build_link(cx)
        with pytest.raises(ParseError):
            parse_weights("corner d_9 0 = 1\n", g)


class TestSignChangeInvariance:
    def test_weight_test_verdict_stable(self):
        rng = random.Random(95)
        for _ in range(25):
            lot = random_lot(rng, rng.randrange(2, 6))
            X = {v for v in lot.vertices if rng.random() < 0.5}
            cx0 = build_complex(lot)
            cx1 = build_complex(sign_change(lot, X))
            g0, g1 = build_link(cx0), build_link(cx1)
            v0 = weight_test(cx0, g0, canonical_weights(g0))
            v1 = weight_test(cx1, g1, canonical_weights(g1))
            assert v0.ok == v1.ok
