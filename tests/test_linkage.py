import random

import pytest

from lotva import linkage
from lotva import (EdgeEnd, PreconditionError, build_complex, build_link,
                   build_relative_link, derive_subcomplexes, enumerate_sublots,
                   parse_complex, parse_lot, relative_forest_check, reorient,
                   sign_change, signed_relative_forest_check, signed_sublinks,
                   to_dot)
from lotva.sweep import random_lot

from oracles import (delta_relative_forest_check, is_closed_cycle,
                     oracle_relative_forest, random_complex)


def corner_names(g):
    return [tuple(sorted((str(c.a), str(c.b)))) for c in g.corners]


class TestBuildLink:
    def test_single_cell_corners(self):
        cx = parse_complex("complex c\nedge a\nedge b\nedge c\n"
                           "cell d = a,c,-b,-c\n")
        g = build_link(cx)
        assert corner_names(g) == [("a-", "c+"), ("b-", "c-"), ("b+", "c-"),
                                   ("a+", "c+")]
        # a is the terminal end of letter i, b the initial end of letter i+1
        assert [(str(c.a), str(c.b)) for c in g.corners] == \
            [("a-", "c+"), ("c-", "b-"), ("b+", "c-"), ("c+", "a+")]
        assert [c.corner_class for c in g.corners] == ["+-", "--", "+-", "++"]

    def test_fig1_counts(self, fig1):
        g = build_link(build_complex(fig1))
        assert len(g.nodes) == 14
        assert len(g.corners) == 24

    def test_cell_free_complex(self):
        cx = parse_complex("complex c\nedge a\nedge b\n")
        g = build_link(cx)
        assert len(g.nodes) == 4 and len(g.corners) == 0

    def test_corner_count_is_total_boundary_length(self):
        rng = random.Random(12)
        for _ in range(20):
            lot = random_lot(rng, rng.randrange(1, 7), compressed=False)
            cx = build_complex(lot)
            g = build_link(cx)
            assert len(g.corners) == sum(len(c.boundary) for c in cx.cells)

    def test_lot_cell_class_pattern(self):
        """Per LOT cell: one (++) joining label+/tail+, one (--) joining
        label-/head-, two (+-)."""
        rng = random.Random(13)
        for _ in range(25):
            lot = random_lot(rng, rng.randrange(1, 7), compressed=False)
            g = build_link(build_complex(lot))
            by_cell = {}
            for c in g.corners:
                by_cell.setdefault(c.provenance[1], []).append(c)
            for i, e in enumerate(lot.edges):
                cs = by_cell[f"d_{i}"]
                classes = sorted(c.corner_class for c in cs)
                assert classes == ["++", "+-", "+-", "--"]
                pp = next(c for c in cs if c.corner_class == "++")
                assert {pp.a, pp.b} == {EdgeEnd(e.label, 1), EdgeEnd(e.tail, 1)}
                mm = next(c for c in cs if c.corner_class == "--")
                assert {mm.a, mm.b} == {EdgeEnd(e.label, -1), EdgeEnd(e.head, -1)}


class TestIntCornersOncePerComplex:
    def test_one_pass_shared(self, fig1, monkeypatch):
        """Both link builders and both signed forest checks on one complex
        share one ``int_corners`` pass; an equal complex gets its own."""
        calls = []
        real = linkage.int_corners

        def counted(cx):
            calls.append(cx)
            return real(cx)

        monkeypatch.setattr(linkage, "int_corners", counted)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        cx, twin = build_complex(fig1), build_complex(fig1)
        for c in (cx, twin):
            build_link(c)
            build_relative_link(c, fam)
            for pol in (1, -1):
                signed_relative_forest_check(c, fam, pol)
        assert len(calls) == 2
        assert calls[0] is cx and calls[1] is twin
        # the kept pass takes no part in equality, hashing or repr
        fresh = build_complex(fig1)
        assert cx == fresh and hash(cx) == hash(fresh) and repr(cx) == repr(fresh)


class TestSignedSublinks:
    def test_fig1(self, fig1):
        g = build_link(build_complex(fig1))
        pos, neg = signed_sublinks(g)
        assert corner_names(pos) == [("f+", "g+"), ("a+", "d+"), ("b+", "e+"),
                                     ("b+", "c+"), ("c+", "d+"), ("e+", "g+")]
        assert corner_names(neg) == [("a-", "f-"), ("b-", "d-"), ("c-", "e-"),
                                     ("b-", "d-"), ("c-", "e-"), ("f-", "g-")]
        assert relative_forest_check(pos, [])[0] is True
        assert relative_forest_check(neg, [])[0] is False

    def test_prime(self, prime):
        g = build_link(build_complex(prime))
        pos, neg = signed_sublinks(g)
        assert relative_forest_check(pos, [])[0]
        assert relative_forest_check(neg, [])[0]

    def test_cell_free(self):
        cx = parse_complex("complex c\nedge a\n")
        pos, neg = signed_sublinks(build_link(cx))
        assert len(pos.corners) == 0 and len(neg.corners) == 0

    def test_rejects_relative_link(self, fig1):
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        rg = build_relative_link(build_complex(fig1), fam)
        with pytest.raises(PreconditionError):
            signed_sublinks(rg)


class TestRelativeLink:
    def test_fig1_counts(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        g = build_relative_link(cx, fam)
        delta = [c for c in g.corners if c.is_delta]
        plain = [c for c in g.corners if not c.is_delta]
        assert len(delta) == 45 + 10
        assert len(plain) == 8
        assert {c.provenance[1] for c in plain} == {"d_0", "d_5"}
        assert len(g.delta_blocks) == 1
        assert len(g.delta_blocks[0].nodes) == 10

    def test_empty_family_equals_absolute(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [])
        rg = build_relative_link(cx, fam)
        g = build_link(cx)
        assert rg.nodes == g.nodes
        assert rg.corners == g.corners
        assert rg.delta_blocks == ()

    def test_two_parts_disjoint_blocks(self, fig3):
        cx = build_complex(fig3)
        fam = derive_subcomplexes(fig3, [frozenset({0, 1}), frozenset({4, 5})])
        rg = build_relative_link(cx, fam)
        b0, b1 = rg.delta_blocks
        assert not b0.nodes & b1.nodes
        assert not b0.corner_ids & b1.corner_ids


class TestRelativeForest:
    def test_fig1_relative_passes(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        assert signed_relative_forest_check(cx, fam, 1)[0]
        assert signed_relative_forest_check(cx, fam, -1)[0]

    def test_fig1_absolute_negative_fails_with_witness(self, fig1):
        g = build_link(build_complex(fig1))
        _, neg = signed_sublinks(g)
        ok, witness = relative_forest_check(neg, [])
        assert not ok
        assert set(witness) == {5, 13}

    @pytest.mark.parametrize("pol", [0, 2, "x"])
    def test_signed_check_rejects_bad_polarity(self, fig1, pol):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        with pytest.raises(PreconditionError, match="polarity"):
            signed_relative_forest_check(cx, fam, pol)

    def test_edgeless_graph(self):
        cx = parse_complex("complex c\nedge a\n")
        g = build_link(cx)
        assert relative_forest_check(g, [])[0]

    def test_loop_is_cycle(self):
        cx = parse_complex("complex c\nedge x\ncell d = -x,x\n")
        g = build_link(cx)
        loops = [c for c in g.corners if c.a == c.b]
        assert loops
        ok, witness = relative_forest_check(g, [])
        assert not ok and len(witness) == 1

    def test_overlapping_blocks_rejected(self, fig1):
        g = build_link(build_complex(fig1))
        n = g.nodes[0]
        with pytest.raises(PreconditionError):
            relative_forest_check(g, [(frozenset({n}), frozenset()),
                                      (frozenset({n}), frozenset())])

    def test_matches_leaf_peeling_oracle(self):
        """Union-find against leaf peeling on random links with random
        disjoint blocks; every witness is a closed cycle of the quotient."""
        rng = random.Random(31)
        cycles = forests = 0
        for _ in range(1500):
            g = build_link(random_complex(rng, max_corners=rng.randrange(2, 16)))
            pool = list(g.nodes)
            rng.shuffle(pool)
            blocks = []
            for _ in range(rng.randrange(0, 4)):
                take = rng.randrange(1, 4)
                nodes, pool = frozenset(pool[:take]), pool[take:]
                if not nodes:
                    break
                inner = [c.id for c in g.corners if c.a in nodes and c.b in nodes]
                blocks.append((nodes, frozenset(cid for cid in inner
                                                if rng.random() < 0.7)))
            ok, witness = relative_forest_check(g, blocks)
            assert ok == oracle_relative_forest(g, blocks)
            if ok:
                forests += 1
                assert witness is None
            else:
                cycles += 1
                assert is_closed_cycle(g, blocks, witness)
        assert cycles > 100 and forests > 100

    def test_routes_agree(self, fig1, fig3, prime):
        """lk+(L) forest rel lk+(K) iff lk+(L,K) forest rel Delta+(K)."""
        rng = random.Random(21)
        cases = []
        for lot in (fig1, fig3, prime):
            all_subs, _ = enumerate_sublots(lot)
            proper = [s for s in all_subs if len(s) < lot.num_edges]
            cases.append((lot, proper[:1]))
        for _ in range(30):
            lot = random_lot(rng, rng.randrange(2, 7))
            all_subs, _ = enumerate_sublots(lot)
            proper = [s for s in all_subs if len(s) < lot.num_edges]
            fam_sets = []
            used_v = set()
            for s in proper:
                from lotva import sublot_vertices
                vs = sublot_vertices(lot, s)
                if not vs & used_v:
                    fam_sets.append(s)
                    used_v |= vs
            cases.append((lot, fam_sets))
        for lot, fam_sets in cases:
            cx = build_complex(lot)
            fam = derive_subcomplexes(lot, fam_sets)
            for pol in (1, -1):
                assert signed_relative_forest_check(cx, fam, pol)[0] == \
                    delta_relative_forest_check(cx, fam, pol)[0]


class TestSignChangeInvariance:
    def test_corner_multiset_equal(self, fig1):
        rng = random.Random(8)
        base = build_link(build_complex(fig1))
        ms0 = sorted(corner_names(base))
        for _ in range(20):
            X = {v for v in fig1.vertices if rng.random() < 0.5}
            g = build_link(build_complex(sign_change(fig1, X)))
            assert sorted(corner_names(g)) == ms0


class TestDot:
    def test_absolute(self, prime):
        g = build_link(build_complex(prime))
        dot = to_dot(g)
        assert dot.startswith("graph")
        assert "a_plus" in dot and "a_minus" in dot
        assert 'label="d_0:0"' in dot

    def test_relative_has_clusters(self, fig1):
        cx = build_complex(fig1)
        fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
        dot = to_dot(build_relative_link(cx, fam))
        assert "cluster_delta_0" in dot
        assert 'label="delta:0"' in dot
