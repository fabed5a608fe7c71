import random

import pytest

from lotva import (Lot, LotEdge, ParseError, PreconditionError, StructureError,
                   boundary_reducible_witness, check_properties, collapse,
                   collapse_vertex_of, complete_set_search, enumerate_sublots,
                   extract_sublot, format_lot, free_decomposition,
                   is_compressed, is_injective, is_sublot, parse_log,
                   parse_lot, reorient, sign_change, sublot_closure,
                   sublot_vertices)
from lotva.sweep import iter_small_lots, random_lot

from oracles import (oracle_free_decomposition, oracle_sublot_structure,
                     oracle_sublots)


def edge_tuples(lot):
    return [(e.tail, e.head, e.label) for e in lot.edges]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParsing:
    def test_fig1_shape(self, fig1):
        assert len(fig1.vertices) == 7
        assert fig1.num_edges == 6
        assert fig1.name == "fig1"
        assert fig1.vertices == ("g", "a", "b", "c", "d", "e", "f")

    def test_single_vertex(self):
        log = parse_log("vertex a\n")
        assert log.vertices == ("a",)
        assert log.num_edges == 0
        assert log.as_lot().is_tree()

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_log("edge a a b\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="unknown vertex in label"):
            parse_log("edge a b q\n")

    def test_comment_and_blank_lines(self):
        lot = parse_lot("# header\n\nlot t\nedge a b c  # trailing\nedge b c a\n")
        assert lot.num_edges == 2

    def test_bad_keyword(self):
        with pytest.raises(ParseError):
            parse_log("vertices a\n")

    def test_non_tree_rejected(self):
        log = parse_log("edge a b c\nedge c d a\n")  # disconnected pieces
        with pytest.raises(StructureError):
            log.as_lot()

    def test_format_round_trip(self, fig1):
        assert parse_lot(format_lot(fig1)) == fig1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestProperties:
    def test_fig1_report(self, fig1):
        rep = check_properties(fig1)
        assert rep.injective and rep.compressed and rep.reduced
        assert not rep.prime
        # smallest proper sub-LOT spans {b, c, d, e}
        assert rep.proper_sublot_witness == frozenset({2, 3, 4})
        assert sublot_vertices(fig1, rep.proper_sublot_witness) == \
            frozenset({"b", "c", "d", "e"})

    def test_own_vertex_label_not_compressed(self):
        log = parse_log("vertex a\nvertex b\nedge a b a\n")
        assert not is_compressed(log)

    def test_prime_path(self, prime):
        rep = check_properties(prime)
        assert rep.injective and rep.compressed and rep.reduced and rep.prime
        assert rep.proper_sublot_witness is None

    def test_boundary_reducible(self):
        # leaf d never occurs as a label
        lot = parse_lot("edge a b c\nedge b c a\nedge c d a\n")
        assert not is_injective(lot)  # a labels two edges
        lot2 = parse_lot("edge a b c\nedge b c a\nedge c d b\n")
        assert boundary_reducible_witness(lot2) == (2, "d")

    def test_fig3_report(self, fig3):
        rep = check_properties(fig3)
        assert rep.reduced and not rep.prime


# ---------------------------------------------------------------------------
# sub-LOTs
# ---------------------------------------------------------------------------

class TestSublots:
    def test_fig1_enumeration_frozen(self, fig1):
        all_subs, maximal = enumerate_sublots(fig1)
        assert [sorted(s) for s in all_subs] == \
            [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4], [2, 3, 4]]
        assert [sorted(s) for s in maximal] == [[1, 2, 3, 4]]

    def test_fig3_enumeration_frozen(self, fig3):
        all_subs, maximal = enumerate_sublots(fig3)
        assert [sorted(s) for s in all_subs] == \
            [[0, 1], [0, 1, 2], [0, 1, 2, 3, 4, 5], [3, 4, 5], [4, 5]]
        assert [sorted(s) for s in maximal] == [[0, 1, 2], [3, 4, 5]]

    def test_prime_has_no_proper(self, prime):
        _, maximal = enumerate_sublots(prime)
        assert maximal == []

    def test_against_oracle(self, fig1, fig3, prime):
        rng = random.Random(42)
        lots = [fig1, fig3, prime] + [random_lot(rng, rng.randrange(2, 7))
                                      for _ in range(25)]
        for lot in lots:
            all_subs, _ = enumerate_sublots(lot)
            assert set(all_subs) == oracle_sublots(lot)

    def test_structure_matches_mask_scan(self, sweep6_every97):
        """All sub-LOTs, the maximal ones, the witness and primality from
        the edge closures equal the scan of all 2^m edge masks: every 97th
        LOT of the <=6 sweep, then random LOTs with 2-12 edges, some not
        injective or not compressed."""
        rng = random.Random(61)
        lots = list(sweep6_every97)
        for _ in range(150):
            lots.append(random_lot(rng, rng.randrange(2, 13),
                                   injective=rng.random() < 0.7,
                                   compressed=rng.random() < 0.8))
        primes = 0
        for lot in lots:
            all_subs, maximal, witness, prime = oracle_sublot_structure(lot)
            assert enumerate_sublots(lot) == (all_subs, maximal)
            rep = check_properties(lot)
            assert (rep.proper_sublot_witness, rep.prime) == (witness, prime)
            primes += prime
        assert 100 < primes < len(lots) - 100

    def test_all_members_are_sublots(self, fig1):
        all_subs, _ = enumerate_sublots(fig1)
        assert all(is_sublot(fig1, s) for s in all_subs)

    def test_closure_fig1(self, fig1):
        assert sublot_closure(fig1, 3) == frozenset({2, 3, 4})

    def test_closure_whole_tree(self):
        lot = parse_lot("edge a b c\nedge b c a\n")
        assert sublot_closure(lot, 0) == frozenset({0, 1})

    def test_closure_already_closed(self, fig1):
        # seed inside the closed set {2,3,4}: closure of 3 stays inside
        assert sublot_closure(fig1, 3) <= frozenset({2, 3, 4})

    def test_closure_idempotent_monotone(self):
        rng = random.Random(11)
        for _ in range(40):
            lot = random_lot(rng, rng.randrange(2, 8))
            for seed in range(lot.num_edges):
                c = sublot_closure(lot, seed)
                assert seed in c
                assert is_sublot(lot, c) or len(c) == lot.num_edges
                # rerunning from any member stays inside the closure
                for s2 in c:
                    assert sublot_closure(lot, s2) <= c or \
                        sublot_closure(lot, s2) >= c


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

class TestCollapse:
    def test_fig1_collapse(self, fig1):
        q, x = collapse(fig1, {1, 2, 3, 4})
        assert x == "a"
        assert edge_tuples(q) == [("g", "a", "f"), ("a", "f", "g")]

    def test_fig3_collapse_not_compressed(self, fig3):
        q, x = collapse(fig3, {0, 1})
        assert x == "x2"
        assert ("x2", "z", "x2") in edge_tuples(q)
        assert not is_compressed(q)

    def test_total_collapse(self, prime):
        q, x = collapse(prime, {0, 1})
        assert q.num_edges == 0 and len(q.vertices) == 1

    def test_collapse_requires_injective(self):
        lot = parse_lot("edge a b c\nedge b c a\nedge c d a\n")
        with pytest.raises(PreconditionError):
            collapse(lot, {0, 1})

    def test_collapse_preserves_injectivity(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            lot = random_lot(rng, rng.randrange(3, 8))
            all_subs, _ = enumerate_sublots(lot)
            for s in all_subs:
                if len(s) < lot.num_edges:
                    q, _ = collapse(lot, s)
                    assert is_injective(q)
                    checked += 1
        assert checked > 20


# ---------------------------------------------------------------------------
# complete sets
# ---------------------------------------------------------------------------

class TestCompleteSet:
    def test_fig1(self, fig1):
        found = complete_set_search(fig1)
        assert found is not None
        sublots, chain = found
        assert sublots == [frozenset({1, 2, 3, 4})]
        assert len(chain.steps) == 1
        assert chain.steps[0].collapse_vertex == "a"
        assert edge_tuples(chain.final_quotient) == \
            [("g", "a", "f"), ("a", "f", "g")]

    def test_fig3_none(self, fig3):
        assert complete_set_search(fig3) is None

    def test_prime_precondition(self, prime):
        with pytest.raises(PreconditionError):
            complete_set_search(prime)

    def test_result_is_disjoint(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(80):
            lot = random_lot(rng, rng.randrange(4, 8))
            rep = check_properties(lot)
            if rep.prime:
                continue
            found = complete_set_search(lot)
            if found is None:
                continue
            sublots, chain = found
            seen_e, seen_v = set(), set()
            for s in sublots:
                assert is_sublot(lot, s)
                vs = sublot_vertices(lot, s)
                assert not (s & seen_e) and not (vs & seen_v)
                seen_e |= s
                seen_v |= vs
            rep_q = check_properties(chain.final_quotient)
            assert rep_q.prime and rep_q.compressed
            assert chain.final_quotient.num_edges >= 1
            hits += 1
        assert hits > 10


# ---------------------------------------------------------------------------
# free decomposition
# ---------------------------------------------------------------------------

class TestFreeDecomposition:
    def test_fig3(self, fig3):
        fd = free_decomposition(fig3)
        assert fd is not None
        assert fd.shared_vertex == "z"
        assert fd.left_edges == frozenset({0, 1, 2})
        assert fd.right_edges == frozenset({3, 4, 5})

    def test_fig1_none(self, fig1):
        assert free_decomposition(fig1) is None

    def test_prime_path_none(self, prime):
        assert free_decomposition(prime) is None

    def test_matches_branch_scan(self, sweep6_every97):
        """Linking branches by labels finds the decomposition a binary
        counter over the branches at each vertex finds, or none."""
        rng = random.Random(67)
        lots = list(sweep6_every97)
        for _ in range(150):
            lots.append(random_lot(rng, rng.randrange(2, 13),
                                   injective=rng.random() < 0.7))
        found = 0
        for lot in lots:
            fd = free_decomposition(lot)
            assert fd == oracle_free_decomposition(lot)
            found += fd is not None
        assert 50 < found < len(lots) - 500

    def test_halves_are_sublots(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(250):
            lot = random_lot(rng, rng.randrange(3, 9))
            fd = free_decomposition(lot)
            if fd is None:
                continue
            assert is_sublot(lot, fd.left_edges)
            assert is_sublot(lot, fd.right_edges)
            assert fd.left_edges | fd.right_edges == frozenset(range(lot.num_edges))
            assert not fd.left_edges & fd.right_edges
            shared = sublot_vertices(lot, fd.left_edges) & \
                sublot_vertices(lot, fd.right_edges)
            assert shared == {fd.shared_vertex}
            hits += 1
        assert hits > 5


# ---------------------------------------------------------------------------
# reorientation, sign change
# ---------------------------------------------------------------------------

class TestReorientSign:
    def test_reorient_empty_identity(self, fig1):
        assert reorient(fig1, set()) == fig1

    def test_reorient_involution(self, fig1):
        rng = random.Random(1)
        for _ in range(20):
            flip = {i for i in range(6) if rng.random() < 0.5}
            assert reorient(reorient(fig1, flip), flip) == fig1

    def test_reorient_all(self, fig1):
        r = reorient(fig1, set(range(6)))
        assert [(e.head, e.tail, e.label) for e in r.edges] == edge_tuples(fig1)

    def test_reorient_unknown_edge(self, fig1):
        with pytest.raises(StructureError):
            reorient(fig1, {17})

    def test_sign_change(self, fig1):
        s = sign_change(fig1, set())
        assert all(x == 1 for x in s.sign)
        s2 = sign_change(fig1, {"b"})
        assert s2.sign_of("b") == -1
        assert sum(1 for x in s2.sign if x == -1) == 1
        assert s2.lot == fig1

    def test_sign_change_unknown_vertex(self, fig1):
        with pytest.raises(StructureError):
            sign_change(fig1, {"zz"})


# ---------------------------------------------------------------------------
# the structure proposition at desk scale
# ---------------------------------------------------------------------------

class TestStructureProposition:
    def test_complete_or_free_small(self):
        """Reduced injective non-prime LOTs admit a complete set or freely
        decompose; exhaustive through 7 edges (orientations do not matter
        for either side)."""
        checked = 0
        for lot in iter_small_lots(7, orientations=False):
            rep = check_properties(lot)
            if not (rep.reduced and not rep.prime):
                continue
            has_complete = complete_set_search(lot) is not None
            has_free = free_decomposition(lot) is not None
            assert has_complete or has_free, format_lot(lot)
            checked += 1
        assert checked > 1000

    def test_extract_sublot(self, fig1):
        sub = extract_sublot(fig1, {1, 2, 3, 4})
        assert sub.vertices == ("a", "b", "c", "d", "e")
        assert edge_tuples(sub) == [("a", "b", "d"), ("b", "c", "e"),
                                    ("c", "d", "b"), ("d", "e", "c")]
