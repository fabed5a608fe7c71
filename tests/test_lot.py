import random
import re

import pytest

from lotva import (Lot, LotEdge, LotvaError, ParseError, PreconditionError,
                   SignedLot, StructureError, boundary_reduce,
                   boundary_reducible_witness, certify_va, check_properties,
                   collapse, complete_set_search, enumerate_sublots,
                   extract_sublot, format_lot, free_decomposition,
                   is_compressed, is_injective, is_sublot, parse_lot,
                   reorient, sign_change, sublot_closure, sublot_vertices)
from lotva import lot as lot_module
from lotva.lot import _edge_closures, maximal_sublots
from lotva.sweep import iter_small_lots, random_lot

from oracles import (named_collapse, oracle_free_decomposition,
                     oracle_sublot_structure, oracle_sublots,
                     reference_closure, reference_is_sublot,
                     reference_search_complete_set)


def edge_tuples(lot):
    return [(e.tail, e.head, e.label) for e in lot.edges]


def glued_lot(rng, m):
    """Two random LOTs joined at one vertex, with edges and vertices
    shuffled: an m-edge LOT that decomposes freely at least there."""
    a = rng.randrange(2, m - 1)
    left, right = random_lot(rng, a), random_lot(rng, m - a)
    join = rng.choice(left.vertices)
    name = {v: f"r{v}" for v in right.vertices}
    name[right.vertices[0]] = join
    edges = list(left.edges) + [LotEdge(name[e.tail], name[e.head], name[e.label])
                                for e in right.edges]
    vertices = list(left.vertices) + [name[v] for v in right.vertices[1:]]
    rng.shuffle(edges)
    rng.shuffle(vertices)
    return Lot(tuple(vertices), tuple(edges))


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
        lot = parse_lot("vertex a\n")
        assert lot.vertices == ("a",)
        assert lot.num_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop at 'a'"):
            parse_lot("edge a a b\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="unknown vertex in label: 'q'"):
            parse_lot("edge a b q\n")

    def test_comment_and_blank_lines(self):
        lot = parse_lot("# header\n\nlot t\nedge a b c  # trailing\nedge b c a\n")
        assert lot.num_edges == 2

    def test_bad_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword 'vertices'"):
            parse_lot("vertices a\n")

    def test_non_tree_rejected(self):
        with pytest.raises(StructureError, match="underlying graph is not a tree"):
            parse_lot("edge a b c\nedge c d a\n")  # disconnected pieces

    @pytest.mark.parametrize("text", ["", "vertex a\nvertex b\n"])
    def test_too_few_edges_rejected(self, text):
        """The edge count is tested before the walk from vertex 0, so a
        file with no vertices is a StructureError, not an IndexError."""
        with pytest.raises(StructureError, match="underlying graph is not a tree"):
            parse_lot(text)

    def test_parse_builds_one_view_and_one_walk(self, monkeypatch, fig1):
        """parse_lot builds the Lot directly: one int view, one tree walk."""
        views, walks = [], []
        int_view, root_paths = lot_module._IntView, lot_module._root_paths

        def counting_view(*args):
            views.append(args)
            return int_view(*args)

        def counting_walk(iv):
            walks.append(iv)
            return root_paths(iv)

        monkeypatch.setattr(lot_module, "_IntView", counting_view)
        monkeypatch.setattr(lot_module, "_root_paths", counting_walk)
        lot = parse_lot(format_lot(fig1))
        assert (len(views), len(walks)) == (1, 1)
        assert lot == fig1

    def test_format_round_trip(self, fig1):
        assert parse_lot(format_lot(fig1)) == fig1

    def test_lot_edge_is_a_named_tuple(self, fig1):
        """Among LotEdges, repr, == and hash are those of the frozen
        dataclass it was, and so are Lot equality and hashing; a LotEdge
        also unpacks, and equals the plain (tail, head, label) tuple."""
        e = LotEdge("a", "b", "c")
        assert repr(e) == "LotEdge(tail='a', head='b', label='c')"
        assert e == LotEdge("a", "b", "c") and e != LotEdge("b", "a", "c")
        assert hash(e) == hash(("a", "b", "c")) == hash(LotEdge("a", "b", "c"))
        assert (e.tail, e.head, e.label) == tuple(e) == e == ("a", "b", "c")
        tail, head, label = e
        assert (tail, head, label) == ("a", "b", "c")
        lot = Lot(fig1.vertices, tuple(LotEdge(*e) for e in fig1.edges), name="x")
        assert lot == fig1 and hash(lot) == hash(fig1)
        plain = Lot(fig1.vertices, tuple(map(tuple, fig1.edges)))
        assert plain == fig1
        assert reorient(plain, {0, 2}) == reorient(fig1, {0, 2})

    @pytest.mark.parametrize("text, line", [
        ("edge a b c\nedge b 9x a\nedge 9x d b\n", 2),
        ("vertex a\nedge a b c\nvertex x-y\nedge c x-y a\nedge x-y d b\n", 3),
        ("edge a b x-y\nedge b x-y a\n", 2),
    ])
    def test_bad_name_raises_where_it_first_comes(self, text, line):
        """Only names not seen before are matched against the identifier
        pattern; a bad name still fails on the line where it first comes
        as a vertex, however often it recurs."""
        with pytest.raises(ParseError, match=rf"^line {line}: bad identifier "):
            parse_lot(text)


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
        lot = parse_lot("vertex a\nvertex b\nedge a b a\n")
        assert not is_compressed(lot)

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
        # of two such leaves, the first in vertex order
        both = parse_lot("vertex c\nedge a b b\nedge b c b\n")
        assert boundary_reducible_witness(both) == (1, "c")

    def test_fig3_report(self, fig3):
        rep = check_properties(fig3)
        assert rep.reduced and not rep.prime


class TestRefusals:
    """Constructors and searches refuse input outside their preconditions."""

    def test_lot_duplicate_vertex(self):
        with pytest.raises(StructureError, match="^duplicate vertex 'a'$"):
            Lot(("a", "b", "a"), (LotEdge("a", "b", "a"),))

    def test_lot_self_loop(self):
        with pytest.raises(StructureError, match="^edge 1 is a self-loop at 'b'$"):
            Lot(("a", "b"), (LotEdge("a", "b", "a"), LotEdge("b", "b", "a")))

    def test_signed_lot_signs(self, prime):
        n = len(prime.vertices)
        assert SignedLot(prime, (1,) * (n - 1) + (-1,)).sign_of(prime.vertices[-1]) == -1
        with pytest.raises(StructureError, match="^sign map is not total"):
            SignedLot(prime, (1,) * (n - 1))
        with pytest.raises(StructureError, match="^signs must be"):
            SignedLot(prime, (1,) * (n - 1) + (0,))

    @pytest.mark.parametrize("bad", [6, -1])
    def test_sublot_closure_unknown_id(self, fig1, bad):
        with pytest.raises(StructureError, match=f"^unknown edge id {bad}$"):
            sublot_closure(fig1, bad)

    def test_complete_set_search_needs_injective(self):
        lot = parse_lot("edge a b c\nedge b c a\nedge c d a\n")
        assert is_compressed(lot) and not is_injective(lot)
        with pytest.raises(PreconditionError, match="requires an injective"):
            complete_set_search(lot)


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

    def test_is_sublot_matches_reference(self):
        """Counting edges against vertices settles connectivity in a tree:
        every edge subset of every <=5-edge LOT and of random 6-11-edge
        LOTs, some not injective or not compressed, plus empty and
        out-of-range id sets."""
        rng = random.Random(71)
        lots = list(iter_small_lots(5))
        for _ in range(40):
            lots.append(random_lot(rng, rng.randrange(6, 12),
                                   injective=rng.random() < 0.7,
                                   compressed=rng.random() < 0.8))
        subsets = found = 0
        for lot in lots:
            m = lot.num_edges
            for ids in ((), (m,), (-1,), (0, m), (0, -1)):
                assert not is_sublot(lot, ids)
                assert not reference_is_sublot(lot, ids)
            for mask in range(1, 1 << m):
                ids = [i for i in range(m) if mask >> i & 1]
                got = is_sublot(lot, ids)
                assert got == reference_is_sublot(lot, ids), (format_lot(lot), ids)
                subsets += 1
                found += got
        assert subsets > 100_000 and 10_000 < found < subsets // 2

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

    def test_bits_match_bit_loop(self):
        """The byte-table ``_bits`` against a lowest-bit loop, on random
        masks of up to 200 bits at several densities, and on masks whose
        set bits straddle the table's 32 bits."""
        def by_loop(mask):
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return tuple(out)

        rng = random.Random(5)
        masks = [0, 1, 1 << 31, 1 << 32, (1 << 33) - 1, 1 << 199]
        for _ in range(3000):
            width = rng.randrange(1, 201)
            mask = rng.getrandbits(width)
            for _ in range(rng.randrange(3)):  # thin it out
                mask &= rng.getrandbits(width)
            masks.append(mask)
        for mask in masks:
            assert lot_module._bits(mask) == by_loop(mask)

    def test_closures_reuse_tree_walk(self, monkeypatch):
        """A Lot walks its root paths once, in the tree check; closures and
        the closure pass read the kept paths, which take no part in
        equality or repr."""
        lot = random_lot(random.Random(3), 12)
        walks = []
        root_paths = lot_module._root_paths

        def counting(iv):
            walks.append(iv)
            return root_paths(iv)

        monkeypatch.setattr(lot_module, "_root_paths", counting)
        same = Lot(lot.vertices, lot.edges)
        assert len(walks) == 1
        closures = [sublot_closure(same, e) for e in range(same.num_edges)]
        assert _edge_closures(same) == tuple(
            sum(1 << i for i in c) for c in closures)
        assert len(walks) == 1
        assert same == lot and repr(same) == repr(lot)
        assert "_paths" not in repr(same)

    def test_closures_match_reference(self, sweep6_every97):
        """Every edge's closure, asked for in shuffled order, is
        ``reference_closure`` of that edge, and ``_edge_closures`` holds
        the same masks: every 97th LOT of the <=6 sweep and 30 random LOTs
        with 7-24 edges, some not injective or not compressed.  Each LOT is
        built afresh, so its closure pass starts at the shuffled first."""
        rng = random.Random(89)
        lots = list(sweep6_every97) + [
            random_lot(rng, rng.randrange(7, 25), injective=rng.random() < 0.7,
                       compressed=rng.random() < 0.8) for _ in range(30)]
        for lot in lots:
            fresh = Lot(lot.vertices, lot.edges)
            assert fresh._closures is None
            iv, paths = fresh._iv, fresh._paths
            want = [reference_closure(iv.edges, paths, 1 << e)
                    for e in range(fresh.num_edges)]
            order = list(range(fresh.num_edges))
            rng.shuffle(order)
            for e in order:
                assert sublot_closure(fresh, e) == frozenset(lot_module._bits(want[e])), \
                    (format_lot(lot), e)
            assert _edge_closures(fresh) == tuple(want)
        assert max(lot.num_edges for lot in lots) > 20

    def test_one_closure_pass_per_lot(self, monkeypatch):
        """A Lot runs its closure pass once, on first use, and keeps it:
        m ``sublot_closure`` calls and ``check_properties`` make m
        ``_closure_mask`` calls in all, one per edge in id order, and
        ``_edge_closures`` returns the kept pass.  After it,
        ``maximal_sublots``, ``enumerate_sublots``, ``free_decomposition``
        and, on an injective LOT with a complete set, ``complete_set_search``
        make none.  Building a Lot, or a child Lot of it, runs none.
        ``certify_va`` on a fresh root of m >= 2 edges makes m, one per edge
        in id order, and none for any node below it, whatever the root's
        kind: a boundary-reduced root pays its own pass, not its child's."""
        lot = random_lot(random.Random(7), 16, injective=False)
        part = sublot_closure(lot, 0)
        assert len(part) < lot.num_edges
        calls = []
        closure_mask = lot_module._closure_mask

        def counting(iv, paths, seed_edge, known=()):
            calls.append(seed_edge)
            return closure_mask(iv, paths, seed_edge, known)

        monkeypatch.setattr(lot_module, "_closure_mask", counting)
        fresh = Lot(lot.vertices, lot.edges)
        child = extract_sublot(fresh, part)
        assert calls == [] and child._closures is None
        for e in reversed(range(fresh.num_edges)):
            sublot_closure(fresh, e)
        check_properties(fresh)
        assert _edge_closures(fresh) is fresh._closures
        assert calls == list(range(fresh.num_edges))
        injective = random_lot(random.Random(1), 16)
        other = Lot(injective.vertices, injective.edges)
        _edge_closures(other)
        calls.clear()
        for lot in (fresh, other):
            assert len(maximal_sublots(lot)) >= 1
            enumerate_sublots(lot)
            free_decomposition(lot)
        assert complete_set_search(other) is not None
        assert calls == []
        rng, kinds = random.Random(8), set()
        for _ in range(80):
            root = random_lot(rng, rng.randrange(2, 13))
            calls.clear()
            kinds.add(certify_va(Lot(root.vertices, root.edges)).kind)
            assert calls == list(range(root.num_edges)), format_lot(root)
        assert kinds == {"bdry-red", "free-dec", "prime-wt", "complete-set"}


class TestChildren:
    def test_built_like_the_constructor(self, sweep6_every97):
        """``extract_sublot`` and ``boundary_reduce`` build from the
        parent's view the Lot that ``Lot(vertices, edges)`` builds from
        names, int view and root paths included: every sub-LOT, and every
        edge with either endpoint, of a sweep stride and of random LOTs,
        some neither injective nor compressed.  Where the names make no
        LOT, ``boundary_reduce`` raises what the constructor raises."""

        def built(make):
            try:
                return make()
            except LotvaError as exc:
                return type(exc), str(exc)

        def same(got, want):
            assert (got, got.name) == (want, want.name)
            assert (got._iv, got._paths) == (want._iv, want._paths)

        rng = random.Random(23)
        lots = list(sweep6_every97)
        for k in range(200):
            lot = random_lot(rng, rng.randrange(2, 16),
                             injective=rng.random() < 0.7, compressed=False)
            lots.append(Lot(lot.vertices, lot.edges, name=f"r{k}"))
        subs = leaves = refused = 0
        for lot in lots:
            for s in enumerate_sublots(lot)[0]:
                ids = sorted(s)
                vs = sublot_vertices(lot, ids)
                same(extract_sublot(lot, reversed(ids)),
                     Lot(tuple(v for v in lot.vertices if v in vs),
                         tuple(lot.edges[i] for i in ids)))
                subs += 1
            for e, edge in enumerate(lot.edges):
                for v in (edge.tail, edge.head, "nowhere"):
                    got = built(lambda: boundary_reduce(lot, e, v))
                    want = built(lambda: Lot(
                        tuple(u for u in lot.vertices if u != v),
                        tuple(d for i, d in enumerate(lot.edges) if i != e),
                        name=lot.name))
                    if isinstance(want, Lot):
                        same(got, want)
                        leaves += 1
                    else:
                        assert got == want
                        refused += 1
        assert subs > 4_000 and leaves > 500 and refused > 5_000

    def test_non_sublot_refused(self, fig1):
        for ids, text in [([5, 0, 5], "[0, 5]"), ([], "[]"), ([6], "[6]"),
                          ([1, 2, 3, 4, 9], "[1, 2, 3, 4, 9]")]:
            with pytest.raises(PreconditionError,
                               match=rf"^edge set {re.escape(text)} is not a sub-LOT$"):
                extract_sublot(fig1, ids)


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

    def test_matches_named_collapse(self, sweep6_every97):
        """``collapse`` on the int view builds the quotient the name-level
        route in ``oracles`` builds, int view and root paths included, on
        every sub-LOT of a sweep stride and of random 7-20-edge LOTs."""
        rng = random.Random(21)
        lots = list(sweep6_every97)
        for k in range(200):
            lot = random_lot(rng, rng.randrange(7, 21), compressed=k % 2 == 0)
            lots.append(Lot(lot.vertices, lot.edges, name=f"r{k}"))
        checked = 0
        for lot in lots:
            for s in enumerate_sublots(lot)[0]:
                q, x = collapse(lot, s)
                ref, y = named_collapse(lot, s)
                assert (q, q.name, x) == (ref, ref.name, y)
                assert (q._iv, q._paths) == (ref._iv, ref._paths)
                checked += 1
        assert checked > 4_000

    def test_refuses_like_named_collapse(self, sweep6_every97):
        """Both routes refuse a set that is no sub-LOT, then a LOT that is
        not injective, with the same message."""

        def refusal(route, lot, ids):
            with pytest.raises(PreconditionError) as info:
                route(lot, ids)
            return str(info.value)

        rng = random.Random(22)
        cases = [(lot, ids) for lot in sweep6_every97[::5]
                 for ids in ([], [lot.num_edges], [0], range(lot.num_edges - 1))
                 if not is_sublot(lot, ids)]
        while len(cases) < 400:
            lot = random_lot(rng, rng.randrange(3, 21), injective=False,
                             compressed=False)
            if not is_injective(lot):
                cases += [(lot, s) for s in enumerate_sublots(lot)[0]]
                cases.append((lot, [0, lot.num_edges]))
        for lot, ids in cases:
            assert refusal(collapse, lot, ids) == \
                refusal(named_collapse, lot, ids)


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

    def test_matches_name_level_search(self, fig1, sweep6_every97):
        """Collapsing int views finds the sub-LOTs, chain steps and final
        quotient that collapsing named quotients finds, or neither finds
        a complete set."""
        rng = random.Random(71)
        lots = [fig1] + list(sweep6_every97)
        lots += [random_lot(rng, rng.randrange(7, 25)) for _ in range(150)]
        found = none = 0
        for lot in lots:
            if check_properties(lot).prime:
                continue
            got = complete_set_search(lot)
            want = reference_search_complete_set(lot)
            if want is None:
                assert got is None
                none += 1
                continue
            assert got[0] == want[0]
            assert got[1].steps == want[1].steps
            final, ref = got[1].final_quotient, want[1].final_quotient
            assert final.vertices == ref.vertices and final.edges == ref.edges
            # the view and root paths a built Lot computes for itself
            assert final._iv == ref._iv and final._paths == ref._paths
            assert repr(final) == repr(ref)  # the LOT's name included
            found += 1
        assert found > 400 and none > 50


    def test_mask_quotients_match_named_quotients(self, sweep6_every97,
                                                  monkeypatch):
        """At every quotient the search meets, by the named route, the
        LOT's closures masked with the quotient's edges are the quotient's
        own closures, and ``_maximal`` on them gives the quotient's maximal
        sub-LOTs (as read off ``all_sublots``); the union of the proper
        closures answers alone exactly when there is one.  Three random
        LOTs (seeds found by a scan of 20,000) have a quotient below the
        root with two maximal sub-LOTs; no <=6-edge LOT has."""
        fallbacks = []
        touch_masks = lot_module._touch_masks

        def spy(*args):
            fallbacks.append(args)
            return touch_masks(*args)

        monkeypatch.setattr(lot_module, "_touch_masks", spy)
        rng = random.Random(73)
        lots = list(sweep6_every97)
        lots += [random_lot(rng, rng.randrange(7, 25)) for _ in range(150)]
        for seed in (956, 3003, 18719):
            rng = random.Random(seed)
            lots.append(random_lot(rng, rng.randrange(6, 16)))
        counts = {}
        below_root = 0
        for lot in lots:
            closures = _edge_closures(lot)
            assert closures == tuple(
                lot_module._closure_mask(lot._iv, lot._paths, e)
                for e in range(lot.num_edges))
            if check_properties(lot).prime:
                continue
            for quotient, orig, rep in named_chain_quotients(lot):

                def to_orig(ids):
                    return sum(1 << orig[i] for i in ids)

                alive = to_orig(range(quotient.num_edges))
                own = _edge_closures(quotient)
                assert [closures[o] & alive for o in orig] == \
                    [to_orig(lot_module._bits(c)) for c in own]
                proper = [s for s in enumerate_sublots(quotient)[0]
                          if len(s) < quotient.num_edges]
                want = [to_orig(s) for s in proper
                        if not any(s < t for t in proper)]
                fallbacks.clear()
                assert lot_module._maximal(closures, lot._iv.edges,
                                           rep, alive) == want
                assert bool(fallbacks) == (len(want) > 1)
                counts[len(want)] = counts.get(len(want), 0) + 1
                below_root += len(want) > 1 and quotient is not lot
        assert counts[0] > 400 and counts[1] > 400 and counts[2] > 5
        assert below_root >= 3

    def test_two_maximal_sublots_reach_the_fallback(self, monkeypatch):
        """A <=6-edge LOT whose root has two maximal sub-LOTs, {0, 1, 2, 4}
        and {0, 1, 3, 5}: the search takes the pieces route and still
        finds what the name-level search finds.  It builds no closures,
        view or tree walk for any quotient but the final one, and the
        final one builds no closures."""
        lot = parse_lot("edge v0 v1 v2\nedge v0 v2 v1\nedge v0 v3 v5\n"
                        "edge v0 v4 v6\nedge v1 v5 v3\nedge v1 v6 v4\n")
        assert maximal_sublots(lot) == [frozenset({0, 1, 2, 4}),
                                        frozenset({0, 1, 3, 5})]
        want = reference_search_complete_set(lot)
        calls = {"_touch_masks": 0, "_view": 0, "_root_paths": 0,
                 "_closure_mask": 0}
        for name in calls:
            real = getattr(lot_module, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lot_module, name, counting)
        got = complete_set_search(lot)
        assert calls == {"_touch_masks": 1, "_view": 1, "_root_paths": 1,
                         "_closure_mask": 0}
        assert got[0] == want[0] == [frozenset({0, 1, 2, 4})]
        assert got[1].steps == want[1].steps
        final, ref = got[1].final_quotient, want[1].final_quotient
        assert (final, final._iv, final._paths) == (ref, ref._iv, ref._paths)


def named_chain_quotients(lot):
    """Every quotient the complete-set search meets on the LOT, by the
    named route: ``named_collapse`` and ``maximal_sublots`` per quotient,
    backtracking over its list in order up to the first compressed
    prime quotient with an edge.  Each comes with the original id of each
    of its edges and, per original vertex, the original index of the
    quotient vertex it became."""
    index = {v: i for i, v in enumerate(lot.vertices)}
    met = []

    def rec(current, orig, to, depth):
        met.append((current, orig, [index[to[v]] for v in lot.vertices]))
        maximal = maximal_sublots(current)
        if not maximal:  # prime
            return depth and current.num_edges and is_compressed(current)
        for sub in maximal:
            quotient, x = named_collapse(current, sub)
            inside = sublot_vertices(current, sub)
            kept = tuple(o for i, o in enumerate(orig) if i not in sub)
            if rec(quotient, kept, {v: x if w in inside else w
                                    for v, w in to.items()}, depth + 1):
                return True
        return False

    rec(lot, tuple(range(lot.num_edges)), {v: v for v in lot.vertices}, 0)
    return met


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
        """Linking branches by the edge closures finds the decomposition a
        binary counter over the branches at each vertex finds, or none, on
        every <=6-edge LOT up to orientation (which a decomposition
        ignores), a <=6 stride and random and glued LOTs.  There is none
        where some edge's closure is the whole LOT: the two sides are
        proper sub-LOTs holding every edge."""
        rng = random.Random(67)
        lots = [*iter_small_lots(6, orientations=False), *sweep6_every97]
        for _ in range(150):
            lots.append(random_lot(rng, rng.randrange(2, 13),
                                   injective=rng.random() < 0.7))
        rng = random.Random(68)
        for _ in range(100):
            lots.append(random_lot(rng, rng.randrange(13, 31),
                                   injective=rng.random() < 0.7))
            lots.append(glued_lot(rng, rng.randrange(13, 31)))
        found = whole = 0
        for lot in lots:
            fd = free_decomposition(lot)
            assert fd == oracle_free_decomposition(lot)
            found += fd is not None
            if (1 << lot.num_edges) - 1 in _edge_closures(lot):
                assert fd is None
                whole += 1
        assert 50 < found < len(lots) - 500
        assert whole > 1000

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

    def test_sign_of_unknown_vertex(self, fig1):
        with pytest.raises(StructureError, match="unknown vertex 'zz'"):
            sign_change(fig1, {"b"}).sign_of("zz")


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
