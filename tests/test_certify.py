import itertools
import random

import pytest

from lotva import (BaseTrivial, BoundaryReduction, CertifyFailure, ChainStep,
                   CollapseChain, CompleteSetRelative, FreeDecompositionNode,
                   Lot, LotEdge, ParseError, PreconditionError,
                   PrimeWeightTest, boundary_reduce, certify_va,
                   parse_certificate, parse_lot,
                   serialize_certificate, verify_certificate)
from lotva.certify import MAX_CERT_DEPTH
from lotva.sweep import iter_small_lots, random_lot
from oracles import reference_parse_certificate


def nested(k):
    """k bdry-red nodes around a base: k + 1 parentheses deep."""
    return "(bdry-red (edge 0) (vertex a) " * k + "(base)" + ")" * k


def int_spelled_lot():
    """A LOT whose names int() reads as ints that str() spells otherwise."""
    a, b, c = "01", "02", "03"
    return Lot((a, b, c), (LotEdge(a, b, c), LotEdge(b, c, a)))


def node_count(cert):
    if isinstance(cert, BoundaryReduction):
        return 1 + node_count(cert.child)
    if isinstance(cert, FreeDecompositionNode):
        return 1 + node_count(cert.left_child) + node_count(cert.right_child)
    if isinstance(cert, CompleteSetRelative):
        return 1 + sum(node_count(c) for c in cert.children)
    return 1


class TestPipeline:
    def test_prime_fixture(self, prime):
        cert = certify_va(prime)
        assert isinstance(cert, PrimeWeightTest)
        assert cert.flipped == frozenset()

    def test_fig1_three_nodes(self, fig1):
        cert = certify_va(fig1)
        assert isinstance(cert, CompleteSetRelative)
        assert cert.sublots == (frozenset({1, 2, 3, 4}),)
        assert cert.flipped == frozenset()
        assert node_count(cert) == 3
        child = cert.children[0]
        assert isinstance(child, BoundaryReduction)
        # in the extracted sub-LOT the removed edge a-b is edge 0, leaf a
        assert child.edge_id == 0 and child.outer_vertex == "a"
        grand = child.child
        assert isinstance(grand, PrimeWeightTest)
        assert grand.flipped == frozenset({0})

    def test_fig3_free_decomposition(self, fig3):
        cert = certify_va(fig3)
        assert isinstance(cert, FreeDecompositionNode)
        assert cert.shared_vertex == "z"
        for side in (cert.left_child, cert.right_child):
            assert isinstance(side, BoundaryReduction)
            assert isinstance(side.child, PrimeWeightTest)

    def test_single_vertex(self):
        lot = parse_lot("vertex a\n")
        assert isinstance(certify_va(lot), BaseTrivial)

    def test_non_injective_rejected(self):
        lot = parse_lot("edge a b c\nedge b c a\nedge c d a\n")
        with pytest.raises(PreconditionError):
            certify_va(lot)

    def test_non_compressed_rejected(self):
        lot = parse_lot("vertex a\nvertex b\nedge a b a\n")
        with pytest.raises(PreconditionError):
            certify_va(lot)

    def test_random_sweep_sound(self):
        rng = random.Random(55)
        for _ in range(150):
            lot = random_lot(rng, rng.randrange(2, 8))
            cert = certify_va(lot)
            assert not isinstance(cert, CertifyFailure)
            assert verify_certificate(lot, cert).accepted

    def test_small_exhaustive_slice(self):
        for lot in itertools.islice(iter_small_lots(5), 0, 1500):
            cert = certify_va(lot)
            assert not isinstance(cert, CertifyFailure)
            assert verify_certificate(lot, cert).accepted


class TestSerialization:
    def test_round_trip_fixtures(self, fig1, fig3, prime):
        for lot in (fig1, fig3, prime):
            cert = certify_va(lot)
            text = serialize_certificate(cert)
            back = parse_certificate(text)
            assert back == cert
            assert verify_certificate(lot, back).accepted

    def test_deterministic(self, fig1):
        a = serialize_certificate(certify_va(fig1))
        b = serialize_certificate(certify_va(fig1))
        assert a == b

    def test_keywords_present(self, fig1, fig3, prime):
        assert "(complete-set" in serialize_certificate(certify_va(fig1))
        assert "(free-dec" in serialize_certificate(certify_va(fig3))
        assert "(prime-wt" in serialize_certificate(certify_va(prime))
        lot = parse_lot("vertex a\n")
        assert "(base)" in serialize_certificate(certify_va(lot))

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_certificate("(prime-wt (flipped 0)")
        with pytest.raises(ParseError):
            parse_certificate("(wat)")

    @pytest.mark.parametrize("text, message", [
        ("(prime-wt (flipped 1) (flipped 2) (pos) (neg) (junk (x)) 7)",
         r"\(prime-wt \.\.\.\) takes 3 items, got 6"),
        ("(bdry-red (edge 0) (vertex a) (edge 5) (base))",
         r"\(bdry-red \.\.\.\) takes 3 items, got 4"),
        ("(base junk (x))", r"\(base \.\.\.\) takes 0 items, got 2"),
        ("(bdry-red (vertex a) (edge 0) (base))",
         r"expected a \(edge \.\.\.\) field, got \['vertex', 'a'\]"),
        ("(bdry-red (edge 0 1) (vertex a) (base))",
         r"\(edge \.\.\.\) takes 1 item, got 2"),
        ("(prime-wt (flipped) (pos (a b) c) (neg))", "expected a corner pair"),
        ("(free-dec (left 0) (right 1) (shared a) (base))",
         r"\(free-dec \.\.\.\) takes 5 items, got 4"),
        ("(complete-set (sublots) (chain) (final) (flipped) (pos) (neg) "
         "(children))", r"expected a \(vertices \.\.\.\) field"),
        ("(complete-set (sublots) (chain) (final (vertices a) x) (flipped) "
         "(pos) (neg) (children))", r"expected a \(edge \.\.\.\) field"),
        ("(complete-set (sublots) (chain (step (0) a x)) (final (vertices a)) "
         "(flipped) (pos) (neg) (children))",
         r"\(step \.\.\.\) takes 2 items, got 3"),
    ])
    def test_reader_takes_only_the_writers_layout(self, text, message):
        """Every field in the writer's order, each once, and nothing else."""
        with pytest.raises(ParseError, match=message):
            parse_certificate(text)

    def test_nesting_depth_limit(self):
        cert = parse_certificate(nested(MAX_CERT_DEPTH - 1))
        for _ in range(MAX_CERT_DEPTH - 1):
            cert = cert.child
        assert cert == BaseTrivial()
        with pytest.raises(ParseError, match="deeper than"):
            parse_certificate(nested(MAX_CERT_DEPTH))


class TestAtoms:
    """Names are single atoms read back verbatim; edge ids are the atoms
    int() accepts."""

    def test_int_spelled_names_round_trip(self):
        lot = int_spelled_lot()
        cert = certify_va(lot)
        text = serialize_certificate(cert)
        assert parse_certificate(text) == cert
        assert verify_certificate(lot, parse_certificate(text)).accepted
        # the reader before read "01" back as "1"
        verdict = verify_certificate(lot, reference_parse_certificate(text))
        assert verdict.failing_check == "prime-weight-test-witness-match"

    @pytest.mark.parametrize("name", ["a b", "", "a\tb", "a\u2003b", "a(",
                                      ")b", "()"])
    def test_writer_refuses_names_it_cannot_read_back(self, name):
        base = BaseTrivial()
        one = frozenset({0})

        def complete_set(step_vertex, final_vertex, child=base):
            chain = CollapseChain((ChainStep(one, step_vertex),),
                                  Lot((final_vertex,), ()))
            return CompleteSetRelative((one,), chain, frozenset(), (), (),
                                       (child,))

        for cert in (BoundaryReduction(0, name, base),
                     FreeDecompositionNode(one, one, name, base, base),
                     PrimeWeightTest(frozenset(), (("a", name),), ()),
                     PrimeWeightTest(frozenset(), (), ((name, "a"),)),
                     complete_set(name, "a"), complete_set("a", name),
                     BoundaryReduction(0, "a", BoundaryReduction(0, name, base)),
                     FreeDecompositionNode(one, one, "a", base,
                                           BoundaryReduction(0, name, base)),
                     complete_set("a", "a", BoundaryReduction(0, name, base))):
            with pytest.raises(PreconditionError, match="one certificate atom"):
                serialize_certificate(cert)

    def test_writer_refuses_a_spaced_vertex_of_a_certified_lot(self):
        lot = Lot(("a b", "c", "d"), (LotEdge("a b", "c", "d"),
                                      LotEdge("c", "d", "a b")))
        cert = certify_va(lot)
        assert verify_certificate(lot, cert).accepted
        with pytest.raises(PreconditionError, match="'a b'"):
            serialize_certificate(cert)

    @pytest.mark.parametrize("atom, value", [("+0", 0), ("1_0", 10),
                                             ("\u0663", 3), ("007", 7),
                                             ("-1", -1)])
    def test_edge_id_atoms_read_as_int_reads_them(self, atom, value):
        text = f"(bdry-red (edge {atom}) (vertex a) (base))"
        assert parse_certificate(text).edge_id == value
        assert reference_parse_certificate(text).edge_id == value
        text = f"(prime-wt (flipped {atom} 5) (pos) (neg))"
        assert parse_certificate(text).flipped == {value, 5}

    def test_em_space_separates_atoms(self):
        text = "(bdry-red (edge 0) (vertex a) (base))"
        spaced = text.replace(" ", "\u2003")
        assert parse_certificate(spaced) == parse_certificate(text)
        assert reference_parse_certificate(spaced) == parse_certificate(text)

    @pytest.mark.parametrize("atom", ["1.5", "a", "0x1",
                                      pytest.param("9" * 5000, id="9x5000")])
    def test_other_atoms_are_not_edge_ids(self, atom):
        for text in (f"(bdry-red (edge {atom}) (vertex a) (base))",
                     f"(prime-wt (flipped 0 {atom}) (pos) (neg))"):
            with pytest.raises(ParseError, match="expected edge id"):
                parse_certificate(text)


class TestReaderAgainstReference:
    """The one-pass reader against the character-by-character reader it
    replaced (``oracles.reference_parse_certificate``)."""

    def test_same_values_on_the_five_edge_sweep_and_fixtures(self, fig1,
                                                             fig3, prime):
        lots = [*iter_small_lots(5), fig1, fig3, prime]
        assert len(lots) == 6445
        for lot in lots:
            text = serialize_certificate(certify_va(lot))
            assert parse_certificate(text) == reference_parse_certificate(text)

    @pytest.mark.parametrize("text", [
        "", ")", "(", "(base))", "(base) x", "x y", "x )", "(base) (",
        "(base) (base)", "()", "x",
        "(prime-wt (flipped 0) (pos (a)) (neg))",
        "(prime-wt (flipped 0) (pos (a (b))) (neg))",
        pytest.param(nested(MAX_CERT_DEPTH), id="depth-501"),
        pytest.param("(bdry-red (edge " + "9" * 5000 + ") (vertex a) (base))",
                     id="edge-id-of-5000-digits")])
    def test_same_parse_error(self, text):
        with pytest.raises(ParseError) as new:
            parse_certificate(text)
        with pytest.raises(ParseError) as ref:
            reference_parse_certificate(text)
        assert str(new.value) == str(ref.value)

    def test_same_value_at_the_depth_limit(self):
        # == on 499 nested nodes would pass the recursion limit; the
        # writer recurses once per node
        text = nested(MAX_CERT_DEPTH - 1)
        assert (serialize_certificate(parse_certificate(text))
                == serialize_certificate(reference_parse_certificate(text)))

    def test_int_spelled_atoms_outside_id_positions_differ(self):
        text = "(prime-wt (flipped +1) (pos (01 +0) (1_0 \u0663)) (neg))"
        assert parse_certificate(text) == PrimeWeightTest(
            frozenset({1}), (("01", "+0"), ("1_0", "\u0663")), ())
        assert reference_parse_certificate(text) == PrimeWeightTest(
            frozenset({1}), (("1", "0"), ("10", "3")), ())
        # an error message quotes such an atom as the text it is
        with pytest.raises(ParseError, match="keyword '05'$"):
            parse_certificate("(05)")
        with pytest.raises(ParseError, match="keyword 5$"):
            reference_parse_certificate("(05)")


class TestVerifier:
    def test_boundary_reduce_helper(self):
        lot = parse_lot("edge a b c\nedge b c a\nedge c d b\n")
        sub = boundary_reduce(lot, 2, "d")
        assert sub.num_edges == 2 and "d" not in sub.vertices

    def test_rejects_flip_inside_sublot(self, fig1):
        c = certify_va(fig1)
        bad = CompleteSetRelative(c.sublots, c.chain, frozenset({1}),
                                  c.pos_corners, c.neg_corners, c.children)
        v = verify_certificate(fig1, bad)
        assert not v.accepted and v.failing_check == "complete-set-flipped-outside"

    def test_rejects_illegal_boundary_reduction(self, fig1):
        # f occurs as the label of edge 0, so removing e-f at f is illegal
        bad = BoundaryReduction(5, "f", BaseTrivial())
        v = verify_certificate(fig1, bad)
        assert not v.accepted
        assert v.failing_check == "boundary-reduction-vertex-unlabeled"

    def test_rejects_wrong_collapse_vertex(self, fig1):
        c = certify_va(fig1)
        chain = CollapseChain((ChainStep(frozenset({1, 2, 3, 4}), "b"),),
                              c.chain.final_quotient)
        bad = CompleteSetRelative(c.sublots, chain, c.flipped,
                                  c.pos_corners, c.neg_corners, c.children)
        v = verify_certificate(fig1, bad)
        assert not v.accepted and v.failing_check == "complete-set-collapse-vertex"

    def test_rejects_non_full_part(self, fig1):
        c = certify_va(fig1)
        part = frozenset({1, 2, 4})
        chain = CollapseChain((ChainStep(part, "a"),), c.chain.final_quotient)
        bad = CompleteSetRelative((part,), chain, c.flipped,
                                  c.pos_corners, c.neg_corners, c.children)
        v = verify_certificate(fig1, bad)
        assert not v.accepted and v.failing_check == "complete-set-full"

    def test_rejects_wrong_node_kind(self, fig1):
        v = verify_certificate(fig1, BaseTrivial())
        assert not v.accepted and v.failing_check == "base-edge-count"

    def test_rejects_fake_prime(self, fig1):
        bad = PrimeWeightTest(frozenset(), (), ())
        v = verify_certificate(fig1, bad)
        assert not v.accepted and v.failing_check == "prime-weight-test-prime"

    def test_rejects_tampered_witness(self, prime):
        c = certify_va(prime)
        bad = PrimeWeightTest(c.flipped, c.pos_corners[::-1], c.neg_corners)
        v = verify_certificate(prime, bad)
        assert not v.accepted
        assert v.failing_check == "prime-weight-test-witness-match"

    def test_rejects_bad_free_partition(self, fig3):
        c = certify_va(fig3)
        bad = FreeDecompositionNode(c.left_edges, c.left_edges,
                                    c.shared_vertex, c.left_child, c.right_child)
        v = verify_certificate(fig3, bad)
        assert not v.accepted
        assert v.failing_check == "free-decomposition-partition"

    def test_rejects_bad_shared_vertex(self, fig3):
        c = certify_va(fig3)
        bad = FreeDecompositionNode(c.left_edges, c.right_edges, "x1",
                                    c.left_child, c.right_child)
        v = verify_certificate(fig3, bad)
        assert not v.accepted
        assert v.failing_check == "free-decomposition-single-shared-vertex"

    def test_rejects_swapped_lot(self, fig1, fig3):
        assert not verify_certificate(fig3, certify_va(fig1)).accepted
        assert not verify_certificate(fig1, certify_va(fig3)).accepted

    def test_edge_counts_strictly_decrease(self, fig1, fig3):
        def walk(lot, cert):
            if isinstance(cert, BoundaryReduction):
                child = boundary_reduce(lot, cert.edge_id, cert.outer_vertex)
                assert child.num_edges < lot.num_edges
                walk(child, cert.child)
            elif isinstance(cert, FreeDecompositionNode):
                from lotva import extract_sublot
                for part, sub in ((cert.left_edges, cert.left_child),
                                  (cert.right_edges, cert.right_child)):
                    child = extract_sublot(lot, part)
                    assert child.num_edges < lot.num_edges
                    walk(child, sub)
            elif isinstance(cert, CompleteSetRelative):
                from lotva import extract_sublot
                for part, sub in zip(cert.sublots, cert.children):
                    child = extract_sublot(lot, part)
                    assert child.num_edges < lot.num_edges
                    walk(child, sub)

        for lot in (fig1, fig3):
            walk(lot, certify_va(lot))
