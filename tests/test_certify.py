import itertools
import random

import pytest

from lotva import (BaseTrivial, BoundaryReduction, CertifyFailure, ChainStep,
                   CollapseChain, CompleteSetRelative, FreeDecompositionNode,
                   Lot, PreconditionError, PrimeWeightTest, boundary_reduce,
                   certify_va, parse_certificate, parse_log, parse_lot,
                   serialize_certificate, verify_certificate)
from lotva.sweep import iter_small_lots, random_lot


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
        lot = parse_log("vertex a\n").as_lot()
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
        lot = parse_log("vertex a\n").as_lot()
        assert "(base)" in serialize_certificate(certify_va(lot))

    def test_parse_garbage(self):
        from lotva import ParseError
        with pytest.raises(ParseError):
            parse_certificate("(prime-wt (flipped 0)")
        with pytest.raises(ParseError):
            parse_certificate("(wat)")

    def test_nesting_depth_limit(self):
        from lotva import ParseError
        from lotva.certify import MAX_CERT_DEPTH

        def chain(k):  # k bdry-red nodes nest k + 1 parentheses deep
            return ("(bdry-red (edge 0) (vertex a) " * k + "(base)"
                    + ")" * k)

        cert = parse_certificate(chain(MAX_CERT_DEPTH - 1))
        for _ in range(MAX_CERT_DEPTH - 1):
            cert = cert.child
        assert cert == BaseTrivial()
        with pytest.raises(ParseError, match="deeper than"):
            parse_certificate(chain(MAX_CERT_DEPTH))


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
