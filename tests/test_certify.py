import hashlib
import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from lotva import (BaseTrivial, BoundaryReduction, CertifyFailure, ChainStep,
                   CollapseChain, CompleteSetRelative, FreeDecompositionNode,
                   Lot, LotEdge, LotvaError, ParseError, PreconditionError,
                   PrimeWeightTest, StructureError, boundary_reduce, build_complex,
                   certify_va, check_properties, collapse,
                   derive_subcomplexes, enumerate_sublots, extract_sublot,
                   format_lot, parse_certificate, parse_lot, reorient,
                   serialize_certificate, signed_relative_forest_check,
                   sublot_closure, verify_certificate)
import lotva.certify
import lotva.lot
import lotva.orient
import lotva.weights
from lotva.certify import MAX_CERT_DEPTH, _closes_up
from lotva.lot import _edge_closures, maximal_sublots
from lotva.orient import FlipForests
from lotva.sweep import iter_small_lots, random_lot
from oracles import (collapse_vertex_of, reference_certify, reference_closure,
                     reference_parse_certificate, reference_replay_chain,
                     reference_serialize_certificate,
                     reference_verify_complete_set)


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

    def test_prime_root_at_scale(self):
        """A 24-edge prime root whose orientation walk backs up 96 times
        before the pruned walk finds the mask (456,561 times unpruned): its
        certificate is pinned byte for byte."""
        lot = random_lot(random.Random(6), 24)
        assert check_properties(lot).prime
        cert = certify_va(lot)
        assert isinstance(cert, PrimeWeightTest)
        assert verify_certificate(lot, cert).accepted
        assert hashlib.sha256(serialize_certificate(cert).encode()).hexdigest() \
            == "16be10dd38ccfd595896ba36eb0082db5c8fec9debace1540e65743dbfbf242e"

    @pytest.mark.parametrize("seed, m", [(25, 40), (11, 30)])
    def test_hard_orientation_walks(self, seed, m):
        """Prime roots whose orientation walks go on checked certify, and
        their certificates verify; the unchecked walk on the 40-edge one
        ran for over 5 minutes."""
        lot = random_lot(random.Random(seed), m)
        cert = certify_va(lot)
        assert not isinstance(cert, CertifyFailure)
        assert verify_certificate(lot, cert).accepted

    def test_small_exhaustive_slice(self):
        for lot in itertools.islice(iter_small_lots(5), 0, 1500):
            cert = certify_va(lot)
            assert not isinstance(cert, CertifyFailure)
            assert verify_certificate(lot, cert).accepted


_NO_PRIME_ORIENTATION = "no orientation of {} gives lk+/lk- forests"


def _failing_walks(monkeypatch, fails):
    """certify.py's ``FlipForests``, whose orientation walk returns None
    where ``fails(edges, fixed)`` holds and runs as before elsewhere; the
    node's ``edges`` are (tail, head, label) triples of root indices."""
    real = lotva.certify.FlipForests

    def forests(n, edges, fixed=()):
        walk = real(n, edges, fixed)
        if fails(edges, fixed):
            walk.first_forest_flip = lambda budget=None: None
        return walk

    monkeypatch.setattr(lotva.certify, "FlipForests", forests)


class TestGiveUp:
    """Each search of the prover that comes up empty ends ``certify_va``
    with a ``CertifyFailure`` naming it, from the root or from a node
    under a boundary reduction, either side of a free decomposition or a
    complete set."""

    def test_prime_root(self, prime, monkeypatch):
        monkeypatch.setattr(FlipForests, "first_forest_flip",
                            lambda self, budget=None: None)
        assert certify_va(prime) == CertifyFailure(
            "prime-orientation-search", _NO_PRIME_ORIENTATION.format("prime"))

    @pytest.mark.parametrize("root, source, only", [
        ("bdry-red", "edge v0 v1 v2\nedge v0 v2 v1\nedge v1 v3 v0\n", None),
        ("free-dec", "fig3", "x1"),
        ("free-dec", "fig3", "y1"),
        ("complete-set", "fig1", None)])
    def test_prime_node_under(self, fixture_dir, monkeypatch, root, source, only):
        """Walks with nothing fixed fail (on the sub-LOT holding vertex
        ``only``, if given): the first prime node's failure is the
        result.  That node's LOT is a sub-LOT, which has no name."""
        path = fixture_dir / f"{source}.lot"
        lot = parse_lot(path.read_text() if path.exists() else source)
        assert certify_va(lot).kind == root
        _failing_walks(monkeypatch, lambda edges, fixed: not fixed and (
            only is None or lot.vertices.index(only) in
            {v for t, h, _ in edges for v in (t, h)}))
        assert certify_va(lot) == CertifyFailure(
            "prime-orientation-search", _NO_PRIME_ORIENTATION.format("lot"))

    def test_prime_node_under_boundary_reductions_named(self, monkeypatch):
        """A node that only boundary reductions lead to is still named after
        the root in the failure detail."""
        lot = parse_lot("lot r\nedge v0 v1 v2\nedge v0 v2 v1\nedge v1 v3 v0\n")
        assert certify_va(lot).kind == "bdry-red"
        _failing_walks(monkeypatch, lambda edges, fixed: True)
        assert certify_va(lot) == CertifyFailure(
            "prime-orientation-search", _NO_PRIME_ORIENTATION.format("r"))

    def test_relative_walk(self, fig1, monkeypatch):
        _failing_walks(monkeypatch, lambda edges, fixed: bool(fixed))
        assert certify_va(fig1) == CertifyFailure(
            "relative-orientation-search",
            "no orientation gives relative lk+/lk- forests")

    def test_complete_set_search(self, fig1, monkeypatch):
        monkeypatch.setattr(lotva.certify, "_chain_search",
                            lambda lot, emask, vmask: None)
        assert certify_va(fig1) == CertifyFailure(
            "complete-set-search",
            "non-prime LOT with neither a free decomposition nor a complete set")


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

    def test_matches_nested_list_writer(self, sweep6_every97):
        """Writing lines directly gives the bytes the nested-list writer
        gave, on names that are not node keywords."""
        rng = random.Random(17)
        lots = list(sweep6_every97)
        lots += [random_lot(rng, rng.randrange(7, 17)) for _ in range(120)]
        kinds = set()
        for lot in lots:
            cert = certify_va(lot)
            assert serialize_certificate(cert) == reference_serialize_certificate(cert)
            kinds.add(cert.kind)
        assert kinds == {"base", "bdry-red", "free-dec", "prime-wt", "complete-set"}

    def test_keyword_named_vertex_keeps_the_layout(self, fixture_dir):
        """A vertex may be named like a node keyword.  Its corner pairs
        stay on the pos and neg lines, where the nested-list writer put
        them one per line; both texts read back as the certificate."""
        text = (fixture_dir / "fig1.lot").read_text()
        lot = parse_lot(re.sub(r"\bf\b", "base", text))
        assert "base" in lot.vertices and "f" not in lot.vertices
        cert = certify_va(lot)
        out = serialize_certificate(cert)
        assert out == """\
(complete-set
  (sublots (1 2 3 4))
  (chain
    (step (1 2 3 4) a))
  (final (vertices g a base) (edge g a base) (edge a base g))
  (flipped)
  (pos (base g) (d a) (e b) (b c) (c d) (g e))
  (neg (base a) (d b) (e c) (b d) (c e) (g base))
  (children
    (bdry-red
      (edge 0)
      (vertex a)
      (prime-wt (flipped 0) (pos (e c) (b c) (c d)) (neg (e b) (b d) (c e))))))
"""
        old = reference_serialize_certificate(cert)
        assert old != out and "  (pos\n    (base g)\n" in old
        assert parse_certificate(out) == parse_certificate(old) == cert

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
        # the writer lists each id once, in increasing order
        ("(prime-wt (flipped 3 1 1) (pos) (neg))",
         r"edge ids must be distinct and increasing, got \(3 1 1\)"),
        ("(free-dec (left 1 0 0) (right 2) (shared a) (base) (base))",
         r"edge ids must be distinct and increasing, got \(1 0 0\)"),
        ("(complete-set (sublots (0 0)) (chain) (final (vertices a)) "
         "(flipped) (pos) (neg) (children))",
         r"edge ids must be distinct and increasing, got \(0 0\)"),
        ("(prime-wt (flipped 1 01) (pos) (neg))",
         r"edge ids must be distinct and increasing, got \(1 01\)"),
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
        # ids in a field are increasing, and 50 is above every value here
        text = f"(prime-wt (flipped {atom} 50) (pos) (neg))"
        assert parse_certificate(text).flipped == {value, 50}

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
        # a complete-set node's collapse chain is read before its
        # sublots, so a fault in either names the chain's
        "(complete-set (sublots x) (chain) (final) (flipped) (pos) (neg) "
        "(children))",
        "(complete-set (sublots x) (chain y) (final (vertices a)) (flipped) "
        "(pos) (neg) (children))",
        pytest.param(nested(MAX_CERT_DEPTH), id="depth-501"),
        pytest.param("(bdry-red (edge " + "9" * 5000 + ") (vertex a) (base))",
                     id="edge-id-of-5000-digits")])
    def test_same_parse_error(self, text):
        with pytest.raises(ParseError) as new:
            parse_certificate(text)
        with pytest.raises(ParseError) as ref:
            reference_parse_certificate(text)
        assert str(new.value) == str(ref.value)

    # the node and field keywords a certificate holds, and the parentheses
    EDITS = ("base", "bdry-red", "free-dec", "prime-wt", "complete-set",
             "edge", "vertex", "left", "right", "shared", "flipped", "pos",
             "neg", "sublots", "chain", "step", "final", "vertices",
             "children", "(", ")")

    def test_every_single_token_edit(self, fig1, fig3, prime):
        """Each token of the fig1, fig3 and prime certificates deleted,
        doubled, or replaced by a keyword or a parenthesis: the same value,
        or the same error class and message, as the former reader's,
        including the StructureError of an edited final quotient."""
        def outcome(parse, text):
            try:
                return "value", parse(text)
            except LotvaError as exc:
                return type(exc), str(exc)

        sizes, seen = [], Counter()
        for lot in (fig1, fig3, prime):
            tokens = serialize_certificate(certify_va(lot)).replace(
                "(", " ( ").replace(")", " ) ").split()
            sizes.append(len(tokens))
            for j, tok in enumerate(tokens):
                for edit in ([], [tok, tok], *([x] for x in self.EDITS if x != tok)):
                    text = " ".join(tokens[:j] + edit + tokens[j + 1:])
                    got = outcome(parse_certificate, text)
                    assert got == outcome(lambda s: reference_parse_certificate(
                        s, int_atoms=False), text), text
                    seen[got[0]] += 1
        assert sizes == [154, 97, 28]
        assert {"value", ParseError, StructureError} <= set(seen)

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
        # the detail names the node's own cell, also where the node's edge
        # ids are not the root's: under a leaf peeled off edge 0, fig1's
        # edge j is the root's edge j + 1
        leafed = Lot(("p",) + fig1.vertices, (LotEdge("p", "g", "a"),) + fig1.edges)
        for lot, cert in ((fig1, bad), (leafed, BoundaryReduction(0, "p", bad))):
            v = verify_certificate(lot, cert)
            assert (v.failing_check, v.detail) == ("complete-set-full", "part 0, cell d_3")

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

    def test_rejects_mistyped_fields_as_malformed(self, fig1):
        """A hand-built node whose field has the wrong type is rejected as
        malformed-certificate, with the error's text, and never raises."""
        c = certify_va(fig1)
        probes = [
            (replace(c, pos_corners=(5,)), "expected a corner pair, got 5"),
            (replace(c, pos_corners=tuple(map(list, c.pos_corners))),
             "expected a corner pair, got "),
            (replace(c, flipped=frozenset({"x"})), "'<=' not supported"),
            (replace(c, sublots=(frozenset({"x"}),)), "'<=' not supported"),
            (replace(c, chain=None), "'NoneType' object has no attribute"),
            (BoundaryReduction("0", "a", BaseTrivial()), "'<=' not supported")]
        for bad, detail in probes:
            v = verify_certificate(fig1, bad)
            assert (v.accepted, v.failing_check) == (False, "malformed-certificate")
            assert v.detail.startswith(detail), v.detail
        assert verify_certificate(fig1, c)

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


def certificate_nodes(lot, cert):
    """(node LOT, node) for every node of a certificate, parents first."""
    yield lot, cert
    if isinstance(cert, BoundaryReduction):
        yield from certificate_nodes(
            boundary_reduce(lot, cert.edge_id, cert.outer_vertex), cert.child)
    elif isinstance(cert, FreeDecompositionNode):
        for part, child in ((cert.left_edges, cert.left_child),
                            (cert.right_edges, cert.right_child)):
            yield from certificate_nodes(extract_sublot(lot, part), child)
    elif isinstance(cert, CompleteSetRelative):
        for part, child in zip(cert.sublots, cert.children):
            yield from certificate_nodes(extract_sublot(lot, part), child)


def complete_set_roots(lots):
    """(LOT, certificate) for the LOTs whose root node is a complete set."""
    for lot in lots:
        cert = certify_va(lot)
        if isinstance(cert, CompleteSetRelative):
            yield lot, cert


def tampers(lot, cert):
    """(check, detail or None, LOT, node): tampered forms of a complete-set
    root, each with the check that must reject it first and, where given,
    that check's detail."""
    m = lot.num_edges
    steps, final = cert.chain.steps, cert.chain.final_quotient
    first = steps[0]

    def chained(steps, final=final, **fields):
        return replace(cert, chain=CollapseChain(tuple(steps), final), **fields)

    # LOTs near this one: a label repeated, a label moved onto an endpoint
    # of its edge, and an unlabeled leaf hung on
    e0, e1 = lot.edges[:2]
    repeated = Lot(lot.vertices, (e0, LotEdge(e1.tail, e1.head, e0.label),
                                  *lot.edges[2:]))
    free = next(v for v in lot.vertices
                if all(e.label != v for e in lot.edges))
    i = next(i for i, e in enumerate(lot.edges) if free in (e.tail, e.head))
    e = lot.edges[i]
    squashed = Lot(lot.vertices, lot.edges[:i] + (LotEdge(e.tail, e.head, free),)
                   + lot.edges[i + 1:])
    stem = next(v for v in lot.vertices if v != free)
    leafy = Lot(lot.vertices + ("leaf",),
                lot.edges + (LotEdge(stem, "leaf", free),))
    yield "node-injective", None, repeated, cert
    yield "node-compressed", None, squashed, cert
    yield "complete-set-boundary-reduced", None, leafy, cert
    yield ("prime-weight-test-boundary-reduced", None, leafy,
           PrimeWeightTest(frozenset(), (), ()))

    yield ("complete-set-children-count", None, lot,
           replace(cert, children=cert.children[1:]))
    yield "complete-set-chain-nonempty", None, lot, chained(())
    for part, detail in ((frozenset(), "empty part"),
                         (frozenset({m}), "edge id out of range"),
                         (cert.sublots[0], "")):
        yield ("complete-set-disjoint", detail, lot,
               replace(cert, sublots=cert.sublots + (part,),
                       children=cert.children + (BaseTrivial(),)))

    yield ("complete-set-step-sublot", "edges already collapsed", lot,
           chained(steps + (first,)))
    yield ("complete-set-step-sublot", "", lot,
           chained((ChainStep(frozenset(range(m)), first.collapse_vertex),
                    *steps[1:])))
    maximal = maximal_sublots(lot)
    inner = next((p for p in enumerate_sublots(lot)[0]
                  if len(p) < m and p not in maximal), None)
    if inner is not None:
        yield ("complete-set-step-maximal", None, lot,
               chained((ChainStep(inner, collapse_vertex_of(lot, inner)),
                        *steps[1:])))
    yield ("complete-set-final-quotient-match", None, lot,
           chained(steps, Lot(final.vertices[::-1], final.edges)))
    if len(steps) > 1:
        # stop after the first step, on the quotient it reaches
        yield ("complete-set-final-prime", None, lot,
               chained(steps[:1], collapse(lot, first.sublot_edges)[0]))
        yield ("complete-set-sublots-match-chain", None, lot,
               replace(cert, sublots=cert.sublots[::-1],
                       children=cert.children[::-1]))
    for other in maximal:
        if other == first.sublot_edges:
            continue
        # another maximal sub-LOT as the one step, ending where it leads
        quotient = collapse(lot, other)[0]
        rep = check_properties(quotient)
        check = ("complete-set-sublots-match-chain"
                 if rep.prime and rep.compressed else "complete-set-final-prime")
        yield check, None, lot, chained(
            (ChainStep(other, collapse_vertex_of(lot, other)),), quotient)
    yield ("malformed-certificate", None, lot,
           replace(cert, children=(CertifyFailure("stage", "detail"),
                                   *cert.children[1:])))


class TestCheckNames:
    def test_each_check_rejects_its_tamper(self, fig1, sweep6_every97):
        """The verifier checks no other test names, each met by a tampered
        certificate of fig1 or of a <=6-edge complete-set root.

        Two checks of a complete-set node are never met.  complete-set-exponent-sums holds for
        every plain Lot: cell d_i of K(lot) reads tail_i label_i head_i^-1
        label_i^-1, whose exponent sum is 0.  complete-set-sublot-in-original
        holds once the chain replays: the first part is a sub-LOT of the
        LOT itself, and each later part avoids the vertices of the parts
        before it (complete-set-disjoint), so no collapse touches it and it
        is a sub-LOT of the original exactly when it is one of the
        quotient.  malformed-certificate is met through a child of no known
        kind; the verifier raises a library error only
        for a non-unique collapse vertex, and every quotient of an
        injective LOT is injective, since a vertex of a sub-LOT other than
        its collapse vertex labels an edge inside it and so no edge
        outside."""
        seen = Counter()
        roots = [(fig1, certify_va(fig1)), *complete_set_roots(sweep6_every97)]
        for lot, cert in roots:
            for check, detail, bad_lot, bad in tampers(lot, cert):
                verdict = verify_certificate(bad_lot, bad)
                assert (verdict.accepted, verdict.failing_check) == (False, check)
                if detail is not None:
                    assert verdict.detail == detail
                seen[check, detail] += 1
        assert {check for check, _ in seen} == {
            "node-injective", "node-compressed",
            "prime-weight-test-boundary-reduced",
            "complete-set-boundary-reduced", "complete-set-children-count",
            "complete-set-chain-nonempty", "complete-set-disjoint",
            "complete-set-step-sublot", "complete-set-step-maximal",
            "complete-set-final-quotient-match", "complete-set-final-prime",
            "complete-set-sublots-match-chain", "malformed-certificate"}
        assert seen["complete-set-step-sublot", "edges already collapsed"]
        assert seen["complete-set-step-sublot", ""]


def chain_variants(lot, cert):
    """The node, and per proper sub-LOT P of its LOT other than its first
    step: P's step in place of the first one; the same ending on the
    quotient the named replay reaches; and that with P as the first part
    too.  Then the chain cut after its first step, ending on the quotient
    it reaches, and the first part short of each of its edges, in the
    sub-LOTs and in the first step."""
    steps, final = cert.chain.steps, cert.chain.final_quotient
    first, rest = steps[0], steps[1:]
    yield cert
    for p in enumerate_sublots(lot)[0]:
        if len(p) == lot.num_edges or p == first.sublot_edges:
            continue
        swapped = (ChainStep(p, collapse_vertex_of(lot, p)),) + rest
        yield replace(cert, chain=CollapseChain(swapped, final))
        _, reached = reference_replay_chain(lot, CollapseChain(swapped, final))
        chain = CollapseChain(swapped, reached)
        yield replace(cert, chain=chain)
        yield replace(cert, sublots=(p, *cert.sublots[1:]), chain=chain)
    if rest:
        _, reached = reference_replay_chain(lot, CollapseChain((first,), final))
        yield replace(cert, chain=CollapseChain((first,), reached))
    for i in first.sublot_edges:
        short = first.sublot_edges - {i}
        if short:
            yield replace(cert, sublots=(short, *cert.sublots[1:]),
                          chain=CollapseChain(
                              (ChainStep(short, first.collapse_vertex), *rest),
                              final))


@pytest.fixture(scope="module")
def complete_set_inputs(differential_lots):
    """(node LOT, node) of every complete-set node in the certificates of
    ``differential_lots``."""
    return [(node_lot, node) for lot in differential_lots
            for node_lot, node in certificate_nodes(lot, certify_va(lot))
            if isinstance(node, CompleteSetRelative)]


class TestCompleteSetAgainstNamedRoute:
    """The verifier's complete-set checks against their named-LOT route,
    ``oracles.reference_verify_complete_set``."""

    def test_same_verdict_and_check(self, complete_set_inputs):
        seen = Counter()
        for lot, cert in complete_set_inputs:
            for variant in chain_variants(lot, cert):
                verdict = verify_certificate(lot, variant)
                got = verdict.accepted, verdict.failing_check
                assert got == reference_verify_complete_set(lot, variant)
                seen[got[1]] += 1
        assert len(complete_set_inputs) >= 500
        assert {None, "complete-set-disjoint", "complete-set-full",
                "complete-set-step-sublot", "complete-set-step-maximal",
                "complete-set-final-quotient-match", "complete-set-final-prime",
                "complete-set-sublots-match-chain"} <= set(seen)

    def test_closure_of_one_edge(self, differential_lots):
        """``oracles.reference_closure`` of one edge is ``sublot_closure``."""
        for lot in differential_lots:
            for e in range(lot.num_edges):
                mask = reference_closure(lot._iv.edges, lot._paths, 1 << e)
                assert mask == sum(1 << i for i in sublot_closure(lot, e))

    def test_closes_up_against_reference_closures(self, differential_lots):
        """``_closes_up(edges, paths, sub, full)`` holds exactly when every
        ``reference_closure(sub | e)`` is the whole LOT, for sub = 0, each
        proper edge closure and each maximal sub-LOT."""
        seen = Counter()
        for lot in differential_lots:
            edges, paths = lot._iv.edges, lot._paths
            full = (1 << lot.num_edges) - 1
            subs = {0, *(c for c in _edge_closures(lot) if c != full),
                    *(sum(1 << i for i in s) for s in maximal_sublots(lot))}
            for sub in subs:
                want = all(reference_closure(edges, paths, sub | 1 << e) == full
                           for e in range(lot.num_edges) if not sub >> e & 1)
                got = _closes_up(edges, paths, sub, full)
                assert got == want, (lot, sub)
                seen[sub == 0, got] += 1
        assert set(seen) == {(True, True), (True, False),
                             (False, True), (False, False)}


class TestForestPassAgainstComplexRoute:
    """The verifier's lk+ and lk- forest pass against K of the reoriented
    LOT: ``reorient``, ``build_complex``, ``derive_subcomplexes`` and
    ``signed_relative_forest_check`` of each colour."""

    def test_one_free_edge_toggled(self, fig1, fig3, differential_lots):
        """Every prime-wt and complete-set node of the certificates of
        fig1, fig3, the every-97th <=6 stride and 150 random 7-24-edge
        LOTs, with one free edge of its flip set toggled and its corner
        pairs rewritten to match: the verdict is the positive (negative)
        forest check exactly when the complex route finds lk+ (lk-, lk+
        being a forest) no forest, and acceptance otherwise."""
        rng = random.Random(33)
        seen = Counter()
        for root in (fig1, fig3, *differential_lots):
            for lot, node in certificate_nodes(root, certify_va(root)):
                if isinstance(node, PrimeWeightTest):
                    prefix, parts = "prime-weight-test", []
                elif isinstance(node, CompleteSetRelative):
                    prefix, parts = "complete-set", list(node.sublots)
                else:
                    continue
                inside = frozenset().union(*parts)
                free = [i for i in range(lot.num_edges) if i not in inside]
                flipped = node.flipped ^ {rng.choice(free)}
                reoriented = reorient(lot, flipped)
                cx = build_complex(reoriented)
                fam = derive_subcomplexes(reoriented, parts)
                forests = [signed_relative_forest_check(cx, fam, pol)[0]
                           for pol in (1, -1)]
                want = (None if all(forests) else
                        f"{prefix}-{'negative' if forests[0] else 'positive'}-forest")
                toggled = replace(
                    node, flipped=flipped,
                    pos_corners=tuple((l, t) for t, _, l in reoriented.edges),
                    neg_corners=tuple((l, h) for _, h, l in reoriented.edges))
                verdict = verify_certificate(lot, toggled)
                assert (verdict.accepted, verdict.failing_check) == \
                    (want is None, want), (format_lot(lot), flipped)
                seen[prefix, want] += 1
        assert set(seen) == {
            (prefix, want) for prefix in ("prime-weight-test", "complete-set")
            for want in (None, f"{prefix}-positive-forest",
                         f"{prefix}-negative-forest")}, seen


def witness_edits(lot, node):
    """(name, node) per edit of the node's corner pairs: in each pair of pos
    and of neg, its label and then its end replaced by the next vertex of
    the node's LOT; each pair dropped; and one pair appended."""
    following = dict(zip(lot.vertices, lot.vertices[1:] + lot.vertices[:1]))
    for field in ("pos_corners", "neg_corners"):
        pairs = getattr(node, field)
        for j, (label, end) in enumerate(pairs):
            for edited in ((following[label], end), (label, following[end])):
                yield (f"{field}[{j}] = {edited}",
                       replace(node, **{field: pairs[:j] + (edited,) + pairs[j + 1:]}))
            yield f"{field}[{j}] dropped", replace(node, **{field: pairs[:j] + pairs[j + 1:]})
        yield f"{field} + {pairs[0]}", replace(node, **{field: pairs + pairs[:1]})


class TestWitnessMatch:
    """The recorded corner pairs against the node's own, field by field."""

    def test_each_edit_of_a_pair(self, fig1, fig3, sweep6_every97):
        """Every prime-wt and complete-set node of the certificates of fig1,
        fig3 and the every-97th <=6 stride: each witness edit gives the
        node's witness-match check; with one free edge of the flip set
        toggled as well, each still gives the forest check the toggle gives
        with its corner pairs rewritten to match."""
        seen = Counter()
        for root in (fig1, fig3, *sweep6_every97):
            for lot, node in certificate_nodes(root, certify_va(root)):
                if isinstance(node, PrimeWeightTest):
                    prefix, inside = "prime-weight-test", frozenset()
                elif isinstance(node, CompleteSetRelative):
                    prefix, inside = "complete-set", frozenset().union(*node.sublots)
                else:
                    continue
                free = min(i for i in range(lot.num_edges) if i not in inside)
                flipped = node.flipped ^ {free}
                reoriented = reorient(lot, flipped)
                toggled = replace(
                    node, flipped=flipped,
                    pos_corners=tuple((l, t) for t, _, l in reoriented.edges),
                    neg_corners=tuple((l, h) for _, h, l in reoriented.edges))
                forest = verify_certificate(lot, toggled).failing_check
                for base, want in ((node, f"{prefix}-witness-match"),
                                   (toggled, forest or f"{prefix}-witness-match")):
                    for edit, bad in witness_edits(lot, base):
                        verdict = verify_certificate(lot, bad)
                        assert (verdict.accepted, verdict.failing_check) == \
                            (False, want), (format_lot(lot), edit)
                        seen[want.rsplit("-", 2)[-2]] += 1
        assert {"witness", "positive", "negative"} <= set(seen), seen


class TestVerifierIndependence:
    """The verifier decides sub-LOTs, boundary vertices, children and the
    lk+/lk- forests on its own masks, not with the prover's helpers (its
    mask walks included), and walks every node as masks of the root's int
    view."""

    @pytest.fixture(scope="class")
    def certified(self, fig1, fig3, sweep6_every97):
        certified = [(lot, certify_va(lot)) for lot in (fig1, fig3, *sweep6_every97)]
        assert {"bdry-red", "free-dec", "prime-wt", "complete-set"} <= {
            cert.kind for _, cert in certified}
        return certified

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called a helper it must not")

    @staticmethod
    def refuse_all(monkeypatch, modules, names):
        """Patch every name to ``refuse`` in every module that binds it.
        Each name must be bound in one of them: a name that moved out
        would otherwise stop being refused without a word."""
        for name in names:
            bound = [m for m in modules if hasattr(m, name)]
            assert bound, f"no module binds {name}"
            for module in bound:
                monkeypatch.setattr(module, name, TestVerifierIndependence.refuse)

    def test_accepts_with_the_provers_sublot_helpers_gone(self, certified,
                                                          monkeypatch):
        self.refuse_all(
            monkeypatch, (lotva.certify, lotva.lot, lotva.orient, lotva.weights),
            ("extract_sublot", "boundary_reducible_witness", "is_sublot",
             "sublot_vertices", "FlipForests", "boundary_reduce",
             "_leaf_witness", "_is_prime", "_free_split", "_chain_search",
             "_quotient", "_local", "_ends", "_named_pairs"))
        for lot, cert in certified:
            assert verify_certificate(lot, cert), cert.kind

    def test_builds_no_lot_view_or_root_paths(self, certified, monkeypatch):
        parsed = [(lot, parse_certificate(serialize_certificate(cert)))
                  for lot, cert in certified]
        self.refuse_all(monkeypatch, (lotva.lot, lotva.certify),
                        ("_view", "_root_paths", "_lot_on", "_lot_from_view"))
        for lot, cert in parsed:
            assert verify_certificate(lot, cert), cert.kind


class TestProverOnMasks:
    """The prover walks every node as masks of the root's int view: it
    returns the certificates of the prover that built each child as a
    ``Lot`` (``oracles.reference_certify``), builds a ``Lot`` only for each
    complete-set node's final quotient, and calls none of the verifier's
    kernels."""

    def test_matches_lot_building_prover(self, fig1, fig3, differential_lots):
        """fig1, fig3, the every-97th <=6 stride, 150 random 7-24-edge LOTs
        and ``random_lot(Random(s), 60)`` for s = 0..4: equal certificates,
        final quotients included, with every node kind met below a root."""
        seen = Counter()
        lots = [fig1, fig3, *differential_lots,
                *(random_lot(random.Random(s), 60) for s in range(5))]
        for lot in lots:
            cert = certify_va(lot)
            assert cert == reference_certify(lot), format_lot(lot)
            seen.update(node.kind for _, node in certificate_nodes(lot, cert)
                        if node is not cert)
        assert {"bdry-red", "free-dec", "prime-wt", "complete-set"} <= set(seen)

    def test_builds_a_lot_only_per_final_quotient(self, fig1, fig3,
                                                  sweep6_every97, monkeypatch):
        """``_lot_on`` runs once per complete-set node, and neither the
        child builders nor the Lot constructor nor the verifier's kernels
        run at all."""
        certified = []
        for lot in (fig1, fig3, *sweep6_every97):
            cert = certify_va(lot)
            certified.append((lot, cert, sum(
                isinstance(node, CompleteSetRelative)
                for _, node in certificate_nodes(lot, cert))))
        built = []
        lot_on = lotva.lot._lot_on

        def counting(*args):
            built.append(args)
            return lot_on(*args)

        monkeypatch.setattr(lotva.lot, "_lot_on", counting)
        monkeypatch.setattr(Lot, "__post_init__", TestVerifierIndependence.refuse)
        TestVerifierIndependence.refuse_all(
            monkeypatch, (lotva.certify, lotva.lot),
            ("boundary_reduce", "extract_sublot", "_closes_up", "_span",
             "_boundary_reduced", "_check_forests_and_witnesses"))
        for lot, cert, finals in certified:
            built.clear()
            assert certify_va(lot) == cert
            assert len(built) == finals, cert
        assert sum(finals for _, _, finals in certified) >= 100
