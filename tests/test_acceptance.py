"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; the whole module is also part of the default suite.
"""

import hashlib
import random
import time
from collections import Counter

import pytest

from lotva import (BaseTrivial, BoundaryReduction, CertifyFailure, ChainStep,
                   CollapseChain, CompleteSetRelative, DegenerateDiagramError,
                   FreeDecompositionNode, PrimeWeightTest, boundary_reduce,
                   build_complex, build_link, build_relative_link,
                   canonical_weights, certify_va, check_properties,
                   complete_set_search, curvature_report, derive_subcomplexes,
                   double_cell_sphere, enumerate_sublots, extract_sublot,
                   find_homred_violation, find_sink_source, format_lot,
                   free_decomposition, is_sublot, min_weight_reduced_cycle,
                   relative_weight_test, reorient, serialize_certificate,
                   sign_change, signed_relative_forest_check, sublot_vertices,
                   verify_certificate, weight_test)
from lotva.orient import orientation_search
from lotva.sweep import iter_small_lots, random_lot

from oracles import (oracle_homred_violation_exists, oracle_min_reduced_cycle,
                     orientation_search_check, random_link,
                     random_relative_link, random_weights)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_fig1_analysis(fig1):
    t0 = time.perf_counter()
    rep = check_properties(fig1)
    assert rep.injective and rep.compressed and rep.reduced and not rep.prime
    _, maximal = enumerate_sublots(fig1)
    assert maximal == [frozenset({1, 2, 3, 4})]
    assert sublot_vertices(fig1, maximal[0]) == frozenset("abcde")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"fig1 reduced injective non-prime, maximal sub-LOT "
              f"{{a-b,b-c,c-d,d-e}} ({elapsed:.3f}s)")


def test_criterion_02_fig1_weight_test_all_orientations(fig1):
    t0 = time.perf_counter()
    for mask in range(64):
        lot = reorient(fig1, {i for i in range(6) if mask >> i & 1})
        cx = build_complex(lot)
        g = build_link(cx)
        verdict = weight_test(cx, g, canonical_weights(g))
        assert not verdict.ok
        kind, darts, weight = verdict.violation
        assert kind == "cycle" and weight < 2
        assert len(darts) >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"fig1 fails the absolute weight test in all 64 orientations "
              f"with reduced-cycle witnesses ({elapsed:.2f}s)")


def test_criterion_03_fig1_relative_pipeline(fig1):
    t0 = time.perf_counter()
    found = complete_set_search(fig1)
    assert found is not None
    sublots, chain = found
    assert chain.final_quotient.num_edges == 2
    assert check_properties(chain.final_quotient).prime
    assert orientation_search_check(fig1, sublots, frozenset())
    cert = certify_va(fig1)
    assert isinstance(cert, CompleteSetRelative)
    assert cert.flipped == frozenset()

    def nodes(c):
        if isinstance(c, BoundaryReduction):
            return 1 + nodes(c.child)
        if isinstance(c, CompleteSetRelative):
            return 1 + sum(nodes(x) for x in c.children)
        return 1

    assert nodes(cert) == 3
    assert verify_certificate(fig1, cert).accepted
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"fig1 complete-set chain to the 2-edge prime quotient, 3-node "
              f"certificate, verifier accepts ({elapsed:.3f}s)")


def test_criterion_04_fig3(fig3):
    t0 = time.perf_counter()
    for mask in range(64):
        lot = reorient(fig3, {i for i in range(6) if mask >> i & 1})
        assert complete_set_search(lot) is None
    fd = free_decomposition(fig3)
    assert fd is not None and fd.shared_vertex == "z"
    cert = certify_va(fig3)
    assert isinstance(cert, FreeDecompositionNode)
    assert verify_certificate(fig3, cert).accepted
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"fig3 has no complete set in any of 64 orientations, freely "
              f"decomposes at z, certifies via free decomposition ({elapsed:.2f}s)")


# sha256 over the certificate texts of the <=6-edge sweep, concatenated in
# sweep order: a refactor must leave every certificate byte unchanged
SWEEP6_CERT_SHA256 = \
    "b2ff06e1c3ea5dfad4151634879e7ab0677c4e92f95cf01a491f94adf2404c3b"


def test_criterion_05_exhaustive_small_sweep():
    t0 = time.perf_counter()
    certified = 0
    reduced_nonprime = 0
    digest = hashlib.sha256()
    for lot in iter_small_lots(6):
        cert = certify_va(lot)
        assert not isinstance(cert, CertifyFailure), lot
        assert verify_certificate(lot, cert).accepted, lot
        digest.update(serialize_certificate(cert).encode())
        certified += 1
        rep = check_properties(lot)
        if rep.reduced and not rep.prime:
            reduced_nonprime += 1
            ok = complete_set_search(lot) is not None or \
                free_decomposition(lot) is not None
            assert ok, lot
    elapsed = time.perf_counter() - t0
    assert certified > 150000
    assert reduced_nonprime > 10000
    assert digest.hexdigest() == SWEEP6_CERT_SHA256
    assert elapsed < 600.0
    report(5, f"{certified} LOTs (<=6 edges, up to iso) certified and "
              f"verified, certificate digest unchanged; {reduced_nonprime} "
              f"reduced non-prime ones all have a complete set or free "
              f"decomposition ({elapsed:.0f}s)")


def test_criterion_06_reduced_cycle_oracle():
    rng = random.Random(1006)
    t0 = time.perf_counter()
    agree = 0
    for _ in range(200):
        g = random_link(rng, max_corners=12)
        w = random_weights(rng, g)
        got = min_weight_reduced_cycle(g, w)
        expect = oracle_min_reduced_cycle(g, w, max_len=12)
        if expect is None:
            assert got is None
        else:
            assert got is not None and got[0] == expect
        agree += 1
    report(6, f"min_weight_reduced_cycle matches the length-bounded DP "
              f"enumeration on {agree} random links "
              f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_homred_oracle():
    rng = random.Random(1007)
    t0 = time.perf_counter()
    agree = 0
    for _ in range(200):
        g = random_relative_link(rng)
        w = random_weights(rng, g) if rng.random() < 0.5 else canonical_weights(g)
        got = find_homred_violation(g, w)
        assert (got is not None) == oracle_homred_violation_exists(g, w)
        agree += 1
    report(7, f"find_homred_violation agrees with exhaustive cycle "
              f"enumeration on {agree} random relative links "
              f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_forests_imply_relative_weight_test():
    rng = random.Random(1008)
    t0 = time.perf_counter()
    hits = 0
    while hits < 200:
        lot = random_lot(rng, rng.randrange(2, 8))
        all_subs, _ = enumerate_sublots(lot)
        proper = [s for s in all_subs if len(s) < lot.num_edges]
        fam_sets = []
        used = set()
        for s in proper:
            vs = sublot_vertices(lot, s)
            if not vs & used and rng.random() < 0.6:
                fam_sets.append(s)
                used |= vs
        # bias toward passing orientations where needed
        if not orientation_search_check(lot, fam_sets, frozenset()):
            found = orientation_search(lot, fam_sets)
            if found is None:
                continue
            lot = reorient(lot, found)
        cx = build_complex(lot)
        fam = derive_subcomplexes(lot, fam_sets)
        assert signed_relative_forest_check(cx, fam, 1)[0]
        assert signed_relative_forest_check(cx, fam, -1)[0]
        g = build_relative_link(cx, fam)
        assert relative_weight_test(cx, fam, canonical_weights(g), link=g).ok
        hits += 1
    report(8, f"relative weight test passed on {hits} random (LOT, family) "
              f"pairs with both relative forests "
              f"({time.perf_counter() - t0:.1f}s)")


def _weight_test_nodes(lot, cert, counts):
    """Walks a certificate the way ``verify_certificate`` does and runs the
    paper's weight test, with canonical weights, at every node that rests
    on lk+ and lk- forests: the absolute test on K of the reoriented LOT at
    a prime-wt node, the relative test on it and its complete set at a
    complete-set node."""
    if isinstance(cert, BoundaryReduction):
        _weight_test_nodes(boundary_reduce(lot, cert.edge_id, cert.outer_vertex),
                           cert.child, counts)
    elif isinstance(cert, FreeDecompositionNode):
        _weight_test_nodes(extract_sublot(lot, cert.left_edges),
                           cert.left_child, counts)
        _weight_test_nodes(extract_sublot(lot, cert.right_edges),
                           cert.right_child, counts)
    elif isinstance(cert, PrimeWeightTest):
        cx = build_complex(reorient(lot, cert.flipped))
        g = build_link(cx)
        assert weight_test(cx, g, canonical_weights(g)).ok, format_lot(lot)
        counts[cert.kind] += 1
    elif isinstance(cert, CompleteSetRelative):
        flipped = reorient(lot, cert.flipped)
        cx = build_complex(flipped)
        fam = derive_subcomplexes(flipped, cert.sublots)
        g = build_relative_link(cx, fam)
        assert relative_weight_test(cx, fam, canonical_weights(g), link=g).ok, \
            format_lot(lot)
        counts[cert.kind] += 1
        for part, child in zip(cert.sublots, cert.children):
            _weight_test_nodes(extract_sublot(lot, part), child, counts)


def test_criterion_08_certified_nodes_pass_weight_tests(sweep6_every97):
    """Every accepted certificate rests on the paper's weight test: its
    prime-wt nodes pass the absolute test, its complete-set nodes the
    relative test, on a sweep stride and on random 7-20-edge LOTs."""
    t0 = time.perf_counter()
    lots = list(sweep6_every97) + [random_lot(random.Random(7000 + s), 7 + s % 14)
                                   for s in range(30)]
    counts = Counter()
    for lot in lots:
        cert = certify_va(lot)
        assert verify_certificate(lot, cert), format_lot(lot)
        _weight_test_nodes(lot, cert, counts)
    assert counts["prime-wt"] > 1000 and counts["complete-set"] > 300
    report(8, f"weight tests pass at all {counts['prime-wt']} prime-wt and "
              f"{counts['complete-set']} complete-set nodes of the certificates "
              f"of {len(lots)} LOTs ({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_sign_change_invariance():
    rng = random.Random(1009)
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randrange(1, 8)
        lot = random_lot(rng, n, compressed=n >= 2 and rng.random() < 0.8)
        X = {v for v in lot.vertices if rng.random() < 0.5}
        g0 = build_link(build_complex(lot))
        g1 = build_link(build_complex(sign_change(lot, X)))
        m0 = sorted(tuple(sorted((c.a, c.b))) for c in g0.corners)
        m1 = sorted(tuple(sorted((c.a, c.b))) for c in g1.corners)
        assert m0 == m1
    report(9, f"lk(K(G)) = lk(K(G_X)) as corner multisets on 200 random "
              f"(LOT, X) pairs ({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_diagram_identities(fig1, fig3, prime, square_complex,
                                          torus):
    rng = random.Random(1010)
    t0 = time.perf_counter()
    curvature_checks = 0
    pillows = []
    for lot in (fig1, fig3, prime):
        cx = build_complex(lot)
        for cell in cx.cells:
            pillows.append((cx, double_cell_sphere(cx, cell.name)))
    for cx, d in pillows:
        g = build_link(cx)
        for _ in range(100):
            rep = curvature_report(d, cx, random_weights(rng, g))
            assert rep.total == 2 * rep.chi
            curvature_checks += 1
    tg = build_link(square_complex)
    for _ in range(100):
        rep = curvature_report(torus, square_complex, random_weights(rng, tg))
        assert rep.total == 0 == 2 * rep.chi
        curvature_checks += 1

    sink_checks = 0
    for cx, d in pillows:
        sink, source, _ = find_sink_source(d, cx)
        for e in d.edges:
            u, v = (e.tail, e.head) if e.image_sign > 0 else (e.head, e.tail)
            assert u != sink, "sink has an outgoing edge"
            assert v != source, "source has an incoming edge"
        sink_checks += 1
    # the torus is the documented degenerate case
    with pytest.raises(DegenerateDiagramError):
        find_sink_source(torus, square_complex)
    report(10, f"Gauss-Bonnet total = 2*chi in {curvature_checks} random "
               f"weightings; sink/source predicates verified on "
               f"{sink_checks} pillows ({time.perf_counter() - t0:.1f}s)")


def _complete_set_certs(limit):
    """(lot, certificate) pairs whose root is a complete-set node."""
    out = []
    for lot in iter_small_lots(6):
        if lot.num_edges < 4:
            continue
        rep = check_properties(lot)
        if not (rep.reduced and not rep.prime):
            continue
        cert = certify_va(lot)
        if isinstance(cert, CompleteSetRelative):
            out.append((lot, cert))
            if len(out) >= limit:
                break
    return out


def test_criterion_11_tamper_suite(fig1):
    t0 = time.perf_counter()
    cases = []  # (lot, tampered cert, expected failing check)

    bases = _complete_set_certs(16)
    assert len(bases) >= 10
    fig1_cert = certify_va(fig1)
    bases.insert(0, (fig1, fig1_cert))

    for lot, cert in bases:
        # flipped edge inside a fixed sub-LOT
        inside = min(min(p) for p in cert.sublots)
        cases.append((lot,
                      CompleteSetRelative(cert.sublots, cert.chain,
                                          cert.flipped | {inside},
                                          cert.pos_corners, cert.neg_corners,
                                          cert.children),
                      "complete-set-flipped-outside"))
        # wrong collapse vertex
        step = cert.chain.steps[0]
        vs = sorted(sublot_vertices(lot, step.sublot_edges))
        wrong = next(v for v in vs if v != step.collapse_vertex)
        bad_steps = (ChainStep(step.sublot_edges, wrong),) + cert.chain.steps[1:]
        cases.append((lot,
                      CompleteSetRelative(cert.sublots,
                                          CollapseChain(bad_steps,
                                                        cert.chain.final_quotient),
                                          cert.flipped, cert.pos_corners,
                                          cert.neg_corners, cert.children),
                      "complete-set-collapse-vertex"))
        # illegal boundary reduction: every leaf of a boundary-reduced LOT
        # occurs as a label, so reducing at one is always illegal
        leaf_edge, leaf = next(
            (i, v) for v in lot.vertices
            for i, e in enumerate(lot.edges) if
            sum(1 for d in lot.edges if v in (d.tail, d.head)) == 1
            and v in (e.tail, e.head))
        cases.append((lot, BoundaryReduction(leaf_edge, leaf, BaseTrivial()),
                      "boundary-reduction-vertex-unlabeled"))

    # non-full parts: drop an interior edge from a path-shaped part so the
    # spanned vertices still trap the dropped cell
    nonfull = 0
    for lot, cert in bases:
        for pi, part in enumerate(cert.sublots):
            for drop in sorted(part):
                rest = part - {drop}
                if not rest:
                    continue
                e = lot.edges[drop]
                if {e.tail, e.head} <= sublot_vertices(lot, rest):
                    parts = cert.sublots[:pi] + (rest,) + cert.sublots[pi + 1:]
                    steps = tuple(
                        ChainStep(rest, s.collapse_vertex)
                        if s.sublot_edges == part else s
                        for s in cert.chain.steps)
                    cases.append((lot,
                                  CompleteSetRelative(
                                      parts,
                                      CollapseChain(steps,
                                                    cert.chain.final_quotient),
                                      cert.flipped, cert.pos_corners,
                                      cert.neg_corners, cert.children),
                                  "complete-set-full"))
                    nonfull += 1
    assert nonfull >= 2

    cases = cases[:50] if len(cases) >= 50 else cases
    assert len(cases) >= 50, f"only {len(cases)} tamper cases"
    for lot, bad, expected in cases:
        verdict = verify_certificate(lot, bad)
        assert not verdict.accepted
        assert verdict.failing_check == expected, \
            f"expected {expected}, got {verdict.failing_check}"
    report(11, f"{len(cases)} tampered certificates all rejected with the "
               f"expected failing checks ({time.perf_counter() - t0:.1f}s)")
