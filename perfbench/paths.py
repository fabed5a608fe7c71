"""The user-facing paths the benchmark times, and the checks on their output.

Each path is the library side of one ``lotva`` command without process
start: ``certify`` (parse_lot -> certify_va -> serialize_certificate),
``verify-cert`` (parse_lot + parse_certificate -> verify_certificate) and
the ``weight-test`` / ``links`` / ``diagram`` path.  ``tr`` is a
``spans.Tracer`` or ``spans.NoTrace``.

The checks never take the library's verdict on trust: violation cycles are
re-summed from their darts with weights derived here from corner polarities.
"""

from __future__ import annotations

from dataclasses import replace

from lotva import (BoundaryReduction, CertifyFailure, CompleteSetRelative,
                   FreeDecompositionNode, PrimeWeightTest, build_complex,
                   build_link, build_relative_link, canonical_weights,
                   certify_va, curvature_report, derive_subcomplexes,
                   double_cell_sphere, find_sink_source, parse_certificate,
                   parse_lot, relative_weight_test, serialize_certificate,
                   signed_relative_forest_check, sublot_closure,
                   sublot_vertices, verify_certificate, weight_test)


def certify_path(tr, text):
    """Returns (lot, certificate or CertifyFailure, certificate text or None)."""
    lot = tr.call("lot.parse", parse_lot, text)
    cert = tr.call("certify.certify_va", certify_va, lot)
    if isinstance(cert, CertifyFailure):
        return lot, cert, None
    return lot, cert, tr.call("certify.serialize", serialize_certificate, cert)


def verify_path(tr, text, cert_text):
    """Returns (parsed certificate, verdict)."""
    lot = tr.call("lot.parse", parse_lot, text)
    cert = tr.call("certify.parse", parse_certificate, cert_text)
    return cert, tr.call("certify.verify", verify_certificate, lot, cert)


def closure_family(tr, lot):
    """Edge closures that are proper sub-LOTs, kept greedily in edge order
    while vertex-disjoint from those already kept."""
    parts = []
    used: set = set()
    for e in range(lot.num_edges):
        part = tr.call("lot.sublot_closure", sublot_closure, lot, e)
        if len(part) == lot.num_edges:
            continue
        vs = sublot_vertices(lot, part)
        if not vs & used:
            parts.append(part)
            used |= vs
    return parts


def weight_path(tr, text):
    """Absolute and relative weight tests, both signed relative forest
    checks, and the pillow over the first cell with its curvature and
    sink/source.  Returns what the checks need."""
    lot = tr.call("lot.parse", parse_lot, text)
    cx = tr.call("complexes.build_complex", build_complex, lot)
    g = tr.call("linkage.build_link", build_link, cx)
    w = canonical_weights(g)
    absolute = tr.call("weights.weight_test", weight_test, cx, g, w)
    parts = closure_family(tr, lot)
    fam = tr.call("complexes.derive_subcomplexes", derive_subcomplexes, lot, parts)
    rg = tr.call("linkage.build_relative_link", build_relative_link, cx, fam)
    relative = tr.call("weights.relative_weight_test", relative_weight_test,
                       cx, fam, canonical_weights(rg), rg)
    forests = tuple(tr.call("linkage.forest_check", signed_relative_forest_check,
                            cx, fam, pol)[0] for pol in (1, -1))
    pillow = tr.call("diagrams.pillow", double_cell_sphere, cx, "d_0")
    tr.call("diagrams.curvature", curvature_report, pillow, cx, w)
    tr.call("diagrams.sink_source", find_sink_source, pillow, cx)
    return g, absolute, rg, relative, forests


def weight_summary(result) -> str:
    """Verdicts and violation weights; part of the workload digest."""
    _, absolute, _, relative, forests = result

    def verdict(v):
        return "pass" if v.ok else f"fail:{v.violation[0]}:{v.violation[-1]}"

    return f"{verdict(absolute)} {verdict(relative)} forests={forests}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def tamper(cert):
    """The certificate with the pos/neg corner lists of its first prime-wt
    or complete-set node (pre-order) swapped; None if it has neither."""
    if isinstance(cert, (PrimeWeightTest, CompleteSetRelative)):
        return replace(cert, pos_corners=cert.neg_corners,
                       neg_corners=cert.pos_corners)
    if isinstance(cert, BoundaryReduction):
        child = tamper(cert.child)
        return None if child is None else replace(cert, child=child)
    if isinstance(cert, FreeDecompositionNode):
        left = tamper(cert.left_child)
        if left is not None:
            return replace(cert, left_child=left)
        right = tamper(cert.right_child)
        return None if right is None else replace(cert, right_child=right)
    return None


def cycle_problem(g, darts, weight, reduced: bool):
    """Why a reported violation cycle is wrong, or None if it holds up.

    A corner weighs 1 when it joins ends of opposite polarity and 0
    otherwise, which is the canonical assignment the paths pass in.
    """
    corners = {c.id: c for c in g.corners}
    ends = []
    total = 0
    for cid, direction in darts:
        c = corners[cid]
        ends.append((c.a, c.b) if direction == 0 else (c.b, c.a))
        total += c.a.polarity != c.b.polarity
    if total != weight:
        return f"cycle weighs {total}, reported {weight}"
    if not total < 2:
        return f"violation cycle weighs {total}"
    n = len(darts)
    for i in range(n):
        if ends[i][1] != ends[(i + 1) % n][0]:
            return "darts do not form a closed walk"
        nxt = darts[(i + 1) % n]
        if reduced and nxt == (darts[i][0], 1 - darts[i][1]):
            return "cycle is not reduced"
    return None


def weight_problems(result) -> list[str]:
    """Independent checks on one weight-path result."""
    g, absolute, rg, relative, forests = result
    problems = []
    for link, verdict, reduced in ((g, absolute, True), (rg, relative, False)):
        if not verdict.ok:
            kind, witness, weight = verdict.violation
            why = (f"unexpected {kind} violation" if kind != "cycle"
                   else cycle_problem(link, witness, weight, reduced))
            if why:
                problems.append(why)
    if all(forests) and not relative.ok:
        problems.append("both relative forests, yet the relative test fails")
    return problems
