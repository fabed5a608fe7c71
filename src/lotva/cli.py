"""Command line interface.

Exit codes: 0 = pass / positive decision, 1 = negative decision,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import LotvaError
from .lot import Lot, check_properties, complete_set_search, \
    free_decomposition, is_sublot, maximal_sublots, parse_lot
from .orient import orientation_search
from .certify import CertifyFailure, certify_va, parse_certificate, \
    serialize_certificate, verify_certificate

if TYPE_CHECKING:  # the paper layer loads in the subcommands that use it
    from .complexes import SubcomplexFamily, TwoComplex
    from .linkage import LinkGraph


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LotvaError(f"cannot read {path}: {exc}") from exc


def _load_lot(path: str) -> Lot:
    return parse_lot(_read(path))


def _load_complex_or_lot(path: str) -> tuple[TwoComplex, Lot | None]:
    """Sniff the first keyword: ``complex`` files load directly, anything
    else is parsed as a LOT and its complex is built."""
    from .complexes import build_complex, parse_complex
    text = _read(path)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split()[0] == "complex":
            return parse_complex(text), None
        break
    lot = parse_lot(text)
    return build_complex(lot), lot


def _parse_sublot_specs(lot: Lot, specs: list[str]):
    out = []
    for spec in specs:
        try:
            ids = frozenset(int(x) for x in spec.split(",") if x.strip() != "")
        except ValueError:
            raise LotvaError(f"bad sub-LOT spec {spec!r}: expected edge ids")
        if not is_sublot(lot, ids):
            raise LotvaError(f"edge set {sorted(ids)} is not a sub-LOT")
        out.append(ids)
    return out


def cmd_analyze(args) -> int:
    lot = _load_lot(args.lot)
    rep = check_properties(lot)
    print(f"lot {lot.name or 'unnamed'}: {len(lot.vertices)} vertices, "
          f"{lot.num_edges} edges")
    yn = lambda b: "yes" if b else "no"
    print(f"injective:        {yn(rep.injective)}")
    print(f"compressed:       {yn(rep.compressed)}")
    print(f"boundary reduced: {yn(rep.boundary_reducible is None)}")
    if rep.boundary_reducible is not None:
        eid, v = rep.boundary_reducible
        print(f"  reducible at vertex {v} (edge {eid})")
    print(f"reduced:          {yn(rep.reduced)}")
    print(f"prime:            {yn(rep.prime)}")
    if rep.proper_sublot_witness is not None:
        ids = sorted(rep.proper_sublot_witness)
        print(f"  smallest proper sub-LOT: edges {ids}")
        maximal = maximal_sublots(lot)
        print(f"  maximal proper sub-LOTs: {[sorted(s) for s in maximal]}")
    if lot.num_edges >= 2:
        fd = free_decomposition(lot)
        if fd is None:
            print("free decomposition: none")
        else:
            print(f"free decomposition: at {fd.shared_vertex}, "
                  f"left {sorted(fd.left_edges)}, right {sorted(fd.right_edges)}")
    if rep.injective and rep.compressed and not rep.prime:
        found = complete_set_search(lot)
        if found is None:
            print("complete set of sub-LOTs: none")
        else:
            sublots, chain = found
            print(f"complete set of sub-LOTs: {[sorted(s) for s in sublots]} "
                  f"(chain length {len(chain.steps)})")
    return 0


def _load_link(args) -> tuple[TwoComplex, SubcomplexFamily | None, LinkGraph]:
    """The complex of ``args.lot``, the family of the ``--relative``
    sub-LOTs (None without them) and lk(L), or lk(L, K) with them."""
    from .complexes import derive_subcomplexes
    from .linkage import build_link, build_relative_link
    cx, lot = _load_complex_or_lot(args.lot)
    if not args.relative:
        return cx, None, build_link(cx)
    if lot is None:
        raise LotvaError("--relative requires a LOT input")
    fam = derive_subcomplexes(lot, _parse_sublot_specs(lot, args.relative))
    return cx, fam, build_relative_link(cx, fam)


def cmd_links(args) -> int:
    from .linkage import to_dot
    cx, _, g = _load_link(args)
    if args.dot:
        print(to_dot(g, name=cx.name or "lk"), end="")
        return 0
    print(f"link of {cx.name or 'unnamed'}: {len(g.nodes)} nodes, "
          f"{len(g.corners)} corners")
    for c in g.corners:
        tag = f"delta:{c.provenance[1]}" if c.is_delta \
            else f"{c.provenance[1]}:{c.provenance[2]}"
        print(f"  corner {c.id:3d}  {str(c.a):>6} -- {str(c.b):<6} "
              f"[{c.corner_class}]  {tag}")
    return 0


def cmd_weight_test(args) -> int:
    from .weights import canonical_weights, parse_weights, \
        relative_weight_test, weight_test
    cx, fam, g = _load_link(args)
    w = parse_weights(_read(args.weights), g) if args.weights \
        else canonical_weights(g)
    if fam is None:
        verdict = weight_test(cx, g, w)
        label = "weight test"
    else:
        verdict = relative_weight_test(cx, fam, w, g)
        label = "relative weight test"
    if verdict.ok:
        print(f"{label}: PASS")
        return 0
    kind = verdict.violation[0]
    if kind == "cell":
        print(f"{label}: FAIL  cell {verdict.violation[1]} has corner sum "
              f"{verdict.violation[2]}")
    else:
        corners = ", ".join(str(cid) for cid, _ in verdict.violation[1])
        print(f"{label}: FAIL  cycle of weight {verdict.violation[2]} "
              f"through corners [{corners}]")
    return 1


ORIENT_SEARCH_BUDGET = 1_000_000
"""Back-ups ``orient-search`` allows its walk before it gives up with exit
code 2: about 2 s on a 2-CPU x86-64 host.  The walk on the 24-edge prime
``random_lot(Random(6), 24)`` backs up 96 times, and on
``random_lot(Random(2), 24)``, which has no orientation, 96 times before
its exact test answers None (4 per kept edge; without it, 456,561 and
about 3.4 million)."""


def cmd_orient_search(args) -> int:
    lot = _load_lot(args.lot)
    fixed = _parse_sublot_specs(lot, args.fix) if args.fix else []
    found = orientation_search(lot, fixed, ORIENT_SEARCH_BUDGET)
    if found is None:
        print("no orientation satisfies the forest conditions")
        return 1
    print(f"flip edges: {sorted(found)}" if found else "flip edges: none "
          "(the given orientation already works)")
    return 0


def cmd_certify(args) -> int:
    lot = _load_lot(args.lot)
    result = certify_va(lot)
    if isinstance(result, CertifyFailure):
        print(f"no certificate found: {result.stage}: {result.detail}",
              file=sys.stderr)
        return 1
    text = serialize_certificate(result)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise LotvaError(f"cannot write {args.out}: {exc}") from exc
        print(f"certificate written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_verify_cert(args) -> int:
    lot = _load_lot(args.lot)
    cert = parse_certificate(_read(args.cert))
    verdict = verify_certificate(lot, cert)
    if verdict.accepted:
        print("certificate accepted")
        return 0
    print(f"certificate rejected: {verdict.failing_check}"
          + (f" ({verdict.detail})" if verdict.detail else ""))
    return 1


def cmd_diagram_check(args) -> int:
    from .complexes import parse_complex
    from .diagrams import parse_diagram, validate_diagram
    cx = parse_complex(_read(args.complex))
    d = parse_diagram(_read(args.diagram))
    rep = validate_diagram(d, cx)
    if not rep.valid:
        print(f"invalid diagram: {rep.error}")
        return 1
    kind = "sphere" if rep.sphere else (
        f"genus-{rep.genus} surface" if rep.connected else "disconnected surface")
    print(f"valid diagram: chi = {rep.chi} ({kind})")
    return 0


def cmd_diagram_double(args) -> int:
    from .complexes import parse_complex
    from .diagrams import double_cell_sphere, format_diagram
    cx = parse_complex(_read(args.complex))
    d = double_cell_sphere(cx, args.cell)
    print(format_diagram(d), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lotva",
        description="vertex asphericity of labeled oriented trees: "
                    "analysis, weight tests, certificates")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("analyze", help="LOT property report")
    q.add_argument("lot")
    q.set_defaults(func=cmd_analyze)

    q = sub.add_parser("links", help="print the link graph (or DOT)")
    q.add_argument("lot", help="LOT or complex file")
    q.add_argument("--dot", action="store_true")
    q.add_argument("--relative", action="append", metavar="SUBLOT",
                   help="comma-separated edge ids; repeatable")
    q.set_defaults(func=cmd_links)

    q = sub.add_parser("weight-test", help="run the (relative) weight test")
    q.add_argument("lot", help="LOT or complex file")
    q.add_argument("--relative", action="append", metavar="SUBLOT")
    q.add_argument("--weights", metavar="FILE")
    q.set_defaults(func=cmd_weight_test)

    q = sub.add_parser("orient-search",
                       help="search reorientations for the forest conditions")
    q.add_argument("lot")
    q.add_argument("--fix", action="append", metavar="SUBLOT")
    q.set_defaults(func=cmd_orient_search)

    q = sub.add_parser("certify", help="produce a vertex asphericity certificate")
    q.add_argument("lot")
    q.add_argument("--out", metavar="FILE")
    q.set_defaults(func=cmd_certify)

    q = sub.add_parser("verify-cert", help="independently verify a certificate")
    q.add_argument("lot")
    q.add_argument("cert")
    q.set_defaults(func=cmd_verify_cert)

    q = sub.add_parser("diagram", help="surface diagram utilities")
    dsub = q.add_subparsers(dest="diagram_command", required=True)
    r = dsub.add_parser("check", help="validate a diagram file")
    r.add_argument("diagram")
    r.add_argument("--complex", required=True)
    r.set_defaults(func=cmd_diagram_check)
    r = dsub.add_parser("double", help="emit the mirror sphere over a cell")
    r.add_argument("complex")
    r.add_argument("--cell", required=True)
    r.set_defaults(func=cmd_diagram_double)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except LotvaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
