"""Weight path benchmark, stage by stage: every call of the ``weights``
workload's path after ``parse_lot``, in its order.

    python3 scripts/bench_relative.py [--seed N] [--against CHECKOUT] [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  The inputs are the weight-path LOTs of the ``weights`` workload of
``perfbench/workloads.py`` at ``--seed`` (default 0): 800 LOTs with 16-24
edges, each with the greedy closure family of the weight path as K
(``closure_family`` of ``perfbench/paths.py``).  The stages:
``build_complex``, which also makes the complex's corner pass, and
``build_link``; the greedy closure family through ``sublot_closure``
(``family``) and ``derive_subcomplexes``; ``build_relative_link``,
``canonical_weights`` on lk(L, K) and ``relative_weight_test``;
``signed_relative_forest_check`` for each sign; ``weight_test`` on lk(L);
``curvature_report`` and ``find_sink_source`` on the pillow over the first
cell.  Each call gets its inputs as the weight path hands them over, made
untimed.  ``build_link`` gets a new complex on every call.  The links and
their weights, and the complex the other stages share, are made once per
LOT.  The family and the pillow are made afresh for every call, since
each keeps what a call derived from it: ``build_relative_link`` gets a
family that no complex has validated yet, and the relative weight test
and the forest checks get one validated on the complex, as
``build_relative_link`` leaves it.  ``curvature_report`` gets an unglued
pillow, and ``find_sink_source`` one glued on the complex, as
``curvature_report`` leaves it.  The closure family is built on a copy of
the LOT that has not run its closure pass (``bench_certify.fresh``), as a
parsed LOT has not.  The stages are timed by ``bench_certify.py``'s loop,
stage by stage: each call in each of five rounds, its best round, and per
stage the median, p90 and maximum over the LOTs, scaled to the reference
host speed of ``perfbench/host.py``, with the raw medians and the range of
factors.  Records those, the median over the LOTs of the stages' sum, the
corner counts of the relative links, a digest of the relative verdicts,
the failure counts, and the host it ran on.  With ``--against CHECKOUT``
the same calls run on the ``src/lotva`` of another checkout too, in turn
with this one's, best of ``bench_certify.AGAINST_ROUNDS`` (see
``bench_certify.py``); its stages are recorded under ``before``, with the
paired change of each stage and of the stages' sum, and both checkouts
must give the same relative verdicts.  Standard library only; a bench,
not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

import lotva  # noqa: E402
from bench_certify import (AGAINST_ROUNDS, HOST, ROUNDS,  # noqa: E402
                           best_times, fresh, keyed, load_against,
                           paired_change, report, summary)
from paths import closure_family  # noqa: E402
from spans import NoTrace  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402


def weight_cases(seed: int) -> list:
    """(text, closure family) of each weight-path LOT of the workload."""
    texts = [lot_text(s, "v") for kind, s in make_inputs("weights", seed).ops
             if kind == "weights"]
    return [(text, closure_family(NoTrace(), lotva.parse_lot(text)))
            for text in texts]


def family(lot, lib=lotva) -> list:
    """``closure_family`` of ``perfbench/paths.py`` on the functions of
    ``lib``: the edge closures that are proper sub-LOTs, kept in edge
    order while vertex-disjoint from those kept."""
    parts, used = [], set()
    for e in range(lot.num_edges):
        part = lib.sublot_closure(lot, e)
        if len(part) == lot.num_edges:
            continue
        vs = lib.sublot_vertices(lot, part)
        if not vs & used:
            parts.append(part)
            used |= vs
    return parts


def verdict_sha256(verdicts: list) -> str:
    """sha256 over each relative weight test's (ok, violation), in input
    order: the same verdicts and witnesses give the same digest."""
    return hashlib.sha256(
        repr([(v.ok, v.violation) for v in verdicts]).encode()).hexdigest()


def case_calls(text: str, parts: list, lib=lotva) -> list:
    """The (stage, function, arguments) calls of one LOT on ``lib``, with
    its closure family ``parts``; arguments given as a function are made
    afresh, untimed, for every call (``bench_certify.best_times``)."""
    lot = lib.parse_lot(text)
    cx, fam = lib.build_complex(lot), lib.derive_subcomplexes(lot, parts)
    g, rg = lib.build_link(cx), lib.build_relative_link(cx, fam)
    w, rw = lib.canonical_weights(g), lib.canonical_weights(rg)

    def unchecked():
        return lib.SubcomplexFamily(fam.parts)

    def checked():
        f = unchecked()
        lib.complexes.validate_family(cx, f)
        return f

    def pillow():
        return lib.double_cell_sphere(cx, "d_0")

    def glued():
        d = pillow()
        lib.validate_diagram(d, cx)
        return d

    return [("build_complex", lib.build_complex, (lot,)),
            ("build_link", lib.build_link, lambda: (lib.build_complex(lot),)),
            ("closure_family", fresh(lambda lot: family(lot, lib), lib), (lot,)),
            ("derive_subcomplexes", lib.derive_subcomplexes, (lot, parts)),
            ("build_relative_link", lib.build_relative_link,
             lambda: (cx, unchecked())),
            ("canonical_weights", lib.canonical_weights, (rg,)),
            ("relative_weight_test", lib.relative_weight_test,
             lambda: (cx, checked(), rw, rg)),
            ("forest_check_pos", lib.signed_relative_forest_check,
             lambda: (cx, checked(), 1)),
            ("forest_check_neg", lib.signed_relative_forest_check,
             lambda: (cx, checked(), -1)),
            ("weight_test", lib.weight_test, (cx, g, w)),
            ("curvature_report", lib.curvature_report, lambda: (pillow(), cx, w)),
            ("find_sink_source", lib.find_sink_source, lambda: (glued(), cx))]


def results(calls: list, stage: str) -> list:
    """Each LOT's result of its call of ``stage``, made untimed."""
    return [fn(*(args() if callable(args) else args))
            for c in calls for name, fn, args in c if name == stage]


def measure(cases: list, against=None) -> dict:
    """The record of the (text, family) cases; with ``against`` (a library
    of ``bench_certify.load_against``), its stages too."""
    sides = [lotva] if against is None else [lotva, against]
    calls = [[case_calls(text, parts, lib) for text, parts in cases] for lib in sides]
    verdicts = [results(side, "relative_weight_test") for side in calls]
    if len({verdict_sha256(vs) for vs in verdicts}) > 1:
        raise SystemExit("the two checkouts give different relative verdicts")
    absolute = results(calls[0], "weight_test")
    best, factor_range = best_times(*map(keyed, calls))
    stages: dict[str, list] = {}
    sums = [[0.0] * 2 * len(sides) for _ in cases]  # per LOT, as best's values
    for (i, stage), b in best.items():
        stages.setdefault(stage, []).append(b)
        sums[i] = [x + y for x, y in zip(sums[i], b)]
    # lk(L, K), read after the timing
    links = [args[0] for c in calls[0] for name, _, args in c
             if name == "canonical_weights"]
    record = {
        "lots": len(cases),
        "stages": {stage: summary(bs) for stage, bs in stages.items()},
        "stages_us_median": round(statistics.median(s[0] for s in sums) * 1e6, 2),
        "host_factor_range": factor_range,
        "delta_corners_mean": round(statistics.mean(
            sum(c.is_delta for c in rg.corners) for rg in links), 1),
        "corners_mean": round(statistics.mean(len(rg.corners) for rg in links), 1),
        "failed": sum(not v.ok for v in verdicts[0]),
        "weight_test_failed": sum(not v.ok for v in absolute),
        "verdict_sha256": verdict_sha256(verdicts[0]),
    }
    if against is not None:
        record["before"] = {
            "stages": {stage: summary([b[2:] for b in bs])
                       for stage, bs in stages.items()},
            "stages_us_median": round(statistics.median(s[2] for s in sums) * 1e6, 2)}
        record["paired_change_pct"] = {stage: paired_change(bs)
                                       for stage, bs in stages.items()}
        record["paired_change_pct"]["all_stages"] = paired_change(sums)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the weights workload (default 0)")
    ap.add_argument("--against", type=Path, metavar="CHECKOUT",
                    help="another checkout whose src/lotva to time in turn")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_relative.json")
    args = ap.parse_args(argv)
    against = None if args.against is None else load_against(args.against)
    result = measure(weight_cases(args.seed), against)
    report(f"weights seed {args.seed}: {result['lots']} LOTs", result["stages"])
    print(f"all stages: median {result['stages_us_median']} us; host factors",
          *result["host_factor_range"])
    if against is not None:
        change = result["paired_change_pct"]
        report(f"{args.against}", result["before"]["stages"], change)
        print(f"all stages: median {result['before']['stages_us_median']} us; "
              f"paired change {change['all_stages']:+.2f}%")
    record = {"host": HOST, "rounds": ROUNDS if against is None else AGAINST_ROUNDS,
              "seed": args.seed, "weights": result}
    if against is not None:
        record["against"] = args.against.resolve().name  # its directory name
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
