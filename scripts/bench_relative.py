"""Weight path benchmark, stage by stage: every call of the ``weights``
workload's path after ``parse_lot``, in its order.

    python3 scripts/bench_relative.py [--seed N] [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  The inputs are the weight-path LOTs of the ``weights`` workload of
``perfbench/workloads.py`` at ``--seed`` (default 0): 800 LOTs with 16-24
edges, each with the greedy closure family of the weight path as K.  The
stages: ``build_complex`` and ``build_link``; the greedy closure family
through ``sublot_closure`` (``closure_family`` of ``perfbench/paths.py``)
and ``derive_subcomplexes``; ``build_relative_link``,
``canonical_weights`` on lk(L, K) and ``relative_weight_test``;
``signed_relative_forest_check`` for each sign; ``weight_test`` on lk(L);
``curvature_report`` and ``find_sink_source`` on the pillow over the first
cell.  Each stage's inputs (the complex, the links and their weights, the
family and the pillow) are made once per LOT, untimed, as the weight path
makes them; so ``build_link`` and the stages after it read the complex's
corner pass, which the weight path runs once, in its ``build_link``.  The
closure family is built on a copy of the LOT that has not run its
closure pass (``bench_certify.fresh``), as a parsed LOT has not.  The
stages are timed by ``bench_certify.py``'s loop, stage by stage: each
call in each of five rounds, its best round, and per stage the median,
p90 and maximum over the LOTs, scaled to the reference host speed of
``perfbench/host.py``, with the raw medians and the range of factors.
Records those, the median over the LOTs of the stages' sum, the corner
counts of the relative links, a digest of the relative verdicts, the
failure counts, and the host it ran on.  Standard library only; a bench,
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

from bench_certify import (HOST, ROUNDS, best_times, fresh,  # noqa: E402
                           report, summary)
from lotva import (build_complex, build_link,  # noqa: E402
                   build_relative_link, canonical_weights, curvature_report,
                   derive_subcomplexes, double_cell_sphere, find_sink_source,
                   parse_lot, relative_weight_test,
                   signed_relative_forest_check, weight_test)
from paths import closure_family  # noqa: E402
from spans import NoTrace  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402


def weight_lots(seed: int) -> list:
    """The weight-path LOTs of the workload, parsed."""
    return [parse_lot(lot_text(s, "v"))
            for kind, s in make_inputs("weights", seed).ops if kind == "weights"]


def family(lot) -> list:
    """The weight path's greedy closure family of the LOT."""
    return closure_family(NoTrace(), lot)


def inputs(seed: int) -> list:
    """(complex, family) of every weight-path LOT of the workload."""
    return [(build_complex(lot), derive_subcomplexes(lot, family(lot)))
            for lot in weight_lots(seed)]


def verdict_sha256(verdicts: list) -> str:
    """sha256 over each relative weight test's (ok, violation), in input
    order: the same verdicts and witnesses give the same digest."""
    return hashlib.sha256(
        repr([(v.ok, v.violation) for v in verdicts]).encode()).hexdigest()


def case_calls(lot) -> list:
    """The (stage, function, arguments) calls of one LOT."""
    parts = family(lot)
    cx, fam = build_complex(lot), derive_subcomplexes(lot, parts)
    g, rg = build_link(cx), build_relative_link(cx, fam)
    w, rw = canonical_weights(g), canonical_weights(rg)
    pillow = double_cell_sphere(cx, "d_0")
    return [("build_complex", build_complex, (lot,)),
            ("build_link", build_link, (cx,)),
            ("closure_family", fresh(family), (lot,)),
            ("derive_subcomplexes", derive_subcomplexes, (lot, parts)),
            ("build_relative_link", build_relative_link, (cx, fam)),
            ("canonical_weights", canonical_weights, (rg,)),
            ("relative_weight_test", relative_weight_test, (cx, fam, rw, rg)),
            ("forest_check_pos", signed_relative_forest_check, (cx, fam, 1)),
            ("forest_check_neg", signed_relative_forest_check, (cx, fam, -1)),
            ("weight_test", weight_test, (cx, g, w)),
            ("curvature_report", curvature_report, (pillow, cx, w)),
            ("find_sink_source", find_sink_source, (pillow, cx))]


def measure(lots: list) -> dict:
    calls = [dict((stage, (fn, args)) for stage, fn, args in case_calls(lot))
             for lot in lots]
    verdicts = [relative_weight_test(*c["relative_weight_test"][1]) for c in calls]
    absolute = [weight_test(*c["weight_test"][1]) for c in calls]
    best, factor_range = best_times(
        [((i, stage), fn, args) for i, c in enumerate(calls)
         for stage, (fn, args) in c.items()])
    stages: dict[str, list] = {}
    sums = [0.0] * len(lots)  # per LOT, the scaled times of its stages
    for (i, stage), b in best.items():
        stages.setdefault(stage, []).append(b)
        sums[i] += b[0]
    # lk(L, K), read after the timing
    links = [c["canonical_weights"][1][0] for c in calls]
    return {
        "lots": len(lots),
        "stages": {stage: summary(bs) for stage, bs in stages.items()},
        "stages_us_median": round(statistics.median(sums) * 1e6, 2),
        "host_factor_range": factor_range,
        "delta_corners_mean": round(statistics.mean(
            sum(c.is_delta for c in rg.corners) for rg in links), 1),
        "corners_mean": round(statistics.mean(len(rg.corners) for rg in links), 1),
        "failed": sum(not v.ok for v in verdicts),
        "weight_test_failed": sum(not v.ok for v in absolute),
        "verdict_sha256": verdict_sha256(verdicts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the weights workload (default 0)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_relative.json")
    args = ap.parse_args(argv)
    result = measure(weight_lots(args.seed))
    report(f"weights seed {args.seed}: {result['lots']} LOTs", result["stages"])
    print(f"all stages: median {result['stages_us_median']} us; host factors",
          *result["host_factor_range"])
    record = {"host": HOST, "rounds": ROUNDS, "seed": args.seed,
              "weights": result}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
