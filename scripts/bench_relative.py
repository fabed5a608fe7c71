"""Weight test benchmark, stage by stage: ``build_relative_link``,
``canonical_weights`` on lk(L, K) and ``relative_weight_test``, then
``weight_test`` on lk(L) and ``curvature_report`` on the pillow over the
first cell.

    python3 scripts/bench_relative.py [--seed N] [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  The inputs are the weight-path LOTs of the ``weights`` workload of
``perfbench/workloads.py`` at ``--seed`` (default 0): 800 LOTs with 16-24
edges, each with the greedy closure family of the weight path as K.  The
relative link lk(L, K) and its canonical weights, lk(L) and its canonical
weights, and the pillow are made once per LOT, untimed, as the weight path
makes them.  The stages are timed by ``bench_certify.py``'s loop: each call
in each of five rounds, its best round, and per stage the median, p90 and
maximum over the LOTs, scaled to the reference host speed of
``perfbench/host.py``, with the raw medians and the range of factors.
Records those, the median over the LOTs of the five stages' sum, the
corner counts of the relative links, a digest of the relative verdicts,
the failure counts, and the host it ran on.  Standard library only; a
bench, not a test.
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

from bench_certify import HOST, ROUNDS, best_times, report, summary  # noqa: E402
from lotva import (build_complex, build_link,  # noqa: E402
                   build_relative_link, canonical_weights, curvature_report,
                   derive_subcomplexes, double_cell_sphere, parse_lot,
                   relative_weight_test, weight_test)
from paths import closure_family  # noqa: E402
from spans import NoTrace  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402


def inputs(seed: int) -> list:
    """(complex, family) of every weight-path LOT of the workload."""
    cases = []
    for kind, s in make_inputs("weights", seed).ops:
        if kind == "weights":
            lot = parse_lot(lot_text(s, "v"))
            parts = closure_family(NoTrace(), lot)
            cases.append((build_complex(lot), derive_subcomplexes(lot, parts)))
    return cases


def verdict_sha256(verdicts: list) -> str:
    """sha256 over each relative weight test's (ok, violation), in input
    order: the same verdicts and witnesses give the same digest."""
    return hashlib.sha256(
        repr([(v.ok, v.violation) for v in verdicts]).encode()).hexdigest()


def case_calls(cx, fam) -> list:
    """The (stage, function, arguments) calls of one LOT."""
    g, rg = build_link(cx), build_relative_link(cx, fam)
    w, rw = canonical_weights(g), canonical_weights(rg)
    return [("build_relative_link", build_relative_link, (cx, fam)),
            ("canonical_weights", canonical_weights, (rg,)),
            ("relative_weight_test", relative_weight_test, (cx, fam, rw, rg)),
            ("weight_test", weight_test, (cx, g, w)),
            ("curvature_report", curvature_report,
             (double_cell_sphere(cx, "d_0"), cx, w))]


def measure(cases: list) -> dict:
    calls = [case_calls(cx, fam) for cx, fam in cases]
    verdicts = [relative_weight_test(*c[2][2]) for c in calls]
    absolute = [weight_test(*c[3][2]) for c in calls]
    best, factor_range = best_times(
        [((i, stage), fn, args) for i, c in enumerate(calls)
         for stage, fn, args in c])
    stages: dict[str, list] = {}
    sums = [0.0] * len(cases)  # per LOT, the scaled times of its stages
    for (i, stage), b in best.items():
        stages.setdefault(stage, []).append(b)
        sums[i] += b[0]
    links = [c[1][2][0] for c in calls]  # lk(L, K), read after the timing
    return {
        "lots": len(cases),
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
    result = measure(inputs(args.seed))
    report(f"weights seed {args.seed}: {result['lots']} LOTs", result["stages"])
    print(f"all five: median {result['stages_us_median']} us; host factors",
          *result["host_factor_range"])
    record = {"host": HOST, "rounds": ROUNDS, "seed": args.seed,
              "weights": result}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
