"""Weight test benchmark, stage by stage: ``build_relative_link``,
``canonical_weights`` on lk(L, K) and ``relative_weight_test``, then
``weight_test`` on lk(L) and ``curvature_report`` on the pillow over the
first cell.

    python3 scripts/bench_relative.py [--seed N] [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  The inputs are the weight-path LOTs of the ``weights`` workload of
``perfbench/workloads.py`` at ``--seed`` (default 0): 800 LOTs with 16-24
edges, each with the greedy closure family of the weight path as K, and
lk(L), its canonical weights and the pillow made once, untimed, as the
weight path makes them.  Each LOT goes through the five stages in each of
five rounds; a stage's time on a LOT is its best round, and its figure is
the median over the LOTs, in microseconds.  Each time is stated at the reference host speed of
``perfbench/host.py``: its ``Scaler`` times a fixed loop about every 0.1 s
of work, and the times in between are multiplied by its factor.  Records
the raw medians and the range of factors next to the scaled ones, the
corner counts of the relative links, a digest of the relative verdicts,
the failure counts, and the host it ran on.  Standard library only; a bench, not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from host import Scaler  # noqa: E402
from lotva import (build_complex, build_link,  # noqa: E402
                   build_relative_link, canonical_weights, curvature_report,
                   derive_subcomplexes, double_cell_sphere, parse_lot,
                   relative_weight_test, weight_test)
from paths import closure_family  # noqa: E402
from spans import NoTrace  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402

ROUNDS = 5
STAGES = ("build_relative_link", "canonical_weights", "relative_weight_test",
          "weight_test", "curvature_report")


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


def measure(cases: list) -> dict:
    times = []    # (case index, stage seconds...), in run order
    factors = []  # the host factor of each entry of times
    verdicts, counts = [], []  # of round 0; counts: (Delta corners, corners)
    absolute = []  # of round 0: the weight test verdicts
    links = []  # per case: lk(L), its canonical weights, the pillow
    for cx, _ in cases:
        g = build_link(cx)
        links.append((g, canonical_weights(g), double_cell_sphere(cx, "d_0")))
    clock = time.perf_counter
    scaler = Scaler()
    for r in range(ROUNDS):
        for i, ((cx, fam), (g, w, pillow)) in enumerate(zip(cases, links)):
            t0 = clock()
            rg = build_relative_link(cx, fam)
            t1 = clock()
            rw = canonical_weights(rg)
            t2 = clock()
            verdict = relative_weight_test(cx, fam, rw, rg)
            t3 = clock()
            absolute_verdict = weight_test(cx, g, w)
            t4 = clock()
            curvature_report(pillow, cx, w)
            t5 = clock()
            times.append((i, t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4))
            if r == 0:
                verdicts.append(verdict)
                absolute.append(absolute_verdict)
                counts.append((sum(c.is_delta for c in rg.corners),
                               len(rg.corners)))
            if scaler.due():
                factors += [scaler.factor()] * (len(times) - len(factors))
    factors += [scaler.factor()] * (len(times) - len(factors))
    # per case: best round of each stage, scaled then raw
    k = len(STAGES)
    best = [[float("inf")] * 2 * k for _ in cases]
    for (i, *ts), f in zip(times, factors):
        best[i] = [min(b, t) for b, t in zip(best[i], [t * f for t in ts] + ts)]

    def median_us(column):
        return round(statistics.median(b[column] for b in best) * 1e6, 2)

    out = {"lots": len(cases)}
    for j, stage in enumerate(STAGES):
        out[f"{stage}_us_median"] = median_us(j)
    out["stages_us_median"] = round(statistics.median(
        sum(b[:k]) for b in best) * 1e6, 2)
    for j, stage in enumerate(STAGES):
        out[f"raw_{stage}_us_median"] = median_us(k + j)
    out["host_factor_range"] = [round(min(factors), 3), round(max(factors), 3)]
    out["delta_corners_mean"] = round(statistics.mean(d for d, _ in counts), 1)
    out["corners_mean"] = round(statistics.mean(n for _, n in counts), 1)
    out["failed"] = sum(not v.ok for v in verdicts)
    out["weight_test_failed"] = sum(not v.ok for v in absolute)
    out["verdict_sha256"] = verdict_sha256(verdicts)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the weights workload (default 0)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_relative.json")
    args = ap.parse_args(argv)
    result = measure(inputs(args.seed))
    lo, hi = result["host_factor_range"]
    print(f"weights seed {args.seed}: {result['lots']} LOTs, "
          + ", ".join(f"{s} {result[s + '_us_median']} us" for s in STAGES)
          + f", all five {result['stages_us_median']} us (raw "
          + " / ".join(str(result[f"raw_{s}_us_median"]) for s in STAGES)
          + f" us, host factors {lo}..{hi})")
    record = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ROUNDS,
        "seed": args.seed,
        "weights": result,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
