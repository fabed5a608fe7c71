"""Certify and verify stage benchmark: the public calls of both paths, by stage.

    python3 scripts/bench_certify.py [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script, and the inputs from ``perfbench/workloads.py``: the certify roots
at seed 0 of the ``large`` workload (120 boundary-reduced 14-edge LOTs, 40
prime and 80 not) and of ``sweep6`` (every 40th LOT of the <=6-edge sweep,
4,082 LOTs).  Each root goes through the calls that decide it, in the
order ``certify_va`` makes them: the boundary witness on every root of two
or more edges; the closure pass (``closure_pass``: ``_edge_closures`` on a
fresh Lot, which the prime test, the free decomposition and the
complete-set search read) on every root but a base one, the boundary
reducible ones too, since ``certify_va`` walks every node below a root
on the root's int view and reads the root's closures; then
``orientation_search`` with nothing fixed on the prime roots, and
``free_decomposition`` on the free-dec and complete-set ones (it returns
at once where an edge's closure is the whole LOT), on the Lot whose
closures ``certify_va`` has kept, as there; ``complete_set_search`` and
``orientation_search`` with the complete set fixed (``_fixed``) on the
roots certified by a complete set; then ``certify_va`` and
``serialize_certificate`` of the whole certificate.  The verify-cert path
follows: ``parse_lot`` of the LOT's text, ``parse_certificate`` of the
certificate's text and ``verify_certificate``.  Every certificate must
read back as itself, and its bytes are recorded (total, median, maximum).

``best_times`` runs the calls stage by stage: every root's call of one
stage in each of five rounds, then the next stage's, so that no other
stage runs between a stage's calls; each call keeps its best round.  A
stage's figures (``summary``) are the median, the 90th percentile
(nearest rank) and the maximum over its calls, in microseconds, over all
roots and by root kind; the p90 and the maximum show a tail that the
median hides, such as a few orientation walks that back up far.  Each time
is stated at the reference host speed of ``perfbench/host.py``: its
``Scaler`` times a fixed loop about every 0.1 s of work, and the times in
between are multiplied by its factor.  The stages that run the closure
pass, which a Lot keeps, get a fresh copy of the Lot on every call
(``fresh``).  Records the raw medians and the range of factors next to
the scaled ones, the roots' node kinds, and the host.
``bench_relative.py`` shares the loop.  Standard library only; a bench,
not a test.

One before/after pair of runs does not resolve a change under about 10%:
on a 2-CPU x86-64 host, stages that neither commit changed moved by up to
10% between the two runs of a pair.  Compare several alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from host import Scaler  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402
from lotva import (boundary_reducible_witness, certify_va,  # noqa: E402
                   complete_set_search, free_decomposition,
                   orientation_search, parse_certificate, parse_lot,
                   serialize_certificate, verify_certificate)
from lotva.lot import _edge_closures, _lot_from_view  # noqa: E402

ROUNDS = 5
HOST = {"python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}


def best_times(calls: list) -> tuple[dict, list]:
    """Each (key, function, arguments) of ``calls``, keyed (root, stage),
    run stage by stage: a stage's calls, in order, in each of ``ROUNDS``
    rounds, before the next stage's.  Returns the best (scaled, raw)
    seconds per key, and the [least, greatest] host factor."""
    stages: dict = {}
    for call in calls:
        stages.setdefault(call[0][1], []).append(call)
    times = []    # (key, raw s), in run order
    factors = []  # the host factor of each entry of times
    clock = time.perf_counter
    scaler = Scaler()
    for stage_calls in stages.values():
        for _ in range(ROUNDS):
            for key, fn, args in stage_calls:
                t0 = clock()
                fn(*args)
                times.append((key, clock() - t0))
                if scaler.due():
                    factors += [scaler.factor()] * (len(times) - len(factors))
    factors += [scaler.factor()] * (len(times) - len(factors))
    best: dict = {}
    for (key, t), f in zip(times, factors):
        s, r = best.get(key, (math.inf, math.inf))
        best[key] = min(s, t * f), min(r, t)
    return best, [round(min(factors), 3), round(max(factors), 3)]


def fresh(fn):
    """``fn`` called on a copy of its first argument, a Lot, that has not
    run its closure pass.  A Lot keeps that pass once run, so a stage
    timed on one Lot in every round would time the pass in the first
    round only.  The copy costs about a microsecond, which is timed too."""
    return lambda lot, *args: fn(_lot_from_view(lot.vertices, lot.edges, lot._iv,
                                                lot._paths, lot.name), *args)


def summary(bs: list) -> dict:
    """Count, the scaled median, p90 and maximum, and the raw median of
    (scaled, raw) best times."""
    scaled = sorted(b[0] for b in bs)
    return {"count": len(bs),
            "median_us": round(statistics.median(scaled) * 1e6, 2),
            "p90_us": round(scaled[math.ceil(0.9 * len(scaled)) - 1] * 1e6, 2),
            "max_us": round(scaled[-1] * 1e6, 2),
            "raw_median_us": round(statistics.median(b[1] for b in bs) * 1e6, 2)}


def report(title: str, stages: dict) -> None:
    print(f"-- {title}")
    for name, s in stages.items():
        print(f"{name:24} {s['count']:5}  median {s['median_us']:9.2f}"
              f"  p90 {s['p90_us']:9.2f}  max {s['max_us']:9.2f} us"
              f"  (raw median {s['raw_median_us']:.2f})")


def root_calls(text: str) -> tuple[str, int, list]:
    """The node kind of the root LOT ``text`` spells, its certificate's
    bytes, and its (stage, function, arguments) calls."""
    lot = parse_lot(text)
    cert = certify_va(lot)
    cert_text = serialize_certificate(cert)
    if parse_certificate(cert_text) != cert:
        raise SystemExit(f"a certificate does not read back:\n{text}")
    calls = []
    if lot.num_edges > 1:
        calls.append(("boundary_witness", boundary_reducible_witness, (lot,)))
    if cert.kind != "base":
        calls.append(("closure_pass", fresh(_edge_closures), (lot,)))
    if cert.kind == "prime-wt":
        calls.append(("orientation_search", orientation_search, (lot, ())))
    elif cert.kind in ("free-dec", "complete-set"):
        calls.append(("free_decomposition", free_decomposition, (lot,)))
    if cert.kind == "complete-set":
        calls += [("complete_set_search", fresh(complete_set_search), (lot,)),
                  ("orientation_search_fixed", orientation_search,
                   (lot, list(cert.sublots)))]
    calls += [("certify_va", fresh(certify_va), (lot,)),
              ("serialize", serialize_certificate, (cert,)),
              ("parse_lot", parse_lot, (text,)),
              ("parse_certificate", parse_certificate, (cert_text,)),
              ("verify_certificate", verify_certificate, (lot, cert))]
    return cert.kind, len(cert_text.encode()), calls


def measure(texts: list) -> dict:
    """The record of one input set: the roots' kinds and certificate
    bytes, and each stage's summary, over all roots and by root kind."""
    kinds, sizes, calls = zip(*map(root_calls, texts))
    best, factor_range = best_times(
        [((r, stage), fn, args) for r, root in enumerate(calls)
         for stage, fn, args in root])
    stages: dict[str, list] = {}
    by_kind: dict[str, dict[str, list]] = {}
    for (r, stage), b in best.items():
        stages.setdefault(stage, []).append(b)
        by_kind.setdefault(kinds[r], {}).setdefault(stage, []).append(b)
    return {
        "roots": len(texts),
        "root_kinds": dict(sorted(Counter(kinds).items())),
        "bytes_total": sum(sizes),
        "bytes_median": statistics.median(sizes),
        "bytes_max": max(sizes),
        "stages": {name: summary(bs) for name, bs in stages.items()},
        "by_root_kind": {kind: {name: summary(bs) for name, bs in st.items()}
                         for kind, st in sorted(by_kind.items())},
        "host_factor_range": factor_range,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_certify.json")
    args = ap.parse_args(argv)
    sets = {}
    for workload in ("large", "sweep6"):
        sets[workload] = s = measure(
            [lot_text(shape, "v") for kind, shape
             in make_inputs(workload, 0).ops if kind == "certify"])
        for kind, st in [("all", s["stages"]), *s["by_root_kind"].items()]:
            report(f"{workload}: {kind} roots", st)
        print(f"{workload}: {s['roots']} roots, certificate bytes total "
              f"{s['bytes_total']}, median {s['bytes_median']}, max "
              f"{s['bytes_max']}; host factors", *s["host_factor_range"])
    record = {"host": HOST, "rounds": ROUNDS,
              "inputs": "certify roots of the perfbench large and sweep6 "
                        "workloads, seed 0",
              "sets": sets}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
