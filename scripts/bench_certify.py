"""Certify and verify stage benchmark: the public calls of both paths, by stage.

    python3 scripts/bench_certify.py [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script, and the inputs from ``perfbench/workloads.py``: the 120 roots of
the ``large`` workload at seed 0 (boundary-reduced 14-edge LOTs, 40 prime
and 80 not).  Each root goes through the calls that decide it, in the order
``certify_va`` makes them: the boundary witness and ``SublotStructure`` on
every root; ``free_decomposition`` on the non-prime ones whose every edge
closure is proper (``certify_va`` skips the scan where some closure is the
whole LOT, which rules a free decomposition out); ``complete_set_search``
on the non-prime roots without a free decomposition;
``orientation_search`` on the prime roots with nothing fixed, and on the
complete-set roots with their complete set fixed (``_fixed``); then ``certify_va`` and
``serialize_certificate`` of the whole certificate.  The verify-cert path
follows: ``parse_lot`` of the LOT's text, ``parse_certificate`` of the
certificate's text and ``verify_certificate``.  Every call is timed in
each of five rounds; its time is its best round, and a stage's figures are
the median, the 90th percentile (nearest rank) and the maximum over the
roots it runs on, in microseconds, over all of them and for each root kind
(``by_root_kind``); the p90 and the maximum show a tail that the median
hides, such as a few orientation walks that back up far.  Each time is stated
at the reference host speed of ``perfbench/host.py``: its ``Scaler`` times
a fixed loop about every 0.1 s of work, and the times in between are
multiplied by its factor.  Records the raw medians and the range of factors
next to the scaled ones, the roots' node kinds, and the host it ran on.
Standard library only; a bench, not a test.

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
from lotva.lot import SublotStructure  # noqa: E402

ROUNDS = 5


def root_calls(text: str) -> tuple[str, list]:
    """The node kind of the root LOT ``text`` spells, and its (stage,
    function, arguments) calls."""
    lot = parse_lot(text)
    calls = [("boundary_witness", boundary_reducible_witness, (lot,)),
             ("SublotStructure", SublotStructure, (lot,))]
    cert = certify_va(lot)
    structure = SublotStructure(lot)
    if cert.kind == "prime-wt":
        calls.append(("orientation_search", orientation_search, (lot, ())))
    elif structure.full not in structure.closures:
        calls.append(("free_decomposition", free_decomposition, (lot,)))
    if cert.kind == "complete-set":
        calls += [("complete_set_search", complete_set_search, (lot,)),
                  ("orientation_search_fixed", orientation_search,
                   (lot, list(cert.sublots)))]
    cert_text = serialize_certificate(cert)
    calls += [("certify_va", certify_va, (lot,)),
              ("serialize", serialize_certificate, (cert,)),
              ("parse_lot", parse_lot, (text,)),
              ("parse_certificate", parse_certificate, (cert_text,)),
              ("verify_certificate", verify_certificate, (lot, cert))]
    return cert.kind, calls


def summary(bs: list) -> dict:
    """Root count, the scaled median, p90 and maximum, and the raw median of
    (scaled, raw) best times."""
    scaled = sorted(b[0] for b in bs)
    return {"roots": len(bs),
            "median_us": round(statistics.median(scaled) * 1e6, 2),
            "p90_us": round(scaled[math.ceil(0.9 * len(scaled)) - 1] * 1e6, 2),
            "max_us": round(scaled[-1] * 1e6, 2),
            "raw_median_us": round(statistics.median(b[1] for b in bs) * 1e6, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_certify.json")
    args = ap.parse_args(argv)
    texts = [lot_text(shape, "v")
             for kind, shape in make_inputs("large", 0).ops if kind == "certify"]
    kinds, calls = zip(*map(root_calls, texts))
    times = []    # (root, call index, raw s), in run order
    factors = []  # the host factor of each entry of times
    clock = time.perf_counter
    scaler = Scaler()
    for _ in range(ROUNDS):
        for r, root in enumerate(calls):
            for c, (_, fn, fargs) in enumerate(root):
                t0 = clock()
                fn(*fargs)
                times.append((r, c, clock() - t0))
            if scaler.due():
                factors += [scaler.factor()] * (len(times) - len(factors))
    factors += [scaler.factor()] * (len(times) - len(factors))
    best: dict[tuple[int, int], list[float]] = {}  # (scaled, raw) per call
    for (r, c, t), f in zip(times, factors):
        b = best.setdefault((r, c), [float("inf")] * 2)
        b[:] = min(b[0], t * f), min(b[1], t)
    stages: dict[str, list] = {}
    by_kind: dict[str, dict[str, list]] = {}
    for (r, c), b in best.items():
        stages.setdefault(calls[r][c][0], []).append(b)
        by_kind.setdefault(kinds[r], {}).setdefault(calls[r][c][0], []).append(b)
    record = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "inputs": "perfbench large workload, seed 0: its 120 certify roots",
        "rounds": ROUNDS,
        "root_kinds": dict(sorted(Counter(kinds).items())),
        "stages": {name: summary(bs) for name, bs in stages.items()},
        "by_root_kind": {kind: {name: summary(bs) for name, bs in st.items()}
                         for kind, st in sorted(by_kind.items())},
        "host_factor_range": [round(min(factors), 3), round(max(factors), 3)],
    }
    for kind, st in [("all", record["stages"]), *record["by_root_kind"].items()]:
        print(f"-- {kind} roots")
        for name, s in st.items():
            print(f"{name:24} {s['roots']:4} roots  median {s['median_us']:9.2f}"
                  f"  p90 {s['p90_us']:9.2f}  max {s['max_us']:9.2f} us"
                  f"  (raw median {s['raw_median_us']:.2f})")
    print("host factors", *record["host_factor_range"])
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
