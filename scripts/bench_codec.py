"""Certificate codec benchmark: ``serialize_certificate`` and ``parse_certificate``.

    python3 scripts/bench_codec.py [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  Two sets of certificates: those of every 40th LOT of
``iter_small_lots(6)``, and those of the first 120 boundary-reduced 14-edge
``random_lot``s drawn from ``Random(0)``.  Every certificate is written and
read back in each of five rounds; its time is its best round, and a set's
figure is the median over its certificates, in microseconds.  Each time
is stated at the reference host speed of ``perfbench/host.py``: its
``Scaler`` times a fixed loop about every 0.1 s of work, and the times in
between are multiplied by its factor.  Records the raw medians and the
range of factors next to the scaled ones, the certificate byte counts,
and the host it ran on.  Standard library only; a bench, not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from host import Scaler  # noqa: E402
from lotva import (boundary_reducible_witness, certify_va,  # noqa: E402
                   parse_certificate, serialize_certificate)
from lotva.sweep import iter_small_lots, random_lot  # noqa: E402

ROUNDS = 5


def sweep6_lots() -> list:
    return list(islice(iter_small_lots(6), 0, None, 40))


def large_lots() -> list:
    rng = random.Random(0)
    lots = []
    while len(lots) < 120:
        lot = random_lot(rng, 14)
        if boundary_reducible_witness(lot) is None:
            lots.append(lot)
    return lots


def measure(name: str, lots: list) -> dict:
    certs = [certify_va(lot) for lot in lots]
    texts = [serialize_certificate(c) for c in certs]
    if any(parse_certificate(t) != c for t, c in zip(texts, certs)):
        raise SystemExit(f"{name}: a certificate does not read back")
    times = []    # (certificate index, write s, read s), in run order
    factors = []  # the host factor of each entry of times
    clock = time.perf_counter
    scaler = Scaler()
    for _ in range(ROUNDS):
        for i, (cert, text) in enumerate(zip(certs, texts)):
            t0 = clock()
            serialize_certificate(cert)
            t1 = clock()
            parse_certificate(text)
            t2 = clock()
            times.append((i, t1 - t0, t2 - t1))
            if scaler.due():
                factors += [scaler.factor()] * (len(times) - len(factors))
    factors += [scaler.factor()] * (len(times) - len(factors))
    # per certificate, best round of: write, read, raw write, raw read
    best = [[float("inf")] * 4 for _ in certs]
    for (i, w, r), f in zip(times, factors):
        best[i] = [min(b, t) for b, t in zip(best[i], (w * f, r * f, w, r))]
    sizes = [len(t.encode()) for t in texts]

    def median_us(column):
        return round(statistics.median(b[column] for b in best) * 1e6, 2)

    return {
        "set": name,
        "certificates": len(certs),
        "bytes_total": sum(sizes),
        "bytes_median": statistics.median(sizes),
        "bytes_max": max(sizes),
        "serialize_us_median": median_us(0),
        "parse_us_median": median_us(1),
        "raw_serialize_us_median": median_us(2),
        "raw_parse_us_median": median_us(3),
        "host_factor_range": [round(min(factors), 3), round(max(factors), 3)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_codec.json")
    args = ap.parse_args(argv)
    sets = [measure("sweep6_every40", sweep6_lots()),
            measure("large14_reduced", large_lots())]
    for s in sets:
        lo, hi = s["host_factor_range"]
        print(f"{s['set']}: {s['certificates']} certificates, "
              f"median {s['bytes_median']} bytes, serialize "
              f"{s['serialize_us_median']} us, parse {s['parse_us_median']} us "
              f"(raw {s['raw_serialize_us_median']} / "
              f"{s['raw_parse_us_median']} us, host factors {lo}..{hi})")
    record = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ROUNDS,
        "sets": sets,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
