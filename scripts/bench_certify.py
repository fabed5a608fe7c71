"""Certify and verify stage benchmark: the public calls of both paths, by stage.

    python3 scripts/bench_certify.py [--against CHECKOUT] [--out FILE]

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
10% between the two runs of a pair, and by 20-60% on a loaded host.  So
``--against CHECKOUT`` compares in one process: it imports the
``src/lotva`` of another checkout as the package ``lotva_against``
(``load_against``), builds every call again on it, and runs each call and
its counterpart in turn, ``AGAINST_ROUNDS`` times each, call after call
within a stage; each side keeps its best.  The record then holds the
other checkout's stages under ``before``, and per stage the median over
the calls of the change of each call's best time against its
counterpart's (``paired_change_pct``).  Two such runs of
``bench_relative.py`` on that host read the stages' sum within 0.6
points of each other, and stages of 10-30 us within 4 points.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import lotva  # noqa: E402
from host import Scaler  # noqa: E402
from workloads import lot_text, make_inputs  # noqa: E402

ROUNDS = 5
AGAINST_ROUNDS = 9
HOST = {"python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count()}


def best_times(calls: list, against: Optional[list] = None) -> tuple[dict, list]:
    """Each (key, function, arguments) of ``calls``, keyed (root, stage),
    run stage by stage: a stage's calls, in order, in each of ``ROUNDS``
    rounds, before the next stage's.  Arguments given as a function are
    its result, made untimed before each call.  Returns the best (scaled,
    raw) seconds per key, and the [least, greatest] host factor.

    ``against`` holds the same calls, in the same order, on another
    library: then each call and its counterpart run in turn,
    ``AGAINST_ROUNDS`` times, before the stage's next call, and each key's
    best is (scaled, raw, against scaled, against raw)."""
    sides = [calls] if against is None else [calls, against]
    stages: dict = {}
    for i, call in enumerate(calls):
        stages.setdefault(call[0][1], []).append(i)
    times = []    # (side, key, raw s), in run order
    factors = []  # the host factor of each entry of times
    clock = time.perf_counter
    scaler = Scaler()
    for at in stages.values():
        order = ([(0, i) for _ in range(ROUNDS) for i in at] if against is None
                 else [(side, i) for i in at for _ in range(AGAINST_ROUNDS)
                       for side in (0, 1)])
        for side, i in order:
            key, fn, args = sides[side][i]
            if callable(args):
                args = args()
            t0 = clock()
            fn(*args)
            times.append((side, key, clock() - t0))
            if scaler.due():
                factors += [scaler.factor()] * (len(times) - len(factors))
    factors += [scaler.factor()] * (len(times) - len(factors))
    best: dict = {}
    for (side, key, t), f in zip(times, factors):
        b = best.setdefault(key, [math.inf] * 2 * len(sides))
        b[2 * side], b[2 * side + 1] = min(b[2 * side], t * f), min(b[2 * side + 1], t)
    return ({key: tuple(b) for key, b in best.items()},
            [round(min(factors), 3), round(max(factors), 3)])


def load_against(checkout: Path):
    """The ``src/lotva`` of another checkout, imported as the package
    ``lotva_against``: its modules import one another under that name, so
    it shares nothing with ``lotva``."""
    src = Path(checkout) / "src" / "lotva"
    spec = importlib.util.spec_from_file_location(
        "lotva_against", src / "__init__.py", submodule_search_locations=[str(src)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lib
    spec.loader.exec_module(lib)
    return lib


def paired_change(bs: list) -> float:
    """The median over the calls of each call's change, in percent, of its
    best scaled time against its counterpart's."""
    return round(statistics.median(100 * (b[0] / b[2] - 1) for b in bs), 2)


def fresh(fn, lib=lotva):
    """``fn`` called on a copy of its first argument, a Lot of ``lib``,
    that has not run its closure pass.  A Lot keeps that pass once run,
    so a stage timed on one Lot in every round would time the pass in the
    first round only.  The copy costs about a microsecond, which is timed
    too."""
    copy = lib.lot._lot_from_view
    return lambda lot, *args: fn(copy(lot.vertices, lot.edges, lot._iv,
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


def report(title: str, stages: dict, change: Optional[dict] = None) -> None:
    print(f"-- {title}")
    for name, s in stages.items():
        print(f"{name:24} {s['count']:5}  median {s['median_us']:9.2f}"
              f"  p90 {s['p90_us']:9.2f}  max {s['max_us']:9.2f} us"
              f"  (raw median {s['raw_median_us']:.2f})"
              + (f"  paired change {change[name]:+.2f}%" if change else ""))


def root_calls(text: str, lib=lotva) -> tuple[str, int, list]:
    """The node kind of the root LOT ``text`` spells, its certificate's
    bytes, and its (stage, function, arguments) calls, on ``lib``."""
    lot = lib.parse_lot(text)
    cert = lib.certify_va(lot)
    cert_text = lib.serialize_certificate(cert)
    if lib.parse_certificate(cert_text) != cert:
        raise SystemExit(f"a certificate does not read back:\n{text}")
    calls = []
    if lot.num_edges > 1:
        calls.append(("boundary_witness", lib.boundary_reducible_witness, (lot,)))
    if cert.kind != "base":
        calls.append(("closure_pass", fresh(lib.lot._edge_closures, lib), (lot,)))
    if cert.kind == "prime-wt":
        calls.append(("orientation_search", lib.orientation_search, (lot, ())))
    elif cert.kind in ("free-dec", "complete-set"):
        calls.append(("free_decomposition", lib.free_decomposition, (lot,)))
    if cert.kind == "complete-set":
        calls += [("complete_set_search", fresh(lib.complete_set_search, lib), (lot,)),
                  ("orientation_search_fixed", lib.orientation_search,
                   (lot, list(cert.sublots)))]
    calls += [("certify_va", fresh(lib.certify_va, lib), (lot,)),
              ("serialize", lib.serialize_certificate, (cert,)),
              ("parse_lot", lib.parse_lot, (text,)),
              ("parse_certificate", lib.parse_certificate, (cert_text,)),
              ("verify_certificate", lib.verify_certificate, (lot, cert))]
    return cert.kind, len(cert_text.encode()), calls


def keyed(roots: list) -> list:
    """The (key, function, arguments) calls of every root's (stage,
    function, arguments) calls, keyed (root index, stage)."""
    return [((r, stage), fn, args) for r, root in enumerate(roots)
            for stage, fn, args in root]


def measure(texts: list, against=None) -> dict:
    """The record of one input set: the roots' kinds and certificate
    bytes, and each stage's summary, over all roots and by root kind;
    with ``against`` (a library of ``load_against``), its stages too."""
    kinds, sizes, calls = zip(*map(root_calls, texts))
    other = None if against is None else keyed(
        [root_calls(text, against)[2] for text in texts])
    best, factor_range = best_times(keyed(calls), other)
    stages: dict[str, list] = {}
    by_kind: dict[str, dict[str, list]] = {}
    for (r, stage), b in best.items():
        stages.setdefault(stage, []).append(b)
        by_kind.setdefault(kinds[r], {}).setdefault(stage, []).append(b)
    record = {
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
    if against is not None:
        record["before"] = {name: summary([b[2:] for b in bs])
                            for name, bs in stages.items()}
        record["paired_change_pct"] = {name: paired_change(bs)
                                       for name, bs in stages.items()}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, metavar="CHECKOUT",
                    help="another checkout whose src/lotva to time in turn")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_certify.json")
    args = ap.parse_args(argv)
    against = None if args.against is None else load_against(args.against)
    sets = {}
    for workload in ("large", "sweep6"):
        sets[workload] = s = measure(
            [lot_text(shape, "v") for kind, shape
             in make_inputs(workload, 0).ops if kind == "certify"], against)
        for kind, st in [("all", s["stages"]), *s["by_root_kind"].items()]:
            report(f"{workload}: {kind} roots", st)
        if against is not None:
            report(f"{workload}: all roots, {args.against}", s["before"],
                   s["paired_change_pct"])
        print(f"{workload}: {s['roots']} roots, certificate bytes total "
              f"{s['bytes_total']}, median {s['bytes_median']}, max "
              f"{s['bytes_max']}; host factors", *s["host_factor_range"])
    record = {"host": HOST,
              "rounds": ROUNDS if against is None else AGAINST_ROUNDS,
              "inputs": "certify roots of the perfbench large and sweep6 "
                        "workloads, seed 0",
              "sets": sets}
    if against is not None:
        record["against"] = args.against.resolve().name  # its directory name
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
