"""Seeded inputs of the three workloads.

A workload is a sequence of operations, each on one LOT: ``certify`` (the
certify and verify-cert paths) or ``weights`` (the weight-test path).  Each
workload has a main stream drawn from ``--seed`` and a side stream that
exists only so that every workload reports every end-to-end metric.  Side
streams are drawn from a fixed seed: they carry no input noise into metrics
their workload only reports for completeness.

An input reaches the library as LOT file text written here, not by the
library's formatter, so the library only ever sees generated LOTs.  Inputs
are kept as shapes with numbered vertices; ``lot_text`` names vertex ``i``
``<prefix><i>`` and lists the vertices first, which keeps their order, and
with it every certificate, the same as for the generated ``Lot``.  Each
pass of a run uses its own prefix, so that no cache entry the library made
in one pass serves the next.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from lotva import sublot_closure
from lotva.sweep import iter_small_lots, random_lot

SWEEP_MAX_EDGES = 6
SWEEP_STRIDE = 40         # 4,082 of the 163,263 LOTs
LARGE_EDGES = 14
# Boundary-reduced LOTs in fixed numbers by primality, so that the cost mix
# cannot swing from seed to seed.  Non-prime LOTs cost three times as much
# to certify and vary less; with two of them per prime one, both
# percentiles fall among them.
LARGE_PRIME = 40
LARGE_NON_PRIME = 80
WEIGHTS_EDGES = (16, 18, 20, 22, 24)  # cycled, so every run has the same mix
# Weight LOTs in fixed numbers by which of lk+ and lk- are forests.  A
# forest has no weight-0 cycle, so the cycle searches cannot stop early: one
# forest doubles the cost of the path, two make it ten times the cost.
WEIGHTS_BY_FORESTS = {0: 552, 1: 240, 2: 8}
SIDE_SEED = 0
SIDE_EDGES = 6
SIDE_WEIGHT_LOTS = 400    # side stream of sweep6 and large
SIDE_CERTIFY_LOTS = 400   # side stream of weights


@dataclass(frozen=True)
class Shape:
    """A LOT on vertices 0..n-1; edges are (tail, head, label) triples."""
    n: int
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Inputs:
    ops: tuple[tuple[str, Shape], ...]  # ("certify" | "weights", LOT)
    generate_s: float  # time spent in lotva.sweep
    lots: int          # LOTs lotva.sweep produced, rejected draws included


def shape(lot) -> Shape:
    index = {v: i for i, v in enumerate(lot.vertices)}
    return Shape(len(lot.vertices), tuple(
        (index[e.tail], index[e.head], index[e.label]) for e in lot.edges))


def lot_text(s: Shape, prefix: str) -> str:
    lines = ["lot bench"]
    lines += [f"vertex {prefix}{i}" for i in range(s.n)]
    lines += [f"edge {prefix}{t} {prefix}{h} {prefix}{l}" for t, h, l in s.edges]
    return "\n".join(lines) + "\n"


def _boundary_reduced(s: Shape) -> bool:
    """No leaf is free of labels."""
    degree = [0] * s.n
    for t, h, _ in s.edges:
        degree[t] += 1
        degree[h] += 1
    labels = {l for _, _, l in s.edges}
    return all(d != 1 or v in labels for v, d in enumerate(degree))


def _prime(lot) -> bool:
    """A LOT is prime iff every edge's closure is the whole LOT."""
    return all(len(sublot_closure(lot, e)) == lot.num_edges
               for e in range(lot.num_edges))


def _forests(s: Shape) -> int:
    """How many of lk+ (corners label+ -- tail+) and lk- (label- -- head-)
    are forests, by union-find on vertex pairs."""
    count = 0
    for pairs in ([(l, t) for t, _, l in s.edges], [(l, h) for _, h, l in s.edges]):
        rep = list(range(s.n))
        for a, b in pairs:
            while rep[a] != a:
                a = rep[a]
            while rep[b] != b:
                b = rep[b]
            if a == b:
                break
            rep[a] = b
        else:
            count += 1
    return count


def _interleave(main, side):
    """Spread the side operations evenly through the main ones."""
    out = []
    for i, op in enumerate(main):
        out.append(op)
        while len(out) - i - 1 < len(side) * (i + 1) // len(main):
            out.append(side[len(out) - i - 1])
    return tuple(out)


class _Sweep:
    """lotva.sweep, with the time spent in it and the LOTs it produced."""

    def __init__(self):
        self.seconds = 0.0
        self.lots = 0

    def random_lot(self, rng, n_edges):
        t0 = time.perf_counter()
        lot = random_lot(rng, n_edges)
        self.seconds += time.perf_counter() - t0
        self.lots += 1
        return lot

    def small_lots(self, max_edges):
        lots = iter_small_lots(max_edges)
        while True:
            t0 = time.perf_counter()
            lot = next(lots, None)
            self.seconds += time.perf_counter() - t0
            if lot is None:
                return
            self.lots += 1
            yield lot


def _side(sweep, kind: str, count: int) -> list:
    rng = random.Random(SIDE_SEED)
    return [(kind, shape(sweep.random_lot(rng, SIDE_EDGES))) for _ in range(count)]


def _sweep6(sweep, seed: int):
    offset = seed % SWEEP_STRIDE
    main = [("certify", shape(lot))
            for i, lot in enumerate(sweep.small_lots(SWEEP_MAX_EDGES))
            if i % SWEEP_STRIDE == offset]
    return _interleave(main, _side(sweep, "weights", SIDE_WEIGHT_LOTS))


def _large(sweep, seed: int):
    rng = random.Random(seed)
    prime, non_prime = [], []
    while len(prime) < LARGE_PRIME or len(non_prime) < LARGE_NON_PRIME:
        lot = sweep.random_lot(rng, LARGE_EDGES)
        if _boundary_reduced(shape(lot)):
            group, quota = ((prime, LARGE_PRIME) if _prime(lot)
                            else (non_prime, LARGE_NON_PRIME))
            if len(group) < quota:
                group.append(("certify", shape(lot)))
    return _interleave(_interleave(non_prime, prime),
                       _side(sweep, "weights", SIDE_WEIGHT_LOTS))


def _weights(sweep, seed: int):
    rng = random.Random(seed)
    groups = {k: [] for k in WEIGHTS_BY_FORESTS}
    drawn = 0
    while any(len(groups[k]) < q for k, q in WEIGHTS_BY_FORESTS.items()):
        s = shape(sweep.random_lot(rng, WEIGHTS_EDGES[drawn % len(WEIGHTS_EDGES)]))
        drawn += 1
        k = _forests(s)
        if len(groups[k]) < WEIGHTS_BY_FORESTS[k]:
            groups[k].append(("weights", s))
    main = _interleave(_interleave(groups[0], groups[1]), groups[2])
    return _interleave(main, _side(sweep, "certify", SIDE_CERTIFY_LOTS))


def make_inputs(workload: str, seed: int) -> Inputs:
    sweep = _Sweep()
    ops = {"sweep6": _sweep6, "large": _large, "weights": _weights}[workload](
        sweep, seed)
    return Inputs(tuple(ops), sweep.seconds, sweep.lots)
