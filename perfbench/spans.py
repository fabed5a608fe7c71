"""Spans recorded around calls into the library, and the certificate replay.

The library has no instrumentation of its own, so the traced run times
public calls from outside.  ``replay`` walks a certificate node by node,
rebuilds each node's LOT with the public ``boundary_reduce`` and
``extract_sublot``, and re-runs the calls that decided the node in the
order ``certify_va`` makes them.  ``replay_chain`` re-walks a complete-set
node's collapse chain with ``collapse`` and ``check_properties``.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from lotva import (BaseTrivial, BoundaryReduction, CompleteSetRelative,
                   FreeDecompositionNode, PrimeWeightTest,
                   boundary_reducible_witness, boundary_reduce,
                   check_properties, collapse, complete_set_search,
                   enumerate_sublots, extract_sublot, free_decomposition,
                   orientation_search)

_NULL = contextlib.nullcontext()


class NoTrace:
    """Calls straight through; used for every end-to-end measurement."""

    def span(self, name):
        return _NULL

    def call(self, name, fn, *args):
        return fn(*args)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append([self.name, parent, time.perf_counter(), 0.0])

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][3] = time.perf_counter()


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]; a root span
    (parent -1) is one request."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name):
        return _Span(self, name)

    def call(self, name, fn, *args):
        with _Span(self, name):
            return fn(*args)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds); self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += end - start - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}


class ReplayMismatch(Exception):
    """The replayed calls decided a node differently from its certificate."""


class ReplayCounts:
    def __init__(self):
        self.sublot_masks = 0
        self.sublots_found = 0
        self.orientation_candidates = 0
        self.orientation_free_edges = 0
        self.nodes: Counter = Counter()
        self.depth_max = 0
        self.replay_s = 0.0  # time in replay(), the chain re-walk excluded
        self.chains: list = []  # (node LOT, CollapseChain) of complete-set nodes


def _need(cond, what):
    if not cond:
        raise ReplayMismatch(what)


def _search(tr, counts, lot, fixed, recorded):
    """orientation_search, with the number of flip sets it tried: the
    binary counter over the free edges stops at the returned set."""
    flipped = tr.call("weights.orientation_search", orientation_search,
                      lot, fixed)
    _need(flipped == recorded, "orientation search")
    fixed_edges = set().union(*fixed)
    free = [i for i in range(lot.num_edges) if i not in fixed_edges]
    counter = sum(1 << j for j, e in enumerate(free) if e in flipped)
    counts.orientation_candidates += counter + 1
    counts.orientation_free_edges += len(free)


def replay(tr, counts: ReplayCounts, lot, cert, depth: int = 1) -> None:
    """Re-run the calls that decided ``cert`` on ``lot``, node by node."""
    counts.nodes[cert.kind] += 1
    counts.depth_max = max(counts.depth_max, depth)
    with tr.span("replay." + cert.kind):
        if lot.num_edges <= 1:
            _need(isinstance(cert, BaseTrivial), "base")
            return
        witness = tr.call("lot.boundary_witness", boundary_reducible_witness, lot)
        if witness is not None:
            _need(isinstance(cert, BoundaryReduction)
                  and (cert.edge_id, cert.outer_vertex) == witness,
                  "boundary reduction")
            child = tr.call("lot.rebuild", boundary_reduce, lot, *witness)
            replay(tr, counts, child, cert.child, depth + 1)
            return
        all_subs, _ = tr.call("lot.enumerate_sublots", enumerate_sublots, lot)
        counts.sublot_masks += (1 << lot.num_edges) - 1
        counts.sublots_found += len(all_subs)
        if all(len(s) == lot.num_edges for s in all_subs):
            _need(isinstance(cert, PrimeWeightTest), "prime")
            _search(tr, counts, lot, [], cert.flipped)
            return
        fd = tr.call("lot.free_decomposition", free_decomposition, lot)
        if fd is not None:
            _need(isinstance(cert, FreeDecompositionNode)
                  and (cert.left_edges, cert.right_edges, cert.shared_vertex)
                  == (fd.left_edges, fd.right_edges, fd.shared_vertex),
                  "free decomposition")
            for edges, child in ((fd.left_edges, cert.left_child),
                                 (fd.right_edges, cert.right_child)):
                sub = tr.call("lot.rebuild", extract_sublot, lot, edges)
                replay(tr, counts, sub, child, depth + 1)
            return
        found = tr.call("lot.complete_set_search", complete_set_search, lot)
        _need(isinstance(cert, CompleteSetRelative) and found is not None
              and tuple(found[0]) == cert.sublots, "complete set")
        _search(tr, counts, lot, list(cert.sublots), cert.flipped)
        counts.chains.append((lot, cert.chain))
        for part, child in zip(cert.sublots, cert.children):
            sub = tr.call("lot.rebuild", extract_sublot, lot, part)
            replay(tr, counts, sub, child, depth + 1)


def replay_chain(tr, lot, chain) -> None:
    """Collapse the chain's sub-LOTs one by one; the quotient must be the
    recorded final quotient and prime."""
    with tr.span("replay.chain"):
        current = lot
        orig = list(range(lot.num_edges))  # original id of each current edge
        for step in chain.steps:
            local = [orig.index(o) for o in sorted(step.sublot_edges)]
            current, vertex = tr.call("lot.collapse", collapse, current, local)
            _need(vertex == step.collapse_vertex, "collapse vertex")
            orig = [o for o in orig if o not in step.sublot_edges]
        _need(current == chain.final_quotient, "final quotient")
        report = tr.call("lot.check_properties", check_properties, current)
        _need(report.prime, "final quotient prime")
