"""Set-up, the closed measurement loop, the traced pass and the report.

One process and one caller: the next operation starts only after the
previous one is done, with no threads and no pool.  Times come from
``time.perf_counter`` around calls into the library's public functions,
stated at a fixed host speed (see host.py).
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import resource
import statistics
import time
from typing import NamedTuple

from lotva import LotvaError, serialize_certificate, verify_certificate

import host
import paths
import spans
import workloads

TRACED = "t"         # vertex-name prefix of the traced pass
DIGEST_SEED = 0      # the default --seed
# sha256 over the first pass's certificates and weight verdicts, in input
# order, at DIGEST_SEED: the "same certificates, byte for byte" gate.
DIGESTS = {
    "sweep6": "b389f1a72d17e3df9a8b00ca399433560755e3687710a70bde14c5e63b9c64c4",
    "large": "47461df4f3da8559241a1ac788cb599b86565a74161c6f6c1c54d7074c22e5b2",
    "weights": "3cb30e7e8711b642331ddf4581ecbb8ae90bbbf682e3cf823f41f0f0de7b1c82",
}
MIN_SETUPS = 3       # set-up runs at least this often and for MIN_SETUP_S
MIN_SETUP_S = 1.0    # seconds in all; setup_s is the median


class Checks:
    """Correctness checks attempted and failed (failed_frac is their ratio)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


class Step(NamedTuple):
    """One operation's raw path times in seconds: (certify, verify) or
    (weight test,); ``busy_s`` adds the replay in the traced pass.  ``key``
    is its output, compared across passes."""
    kind: str
    times: tuple
    busy_s: float
    key: str
    cert_bytes: int = 0


def certify_step(tr, text, checks: Checks, counts=None):
    """The certify and verify-cert paths on one LOT, then the checks.

    With ``counts`` (the traced pass) the certificate is also replayed
    inside the operation's root span.
    """
    perf = time.perf_counter
    with tr.span("lot"):
        t0 = perf()
        lot, cert, cert_text = paths.certify_path(tr, text)
        t1 = perf()
        if cert_text is None:
            checks.expect(False, f"certify_va failed: {cert}")
            return None
        parsed, verdict = paths.verify_path(tr, text, cert_text)
        t2 = perf()
        if counts is not None:
            spans.replay(tr, counts, lot, cert)
            counts.replay_s += perf() - t2
            for node_lot, chain in counts.chains:
                spans.replay_chain(tr, node_lot, chain)
            counts.chains.clear()
        t3 = perf()
    checks.expect(verdict.accepted, f"certificate rejected: {verdict.failing_check}")
    checks.expect(parsed == cert and serialize_certificate(parsed) == cert_text,
                  "certificate does not survive serialize/parse")
    tampered = paths.tamper(cert)
    if tampered is not None:
        v = tr.call("certify.reject", verify_certificate, lot, tampered)
        checks.expect(not v.accepted
                      and (v.failing_check or "").endswith("-witness-match"),
                      f"swapped corner lists gave {v.failing_check or 'accept'}")
    return Step("certify", (t1 - t0, t2 - t1), t3 - t0, cert_text,
                len(cert_text.encode()))


def weights_step(tr, text, checks: Checks, counts=None):
    """The weight-test path on one LOT, then the checks."""
    with tr.span("lot"):
        t0 = time.perf_counter()
        result = paths.weight_path(tr, text)
        t1 = time.perf_counter()
    problems = paths.weight_problems(result)
    checks.expect(not problems, "; ".join(problems))
    return Step("weights", (t1 - t0,), t1 - t0, paths.weight_summary(result))


def prefix(p: int) -> str:
    """Vertex-name prefix of pass p (v3, v1_3, v2_3, ...)."""
    return "v" if p == 0 else f"v{p}_"


def one_pass(tr, ops, name_prefix, checks, counts=None):
    """Runs every operation once.  Returns (step or None where it failed,
    host-speed factor) per operation, and each one's output with its
    vertex names written as in pass 0."""
    done, keys, batch = [], [], 0
    gc.collect()
    scaler = host.Scaler()
    for kind, lot in ops:
        run_step = certify_step if kind == "certify" else weights_step
        try:
            s = run_step(tr, workloads.lot_text(lot, name_prefix), checks, counts)
        except (LotvaError, spans.ReplayMismatch) as exc:
            checks.expect(False, f"{type(exc).__name__}: {exc}")
            s = None
        done.append(s)
        keys.append("error" if s is None else
                    re.sub(rf"\b{name_prefix}(\d+)\b", r"v\1", s.key))
        if scaler.due():
            f = scaler.factor()
            done[batch:] = [(x, f) for x in done[batch:]]
            batch = len(done)
    f = scaler.factor()
    done[batch:] = [(x, f) for x in done[batch:]]
    return done, keys


def setup(workload, seed, checks):
    """Returns the inputs, the median set-up time, the median time in
    lotva.sweep, and the number of set-ups."""
    times, generate, inputs = [], [], None
    while len(times) < MIN_SETUPS or sum(times) < MIN_SETUP_S:
        scaler = host.Scaler()
        t0 = time.perf_counter()
        got = workloads.make_inputs(workload, seed)
        raw = time.perf_counter() - t0
        f = scaler.factor()
        times.append(raw * f)
        generate.append(got.generate_s * f)
        if inputs is not None:
            checks.expect(got.ops == inputs.ops and got.lots == inputs.lots,
                          "set-up is not deterministic")
        inputs = got
    return inputs, statistics.median(times), statistics.median(generate), len(times)


def measure(ops, seconds, checks):
    """Untraced passes, until one is done and ``seconds`` have passed.
    Returns (step, factor) of every operation that succeeded, and the first
    pass's scaled busy time and output digest."""
    tr = spans.NoTrace()
    done, first = [], None
    start = time.perf_counter()
    p = 0
    while first is None or time.perf_counter() - start < seconds:
        steps, keys = one_pass(tr, ops, prefix(p), checks)
        if first is None:
            first = keys
            first_busy = sum(s.busy_s * f for s, f in steps if s is not None)
        else:
            for i, (a, b) in enumerate(zip(first, keys)):
                checks.expect(a == b, f"operation {i} changed output on pass {p}")
        done += [(s, f) for s, f in steps if s is not None]
        p += 1
    digest = hashlib.sha256("\0".join(first).encode()).hexdigest()
    return done, first_busy, digest


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(done, setup_s, setups):
    """name -> (value, unit, note), times at the reference host speed."""
    path_s = sum(sum(s.times) * f for s, f in done)
    out = {
        "setup_s": (setup_s, "s", f"median of {setups} set-ups"),
        "lots_per_s": (len(done) / path_s, "1/s",
                       f"{len(done)} LOTs / {path_s:.3f} s in the paths"),
    }
    for name, kind, i in (("certify", "certify", 0), ("verify", "certify", 1),
                          ("weight_test", "weights", 0)):
        values = [s.times[i] * f for s, f in done if s.kind == kind]
        out[f"{name}_p50_ms"] = (p50(values) * 1e3, "ms", f"n={len(values)}")
        out[f"{name}_p90_ms"] = (p90(values) * 1e3, "ms", f"n={len(values)}")
    factors = [f for _, f in done]
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "MB", f"ru_maxrss; host-speed factors {min(factors):.3f}"
                          f"..{max(factors):.3f}")
    return out


# Per-layer times: the mean self time per call of the span named by the
# metric without its unit suffix.
SPAN_METRICS = (
    "lot.parse_us", "lot.enumerate_sublots_ms", "lot.check_properties_ms",
    "lot.free_decomposition_ms", "lot.complete_set_search_ms",
    "lot.boundary_witness_us", "weights.orientation_search_ms",
    "weights.weight_test_ms", "weights.relative_weight_test_ms",
    "linkage.build_link_us", "linkage.build_relative_link_us",
    "linkage.forest_check_us", "complexes.build_complex_us",
    "complexes.derive_subcomplexes_us", "diagrams.pillow_us",
    "diagrams.curvature_us", "diagrams.sink_source_us",
    "certify.certify_va_ms", "certify.verify_ms", "certify.serialize_us",
    "certify.parse_us", "certify.reject_us",
)


def per_layer(ops, checks, first_busy, generate_s, lots):
    """One traced pass.  name -> (value, unit, note): raw self times, and
    counts summed over the pass."""
    tracer = spans.Tracer()
    counts = spans.ReplayCounts()
    steps, _ = one_pass(tracer, ops, TRACED, checks, counts)
    selfs = tracer.self_times()
    out = {"sweep.generate_s": (generate_s, "s"), "sweep.lots": (lots, "count")}
    for name in SPAN_METRICS:
        span, unit = name.rsplit("_", 1)
        calls, total = selfs.get(span, (0, 0.0))
        out[name] = (total / calls * {"us": 1e6, "ms": 1e3}[unit] if calls else 0.0,
                     unit)
    out["lot.sublot_masks"] = (counts.sublot_masks, "count")
    out["lot.sublots_found"] = (counts.sublots_found, "count")
    out["lot.sublot_yield"] = (counts.sublots_found / counts.sublot_masks
                               if counts.sublot_masks else 0.0, "ratio")
    out["weights.orientation_candidates"] = (counts.orientation_candidates, "count")
    out["weights.orientation_free_edges"] = (counts.orientation_free_edges, "count")
    for kind in ("base", "bdry-red", "free-dec", "prime-wt", "complete-set"):
        out[f"certify.nodes.{kind}"] = (counts.nodes[kind], "count")
    out["certify.depth_max"] = (counts.depth_max, "count")
    out["certify.bytes"] = (sum(s.cert_bytes for s, _ in steps if s is not None),
                            "bytes")
    certify_s = selfs.get("certify.certify_va", (0, 0.0))[1]
    out["certify.replay_coverage"] = (counts.replay_s / certify_s
                                      if certify_s else 0.0, "ratio")
    traced_busy = sum(s.busy_s * f for s, f in steps if s is not None)
    out["trace.overhead_frac"] = (traced_busy / first_busy - 1, "ratio")
    return {k: (v, u, "traced pass") for k, (v, u) in out.items()}


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    checks = Checks()
    inputs, setup_s, generate_s, setups = setup(workload, seed, checks)
    # The inputs live through the run; keep the collector from re-scanning
    # them, so that measured time is the library's own.
    gc.collect()
    gc.freeze()
    done, first_busy, digest = measure(inputs.ops, seconds, checks)
    expected = DIGESTS[workload] if seed == DIGEST_SEED else ""
    if expected:
        checks.expect(digest == expected,
                      f"output digest {digest} differs from the recorded {expected}")
    metrics = e2e = end_to_end(done, setup_s, setups)
    if traced:
        metrics = per_layer(inputs.ops, checks, first_busy, generate_s,
                            inputs.lots)

    print(f"workload {workload}, seed {seed}: {len(inputs.ops)} operations; "
          f"first-pass output digest {digest}")
    for name, (value, unit, note) in {**e2e, **metrics}.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'failed_frac':34s} {checks.failed / checks.attempted:14.6g} "
          f"{'ratio':6s} {checks.failed} of {checks.attempted} checks")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0
