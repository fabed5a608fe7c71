"""Smoke test: every script in scripts/ imports the library and answers
--help, so a library change that breaks a bench script shows here."""

import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from lotva import (Lot, build_complex, build_link, build_relative_link,
                   canonical_weights, certify_va, curvature_report,
                   derive_subcomplexes, double_cell_sphere, find_sink_source,
                   format_lot, parse_lot, relative_weight_test,
                   serialize_certificate, weight_test)
from lotva.sweep import iter_small_lots

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(script), "--help"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("usage:")


def test_bench_relative_verdicts():
    """The relative weight tests of ``scripts/bench_relative.py`` on the
    800 LOTs of the ``weights`` workload at seed 0 give the recorded
    verdicts and witnesses; the closure family it times is the weight
    path's."""
    bench = load("bench_relative")
    verdicts = []
    for text, parts in bench.weight_cases(0):
        lot = parse_lot(text)
        assert bench.family(lot) == parts
        cx, fam = build_complex(lot), derive_subcomplexes(lot, parts)
        rg = build_relative_link(cx, fam)
        verdicts.append(relative_weight_test(cx, fam, canonical_weights(rg), rg))
    assert len(verdicts) == 800
    assert bench.verdict_sha256(verdicts) == \
        "24acebb77019361a7a3ad904bccd6364f0df98b916863112c28fefd9d0e5c7e3"


def test_weight_path_outputs():
    """On the 800 LOTs of ``test_bench_relative_verdicts``, the absolute
    weight tests give the recorded verdicts and witnesses, and the pillow
    over the first cell the recorded curvature reports and sinks and
    sources."""
    bench = load("bench_relative")
    verdicts, pillows = [], []
    for text in bench.weight_texts(0):
        cx = build_complex(parse_lot(text))
        g = build_link(cx)
        w = canonical_weights(g)
        verdicts.append(weight_test(cx, g, w))
        p = double_cell_sphere(cx, "d_0")
        pillows.append((curvature_report(p, cx, w), find_sink_source(p, cx)))
    assert len(verdicts) == 800 and sum(not v.ok for v in verdicts) == 792
    assert bench.verdict_sha256(verdicts) == \
        "09fdf1de46376a7820596dd8ed76ba45749f7e15655b0e4b9423f72b606d7759"
    assert hashlib.sha256(repr(pillows).encode()).hexdigest() == \
        "8d53d8e22036729b2798aaeb586efff421903e69e677b19f952a354825b81e76"


def test_bench_against_loop():
    """``best_times`` with ``against`` runs each call and its counterpart
    in turn, ``AGAINST_ROUNDS`` times, call after call within a stage, and
    keeps the best of both; arguments given as a function are made anew
    for every call.  ``load_against`` imports a library apart from
    ``lotva``, and both scripts measure on it: a second copy of this
    checkout's gives the same certificates and verdicts."""
    bench = load("bench_certify")
    ran, made = [], []

    def logged(side, key):
        return lambda *args: ran.append((side, key, args))

    def args():
        made.append(object())
        return (made[-1],)

    keys = [(r, stage) for stage in ("first", "second") for r in range(2)]
    best, factors = bench.best_times(*[[(key, logged(side, key), args) for key in keys]
                                       for side in (0, 1)])
    assert [(side, key) for side, key, _ in ran] == [
        (side, key) for key in keys for _ in range(bench.AGAINST_ROUNDS)
        for side in (0, 1)]
    assert [a for _, _, (a,) in ran] == made
    assert sorted(best) == sorted(keys)
    assert all(len(b) == 4 and all(math.isfinite(t) and t > 0 for t in b)
               for b in best.values())
    lib = bench.load_against(ROOT)
    assert lib.__name__ == "lotva_against" and lib.Lot is not Lot
    texts = [(ROOT / "fixtures" / f"{name}.lot").read_text() for name in ("fig1", "prime")]
    record = bench.measure(texts, lib)
    assert set(record["before"]) == set(record["stages"]) == set(record["paired_change_pct"])
    relative = load("bench_relative")
    record = relative.measure(relative.weight_cases(0)[:3], lib)
    assert set(record["before"]["stages"]) == set(record["stages"])
    assert set(record["paired_change_pct"]) == {*record["stages"], "all_stages"}


def test_bench_certify_loop():
    """The timing loop and summary of ``scripts/bench_certify.py``, which
    ``bench_relative.py`` shares, on fig1 and two LOTs of the <=6 sweep:
    every (root, stage) call gets a finite scaled and raw time, the calls
    run stage by stage (each stage's calls in every round before the next
    stage's), and the record holds each certificate's byte count."""
    bench = load("bench_certify")
    texts = [(ROOT / "fixtures" / "fig1.lot").read_text()] + [
        format_lot(lot) for lot in islice(iter_small_lots(6), 0, 80, 40)]
    roots = [bench.root_calls(text) for text in texts]
    ran = []

    def logged(key, fn):
        return lambda *args: (ran.append(key), fn(*args))

    calls = [((r, stage), logged((r, stage), fn), args)
             for r, (_, _, root) in enumerate(roots) for stage, fn, args in root]
    best, factors = bench.best_times(calls)
    stages = list(dict.fromkeys(stage for (_, stage), _, _ in calls))
    assert ran == [key for stage in stages for _ in range(bench.ROUNDS)
                   for key, _, _ in calls if key[1] == stage]
    assert sorted(best) == sorted(key for key, _, _ in calls)
    assert all(math.isfinite(t) and t > 0 for b in best.values() for t in b)
    assert 0 < factors[0] <= factors[1]
    s = bench.summary(list(best.values()))
    assert s["count"] == len(calls)
    assert all(math.isfinite(v) for v in s.values())
    sizes = [len(serialize_certificate(certify_va(parse_lot(t))).encode())
             for t in texts]
    assert [size for _, size, _ in roots] == sizes
    record = bench.measure(texts)
    assert (record["bytes_total"], record["bytes_max"]) == (sum(sizes), max(sizes))
    assert record["stages"]["certify_va"]["count"] == len(texts)
