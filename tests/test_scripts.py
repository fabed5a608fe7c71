"""Smoke test: every script in scripts/ imports the library and answers
--help, so a library change that breaks a bench script shows here."""

import importlib.util
import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from lotva import certify_va, format_lot, parse_lot, serialize_certificate
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
    verdicts and witnesses."""
    bench = load("bench_relative")
    verdicts = []
    for cx, fam in bench.inputs(0):
        rg = bench.build_relative_link(cx, fam)
        verdicts.append(bench.relative_weight_test(
            cx, fam, bench.canonical_weights(rg), rg))
    assert len(verdicts) == 800
    assert bench.verdict_sha256(verdicts) == \
        "24acebb77019361a7a3ad904bccd6364f0df98b916863112c28fefd9d0e5c7e3"


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
