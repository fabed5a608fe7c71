"""Smoke test: every script in scripts/ imports the library and answers
--help, so a library change that breaks a bench script shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_relative", ROOT / "scripts" / "bench_relative.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    verdicts = []
    for cx, fam in bench.inputs(0):
        rg = bench.build_relative_link(cx, fam)
        verdicts.append(bench.relative_weight_test(
            cx, fam, bench.canonical_weights(rg), rg))
    assert len(verdicts) == 800
    assert bench.verdict_sha256(verdicts) == \
        "24acebb77019361a7a3ad904bccd6364f0df98b916863112c28fefd9d0e5c7e3"
