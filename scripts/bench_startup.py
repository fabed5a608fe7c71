"""Start-up benchmark: the wall time of one command line call in a fresh
interpreter, where import time dominates.

    python3 scripts/bench_startup.py [--root DIR] [--out FILE]

Times, each in a new interpreter: ``python -c pass`` (the floor), ``import
lotva``, ``lotva certify fixtures/fig1.lot`` and ``lotva verify-cert`` of
its certificate (both as ``python -m lotva``).  The library is the
``src/`` of ``--root`` (default: the checkout that holds this script),
copied twice into a temporary directory: once run with no bytecode cache,
so every call compiles the library from source, and once with a cache
that ``compileall`` fills first.  No ``__pycache__`` is written in the
checkout, and none there is read.  Each of ``ROUNDS`` rounds runs every
call once, the two copies in turn and the floor among them, so a slow
spell of the host touches all alike.  Records, per copy, the median, p25
and p75 wall time of each call over the rounds, its median over the
floor, and the median ``-X importtime`` cumulative time of each ``lotva``
module during ``verify-cert``; with the host it ran on.  Standard library
only; a bench, not a test.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("source", "bytecode")
ROUNDS = 21


def calls(cert: Path) -> dict[str, list[str]]:
    """The timed calls, by name: their interpreter arguments."""
    return {
        "pass": ["-c", "pass"],
        "import_lotva": ["-c", "import lotva"],
        "certify": ["-m", "lotva", "certify", "fixtures/fig1.lot", "--out", str(cert)],
        "verify_cert": ["-m", "lotva", "verify-cert", "fixtures/fig1.lot", str(cert)],
    }


def copy_env(src: Path, dest: Path, mode: str) -> dict[str, str]:
    """The environment of an interpreter that imports the library from a
    copy of ``src`` at ``dest``: with no bytecode cache (``source``), or
    with one compiled into the copy first (``bytecode``)."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(dest)
    if mode == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        compileall.compile_dir(str(dest), quiet=1)
    return env


def wall(args: list[str], env: dict, cwd: Path) -> float:
    """Seconds from start to exit of one interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_times(args: list[str], env: dict, cwd: Path) -> dict[str, int]:
    """``-X importtime`` cumulative microseconds of each ``lotva`` module."""
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         cwd=cwd, check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True).stderr
    out = {}
    for line in err.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = (x.strip() for x in line[12:].split("|"))
            if name.startswith("lotva"):
                out[name] = int(cumulative)
    return out


def stats(xs: list[float]) -> dict[str, float]:
    q = statistics.quantiles(xs, n=4)
    return {"median_ms": round(1000 * statistics.median(xs), 2),
            "p25_ms": round(1000 * q[0], 2), "p75_ms": round(1000 * q[2], 2)}


def measure(root: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cert = tmp / "fig1.cert"
        envs = {mode: copy_env(root / "src", tmp / mode, mode) for mode in MODES}
        for mode, env in envs.items():  # the copies are the ones imported
            where = subprocess.run(
                [sys.executable, "-c", "import lotva; print(lotva.__file__)"],
                env=env, check=True, capture_output=True, text=True).stdout
            assert Path(where.strip()).is_relative_to(tmp / mode), where
        timed = calls(cert)
        wall(timed["certify"], envs["source"], root)  # the cert verify-cert reads
        times = {(mode, name): [] for mode in MODES for name in timed}
        for _ in range(ROUNDS):
            for mode in MODES:
                for name, args in timed.items():
                    times[mode, name].append(wall(args, envs[mode], root))
        imports = {mode: [import_times(timed["verify_cert"], envs[mode], root)
                          for _ in range(ROUNDS // 4)] for mode in MODES}
    record = {}
    for mode in MODES:
        floor = statistics.median(times[mode, "pass"])
        record[mode] = {name: {**stats(times[mode, name]), "over_floor_ms": round(
            1000 * (statistics.median(times[mode, name]) - floor), 2)}
            for name in timed}
        modules = sorted({m for run in imports[mode] for m in run})
        record[mode]["importtime_cumulative_us"] = {
            m: statistics.median(run.get(m, 0) for run in imports[mode])
            for m in modules}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and fixtures/ to time")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = ap.parse_args(argv)
    record = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ROUNDS,
        **measure(args.root.resolve()),
    }
    for mode in MODES:
        print(mode + ": " + ", ".join(
            f"{name} {r['median_ms']} ms" for name, r in record[mode].items()
            if name != "importtime_cumulative_us"))
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
