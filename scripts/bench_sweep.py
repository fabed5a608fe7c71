"""Sweep-generation benchmark: ``iter_small_lots`` at 6 and 7 edges.

    python3 scripts/bench_sweep.py [--out FILE]

Run from anywhere; the library is imported from the ``src/`` next to this
script.  ``max_edges`` 6 and 7 each run in a fresh interpreter, so each
peak RSS is its own.  Records, per ``max_edges``, the LOT count by edge
count, the wall time of generating and counting them, and the peak RSS,
with the host it ran on.  The wall time is stated at the reference host
speed of ``perfbench/host.py``: its ``Scaler`` times a fixed loop about
every 0.1 s of generation, outside the timed intervals, and each interval
is multiplied by its factor; the raw time and the range of factors are
recorded too.  Standard library only; a bench, not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one(max_edges: int) -> dict:
    """Generate and count every LOT of ``iter_small_lots(max_edges)``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from host import Scaler
    from lotva.sweep import iter_small_lots

    counts = [0] * (max_edges + 1)
    intervals = []  # (raw seconds, host factor)
    clock = time.perf_counter
    scaler = Scaler()
    t0 = clock()
    for k, lot in enumerate(iter_small_lots(max_edges)):
        counts[len(lot.edges)] += 1
        if not k & 4095 and scaler.due():
            intervals.append((clock() - t0, scaler.factor()))
            t0 = clock()
    intervals.append((clock() - t0, scaler.factor()))
    factors = [f for _, f in intervals]
    return {
        "max_edges": max_edges,
        "lots": sum(counts),
        "lots_by_edges": {str(k): c for k, c in enumerate(counts)},
        "wall_s": round(sum(dt * f for dt, f in intervals), 3),
        "raw_wall_s": round(sum(dt for dt, _ in intervals), 3),
        "host_factor_range": [round(min(factors), 3), round(max(factors), 3)],
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_sweep_gen.json")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one is not None:
        print(json.dumps(one(args.one)))
        return 0
    runs = []
    for k in (6, 7):
        out = subprocess.run([sys.executable, __file__, "--one", str(k)],
                             check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out))
        run = runs[-1]
        print(f"max_edges {k}: {run['lots']} LOTs, {run['wall_s']} s "
              f"(raw {run['raw_wall_s']} s, host factors "
              f"{run['host_factor_range'][0]}..{run['host_factor_range'][1]}), "
              f"{run['peak_rss_mb']} MB")
    record = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
