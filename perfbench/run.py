"""Benchmark of lotva's certify, verify-cert and weight-test paths.

    python3 perfbench/run.py --workload sweep6 --seed 0 --seconds 5 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  The last line of standard output is one JSON
object; the lines before it give every metric by name with its unit and
sample count.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep6", "large", "weights"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lotva" / "__init__.py").is_file():
        print(f"run.py: no lotva sources at {SRC / 'lotva'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs lotva on the path
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
