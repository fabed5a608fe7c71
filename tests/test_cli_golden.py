"""The stdout of ``lotva links [--dot]`` and ``lotva weight-test
[--weights]``, with and without ``--relative``, pinned by sha256.

Inputs: the ``fixtures/*.lot`` files and ten seeded random LOTs with 16-24
edges, each with the greedy closure family as K.  Each weight file gives
every cell corner of the link a seeded weight from a few small fractions.
A digest covers every input in order: its name, the exit code and stdout.
"""

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from lotva import (build_complex, build_relative_link, canonical_weights,
                   derive_subcomplexes, format_lot, parse_lot,
                   relative_weight_test)
from lotva.cli import main
from lotva.sweep import random_lot

from oracles import closure_family

FIXTURES = Path(__file__).parent.parent / "fixtures"
WEIGHTS = ("0", "0", "0", "1/4", "1/3", "1/2", "2/3", "1")

DIGESTS = {
    ("links", False):
        "47098ce58a909396fa149d24c7a2269588a24707afb8bffda93d75dc370a0c6a",
    ("links", True):
        "f0fe34c6c3870cca2f5d4309a77b1f9dbe78035652b1ed41baa1e564403dfcb9",
    ("links --dot", False):
        "69494f762c79e30f535f83dd1bb15f30613885913a8dadb0a3b819bf5dd515ba",
    ("links --dot", True):
        "68a3b566973e356f9f2eb4b10ebe745970c70c88a4f73f23e0b5490c6a601409",
    ("weight-test", False):
        "e1b681e2c650df2643732e9e1f63c85ba8a592b8ae8658e0e422a3c6fe1643bc",
    ("weight-test", True):
        "fea9308f28b69ffc5027b12105dfecd412263410a0b7147d6f5399c04c8432d0",
    ("weight-test --weights", False):
        "7622dcc6c14a075fe6a020d43bb4ee527bce12cdc165754f4fa7f18ab6c3c1bb",
    ("weight-test --weights", True):
        "464b7d69822e5a4999bf5627773a1bb73251d3c7ad4f526c04e7c0f162a5ef19",
}


def _lots():
    lots = [(p.stem, parse_lot(p.read_text())) for p in sorted(FIXTURES.glob("*.lot"))]
    lots += [(f"random-{s}", random_lot(random.Random(s), 16 + s % 9))
             for s in range(10)]
    return lots


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(name, LOT file, --relative arguments, weight files by relative)."""
    d = tmp_path_factory.mktemp("golden")
    rng = random.Random(2024)
    out = []
    for name, lot in _lots():
        path = d / f"{name}.lot"
        path.write_text(format_lot(lot))
        parts = closure_family(lot)
        relative = [a for part in parts
                    for a in ("--relative", ",".join(map(str, sorted(part))))]
        k_cells = derive_subcomplexes(lot, parts).all_cells
        files = {}
        for rel in (False, True):
            lines = [f"corner {cell.name} {i} = {rng.choice(WEIGHTS)}"
                     for cell in build_complex(lot).cells
                     if not (rel and cell.name in k_cells)
                     for i in range(len(cell.boundary))]
            files[rel] = d / f"{name}-{int(rel)}.weights"
            files[rel].write_text("\n".join(lines) + "\n")
        out.append((name, str(path), relative, files))
    return out


def test_relative_witnesses_cross_delta_darts():
    """Some inputs fail the relative test on a cycle through Delta corners."""
    crossing = 0
    for _, lot in _lots():
        cx = build_complex(lot)
        fam = derive_subcomplexes(lot, closure_family(lot))
        rg = build_relative_link(cx, fam)
        v = relative_weight_test(cx, fam, canonical_weights(rg), rg)
        if not v.ok and v.violation[0] == "cycle":
            crossing += any(rg.corners[cid].is_delta for cid, _ in v.violation[1])
    assert crossing >= 3


@pytest.mark.parametrize("command, relative", list(DIGESTS),
                         ids=[f"{c}{' --relative' * r}" for c, r in DIGESTS])
def test_stdout_digest(inputs, command, relative):
    h = hashlib.sha256()
    codes = set()
    for name, path, rel_args, files in inputs:
        argv = command.split()[:1] + [path] + command.split()[1:]
        if argv[-1] == "--weights":
            argv.append(str(files[relative]))
        if relative:
            argv += rel_args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        codes.add(code)
        h.update(f"{name} {code}\n{buf.getvalue()}".encode())
    assert 2 not in codes
    assert h.hexdigest() == DIGESTS[command, relative]
