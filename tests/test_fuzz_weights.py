"""Fuzz tests of the weight paths (needs the optional ``hypothesis``).

Any text given to ``parse_weights`` on fig1's link either parses or raises
``LotvaError``, and a parsed assignment goes through the weight test the
same way: no input may end in any other exception.  A relative link
corrupted in one place is refused by the relative weight test with
``PreconditionError``.
"""

import random
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from lotva import (LinkGraph, LotvaError, PreconditionError,  # noqa: E402
                   SubcomplexFamily, build_complex, build_link,
                   build_relative_link, canonical_weights, derive_subcomplexes,
                   parse_lot, parse_weights, relative_weight_test, reorient,
                   weight_test)
from lotva.sweep import random_lot  # noqa: E402

from oracles import closure_family  # noqa: E402

FIXTURES = Path(__file__).parent.parent / "fixtures"
FIG1 = parse_lot((FIXTURES / "fig1.lot").read_text())
CX = build_complex(FIG1)
LINK = build_link(CX)

# free text, and lines close to the grammar: real and unknown cells and
# positions, signs, zero and missing denominators, comments
_CORNER_LINES = st.builds(
    "corner {} {} = {}{}{}".format,
    st.sampled_from([f"d_{i}" for i in range(7)] + ["x", "d_0 d_1"]),
    st.integers(0, 5),
    st.integers(-3, 9),
    st.one_of(st.just(""), st.integers(0, 12).map("/{}".format)),
    st.sampled_from(["", "  # note", " extra"]))
_FILES = st.lists(st.one_of(st.text(), _CORNER_LINES), max_size=6).map("\n".join)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_FILES)
def test_weight_file_parses_or_raises_lotva_error(text):
    try:
        w = parse_weights(text, LINK)
        weight_test(CX, LINK, w)
    except LotvaError:
        pass


# the fixtures and small random LOTs, each with its greedy closure family
_LOTS = [parse_lot((FIXTURES / f"{name}.lot").read_text())
         for name in ("fig1", "fig3", "prime")]
_LOTS += [random_lot(random.Random(s), 3 + s % 8) for s in range(16)]
_CASES = [(lot, derive_subcomplexes(lot, closure_family(lot))) for lot in _LOTS]
_CORRUPTIONS = ["drop cell", "drop delta", "duplicate cell", "duplicate delta",
                "rewire cell", "rewire delta", "delta out of block",
                "another orientation", "another family"]


def _corrupted(lot, fam, cx, kind: str, rnd: random.Random) -> LinkGraph:
    """lk(L, K) of cx and fam, changed in one place by ``kind``."""
    if kind == "another orientation":  # of an edge whose cell is in the link
        free = [i for i in range(lot.num_edges) if f"d_{i}" not in fam.all_cells]
        return build_relative_link(build_complex(reorient(lot, {rnd.choice(free)})),
                                   fam)
    if kind == "another family":  # a part dropped or without its cells, or one more
        if fam.parts:
            i = rnd.randrange(len(fam.parts))
            parts = fam.parts[:i] + fam.parts[i + 1:]
            if rnd.random() < 0.5:
                parts += ((fam.parts[i][0], frozenset()),)
        else:
            parts = ((frozenset({rnd.choice(lot.vertices)}), frozenset()),)
        return build_relative_link(cx, SubcomplexFamily(parts))
    g = build_relative_link(cx, fam)
    corners = list(g.corners)
    delta = "delta" in kind
    at = [i for i, c in enumerate(corners) if c.is_delta == delta]
    assume(at)
    i = rnd.choice(at)
    c = corners[i]
    if kind.startswith("drop"):
        del corners[i]
    elif kind.startswith("duplicate"):
        corners.append(c._replace(id=max(g._ids) + 1))
    else:
        block = g.delta_blocks[c.provenance[1]].nodes if delta else ()
        away = [n for n in g.nodes if n not in (c.a, c.b)
                and (kind != "delta out of block" or n not in block)]
        corners[i] = c._replace(b=rnd.choice(away))
    nodes = list(g.nodes)
    if rnd.random() < 0.5:
        rnd.shuffle(nodes)
    return LinkGraph(tuple(nodes), tuple(corners), g.delta_blocks)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(range(len(_CASES))), kind=st.sampled_from(_CORRUPTIONS),
       rnd=st.randoms(use_true_random=False))
def test_corrupted_relative_link_refused(case, kind, rnd):
    """One corner dropped, duplicated or moved to a node that is neither of
    its ends, a Delta corner moved out of its block (nodes shuffled half
    the time), or the built link of another orientation or family: the
    relative weight test raises PreconditionError and nothing else."""
    lot, fam = _CASES[case]
    cx = build_complex(lot)
    g = _corrupted(lot, fam, cx, kind, rnd)
    with pytest.raises(PreconditionError):
        relative_weight_test(cx, fam, canonical_weights(g), g)
