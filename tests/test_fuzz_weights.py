"""Fuzz tests of the weight-file parser (needs the optional ``hypothesis``).

Any text given to ``parse_weights`` on fig1's link either parses or raises
``LotvaError``, and a parsed assignment goes through the weight test the
same way: no input may end in any other exception.
"""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lotva import (LotvaError, build_complex, build_link, parse_lot,  # noqa: E402
                   parse_weights, weight_test)

FIG1 = parse_lot((Path(__file__).parent.parent / "fixtures" / "fig1.lot").read_text())
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
