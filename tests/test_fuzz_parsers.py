"""Fuzz tests of the LOT, complex, diagram and certificate parsers (needs
the optional ``hypothesis``).

Each parser gets free text and valid files with a few tokens deleted,
doubled or replaced, and its result goes on to the call that uses it:
``check_properties`` for a LOT, ``build_link`` and ``weight_test`` for a
complex, ``validate_diagram`` over the square complex and, when it passes,
every diagram operation for a diagram, and
``verify_certificate`` against fig1, fig3 and prime for a certificate.  No
input may end in any exception other than ``LotvaError``.
"""

import re
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lotva import (LotvaError, SubcomplexFamily, build_complex,  # noqa: E402
                   build_link, canonical_weights, certify_va,
                   check_properties, curvature_report, double_cell_sphere,
                   find_folding_vertices, find_sink_source, format_complex,
                   format_diagram, is_vertex_reduced, k_thin_check,
                   parse_certificate, parse_complex, parse_diagram, parse_lot,
                   serialize_certificate, validate_diagram, verify_certificate,
                   vertex_link_cycle, weight_test)

FIXTURES = Path(__file__).parent.parent / "fixtures"
LOT_TEXTS = [(FIXTURES / f"{n}.lot").read_text() for n in ("fig1", "fig3", "prime")]
LOTS = [parse_lot(t) for t in LOT_TEXTS]
SQUARE_TEXT = (FIXTURES / "square.cplx").read_text()
SQUARE = parse_complex(SQUARE_TEXT)
COMPLEX_TEXTS = [SQUARE_TEXT] + [format_complex(build_complex(lot)) for lot in LOTS]
SQUARE_FAMILY = SubcomplexFamily(((frozenset({"x"}), frozenset()),))
SQUARE_WEIGHTS = canonical_weights(build_link(SQUARE))
DIAGRAM_TEXTS = [(FIXTURES / "torus.diag").read_text(),
                 format_diagram(double_cell_sphere(SQUARE, "sq"))]
CERT_TEXTS = [serialize_certificate(certify_va(lot)) for lot in LOTS]

# replacement tokens: keywords, names, numbers, separators, one number with
# more digits than int() converts
_POOL = ["lot", "vertex", "edge", "complex", "cell", "diagram", "over", "face",
         "maps", "orient", "boundary", "base", "bdry-red", "free-dec",
         "prime-wt", "complete-set", "step", "final", "flipped", "pos", "neg",
         "a", "b", "z", "x", "sq", "d_0", "v", "ex", "0", "1", "-1", "6", "99",
         "9" * 5000, "(", ")", ",", "=", "-", "+", "#", "\n", " ", ""]
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


def _span_end(tokens, i):
    """End of the item starting at token i: past the matching ")" when it
    is "(", else i + 1."""
    depth = 0
    for j in range(i, len(tokens)):
        depth += {"(": 1, ")": -1}.get(tokens[j], 0)
        if depth <= 0:
            return j + 1
    return len(tokens)


def _files(texts):
    """Free text, or one of ``texts`` with one to four edits: a token or a
    parenthesized group deleted or doubled, or a token replaced."""

    @st.composite
    def mutated(draw):
        tokens = re.findall(r"[(),=]|[^\s(),=]+|\s+", draw(st.sampled_from(texts)))
        for _ in range(draw(st.integers(1, 4))):
            if not tokens:
                break
            i = draw(st.integers(0, len(tokens) - 1))
            j = _span_end(tokens, i)
            op = draw(st.sampled_from(("delete", "double", "replace")))
            if op == "delete":
                del tokens[i:j]
            elif op == "double":
                tokens[i:i] = tokens[i:j]
            else:
                tokens[i] = draw(st.sampled_from(_POOL))
        return "".join(tokens)

    return st.one_of(st.text(), mutated())


@_SETTINGS
@given(text=_files(LOT_TEXTS))
def test_lot_file_parses_or_raises_lotva_error(text):
    try:
        check_properties(parse_lot(text))
    except LotvaError:
        pass


@_SETTINGS
@given(text=_files(COMPLEX_TEXTS))
def test_complex_file_parses_or_raises_lotva_error(text):
    try:
        cx = parse_complex(text)
        g = build_link(cx)
        weight_test(cx, g, canonical_weights(g))
    except LotvaError:
        pass


@_SETTINGS
@given(text=_files(DIAGRAM_TEXTS))
def test_diagram_file_parses_or_raises_lotva_error(text):
    """A diagram that validates also goes through every diagram operation."""
    try:
        d = parse_diagram(text)
        if not validate_diagram(d, SQUARE).valid:
            return
    except LotvaError:
        return
    operations = [lambda: find_folding_vertices(d, SQUARE),
                  lambda: find_folding_vertices(d, SQUARE, SQUARE_FAMILY),
                  lambda: is_vertex_reduced(d, SQUARE),
                  lambda: k_thin_check(d, SQUARE, SQUARE_FAMILY),
                  lambda: curvature_report(d, SQUARE, SQUARE_WEIGHTS),
                  lambda: find_sink_source(d, SQUARE)]
    operations += [lambda v=v: vertex_link_cycle(d, v, SQUARE)
                   for v in d.vertices]
    for op in operations:
        try:
            op()
        except LotvaError:
            pass


@_SETTINGS
@given(text=_files(CERT_TEXTS), lot=st.sampled_from(LOTS))
def test_certificate_file_parses_or_raises_lotva_error(text, lot):
    try:
        verify_certificate(lot, parse_certificate(text))
    except LotvaError:
        pass
