"""Vertex asphericity of labeled oriented trees.

The pipeline: parse a LOT, build its one-vertex 2-complex, inspect link
graphs and weight tests, and produce / independently verify certificates
that the complex is vertex aspherical.  The decision procedure (``lot``,
``orient``, ``certify``) loads with the package; the paper layer loads on
the first use of a name of ``_PAPER`` or of its module (PEP 562).
"""

from importlib import import_module as _import_module

from .errors import (DegenerateDiagramError, LotvaError, ParseError,
                     PreconditionError, StructureError)
from .lot import (ChainStep, CollapseChain, FreeDecomposition, Lot, LotEdge,
                  PropertyReport, SignedLot, boundary_reducible_witness,
                  check_properties, collapse, complete_set_search,
                  enumerate_sublots, extract_sublot, format_lot,
                  free_decomposition, is_compressed, is_injective, is_sublot,
                  parse_lot, reorient, sign_change, sublot_closure,
                  sublot_vertices)
from .orient import orientation_search
from .certify import (BaseTrivial, BoundaryReduction, Certificate,
                      CertifyFailure, CompleteSetRelative,
                      FreeDecompositionNode, PrimeWeightTest,
                      VerificationVerdict, boundary_reduce, certify_va,
                      parse_certificate, serialize_certificate,
                      verify_certificate)

__version__ = "0.1.0"

_PAPER = {
    "complexes": "BoundaryWord Cell SubcomplexFamily TwoComplex build_complex "
                 "derive_subcomplexes exponent_sum format_complex parse_complex",
    "linkage": "Corner DeltaBlock EdgeEnd LinkGraph build_link "
               "build_relative_link signed_relative_forest_check to_dot",
    "weights": "Verdict WeightAssignment canonical_weights check_cell_condition "
               "find_homred_violation format_weights min_weight_reduced_cycle "
               "parse_weights relative_weight_test weight_test",
    "diagrams": "CurvatureReport DiagramEdge DiagramFace DiagramReport "
                "SurfaceDiagram VertexLinkCycle curvature_report "
                "double_cell_sphere find_folding_vertices find_sink_source "
                "format_diagram is_vertex_reduced k_thin_check parse_diagram "
                "validate_diagram vertex_link_cycle vertex_link_cycles",
}
_LAZY = {name: module for module, names in _PAPER.items() for name in names.split()}
__all__ = [*(name for name in globals() if not name.startswith("_")), *_LAZY,
           *_PAPER]


def __getattr__(name: str):
    module = _LAZY.get(name, name if name in _PAPER else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_PAPER})
