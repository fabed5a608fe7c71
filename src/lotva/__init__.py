"""Vertex asphericity of labeled oriented trees.

The pipeline: parse a LOT, build its one-vertex 2-complex, inspect link
graphs and weight tests, and produce / independently verify certificates
that the complex is vertex aspherical.
"""

from .errors import (DegenerateDiagramError, LotvaError, ParseError,
                     PreconditionError, StructureError)
from .lot import (ChainStep, CollapseChain, FreeDecomposition, Lot, LotEdge,
                  PropertyReport, SignedLot, boundary_reducible_witness,
                  check_properties, collapse, collapse_vertex_of,
                  complete_set_search, enumerate_sublots, extract_sublot,
                  format_lot, free_decomposition, is_compressed, is_injective,
                  is_sublot, parse_lot, reorient, sign_change, sublot_closure,
                  sublot_vertices)
from .complexes import (BoundaryWord, Cell, SubcomplexFamily, TwoComplex,
                        build_complex, derive_subcomplexes, exponent_sum,
                        format_complex, is_full, parse_complex)
from .linkage import (Corner, DeltaBlock, EdgeEnd, LinkGraph, build_link,
                      build_relative_link, relative_forest_check,
                      signed_relative_forest_check, signed_sublinks, to_dot)
from .weights import (Verdict, WeightAssignment, canonical_weights,
                      check_cell_condition, find_homred_violation,
                      format_weights, min_weight_reduced_cycle,
                      orientation_search, parse_weights, relative_weight_test,
                      weight_test)
from .diagrams import (CurvatureReport, DiagramEdge, DiagramFace,
                       DiagramReport, SurfaceDiagram, VertexLinkCycle,
                       curvature_report, double_cell_sphere,
                       find_folding_vertices, find_sink_source,
                       format_diagram, is_vertex_reduced, k_thin_check,
                       parse_diagram, validate_diagram, vertex_link_cycle,
                       vertex_link_cycles)
from .certify import (BaseTrivial, BoundaryReduction, Certificate,
                      CertifyFailure, CompleteSetRelative,
                      FreeDecompositionNode, PrimeWeightTest,
                      VerificationVerdict, boundary_reduce, certify_va,
                      parse_certificate, serialize_certificate,
                      verify_certificate)

__version__ = "0.1.0"
