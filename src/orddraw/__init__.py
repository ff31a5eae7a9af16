"""Order diagram drawing on a two-dimensional grid.

The package takes a finite order, inserts as few extra comparabilities as
possible until the result has order dimension at most two, and places the
elements by their ranks in the resulting realizer.  Along the way it
exposes the pieces individually: order and lattice construction, transitive
orientation, the incompatibility graph, exact minimum odd cycle
transversals with greedy and annealing heuristics and a CNF export, and
SVG/TikZ/DOT rendering.
"""

from .bipartization import (AnnealParams, OctResult, encode_oct,
                            min_oct_exact, oct_anneal, oct_greedy,
                            peel_to_minimal)
from .engine import (DominanceReport, ExtensionTrace, GridDrawing,
                     compute_coordinates, drawing_to_json,
                     two_dimension_extension, weak_dominance_stats)
from .errors import (BackendFailure, CycleError, EdgeMismatch,
                     GroundMismatch, NotIncomparable, NotLinear,
                     OrderDrawError, OrderViolation, ParseError, TooLarge,
                     UnknownLabel, Unresolvable)
from .graphs import SimpleGraph, is_bipartite_without, two_coloring
from .ingest import (FormalContext, concept_lattice, parse_cxt,
                     parse_order_text, serialize_order)
from .orders import (GroundSet, LinearExtension, OrderRelation, antichain,
                     boolean_lattice, build_order, chain, cover_relation,
                     grid, incomparable_pairs, intersect_linear,
                     all_linear_extensions, linear_from_sequence,
                     standard_example)
from .orientation import (cocomparability_graph, comparability_graph,
                          compute_conjugate_order, realizer_from_conjugate,
                          transitive_orientation, verify_orientation)
from .render import (CanvasSpec, detect_collinear, emit_dot, emit_svg,
                     emit_tikz, perturb)
from .sat import CnfInstance, ExternalSolver, parse_dimacs, solve_cnf
from .tig import TigGraph, build_tig, enforces, incompatible

__version__ = "0.1.0"

__all__ = [
    "AnnealParams", "BackendFailure", "CanvasSpec",
    "CnfInstance", "CycleError", "DominanceReport",
    "EdgeMismatch", "ExtensionTrace", "ExternalSolver", "FormalContext",
    "GridDrawing", "GroundMismatch", "GroundSet",
    "LinearExtension", "NotIncomparable", "NotLinear", "OctResult",
    "OrderDrawError", "OrderRelation", "OrderViolation", "ParseError",
    "SimpleGraph", "TigGraph", "TooLarge", "UnknownLabel", "Unresolvable",
    "all_linear_extensions", "antichain",
    "boolean_lattice", "build_order", "build_tig",
    "chain", "cocomparability_graph", "comparability_graph",
    "compute_conjugate_order",
    "compute_coordinates", "concept_lattice", "cover_relation",
    "detect_collinear", "drawing_to_json", "emit_dot", "emit_svg",
    "emit_tikz",
    "encode_oct", "enforces", "grid", "incomparable_pairs", "incompatible",
    "intersect_linear", "is_bipartite_without", "linear_from_sequence",
    "min_oct_exact", "oct_anneal", "oct_greedy",
    "parse_cxt", "parse_dimacs", "parse_order_text", "peel_to_minimal",
    "perturb", "realizer_from_conjugate", "serialize_order", "solve_cnf",
    "standard_example", "transitive_orientation", "two_coloring",
    "two_dimension_extension", "verify_orientation", "weak_dominance_stats",
]
