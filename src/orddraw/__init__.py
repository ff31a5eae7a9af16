"""Order diagram drawing on a two-dimensional grid.

The package takes a finite order, inserts as few extra comparabilities as
possible until the result has order dimension at most two, and places the
elements by their ranks in the resulting realizer.  Along the way it
exposes the pieces individually: order and lattice construction, conjugate
orders and realizers, the incompatibility graph, exact minimum odd cycle
transversals and a local-search heuristic, the bipartization CNF
(for a backend the caller runs, with solve_cnf to check its model), and
SVG/TikZ/DOT rendering.  A drawing's false comparabilities are its
trace's inserted and closure-added pairs.
"""

from .bipartization import (OctResult, encode_oct, min_oct_exact,
                            oct_anneal, peel_to_minimal)
from .engine import (ExtensionTrace, GridDrawing, compute_coordinates,
                     drawing_to_json, two_dimension_extension)
from .errors import (BackendFailure, CycleError, GroundMismatch, NotLinear,
                     OrderDrawError, OrderViolation, ParseError, TooLarge,
                     UnknownLabel, Unresolvable)
from .graphs import SimpleGraph, is_bipartite_without
from .ingest import (FormalContext, concept_lattice, parse_cxt,
                     parse_order_text, read_order, serialize_order)
from .orders import (GroundSet, LinearExtension, OrderRelation, antichain,
                     boolean_lattice, build_order, chain, cover_relation,
                     grid, intersect_linear, linear_from_sequence,
                     standard_example)
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .render import detect_collinear, emit_dot, emit_svg, emit_tikz, perturb
from .sat import CnfInstance, solve_cnf
from .tig import TigGraph, build_tig

__version__ = "0.1.0"

__all__ = [
    "BackendFailure", "CnfInstance", "CycleError",
    "ExtensionTrace", "FormalContext",
    "GridDrawing", "GroundMismatch", "GroundSet",
    "LinearExtension", "NotLinear", "OctResult",
    "OrderDrawError", "OrderRelation", "OrderViolation", "ParseError",
    "SimpleGraph", "TigGraph", "TooLarge", "UnknownLabel", "Unresolvable",
    "antichain", "boolean_lattice", "build_order", "build_tig",
    "chain", "compute_conjugate_order",
    "compute_coordinates", "concept_lattice", "cover_relation",
    "detect_collinear", "drawing_to_json", "emit_dot", "emit_svg",
    "emit_tikz", "encode_oct", "grid",
    "intersect_linear", "is_bipartite_without", "linear_from_sequence",
    "min_oct_exact", "oct_anneal",
    "parse_cxt", "parse_order_text", "peel_to_minimal", "perturb",
    "read_order", "realizer_from_conjugate", "serialize_order", "solve_cnf",
    "standard_example",
    "two_dimension_extension",
]
