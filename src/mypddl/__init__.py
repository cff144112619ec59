"""Knowledge-engineering toolkit for PDDL 3.1.

Lossless parsing, context-aware highlighting, type-hierarchy diagrams,
construct extraction/insertion, Euclidean distance preprocessing, project
scaffolding, snippet expansion, and planner invocation -- each usable as a
library module or through the ``mypddl`` command line.
"""

from .construct import add_construct, insert_construct, read_construct
from .distance import (
    augment_with_distances,
    euclidean,
    extract_locations,
    format_distance,
)
from .highlight import (
    Scope,
    Token,
    emit_tokens_json,
    invalid_regions,
    iter_tokens_json,
    render_html,
    tokenize,
)
from .model import PddlDomain, PddlProblem, parse_domain, parse_problem, parse_typed_list
from .planner import PlannerConfig, PlanResult, run_planner
from .scaffold import ProjectTemplate, create_project
from .sexpr import (
    Document,
    MyPddlError,
    NodeKind,
    ParseDiagnostic,
    SExprNode,
    Severity,
    Span,
    find_blocks,
    parse_sexpr,
    serialize,
)
from .snippets import expand, list_snippets, load_snippets
from .typegraph import TypeGraph, build_type_graph, emit_dot, render_diagram

__version__ = "0.1.0"

__all__ = [
    "Document", "MyPddlError", "NodeKind", "ParseDiagnostic", "SExprNode", "Severity",
    "Span", "parse_sexpr", "serialize", "find_blocks",
    "PddlDomain", "PddlProblem", "parse_domain", "parse_problem",
    "parse_typed_list",
    "Scope", "Token", "tokenize", "invalid_regions", "emit_tokens_json",
    "iter_tokens_json", "render_html",
    "TypeGraph", "build_type_graph", "emit_dot", "render_diagram",
    "read_construct", "add_construct", "insert_construct",
    "extract_locations", "euclidean", "format_distance",
    "augment_with_distances",
    "ProjectTemplate", "create_project",
    "load_snippets", "expand", "list_snippets",
    "PlannerConfig", "PlanResult", "run_planner",
    "__version__",
]
